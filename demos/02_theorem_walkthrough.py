"""Every step of the partition-count bound, on one graph.

For a Laplacian eigenvector y of lambda_k, weight the nodes by y_i^2 and
set c = (lambda_{k+1} - lambda_k)/2.  If the positive support splits into
a classes of expansion below c and the negative support into b classes,
then a + b <= k.  This script builds all the intermediate objects of the
argument on a triangle-edge-triangle graph and prints the numbers.
"""

import numpy as np

from nodal_expansion import (
    build_C,
    build_graph,
    build_proof_objects,
    check_B_sign_pattern,
    check_Bz_zero,
    check_C_diagonal,
    check_CminusB_psd,
    check_interlacing,
    check_lambda_max_C,
    class_expansions,
    eigendecompose,
    laplacian,
    select_eigenpair,
    sign_support,
    spectral_gap_c,
    verify_theorem1,
)

# Two triangles joined by an edge: clean two-cluster structure, so k = 2
# has one class per side and the bound 1 + 1 <= 2 is tight.
g = build_graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)])
k = 2

d = eigendecompose(laplacian(g))
y = select_eigenpair(d, k).y
c = spectral_gap_c(d, k)
supp = sign_support(y)
print("eigenvalues:", np.round(d.values, 4))
print("lambda_2 eigenvector:", np.round(y, 4))
print("c = (lambda_3 - lambda_2)/2 =", round(c, 6))
print("positive support:", supp.positive, " negative:", supp.negative)

# One class per side here; the machinery accepts any class lists that
# exactly cover the supports.
p = build_proof_objects(g, k, [list(supp.positive)], [list(supp.negative)])
print("\nsplit norms z:", np.round(p.z, 4))
print("B matrix:\n", np.round(p.B, 4))

for rec in (check_B_sign_pattern(p), check_Bz_zero(p), check_interlacing(p)):
    print(f"{rec.name}: passed={rec.passed} slack={rec.slack:.2e}")

build_C(p)
phis = class_expansions(p)
print("\nC matrix:\n", np.round(p.C, 4))
print("class expansions:", phis)
for rec in (
    check_C_diagonal(p),
    check_CminusB_psd(p),
    check_lambda_max_C(p),
):
    print(f"{rec.name}: passed={rec.passed} slack={rec.slack:.2e}")

# The one-call version: searches for the largest certified a and b itself.
report = verify_theorem1(g, k, mode="exact")
print(f"\nverify_theorem1: a={report.a} b={report.b} k={k}")
print("a + b <= k holds:", report.theorem_holds)
