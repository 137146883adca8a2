"""Loop forms of the proof checks, kept as the reference that the package's
array forms must match bit for bit, signed zeros included, and the loop form
of the search's zero-weight attachment.

Each visits the class pairs (i, j) one at a time, in row-major order, and
takes the smallest margin with `min`, which keeps the first of equal ones.
`class_expansions` evaluates `phi` once per class on a freshly induced
subgraph of the class's side, and `C_diagonal_slack` sums each class's
same-side cut over the parent graph's edges, in edge order.
"""

from __future__ import annotations

import itertools

import numpy as np

from nodal_expansion import certificate as ct
from nodal_expansion.expansion import phi
from nodal_expansion.graph import induced_subgraph


def B_sign_slack(p) -> float:
    margins = [np.inf]
    m = p.a + p.b
    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            same_side = (i < p.a) == (j < p.a)
            margins.append(-p.B[i, j] if same_side else p.B[i, j])
    return float(min(margins))


def build_C(p) -> np.ndarray:
    m = p.a + p.b
    C = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            if i != j and (i < p.a) == (j < p.a):
                C[i, j] = p.B[i, j]
    for i in range(m):
        side = range(p.a) if i < p.a else range(p.a, m)
        C[i, i] = -sum(p.z[r] / p.z[i] * p.B[i, r] for r in side if r != i)
    return C


def class_expansions(p) -> list[float | None]:
    out: list[float | None] = []
    for side in (p.parts[: p.a], p.parts[p.a:]):
        if not side:
            continue
        if len(side) == 1:
            out.append(None)
            continue
        sub = induced_subgraph(p.graph, itertools.chain.from_iterable(side))
        inv = {parent: s for s, parent in enumerate(sub.to_parent)}
        w_sub = p.w[list(sub.to_parent)]
        for cls in side:
            out.append(phi(sub.graph, w_sub, [inv[i] for i in cls]).phi)
    return out


def C_diagonal_slack(p, phis) -> float:
    margins = [np.inf]
    m = p.a + p.b
    assign = {node: i for i, cls in enumerate(p.parts) for node in cls}
    cut_mass = np.zeros(m)
    for u, v in p.graph.edges:
        iu, iv = assign.get(u), assign.get(v)
        if iu is None or iv is None or iu == iv or (iu < p.a) != (iv < p.a):
            continue
        contrib = float(np.sqrt(p.w[u] * p.w[v]))
        cut_mass[iu] += contrib
        cut_mass[iv] += contrib
    scale = 1.0 + float(np.max(np.abs(cut_mass)))
    for i in range(m):
        margins.append(-abs(p.C[i, i] * p.z[i] ** 2 - cut_mass[i]) / scale)
        if phis[i] is None:
            margins.append(-abs(p.C[i, i]))
        else:
            margins.append(phis[i] - p.C[i, i])
    return float(min(margins))


def CminusB_slack(p) -> float:
    E = p.C - p.B
    D = np.diag(p.z)
    S = D @ E @ D
    margins = [np.inf]
    m = p.a + p.b
    for i in range(m):
        margins.append(S[i, i])
        for j in range(m):
            if i != j:
                margins.append(-S[i, j])
    row_resid = float(np.max(np.abs(S.sum(axis=1))))
    margins.append(-row_resid / (1.0 + float(np.max(np.abs(S)))))
    margins.append(float(np.linalg.eigvalsh(E)[0]))
    return float(min(margins))


def assert_matches(p, phis) -> None:
    """The package's checks on p, and `phis` from its `class_expansions`,
    equal the loop forms bit for bit."""

    def bits(x):
        return None if x is None else float(x).hex()

    assert [bits(v) for v in phis] == [bits(v) for v in class_expansions(p)]
    assert bits(ct.check_B_sign_pattern(p).slack) == bits(B_sign_slack(p))
    if p.C is None:
        return
    assert p.C.tobytes() == build_C(p).tobytes()
    assert bits(ct.check_C_diagonal(p).slack) == bits(C_diagonal_slack(p, phis))
    assert bits(ct.check_CminusB_psd(p).slack) == bits(CminusB_slack(p))


def attach_zero_weight_nodes(g, classes: list[list[int]]) -> list[list[int]]:
    """Each unassigned node joins the class of its lowest-index assigned
    neighbour, in repeated ascending passes; stragglers join the first
    class.  Scans the edge list once per pending node and pass."""
    assign = {}
    for ci, cls in enumerate(classes):
        for i in cls:
            assign[i] = ci
    pending = [i for i in range(g.n) if i not in assign]
    changed = True
    while pending and changed:
        changed = False
        for i in list(pending):
            nbrs = sorted(v if u == i else u for u, v in g.edges if i in (u, v))
            nbrs = [j for j in nbrs if j in assign]
            if nbrs:
                assign[i] = assign[min(nbrs)]
                pending.remove(i)
                changed = True
    for i in pending:
        assign[i] = 0
    out: list[list[int]] = [[] for _ in classes]
    for i in sorted(assign):
        out[assign[i]].append(i)
    return out
