"""The benchmark's output checks accept a true report and reject corrupted ones.

    python3 -m pytest bench/test_checks.py      (from the checkout root)
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import nodal_expansion as ne  # noqa: E402
from checks import GraphRef, check_proof, check_theorem, max_classes  # noqa: E402

# Path on 10 nodes, k = 4: y_4 has four nodal domains, so a = b = 2, each
# class a support component with phi = 0.
G = ne.gen_path(10)
K = 4


def _report():
    return ne.verify_theorem1(G, K, mode="exact")


def _ref():
    return GraphRef.from_edges(G.n, G.edges)


def test_true_report_passes():
    report = _report()
    assert (report.a, report.b) == (2, 2)
    assert check_theorem(_ref(), K, report, "exact", "p10") == []


def test_class_pushed_to_phi_at_least_c_is_rejected():
    report = _report()
    ref = _ref()
    pos, _, w = ref.supports(K)
    side = ref.side(pos, w)
    first, second = (list(c) for c in report.pos_classes)
    # move the heaviest node of the first class into the second
    heavy = max(first, key=lambda v: w[v])
    bad = (tuple(sorted(set(first) - {heavy})), tuple(sorted(second + [heavy])))
    assert max(side.direct_phi(side.local(c)) for c in bad) >= ref.gap_c(K)
    errs = check_theorem(ref, K, dataclasses.replace(report, pos_classes=bad), "exact", "p10")
    assert any(">= c" in e for e in errs)


def test_a_plus_b_above_k_is_rejected():
    report = dataclasses.replace(_report(), a=K)
    errs = check_theorem(_ref(), K, report, "exact", "p10")
    assert any("exceeds k" in e for e in errs)


def test_non_maximal_count_is_rejected():
    report = _report()
    merged = (tuple(sorted(v for c in report.pos_classes for v in c)),)
    report = dataclasses.replace(report, a=1, pos_classes=merged)
    errs = check_theorem(_ref(), K, report, "exact", "p10")
    assert any("enumeration gives 2..2" in e for e in errs)


def test_wrong_eigenvalue_is_rejected():
    report = _report()
    values = report.values.copy()
    values[-1] += 1e-5
    errs = check_theorem(_ref(), K, dataclasses.replace(report, values=values), "exact", "p10")
    assert any("eigenvalues deviate" in e for e in errs)


def test_failed_verify_proof_is_rejected():
    errs = check_proof(_ref(), K, [[0]], [[1]], 2, None, "p10")
    assert errs == ["p10: verify-proof exited 2"]


def test_phi_table_matches_direct_phi_and_partition_count():
    ref = _ref()
    pos, _, w = ref.supports(K)
    side = ref.side(pos, w)
    table = side.phi_table()
    for mask in range(1, (1 << side.p) - 1):
        bits = np.array([(mask >> i) & 1 for i in range(side.p)], dtype=bool)
        assert np.isclose(table[mask], side.direct_phi(bits), rtol=1e-12, atol=0)
    assert max_classes(table, side.p, 1e-12) == 2  # two components, phi 0
