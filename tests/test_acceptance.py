"""Acceptance suite: one test (or tightly related group) per criterion,
each printing a PASS/FAIL line.  Tolerances are pinned here, not imported.

Criterion 7 checks two instances.  The golden-JSON and gap/weighted-
expansion tests check the bridged-expanders demo (seed 7).  The
unweighted-expansion clause (a sign support with an unweighted cut below c)
cannot hold on that family, whose cheapest unweighted cut costs 2/path_len
against c of about pi^2 / 2(path_len+1)^2, so it is checked on a pinned
6-node witness graph instead (see that test's docstring).

Set NODAL_ACCEPT_N7_SAMPLE to lower the n=7 sample count during development
(default 50000, the full permitted cap).
"""

import io
import contextlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from nodal_expansion import certificate as ct
from nodal_expansion import cli
from nodal_expansion import expansion as xp
from nodal_expansion import fileio
from nodal_expansion.generators import (
    enumerate_connected_graphs,
    gen_expander_path_expander,
    gen_gnp,
    gen_path,
    sample_connected_graphs,
)
from nodal_expansion.graph import (
    build_graph,
    induced_subgraph,
    is_connected,
    laplacian,
    sign_support,
)
from nodal_expansion.spectral import (
    eigendecompose,
    select_eigenpair,
    spectral_gap_c,
)

import loop_checks
from oracles import brute_min_phi, char_poly_eigs, component_count

DATA = Path(__file__).parent / "data"
TOL = 1e-8


def report(name, passed=True):
    print(f"ACCEPTANCE {name}: {'PASS' if passed else 'FAIL'}", flush=True)


# ---------------------------------------------------------------------------
# Criterion 1: exhaustive theorem sweep on small connected graphs
# ---------------------------------------------------------------------------

def test_criterion1_exhaustive_theorem():
    n7_sample = int(os.environ.get("NODAL_ACCEPT_N7_SAMPLE", "50000"))
    violations = []
    checked = 0
    for n in range(3, 8):
        if n <= 6:
            graphs = enumerate_connected_graphs(n)
        else:
            graphs = sample_connected_graphs(n, n7_sample, seed=20240817)
        for g in graphs:
            for k in range(2, n):
                r = ct.verify_theorem1(g, k, mode="exact")
                if r.c <= 1e-8:
                    continue
                checked += 1
                if r.degenerate_gap_flag or not r.a_plus_b_le_k:
                    violations.append((n, k, g.edges))
    assert checked > 0
    assert violations == [], violations[:5]
    report(f"criterion-1 exhaustive theorem ({checked} instances)")


# ---------------------------------------------------------------------------
# Criterion 2: corollary on 500 random connected graphs
# ---------------------------------------------------------------------------

def test_criterion2_corollary():
    rng = np.random.default_rng(424242)
    done = 0
    while done < 500:
        n = int(rng.integers(4, 15))
        g = gen_gnp(n, 0.45, int(rng.integers(1 << 63)))
        if not is_connected(g):
            continue
        d = eigendecompose(laplacian(g))
        if d.values[2] - d.values[1] <= 1e-6:
            continue
        r = ct.verify_corollary1(g)
        assert "heuristic_fallback" not in r.flags
        assert r.holds, (g.edges, r.as_dict())
        done += 1
    report("criterion-2 corollary (500 graphs)")


# ---------------------------------------------------------------------------
# Criteria 3 & 4: proof-object invariants on random instances
# ---------------------------------------------------------------------------

def _random_partition(rng, nodes, parts):
    """Random split of `nodes` into exactly `parts` nonempty classes."""
    nodes = list(nodes)
    while True:
        labels = rng.integers(0, parts, size=len(nodes))
        if len(set(labels.tolist())) == parts:
            return [
                [nodes[i] for i in range(len(nodes)) if labels[i] == b]
                for b in range(parts)
            ]


def _make_instances(count=1000, seed=20240817):
    """(graph, k, proof objects, class expansions) tuples; roughly 60%
    pinned to a+b = k+1, the rest taken from certified searches."""
    rng = np.random.default_rng(seed)
    instances = []
    while len(instances) < count:
        n = int(rng.integers(5, 10))
        g = gen_gnp(n, 0.55, int(rng.integers(1 << 63)))
        if not is_connected(g):
            continue
        k = int(rng.integers(2, n))
        d = eigendecompose(laplacian(g))
        c = spectral_gap_c(d, k)
        if c <= 2 * ct.default_tolerance(g):
            continue
        y = select_eigenpair(d, k).y
        supp = sign_support(y)
        np_, nn = len(supp.positive), len(supp.negative)
        if np_ == 0 or nn == 0:
            continue
        if rng.random() < 0.6:
            lo, hi = max(1, k + 1 - nn), min(np_, k)
            if lo > hi:
                continue
            a = int(rng.integers(lo, hi + 1))
            b = k + 1 - a
            pos = _random_partition(rng, supp.positive, a)
            neg = _random_partition(rng, supp.negative, b)
        else:
            # certified partitions with all expansions below c, so that the
            # conditional lambda_max(C) < 2c branch is exercised
            tol = ct.default_tolerance(g)
            sides = []
            for nodes in (supp.positive, supp.negative):
                sub = induced_subgraph(g, nodes)
                w_sub = (y * y)[list(sub.to_parent)]
                _, cert = xp.max_partitionable(sub.graph, w_sub, c - tol)
                sides.append(
                    [list(sub.to_parent_set(cls)) for cls in cert.classes]
                )
            pos, neg = sides
        p = ct.build_proof_objects(g, k, pos, neg)
        if p.a + p.b >= 2:
            ct.build_C(p)
        phis = ct.class_expansions(p)
        instances.append((g, k, d, p, phis))
    return instances


@pytest.fixture(scope="module")
def instances():
    return _make_instances()


def test_criterion3_proof_object_invariants(instances):
    for g, k, d, p, phis in instances:
        m = p.a + p.b
        assert np.max(np.abs(p.B @ p.z)) <= TOL
        for i in range(m):
            for j in range(m):
                if i == j:
                    continue
                if (i < p.a) == (j < p.a):
                    assert p.B[i, j] <= TOL
                else:
                    assert p.B[i, j] >= -TOL
        lam = d.values[:m]
        assert np.all(lam - p.lambda_k <= p.mu[:m] + TOL)
        if p.C is not None:
            assert np.max(np.abs(p.C @ p.z)) <= TOL
            assert np.linalg.eigvalsh(p.C - p.B)[0] >= -TOL
            if all(v is None or v < p.c for v in phis):
                assert np.linalg.eigvalsh(p.C)[-1] < 2 * p.c + TOL
                if m == k + 1:
                    assert p.lambda_k1 - p.lambda_k <= p.mu[-1] + TOL
    report(f"criterion-3 proof-object invariants ({len(instances)} instances)")


def test_criterion3_checks_match_loop_forms(instances):
    # class expansions, C and the check slacks, bit for bit as the loops
    # over classes and edges give them
    for g, k, d, p, phis in instances:
        loop_checks.assert_matches(p, phis)
    report(f"criterion-3 checks match their loop forms ({len(instances)} instances)")


def test_criterion4_prop_sum(instances):
    tested = 0
    for g, k, d, p, phis in instances:
        if p.a + p.b != k + 1:
            continue
        tested += 1
        phi_sum = sum(v for v in phis if v is not None)
        gap = d.values[p.a + p.b - 1] - d.values[p.a + p.b - 2]
        assert gap <= phi_sum + TOL, (g.edges, k)
        assert p.mu[-1] <= np.trace(p.C) + TOL
        rec = ct.verify_prop_sum(
            g, k, [list(c) for c in p.parts[: p.a]],
            [list(c) for c in p.parts[p.a:]],
        )
        assert rec.passed
    assert tested > 300
    report(f"criterion-4 proposition sum ({tested} instances)")


# ---------------------------------------------------------------------------
# Criterion 5: eigensolver quality
# ---------------------------------------------------------------------------

def test_criterion5_eigensolver():
    rng = np.random.default_rng(99)
    for _ in range(25):
        n = int(rng.integers(2, 65))
        A = rng.standard_normal((n, n))
        A = (A + A.T) / 2
        d = eigendecompose(A)
        bound = 1e-8 * (1 + np.max(np.abs(d.values)))
        recon = d.vectors @ np.diag(d.values) @ d.vectors.T
        assert np.max(np.abs(A - recon)) <= bound
        assert np.max(np.abs(d.vectors.T @ d.vectors - np.eye(n))) <= 1e-8
    for _ in range(50):
        n = int(rng.integers(1, 5))
        A = rng.standard_normal((n, n))
        A = (A + A.T) / 2
        assert np.allclose(
            eigendecompose(A).values, char_poly_eigs(A), atol=1e-8
        )
    for _ in range(100):
        n = int(rng.integers(2, 12))
        g = gen_gnp(n, 0.3, int(rng.integers(1 << 63)))
        d = eigendecompose(laplacian(g))
        assert d.values[0] <= 1e-9
        assert int(np.sum(d.values <= 1e-9)) == component_count(g)
    report("criterion-5 eigensolver")


# ---------------------------------------------------------------------------
# Criterion 6: expansion oracle equivalence and phi properties
# ---------------------------------------------------------------------------

def test_criterion6_phi_oracle():
    rng = np.random.default_rng(31337)
    done = 0
    while done < 200:
        n = int(rng.integers(2, 9))
        g = gen_gnp(n, 0.5, int(rng.integers(1 << 63)))
        w = rng.random(n) + 0.01
        oracle = brute_min_phi(g, w)
        v = xp.is_expander(g, w, 1e9, mode="exact")
        assert abs(v.min_phi - oracle) <= 1e-10 * (1 + oracle)
        for c in (oracle * 0.9 + 1e-12, oracle * 1.1 + 1e-12):
            verdict = xp.is_expander(g, w, c, mode="exact")
            assert verdict.is_expander == (oracle >= c)
        # symmetry and scale invariance
        S = [i for i in range(n) if rng.random() < 0.5]
        if 0 < len(S) < n:
            comp = sorted(set(range(n)) - set(S))
            p1, p2 = xp.phi(g, w, S), xp.phi(g, w, comp)
            assert p1.numerator == p2.numerator
            assert p1.denominator == p2.denominator
            t = float(rng.random() * 100 + 0.01)
            assert abs(xp.phi(g, t * w, S).phi - p1.phi) <= 1e-12 * (1 + p1.phi)
        done += 1
    report("criterion-6 phi oracle equivalence (200 instances)")


# ---------------------------------------------------------------------------
# Criterion 7: counterexample demo, golden locked to seed 7
# ---------------------------------------------------------------------------

def _counterexample_facts():
    g = gen_expander_path_expander(10, 3, 20, seed=7)
    d = eigendecompose(laplacian(g))
    lam2, lam3 = float(d.values[1]), float(d.values[2])
    c = (lam3 - lam2) / 2
    y = select_eigenpair(d, 2).y
    supp = sign_support(y)
    sub = induced_subgraph(g, supp.positive)
    w_sub = (y * y)[list(sub.to_parent)]
    weighted = xp.is_expander(sub.graph, w_sub, max(c, 1e-12), mode="exact")
    unweighted = xp.is_expander(
        sub.graph, np.ones(sub.graph.n), max(c, 1e-12), mode="exact"
    )
    return lam2, lam3, c, weighted, unweighted


def test_criterion7_golden_json():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(
            ["demo-counterexample", "--n-block", "10", "--d", "3",
             "--path-len", "20", "--seed", "7"]
        )
    assert code == 0
    golden = (DATA / "counterexample_seed7.json").read_text()
    assert buf.getvalue() == golden
    report("criterion-7 golden JSON locked")


def test_criterion7_gap_and_weighted_expansion():
    lam2, lam3, c, weighted, unweighted = _counterexample_facts()
    assert lam2 < lam3 - lam2  # recorded: 0.00706 < 0.02942
    assert weighted.min_phi >= c  # recorded: 0.27116 >= 0.01471
    assert weighted.is_expander
    report("criterion-7 gap ordering and weighted expansion")


def test_criterion7_unweighted_phi_below_c():
    """The corollary needs the weights: a y_2 sign support that is a
    weighted c-expander but has an unweighted cut below c.

    The bridged demo instance cannot be the witness.  The cheapest
    unweighted cut of its positive support severs half the bridge path:
    one edge over path_len/2 nodes, phi = 2/path_len = 0.1.  But
    c = (lambda_3 - lambda_2)/2 is at most half the first bridge-path
    mode, about (pi / (path_len+1))^2 / 2, which is below 2/path_len for
    every path length (0.0147 for the demo parameters).  The demo's own
    values stay locked by test_criterion7_golden_json and
    test_criterion7_gap_and_weighted_expansion.

    Witness instead: 6 nodes, lambda_2 = 3 - sqrt(5) (simple),
    lambda_3 = 3, so c = sqrt(5)/2.  The positive support {0, 5} is a
    single edge: unweighted min phi = 1 < c, weighted min phi =
    |y_5|/|y_0| = 2 + sqrt(5) >= c.
    """
    # The first graph in enumerate_connected_graphs(6) order with a y_2
    # sign support whose unweighted min phi is below c and whose weighted
    # min phi is at least c; no graph on 5 or fewer nodes has one.
    g = build_graph(
        6, [(0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4)]
    )
    L = laplacian(g)
    d = eigendecompose(L)
    lam2, lam3 = float(d.values[1]), float(d.values[2])
    c = (lam3 - lam2) / 2
    oracle_eigs = char_poly_eigs(L)
    assert abs(lam2 - oracle_eigs[1]) <= TOL
    assert abs(lam3 - oracle_eigs[2]) <= TOL
    assert abs(lam2 - (3 - np.sqrt(5))) <= TOL
    assert abs(lam3 - 3) <= TOL
    assert abs(c - np.sqrt(5) / 2) <= TOL

    y = select_eigenpair(d, 2).y
    supp = sign_support(y)
    assert sorted(supp.positive) == [0, 5]
    sub = induced_subgraph(g, supp.positive)
    w_sub = (y * y)[list(sub.to_parent)]
    ones = np.ones(sub.graph.n)
    weighted = xp.is_expander(sub.graph, w_sub, c, mode="exact")
    unweighted = xp.is_expander(sub.graph, ones, c, mode="exact")
    assert abs(unweighted.min_phi - brute_min_phi(sub.graph, ones)) <= TOL
    assert abs(weighted.min_phi - brute_min_phi(sub.graph, w_sub)) <= TOL
    assert abs(unweighted.min_phi - 1) <= TOL
    assert abs(weighted.min_phi - (2 + np.sqrt(5))) <= TOL
    assert weighted.min_phi >= c
    assert weighted.is_expander

    passed = unweighted.min_phi < c
    report("criterion-7 unweighted phi below c", passed)
    assert passed, f"unweighted min phi {unweighted.min_phi} is not below c {c}"


# ---------------------------------------------------------------------------
# Criterion 8: CLI goldens and exit-code contract
# ---------------------------------------------------------------------------

def test_criterion8_cli_goldens(tmp_path, capsys, monkeypatch):
    p3 = tmp_path / "p3.txt"
    fileio.write_edge_list(gen_path(3), p3)
    p4 = tmp_path / "p4.txt"
    fileio.write_edge_list(gen_path(4), p4)

    assert cli.run(["spectrum", str(p3)]) == 0
    assert capsys.readouterr().out == "9.99658224412e-17,1,3\n"

    out_file = tmp_path / "gen.txt"
    assert cli.run(["gen", "path", "2", "-o", str(out_file)]) == 0
    assert out_file.read_text() == "2 1\n0 1\n"
    capsys.readouterr()

    assert cli.run(["analyze", str(p4), "--k", "2", "--mode", "exact"]) == 0
    first = capsys.readouterr().out
    assert json.loads(first)["theorem_holds"] is True
    assert cli.run(["analyze", str(p4), "--k", "2", "--mode", "exact"]) == 0
    assert capsys.readouterr().out == first  # byte-identical rerun

    # exit-code contract
    assert cli.run(["spectrum", str(tmp_path / "missing.txt")]) == 2
    capsys.readouterr()
    assert cli.run(["analyze", str(p4), "--no-such-flag"]) == 2
    capsys.readouterr()

    real = cli.ct.verify_theorem1

    def failing(g, k, mode="exact"):
        r = real(g, k, mode=mode)
        r.a_plus_b_le_k = False
        r.degenerate_gap_flag = False
        return r

    monkeypatch.setattr(cli.ct, "verify_theorem1", failing)
    assert cli.run(["analyze", str(p4), "--k", "2"]) == 1
    capsys.readouterr()
    report("criterion-8 CLI goldens and exit codes")
