import itertools
import sys

import numpy as np
import pytest

from nodal_expansion import certificate as ct
from nodal_expansion import expansion as xp
from nodal_expansion import spectral
from nodal_expansion.generators import (
    enumerate_connected_graphs,
    gen_expander_path_expander,
    gen_gnp,
    gen_path,
    gen_random_regular,
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
    SpectralDecomposition,
    eigendecompose,
    select_eigenpair,
)

import loop_checks
from oracles import component_count
from proof_graphs import FAMILIES, SIZES, proof_graph, proof_partition


def k2():
    return build_graph(2, [(0, 1)])


def p4():
    return build_graph(4, [(0, 1), (1, 2), (2, 3)])


def barbell():
    # two triangles joined by an edge
    return build_graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)])


class TestBuildProofObjects:
    def test_k2_hand_example(self):
        p = ct.build_proof_objects(k2(), 2, [[0]], [[1]])
        assert p.a == 1 and p.b == 1
        assert np.allclose(p.z, [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-12)
        assert np.allclose(p.B, [[-1, 1], [1, -1]], atol=1e-12)
        assert np.allclose(p.mu, [-2, 0], atol=1e-12)

    def test_p4_sign_structure(self):
        p = ct.build_proof_objects(p4(), 2, [[0], [1]], [[2, 3]])
        assert p.a == 2 and p.b == 1
        assert p.B[0, 1] <= 1e-12  # same side
        assert p.B[0, 2] >= -1e-12 and p.B[1, 2] >= -1e-12  # cross side

    def test_off_support_class_rejected(self):
        with pytest.raises(ct.CertificateError):
            ct.build_proof_objects(p4(), 2, [[0], [2]], [[3]])

    def test_empty_class_rejected(self):
        with pytest.raises(ct.CertificateError):
            ct.build_proof_objects(p4(), 2, [[0, 1], []], [[2, 3]])

    def test_My_is_zero(self):
        for g, k in ((p4(), 2), (barbell(), 2), (barbell(), 3)):
            p = ct.build_proof_objects(
                g, k, *_whole_side_classes(g, k)
            )
            M = laplacian(p.graph) - p.lambda_k * np.eye(p.graph.n)
            assert np.max(np.abs(M @ p.y)) <= 1e-8 * (1 + abs(p.lambda_k))

    def test_split_vectors_orthonormal(self):
        p = ct.build_proof_objects(p4(), 2, [[0], [1]], [[2, 3]])
        y_split = np.zeros((len(p.parts), p.graph.n))
        for i, cls in enumerate(p.parts):
            y_split[i, list(cls)] = p.y[list(cls)]
        y_hat = y_split / p.z[:, None]
        gram = y_hat @ y_hat.T
        assert np.max(np.abs(gram - np.eye(3))) <= 1e-9

    def test_B_edge_sum_cross_check(self):
        # off-diagonal entries equal the explicit edge sum
        # -(sum over edges between the classes of y_u y_v) / (z_i z_j)
        g = barbell()
        d = eigendecompose(laplacian(g))
        supp = sign_support(select_eigenpair(d, 3).y)
        pos = [[i] for i in supp.positive]
        neg = [list(supp.negative)]
        p = ct.build_proof_objects(g, 3, pos, neg)
        for i, ci in enumerate(p.parts):
            for j, cj in enumerate(p.parts):
                if i == j:
                    continue
                s = -sum(
                    p.y[u] * p.y[v]
                    for u, v in g.edges
                    if (u in ci and v in cj) or (u in cj and v in ci)
                )
                assert abs(p.B[i, j] - s / (p.z[i] * p.z[j])) <= 1e-9


def _whole_side_classes(g, k):
    d = eigendecompose(laplacian(g))
    y = select_eigenpair(d, k).y
    supp = sign_support(y)
    pos = [list(supp.positive)] if supp.positive else []
    neg = [list(supp.negative)] if supp.negative else []
    return pos, neg


class TestChecks:
    def test_k2_all_steps(self):
        p = ct.build_proof_objects(k2(), 2, [[0]], [[1]])
        assert ct.check_B_sign_pattern(p).passed
        assert ct.check_Bz_zero(p).passed
        rec = ct.check_interlacing(p)
        assert rec.passed and abs(rec.slack) <= 1e-12  # exact equality here
        C = ct.build_C(p)
        assert np.allclose(C, 0, atol=1e-12)  # no same-side partners
        phis = ct.class_expansions(p)
        assert phis == [None, None]
        assert ct.check_C_diagonal(p).passed
        rec = ct.check_CminusB_psd(p)
        assert rec.passed
        assert np.allclose(p.C - p.B, [[1, -1], [-1, 1]], atol=1e-12)
        p.c = 1.0  # k = n leaves no gap; any positive threshold works here
        assert ct.check_lambda_max_C(p).passed

    def test_p4_all_steps(self):
        g = p4()
        p = ct.build_proof_objects(g, 2, [[0], [1]], [[2, 3]])
        assert ct.check_B_sign_pattern(p).passed
        rec = ct.check_Bz_zero(p)
        assert rec.passed and abs(rec.slack) <= 1e-9
        assert ct.check_interlacing(p).passed
        ct.build_C(p)
        assert p.C[0, 0] >= -1e-12
        assert np.max(np.abs(p.C @ p.z)) <= 1e-9
        phis = ct.class_expansions(p)
        # hand values: both positive-side classes see the single support edge
        assert abs(phis[0] - (1 + np.sqrt(2))) < 1e-9
        assert abs(phis[1] - (1 + np.sqrt(2))) < 1e-9
        assert phis[2] is None
        assert abs(p.C[0, 0] - (np.sqrt(2) - 1)) < 1e-9
        assert ct.check_C_diagonal(p).passed
        assert ct.check_CminusB_psd(p).passed

    def test_lambda_max_C_precondition(self):
        g = p4()
        p = ct.build_proof_objects(g, 2, [[0], [1]], [[2, 3]])
        ct.build_C(p)
        with pytest.raises(ct.CertificateError):
            # claim a tiny threshold so the class expansions violate it
            p2 = ct.build_proof_objects(g, 2, [[0], [1]], [[2, 3]])
            p2.c = 1e-6
            ct.build_C(p2)
            ct.check_lambda_max_C(p2)


class TestVerifyTheorem1:
    def test_p4_k2(self):
        r = ct.verify_theorem1(p4(), 2)
        assert (r.a, r.b) == (1, 1)
        assert r.theorem_holds and not r.degenerate_gap_flag
        assert all(c.passed for c in r.checks)

    def test_c4_degenerate(self):
        c4 = build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        r = ct.verify_theorem1(c4, 2)
        assert r.degenerate_gap_flag and r.theorem_holds

    def test_small_connected_sweep(self):
        rng = np.random.default_rng(3)
        done = 0
        while done < 25:
            n = int(rng.integers(3, 7))
            g = gen_gnp(n, 0.6, int(rng.integers(1 << 32)))
            if not is_connected(g):
                continue
            for k in range(2, n):
                r = ct.verify_theorem1(g, k)
                assert r.theorem_holds
            done += 1

    def test_k_out_of_range(self):
        with pytest.raises(ct.CertificateError):
            ct.verify_theorem1(p4(), 4)

    def test_report_schema(self):
        r = ct.verify_theorem1(p4(), 2)
        d = r.as_dict()
        assert set(d) == {
            "graph", "k", "lambda", "c", "a", "b", "theorem_holds",
            "mode", "flags", "checks", "partitions",
        }
        assert set(d["partitions"]) == {"positive", "negative"}
        for chk in d["checks"]:
            assert set(chk) == {"name", "passed", "slack", "tolerance"}


class TestVerifyCorollary1:
    def test_p4(self):
        r = ct.verify_corollary1(p4())
        assert r.holds
        assert abs(r.c - np.sqrt(2) / 2) < 1e-9

    def test_p3_single_node_supports(self):
        r = ct.verify_corollary1(build_graph(3, [(0, 1), (1, 2)]))
        assert r.holds  # one-node supports have no proper cut

    def test_triangle_barbell(self):
        r = ct.verify_corollary1(barbell())
        assert r.holds


class TestVerifyPropSum:
    def test_p4_k2(self):
        rec = ct.verify_prop_sum(p4(), 2, [[0], [1]], [[2, 3]])
        assert rec.passed
        assert "class_2_covers_whole_side" in rec.flags
        # direct inequality: lambda_3 - lambda_2 <= phi sum
        gap = 2 - (2 - np.sqrt(2))
        assert gap <= 2 * (1 + np.sqrt(2)) + 1e-9

    def test_k2_k1_inconsistent_example_raises(self):
        # the lambda_1 eigenvector of connected K2 is constant, so {1} is
        # not inside the negative support; the construction must refuse it
        with pytest.raises(ct.CertificateError):
            ct.verify_prop_sum(k2(), 1, [[0]], [[1]])

    def test_wrong_count_rejected(self):
        with pytest.raises(ct.CertificateError):
            ct.verify_prop_sum(p4(), 2, [[0, 1]], [[2, 3]])

    def test_random_instances(self):
        rng = np.random.default_rng(8)
        done = 0
        while done < 15:
            n = int(rng.integers(5, 9))
            g = gen_gnp(n, 0.5, int(rng.integers(1 << 32)))
            if not is_connected(g):
                continue
            k = 3
            d = eigendecompose(laplacian(g))
            y = select_eigenpair(d, k).y
            supp = sign_support(y)
            if len(supp.positive) < 2 or len(supp.negative) < 2:
                continue
            pos = [[supp.positive[0]], list(supp.positive[1:])]
            neg = [[supp.negative[0]], list(supp.negative[1:])]
            rec = ct.verify_prop_sum(g, k, pos, neg)
            assert rec.passed
            done += 1


def test_one_laplacian_per_theorem_call(monkeypatch):
    calls = []

    def spy(g):
        calls.append(g)
        return laplacian(g)

    monkeypatch.setattr(spectral, "laplacian", spy)
    g = gen_gnp(8, 0.5, seed=3)
    report = ct.verify_theorem1(g, 3)
    assert report.a + report.b >= 1 and report.checks  # proof objects were built
    assert len(calls) == 1


def test_one_sign_support_per_theorem_call(monkeypatch):
    calls = []

    def spy(y, *args, **kwargs):
        calls.append(len(y))
        return sign_support(y, *args, **kwargs)

    monkeypatch.setattr(ct, "sign_support", spy)
    g = gen_gnp(8, 0.5, seed=3)
    report = ct.verify_theorem1(g, 3)
    assert report.a + report.b >= 1 and report.checks  # proof objects were built
    assert calls == [8]


def test_each_support_induced_once_per_theorem_call(monkeypatch):
    # the search and class_expansions share one subgraph per support side
    calls = []

    def spy(g, nodes):
        calls.append(tuple(nodes))
        return induced_subgraph(g, nodes)

    monkeypatch.setattr(ct, "induced_subgraph", spy)
    g = gen_gnp(8, 0.5, seed=3)
    report = ct.verify_theorem1(g, 4)
    assert (report.a, report.b) == (3, 1)  # class_expansions needs a subgraph
    assert len(calls) == len(set(calls)) == 2


def test_each_cut_summed_once_per_theorem_call(monkeypatch):
    """The checks read each class's cut from the search's certificate: the
    stacked cut kernel serves only the exact engine's batches and the
    heuristic's sweep prefixes."""
    kernel, calls = xp._cut_values, []

    def counted(*args):
        caller = sys._getframe(1).f_code.co_name
        if caller not in ("_subset_phis", "_sweep"):
            calls.append(caller)
        return kernel(*args)

    monkeypatch.setattr(xp, "_cut_values", counted)
    sides = 0
    for g in enumerate_connected_graphs(5):
        for k, mode in itertools.product(range(1, 5), ("exact", "heuristic")):
            r = ct.verify_theorem1(g, k, mode=mode)
            if r.checks:
                sides += (len(r.pos_classes) >= 2) + (len(r.neg_classes) >= 2)
    assert calls == []
    assert sides > 1000  # sides whose cuts the C-diagonal check reads


def test_theorem_search_enters_the_public_api_once_per_side(monkeypatch):
    """verify_theorem1 reaches the search only through max_partitionable,
    which checks each side's weights once; no private step re-enters a
    public function, so find_partition, phi and sweep_cut are never called."""
    calls = {name: 0 for name in ("max_partitionable", "find_partition", "phi", "sweep_cut")}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(xp, name, counted(name, getattr(xp, name)))
    builds, checked = [], xp._Input.checked
    monkeypatch.setattr(xp._Input, "checked", lambda *a: builds.append(1) or checked(*a))
    for g in enumerate_connected_graphs(5):
        for k, mode in itertools.product(range(1, 5), ("exact", "heuristic")):
            ct.verify_theorem1(g, k, mode=mode)
    assert calls["max_partitionable"] > 1000
    assert calls["find_partition"] == calls["phi"] == calls["sweep_cut"] == 0
    assert len(builds) == calls["max_partitionable"]


def test_proof_objects_check_each_side_once(monkeypatch):
    """build_proof_objects checks a side's weights once, in one record, and
    takes every class's cut of that side from it: the bits `phi` gives."""
    g = gen_gnp(12, 0.5, seed=2)
    supp = sign_support(select_eigenpair(eigendecompose(laplacian(g)), 3).y)
    pos = [list(part) for part in np.array_split(supp.positive, 3)]
    neg = [list(part) for part in np.array_split(supp.negative, 2)]
    assert min(map(len, pos + neg)) >= 1
    builds, checked = [], xp._Input.checked
    monkeypatch.setattr(xp._Input, "checked", lambda *a: builds.append(a[0].n) or checked(*a))
    p = ct.build_proof_objects(g, 3, pos, neg)
    monkeypatch.undo()
    assert builds == [len(supp.positive), len(supp.negative)]
    for cls, cut in zip(p.parts, p.cuts):
        side = supp.positive if cls[0] in supp.positive else supp.negative
        sub = induced_subgraph(g, side)
        w_sub = (p.y * p.y)[list(sub.to_parent)]
        assert cut == xp.phi(sub.graph, w_sub, np.searchsorted(sub.to_parent, cls))


def test_corollary_takes_no_budget():
    with pytest.raises(TypeError):
        ct.verify_corollary1(barbell(), 10)


def test_theorem_takes_no_budget():
    with pytest.raises(TypeError):
        ct.verify_theorem1(p4(), 2, mode="heuristic", budget=10)


def test_proof_objects_take_no_decomposition():
    # the proof objects decompose their own graph's Laplacian; a second
    # spectrum could disagree with it
    g = build_graph(6, [(i, i + 1) for i in range(5)])
    with pytest.raises(TypeError):
        ct.build_proof_objects(
            g, 2, [[0, 1, 2]], [[3, 4, 5]], decomposition=eigendecompose(3 * laplacian(g))
        )


@pytest.mark.parametrize("k", [1, 3])
def test_theorem_rejects_unknown_mode_without_a_search(k):
    # two components, spectrum (0, 0, 2, 2): the gap is degenerate at k = 1,
    # where the negative support is empty too, and at k = 3, so neither
    # runs a search that would check the mode
    g = build_graph(4, [(0, 1), (2, 3)])
    with pytest.raises(xp.ExpansionError, match="unknown mode 'bogus'"):
        ct.verify_theorem1(g, k, mode="bogus")


def test_checks_match_loop_forms_on_small_graphs():
    """Every connected 5-node graph at every k, with the classes its
    theorem search certifies: single-class sides (phi None) and sides of
    two or more classes."""
    sides_seen = set()
    for g in enumerate_connected_graphs(5):
        for k in range(1, 5):
            r = ct.verify_theorem1(g, k)
            if r.degenerate_gap_flag or r.a + r.b == 0:
                continue
            p = ct.build_proof_objects(g, k, r.pos_classes, r.neg_classes)
            phis = ct.class_expansions(p)
            loop_checks.assert_matches(p, phis)
            sides_seen.update(min(n, 2) for n in (p.a, p.b))
    assert sides_seen == {0, 1, 2}


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", SIZES)
def test_checks_match_loop_forms_on_proof_graphs(family, n):
    g, ys = proof_graph(family, n)
    for k, (a, b) in ((2, (2, 1)), (3, (1, 3)), (4, (3, 3))):
        pos, neg = proof_partition(ys[k], a, b)
        p = ct.build_proof_objects(g, k, pos, neg)
        loop_checks.assert_matches(p, ct.class_expansions(p))


def test_support_components_bound_exact_class_counts():
    """Each connected component of a sign support has expansion 0 in it, so
    in exact mode a and b are at least the component counts of the positive
    and negative support subgraphs (the nodal domains of y_k)."""
    graphs = [g for n in range(2, 6) for g in enumerate_connected_graphs(n)]
    graphs += list(sample_connected_graphs(7, 200, seed=11))
    checked = 0
    for g in graphs:
        for k in range(1, g.n):
            r = ct.verify_theorem1(g, k)
            if r.degenerate_gap_flag:
                continue
            supp = ct.EigenSplit(g, k).support
            domains = [
                component_count(induced_subgraph(g, nodes).graph)
                for nodes in (supp.positive, supp.negative)
            ]
            assert r.a >= domains[0] and r.b >= domains[1]
            checked += 1
    assert checked > 2000


def test_support_components_bound_heuristic_class_counts():
    """The heuristic's split chain sheds a support's components first, so
    heuristic a and b are at least the nodal-domain counts too, on 7-node
    graphs and on graphs of 100 to 300 nodes."""
    graphs = list(sample_connected_graphs(7, 200, seed=11))
    graphs += [gen_path(n) for n in (100, 200, 300)]
    graphs += [gen_gnp(n, 6 / (n - 1), s) for n in (100, 200) for s in range(4)]
    graphs += [gen_expander_path_expander(60, 4, 100, s) for s in range(3)]
    checked = 0
    for g in graphs:
        for k in range(1, min(g.n - 1, 8) + 1):
            r = ct.verify_theorem1(g, k, mode="heuristic")
            if r.degenerate_gap_flag:
                continue
            supp = ct.EigenSplit(g, k).support
            domains = [
                component_count(induced_subgraph(g, nodes).graph)
                for nodes in (supp.positive, supp.negative)
            ]
            assert r.a >= domains[0] and r.b >= domains[1]
            checked += 1
    assert checked > 1200


def test_heuristic_class_counts_against_exact_on_the_atlas():
    """On every connected graph of 3 to 7 nodes in the graph atlas, at every
    k = 2..n-1, heuristic a + b never exceeds the exact a + b, and falls
    short of it in at most 4 of the 4,790 instances."""
    nx = pytest.importorskip("networkx")
    instances, short = 0, []
    for G in nx.graph_atlas_g():
        g = build_graph(G.number_of_nodes(), G.edges())
        if g.n < 3 or not is_connected(g):
            continue
        for k in range(2, g.n):
            h = ct.verify_theorem1(g, k, mode="heuristic")
            e = ct.verify_theorem1(g, k, mode="exact")
            assert h.a + h.b <= e.a + e.b
            if h.a + h.b < e.a + e.b:
                short.append((g.edges, k))
            instances += 1
    assert instances == 4790
    assert len(short) <= 4, short


def _reachable_arrays(root):
    """(owner, array) for every array reachable from root through instance
    attributes (a Graph's kept values among them), tuples, lists and dicts;
    owner is the object whose attribute leads to the array."""
    seen, stack = set(), [(None, root)]
    while stack:
        owner, x = stack.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        if isinstance(x, np.ndarray):
            yield owner, x
        elif isinstance(x, (tuple, list)):
            stack += [(owner, v) for v in x]
        elif isinstance(x, dict):
            stack += [(owner, v) for v in x.values()]
        elif hasattr(x, "__dict__"):
            stack += [(x, v) for v in vars(x).values()]


def test_no_record_keeps_a_square_matrix(monkeypatch):
    """Nothing reachable from the proof objects or their spectrum is n x n
    or (a+b) x n, but for the eigenvectors of a full decomposition."""
    built, run_checks = [], ct.run_checks
    monkeypatch.setattr(ct, "run_checks", lambda p: built.append(p) or run_checks(p))
    g7 = next(sample_connected_graphs(7, 1, seed=0))
    for k in range(1, 7):
        ct.verify_theorem1(g7, k)
    g100 = gen_random_regular(100, 4, 0)
    for k in range(2, 6):
        ct.verify_theorem1(g100, k, mode="heuristic")
    g600, ys = proof_graph("gnp", 600)
    built.append(ct.build_proof_objects(g600, 2, *proof_partition(ys[2], 2, 1)))
    assert built[-1].spectrum.radii is not None  # the low end
    assert {p.graph.n for p in built} == {7, 100, 600}
    for p in built:
        n, m = p.graph.n, p.a + p.b
        for owner, a in _reachable_arrays(p):
            if isinstance(owner, SpectralDecomposition) and owner.index is None:
                if a is owner.vectors:
                    continue
            assert a.size != n * n and a.shape != (m, n)
    kept = vars(g7)["_spectrum"]
    assert all(a is kept.vectors for _, a in _reachable_arrays(kept) if a.ndim > 1)
