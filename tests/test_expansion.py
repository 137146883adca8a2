import itertools
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nodal_expansion
import nodal_expansion.expansion as xp
from nodal_expansion.expansion import (
    ExactCapExceeded,
    ExpansionError,
    PartitionCertificate,
    UndefinedCut,
    _certify,
    _cut_values,
    _greedy_move,
    _Input,
    _qualifying,
    find_partition,
    is_expander,
    max_partitionable,
    phi,
    sweep_cut,
)
from nodal_expansion.generators import gen_cycle, gen_gnp, gen_path, gen_random_regular
from nodal_expansion import spectral
from nodal_expansion.graph import build_graph, induced_subgraph
from nodal_expansion.spectral import (
    SpectralDecomposition,
    eigendecompose,
    select_eigenpair,
)
from nodal_expansion.graph import laplacian, sign_support

import loop_checks
from oracles import (
    brute_is_partitionable,
    brute_min_phi,
    brute_phi,
    greedy_move_reference,
    kernel_phi_table,
    sequential_cut,
)
from split_cases import split_cases


def k2():
    return build_graph(2, [(0, 1)])


def p3():
    return build_graph(3, [(0, 1), (1, 2)])


def p4():
    return build_graph(4, [(0, 1), (1, 2), (2, 3)])


ONES3 = np.ones(3)


class TestPhi:
    def test_k2_unit(self):
        cut = phi(k2(), np.array([1.0, 1.0]), [0])
        assert cut.numerator == 1.0 and cut.denominator == 1.0 and cut.phi == 1.0

    def test_p3_weighted(self):
        cut = phi(p3(), np.array([1.0, 4.0, 1.0]), [0])
        assert abs(cut.numerator - 2.0) < 1e-15
        assert cut.denominator == 1.0
        assert abs(cut.phi - 2.0) < 1e-15

    def test_p4_support_subgraph(self):
        # positive support of the P4 Fiedler vector as its own 2-node graph
        g = build_graph(2, [(0, 1)])
        w = np.array([0.8536, 0.1464])
        cut = phi(g, w, [1])
        expected = np.sqrt(0.8536 * 0.1464) / 0.1464
        assert abs(cut.phi - expected) < 1e-12
        # brute force over both bipartitions
        assert abs(min(brute_phi(g, w, [0]), brute_phi(g, w, [1])) - cut.phi) < 1e-12

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_weights(self, bad):
        # NaN passes a `w < 0` test; unchecked, phi gives nan / nan and exact
        # is_expander a proof verdict that leaves the NaN node out
        w = np.array([bad, 1.0, 1.0])
        with pytest.raises(ExpansionError, match="finite"):
            phi(p3(), w, [0])
        with pytest.raises(ExpansionError, match="finite"):
            is_expander(p3(), w, 0.5, mode="exact")

    def test_rejects_weights_whose_sums_overflow(self):
        # at 1e200 each edge's w_u w_v overflows: phi({0, 1}) read inf, not
        # 0.5, and exact max_partitionable at c = 0.6 found 1 class, not 2;
        # at 1e308 w(V) overflows too, and phi read inf / inf
        g = p4()
        for big in (1e200, 1e308):
            w = np.full(4, big)
            calls = [
                lambda: phi(g, w, [0, 1]),
                lambda: sweep_cut(g, w, [0, 1, 2, 3]),
                *(lambda m=m: is_expander(g, w, 0.6, mode=m) for m in ("exact", "heuristic")),
                *(lambda m=m: max_partitionable(g, w, 0.6, mode=m) for m in ("exact", "heuristic")),
            ]
            for call in calls:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with pytest.raises(ExpansionError, match="largest float"):
                        call()
        # below the limit every sum is finite, and the answers are right
        w = np.full(4, 1e154)
        assert phi(g, w, [0, 1]).phi == 0.5
        assert max_partitionable(g, w, 0.6)[0] == 2
        w = np.array([1e300, 1e-10, 1.0, 1.0])
        assert phi(g, w, [0]).phi == np.sqrt(1e300 * 1e-10) / (1e-10 + 1.0 + 1.0)

    def test_undefined_for_zero_or_full_weight(self):
        with pytest.raises(UndefinedCut):
            phi(p3(), np.array([0.0, 1.0, 1.0]), [0])
        with pytest.raises(UndefinedCut):
            phi(p3(), ONES3, [0, 1, 2])

    def test_symmetry(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            g = build_graph(
                n,
                [
                    (i, j)
                    for i in range(n)
                    for j in range(i + 1, n)
                    if rng.random() < 0.5
                ],
            )
            w = rng.random(n) + 0.01
            S = [i for i in range(n) if rng.random() < 0.5]
            if not 0 < len(S) < n:
                continue
            a = phi(g, w, S)
            b = phi(g, w, sorted(set(range(n)) - set(S)))
            assert a.numerator == b.numerator
            assert a.denominator == b.denominator

    def test_scale_invariance(self):
        rng = np.random.default_rng(9)
        g = p4()
        w = rng.random(4) + 0.1
        for t in (1e-6, 0.5, 3.0, 1e6):
            a = phi(g, w, [0, 2]).phi
            b = phi(g, t * w, [0, 2]).phi
            assert abs(a - b) <= 1e-12 * max(abs(a), 1)


@st.composite
def weighted_graphs_with_subset(draw):
    """Graphs of at most 30 nodes, weights including zeros of both signs,
    and a subset."""
    n = draw(st.integers(1, 30))
    node = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(node, node), max_size=4 * n))
    edges = {(min(u, v), max(u, v)) for u, v in pairs if u != v}
    weight = st.one_of(st.just(0.0), st.just(-0.0), st.floats(1e-6, 1e3))
    w = np.array([draw(weight) for _ in range(n)])
    S = [i for i in range(n) if draw(st.booleans())]
    return build_graph(n, edges), w, S


@st.composite
def sweep_inputs(draw):
    """Graphs of at most 30 nodes with zero, near-zero and ordinary weights,
    and an order of the nodes with the positive-weight ones first."""
    n = draw(st.integers(1, 30))
    node = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(node, node), max_size=4 * n))
    edges = {(min(u, v), max(u, v)) for u, v in pairs if u != v}
    weight = st.one_of(st.just(0.0), st.floats(1e-300, 1e-25), st.floats(1e-6, 1e3))
    w = np.array([draw(weight) for _ in range(n)])
    order = sorted(draw(st.permutations(range(n))), key=lambda i: w[i] <= 0)
    if w.any():
        return build_graph(n, edges), w, order
    return build_graph(n, edges), np.ones(n), order


class TestCutKernel:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(weighted_graphs_with_subset())
    def test_phi_matches_sequential_sums(self, gws):
        g, w, S = gws
        num, w_s, w_rest = sequential_cut(g, w, S)
        if w_s <= 0 or w_rest <= 0:
            with pytest.raises(UndefinedCut):
                phi(g, w, S)
            return
        cut = phi(g, w, S)
        # bit for bit, not within a tolerance: float.hex sees the sign of zero
        assert cut_bits(cut) == (num.hex(), min(w_s, w_rest).hex())
        rest = phi(g, w, sorted(set(range(g.n)) - set(S)))
        assert cut_bits(rest) == cut_bits(cut)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        weighted_graphs_with_subset(),
        st.lists(st.booleans(), min_size=30, max_size=30),
    )
    def test_stacked_masks_match_sequential_sums(self, gws, flips):
        g, w, S = gws
        rows = np.zeros((3, g.n), dtype=bool)
        rows[0, S] = True
        rows[1] = ~rows[0]
        rows[2] = flips[: g.n]
        x = _Input.checked(g, w)
        num, w_s, w_rest = _cut_values(x, rows)
        for r, row in enumerate(rows):
            ref = sequential_cut(g, w, np.flatnonzero(row))
            assert sums_bits(num[r], w_s[r], w_rest[r]) == sums_bits(*ref)

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(weighted_graphs_with_subset(), st.integers(0, 2**32 - 1))
    def test_tall_stack_matches_sequential_sums(self, gws, seed):
        g, w, S = gws
        rows = np.random.default_rng(seed).random((160, g.n)) < 0.5
        rows[0] = False
        rows[1] = True
        rows[2, S] = True
        x = _Input.checked(g, w)
        num, w_s, w_rest = _cut_values(x, rows)
        for r, row in enumerate(rows):
            ref = sequential_cut(g, w, np.flatnonzero(row))
            assert sums_bits(num[r], w_s[r], w_rest[r]) == sums_bits(*ref)
            if r < 8:  # the same rows as one-mask stacks
                one = _cut_values(x, rows[r : r + 1])
                assert sums_bits(one[0][0], one[1][0], one[2][0]) == sums_bits(*ref)

    def test_greedy_move_matches_reference(self):
        rng = np.random.default_rng(3)
        moves = 0
        for t in range(40):
            n = int(rng.integers(4, 25))
            g = build_graph(
                n,
                [
                    (i, j)
                    for i in range(n)
                    for j in range(i + 1, n)
                    if rng.random() < 0.25
                ],
            )
            w = rng.random(n)
            w[rng.random(n) < 0.2] = 0.0
            k = int(rng.integers(2, 5))
            labels = rng.integers(0, k, n)
            classes = [[i for i in range(n) if labels[i] == ci] for ci in range(k)]
            ref = [list(cls) for cls in classes]
            x = _Input.checked(g, w)
            for _ in range(20):
                made = _greedy_move(x, classes, _certify(x, classes, 0.5).cuts)
                assert (made is not None) == greedy_move_reference(g, w, ref, 0.5)
                assert classes == ref
                if made is None:
                    break
                assert list(map(cut_bits, made)) == list(
                    map(cut_bits, _certify(x, classes, 0.5).cuts)
                )  # bit for bit
                moves += 1
        assert moves > 40  # the instances exercise the moves, not only "no move"

    def test_greedy_move_ties_match_reference(self):
        """Unit weights make many trial moves tie exactly with the current
        worst phi, which must be rejected (2,378 of the 5,643 trials here);
        zero weights and classes with one positive-weight node add undefined
        cuts, and nodes of weight 1e-30 add weights that cancel in the
        screen's arithmetic."""
        rng = np.random.default_rng(11)
        graphs = [build_graph(n, [(i, (i + 1) % n) for i in range(n)]) for n in range(5, 11)]
        for r, s in ((3, 3), (3, 4), (4, 4)):
            graphs.append(
                build_graph(
                    r * s,
                    [(i * s + j, i * s + j + 1) for i in range(r) for j in range(s - 1)]
                    + [(i * s + j, (i + 1) * s + j) for i in range(r - 1) for j in range(s)],
                )
            )
        for r, s in ((2, 3), (3, 3), (3, 4), (4, 4)):
            graphs.append(build_graph(r + s, [(i, r + j) for i in range(r) for j in range(s)]))
        moves = stuck = 0
        for g in graphs:
            n = g.n
            for variant, k in itertools.product(("unit", "zeros", "single", "tiny"), (2, 3, 4)):
                labels = rng.integers(0, k, n) if k != 2 else np.arange(n) * k // n
                labels[:k] = np.arange(k)  # no class is empty
                w = np.ones(n)
                if variant == "zeros":
                    w[rng.permutation(n)[: n // 4]] = 0.0
                elif variant == "single":
                    w[np.flatnonzero(labels == 0)[1:]] = 0.0  # class 0: one positive node
                elif variant == "tiny":
                    w[rng.permutation(n)[: n // 3]] = 1e-30
                classes = [[i for i in range(n) if labels[i] == ci] for ci in range(k)]
                ref = [list(cls) for cls in classes]
                x = _Input.checked(g, w)
                for _ in range(30):
                    made = _greedy_move(x, classes, _certify(x, classes, 0.5).cuts)
                    assert (made is not None) == greedy_move_reference(g, w, ref, 0.5)
                    assert classes == ref
                    if made is None:
                        stuck += 1
                        break
                    assert list(map(cut_bits, made)) == list(
                        map(cut_bits, _certify(x, classes, 0.5).cuts)
                    )
                    moves += 1
        assert moves > 100 and stuck > 50

    def test_greedy_move_survives_cancelling_weights(self):
        # Path 2-0-3-1 with w_0 = w_1 = 1e-30: moving node 2 out of {1, 2}
        # leaves w({1}) = 1e-30, which the screen computes as
        # w({1, 2}) - w_2 = 0.  Only its rounding bound keeps the move, which
        # lowers the worst phi from about 2e15 to 1e15, for the kernel.
        g = build_graph(4, [(0, 2), (0, 3), (1, 3)])
        w = np.array([1e-30, 1e-30, 1.0, 1.0])
        classes, ref = [[0], [3], [1, 2]], [[0], [3], [1, 2]]
        x = _Input.checked(g, w)
        made = _greedy_move(x, classes, _certify(x, classes, 0.5).cuts)
        assert greedy_move_reference(g, w, ref, 0.5)
        assert classes == ref == [[0, 2], [3], [1]]
        assert list(map(cut_bits, made)) == list(map(cut_bits, _certify(x, classes, 0.5).cuts))


class TestIsExpander:
    def test_k2_true(self):
        v = is_expander(k2(), np.array([1.0, 1.0]), 0.5)
        assert v.is_expander and v.min_phi == 1.0

    def test_p3_witness(self):
        v = is_expander(p3(), ONES3, 1.1)
        assert not v.is_expander
        assert v.witness is not None
        assert phi(p3(), ONES3, v.witness).phi < 1.1

    def test_p4_positive_support_corollary_instance(self):
        g = p4()
        d = eigendecompose(laplacian(g))
        sel = select_eigenpair(d, 2)
        w = sel.y**2
        supp = sign_support(sel.y)
        sub = induced_subgraph(g, supp.positive)
        w_sub = np.array([w[p] for p in sub.to_parent])
        v = is_expander(sub.graph, w_sub, np.sqrt(2) / 2)
        assert v.is_expander
        assert abs(v.min_phi - (1 + np.sqrt(2))) < 1e-9

    def test_exact_cap(self):
        g = build_graph(21, [(i, i + 1) for i in range(20)])
        with pytest.raises(ExactCapExceeded):
            is_expander(g, np.ones(21), 1.0)

    def test_exact_cap_counts_positive_weights(self):
        # the cap bounds the positive-weight nodes the table enumerates, not n
        g = gen_path(25)
        w = np.zeros(25)
        w[[3, 4, 5]] = [1.0, 2.0, 0.5]
        v = is_expander(g, w, 0.1, mode="exact")
        assert v.mode == "exact" and v.is_expander
        cuts = [[3], [4], [5], [3, 4], [3, 5], [4, 5]]
        assert abs(v.min_phi - min(brute_phi(g, w, S) for S in cuts)) < 1e-12
        w[:21] = 1.0
        with pytest.raises(ExactCapExceeded):
            is_expander(g, w, 0.1, mode="exact")

    def test_bad_threshold(self):
        with pytest.raises(ExpansionError):
            is_expander(k2(), np.array([1.0, 1.0]), 0.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            n = int(rng.integers(3, 9))
            g = build_graph(
                n,
                [
                    (i, j)
                    for i in range(n)
                    for j in range(i + 1, n)
                    if rng.random() < 0.5
                ],
            )
            w = rng.random(n) + 0.01
            v = is_expander(g, w, 1e9)
            assert abs(v.min_phi - brute_min_phi(g, w)) < 1e-10

    def test_min_phi_is_phi_of_witness(self):
        # exact min_phi is the kernel's value, not a table value that can
        # differ from phi(g, w, witness) in the last bits
        witnesses = 0
        for seed in range(400):
            rng = np.random.default_rng(seed)
            n = 6 + seed % 9
            g = gen_gnp(n, 0.4, seed=seed)
            w = rng.uniform(0.01, 1.0, n)
            v = is_expander(g, w, 10.0)
            if v.witness is not None:
                witnesses += 1
                assert v.min_phi == phi(g, w, v.witness).phi, seed
        assert witnesses == 400

    def test_tie_at_zero_ends_search(self, monkeypatch):
        # every nonempty set of an edgeless graph has phi 0, and no phi lies
        # below 0: the first block of the kernel confirmations settles it
        rows = []
        kernel = xp._subset_phis

        def spy(terms, masks):
            rows.append(len(masks))
            return kernel(terms, masks)

        monkeypatch.setattr(xp, "_subset_phis", spy)
        v = is_expander(build_graph(20, []), np.ones(20), 1.0)
        assert v.min_phi == 0.0 and v.witness == (1,)
        assert sum(rows) <= 64

    def test_light_rest_keeps_its_weight(self):
        # w(V \ S) = 1e-17 vanishes against w(V) = 1, but it is not zero
        g = k2()
        w = np.array([1e-17, 1.0])
        v = is_expander(g, w, 1e9)
        assert not v.is_expander and v.witness == (1,)
        assert v.min_phi == phi(g, w, [1]).phi
        cert = find_partition(g, w, 2, 1e9)
        assert cert is not None and cert.valid

    def test_heuristic_witness_is_verified(self):
        v = is_expander(p3(), ONES3, 1.1, mode="heuristic")
        assert not v.is_expander
        assert phi(p3(), ONES3, v.witness).phi < 1.1

    def test_heuristic_witness_verified_under_optimize(self):
        # `python -O` strips asserts; the witness check must still run
        code = (
            "import json, numpy as np\n"
            "from nodal_expansion import build_graph, is_expander\n"
            "g = build_graph(3, [(0, 1), (1, 2)])\n"
            "v = is_expander(g, np.ones(3), 1.1, mode='heuristic')\n"
            "print(json.dumps([__debug__, v.is_expander, v.witness]))\n"
        )
        env = dict(os.environ)
        src_dir = str(Path(nodal_expansion.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            [src_dir] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
        )
        out = subprocess.run(
            [sys.executable, "-O", "-c", code],
            env=env, capture_output=True, text=True, check=True, timeout=60,
        )
        debug, verdict, witness = json.loads(out.stdout)
        assert debug is False and verdict is False
        assert phi(p3(), ONES3, witness).phi < 1.1


class TestSweepCut:
    def test_p3_tie_prefers_shorter(self):
        S, cut = sweep_cut(p3(), ONES3, [0, 1, 2])
        assert S == (0,) and cut.phi == 1.0

    def test_k2(self):
        S, cut = sweep_cut(k2(), np.array([1.0, 1.0]), [1, 0])
        assert S == (1,) and cut.phi == 1.0

    def test_p4_fiedler_order(self):
        g = p4()
        d = eigendecompose(laplacian(g))
        y = select_eigenpair(d, 2).y
        order = sorted(range(4), key=lambda i: -y[i])
        S, cut = sweep_cut(g, np.ones(4), order)
        assert S == (0, 1) and abs(cut.phi - 0.5) < 1e-15

    def test_rejects_zero_weight_prefix(self):
        with pytest.raises(ExpansionError):
            sweep_cut(p3(), np.array([0.0, 1.0, 1.0]), [0, 1, 2])

    def test_rejects_all_zero(self):
        with pytest.raises(ExpansionError):
            sweep_cut(p3(), np.zeros(3), [0, 1, 2])

    @pytest.mark.parametrize("order", [[0, 1, 1], [0, 1], [0, 1, 2, 3]])
    def test_rejects_order_not_a_permutation(self, order):
        with pytest.raises(ExpansionError, match="not a permutation"):
            sweep_cut(p3(), ONES3, order)

    def test_one_positive_weight_has_no_proper_prefix(self):
        with pytest.raises(UndefinedCut, match="no prefix with proper weight"):
            sweep_cut(p3(), np.array([0.0, 1e-300, 0.0]), [1, 0, 2])

    def test_weights_below_an_ulp_of_the_total(self):
        # w(S) = 1 holds the total to the last bit, but V \ S holds a
        # positive weight, so the prefix is proper
        S, cut = sweep_cut(k2(), np.array([1.0, 1e-32]), [0, 1])
        assert S == (0,) and (cut.numerator, cut.denominator) == (1e-16, 1e-32)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(sweep_inputs())
    def test_first_minimum_of_kernel_phi_over_proper_prefixes(self, gwo):
        g, w, order = gwo
        p = int((w > 0).sum())
        if p < 2:
            with pytest.raises(UndefinedCut, match="no prefix with proper weight"):
                sweep_cut(g, w, order)
            return
        cuts = [sequential_cut(g, w, order[:t]) for t in range(1, p)]
        phis = [num / min(w_s, w_rest) for num, w_s, w_rest in cuts]
        t = phis.index(min(phis))  # the first, so the shortest, among minima
        num, w_s, w_rest = cuts[t]
        S, cut = sweep_cut(g, w, order)
        assert S == tuple(sorted(order[: t + 1]))
        assert (cut.numerator.hex(), cut.denominator.hex()) == (
            num.hex(), min(w_s, w_rest).hex()
        )


class TestFindPartition:
    def test_trivial_k1(self):
        cert = find_partition(p3(), ONES3, 1, 1.0)
        assert cert.valid and cert.classes == ((0, 1, 2),) and cert.phis == ()

    def test_p3_k2_found(self):
        cert = find_partition(p3(), ONES3, 2, 1.5)
        assert cert is not None and cert.valid
        assert all(p < 1.5 for p in cert.phis)
        covered = sorted(i for cls in cert.classes for i in cls)
        assert covered == [0, 1, 2]

    def test_p3_k2_none_is_proof(self):
        assert find_partition(p3(), ONES3, 2, 0.5) is None

    def test_deterministic(self):
        a = find_partition(p3(), ONES3, 2, 1.5)
        b = find_partition(p3(), ONES3, 2, 1.5)
        assert a.classes == b.classes

    def test_matches_brute_partitionability(self):
        rng = np.random.default_rng(29)
        for _ in range(30):
            n = int(rng.integers(2, 6))
            g = build_graph(
                n,
                [
                    (i, j)
                    for i in range(n)
                    for j in range(i + 1, n)
                    if rng.random() < 0.6
                ],
            )
            w = rng.random(n) + 0.05
            k = int(rng.integers(1, n + 1))
            c = float(rng.random() * 2 + 0.05)
            found = find_partition(g, w, k, c) is not None
            assert found == brute_is_partitionable(g, w, k, c)

    def test_monotone_merging(self):
        # merging two classes of a valid exact certificate stays valid
        rng = np.random.default_rng(41)
        merged_checked = 0
        for _ in range(60):
            n = int(rng.integers(4, 8))
            g = build_graph(
                n,
                [
                    (i, j)
                    for i in range(n)
                    for j in range(i + 1, n)
                    if rng.random() < 0.5
                ],
            )
            w = rng.random(n) + 0.05
            k = int(rng.integers(3, n + 1))
            c = float(rng.random() * 3 + 0.2)
            cert = find_partition(g, w, k, c)
            if cert is None:
                continue
            for i in range(k):
                for j in range(i + 1, k):
                    classes = [
                        list(cls)
                        for idx, cls in enumerate(cert.classes)
                        if idx not in (i, j)
                    ]
                    classes.append(sorted(cert.classes[i] + cert.classes[j]))
                    for cls in classes:
                        assert phi(g, w, cls).phi < c
                    merged_checked += 1
        assert merged_checked > 0

    def test_exact_cap(self):
        n = 13
        g = build_graph(n, [(i, i + 1) for i in range(n - 1)])
        with pytest.raises(ExactCapExceeded):
            find_partition(g, np.ones(n), 2, 1.0)

    def test_heuristic_certificate_reverified(self):
        cert = find_partition(p4(), np.ones(4), 2, 1.1, mode="heuristic")
        assert cert is not None and cert.valid
        for cls, val in zip(cert.classes, cert.phis):
            assert abs(phi(p4(), np.ones(4), cls).phi - val) < 1e-12


@st.composite
def small_weighted_graphs(draw):
    """Graphs of at most 6 nodes whose weights include zeros."""
    n = draw(st.integers(1, 6))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = [e for e in pairs if draw(st.booleans())]
    weight = st.one_of(st.just(0.0), st.floats(0.05, 2.0))
    w = np.array([draw(weight) for _ in range(n)])
    return build_graph(n, edges), w


class TestExactEngineProperties:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(small_weighted_graphs(), st.floats(0.05, 3.0))
    def test_matches_brute_force(self, gw, c):
        g, w = gw
        truth = [brute_is_partitionable(g, w, k, c) for k in range(1, g.n + 1)]
        for k, expected in enumerate(truth, start=1):
            cert = find_partition(g, w, k, c)
            assert (cert is not None) == expected
            if cert is not None:
                assert cert.valid and len(cert.classes) == k
        k_max, cert = max_partitionable(g, w, c)
        assert k_max == max((k for k, t in enumerate(truth, 1) if t), default=0)
        if k_max:
            assert cert.valid and len(cert.classes) == k_max

    def test_path12_at_cap(self):
        g = gen_path(12)
        w = np.ones(12)
        k_max, _ = max_partitionable(g, w, 0.7)
        assert k_max >= 2
        for k in range(1, k_max + 1):
            cert = find_partition(g, w, k, 0.7)
            assert cert is not None and cert.valid and len(cert.classes) == k
        assert find_partition(g, w, k_max + 1, 0.7) is None


@st.composite
def graphs_with_kernel_threshold(draw):
    """Graphs of at most 10 nodes, weights including zeros and at least two
    positive, and c equal to the kernel phi of one of the subsets."""
    n = draw(st.integers(2, 10))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = [e for e in pairs if draw(st.booleans())]
    weight = st.one_of(st.just(0.0), st.floats(1e-3, 1e3))
    w = np.array([draw(weight) for _ in range(n)])
    w[list(draw(st.sampled_from(pairs)))] = draw(st.floats(1e-3, 1e3))
    g = build_graph(n, edges)
    table = kernel_phi_table(g, w)
    values = sorted({v for v in table if 0 < v < np.inf})
    c = draw(st.sampled_from(values)) if values else 1.0
    return g, w, table, c


class TestScreenedTable:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(graphs_with_kernel_threshold())
    def test_matches_kernel_oracle(self, gwtc):
        g, w, table, c = gwtc
        pos = [i for i in range(g.n) if w[i] > 0]
        assert _qualifying(_Input.checked(g, w), c) == [v < c for v in table]
        # the minimum over the sets without pos[0], and the lowest such mask
        # among the minimizers
        best = min(table[0::2])
        mask = 2 * table[0::2].index(best)
        v = is_expander(g, w, c)
        assert v.min_phi == best
        expect = tuple(node for j, node in enumerate(pos) if mask >> j & 1)
        assert v.witness == (expect if best < c else None)


SPLIT_CASES = list(split_cases())


class TestSplitTable:
    """The half table above the split's break-even, where the high free
    nodes enter by one matrix product."""

    @pytest.mark.parametrize("g, w", [case[1:] for case in SPLIT_CASES],
                             ids=[case[0] for case in SPLIT_CASES])
    def test_entries_within_bound(self, g, w):
        """Every entry lies within its bound of the kernel's value: all
        entries up to 16 nodes, and above that a seeded sample plus every
        set that the screen sends to the kernel."""
        x = _Input.checked(g, w)
        y = x.induced(x.pos)
        p = len(x.pos)
        assert p - 1 > xp._SPLIT_ABOVE  # the split path
        half, err = xp._phi_table(g, y)
        assert len(half) == 1 << (p - 1) and half[0] == np.inf
        if p <= 16:
            idx = np.arange(1, len(half))
        else:
            i = int(np.argmin(half))
            cand = np.flatnonzero(np.maximum(half - err, 0.0) <= half[i] + err[i])
            sample = np.random.default_rng(p).integers(1, len(half), 4096)
            idx = np.union1d(sample, cand[cand > 0])
        kernel = xp._subset_phis(y, 2 * idx)
        assert np.all(np.abs(half[idx] - kernel) <= err[idx])

    @pytest.mark.parametrize("name", ["gnp14-random", "gnp14-unit"])
    def test_is_expander_matches_kernel_oracle(self, name):
        g, w = next(case[1:] for case in SPLIT_CASES if case[0] == name)
        table = kernel_phi_table(g, w)
        # the minimum over the sets without node 0, and the lowest such mask
        # among the minimizers
        best = min(table[0::2])
        mask = 2 * table[0::2].index(best)
        v = is_expander(g, w, 2 * best + 1)
        assert v.min_phi == best
        assert v.witness == tuple(j for j in range(g.n) if mask >> j & 1)


class TestMaxPartitionable:
    def test_heuristic_draws_one_split_chain(self, monkeypatch):
        """Heuristic max_partitionable draws k - 1 splits for each k from one
        chain: each certificate it builds equals find_partition's for the
        same k, and no split is computed twice."""
        rng = np.random.default_rng(0)
        w_regular = rng.random(40) + 0.1
        w_regular[::7] = 0.0
        cases = [
            (gen_path(24), np.ones(24), 0.5),
            (gen_cycle(30), np.ones(30), 0.45),
            (gen_random_regular(40, 3, 2), w_regular, 0.6),
            (gen_gnp(30, 0.15, 4), rng.random(30), 0.8),
        ]
        splits, built = [], []
        fiedler, heuristic = xp._fiedler_order, xp._heuristic_partition

        def fiedler_spy(x):
            splits.append(x.g.n)
            return fiedler(x)

        def heuristic_spy(x, classes, c):
            cert = heuristic(x, classes, c)
            built.append((len(classes), cert))
            return cert

        for g, w, c in cases:
            monkeypatch.setattr(xp, "_fiedler_order", fiedler_spy)
            monkeypatch.setattr(xp, "_heuristic_partition", heuristic_spy)
            splits.clear()
            built.clear()
            k_max, cert = max_partitionable(g, w, c, mode="heuristic")
            monkeypatch.undo()
            n_pos = int(np.count_nonzero(w > 0))
            assert 3 <= k_max < n_pos
            # k = 2 .. k_max + 1, the last one failing
            assert [k for k, _ in built] == list(range(2, k_max + 2))
            assert built[-1][1] is None and cert == built[-2][1]
            for k, made in built:
                assert made == find_partition(g, w, k, c, mode="heuristic")
            # the chain drew k_max splits, one Fiedler order each; drawing
            # k - 1 splits afresh for every k would take k_max (k_max + 1) / 2
            assert len(splits) == k_max

    def test_k2_threshold_2(self):
        k_best, cert = max_partitionable(k2(), np.array([1.0, 1.0]), 2.0)
        assert k_best == 2 and cert.valid

    def test_k2_threshold_half(self):
        k_best, cert = max_partitionable(k2(), np.array([1.0, 1.0]), 0.5)
        assert k_best == 1

    def test_single_node(self):
        g = build_graph(1, [])
        k_best, cert = max_partitionable(g, np.array([1.0]), 0.1)
        assert k_best == 1 and cert.valid


def _key_sorted_fiedler_order(w: np.ndarray, f: np.ndarray) -> list[int]:
    """The Fiedler order by a Python key sort: positive weights first, then
    f, then the index."""
    return sorted(range(len(w)), key=lambda i: (w[i] <= 0, float(f[i]), i))


class TestSplitChain:
    def test_fiedler_order_below_index_min_order_matches_eigh(self):
        """Below INDEX_MIN_ORDER the Fiedler order is the one that
        np.linalg.eigh's second eigenvector gives, bit for bit."""
        rng = np.random.default_rng(3)
        graphs = [gen_path(9), gen_cycle(20), gen_random_regular(40, 3, 1)]
        graphs += [gen_gnp(n, 0.3, s) for n in (12, 33, 63) for s in range(2)]
        for g in graphs:
            w = rng.random(g.n) * (rng.random(g.n) >= 0.25)
            f = np.linalg.eigh(laplacian(g))[1][:, 1]
            assert xp._fiedler_order(_Input.checked(g, w)) == _key_sorted_fiedler_order(w, f)

    def test_lexsort_matches_the_key_sort(self, monkeypatch):
        """The lexsorts of the three candidate orders (Fiedler, heaviest
        first, index) give the key sorts' orders on weights with zeros and
        ties, and on Fiedler entries with ties and signed zeros."""
        rng = np.random.default_rng(5)
        for n in (2, 7, 30, 200):
            w = rng.integers(0, 3, n).astype(float)
            f = rng.integers(-3, 4, n) / 4.0
            f[rng.random(n) < 0.2] = -0.0
            monkeypatch.setattr(
                xp, "laplacian_decomposition",
                lambda g, k, f=f: SpectralDecomposition(f[:2], f[:, None], 0.0, index=2),
            )
            assert xp._candidate_orders(_Input.checked(gen_path(n), w)) == [
                _key_sorted_fiedler_order(w, f),
                sorted(range(n), key=lambda i: (w[i] <= 0, -w[i], i)),
                sorted(range(n), key=lambda i: (w[i] <= 0, i)),
            ]

    def test_disconnected_class_sheds_its_lightest_component(self, dense_solves):
        """A disconnected class of order >= INDEX_MIN_ORDER splits into its
        components, lightest first, with no eigensolve; equal weights go to
        the first component in node order."""
        blocks = [gen_path(30), gen_cycle(20), gen_random_regular(24, 3, 0), gen_path(20)]
        edges, base = [], 0
        for b in blocks:
            edges += [(u + base, v + base) for u, v in b.edges]
            base += b.n
        perm = np.random.default_rng(1).permutation(base)
        g = build_graph(base, [(perm[u], perm[v]) for u, v in edges])
        comps, base = [], 0
        for b in blocks:
            comps.append(sorted(int(perm[i]) for i in range(base, base + b.n)))
            base += b.n
        assert g.n >= spectral.INDEX_MIN_ORDER
        # the two 20-node components tie on weight 20, and the one with the
        # smaller first node goes first
        light = sorted(comps[1::2])
        chain = xp._split_chain(_Input.checked(g, np.ones(g.n)))
        steps = list(itertools.islice(chain, 4))
        assert dense_solves == []
        rest = sorted(comps[0] + comps[2])
        assert steps[1] == [light[0], sorted(light[1] + rest)]
        assert steps[2] == [light[0], light[1], rest]
        assert steps[3] == [light[0], light[1], comps[2], comps[0]]

    def test_connected_class_takes_the_index_route(self, dense_solves):
        """A connected class of order >= INDEX_MIN_ORDER with a simple
        lambda_2 gets its Fiedler vector by inverse iteration, with no eigh,
        and the same order as the dense eigh vector, up to reversal."""
        rng = np.random.default_rng(2)
        cases = [gen_random_regular(100, 4, 0), gen_path(80), gen_gnp(120, 0.06, 3)]
        for g in cases:
            w = rng.random(g.n) + 0.1
            f = np.linalg.eigh(laplacian(g))[1][:, 1]
            dense = _key_sorted_fiedler_order(w, f)
            dense_solves.clear()
            order = xp._fiedler_order(_Input.checked(g, w))
            names = [name for name, _ in dense_solves]
            assert names[0] == "eigvalsh" and set(names[1:]) == {"solve"}
            assert order in (dense, dense[::-1])


@pytest.mark.parametrize(
    "call",
    [
        lambda: is_expander(k2(), np.array([1.0, 0.0]), 0.5, mode="bogus"),
        lambda: find_partition(p3(), ONES3, 1, 1.0, mode="bogus"),
        lambda: find_partition(p3(), np.array([1.0, 0.0, 0.0]), 2, 1.0, mode="bogus"),
        lambda: max_partitionable(k2(), np.array([1.0, 0.0]), 0.5, mode="bogus"),
    ],
    ids=["is_expander", "find_partition_k1", "find_partition_few_nodes", "max_partitionable"],
)
def test_unknown_mode_rejected_on_small_inputs(call):
    """Inputs that finish before any search still reject an unknown mode."""
    with pytest.raises(ExpansionError, match="unknown mode"):
        call()


def test_one_checked_input_per_search_call(monkeypatch):
    """Each public search call checks its input and forms its edge terms in
    one record, in both modes, on every exit: k = 1, fewer than two
    positive-weight nodes, all-zero weights, and the searches themselves,
    whose heuristic splits derive their records from it."""
    builds, checked = [], xp._Input.checked
    monkeypatch.setattr(xp._Input, "checked", lambda *a: builds.append(1) or checked(*a))
    g = gen_path(10)
    rng = np.random.default_rng(5)
    weights = [np.ones(10), rng.random(10) * (rng.random(10) > 0.3), np.eye(10)[3], np.zeros(10)]
    splits = {"exact": 0, "heuristic": 0}
    for w, mode, c in itertools.product(weights, ("exact", "heuristic"), (0.3, 2.0)):
        searches = [lambda: is_expander(g, w, c, mode), lambda: max_partitionable(g, w, c, mode)]
        searches += [lambda k=k: find_partition(g, w, k, c, mode) for k in range(1, 5)]
        for search in searches:
            builds.clear()
            try:
                cert = search()
            except ExpansionError:  # is_expander on all-zero weights
                cert = None
            assert len(builds) == 1
            splits[mode] += isinstance(cert, PartitionCertificate) and len(cert.classes) > 2
    assert min(splits.values()) >= 4  # the searches ran, beyond the early exits


def test_is_expander_takes_no_budget():
    with pytest.raises(TypeError):
        is_expander(k2(), np.ones(2), 0.5, mode="heuristic", budget=10)


@pytest.mark.parametrize(
    "call",
    [
        lambda c: is_expander(p3(), ONES3, c),
        lambda c: find_partition(p3(), ONES3, 2, c),
        lambda c: max_partitionable(p3(), ONES3, c, mode="heuristic"),
    ],
    ids=["is_expander", "find_partition", "max_partitionable"],
)
def test_nan_threshold_rejected(call):
    """NaN passes a test of c <= 0, so the threshold is tested as
    0 < c < inf, which rejects an infinite one too."""
    for c in (float("nan"), float("inf")):
        with pytest.raises(ExpansionError, match="must be positive"):
            call(c)


def cut_bits(cut):
    return cut.numerator.hex(), cut.denominator.hex()


def sums_bits(*sums):
    return tuple(float(x).hex() for x in sums)


class TestCarriedCuts:
    """A certificate carries each class's cut, bit for bit what `phi` gives
    for the class, and its phis are read from those cuts."""

    @staticmethod
    def instances():
        rng = np.random.default_rng(17)
        for seed in range(40):
            n = int(rng.integers(3, 10))
            w = rng.random(n)
            w[rng.random(n) < 0.15] = 0.0
            for c in (0.4, 0.9, 1.6):
                yield gen_gnp(n, 0.5, seed), w, c

    @staticmethod
    def assert_carried(g, w, cert):
        assert len(cert.cuts) == len(cert.classes) >= 2
        for cls, cut in zip(cert.classes, cert.cuts):
            assert cut_bits(cut) == cut_bits(phi(g, w, cls))
        assert cert.phis == tuple(cut.numerator / cut.denominator for cut in cert.cuts)

    def test_exact_certificates(self):
        certs = 0
        for g, w, c in self.instances():
            k_best, cert = max_partitionable(g, w, c)
            for k in range(2, k_best + 1):
                cert = find_partition(g, w, k, c)
                self.assert_carried(g, w, cert)
                certs += 1
        assert certs > 100

    def test_heuristic_certificates_after_greedy_moves(self, monkeypatch):
        """Greedy moves from random classes, each certificate counted only
        when at least one move was made."""
        moves = []
        greedy_move = xp._greedy_move

        def counted(*args):
            made = greedy_move(*args)
            moves.append(made is not None)
            return made

        monkeypatch.setattr(xp, "_greedy_move", counted)
        rng = np.random.default_rng(17)
        certs = 0
        for seed, c in itertools.product(range(40), (1.0, 2.0)):
            n = int(rng.integers(6, 16))
            g = gen_gnp(n, 0.4, seed)
            w = rng.random(n)
            w[rng.random(n) < 0.15] = 0.0
            for k in (2, 3, 4):
                labels = rng.integers(0, k, n)
                labels[:k] = np.arange(k)  # no class is empty
                classes = [[i for i in range(n) if labels[i] == ci] for ci in range(k)]
                moves_before = sum(moves)
                cert = xp._heuristic_partition(xp._Input.checked(g, w), classes, c)
                if cert is not None and sum(moves) > moves_before:
                    self.assert_carried(g, w, cert)
                    certs += 1
        assert certs > 50

    def test_single_class_certificates_carry_no_cut(self):
        for g, w, c in self.instances():
            for mode in ("exact", "heuristic"):
                cert = find_partition(g, w, 1, c, mode=mode)
                assert cert.cuts == () and cert.phis == () and len(cert.classes) == 1


class TestZeroWeightAttachment:
    """The search attaches zero-weight nodes to its classes as the loop form
    in `loop_checks` does, class for class."""

    def test_matches_loop_form_on_random_instances(self):
        rng = np.random.default_rng(23)
        compared = 0
        for seed in range(300):
            n = int(rng.integers(2, 16))
            g = gen_gnp(n, float(rng.uniform(0.1, 0.6)), seed)
            w = rng.random(n) * (rng.random(n) >= 0.5)
            pos = np.flatnonzero(w > 0).tolist()
            if not pos:
                continue
            x = _Input.checked(g, w)
            for k in (1, 2, 3):
                labels = rng.integers(0, k, len(pos))
                classes = [[v for v, ci in zip(pos, labels) if ci == j] for j in range(k)]
                got = xp._attach_zero_weight_nodes(x, classes)
                assert got == loop_checks.attach_zero_weight_nodes(g, classes)
                compared += 1
        assert compared > 600

    def test_long_chain_of_zero_weights(self):
        # each pass attaches one more node of the path, from the right
        g = gen_path(300)
        w = np.zeros(300)
        w[-2:] = 1.0
        classes = [[298], [299]]
        got = xp._attach_zero_weight_nodes(_Input.checked(g, w), classes)
        assert got == loop_checks.attach_zero_weight_nodes(g, classes)
        assert got == [list(range(299)), [299]]
