import hashlib

import numpy as np
import pytest

from nodal_expansion import generators
from nodal_expansion.generators import (
    GenerationError,
    enumerate_connected_graphs,
    gen_complete,
    gen_cycle,
    gen_expander_path_expander,
    gen_gnp,
    gen_path,
    gen_random_regular,
    sample_connected_graphs,
)
from nodal_expansion.graph import is_connected


class TestBasicFamilies:
    def test_path2_is_k2(self):
        g = gen_path(2)
        assert g.n == 2 and g.edges == ((0, 1),)

    def test_cycle4(self):
        g = gen_cycle(4)
        assert g.n == 4 and g.m == 4
        assert np.array_equal(g.degrees(), [2, 2, 2, 2])

    def test_complete4(self):
        assert gen_complete(4).m == 6

    def test_range_errors(self):
        with pytest.raises(GenerationError):
            gen_path(0)
        with pytest.raises(GenerationError):
            gen_cycle(2)


class TestRandomRegular:
    def test_n4_d3_forced_to_k4(self):
        g = gen_random_regular(4, 3, seed=123)
        assert g.edges == gen_complete(4).edges

    def test_degrees(self):
        g = gen_random_regular(10, 3, seed=1)
        assert np.array_equal(g.degrees(), [3] * 10)

    def test_odd_product_rejected(self):
        with pytest.raises(GenerationError):
            gen_random_regular(5, 3, seed=0)

    def test_retries_run_out(self, monkeypatch):
        # seed 1's first pairing of 6 nodes' stubs is not simple; seed 0's is
        monkeypatch.setattr(generators, "REGULAR_MAX_RETRIES", 1)
        assert gen_random_regular(6, 3, seed=0).m == 9
        with pytest.raises(GenerationError, match="pairing model failed"):
            gen_random_regular(6, 3, seed=1)

    def test_deterministic(self):
        a = gen_random_regular(12, 4, seed=99)
        b = gen_random_regular(12, 4, seed=99)
        assert a.edges == b.edges
        c = gen_random_regular(12, 4, seed=100)
        assert a.edges != c.edges  # overwhelmingly likely for distinct seeds


class TestGnp:
    def test_deterministic(self):
        assert gen_gnp(10, 0.4, 5).edges == gen_gnp(10, 0.4, 5).edges

    def test_extremes(self):
        assert gen_gnp(6, 0.0, 1).m == 0
        assert gen_gnp(6, 1.0, 1).m == 15


class TestExpanderPathExpander:
    def test_small_structure(self):
        g = gen_expander_path_expander(4, 3, 8, seed=0)
        assert g.n == 16 and g.m == 6 + 6 + 7 + 2
        k4 = gen_complete(4).edges
        assert set(k4) <= set(g.edges)
        assert {(u + 4, v + 4) for u, v in k4} <= set(g.edges)
        assert (0, 8) in g.edges and (4, 15) in g.edges

    def test_blocks_isomorphic_by_shift(self):
        g = gen_expander_path_expander(10, 3, 5, seed=3)
        block1 = {e for e in g.edges if e[0] < 10 and e[1] < 10}
        block2 = {e for e in g.edges if 10 <= e[0] < 20 and 10 <= e[1] < 20}
        assert {(u + 10, v + 10) for u, v in block1} == block2

    def test_connected(self):
        for seed in (0, 1, 7):
            assert is_connected(gen_expander_path_expander(6, 3, 4, seed=seed))

    def test_default_path_len(self):
        g = gen_expander_path_expander(6, 3, seed=0)
        assert g.n == 6 * 2 + 12

    def test_bad_block_is_named(self):
        """An invalid block is reported as such, not as the path_len that
        n_block's default would give."""
        for n_block, d in ((0, 3), (0, 0), (3, 3), (5, 3)):
            with pytest.raises(GenerationError, match=f"n_block={n_block}, d={d}"):
                gen_expander_path_expander(n_block, d)

    def test_deterministic(self):
        a = gen_expander_path_expander(8, 3, 10, seed=7)
        b = gen_expander_path_expander(8, 3, 10, seed=7)
        assert a.edges == b.edges


class TestEnumeration:
    def test_connected_counts(self):
        # known labeled connected graph counts: 1, 1, 4, 38, 728
        for n, expect in ((1, 1), (2, 1), (3, 4), (4, 38), (5, 728)):
            assert sum(1 for _ in enumerate_connected_graphs(n)) == expect

    def test_sampler_distinct_connected(self):
        seen = set()
        for g in sample_connected_graphs(6, 40, seed=0):
            assert is_connected(g)
            assert g.edges not in seen
            seen.add(g.edges)
        assert len(seen) == 40

    def test_sampler_wide_masks(self):
        # 66 node pairs: each mask is wider than one 63-bit draw
        graphs = list(sample_connected_graphs(12, 30, seed=5))
        assert len({g.edges for g in graphs}) == 30
        assert all(g.n == 12 and is_connected(g) for g in graphs)

    def test_sampler_stops_when_masks_run_out(self):
        # 3 nodes have 8 edge masks and 4 connected graphs
        assert len(list(sample_connected_graphs(3, 4, seed=0))) == 4
        got = []
        with pytest.raises(GenerationError, match="only 4 connected graphs"):
            for g in sample_connected_graphs(3, 5, seed=0):
                got.append(g)
        assert len({g.edges for g in got}) == 4

    def test_sampler_stream_pinned(self):
        # masks of up to 63 bits are single draws, as they always were: the
        # small-sweep benchmark and criterion 1 rely on this stream
        digest = hashlib.sha256()
        for g in sample_connected_graphs(7, 200, seed=1):
            digest.update(repr(g.edges).encode())
        assert digest.hexdigest() == (
            "519705aa7564e76a86b664c6c654cc36d7b4049f3c1fb9ab4ee3eaf6843f35ca"
        )


# The benchmark's draws and the edge cases, by family.  The hashes pin every
# graph bit for bit, so that no change to a generator's code changes a graph
# that a benchmark workload, a dump or a pinned test draws.
PINNED_GRID = {
    "gnp": [
        *((n, p, seed) for n, p in ((20, 0.3), (36, 0.2)) for seed in (0, 1, 2)),
        *((n, 8 / (n - 1), seed) for n in (600, 1000) for seed in (0, 1)),
        (120, 0.05, 1), (9, 0.0, 4), (9, 1.0, 4), (1, 0.5, 0),
    ],
    "regular": [
        *((n, 4, seed) for n in (100, 400, 800, 1200) for seed in (0, 1)),
        (1, 0, 0), (6, 0, 3), (4, 3, 123),
    ],
    "bridged": [(100, 4, 200, 0), (100, 4, 200, 1), (10, 3, None, 7)],
    "complete": [(n,) for n in range(1, 6)],
    "path": [(n,) for n in (1, 2, 3, 4, 5, 300)],
    "cycle": [(n,) for n in (3, 4, 5, 160)],
}
PINNED_FAMILY = {
    "gnp": gen_gnp,
    "regular": gen_random_regular,
    "bridged": gen_expander_path_expander,
    "complete": gen_complete,
    "path": gen_path,
    "cycle": gen_cycle,
}
PINNED_SHA256 = {
    "gnp": "70aa47a9e0c82aa0cf6740be787ccbaaa31b181ff31f031aab486a297176922d",
    "regular": "e279d75d5a118606afc137596317c4cc5d1b058f690f1f0fb8a6cd6ee429efb8",
    "bridged": "12de9b5a7ec78aa9ade5ea93d6376566ed893083a3abae982f843d495cf0afe8",
    "complete": "2708f077bd225dc9869983a1d7148eb61cc8fecd13a39dcf144f676b293501e3",
    "path": "cb59a0ce21b2dfca08893a6f68240ae60fb0d2153e189b9165363aafc6e03f95",
    "cycle": "915f50a663644c708030aff56f387f8bad1a51e78ddcd4b92c7ddc38ce504270",
}


def _pinned_graphs(family):
    return [PINNED_FAMILY[family](*params) for params in PINNED_GRID[family]]


class TestPinnedGraphs:
    @pytest.mark.parametrize("family", sorted(PINNED_GRID))
    def test_graphs_pinned(self, family):
        digest = hashlib.sha256()
        for g in _pinned_graphs(family):
            digest.update(repr((g.n, g.edges)).encode())
        assert digest.hexdigest() == PINNED_SHA256[family]

    @pytest.mark.parametrize("family", sorted(PINNED_GRID))
    def test_edge_arrays_cached_at_construction(self, family):
        for g in _pinned_graphs(family):
            assert "_edge_arrays" in g.__dict__  # filled when built
            e = np.array(g.edges, dtype=int).reshape(-1, 2)
            for got, want in zip(g.edge_arrays(), (e[:, 0], e[:, 1])):
                assert got.dtype == want.dtype and np.array_equal(got, want)
                assert not got.flags.writeable
