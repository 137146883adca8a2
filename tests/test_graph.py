import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nodal_expansion.certificate import default_tolerance
from nodal_expansion.expansion import _Input
from nodal_expansion.graph import (
    DuplicateEdgeError,
    EndpointOutOfRange,
    SelfLoopError,
    build_graph,
    connected_components,
    induced_subgraph,
    laplacian,
    laplacian_scale,
    sign_support,
    weights_from_eigenvector,
)
from nodal_expansion.generators import gen_complete, gen_gnp, gen_path
from nodal_expansion.spectral import eigendecompose, select_eigenpair

from oracles import char_poly_eigs, induced_reference


def p4():
    return build_graph(4, [(0, 1), (1, 2), (2, 3)])


class TestBuildGraph:
    def test_k2(self):
        g = build_graph(2, [(0, 1)])
        assert g.n == 2 and g.edges == ((0, 1),)

    def test_p3(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        assert g.edges == ((0, 1), (1, 2))

    def test_canonicalizes_endpoint_order(self):
        g = build_graph(3, [(2, 0), (2, 1)])
        assert g.edges == ((0, 2), (1, 2))

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoopError):
            build_graph(3, [(0, 0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(EndpointOutOfRange):
            build_graph(3, [(0, 3)])

    def test_duplicate_rejected(self):
        with pytest.raises(DuplicateEdgeError):
            build_graph(3, [(0, 1), (1, 0)])


class TestLaplacian:
    def test_k2(self):
        L = laplacian(build_graph(2, [(0, 1)]))
        assert np.array_equal(L, [[1, -1], [-1, 1]])

    def test_p3(self):
        L = laplacian(build_graph(3, [(0, 1), (1, 2)]))
        assert np.array_equal(L, [[1, -1, 0], [-1, 2, -1], [0, -1, 1]])

    def test_empty(self):
        assert np.array_equal(laplacian(build_graph(3, [])), np.zeros((3, 3)))

    def test_row_sums_and_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(2, 12))
            edges = [
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.4
            ]
            L = laplacian(build_graph(n, edges))
            assert np.array_equal(L, L.T)
            assert np.array_equal(L.sum(axis=1), np.zeros(n))
            assert np.allclose(L @ np.ones(n), 0)

    def test_matches_edge_loop(self):
        def loop_laplacian(g):
            L = np.zeros((g.n, g.n))
            for u, v in g.edges:
                L[u, u] += 1.0
                L[v, v] += 1.0
                L[u, v] -= 1.0
                L[v, u] -= 1.0
            return L

        graphs = [build_graph(0, []), build_graph(1, []), build_graph(4, [])]
        graphs += [gen_gnp(n, p, s) for n, p, s in ((7, 0.5, 1), (40, 0.2, 2), (300, 0.02, 3))]
        for g in graphs:
            L = laplacian(g)
            assert L.dtype == np.float64
            assert np.array_equal(L, loop_laplacian(g))


_order = st.integers(1, 12)


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        st.integers(0, 12).map(lambda n: build_graph(n, [])),
        _order.map(gen_path),
        _order.map(gen_complete),
        st.builds(gen_gnp, _order, st.floats(0.0, 1.0), st.integers(0, 2**32 - 1)),
    )
)
@example(build_graph(0, []))
@example(build_graph(1, []))
def test_scale_and_tolerance_read_off_the_degrees(g):
    # bit for bit the matrix formulas they replace
    L = laplacian(g)
    scale = float(np.max(np.abs(L))) if L.size else 0.0
    assert laplacian_scale(g).hex() == scale.hex()
    assert default_tolerance(g).hex() == (1e-8 * (1.0 + scale * L.shape[0])).hex()
    assert np.array_equal(g.degrees(), np.diag(L))
    assert not g.degrees().flags.writeable


class TestSignSupport:
    def test_simple(self):
        s = sign_support(np.array([1.0, -1.0]))
        assert s.positive == (0,) and s.negative == (1,) and s.zero == ()

    def test_zero_band(self):
        # the default band is 1e-9 max|y| = 5e-10
        s = sign_support(np.array([0.5, 1e-12, -0.5]))
        assert s.positive == (0,) and s.zero == (1,) and s.negative == (2,)

    def test_p4_fiedler(self):
        # eigenvalues of the P4 Laplacian cross-checked against the
        # characteristic-polynomial oracle before trusting the vector
        L = laplacian(p4())
        assert np.allclose(np.linalg.eigvalsh(L), char_poly_eigs(L), atol=1e-8)
        d = eigendecompose(L)
        y = select_eigenpair(d, 2).y
        s = sign_support(y)
        assert s.positive == (0, 1) and s.negative == (2, 3)

    def test_partitions_node_set(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            # entries drawn to land in the band as well as outside it
            n = int(rng.integers(1, 20))
            y = rng.standard_normal(n) * 10.0 ** -rng.integers(0, 12, n)
            s = sign_support(y)
            all_nodes = sorted(s.positive + s.negative + s.zero)
            assert all_nodes == list(range(len(y)))
            assert not set(s.positive) & set(s.negative)


class TestInducedSubgraph:
    def test_p4_prefix(self):
        sub = induced_subgraph(p4(), {0, 1})
        assert sub.graph.n == 2 and sub.graph.edges == ((0, 1),)
        assert sub.to_parent == (0, 1)

    def test_c4_opposite(self):
        c4 = build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        sub = induced_subgraph(c4, {0, 2})
        assert sub.graph.n == 2 and sub.graph.edges == ()

    def test_k4_triangle(self):
        k4 = build_graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        sub = induced_subgraph(k4, {0, 1, 2})
        assert sub.graph.m == 3

    def test_identity_on_full_set(self):
        g = p4()
        sub = induced_subgraph(g, range(4))
        assert sub.graph.edges == g.edges
        assert sub.to_parent == (0, 1, 2, 3)

    def test_out_of_range(self):
        with pytest.raises(EndpointOutOfRange):
            induced_subgraph(p4(), {0, 7})

    def test_matches_reference_on_gnp(self):
        """On G(n, p) with n = 0..30 and node iterables that are empty, full,
        unsorted or repeated, the restricted edge arrays give the dict walk's
        subgraph, and they are the new graph's read-only edge arrays from the
        start; out-of-range nodes raise, and a record induced on all its
        nodes is the record itself."""
        rng = np.random.default_rng(23)
        for n in range(31):
            g = gen_gnp(n, rng.random(), seed=n) if n else build_graph(0, [])
            picks = [[], list(range(n)), list(range(n))[::-1]]
            if n:
                picks += [rng.integers(0, n, rng.integers(1, 2 * n)).tolist() for _ in range(4)]
            for nodes in picks:
                sub = induced_subgraph(g, iter(nodes))
                assert "_edge_arrays" in vars(sub.graph)  # filled, not built from the tuple
                assert (sub.graph.n, sub.graph.edges, sub.to_parent) == induced_reference(g, nodes)
                e = np.array(sub.graph.edges, dtype=int).reshape(-1, 2)
                us, vs = sub.graph.edge_arrays()
                assert us.dtype == vs.dtype == e.dtype
                assert np.array_equal(us, e[:, 0]) and np.array_equal(vs, e[:, 1])
                assert not us.flags.writeable and not vs.flags.writeable
            for bad in ([n], [-1], [0, n + 3]):
                with pytest.raises(EndpointOutOfRange):
                    induced_subgraph(g, bad)
            x = _Input.checked(g, rng.random(n))
            assert x.induced(list(range(n))) is x


class TestWeights:
    def test_exact_squares(self):
        assert np.array_equal(
            weights_from_eigenvector(np.array([1.0, -1.0])), [1.0, 1.0]
        )

    def test_values(self):
        w = weights_from_eigenvector(np.array([0.924, 0.383]))
        assert abs(w[0] - 0.924**2) < 1e-12
        assert abs(w[1] - 0.383**2) < 1e-12

    def test_zero(self):
        assert np.array_equal(weights_from_eigenvector(np.zeros(3)), np.zeros(3))

    def test_sign_flip_invariance(self):
        rng = np.random.default_rng(3)
        y = rng.standard_normal(10)
        assert np.array_equal(
            weights_from_eigenvector(y), weights_from_eigenvector(-y)
        )


class TestCachedStructure:
    def test_edge_arrays_read_only(self):
        us, vs = p4().edge_arrays()
        assert us.tolist() == [0, 1, 2] and vs.tolist() == [1, 2, 3]
        with pytest.raises(ValueError):
            us[0] = 3
        with pytest.raises(ValueError):
            vs[0] = 3

    def test_cache_keeps_equality_and_hash(self):
        g, h = p4(), p4()
        g.edge_arrays()
        assert g == h and hash(g) == hash(h)


def test_connected_components():
    g = build_graph(5, [(0, 1), (2, 3)])
    assert connected_components(g) == [[0, 1], [2, 3], [4]]
