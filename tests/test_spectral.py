import numpy as np
import pytest

from nodal_expansion import spectral
from nodal_expansion.generators import gen_gnp, gen_random_regular, sample_connected_graphs
from nodal_expansion.graph import build_graph, laplacian, sign_support
from nodal_expansion.spectral import (
    NotSymmetricError,
    eigendecompose,
    is_repeated,
    select_eigenpair,
    spectral_gap_c,
)

from oracles import char_poly_eigs, component_count


EPS = np.finfo(float).eps


def c4():
    return build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


def barbell():
    # two triangles joined by an edge; lambda_3 = lambda_4 = 3
    return build_graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)])


def residual_bound(L):
    return 2 * L.shape[0] * EPS * (1.0 + np.max(np.abs(L)))


class TestEigendecompose:
    def test_k2(self):
        d = eigendecompose(laplacian(build_graph(2, [(0, 1)])))
        assert np.allclose(d.values, [0, 2], atol=1e-12)

    def test_p3_against_charpoly(self):
        L = laplacian(build_graph(3, [(0, 1), (1, 2)]))
        d = eigendecompose(L)
        assert np.allclose(d.values, [0, 1, 3], atol=1e-9)
        assert np.allclose(d.values, char_poly_eigs(L), atol=1e-8)

    def test_k4(self):
        k4 = build_graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        d = eigendecompose(laplacian(k4))
        assert np.allclose(d.values, [0, 4, 4, 4], atol=1e-9)

    def test_rejects_nonsymmetric(self):
        with pytest.raises(NotSymmetricError):
            eigendecompose(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_ascending_orthonormal_residual(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            n = int(rng.integers(2, 65))
            A = rng.standard_normal((n, n))
            A = (A + A.T) / 2
            d = eigendecompose(A)
            assert np.all(np.diff(d.values) >= 0)
            gram = d.vectors.T @ d.vectors
            assert np.max(np.abs(gram - np.eye(n))) <= 1e-8
            scale = 1e-8 * (1 + np.max(np.abs(d.values)))
            assert d.residual <= scale
            recon = d.vectors @ np.diag(d.values) @ d.vectors.T
            assert np.max(np.abs(A - recon)) <= scale

    def test_deterministic(self):
        L = laplacian(c4())
        d1, d2 = eigendecompose(L), eigendecompose(L.copy())
        assert np.array_equal(d1.values, d2.values)
        assert np.array_equal(d1.vectors, d2.vectors)

    def test_zero_multiplicity_counts_components(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            n = int(rng.integers(2, 12))
            edges = [
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.25
            ]
            g = build_graph(n, edges)
            d = eigendecompose(laplacian(g))
            assert int(np.sum(d.values <= 1e-9)) == component_count(g)


class TestSelectEigenpair:
    def test_p3_k2(self):
        d = eigendecompose(laplacian(build_graph(3, [(0, 1), (1, 2)])))
        sel = select_eigenpair(d, 2)
        assert abs(sel.lambda_k - 1) < 1e-9
        assert np.allclose(sel.y, [1 / np.sqrt(2), 0, -1 / np.sqrt(2)], atol=1e-8)
        assert not sel.multiplicity_flag
        # hand oracle: L y = y
        L = laplacian(build_graph(3, [(0, 1), (1, 2)]))
        assert np.allclose(L @ sel.y, sel.y, atol=1e-9)

    def test_c4_k2_degenerate(self):
        d = eigendecompose(laplacian(c4()))
        # circulant oracle: eigenvalues 2 - 2cos(2 pi j / 4) = 0, 2, 2, 4
        assert np.allclose(d.values, [0, 2, 2, 4], atol=1e-9)
        sel = select_eigenpair(d, 2)
        assert abs(sel.lambda_k - 2) < 1e-9
        assert sel.multiplicity_flag

    def test_k2_k1_constant(self):
        d = eigendecompose(laplacian(build_graph(2, [(0, 1)])))
        sel = select_eigenpair(d, 1)
        assert abs(sel.lambda_k) < 1e-12
        assert np.allclose(sel.y, [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-9)

    def test_canonical_sign(self):
        d = eigendecompose(laplacian(build_graph(4, [(0, 1), (1, 2), (2, 3)])))
        for k in range(1, 5):
            y = select_eigenpair(d, k).y
            lead = y[np.abs(y) > 1e-9][0]
            assert lead > 0

    def test_out_of_range(self):
        d = eigendecompose(laplacian(build_graph(2, [(0, 1)])))
        with pytest.raises(IndexError):
            select_eigenpair(d, 3)


class TestSpectralGap:
    def test_p4_k2(self):
        d = eigendecompose(laplacian(build_graph(4, [(0, 1), (1, 2), (2, 3)])))
        # path oracle: eigenvalues 2 - 2cos(j pi / 4)
        expected = 2 - 2 * np.cos(np.arange(4) * np.pi / 4)
        assert np.allclose(d.values, expected, atol=1e-9)
        assert abs(spectral_gap_c(d, 2) - np.sqrt(2) / 2) < 1e-9

    def test_c4_k2_zero(self):
        d = eigendecompose(laplacian(c4()))
        assert abs(spectral_gap_c(d, 2)) < 1e-9

    def test_k2(self):
        d = eigendecompose(laplacian(build_graph(2, [(0, 1)])))
        assert abs(spectral_gap_c(d, 1) - 1) < 1e-12
        with pytest.raises(IndexError):
            spectral_gap_c(d, 2)

    def test_laplacian_lambda1_zero_constant_vector(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            n = int(rng.integers(2, 15))
            edges = {(0, i) for i in range(1, n)}  # star keeps it connected
            edges |= {
                (i, j)
                for i in range(1, n)
                for j in range(i + 1, n)
                if rng.random() < 0.3
            }
            d = eigendecompose(laplacian(build_graph(n, sorted(edges))))
            assert abs(d.values[0]) <= 1e-9
            v = d.vectors[:, 0]
            assert np.max(np.abs(np.abs(v) - 1 / np.sqrt(n))) <= 1e-6


class TestIndexPath:
    """eigendecompose(A, k): every eigenvalue, one eigenvector by inverse
    iteration.  Tests that use graphs below INDEX_MIN_ORDER lower it, so
    the small graphs take the index path too."""

    def test_small_order_ignores_index(self):
        L = laplacian(build_graph(4, [(0, 1), (1, 2), (2, 3)]))
        d, full = eigendecompose(L, 2), eigendecompose(L)
        assert d.index is None
        assert np.array_equal(d.values, full.values)
        assert np.array_equal(d.vectors, full.vectors)

    def test_agrees_with_full_decomposition(self, monkeypatch):
        monkeypatch.setattr(spectral, "INDEX_MIN_ORDER", 1)
        graphs = [gen_random_regular(n, 3 + s % 2, s) for s, n in enumerate((100, 200, 400, 800))]
        graphs += [gen_gnp(200, 0.05, s) for s in range(2)]
        graphs += [*sample_connected_graphs(7, 200, 5), *sample_connected_graphs(12, 100, 5)]
        simple = 0
        for g in graphs:
            L = laplacian(g)
            full = eigendecompose(L)
            for k in range(1, min(g.n, 12) + 1):
                d = eigendecompose(L, k)
                if is_repeated(np.linalg.eigvalsh(L), k):
                    assert d.index is None
                    assert np.array_equal(d.vectors, full.vectors)
                    continue
                simple += 1
                assert d.index == k and d.vectors.shape == (g.n, 1)
                assert np.array_equal(d.values, np.linalg.eigvalsh(L))
                lam = d.value(k)
                y = d.vector(k)
                assert d.residual == float(np.linalg.norm(L @ y - lam * y))
                assert d.residual <= residual_bound(L)
                y = select_eigenpair(d, k).y
                y_full = select_eigenpair(full, k).y
                supp, supp_full = sign_support(y), sign_support(y_full)
                assert (supp.positive, supp.negative) == (supp_full.positive, supp_full.negative)
                # Davis-Kahan: each vector is within residual / gap of the
                # true one
                gap = min(
                    abs(lam - d.values[j]) for j in (k - 2, k) if 0 <= j < g.n
                )
                full_resid = np.linalg.norm(L @ y_full - full.value(k) * y_full)
                diff = np.linalg.norm(y - y_full)
                assert diff <= 2.0 * (d.residual + full_resid) / gap
                assert np.max(np.abs(y - y_full)) <= 1e-9
        assert simple > 2500

    @pytest.mark.parametrize("g, k", [(c4(), 2), (barbell(), 3)])
    def test_repeated_eigenvalue_falls_back_bit_for_bit(self, monkeypatch, g, k):
        monkeypatch.setattr(spectral, "INDEX_MIN_ORDER", 1)
        L = laplacian(g)
        d, full = eigendecompose(L, k), eigendecompose(L)
        assert d.index is None
        assert np.array_equal(d.values, full.values)
        assert np.array_equal(d.vectors, full.vectors)
        assert d.residual == full.residual
        assert select_eigenpair(d, k).multiplicity_flag

    def test_singular_shift_is_shifted_again(self, monkeypatch):
        # at k = 6 (lambda_6 ~ 5) the first shift makes L - sigma I exactly
        # singular in floating point
        monkeypatch.setattr(spectral, "INDEX_MIN_ORDER", 1)
        g = build_graph(
            7, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (4, 6), (5, 6)]
        )
        L = laplacian(g)
        values = np.linalg.eigvalsh(L)
        M = L.copy()
        M.flat[::8] -= values[5] + spectral.SHIFT_ULPS * EPS * (1.0 + np.max(np.abs(L)))
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(M, np.ones(7))
        d = eigendecompose(L, 6)
        assert d.index == 6
        assert d.residual <= residual_bound(L)
        y_full = select_eigenpair(eigendecompose(L), 6).y
        assert np.max(np.abs(select_eigenpair(d, 6).y - y_full)) <= 1e-12

    def test_index_out_of_range_and_other_vectors(self):
        L = laplacian(gen_random_regular(64, 3, 0))
        with pytest.raises(IndexError):
            eigendecompose(L, 0)
        with pytest.raises(IndexError):
            eigendecompose(L, 65)
        d = eigendecompose(L, 2)
        assert d.index == 2
        with pytest.raises(ValueError, match="eigenvector 2 only"):
            select_eigenpair(d, 3)
