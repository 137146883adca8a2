import json
import random

import numpy as np
import pytest

from nodal_expansion import spectral
from nodal_expansion.certificate import (
    ProofObjects,
    TheoremReport,
    build_proof_objects,
    verify_corollary1,
    verify_theorem1,
)
from nodal_expansion.generators import (
    gen_cycle,
    gen_gnp,
    gen_path,
    gen_random_regular,
    sample_connected_graphs,
)
from nodal_expansion.graph import build_graph, laplacian, sign_support
from nodal_expansion.spectral import (
    NotSymmetricError,
    eigendecompose,
    is_repeated,
    laplacian_decomposition,
    select_eigenpair,
    spectral_gap_c,
)

from oracles import char_poly_eigs, component_count
from proof_graphs import FAMILIES, KS, SIZES, proof_graph


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

    def test_asymmetry_within_tolerance_accepted(self):
        # max|L| = 2, so the bound is SYMMETRY_RTOL * 3
        L = laplacian(build_graph(4, [(0, 1), (1, 2), (2, 3)]))
        L[0, 1] += 2 * spectral.SYMMETRY_RTOL
        d = eigendecompose(L)
        assert np.allclose(d.values, eigendecompose(laplacian(gen_path(4))).values)
        L[0, 1] += 2 * spectral.SYMMETRY_RTOL
        with pytest.raises(NotSymmetricError):
            eigendecompose(L)

    def test_nan_passes_the_symmetry_test(self):
        # NaN != NaN fails the exact test; the tolerance test lets it pass
        A = np.array([[1.0, np.nan], [np.nan, 1.0]])
        assert np.isnan(eigendecompose(A).values).all()

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
    """laplacian_decomposition(g, k): every eigenvalue, one eigenvector by
    inverse iteration.  Tests that use graphs below INDEX_MIN_ORDER lower
    it, so the small graphs take the index path too; each graph is fresh,
    so nothing kept under another order is read."""

    def test_small_order_ignores_index(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        L = laplacian(g)
        d, full = laplacian_decomposition(g, 2), eigendecompose(L)
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
                d = laplacian_decomposition(g, k)
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
        d, full = laplacian_decomposition(g, k), eigendecompose(L)
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
        d = laplacian_decomposition(g, 6)
        assert d.index == 6
        assert d.residual <= residual_bound(L)
        y_full = select_eigenpair(eigendecompose(L), 6).y
        assert np.max(np.abs(select_eigenpair(d, 6).y - y_full)) <= 1e-12

    def test_index_out_of_range_and_other_vectors(self):
        g = gen_random_regular(64, 3, 0)
        with pytest.raises(IndexError):
            laplacian_decomposition(g, 0)
        with pytest.raises(IndexError):
            laplacian_decomposition(g, 65)
        d = laplacian_decomposition(g, 2)
        assert d.index == 2
        with pytest.raises(ValueError, match="eigenvector 2 only"):
            select_eigenpair(d, 3)


class TestLowEnd:
    """laplacian_decomposition(g, k, through=K): lambda_1..lambda_K and y_k
    from certified Lanczos pairs, or the dense route's bits."""

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("n", SIZES)
    def test_certified_on_proof_graphs(self, family, n):
        g, ys = proof_graph(family, n)
        L = laplacian(g)
        values = np.linalg.eigvalsh(L)
        # numpy's eigenvalues are good to about n eps ||L||, no better
        # (they miss the exact lambda_1 = 0 by up to 1.5e-14 at n = 1200,
        # wider than some certified intervals)
        eigvalsh_err = n * EPS * 2 * np.max(np.diag(L))
        for k in KS:
            for K in (k + 1, k + 2):
                d = laplacian_decomposition(g, k, through=K)
                assert d.radii is not None and d.index == k
                assert d.n == n and len(d.values) == len(d.radii) == K
                lo, hi = d.values - d.radii, d.values + d.radii
                assert np.all(hi[:-1] < lo[1:])
                assert lo[0] <= 0.0 <= hi[0]
                assert np.all(np.abs(values[:K] - d.values) <= d.radii + eigvalsh_err)
                y = d.vector(k)
                assert d.residual <= residual_bound(L)
                assert np.linalg.norm(L @ y - d.value(k) * y) <= residual_bound(L)
                supp = sign_support(select_eigenpair(d, k).y)
                ref = sign_support(ys[k])
                assert (supp.positive, supp.negative) == (ref.positive, ref.negative)

    def test_missed_eigenvalue_is_caught(self, monkeypatch):
        # Lanczos pairs with lambda_2's pair taken out: every interval is
        # still narrow and disjoint, so only the Cholesky certificate sees
        # that an eigenvalue below tau is missing
        g, _ = proof_graph("gnp", 600)
        L = laplacian(g)
        real = spectral._lanczos

        def drop_second(deg, us, vs, count, k, bound):
            theta, V = real(deg, us, vs, count + 1, k, bound)
            keep = [i for i in range(count + 1) if i != 1]
            return theta[keep], V[:, keep]

        monkeypatch.setattr(spectral, "_lanczos", drop_second)
        d = laplacian_decomposition(g, 3, through=4)
        dense = laplacian_decomposition(build_graph(g.n, g.edges), 3)
        assert d.radii is None
        assert np.array_equal(d.values, dense.values)
        assert np.array_equal(d.vectors, dense.vectors)

    def test_repeated_goes_straight_to_eigh(self, monkeypatch):
        # G(600, 8/599) seed 0 has an isolated node: lambda_1 = lambda_2 = 0
        g = gen_gnp(600, 8 / 599, 0)
        assert component_count(g) == 2
        L = laplacian(g)
        full = eigendecompose(L)
        calls = []
        real_eigvalsh, real_eigh = np.linalg.eigvalsh, np.linalg.eigh

        def eigvalsh(A, *args, **kwargs):
            calls.append(("eigvalsh", A.shape))
            return real_eigvalsh(A, *args, **kwargs)

        def eigh(A, *args, **kwargs):
            calls.append(("eigh", A.shape))
            return real_eigh(A, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        monkeypatch.setattr(np.linalg, "eigh", eigh)
        d = laplacian_decomposition(g, 2, through=3)
        assert ("eigh", L.shape) in calls
        assert all(name != "eigvalsh" for name, _ in calls)
        assert d.index is None and d.radii is None
        assert np.array_equal(d.values, full.values)
        assert np.array_equal(d.vectors, full.vectors)
        assert d.residual == full.residual
        assert select_eigenpair(d, 2).multiplicity_flag

    def test_step_cap_falls_back(self, monkeypatch):
        # the path's low eigenvalues lie about 1e-5 apart: Lanczos does not
        # converge within the cap, and the dense route gives its own bits
        g = gen_path(1200)
        L = laplacian(g)
        steps = []
        real = spectral._laplacian_matvec

        def matvec(deg, us, vs, x):
            steps.append(1)
            return real(deg, us, vs, x)

        monkeypatch.setattr(spectral, "_laplacian_matvec", matvec)
        d = laplacian_decomposition(g, 2, through=3)
        assert len(steps) == spectral.LANCZOS_MAX_STEPS
        dense = laplacian_decomposition(build_graph(g.n, g.edges), 2)
        assert d.radii is None and d.index == 2
        assert np.array_equal(d.values, dense.values)
        assert np.array_equal(d.vectors, dense.vectors)

    def test_through_ignored_without_room(self):
        g, _ = proof_graph("gnp", 600)
        L = laplacian(g)
        dense = laplacian_decomposition(build_graph(g.n, g.edges), 2)
        for through in (2, 1, g.n):  # K must satisfy k < K < n
            d = laplacian_decomposition(g, 2, through=through)
            assert d.radii is None and np.array_equal(d.vectors, dense.vectors)
        small = gen_random_regular(400, 4, 0)
        L_small = laplacian(small)
        d = laplacian_decomposition(small, 2, through=3)
        assert d.radii is None
        fresh = build_graph(small.n, small.edges)
        assert np.array_equal(d.vectors, laplacian_decomposition(fresh, 2).vectors)
        for M in (L, L_small):
            with pytest.raises(TypeError):
                eigendecompose(M, through=3)

    def test_eigendecompose_takes_no_edge_list(self):
        # the low end runs on the graph's own edges; an edge list handed in
        # beside a matrix could belong to another graph
        g = gen_path(4)
        with pytest.raises(TypeError):
            eigendecompose(laplacian(g), through=3, edges=g.edge_arrays())

    def test_order_is_not_value_count(self):
        g, _ = proof_graph("gnp", 600)
        d = laplacian_decomposition(g, 2, through=3)
        assert d.radii is not None
        assert d.n == 600 and len(d.values) == 3
        assert d.value(3) == float(d.values[2])
        with pytest.raises(IndexError):
            d.value(4)
        assert spectral_gap_c(d, 2) == (d.value(3) - d.value(2)) / 2.0
        with pytest.raises(IndexError):
            spectral_gap_c(d, 3)
        sel = select_eigenpair(d, 2)
        assert not sel.multiplicity_flag and sel.lambda_k == d.value(2)


def _bits(result) -> tuple:
    """Every number and array of a report, proof objects or decomposition,
    as strings and bytes, so that equal tuples mean equal bits."""
    if isinstance(result, spectral.SpectralDecomposition):
        arrays = (result.values, result.vectors, result.radii)
        return (
            result.residual.hex(), result.index, *(a.tobytes() for a in arrays if a is not None)
        )
    if isinstance(result, ProofObjects):
        arrays = (result.y, result.w, result.z, result.B, result.mu, result.C)
        cuts = [None if cut is None else (cut.numerator.hex(), cut.denominator.hex())
                for cut in result.cuts]
        return (*_bits(result.spectrum), cuts, *(a.tobytes() for a in arrays if a is not None))
    out = (json.dumps(result.as_dict(), sort_keys=True),)
    if isinstance(result, TheoremReport):
        out += (result.values.tobytes(),)
    return out


class TestOneSpectrumPerGraph:
    """A Graph keeps what its first solve computed: below INDEX_MIN_ORDER
    the full decomposition, from there on the eigvalsh values alone.  No
    result may tell a Graph that kept them from a fresh one."""

    @pytest.mark.parametrize(
        "make, ks, mode",
        [
            (lambda: next(sample_connected_graphs(7, 1, 0)), range(1, 7), "exact"),
            (lambda: gen_random_regular(100, 4, 0), range(2, 6), "heuristic"),
            # lambda_2 = lambda_3 and so on: every k takes the full route
            (lambda: gen_cycle(80), range(2, 6), "heuristic"),
            (lambda: proof_graph("gnp", 600)[0], KS, "heuristic"),
        ],
        ids=["order7", "regular100", "cycle80", "gnp600"],
    )
    def test_every_call_matches_a_fresh_graph(self, make, ks, mode):
        made = make()
        g = build_graph(made.n, made.edges)  # nothing kept yet
        calls = [lambda h, k=k: verify_theorem1(h, k, mode=mode) for k in ks]
        calls += [verify_corollary1, laplacian_decomposition]
        for k in ks:
            r = verify_theorem1(build_graph(g.n, g.edges), k, mode=mode)
            if r.a + r.b and not r.degenerate_gap_flag:
                calls.append(
                    lambda h, k=k, r=r: build_proof_objects(h, k, r.pos_classes, r.neg_classes)
                )
        random.Random(0).shuffle(calls)
        for call in calls:
            assert _bits(call(g)) == _bits(call(build_graph(g.n, g.edges)))

    def test_one_eigvalsh_per_graph_and_nothing_square_kept(self, monkeypatch):
        g = gen_random_regular(100, 4, 0)
        calls = []
        real_eigvalsh, real_eigh = np.linalg.eigvalsh, np.linalg.eigh

        def eigvalsh(A, *args, **kwargs):
            calls.append(("eigvalsh", np.shape(A)))
            return real_eigvalsh(A, *args, **kwargs)

        def eigh(A, *args, **kwargs):
            calls.append(("eigh", np.shape(A)))
            return real_eigh(A, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        monkeypatch.setattr(np.linalg, "eigh", eigh)
        for k in range(2, 6):
            verify_theorem1(g, k, mode="heuristic")
        assert [name for name, shape in calls if shape == (g.n, g.n)] == ["eigvalsh"]

        def arrays(x):
            if isinstance(x, np.ndarray):
                yield x
            elif isinstance(x, (tuple, list)):
                for item in x:
                    yield from arrays(item)

        kept = list(arrays(list(vars(g).values())))
        assert any(a.shape == (g.n,) for a in kept)
        assert all(a.ndim == 1 for a in kept)

    @pytest.mark.parametrize("n", [7, 100])
    def test_kept_arrays_cannot_be_written(self, n):
        g = gen_random_regular(n, 4, 0)
        report = verify_theorem1(g, 2, mode="heuristic")
        values = report.values.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            report.values[0] = 1.0
        for k in (None, 2):
            d = laplacian_decomposition(g, k)
            before = _bits(d)
            for a in (d.values, d.vectors):
                with pytest.raises(ValueError, match="read-only"):
                    a[0] = 1.0
                with pytest.raises(ValueError, match="read-only"):
                    a.flat[-1] *= 2.0
            assert _bits(laplacian_decomposition(g, k)) == before
        assert verify_theorem1(g, 2, mode="heuristic").values.tobytes() == values
