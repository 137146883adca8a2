"""Symmetric eigendecomposition and eigenpair selection.

Three solves, all numpy only, all deterministic for a fixed input matrix.
`eigendecompose` returns every eigenpair from LAPACK's divide-and-conquer
path (numpy.linalg.eigh).  The other two are reached only through
`laplacian_decomposition`, which decomposes a graph's Laplacian, builds it
itself and is the one place that picks a route.  Its callers are the
eigen-split of a (graph, k) (certificate.py), the heuristic search's
Fiedler vectors (expansion.py), which ask it for y_2, and the CLI's
`spectrum`.

The index route: for a 1-based index k and a graph of order
INDEX_MIN_ORDER or more, every eigenvalue (numpy.linalg.eigvalsh) but only
the eigenvector y_k, by inverse iteration from a shift just above lambda_k
(Parlett, The Symmetric Eigenvalue Problem, ch. 4): an LU solve or two in
place of the eigenvector accumulation and the residual product over all n
pairs.  A repeated lambda_k has no unique eigenvector, and callers see the
basis eigh picks, so a repeated lambda_k gets the full decomposition.

`laplacian_decomposition` keeps what the graph's first solve computed on
the Graph, so that every k and every check reads one spectrum.  Below
INDEX_MIN_ORDER the Graph keeps the full decomposition, which every call at
that order returns whatever k is.  From INDEX_MIN_ORDER on it keeps the
eigvalsh values only, O(n) memory: each k still tests whether lambda_k is
repeated and runs its own inverse iteration.  No decomposition holds its
matrix: L lives for the call that built it, and its scale max|L| is the
largest degree (`laplacian_scale`).  The kept arrays, and every array that
`laplacian_decomposition` returns, are read-only.

The low end: for a graph of order LOW_END_MIN_ORDER or more,
`laplacian_decomposition` can return only lambda_1..lambda_K and y_k.
Lanczos with full reorthogonalization (Parlett, ch. 13) runs on the graph's
own edge arrays at O(m) per step plus the reorthogonalization.  Its Ritz
values count only once they are certified: residual intervals that are
disjoint, and one floating-point Cholesky factorization that proves no
eigenvalue below them was missed (Rump, "Verification of positive
definiteness", BIT 46, 2006).  Anything uncertified falls back to the dense
solves.  Memory is dense on every path: O(n^2) for the matrix and its
factors, held for the call alone from INDEX_MIN_ORDER on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, default_zero_tau, laplacian, laplacian_scale

SYMMETRY_RTOL = 1e-12
# lambda_k is repeated when a neighbour lies within
# MULTIPLICITY_RTOL * (1 + |lambda_k|) of it
MULTIPLICITY_RTOL = 1e-8
# below this order eigvalsh plus inverse iteration costs more than eigh in
# per-call overhead (measured break-even between n = 32 and 48), so
# `laplacian_decomposition` ignores k there
INDEX_MIN_ORDER = 64
# inverse iteration shifts lambda_k up by SHIFT_ULPS * eps * (1 + max|A|),
# doubling the shift when A - sigma I is exactly singular, at most
# SHIFT_TRIES times
SHIFT_ULPS = 8
SHIFT_TRIES = 4
# below this order Lanczos plus the Cholesky certificate costs more than
# eigvalsh plus inverse iteration, so the low-end form is not tried
# (measured at k = 2..3, K = k + 1: 1.17 times the dense time on random
# 4-regular graphs at n = 500 and 0.94 times at n = 600; 0.57 times on
# connected G(n, 8/n) at n = 600)
LOW_END_MIN_ORDER = 600
# Lanczos gives up after this many steps; the cap bounds what an
# uncertifiable spectrum (eigenvalue gaps of order 1/n^2 on a path) costs
# on top of the dense solve it falls back to
LANCZOS_MAX_STEPS = 300


class NotSymmetricError(ValueError):
    pass


@dataclass(frozen=True)
class SpectralDecomposition:
    """Ascending eigenvalues, orthonormal eigenvectors (columns), the worst
    residual ||A v - lambda v||_2 over the pairs computed; not A itself.

    `n` is the order of A.  `values` holds all n eigenvalues, except from
    the low-end form, where it holds lambda_1..lambda_K only and `radii`
    their certified enclosures: exactly one eigenvalue of A, the i-th, lies
    within radii[i-1] of values[i-1].  `radii` is None otherwise.

    `index` is None when `vectors` holds all n eigenvectors.  Otherwise
    `vectors` has the one column y_index, the eigenvector of the simple
    eigenvalue lambda_index, and `residual` is that pair's."""

    values: np.ndarray
    vectors: np.ndarray
    residual: float
    index: int | None = None
    radii: np.ndarray | None = None

    @property
    def n(self) -> int:
        return len(self.vectors)

    def value(self, k: int) -> float:
        """Eigenvalue by 1-based index."""
        if not 1 <= k <= len(self.values):
            raise IndexError(f"eigenvalue index {k} outside [1,{len(self.values)}]")
        return float(self.values[k - 1])

    def vector(self, k: int) -> np.ndarray:
        """Eigenvector by 1-based index."""
        if not 1 <= k <= self.n:
            raise IndexError(f"eigenvector index {k} outside [1,{self.n}]")
        if self.index is None:
            return self.vectors[:, k - 1]
        if k != self.index:
            raise ValueError(
                f"decomposition holds eigenvector {self.index} only, not {k}"
            )
        return self.vectors[:, 0]


@dataclass(frozen=True)
class EigenpairSelection:
    k: int
    lambda_k: float
    y: np.ndarray
    multiplicity_flag: bool


def eigendecompose(A: np.ndarray) -> SpectralDecomposition:
    """Every eigenpair of a symmetric matrix, from numpy.linalg.eigh.

    Raises NotSymmetricError if A deviates from its transpose by more than
    SYMMETRY_RTOL relative to its largest entry.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    # exact symmetry, the usual case, needs no n x n difference
    if A.size and not np.array_equal(A, A.T):
        scale = 1.0 + float(np.max(np.abs(A)))
        if float(np.max(np.abs(A - A.T))) > SYMMETRY_RTOL * scale:  # NaN passes
            raise NotSymmetricError("matrix is not symmetric within tolerance")
    values, vectors = np.linalg.eigh(A)
    resid = float(np.max(np.linalg.norm(A @ vectors - vectors * values, axis=0), initial=0.0))
    return SpectralDecomposition(values=values, vectors=vectors, residual=resid)


def laplacian_decomposition(
    g: Graph, k: int | None = None, *, through: int | None = None
) -> SpectralDecomposition:
    """The decomposition of laplacian(g), with every array read-only: with
    k at order INDEX_MIN_ORDER or more the index route, every eigenvalue
    and y_k alone, or its low-end form; otherwise eigendecompose(L).  A
    repeated lambda_k (see `is_repeated`) and one whose inverse iteration
    misses its residual bound get eigendecompose(L), with the same bits.

    g keeps what its first solve computed (`_kept`), and later calls on g
    reuse it with the same bits: below INDEX_MIN_ORDER the full
    decomposition, every call's result at that order, and from there on
    only the eigvalsh values, O(n), so a second k pays its inverse
    iteration alone.  The full route and the low-end form are computed
    afresh at that order, each with its own values.

    The low-end form: with k < through < n and n >= LOW_END_MIN_ORDER, it
    returns lambda_1..lambda_through and y_k from certified Lanczos pairs
    on g's edge arrays (`_low_end`).  When the Ritz values show lambda_k
    repeated, the full decomposition follows at once; any other result that
    cannot be certified falls back to the index route, the bits a call
    without `through` gives."""
    if k is not None and not 1 <= k <= g.n:
        raise IndexError(f"eigenpair index {k} outside [1,{g.n}]")
    if g.n < INDEX_MIN_ORDER:
        return _kept(g, lambda: _read_only(eigendecompose(laplacian(g))))
    L = laplacian(g)
    d = None
    if k is not None:
        if through is not None and k < through < g.n and g.n >= LOW_END_MIN_ORDER:
            d = _low_end(g, L, k, through)
        if d is None:
            values = _kept(g, lambda: _read_only(np.linalg.eigvalsh(L)))
            d = _index_route(L, k, values, 1.0 + laplacian_scale(g))
    return _read_only(eigendecompose(L) if d is None else d)


def _kept(g: Graph, solve):
    """What solve() returns, computed on g's first call and kept on g, in
    its instance __dict__, which the frozen dataclass allows and its eq and
    hash ignore (as for Graph._edge_arrays).  A Graph's order never
    changes, so it only ever keeps one kind of result."""
    kept = vars(g)
    if "_spectrum" not in kept:
        kept["_spectrum"] = solve()
    return kept["_spectrum"]


def _read_only(x):
    """x, an array or a decomposition, with its arrays made read-only."""
    if isinstance(x, SpectralDecomposition):
        for a in (x.values, x.vectors, x.radii):
            if a is not None:
                a.flags.writeable = False
    else:
        x.flags.writeable = False
    return x


def _index_route(
    A: np.ndarray, k: int, values: np.ndarray, scale: float
) -> SpectralDecomposition | None:
    """The index route from A's eigvalsh `values` and scale 1 + max|A|:
    every eigenvalue and y_k by inverse iteration; None when
    lambda_k is repeated or its inverse iteration misses the residual
    bound, and the full decomposition must follow."""
    if is_repeated(values, k):
        return None
    pair = _inverse_iteration(A, float(values[k - 1]), scale)
    if pair is None:
        return None
    y, resid = pair
    return SpectralDecomposition(
        values=values, vectors=y[:, None], residual=resid, index=k
    )


def _inverse_iteration(
    A: np.ndarray, lam: float, scale: float
) -> tuple[np.ndarray, float] | None:
    """The unit eigenvector of A for its simple eigenvalue lam, with its
    residual ||A y - lam y||_2; None if no shift reaches the residual bound.

    Each solve with A - sigma I, sigma = lam + shift, multiplies the start
    vector's component along y by 1/shift and every other by at most
    1/gap; what remains is a residual of about shift / |<start, y>| plus
    a rounding floor of a few eps (1 + max|A|).  The start is a fixed
    random vector, so y is deterministic.  The bound is
    2 n eps (1 + max|A|): eigh's own residuals reach 1.2 n eps (1 + max|A|)
    on 5-node graphs, and a tighter bound would refuse vectors as good as
    eigh's.  A second solve, from the first one's vector, runs only when
    the first misses the bound.  An exactly singular A - sigma I is
    shifted again, twice as far."""
    n = len(A)
    eps = np.finfo(float).eps
    bound = 2 * n * eps * scale
    start = np.random.default_rng(0).standard_normal(n)
    start /= np.linalg.norm(start)
    shift = SHIFT_ULPS * eps * scale
    for _ in range(SHIFT_TRIES):
        M = A.copy()
        M.flat[:: n + 1] -= lam + shift
        y = start
        try:
            for _ in range(2):
                y = np.linalg.solve(M, y)
                y /= np.linalg.norm(y)
                resid = float(np.linalg.norm(A @ y - lam * y))
                if resid <= bound:
                    return y, resid
            return None
        except np.linalg.LinAlgError:
            shift *= 2.0
    return None


def _gamma(m: int) -> float:
    """Higham's gamma_m = m u / (1 - m u), u the unit roundoff: the
    relative error bound of m rounded operations in sequence; a sum of
    m + 1 nonnegative floats, in any order, is within gamma_m of its exact
    value."""
    mu = m * np.finfo(float).eps / 2
    return mu / (1.0 - mu)


def _low_end(g: Graph, L: np.ndarray, k: int, through: int) -> SpectralDecomposition | None:
    """lambda_1..lambda_K (K = through) and y_k of L = laplacian(g),
    certified; the full decomposition eigendecompose(L) when the Ritz
    values show lambda_k repeated; None when nothing is certified.

    Lanczos gives K + 1 Ritz pairs (theta_i, v_i) with unit v_i.  From the
    computed residual rho_i and Higham's bounds on its rounding, r_i bounds
    ||L v_i - theta_i v_i|| / ||v_i||, so some eigenvalue lies in
    [theta_i - r_i, theta_i + r_i] (Weyl, or Krylov-Weinstein).  These
    intervals must be disjoint, with tau between the K-th and the
    (K+1)-th.  Then one Cholesky factorization, shifted down by a proven
    bound on the rounding of forming and factoring the matrix (Rump, BIT
    46, 2006), proves L - tau I + V_K diag(tau - theta_i + delta) V_K^T
    positive definite.  That is L - tau I plus a positive semidefinite
    matrix of rank K, so L has at most K eigenvalues below tau, hence
    exactly one in each of the first K intervals.  y_k must also meet the
    inverse-iteration residual bound 2 n eps (1 + max|L|)."""
    n = len(L)
    us, vs = g.edge_arrays()
    deg = g.degrees()
    dmax = laplacian_scale(g)
    bound = 2 * n * np.finfo(float).eps * (1.0 + dmax)
    ritz = _lanczos(deg, us, vs, through + 1, k, bound)
    if ritz is None:
        return None
    theta, V = ritz
    if is_repeated(theta, k):
        return eigendecompose(L)
    V = V / np.linalg.norm(V, axis=0)
    nu = np.linalg.norm(V, axis=0)
    R = np.column_stack([_laplacian_matvec(deg, us, vs, v) for v in V.T]) - V * theta
    rho = np.linalg.norm(R, axis=0)
    if rho[k - 1] > bound:
        return None
    # the matvec and the subtraction of theta v round at most dmax + 4 times
    # per entry, on terms summing to at most (2 dmax + |theta|) |v|; the
    # norms round at most n + 2 times; (1 + 4u) covers this line's own
    g = _gamma(n + 2)
    r = (
        (rho + _gamma(int(dmax) + 4) * (2 * dmax + np.abs(theta)) * nu)
        * (1 + g) / (nu * (1 - g)) * (1 + _gamma(4))
    )
    lo, hi = theta - r, theta + r
    if np.any(hi[:-1] >= lo[1:]):
        return None
    K = through
    tau = (hi[K - 1] + lo[K]) / 2
    s = tau - theta[:K] + (lo[K] - tau)
    P = (V[:, :K] * s) @ V[:, :K].T
    P += L
    diag = P.diagonal()
    top = float(np.max(diag))
    # rounding of forming P (scaling, a K-term product, the sum with L) and
    # of subtracting the shift: gamma_{K+4} on the norms of the terms
    form = _gamma(K + 4) * (float(s @ nu[:K] ** 2) + 2 * dmax + top)
    # Cholesky's backward error |dP| <= gamma_{n+1} |R^T| |R|, whose norm
    # is at most gamma_{n+1} / (1 - gamma_{n+1}) trace(P)
    g = _gamma(n + 1)
    factor = g / (1 - g) * float(np.sum(diag)) * (1 + _gamma(n))
    under = 4 * n * (n + K + top) * np.finfo(float).smallest_subnormal
    shift = 2 * (form + factor + abs(tau) * np.finfo(float).eps + under)
    P.flat[:: n + 1] -= tau + shift
    try:
        np.linalg.cholesky(P)
    except np.linalg.LinAlgError:
        return None
    return SpectralDecomposition(
        values=theta[:K],
        vectors=V[:, k - 1 : k].copy(),
        residual=float(rho[k - 1]),
        index=k,
        radii=r[:K],
    )


def _laplacian_matvec(
    deg: np.ndarray, us: np.ndarray, vs: np.ndarray, x: np.ndarray
) -> np.ndarray:
    """L x for the Laplacian with degrees `deg` and edges (us[i], vs[i])."""
    n = len(deg)
    return deg * x - np.bincount(us, x[vs], n) - np.bincount(vs, x[us], n)


def _lanczos(
    deg: np.ndarray, us: np.ndarray, vs: np.ndarray, count: int, k: int, bound: float
) -> tuple[np.ndarray, np.ndarray] | None:
    """The `count` lowest Ritz values of the Laplacian (degrees `deg`,
    edges us, vs) and their Ritz vectors as columns, from Lanczos with full
    reorthogonalization (the three-term recurrence, then one classical
    Gram-Schmidt pass against every earlier vector) from the fixed start
    default_rng(0); None after LANCZOS_MAX_STEPS steps or when the Krylov
    space closes first.

    Done when the residual estimate r_i = beta_j |s_ji| of every pair is
    small enough: at most bound / 2 for the k-th, so that y_k can meet the
    bound; at most sqrt(bound gap_i) / 2 for the others below the last, gap_i
    the distance to the nearest Ritz value, so that r_i^2 / gap_i puts
    theta_i within bound / 4 of its eigenvalue; and at most an eighth of
    its gap to the one below for the last, which only separates the others
    from the rest of the spectrum.  The estimates are read from a full
    eigendecomposition of the tridiagonal T_j every 10 steps, or every j/4
    steps once j passes 40: at j = 200 one such check costs as much as
    several dozen Lanczos steps.  Nothing here is trusted: `_low_end`
    certifies what it returns."""
    n = len(deg)
    steps = min(LANCZOS_MAX_STEPS, n)
    q = np.random.default_rng(0).standard_normal(n)
    q /= np.linalg.norm(q)
    Q = np.empty((steps, n))
    alpha = np.empty(steps)
    beta = np.empty(steps)
    check = 2 * count
    for j in range(steps):
        Q[j] = q
        w = _laplacian_matvec(deg, us, vs, q)
        if j:
            w -= beta[j - 1] * Q[j - 1]
        alpha[j] = q @ w
        w -= alpha[j] * q
        basis = Q[: j + 1]
        h = basis @ w
        w -= h @ basis
        alpha[j] += h[j]
        beta[j] = np.linalg.norm(w)
        closed = beta[j] <= bound
        if j + 1 >= count and (closed or j + 1 == check or j + 1 == steps):
            T = np.diag(alpha[: j + 1]) + np.diag(beta[:j], 1) + np.diag(beta[:j], -1)
            theta, S = np.linalg.eigh(T)
            est = beta[j] * np.abs(S[-1, :count])
            gaps = np.diff(theta[:count])
            near = np.minimum(gaps, np.append(np.inf, gaps[:-1]))
            target = np.append(np.sqrt(bound * near) / 2, gaps[-1] / 8)
            target[k - 1] = bound / 2
            if np.all(est <= target):
                return theta[:count], basis.T @ S[:, :count]
        if closed:
            return None
        if j + 1 >= check:
            check = j + 1 + max(10, (j + 1) // 4)
        q = w / beta[j]
    return None


def canonical_sign(y: np.ndarray) -> np.ndarray:
    """Flip y so its first coordinate outside the zero band
    (|y_i| > default_zero_tau(y)) is positive."""
    y = np.asarray(y, dtype=float)
    tau = default_zero_tau(y)
    for yi in y:
        if abs(yi) > tau:
            return -y if yi < 0 else y
    return y


def is_repeated(values: np.ndarray, k: int) -> bool:
    """Whether the k-th (1-based) of the ascending `values` lies within the
    multiplicity tolerance MULTIPLICITY_RTOL * (1 + |lambda_k|) of a
    neighbour."""
    lam = float(values[k - 1])
    gap = np.inf
    if k > 1:
        gap = min(gap, lam - float(values[k - 2]))
    if k < len(values):
        gap = min(gap, float(values[k]) - lam)
    return gap < MULTIPLICITY_RTOL * (1.0 + abs(lam))


def select_eigenpair(d: SpectralDecomposition, k: int) -> EigenpairSelection:
    """Pick the k-th (1-based, ascending) eigenpair with canonical sign.

    multiplicity_flag is set when lambda_k is repeated (`is_repeated`).
    """
    if not 1 <= k <= d.n:
        raise IndexError(f"eigenpair index {k} outside [1,{d.n}]")
    y = canonical_sign(d.vector(k))
    return EigenpairSelection(
        k=k, lambda_k=d.value(k), y=y, multiplicity_flag=is_repeated(d.values, k)
    )


def spectral_gap_c(d: SpectralDecomposition, k: int) -> float:
    """Half the gap between the (k+1)-th and k-th eigenvalues."""
    if not 1 <= k <= d.n - 1:
        raise IndexError(f"gap index {k} outside [1,{d.n - 1}]")
    return (d.value(k + 1) - d.value(k)) / 2.0
