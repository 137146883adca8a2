"""Dense symmetric eigendecomposition and eigenpair selection.

Two dense solves, both numpy only, both deterministic for a fixed input
matrix.  Without an eigen-index, `eigendecompose` returns every eigenpair
from LAPACK's divide-and-conquer path (numpy.linalg.eigh).  With an index k
and a matrix of order INDEX_MIN_ORDER or more, it returns every eigenvalue
(numpy.linalg.eigvalsh) but only the eigenvector y_k, by inverse iteration
from a shift just above lambda_k (Parlett, The Symmetric Eigenvalue
Problem, ch. 4): an LU solve or two in place of the eigenvector
accumulation and the residual product over all n pairs.  A repeated
lambda_k has no unique eigenvector, and callers see the basis eigh picks,
so a repeated lambda_k gets the full decomposition.  Memory is dense
either way: O(n^2) for the matrix and its factors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import default_zero_tau

SYMMETRY_RTOL = 1e-12
# lambda_k is repeated when a neighbour lies within
# MULTIPLICITY_RTOL * (1 + |lambda_k|) of it
MULTIPLICITY_RTOL = 1e-8
# below this order eigvalsh plus inverse iteration costs more than eigh in
# per-call overhead (measured break-even between n = 32 and 48), so an index
# is ignored
INDEX_MIN_ORDER = 64
# inverse iteration shifts lambda_k up by SHIFT_ULPS * eps * (1 + max|A|),
# doubling the shift when A - sigma I is exactly singular, at most
# SHIFT_TRIES times
SHIFT_ULPS = 8
SHIFT_TRIES = 4


class NotSymmetricError(ValueError):
    pass


@dataclass(frozen=True)
class SpectralDecomposition:
    """Ascending eigenvalues, orthonormal eigenvectors (columns), the worst
    residual ||A v - lambda v||_2 over the pairs computed, and the matrix A
    itself (not copied), so that a caller handed the decomposition of a
    Laplacian need not build the Laplacian again.

    `index` is None when `vectors` holds all n eigenvectors.  Otherwise
    `vectors` has the one column y_index, the eigenvector of the simple
    eigenvalue lambda_index, and `residual` is that pair's."""

    values: np.ndarray
    vectors: np.ndarray
    residual: float
    matrix: np.ndarray
    index: int | None = None

    @property
    def n(self) -> int:
        return len(self.values)

    def value(self, k: int) -> float:
        """Eigenvalue by 1-based index."""
        if not 1 <= k <= self.n:
            raise IndexError(f"eigenvalue index {k} outside [1,{self.n}]")
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


def eigendecompose(A: np.ndarray, k: int | None = None) -> SpectralDecomposition:
    """Eigendecomposition of a symmetric matrix: every eigenpair, or with a
    1-based index k every eigenvalue and the eigenvector y_k alone.

    With k, a simple lambda_k gets y_k by inverse iteration.  A repeated
    lambda_k (see `is_repeated`), one whose inverse iteration misses its
    residual bound, and a matrix of order below INDEX_MIN_ORDER get the
    full decomposition, the same bits as eigendecompose(A).

    Raises NotSymmetricError if A deviates from its transpose by more than
    SYMMETRY_RTOL relative to its largest entry.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    scale = 1.0 + float(np.max(np.abs(A))) if A.size else 1.0
    if A.size and float(np.max(np.abs(A - A.T))) > SYMMETRY_RTOL * scale:
        raise NotSymmetricError("matrix is not symmetric within tolerance")
    if k is not None and not 1 <= k <= len(A):
        raise IndexError(f"eigenpair index {k} outside [1,{len(A)}]")
    if k is not None and len(A) >= INDEX_MIN_ORDER:
        values = np.linalg.eigvalsh(A)
        if not is_repeated(values, k):
            pair = _inverse_iteration(A, float(values[k - 1]), scale)
            if pair is not None:
                y, resid = pair
                return SpectralDecomposition(
                    values=values, vectors=y[:, None], residual=resid, matrix=A, index=k
                )
    values, vectors = np.linalg.eigh(A)
    if A.size:
        resid = float(np.max(np.linalg.norm(A @ vectors - vectors * values, axis=0)))
    else:
        resid = 0.0
    return SpectralDecomposition(
        values=values, vectors=vectors, residual=resid, matrix=A
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


def canonical_sign(y: np.ndarray, tau: float | None = None) -> np.ndarray:
    """Flip y so its first coordinate with |y_i| > tau is positive."""
    y = np.asarray(y, dtype=float)
    if tau is None:
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


def select_eigenpair(
    d: SpectralDecomposition, k: int, tau: float | None = None
) -> EigenpairSelection:
    """Pick the k-th (1-based, ascending) eigenpair with canonical sign.

    multiplicity_flag is set when lambda_k is repeated (`is_repeated`).
    """
    if not 1 <= k <= d.n:
        raise IndexError(f"eigenpair index {k} outside [1,{d.n}]")
    y = canonical_sign(d.vector(k), tau)
    return EigenpairSelection(
        k=k, lambda_k=float(d.values[k - 1]), y=y, multiplicity_flag=is_repeated(d.values, k)
    )


def spectral_gap_c(d: SpectralDecomposition, k: int) -> float:
    """Half the gap between the (k+1)-th and k-th eigenvalues."""
    if not 1 <= k <= d.n - 1:
        raise IndexError(f"gap index {k} outside [1,{d.n - 1}]")
    return (float(d.values[k]) - float(d.values[k - 1])) / 2.0
