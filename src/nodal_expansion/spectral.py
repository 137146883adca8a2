"""Dense symmetric eigendecomposition and eigenpair selection.

Desk-scale (n up to a few hundred) dense solves only; eigenvalues come back
ascending with orthonormal eigenvectors, backed by LAPACK's Householder
tridiagonalization path (numpy.linalg.eigh), which is deterministic for a
fixed input matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import default_zero_tau

SYMMETRY_RTOL = 1e-12


class NotSymmetricError(ValueError):
    pass


@dataclass(frozen=True)
class SpectralDecomposition:
    """Ascending eigenvalues, orthonormal eigenvectors (columns), the
    worst per-pair residual ||A v - lambda v||_2, and the matrix A itself
    (not copied), so that a caller handed the decomposition of a Laplacian
    need not build the Laplacian again."""

    values: np.ndarray
    vectors: np.ndarray
    residual: float
    matrix: np.ndarray

    @property
    def n(self) -> int:
        return len(self.values)

    def value(self, k: int) -> float:
        """Eigenvalue by 1-based index."""
        if not 1 <= k <= self.n:
            raise IndexError(f"eigenvalue index {k} outside [1,{self.n}]")
        return float(self.values[k - 1])


@dataclass(frozen=True)
class EigenpairSelection:
    k: int
    lambda_k: float
    y: np.ndarray
    multiplicity_flag: bool


def eigendecompose(A: np.ndarray) -> SpectralDecomposition:
    """Full eigendecomposition of a symmetric matrix.

    Raises NotSymmetricError if A deviates from its transpose by more than
    SYMMETRY_RTOL relative to its largest entry.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    scale = 1.0 + float(np.max(np.abs(A))) if A.size else 1.0
    if A.size and float(np.max(np.abs(A - A.T))) > SYMMETRY_RTOL * scale:
        raise NotSymmetricError("matrix is not symmetric within tolerance")
    values, vectors = np.linalg.eigh(A)
    if A.size:
        resid = float(np.max(np.linalg.norm(A @ vectors - vectors * values, axis=0)))
    else:
        resid = 0.0
    return SpectralDecomposition(
        values=values, vectors=vectors, residual=resid, matrix=A
    )


def canonical_sign(y: np.ndarray, tau: float | None = None) -> np.ndarray:
    """Flip y so its first coordinate with |y_i| > tau is positive."""
    y = np.asarray(y, dtype=float)
    if tau is None:
        tau = default_zero_tau(y)
    for yi in y:
        if abs(yi) > tau:
            return -y if yi < 0 else y
    return y


def select_eigenpair(
    d: SpectralDecomposition, k: int, tau: float | None = None
) -> EigenpairSelection:
    """Pick the k-th (1-based, ascending) eigenpair with canonical sign.

    multiplicity_flag is set when lambda_k sits within the degeneracy
    tolerance 1e-8*(1+|lambda_k|) of a neighboring eigenvalue.
    """
    if not 1 <= k <= d.n:
        raise IndexError(f"eigenpair index {k} outside [1,{d.n}]")
    lam = float(d.values[k - 1])
    gap = np.inf
    if k > 1:
        gap = min(gap, lam - float(d.values[k - 2]))
    if k < d.n:
        gap = min(gap, float(d.values[k]) - lam)
    degenerate = gap < 1e-8 * (1.0 + abs(lam))
    y = canonical_sign(d.vectors[:, k - 1], tau)
    return EigenpairSelection(k=k, lambda_k=lam, y=y, multiplicity_flag=degenerate)


def spectral_gap_c(d: SpectralDecomposition, k: int) -> float:
    """Half the gap between the (k+1)-th and k-th eigenvalues."""
    if not 1 <= k <= d.n - 1:
        raise IndexError(f"gap index {k} outside [1,{d.n - 1}]")
    return (float(d.values[k]) - float(d.values[k - 1])) / 2.0
