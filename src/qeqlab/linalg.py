"""Dense Hermitian linear algebra: eigendecomposition with degeneracy
grouping, eigenspace projectors, and the matrix norms used by the
inequality checks.

Matrices are plain ``numpy`` arrays in their natural dtype: a real
(float64) input stays real, so a real symmetric matrix gets a real
eigensolve and real orthogonal eigenvectors, and anything complex is
handled as complex128. Everything here is dense by design -- the target
dimensions (up to 2**13) make iterative or sparse solvers pointless once
density-matrix dynamics enters the game.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DEFAULT_DEGENERACY_TOL",
    "DEFAULT_HERM_TOL",
    "NonHermitianError",
    "SpectralDecomposition",
    "decompose_hermitian",
    "frobenius_norm",
    "operator_norm",
    "trace_norm",
]

# Hermiticity tolerance, relative to the largest matrix entry.
DEFAULT_HERM_TOL = 1e-10
# Two eigenvalues join a cluster when their gap is at most
# DEFAULT_DEGENERACY_TOL * max(1, spectral range); relative so that
# rescaling the Hamiltonian does not change the grouping.
DEFAULT_DEGENERACY_TOL = 1e-10


class NonHermitianError(ValueError):
    """Raised when an operator expected to be Hermitian is not."""


def _as_square_array(matrix) -> np.ndarray:
    """Square float64 array for real input, complex128 otherwise."""
    arr = np.asarray(matrix)
    arr = arr.astype(complex if np.iscomplexobj(arr) else float, copy=False)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix contains non-finite entries")
    return arr


def check_hermitian(matrix) -> np.ndarray:
    """Validate Hermiticity and return the matrix as an array (float64
    for real input, complex128 otherwise).

    Raises :class:`NonHermitianError` reporting the maximal asymmetry
    ``max|M - M^dag|`` when the check fails.
    """
    arr = _as_square_array(matrix)
    asym = np.max(np.abs(arr - arr.conj().T)) if arr.size else 0.0
    scale = max(1.0, float(np.max(np.abs(arr))) if arr.size else 0.0)
    if asym > DEFAULT_HERM_TOL * scale:
        raise NonHermitianError(
            f"matrix is not Hermitian: max asymmetry {asym:.3e} "
            f"(tolerance {DEFAULT_HERM_TOL * scale:.3e})"
        )
    return arr


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigendecomposition of a Hermitian operator with degenerate
    eigenvalues grouped into clusters.

    Attributes
    ----------
    eigenvalues : (d,) ascending eigenvalues as returned by the solver.
    eigenvectors : (d, d) unitary; column k belongs to ``eigenvalues[k]``.
        Real orthogonal (float64) when the decomposed matrix was real.
    cluster_slices : one ``slice`` per degenerate cluster, indexing into
        the eigenvalue/eigenvector arrays.
    cluster_values : (m,) representative eigenvalue (cluster mean) per
        cluster, ascending.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    cluster_slices: tuple[slice, ...]
    cluster_values: np.ndarray
    # cluster mean broadcast back to all d levels; used by the dynamics so
    # that degenerate levels carry exactly equal phases.
    level_values: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        if self.level_values is None:
            level_values = np.repeat(self.cluster_values, self.multiplicities)
            object.__setattr__(self, "level_values", level_values)
        for name in ("eigenvalues", "eigenvectors", "cluster_values", "level_values"):
            getattr(self, name).setflags(write=False)

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def distinct_count(self) -> int:
        """Number of distinct eigenvalues after degeneracy grouping."""
        return len(self.cluster_slices)

    @property
    def multiplicities(self) -> np.ndarray:
        return np.array([sl.stop - sl.start for sl in self.cluster_slices])

    @property
    def spectral_range(self) -> float:
        return float(self.eigenvalues[-1] - self.eigenvalues[0])

    def projector(self, k: int) -> np.ndarray:
        """Orthogonal projector onto cluster ``k`` (built on demand;
        projectors are never stored to keep large decompositions cheap)."""
        vecs = self.eigenvectors[:, self.cluster_slices[k]]
        return vecs @ vecs.conj().T

    def projectors(self):
        """Iterate over all cluster projectors."""
        for k in range(self.distinct_count):
            yield self.projector(k)

    def to_eigenbasis(self, matrix: np.ndarray) -> np.ndarray:
        """Return ``U^dag M U``."""
        return self.eigenvectors.conj().T @ matrix @ self.eigenvectors

    def from_eigenbasis(self, matrix: np.ndarray) -> np.ndarray:
        """Return ``U M U^dag``."""
        return self.eigenvectors @ matrix @ self.eigenvectors.conj().T

    def reconstruct(self) -> np.ndarray:
        """Rebuild the operator from clustered eigenvalues and eigenvectors."""
        return (self.eigenvectors * self.level_values) @ self.eigenvectors.conj().T


def cluster_indices(values: np.ndarray, tol: float) -> tuple[slice, ...]:
    """Group ascending values into clusters of consecutive gaps <= tol."""
    n = len(values)
    if n == 0:
        return ()
    breaks = np.nonzero(np.diff(values) > tol)[0]
    edges = np.concatenate(([0], breaks + 1, [n]))
    return tuple(slice(int(a), int(b)) for a, b in zip(edges[:-1], edges[1:]))


def decompose_hermitian(matrix) -> SpectralDecomposition:
    """Eigendecompose a Hermitian matrix and group degenerate eigenvalues.

    Two consecutive eigenvalues share a cluster when their gap is at most
    ``DEFAULT_DEGENERACY_TOL * max(1, spectral range)``; a cluster's value
    is the mean of its eigenvalues.

    Returns
    -------
    SpectralDecomposition with ascending eigenvalues and orthonormal
    eigenvectors, real for a real symmetric input. Deterministic for a
    fixed input.
    """
    arr = check_hermitian(matrix)
    try:
        eigenvalues, eigenvectors = np.linalg.eigh(arr)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise RuntimeError(f"eigensolver failed to converge: {exc}") from exc
    spread = float(eigenvalues[-1] - eigenvalues[0]) if len(eigenvalues) else 0.0
    slices = cluster_indices(eigenvalues, DEFAULT_DEGENERACY_TOL * max(1.0, spread))
    starts = [sl.start for sl in slices]
    widths = np.array([sl.stop - sl.start for sl in slices])
    return SpectralDecomposition(
        eigenvalues=eigenvalues,
        eigenvectors=eigenvectors,
        cluster_slices=slices,
        cluster_values=np.add.reduceat(eigenvalues, starts) / widths,
    )


def trace_norm(matrix) -> float:
    """Trace norm ``Tr sqrt(M^dag M)`` = sum of singular values."""
    arr = _as_square_array(matrix)
    return float(np.sum(np.linalg.svd(arr, compute_uv=False)))


def frobenius_norm(matrix) -> float:
    """Frobenius norm ``sqrt(Tr[M^dag M])``."""
    arr = _as_square_array(matrix)
    return float(np.linalg.norm(arr))


def operator_norm(matrix) -> float:
    """Largest singular value."""
    arr = _as_square_array(matrix)
    return float(np.linalg.norm(arr, 2))
