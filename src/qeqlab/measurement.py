"""Projective and generalized measurements: outcome populations,
eigenspace multiplicities, coarse-grained states, and distribution
distances.

A :class:`ProjectiveMeasurement` stores the measurement basis (one
orthonormal column per microstate) plus the grouping of basis columns
into outcomes; projectors are assembled on demand only, so large
measurements stay cheap. A :class:`Povm` stores its effects densely.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    DEFAULT_DEGENERACY_TOL,
    check_hermitian,
    cluster_indices,
    decompose_hermitian,
)
from .models import DensityMatrix, PureState

__all__ = [
    "Povm",
    "ProjectiveMeasurement",
    "clamp_populations",
    "coarse_grained_state",
    "population_distance",
    "populations",
    "pvm_from_observable",
]

# Round-off handling for populations: entries at least this negative are
# clamped to zero; a larger deficit means a real bug upstream.
_CLAMP_FLOOR = -1e-12
_NORM_TOL = 1e-10


@dataclass(frozen=True)
class ProjectiveMeasurement:
    """Projection-valued measurement built from an observable.

    Attributes
    ----------
    values : (r,) outcome values, descending.
    basis : (d, d) unitary whose columns are the measurement eigenbasis.
    outcome_slices : one slice of basis columns per outcome.
    """

    values: np.ndarray
    basis: np.ndarray
    outcome_slices: tuple[slice, ...]

    def __post_init__(self):
        self.values.setflags(write=False)
        self.basis.setflags(write=False)

    @property
    def r(self) -> int:
        return len(self.outcome_slices)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def multiplicities(self) -> np.ndarray:
        """Outcome eigenspace dimensions V_i = Tr[Pi_i]."""
        return np.array([sl.stop - sl.start for sl in self.outcome_slices])

    def projector(self, i: int) -> np.ndarray:
        vecs = self.basis[:, self.outcome_slices[i]]
        return vecs @ vecs.conj().T

    def projectors(self):
        for i in range(self.r):
            yield self.projector(i)

    def group_sums(self, per_level: np.ndarray) -> np.ndarray:
        """Sum an array over basis columns within each outcome (first axis)."""
        edges = [sl.start for sl in self.outcome_slices]
        return np.add.reduceat(per_level, edges, axis=0)


@dataclass(frozen=True)
class Povm:
    """Generalized measurement: positive effects summing to the identity."""

    effects: np.ndarray  # (r, d, d)
    values: np.ndarray = field(default=None)

    def __post_init__(self):
        effects = np.asarray(self.effects, dtype=complex)
        if effects.ndim != 3 or effects.shape[1] != effects.shape[2]:
            raise ValueError(f"effects must be (r, d, d), got {effects.shape}")
        dim = effects.shape[1]
        for eff in effects:
            check_hermitian(eff)
            lowest = float(np.linalg.eigvalsh(eff)[0])
            if lowest < -1e-10:
                raise ValueError(f"effect not positive semidefinite: min eigenvalue {lowest:.3e}")
        total = effects.sum(axis=0)
        if np.max(np.abs(total - np.eye(dim))) > _NORM_TOL:
            raise ValueError("effects do not sum to the identity")
        object.__setattr__(self, "effects", effects)
        effects.setflags(write=False)
        if self.values is not None:
            vals = np.asarray(self.values, dtype=float)
            if vals.shape != (effects.shape[0],):
                raise ValueError("values length must match the number of effects")
            object.__setattr__(self, "values", vals)
            vals.setflags(write=False)

    @property
    def r(self) -> int:
        return self.effects.shape[0]

    @property
    def dim(self) -> int:
        return self.effects.shape[1]

    @property
    def multiplicities(self) -> np.ndarray:
        """Generalized multiplicities V_i = Tr[E_i] (reals for a POVM)."""
        return np.einsum("ikk->i", self.effects).real


def pvm_from_observable(observable, degeneracy_tol: float = DEFAULT_DEGENERACY_TOL) -> ProjectiveMeasurement:
    """Build the projective measurement of a Hermitian observable.

    Degenerate eigenvalues are merged into a single outcome whose value
    is the cluster mean; outcomes are ordered by descending value so the
    serialization is deterministic.
    """
    arr = check_hermitian(observable)
    if _is_diagonal(arr):
        # Frequent fast path (e.g. z-magnetization): the eigenbasis is a
        # permutation of the computational basis, no dense solve needed.
        diag = arr.diagonal().real
        order = np.argsort(diag, kind="stable")
        eigenvalues = diag[order]
        basis = np.zeros_like(arr)
        basis[order, np.arange(arr.shape[0])] = 1.0
        spread = float(eigenvalues[-1] - eigenvalues[0]) if len(eigenvalues) else 0.0
        slices = cluster_indices(eigenvalues, degeneracy_tol * max(1.0, spread))
        values = np.array([eigenvalues[sl].mean() for sl in slices])
        decomp_values, decomp_basis, decomp_slices = values, basis, slices
    else:
        decomp = decompose_hermitian(arr, degeneracy_tol=degeneracy_tol)
        decomp_values = decomp.cluster_values
        decomp_basis = decomp.eigenvectors
        decomp_slices = decomp.cluster_slices

    # flip to descending outcome order
    dim = decomp_basis.shape[0]
    new_slices = []
    perm = np.empty(dim, dtype=int)
    pos = 0
    for sl in reversed(decomp_slices):
        width = sl.stop - sl.start
        perm[pos : pos + width] = np.arange(sl.start, sl.stop)
        new_slices.append(slice(pos, pos + width))
        pos += width
    return ProjectiveMeasurement(
        values=decomp_values[::-1].copy(),
        basis=decomp_basis[:, perm].copy(),
        outcome_slices=tuple(new_slices),
    )


def _is_diagonal(arr: np.ndarray) -> bool:
    return np.count_nonzero(arr - np.diag(arr.diagonal())) == 0


def clamp_populations(raw: np.ndarray) -> np.ndarray:
    """Clamp round-off negatives to zero and renormalize along the last
    axis: one distribution (r,) or one per row (times, r)."""
    raw = np.asarray(raw, dtype=float)
    if raw.min(initial=0.0) < _CLAMP_FLOOR:
        raise ValueError(f"population {raw.min():.3e} below round-off floor {_CLAMP_FLOOR:.0e}")
    clamped = np.clip(raw, 0.0, None)
    totals = clamped.sum(axis=-1, keepdims=True)
    off = np.abs(totals - 1.0)
    if off.max(initial=0.0) > _NORM_TOL:
        raise ValueError(f"populations sum to {totals.flat[np.argmax(off)]!r}, expected 1")
    return clamped / totals


def populations(measurement, state) -> np.ndarray:
    """Outcome probabilities ``p_i = Tr[Pi_i rho]`` (or ``Tr[E_i rho]``).

    Accepts a PureState or DensityMatrix; tiny negative entries from
    round-off are clamped and the vector renormalized.
    """
    if isinstance(measurement, ProjectiveMeasurement):
        if isinstance(state, PureState):
            _check_dims(measurement.dim, state.dim)
            coeffs = measurement.basis.conj().T @ state.amplitudes
            raw = measurement.group_sums(np.abs(coeffs) ** 2)
        else:
            rho = _state_matrix(state)
            _check_dims(measurement.dim, rho.shape[0])
            rotated = rho @ measurement.basis
            per_level = np.einsum("ij,ij->j", measurement.basis.conj(), rotated).real
            raw = measurement.group_sums(per_level)
    elif isinstance(measurement, Povm):
        if isinstance(state, PureState):
            _check_dims(measurement.dim, state.dim)
            psi = state.amplitudes
            raw = np.einsum("j,ijk,k->i", psi.conj(), measurement.effects, psi).real
        else:
            rho = _state_matrix(state)
            _check_dims(measurement.dim, rho.shape[0])
            raw = np.einsum("iab,ba->i", measurement.effects, rho).real
    else:
        raise TypeError(f"unsupported measurement type {type(measurement).__name__}")
    return clamp_populations(raw)


def _state_matrix(state) -> np.ndarray:
    if isinstance(state, DensityMatrix):
        return state.matrix
    return np.asarray(state, dtype=complex)


def _check_dims(expected: int, got: int):
    if expected != got:
        raise ValueError(f"dimension mismatch: measurement dim {expected}, state dim {got}")


def coarse_grained_state(measurement: ProjectiveMeasurement, state) -> DensityMatrix:
    """State after forgetting everything but the outcome statistics:
    ``sum_i p_i Pi_i / V_i``.

    Only defined for projective measurements; the uniform filling of each
    eigenspace has no POVM analogue.
    """
    if isinstance(measurement, Povm):
        raise TypeError("coarse graining is defined for projective measurements only")
    pops = populations(measurement, state)
    weights = np.empty(measurement.dim)
    for i, sl in enumerate(measurement.outcome_slices):
        weights[sl] = pops[i] / (sl.stop - sl.start)
    matrix = (measurement.basis * weights) @ measurement.basis.conj().T
    return DensityMatrix(matrix)


def population_distance(p, q) -> float:
    """Half the l1 distance ``(1/2) sum_i |p_i - q_i|``, in [0, 1]."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError(f"length mismatch: {p.shape} vs {q.shape}")
    return 0.5 * float(np.sum(np.abs(p - q)))
