"""Projective and generalized measurements: outcome populations,
eigenspace multiplicities, coarse-grained states, and distribution
distances.

A :class:`ProjectiveMeasurement` stores the measurement basis (one
orthonormal column per microstate, or none when the space's own basis
is the measurement basis) plus the grouping of basis columns into
outcomes; projectors are assembled on demand only, so large
measurements stay cheap. A :class:`Povm` stores the square-root factors
``F_i`` of its effects ``E_i = F_i^dag F_i``, so its effects are positive
by construction. Both offer ``in_basis`` and ``group_sums``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import decompose_hermitian
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
    outcome_slices : one slice of basis columns per outcome, contiguous
        from 0; the last stop is the dimension of the measured space.
    basis : (d, d) unitary whose columns are the measurement eigenbasis,
        or None when the basis the space is written in already is one.
    multiplicities : (r,) outcome eigenspace dimensions V_i in the full
        Hilbert space; the slice widths unless the measured space is a
        symmetry sector of a larger one.
    """

    values: np.ndarray
    outcome_slices: tuple[slice, ...]
    basis: np.ndarray | None = None
    multiplicities: np.ndarray | None = None

    def __post_init__(self):
        mult = self.multiplicities
        if mult is None:
            mult = [sl.stop - sl.start for sl in self.outcome_slices]
        mult = np.asarray(mult)
        if mult.shape != (self.r,):
            raise ValueError("multiplicities length must match the number of outcomes")
        values = np.asarray(self.values, dtype=float)
        basis = None if self.basis is None else np.asarray(self.basis)
        for name, arr in (("values", values), ("basis", basis), ("multiplicities", mult)):
            if arr is not None:
                object.__setattr__(self, name, arr)
                arr.setflags(write=False)

    @property
    def r(self) -> int:
        return len(self.outcome_slices)

    @property
    def dim(self) -> int:
        """Dimension of the measured space."""
        return self.outcome_slices[-1].stop

    def vectors(self, columns=slice(None)) -> np.ndarray:
        """Measurement-basis columns as a dense array."""
        return np.eye(self.dim)[:, columns] if self.basis is None else self.basis[:, columns]

    def in_basis(self, vectors: np.ndarray) -> np.ndarray:
        """``basis^dag @ vectors``: measurement-basis coefficients of
        measured-space vectors."""
        return vectors if self.basis is None else self.basis.conj().T @ vectors

    def projector(self, i: int) -> np.ndarray:
        vecs = self.vectors(self.outcome_slices[i])
        return vecs @ vecs.conj().T

    def projectors(self):
        for i in range(self.r):
            yield self.projector(i)

    def group_sums(self, per_level: np.ndarray) -> np.ndarray:
        """Sum an array over basis columns within each outcome (first axis).
        A (levels, times) block is summed one outcome slice at a time,
        which is faster there than ``reduceat``; a vector takes ``reduceat``."""
        if per_level.ndim == 1:
            return np.add.reduceat(per_level, [sl.start for sl in self.outcome_slices])
        return np.stack([per_level[sl].sum(axis=0) for sl in self.outcome_slices])


@dataclass(frozen=True)
class Povm:
    """Generalized measurement given by square-root factors.

    ``factors`` (r, k, d) stacks one k x d factor ``F_i`` per outcome. The
    effects ``E_i = F_i^dag F_i`` are positive by construction and must
    sum to the identity; ``<psi|E_i|psi>`` is the squared norm of the k
    rows ``F_i psi``.
    """

    factors: np.ndarray  # (r, k, d)
    values: np.ndarray = field(default=None)

    def __post_init__(self):
        factors = np.asarray(self.factors, dtype=complex)
        if factors.ndim != 3:
            raise ValueError(f"factors must be (r, k, d), got {factors.shape}")
        if not np.all(np.isfinite(factors)):
            raise ValueError("factors contain non-finite entries")
        rows = factors.reshape(-1, factors.shape[2])
        if np.max(np.abs(rows.conj().T @ rows - np.eye(factors.shape[2]))) > _NORM_TOL:
            raise ValueError("effects do not sum to the identity")
        object.__setattr__(self, "factors", factors)
        factors.setflags(write=False)
        if self.values is not None:
            vals = np.asarray(self.values, dtype=float)
            if vals.shape != (factors.shape[0],):
                raise ValueError("values length must match the number of effects")
            object.__setattr__(self, "values", vals)
            vals.setflags(write=False)

    @property
    def r(self) -> int:
        return self.factors.shape[0]

    @property
    def dim(self) -> int:
        return self.factors.shape[2]

    @property
    def effects(self) -> np.ndarray:
        """(r, d, d) effects ``F_i^dag F_i``."""
        return np.swapaxes(self.factors.conj(), 1, 2) @ self.factors

    @property
    def multiplicities(self) -> np.ndarray:
        """Generalized multiplicities V_i = Tr[E_i], the squared Frobenius
        norms of the factors."""
        return np.sum(np.abs(self.factors) ** 2, axis=(1, 2))

    def in_basis(self, vectors: np.ndarray) -> np.ndarray:
        """The r * k rows ``F_i @ vectors``, stacked, whose squared
        magnitudes :meth:`group_sums` adds up to outcome populations."""
        return self.factors.reshape(-1, self.dim) @ vectors

    def group_sums(self, per_row: np.ndarray) -> np.ndarray:
        """Sum an array over the k rows of each outcome (first axis)."""
        return per_row.reshape(self.factors.shape[:2] + per_row.shape[1:]).sum(axis=1)


def pvm_from_observable(observable) -> ProjectiveMeasurement:
    """Build the projective measurement of a Hermitian observable.

    Degenerate eigenvalues are merged into a single outcome whose value
    is the cluster mean; outcomes are ordered by descending value so the
    serialization is deterministic.
    """
    decomp = decompose_hermitian(observable)
    # flip to descending outcome order
    perm = np.empty(decomp.dim, dtype=int)
    new_slices = []
    pos = 0
    for sl in reversed(decomp.cluster_slices):
        width = sl.stop - sl.start
        perm[pos : pos + width] = np.arange(sl.start, sl.stop)
        new_slices.append(slice(pos, pos + width))
        pos += width
    return ProjectiveMeasurement(
        values=decomp.cluster_values[::-1].copy(),
        basis=decomp.eigenvectors[:, perm].copy(),
        outcome_slices=tuple(new_slices),
    )


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
            coeffs = measurement.in_basis(state.amplitudes)
            raw = measurement.group_sums(np.abs(coeffs) ** 2)
        else:
            rho = _state_matrix(state)
            _check_dims(measurement.dim, rho.shape[0])
            basis = measurement.vectors()
            rotated = rho @ basis
            per_level = np.einsum("ij,ij->j", basis.conj(), rotated).real
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
    basis = measurement.vectors()
    matrix = (basis * weights) @ basis.conj().T
    return DensityMatrix(matrix)


def population_distance(p, q) -> float:
    """Half the l1 distance ``(1/2) sum_i |p_i - q_i|``, in [0, 1]."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError(f"length mismatch: {p.shape} vs {q.shape}")
    return 0.5 * float(np.sum(np.abs(p - q)))
