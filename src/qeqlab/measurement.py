"""Projective and generalized measurements: outcome populations,
eigenspace multiplicities, coarse-grained states, and distribution
distances.

A :class:`Measurement` is a set of measurement vectors grouped into
outcomes: outcome i has the effect ``E_i = sum_{j in i} |b_j><b_j|``,
so ``p_i = sum_{j in i} |<b_j|psi>|^2``. For a projective measurement
(:func:`pvm_from_observable`) the vectors are an orthonormal eigenbasis,
or none when the space's own basis is the measurement basis; for a POVM
(:func:`povm_from_factors`) they are the conjugated rows of the
square-root factors ``F_i`` of ``E_i = F_i^dag F_i``. No projector or
effect is stored, so large measurements stay cheap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import decompose_hermitian
from .models import DensityMatrix, PureState

__all__ = [
    "Measurement",
    "clamp_populations",
    "coarse_grained_state",
    "population_distance",
    "populations",
    "povm_from_factors",
    "pvm_from_observable",
]

# Round-off handling for populations: entries at least this negative are
# clamped to zero; a larger deficit means a real bug upstream.
_CLAMP_FLOOR = -1e-12
_NORM_TOL = 1e-10


@dataclass(frozen=True)
class Measurement:
    """Measurement vectors grouped into outcomes.

    Attributes
    ----------
    outcome_slices : one slice of measurement vectors per outcome,
        contiguous from 0; the last stop is the number of vectors.
    basis : (d, n) array whose n columns are the measurement vectors: a
        unitary eigenbasis for a projective measurement, the conjugated
        factor rows for a POVM; None when the basis the space is written
        in is the measurement basis.
    values : (r,) outcome values, descending, or None (a POVM carries
        none, so it has no expectation bound).
    multiplicities : (r,) outcome weights V_i = Tr E_i in the full Hilbert
        space; the slice widths unless the measured space is a symmetry
        sector of a larger one, or the measurement is a POVM.
    """

    outcome_slices: tuple[slice, ...]
    basis: np.ndarray | None = None
    values: np.ndarray | None = None
    multiplicities: np.ndarray | None = None

    def __post_init__(self):
        mult = self.multiplicities
        if mult is None:
            mult = [sl.stop - sl.start for sl in self.outcome_slices]
        mult = np.asarray(mult)
        if mult.shape != (self.r,):
            raise ValueError("multiplicities length must match the number of outcomes")
        values = None if self.values is None else np.asarray(self.values, dtype=float)
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
        return self.outcome_slices[-1].stop if self.basis is None else self.basis.shape[0]

    @property
    def projective(self) -> bool:
        """Whether the vectors are an orthonormal basis (d complete vectors
        in d dimensions are one), so each effect projects onto its own;
        redundant vectors read False even if their effects are projectors."""
        return self.basis is None or self.basis.shape[0] == self.basis.shape[1]

    @property
    def effects(self) -> np.ndarray:
        """(r, d, d) effects ``E_i``: projectors for a projective measurement."""
        vectors = self.vectors()
        return np.stack([vectors[:, sl] @ vectors[:, sl].conj().T for sl in self.outcome_slices])

    def vectors(self) -> np.ndarray:
        """Measurement vectors as dense columns, so ``<b|rho|b>`` per
        column adds up to ``Tr[E_i rho]``."""
        return np.eye(self.dim) if self.basis is None else self.basis

    def in_basis(self, vectors: np.ndarray) -> np.ndarray:
        """``basis^dag @ vectors``: the coefficients ``<b_j|v>``, whose
        squared magnitudes :meth:`group_sums` adds up to populations."""
        return vectors if self.basis is None else self.basis.conj().T @ vectors

    def outcome_sums(self, per_vector: np.ndarray) -> np.ndarray:
        """Sum per-vector values over the measurement vectors of each
        outcome along the last axis: a vector, or a stack of vectors."""
        return np.add.reduceat(per_vector, [sl.start for sl in self.outcome_slices], axis=-1)

    def group_sums(self, per_vector: np.ndarray) -> np.ndarray:
        """Sum an array over the measurement vectors of each outcome: a
        vector, or the second-to-last axis of a (..., vectors, times)
        block. A block is summed one outcome slice at a time, which is
        faster there than ``reduceat``; a vector takes ``reduceat``."""
        if per_vector.ndim == 1:
            return self.outcome_sums(per_vector)
        return np.stack([per_vector[..., sl, :].sum(axis=-2) for sl in self.outcome_slices], axis=-2)


def pvm_from_observable(observable) -> Measurement:
    """Build the projective measurement of a Hermitian observable.

    Degenerate eigenvalues are merged into a single outcome whose value
    is the cluster mean; outcomes are ordered by descending value so the
    serialization is deterministic.
    """
    return _pvm_from_decomposition(decompose_hermitian(observable))


def _pvm_from_decomposition(decomp) -> Measurement:
    """:func:`pvm_from_observable` of the observable's decomposition."""
    # flip to descending outcome order
    perm = np.empty(decomp.dim, dtype=int)
    new_slices = []
    pos = 0
    for sl in reversed(decomp.cluster_slices):
        width = sl.stop - sl.start
        perm[pos : pos + width] = np.arange(sl.start, sl.stop)
        new_slices.append(slice(pos, pos + width))
        pos += width
    return Measurement(
        values=decomp.cluster_values[::-1].copy(),
        basis=decomp.eigenvectors[:, perm].copy(),
        outcome_slices=tuple(new_slices),
    )


def povm_from_factors(factors) -> Measurement:
    """Build the generalized measurement given by square-root factors.

    ``factors`` (r, k, d) stacks one k x d factor ``F_i`` per outcome. The
    effects ``E_i = F_i^dag F_i`` are positive by construction and must
    sum to the identity; the measurement vectors are the conjugated rows
    of every ``F_i``, k per outcome, and V_i = Tr E_i is the squared
    Frobenius norm of ``F_i``.
    """
    factors = np.asarray(factors, dtype=complex)
    if factors.ndim != 3:
        raise ValueError(f"factors must be (r, k, d), got {factors.shape}")
    return _povms_from_factors(factors[None])[0]


def _povms_from_factors(factors: np.ndarray) -> list:
    """:func:`povm_from_factors` of each of a stack (n, r, k, d) of factor
    sets, checked in one pass."""
    if not np.all(np.isfinite(factors)):
        raise ValueError("factors contain non-finite entries")
    n, r, k, d = factors.shape
    rows = factors.reshape(n, -1, d)
    bases = np.swapaxes(rows.conj(), 1, 2)
    if np.max(np.abs(bases @ rows - np.eye(d))) > _NORM_TOL:
        raise ValueError("effects do not sum to the identity")
    slices = tuple(slice(i * k, (i + 1) * k) for i in range(r))
    multiplicities = np.sum(np.abs(factors) ** 2, axis=(2, 3))
    return [Measurement(outcome_slices=slices, basis=basis, multiplicities=mult)
            for basis, mult in zip(bases, multiplicities)]


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
    if not isinstance(measurement, Measurement):
        raise TypeError(f"unsupported measurement type {type(measurement).__name__}")
    if isinstance(state, PureState):
        _check_dims(measurement.dim, state.dim)
        per_column = np.abs(measurement.in_basis(state.amplitudes)) ** 2
    else:
        rho = state.matrix if isinstance(state, DensityMatrix) else np.asarray(state, dtype=complex)
        _check_dims(measurement.dim, rho.shape[0])
        per_column = _vector_weights(measurement.vectors(), rho)
    return clamp_populations(measurement.group_sums(per_column))


def _vector_weights(vectors: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """``<b|rho|b>`` per measurement vector (column of ``vectors``), for a
    density matrix or, broadcast, a stack of them against a stack of
    vector sets: (..., d, n) and (..., d, d) give (..., n)."""
    return np.sum(vectors.conj() * (rho @ vectors), axis=-2).real


def _check_dims(expected: int, got: int):
    if expected != got:
        raise ValueError(f"dimension mismatch: measurement dim {expected}, state dim {got}")


def coarse_grained_state(measurement: Measurement, state) -> DensityMatrix:
    """State after forgetting everything but the outcome statistics:
    ``sum_i p_i Pi_i / V_i``.

    Only defined for projective measurements; the uniform filling of each
    eigenspace has no POVM analogue.
    """
    if not measurement.projective:
        raise TypeError("coarse graining is defined for projective measurements only")
    pops = populations(measurement, state)
    weights = np.empty(measurement.dim)
    for i, sl in enumerate(measurement.outcome_slices):
        weights[sl] = pops[i] / (sl.stop - sl.start)
    basis = measurement.vectors()
    matrix = (basis * weights) @ basis.conj().T
    return DensityMatrix(matrix)


def population_distance(p, q):
    """Half the l1 distance ``(1/2) sum_i |p_i - q_i|``, in [0, 1]: a float,
    or one distance per pair of rows of two stacks of distributions."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError(f"length mismatch: {p.shape} vs {q.shape}")
    distance = 0.5 * np.sum(np.abs(p - q), axis=-1)
    return float(distance) if distance.ndim == 0 else distance
