"""Exact unitary dynamics in the energy eigenbasis, finite- and
infinite-time averages, effective dimension, and energy-gap statistics.

Evolution never exponentiates the Hamiltonian: states are rotated into
the eigenbasis once and propagated by phases. Degenerate levels carry
the clustered eigenvalue, so states inside one eigenspace acquire
exactly equal phases and the infinite-time average is an exact fixed
point of the evolution.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .linalg import SpectralDecomposition
from .models import DensityMatrix, PureState

__all__ = [
    "GapStatistics",
    "Trajectory",
    "default_time_step",
    "effective_dimension",
    "energy_populations",
    "equilibrium_state",
    "evolve",
    "finite_time_average_state",
    "gap_statistics",
    "time_average_scalar",
]

# Relative tolerance for the trapezoidal-refinement convergence check.
DEFAULT_AVG_RTOL = 1e-4
# Gaps per block of the pruned window count: its first pass counts
# exactly at every _BLOCK-th gap.
_BLOCK = 16
_BLOCK_OFFSETS = np.arange(_BLOCK)


def _check_dim(decomp: SpectralDecomposition, dim: int):
    if decomp.dim != dim:
        raise ValueError(f"dimension mismatch: decomposition {decomp.dim}, state {dim}")


def _rho_eigenbasis(decomp: SpectralDecomposition, state) -> np.ndarray:
    if isinstance(state, PureState):
        rho = state.density_matrix().matrix
    elif isinstance(state, DensityMatrix):
        rho = state.matrix
    else:
        rho = DensityMatrix(state).matrix
    _check_dim(decomp, rho.shape[0])
    return decomp.to_eigenbasis(rho)


def evolve(decomp: SpectralDecomposition, state, t: float):
    """Propagate a state to time ``t``: ``e^{-iHt} rho e^{+iHt}``.

    Returns the same kind of state it was given (pure in, pure out).
    """
    phase = np.exp(-1j * decomp.level_values * t)
    if isinstance(state, PureState):
        _check_dim(decomp, state.dim)
        amps = decomp.eigenvectors @ (phase * (decomp.eigenvectors.conj().T @ state.amplitudes))
        return PureState(amps)
    rho_eig = _rho_eigenbasis(decomp, state)
    rotated = decomp.eigenvectors * phase
    return DensityMatrix(rotated @ rho_eig @ rotated.conj().T)


def _dephase_eigenbasis(decomp: SpectralDecomposition, rho_eig: np.ndarray) -> np.ndarray:
    out = np.zeros_like(rho_eig)
    for sl in decomp.cluster_slices:
        out[sl, sl] = rho_eig[sl, sl]
    return out


def equilibrium_state(decomp: SpectralDecomposition, state) -> DensityMatrix:
    """Infinite-time average: the initial state dephased across the
    energy eigenspaces, ``omega = sum_E Pi_E rho Pi_E``."""
    rho_eig = _rho_eigenbasis(decomp, state)
    return DensityMatrix(decomp.from_eigenbasis(_dephase_eigenbasis(decomp, rho_eig)))


def energy_populations(decomp: SpectralDecomposition, state) -> np.ndarray:
    """Populations of the state on the Hamiltonian eigenspaces."""
    if isinstance(state, PureState):
        _check_dim(decomp, state.dim)
        per_level = np.abs(decomp.eigenvectors.conj().T @ state.amplitudes) ** 2
    else:
        rho_eig = _rho_eigenbasis(decomp, state)
        per_level = rho_eig.diagonal().real
    edges = [sl.start for sl in decomp.cluster_slices]
    return np.add.reduceat(per_level, edges)


def effective_dimension(decomp: SpectralDecomposition, state) -> float:
    """Effective dimension ``1 / sum_E Tr[Pi_E rho]^2``.

    Cross-checked against the purity form ``1 / Tr[omega^2]``; the two
    agree whenever the state is pure or the spectrum is nondegenerate
    (every case this laboratory produces), and a mismatch means the
    caller is in genuinely ambiguous territory, so it is an error.
    For pure states the two expressions are algebraically identical and
    the check is free.
    """
    pops = energy_populations(decomp, state)
    from_populations = 1.0 / float(np.sum(pops**2))
    # round-off can land a hair outside the mathematical range [1, d]
    from_populations = min(max(from_populations, 1.0), float(decomp.dim))
    if not isinstance(state, PureState):
        rho_eig = _rho_eigenbasis(decomp, state)
        purity = 0.0
        for sl in decomp.cluster_slices:
            purity += float(np.sum(np.abs(rho_eig[sl, sl]) ** 2))
        from_purity = 1.0 / purity
        if abs(from_populations - from_purity) > 1e-9 * max(1.0, from_purity):
            raise ValueError(
                "effective-dimension definitions disagree "
                f"({from_populations!r} vs {from_purity!r}); degenerate spectrum "
                "with a mixed state has no unambiguous effective dimension"
            )
    return from_populations


def finite_time_average_state(decomp: SpectralDecomposition, state, T: float) -> DensityMatrix:
    """Time-averaged state ``(1/T) int_0^T rho(t) dt``, computed exactly.

    In the eigenbasis each coherence picks up the analytic factor
    ``exp(-i w T/2) sinc(w T/2)`` for level gap ``w`` (sinc(0) = 1), so
    no quadrature is involved.
    """
    if T <= 0:
        raise ValueError("averaging window T must be positive")
    rho_eig = _rho_eigenbasis(decomp, state)
    lv = decomp.level_values
    gaps = lv[:, None] - lv[None, :]
    # numpy's sinc is sin(pi x)/(pi x): sinc(w T/2) = np.sinc(w T / (2 pi))
    kernel = np.exp(-0.5j * gaps * T) * np.sinc(gaps * T / (2.0 * math.pi))
    return DensityMatrix(decomp.from_eigenbasis(rho_eig * kernel))


@dataclass(frozen=True)
class GapStatistics:
    """Statistics of the multiset of nonzero energy gaps.

    Gaps are signed differences over all ordered pairs of *distinct*
    eigenvalues, counted with multiplicity, and kept sorted.
    ``window_count(eps)`` is the exact maximum number of gaps in any
    half-open interval of width eps. Each count is computed once per
    width and kept in ``window_counts``.

    A count is block-pruned, not estimated. The window starting at gap
    i holds ``searchsorted(gaps, gaps[i] + eps) - i`` gaps, counted first
    at the head of every block of 16 gaps. A window starting inside the
    block [i0, i1) ends no later than the one starting at i1, because
    sorting and float rounding are both monotone, so the block's counts
    are at most ``upper[i1] - i0``. Only blocks whose bound beats the
    best head count are then counted gap by gap.
    """

    distinct_count: int
    min_gap: float | None
    _gaps: np.ndarray = field(repr=False)
    window_counts: dict = field(default_factory=dict)

    @property
    def max_gap(self) -> float:
        return float(self._gaps[-1]) if self._gaps.size else 0.0

    def window_count(self, eps: float) -> int:
        """Maximum number of gaps in any half-open window [x, x + eps)."""
        if eps <= 0:
            raise ValueError("window width eps must be positive")
        eps = float(eps)
        count = self.window_counts.get(eps)
        if count is None:
            count = self._count_window(eps)
            self.window_counts[eps] = count
        return count

    @cached_property
    def _block_heads(self):
        """The first gap of every block, then +inf (whose window ends
        past the last gap), and the index of every block's first gap."""
        gaps = self._gaps
        return np.append(gaps[::_BLOCK], np.inf), np.arange(0, gaps.size, _BLOCK)

    def _count_window(self, eps: float) -> int:
        gaps = self._gaps
        if gaps.size == 0:
            return 0
        heads, starts = self._block_heads
        upper = np.searchsorted(gaps, heads + eps)
        best = (upper[:-1] - starts).max()
        blocks = np.flatnonzero(upper[1:] - starts > best)
        if blocks.size:
            # indices past the last gap clip to it and count less than it
            idx = starts[blocks, None] + _BLOCK_OFFSETS
            ends = np.searchsorted(gaps, gaps.take(idx, mode="clip") + eps)
            best = max(best, (ends - idx).max())
        return int(best)

    def epsilon_grid(self, points: int = 32) -> np.ndarray:
        """Logarithmic grid of window widths from the smallest gap
        magnitude to the spectral range."""
        if self.min_gap is None:
            raise ValueError("no nonzero gaps: epsilon grid undefined")
        return np.geomspace(self.min_gap, max(self.max_gap, self.min_gap * (1 + 1e-12)), points)

    def degenerate_gap_multiplicity(self) -> int:
        """Maximum multiplicity of a single gap value (the eps -> 0 limit
        of the window count), up to a relative tolerance of 1e-12."""
        return self._count_window(1e-12 * max(1.0, self.max_gap))


def gap_statistics(decomp: SpectralDecomposition) -> GapStatistics:
    """Build exact gap statistics for a decomposition.

    The gap multiset holds the m(m - 1) differences of the m distinct
    eigenvalues over all ordered pairs, so its memory grows
    quadratically with m.
    """
    values = decomp.cluster_values
    m = len(values)
    if m < 2:
        warnings.warn("single distinct eigenvalue: no gaps, window counts are 0")
        return GapStatistics(distinct_count=m, min_gap=None, _gaps=np.array([]))
    min_gap = float(np.min(np.diff(values)))  # values ascending
    diff = values[None, :] - values[:, None]
    gaps = np.sort(diff[~np.eye(m, dtype=bool)])
    return GapStatistics(distinct_count=m, min_gap=min_gap, _gaps=gaps)


def default_time_step(spectral_range: float) -> float:
    """Grid step resolving the fastest phase of the evolution."""
    if spectral_range <= 0:
        return 0.02
    return min(0.02, math.pi / (10.0 * spectral_range))


@dataclass(frozen=True)
class EquilibriumReference:
    """Per-observable values of the infinite-time-averaged state."""

    populations: np.ndarray
    expectation: float | None
    shannon: float
    observational: float
    boltzmann: float


@dataclass(frozen=True)
class Trajectory:
    """Sampled observables of an evolving state on an ascending time grid."""

    times: np.ndarray
    populations: np.ndarray  # (samples, outcomes)
    expectation: np.ndarray | None
    shannon: np.ndarray
    observational: np.ndarray
    boltzmann: np.ndarray
    equilibrium: EquilibriumReference

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        if times.ndim != 1 or np.any(np.diff(times) <= 0):
            raise ValueError("time grid must be strictly ascending")
        object.__setattr__(self, "times", times)

    @property
    def span(self) -> float:
        return float(self.times[-1])

    def quantity(self, name: str) -> np.ndarray:
        """Resolve a named per-time series, including deviation series
        taken relative to the equilibrium reference."""
        eq = self.equilibrium
        if name == "expectation":
            return self.expectation
        if name == "shannon":
            return self.shannon
        if name == "observational":
            return self.observational
        if name == "boltzmann":
            return self.boltzmann
        if name == "shannon_abs_dev":
            return np.abs(self.shannon - eq.shannon)
        if name == "observational_abs_dev":
            return np.abs(self.observational - eq.observational)
        if name == "population_distance":
            return 0.5 * np.sum(np.abs(self.populations - eq.populations[None, :]), axis=1)
        if name == "expectation_sq_dev":
            return (self.expectation - eq.expectation) ** 2
        raise KeyError(f"unknown trajectory quantity {name!r}")


def _trapezoid_to(times: np.ndarray, values: np.ndarray, T: float) -> float:
    """Integral of the sampled series over [0, T], with the final partial
    interval handled by linear interpolation."""
    k = int(np.searchsorted(times, T, side="right")) - 1
    total = float(np.trapezoid(values[: k + 1], times[: k + 1])) if k >= 1 else 0.0
    if k + 1 < len(times) and times[k] < T:
        frac = (T - times[k]) / (times[k + 1] - times[k])
        v_t = values[k] + frac * (values[k + 1] - values[k])
        total += 0.5 * (values[k] + v_t) * (T - times[k])
    return total


def time_average_scalar(
    series: Trajectory,
    quantity,
    T: float,
    check_refinement: bool = True,
) -> float:
    """Trapezoidal time average ``(1/T) int_0^T X(t) dt``.

    ``quantity`` is a named series or a raw array aligned with the grid.
    The average is recomputed on the grid thinned by half; a relative
    change above ``DEFAULT_AVG_RTOL`` means the grid does not resolve the
    signal and triggers a warning.
    """
    times = series.times
    values = series.quantity(quantity) if isinstance(quantity, str) else np.asarray(quantity, float)
    if T <= 0 or T > times[-1] * (1 + 1e-12):
        raise ValueError(f"T = {T!r} outside the trajectory span (0, {times[-1]!r}]")
    T = min(T, float(times[-1]))
    avg = _trapezoid_to(times, values, T) / T
    if check_refinement:
        # keep the final sample so the coarse integral spans the same window
        idx = np.arange(0, len(times), 2)
        if idx[-1] != len(times) - 1:
            idx = np.append(idx, len(times) - 1)
        coarse = _trapezoid_to(times[idx], values[idx], T) / T
        delta = abs(avg - coarse)
        if delta > DEFAULT_AVG_RTOL * max(1.0, abs(avg)):
            warnings.warn(
                f"time average of {quantity!r} not converged: halving the "
                f"step moves it by {delta:.3e}"
            )
    return avg
