"""Exact unitary dynamics in the energy eigenbasis, finite- and
infinite-time averages, effective dimension, and energy-gap statistics.

Evolution never exponentiates the Hamiltonian: states are rotated into
the eigenbasis once and propagated by phases. Degenerate levels carry
the clustered eigenvalue, so states inside one eigenspace acquire
exactly equal phases and the infinite-time average is an exact fixed
point of the evolution. A sampled series is averaged by the trapezoid
rule alone; the remainder that certifies it comes from the initial
state's energy moments, which also size the default time step.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .linalg import SpectralDecomposition
from .models import DensityMatrix, PureState

__all__ = [
    "GapStatistics",
    "Trajectory",
    "default_time_step",
    "effective_dimension",
    "equilibrium_state",
    "evolve",
    "finite_time_average_state",
    "gap_statistics",
    "time_average_scalar",
]

# How far, relative to the span, an averaging window may reach past the
# last sample (or a config's window past t_max): round-off, not time.
_SPAN_RTOL = 1e-12
# The population remainder h^2 M / 16 of a default time step.
_STEP_REMAINDER = 0.008
# Gaps per block of the pruned window count: its first pass counts
# exactly at every _BLOCK-th gap.
_BLOCK = 16
# Entries of the (width, block head) table a grid count builds at once (a
# group of widths holds as many as fit), and gaps of one candidate gather.
_HEAD_ENTRIES = 2**18
# Up to this many (width, gap) pairs a grid is counted directly, from
# every gap: for the small spectra of verify's POVM systems the pruning's
# passes cost more than they save (a 16-width grid at m = 12 levels took
# 42 us directly against 111 us pruned, and at m = 32 360 us against 280).
_DIRECT_KEYS = 2**13


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


def effective_dimension(decomp: SpectralDecomposition, amps_eig: np.ndarray) -> float:
    """Effective dimension ``1 / sum_E p_E^2`` of a pure state, given its
    eigenbasis amplitudes ``amps_eig = U^dag psi``; ``p_E`` sums
    ``|amps_eig|^2`` over the levels of eigenspace E."""
    _check_dim(decomp, len(amps_eig))
    pops = np.add.reduceat(np.abs(amps_eig) ** 2, [sl.start for sl in decomp.cluster_slices])
    # round-off can land a hair outside the mathematical range [1, d]
    return min(max(1.0 / float(np.sum(pops**2)), 1.0), float(decomp.dim))


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
    ``window_counts(widths)`` gives, for each width eps, the exact
    maximum number of gaps in any half-open interval of width eps.

    A count is block-pruned, not estimated. The window starting at gap
    i holds ``searchsorted(gaps, gaps[i] + eps) - i`` gaps, counted first
    at the head of every block of 16 gaps. A window starting inside the
    block [i0, i1) ends no later than the one starting at i1, because
    sorting and float rounding are both monotone, so the block's counts
    are at most ``upper[i1] - i0``. Only blocks whose bound beats the
    best head count are then counted gap by gap. A grid of widths is
    counted in groups that keep the (width, head) table within
    ``_HEAD_ENTRIES``, one head pass per group, and the candidate blocks
    are gathered in slices of at most ``_HEAD_ENTRIES`` gaps. A grid of at
    most ``_DIRECT_KEYS`` (width, gap) pairs is counted at every gap at
    once, which is faster there and gives the same counts.
    """

    distinct_count: int
    min_gap: float | None
    _gaps: np.ndarray = field(repr=False)

    @property
    def max_gap(self) -> float:
        return float(self._gaps[-1]) if self._gaps.size else 0.0

    def window_count(self, eps: float) -> int:
        """Maximum number of gaps in any half-open window [x, x + eps)."""
        return int(self.window_counts([eps])[0])

    def window_counts(self, widths) -> np.ndarray:
        """Maximum number of gaps in any half-open window [x, x + eps),
        for each width eps of ``widths``."""
        widths = np.asarray(widths, dtype=float)
        if not np.all(widths > 0):
            raise ValueError("window width eps must be positive")
        gaps = self._gaps
        if widths.size * gaps.size <= _DIRECT_KEYS:
            # every window start at once, the count the pruning arrives at
            ends = np.searchsorted(gaps, gaps + widths[:, None])
            return (ends - np.arange(gaps.size)).max(axis=1, initial=0).astype(np.int64)
        counts = np.zeros(widths.size, dtype=np.int64)
        # +inf closes the heads: the window starting there ends past the last gap
        heads = np.append(gaps[::_BLOCK], np.inf)
        starts = np.arange(0, gaps.size, _BLOCK)
        group = max(1, _HEAD_ENTRIES // heads.size)
        step = max(1, _HEAD_ENTRIES // _BLOCK)
        for lo in range(0, widths.size, group):
            eps = widths[lo:lo + group]
            upper = np.searchsorted(gaps, heads + eps[:, None])
            best = (upper[:, :-1] - starts).max(axis=1, initial=0)  # 0 with no gaps
            rows, blocks = np.nonzero(upper[:, 1:] - starts > best[:, None])
            # gathered a slice of candidates at a time: at a width near 0
            # every block is one, and all at once would copy every gap
            # several times; the max does not depend on the order
            for k in range(0, rows.size, step):
                row = rows[k:k + step]
                # indices past the last gap clip to it and count less than it
                idx = starts[blocks[k:k + step], None] + np.arange(_BLOCK)
                ends = np.searchsorted(gaps, gaps.take(idx, mode="clip") + eps[row, None])
                np.maximum.at(best, row, (ends - idx).max(axis=1))
            counts[lo:lo + group] = best
        return counts

    def epsilon_grid(self, points: int) -> np.ndarray:
        """Logarithmic grid of window widths from the smallest gap
        magnitude to the spectral range."""
        if self.min_gap is None:
            raise ValueError("no nonzero gaps: epsilon grid undefined")
        return np.geomspace(self.min_gap, max(self.max_gap, self.min_gap * (1 + 1e-12)), points)

    def degenerate_gap_multiplicity(self) -> int:
        """Maximum multiplicity of a single gap value (the eps -> 0 limit
        of the window count), up to a relative tolerance of 1e-12: the
        window count at eps = 1e-12 max(1, max_gap), without a count at
        every gap.

        eps is above half an ulp of every gap, so the window starting at
        gap i holds it, and holds a second gap only if gap i is linked:
        ``g[i+1] < fl(g[i] + eps)``. The links are tested in slices of at
        most ``_HEAD_ENTRIES`` gaps. A window starting in a run of linked
        gaps ends inside the run (the gap after it is at or past fl(g + eps)
        for every g of the run), so a run whose last gap lies below
        fl(g + eps) of its first holds no window of more than its gaps.
        Every other run, and a run reaching its slice's end, is counted at
        each start, as :meth:`window_counts` counts."""
        gaps = self._gaps
        eps = 1e-12 * max(1.0, self.max_gap)
        best = min(gaps.size, 1)
        for lo in range(0, gaps.size - 1, _HEAD_ENTRIES):
            part = gaps[lo : lo + _HEAD_ENTRIES + 1]
            linked = part[1:] < part[:-1] + eps
            # runs of linked starts [a, b): gaps a to b of the part
            a, b = np.flatnonzero(np.diff(linked, prepend=False, append=False)).reshape(-1, 2).T
            whole = (part[b] < part[a] + eps) & (b < linked.size)
            lengths = b[~whole] - a[~whole]
            starts = np.arange(lengths.sum()) + np.repeat(a[~whole] - (np.cumsum(lengths) - lengths), lengths)
            counts = np.searchsorted(gaps, part[starts] + eps) - lo - starts
            best = max(best, int((b - a)[whole].max(initial=0)) + 1, int(counts.max(initial=0)))
        return best


def gap_statistics(decomp: SpectralDecomposition) -> GapStatistics:
    """Build exact gap statistics for a decomposition.

    The gap multiset holds the m(m - 1) differences of the m distinct
    eigenvalues over all ordered pairs. Its negative half mirrors its
    positive half, since IEEE subtraction gives fl(a - b) = -fl(b - a):
    the m(m - 1)/2 positive gaps are written into the upper half of the
    result and sorted there in place, and their negated reverse fills the
    lower half. No m x m difference matrix is built, so the build peaks at
    about the m(m - 1) float64 of the result.
    """
    values = decomp.cluster_values
    m = len(values)
    if m < 2:
        warnings.warn("single distinct eigenvalue: no gaps, window counts are 0")
        return GapStatistics(distinct_count=m, min_gap=None, _gaps=np.array([]))
    min_gap = float(np.min(np.diff(values)))  # values ascending
    half = m * (m - 1) // 2
    gaps = np.empty(2 * half)
    positive = gaps[half:]
    start = 0
    for i in range(m - 1):
        # v_j - v_i for every j > i
        np.subtract(values[i + 1 :], values[i], out=positive[start : start + m - 1 - i])
        start += m - 1 - i
    positive.sort()
    np.negative(positive[::-1], out=gaps[:half])
    return GapStatistics(distinct_count=m, min_gap=min_gap, _gaps=gaps)


def default_time_step(curvature: float) -> float:
    """Grid step sized by the quadrature certificate: on it the populations
    stay within TV distance ``h^2 M / 16 = _STEP_REMAINDER`` of their
    linear interpolant, M the initial state's curvature
    (``PreparedSystem.curvature``, which reads 0 at the round-off scale);
    0.02 for a state that does not move (M = 0)."""
    if curvature <= 0:
        return 0.02
    return math.sqrt(16.0 * _STEP_REMAINDER / curvature)


@dataclass(frozen=True)
class Trajectory:
    """Sampled observables of an evolving state on an ascending time grid."""

    times: np.ndarray
    populations: np.ndarray  # (samples, outcomes)
    expectation: np.ndarray | None
    shannon: np.ndarray
    observational: np.ndarray
    boltzmann: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        if times.ndim != 1 or np.any(np.diff(times) <= 0):
            raise ValueError("time grid must be strictly ascending")
        object.__setattr__(self, "times", times)

    @property
    def span(self) -> float:
        return float(self.times[-1])


def time_average_scalar(trajectory: Trajectory, values, T: float) -> float:
    """Trapezoidal time average ``(1/T) int_0^T X(t) dt`` of a series
    sampled on the trajectory's grid, which must start at t = 0: the exact
    average of the samples' linear interpolant, the final partial interval
    included. :func:`~qeqlab.harness.evaluate_bounds` adds the quadrature
    remainder that makes it an upper bound on the true average."""
    values = np.asarray(values, dtype=float)
    return float(_trapezoids(trajectory.times, values[None], [T])[0, 0])


def _trapezoids(times: np.ndarray, series: np.ndarray, windows) -> np.ndarray:
    """:func:`time_average_scalar` per series and window: the series
    (k, len(times)) and the windows T give (k, len(windows)). Each average
    adds the trapezoids of the segments inside (0, T], in sample order, as
    ``np.trapezoid`` does."""
    terms = np.diff(times)[None, :] * (series[:, 1:] + series[:, :-1]) / 2.0
    out = np.empty((len(series), len(windows)))
    for j, T in enumerate(windows):
        if times[0] != 0 or T <= 0 or T > times[-1] * (1 + _SPAN_RTOL):
            raise ValueError(f"window (0, {T!r}] outside the sampled span [{times[0]!r}, {times[-1]!r}]")
        T = min(T, float(times[-1]))
        k = int(np.searchsorted(times, T, side="right")) - 1
        total = np.add.reduce(terms[:, :k], axis=-1)
        if k + 1 < len(times) and times[k] < T:
            frac = (T - times[k]) / (times[k + 1] - times[k])
            v_k = series[:, k]
            v_t = v_k + frac * (series[:, k + 1] - v_k)
            total = total + 0.5 * (v_k + v_t) * (T - times[k])
        out[:, j] = total / T
    return out
