"""Experiment orchestration: configs, prepared systems, trajectory
generation, bound evaluation per averaging window, fluctuation sampling,
chain-length sweeps, and exponential fits.

A config is a dataclass whose fields are its schema: each field names its
dotted key and the converter of its value (:func:`_key`), and the base
:class:`_Config` parses and resolves every config from those fields.

Everything is deterministic given the configuration (including its
seed); an experiment's report and a sweep's fits are the plain JSON
objects the CLI writes.
"""

from __future__ import annotations

import contextvars
import math
import threading
from dataclasses import MISSING, dataclass, field, fields
from functools import cached_property

import numpy as np

from . import bounds as _bounds
from .dynamics import (
    _SPAN_RTOL,
    GapStatistics,
    Trajectory,
    _check_dim,
    _trapezoids,
    default_time_step,
    effective_dimension,
    gap_statistics,
    time_average_scalar,
)
from .entropy import _ZERO_CUTOFF, _xlogx
from .linalg import SpectralDecomposition, decompose_hermitian
from .measurement import Measurement, clamp_populations, pvm_from_observable
from .models import (
    PureState,
    SpinChainParams,
    _check_bath_cap,
    _check_cap,
    all_down_state,
    reflection_sector,
    spin_bath,
)
# not called here: perfbench/tracing.py looks these names up on this module
from .models import bulk_magnetization, tilted_ising_chain

__all__ = [
    "ExperimentConfig",
    "PreparedSystem",
    "SweepConfig",
    "build_system",
    "chain_system",
    "compute_trajectory",
    "evaluate_bounds",
    "execute_experiment",
    "fit_exponential",
    "fluctuation_checks",
    "prepare_system",
    "sample_deviations",
    "sweep_chain_lengths",
    "time_grid",
    "window_average",
]

# Times per propagation chunk. A chunk holds at most three arrays of
# (rows or levels) x 1024 entries of the weights' itemsize. Every chunk's
# GEMMs re-pack the whole weight matrix, so much narrower chunks cost time:
# at N = 13 chunks of 248 times made the trajectory 36 % slower than chunks
# of 1008. A multiple of 8: with OpenBLAS, a chunk edge inside a group of 8
# GEMM columns moved the last digits of that group's populations.
_CHUNK_TIMES = 1024
# A curvature at most this times m range^2 (m levels) is round-off
# (PreparedSystem.curvature): computed energy eigenstates of the chains up
# to N = 8 read 1e-16 to 1.2e-15 range^2.
_ROUND_OFF_CURVATURE = 64 * np.finfo(float).eps
# Rows per block of the p_omega sum in PreparedSystem.equilibrium.
_P_OMEGA_ROWS = 256
# Per site: columns are the +1 and -1 Pauli eigenvectors; None along z.
_SITE_ROTATIONS = {
    "x": np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0),
    "y": np.array([[1.0, 1.0], [1j, -1j]]) / math.sqrt(2.0),
    "z": None,
}


# ---------------------------------------------------------------------------
# prepared systems


@dataclass(frozen=True)
class EquilibriumReference:
    """Per-observable values of the infinite-time-averaged state."""

    populations: np.ndarray
    expectation: float | None
    shannon: float
    observational: float
    boltzmann: float


@dataclass(frozen=True)
class PreparedSystem:
    """A diagonalized system bundled with its measurement and initial
    state, plus the eigenbasis caches propagation needs.

    ``weighted_contraction`` is ``measurement.in_basis(U) * amps_eig``: its
    rows, one per measurement vector, turn the level phases exp(-i E t)
    into amplitudes c_j(t); ``measurement.group_sums`` adds up |c_j(t)|^2.
    It and the ``equilibrium`` built from it are cached on first read, so
    a system that is never propagated builds neither. Python 3.12's
    ``cached_property`` takes no lock: read them once before threads share
    the system.

    ``decomposition.dim`` is the dimension that was solved; ``dim`` is the
    Hilbert-space dimension the bounds see. The two differ when a chain
    is solved in a symmetry sector.
    """

    decomposition: SpectralDecomposition
    measurement: Measurement
    initial: PureState
    gap_stats: GapStatistics
    d_eff: float
    amps_eig: np.ndarray = field(repr=False)

    @cached_property
    def weighted_contraction(self) -> np.ndarray:
        return self.measurement.in_basis(self.decomposition.eigenvectors) * self.amps_eig[None, :]

    @cached_property
    def equilibrium(self) -> EquilibriumReference:
        """The dephased state's populations and series, without
        materializing omega: |C[:, block] @ amps[block]|^2 accumulated over
        the energy eigenspaces, with no m x m copy (single levels need no
        reduceat, and |.|^2 is summed a block of rows at a time)."""
        decomp, weighted = self.decomposition, self.weighted_contraction
        edges = [sl.start for sl in decomp.cluster_slices]
        per_block = weighted if len(edges) == decomp.dim else np.add.reduceat(weighted, edges, axis=1)
        weights = np.empty(len(per_block))
        for start in range(0, len(per_block), _P_OMEGA_ROWS):
            rows = per_block[start : start + _P_OMEGA_ROWS]
            weights[start : start + len(rows)] = np.sum(np.abs(rows) ** 2, axis=1)
        p_omega = clamp_populations(self.measurement.outcome_sums(weights))
        series = _outcome_series(p_omega[None, :], self.measurement)
        return EquilibriumReference(p_omega, *(None if row is None else float(row[0]) for row in series))

    @property
    def observable_norm(self) -> float | None:
        """Norm of the measured operator, its extremal outcome value (the
        values reconstruct it exactly); None for a measurement without values."""
        values = self.measurement.values
        return None if values is None else float(np.max(np.abs(values)))

    @cached_property
    def _energy_moments(self) -> tuple:
        """Second and fourth central moments of the initial state's energy
        over the levels that propagate it."""
        weights = np.abs(self.amps_eig) ** 2
        levels = self.decomposition.level_values
        centered = levels - weights @ levels
        return float(weights @ centered**2), float(weights @ centered**4)

    @property
    def energy_spread(self) -> float:
        """Energy spread sigma_E of the initial state over the levels that
        propagate it: ``|d rho/dt|_1 = 2 sigma_E`` for a pure state."""
        return math.sqrt(self._energy_moments[0])

    @cached_property
    def curvature(self) -> float:
        """``M = 2 (sqrt(mu_4) + sigma_E^2)``, mu_4 the fourth central moment
        of the energy: ``|d^2 rho/dt^2|_1 = |[H, [H, rho]]|_1 <= M`` for a pure
        state, since ``|(H - E)^2 psi| = sqrt(mu_4)`` and ``|(H - E) psi|^2 =
        sigma_E^2``. An M at the round-off scale of the spectrum, at most
        ``_ROUND_OFF_CURVATURE * m * range^2`` for m solved levels, is 0: a
        computed energy eigenstate carries amplitudes of order eps on the
        other levels, so sqrt(mu_4) reads about eps range^2, and the state
        does not move."""
        variance, fourth = self._energy_moments
        curvature = 2.0 * (math.sqrt(fourth) + variance)
        decomp = self.decomposition
        if curvature <= _ROUND_OFF_CURVATURE * decomp.dim * decomp.spectral_range**2:
            return 0.0
        return curvature

    @cached_property
    def dim(self) -> int:
        """Bound dimension: the multiplicities add up to ``Tr 1``, for a
        PVM and for a POVM."""
        return int(round(float(np.sum(self.measurement.multiplicities))))

    @property
    def r(self) -> int:
        return self.measurement.r


def _outcome_series(pops: np.ndarray, measurement: Measurement):
    """Expectation value (None for a measurement without values), Shannon,
    observational and Boltzmann entropy of each population row."""
    values = measurement.values
    expectation = None if values is None else pops @ values
    shannon = -np.sum(_xlogx(pops), axis=-1)
    boltzmann = pops @ np.log(np.asarray(measurement.multiplicities, dtype=float))
    return expectation, shannon, shannon + boltzmann, boltzmann


def prepare_system(hamiltonian, observable, initial) -> PreparedSystem:
    """Diagonalize, build the measurement, and precompute the gap
    statistics and effective dimension.

    ``observable`` may be a Hermitian matrix (a projective measurement is
    built from it) or an already constructed measurement; ``initial`` is a
    :class:`~qeqlab.models.PureState`.
    """
    if not isinstance(initial, PureState):
        raise TypeError(f"initial state must be a PureState, got {type(initial).__name__}")
    decomp = decompose_hermitian(hamiltonian)
    _check_dim(decomp, initial.dim)
    if isinstance(observable, Measurement):
        measurement = observable
    else:
        measurement = pvm_from_observable(np.asarray(observable))
    return _prepared(decomp, measurement, initial)


def _prepared(decomp: SpectralDecomposition, measurement: Measurement, initial: PureState) -> PreparedSystem:
    """:func:`prepare_system` of a solved Hamiltonian."""
    stats = gap_statistics(decomp)
    amps = (decomp.eigenvectors.conj().T @ initial.amplitudes[:, None])[:, 0]
    return PreparedSystem(decomposition=decomp, measurement=measurement, initial=initial, gap_stats=stats,
                          d_eff=effective_dimension(decomp, amps), amps_eig=amps)


def chain_system(params: SpinChainParams, axis: str = "z") -> PreparedSystem:
    """The mixed-field Ising chain measured through its bulk magnetization
    along ``axis`` and started in the real all-down state.

    The Hamiltonian, the state and the magnetization all commute with
    site reflection, so the state never leaves the reflection-even
    sector. The chain is solved there: H is built in the sector from the
    reflection orbits, the state is projected onto it, and both are handed
    to :func:`prepare_system`. Outcome k (k spins
    down along ``axis``) has the value (N - 2k)/N and keeps its full-space
    multiplicity C(N, k), so ``dim`` stays 2**N in every bound. The sector
    columns are ordered by k and form the measurement basis along z; along
    x and y the basis is their image under ``R^(x)N``, which commutes with
    site reflection.
    """
    if axis not in _SITE_ROTATIONS:
        raise ValueError(f"unknown Pauli axis {axis!r}")
    n = params.sites
    sector = reflection_sector(n)
    ham = sector.chain_hamiltonian(params)
    initial = sector.project_state(all_down_state(n))
    rotation = _SITE_ROTATIONS[axis]
    basis = None if rotation is None else sector.product_operator(rotation)
    down = np.arange(n + 1)
    measurement = Measurement(values=(n - 2.0 * down) / n,
                              outcome_slices=sector.magnetization_slices(),
                              basis=basis,
                              multiplicities=np.array([math.comb(n, k) for k in down]))
    return prepare_system(ham, measurement, initial)


def _sq_amplitudes(weighted: np.ndarray, levels: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """``|weighted @ exp(-i E t)|^2`` per row of ``weighted`` and time,
    (rows, len(ts)). Real weights take two real GEMMs, on ``cos(E t)`` and
    ``sin(E t)``; complex weights one complex GEMM, on the phases written
    as ``cos(E t) - i sin(E t)``: with glibc's ``cexp`` these are the bits
    of ``exp(-i E t)``, in about 3/4 of its time."""
    arg = np.outer(levels, ts)
    if np.iscomplexobj(weighted):
        phases = np.empty(arg.shape, dtype=complex)
        np.cos(arg, out=phases.real)
        np.sin(arg, out=phases.imag)
        np.negative(phases.imag, out=phases.imag)
        sq = np.abs(weighted @ phases)
        np.square(sq, out=sq)
        return sq
    sq = weighted @ np.cos(arg)
    np.sin(arg, out=arg)
    im = weighted @ arg
    np.square(sq, out=sq)
    np.square(im, out=im)
    sq += im
    return sq


# How _populations_at maps over its chunks: the builtin map, one chunk at a
# time, unless execute_experiment sets its two-worker pool's map.
_chunk_map = contextvars.ContextVar("_chunk_map", default=map)


def _populations_at(system: PreparedSystem, times: np.ndarray) -> np.ndarray:
    """Outcome populations at arbitrary times, (len(times), r), propagated
    in chunks of at most ``_CHUNK_TIMES`` times."""
    levels = system.decomposition.level_values
    measurement = system.measurement
    weighted = system.weighted_contraction
    starts = range(0, len(times), _CHUNK_TIMES)
    # one expression per chunk, so no chunk's array outlives its task
    chunks = _chunk_map.get()(lambda ts: measurement.group_sums(_sq_amplitudes(weighted, levels, ts)).T,
                              (times[start : start + _CHUNK_TIMES] for start in starts))
    out = np.empty((len(times), measurement.r))
    for start, pops in zip(starts, chunks):
        out[start : start + len(pops)] = pops
    return clamp_populations(out)


def time_grid(t_max: float, dt: float) -> np.ndarray:
    """Uniform grid covering [0, t_max]: its last sample is at or past t_max,
    so every window the configs accept lies inside it."""
    if t_max <= 0 or dt <= 0:
        raise ValueError("t_max and dt must be positive")
    # the 1e-9 keeps a t_max / dt rounded up past a whole number of steps
    # from adding one; a grid that then stops short of t_max (t_max within
    # 1e-9 steps past a whole number of them) takes one more
    n = int(math.ceil(t_max / dt - 1e-9))
    if n * dt < t_max:
        n += 1
    return np.arange(n + 1) * dt


def compute_trajectory(system: PreparedSystem, times) -> Trajectory:
    """Sample populations, expectation value, and entropies on a grid."""
    times = np.asarray(times, dtype=float)
    pops = _populations_at(system, times)
    return Trajectory(times, pops, *_outcome_series(pops, system.measurement))


def sample_deviations(system: PreparedSystem, window: float, count: int, seed: int):
    """Shannon and observational entropy deviations from equilibrium,
    ``(|S(t) - S(omega)|, |S_obs(t) - S_obs(omega)|)``, at the same
    ``count`` uniformly random times in [0, window].

    The times are ``default_rng(seed).uniform(0, window, count)``, drawn
    once and propagated once; sample k of both arrays is taken at time k.
    """
    if window <= 0:
        raise ValueError("window must be positive")
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    times = rng.uniform(0.0, window, size=count)
    _, shannon, observational, _ = _outcome_series(_populations_at(system, times), system.measurement)
    eq = system.equilibrium
    return np.abs(shannon - eq.shannon), np.abs(observational - eq.observational)


def _asymptotic_bounds(system: PreparedSystem) -> dict:
    """The infinite-time Shannon bound delta, its ln(r + 1) variant, and
    the observational bound nu: the deviation bounds at the infinite-time,
    nondegenerate-gap distance bound ``(1/2) sqrt(r / d_eff)``."""
    _, (delta, extra), (nu, _) = _rhs_rows(system, 1.0)[:3]
    return {"delta": delta, "delta_alt_prefactor": extra["rhs_alt_prefactor"], "nu": nu}


def fluctuation_checks(system: PreparedSystem, window: float, count: int, seed: int):
    """Tail checks of the Shannon and observational entropy deviations at
    ``count`` random times in [0, window]: each deviation may reach the
    square root of its asymptotic bound with probability at most that
    square root.

    Both checks read one draw of times from ``seed``
    (:func:`sample_deviations`). Each is a Clopper-Pearson bound on its own
    i.i.d. uniform times, valid alone, and no report combines the two.

    Returns ``(reports, summary)``.
    """
    asymptotic = _asymptotic_bounds(system)
    delta, nu = asymptotic["delta"], asymptotic["nu"]
    sh, ob = sample_deviations(system, window, count, seed)
    reports = [
        _bounds.tail_bound_check(sh, math.sqrt(delta), delta, name="shannon_fluctuation"),
        _bounds.tail_bound_check(ob, math.sqrt(nu), nu, name="observational_fluctuation"),
    ]
    summary = {
        "window": window,
        "count": count,
        "sqrt_delta": math.sqrt(delta),
        "sqrt_nu": math.sqrt(nu),
        "max_shannon_deviation": float(sh.max()),
        "max_observational_deviation": float(ob.max()),
    }
    return reports, summary


# ---------------------------------------------------------------------------
# bound evaluation


def _segment_jeffreys(pops: np.ndarray) -> np.ndarray:
    """Jeffreys divergence ``sum (q_b - q_a)(ln q_b - ln q_a)`` of each pair
    of consecutive population rows, q the rows with every population at or
    below the entropies' zero cutoff set to 0, as their entropies count
    them: infinite where an outcome is zero at one end of a segment only."""
    q = np.where(pops > _ZERO_CUTOFF, pops, 0.0)
    change = np.diff(q, axis=0)
    with np.errstate(divide="ignore"):
        logs = np.log(q)
    log_change = np.subtract(logs[1:], logs[:-1], out=np.zeros_like(change), where=change != 0)
    return np.sum(change * log_change, axis=1)


def _quadrature_remainders(times: np.ndarray, h: float, windows: np.ndarray, second: list, first: list,
                           triangles: list) -> np.ndarray:
    """Per report and window T, (1/T) times the sum over the grid segments
    of [0, T] of ``min(l w2 + h triangle, l w1)``, l the segment's length
    inside the window and h the largest step: :func:`evaluate_bounds`'
    remainders, from each report's pointwise terms w2 (``second``) and w1
    (``first``) and its per-segment triangles (or 0)."""
    inside = np.clip(windows[:, None] - times[None, :-1], 0.0, h)
    return np.array([np.sum(np.minimum(inside * w2 + h * triangle, inside * w1), axis=-1)
                     for w2, w1, triangle in zip(second, first, triangles)]) / windows


# Each evaluate_bounds report: its name, its continuity bound w as a
# function of a population distance, and whether its segments take the
# entropies' triangle term (the convex reports need none).
_DEVIATIONS = (
    ("population_equilibration", lambda system, x: x, False),
    ("shannon_deviation", lambda system, x: _bounds.shannon_deviation_bound(system.r, x), True),
    ("observational_deviation", lambda system, x: _bounds.observational_deviation_bound(system.dim, x), True),
    ("expectation_deviation", lambda system, x: 8 * system.observable_norm**2 * x, False),
)
# Relative slack of a ceiling certificate for rounding: a trapezoid or a
# remainder sums n samples, so it rounds by about n eps relative.
_CEILING_RTOL = 1e-9


def _pointwise_terms(system: PreparedSystem, tau: float, deviations) -> list:
    """Each report's continuity bound w at the distance tau."""
    return [w(system, tau) for _, w, _ in deviations]


def _ceiling_certificates(system: PreparedSystem, times: np.ndarray) -> list:
    """Of a system without an observable norm on the grid ``times``, an
    upper bound U on the lhs of each of its :func:`evaluate_bounds` reports
    (population, Shannon, observational) at any window inside the grid,
    from no propagation: ``U = (C + w(tau1)) (1 + _CEILING_RTOL)``, C the
    report's ceiling (``bounds.CEILINGS``) and w(tau1) its first-order
    pointwise term, tau1 = sigma_E h / 2 at the largest step h. The
    trapezoid average of a series bounded by C is at most C, and each
    segment adds a remainder of at most its length inside the window times
    w(tau1); on a :func:`time_grid`, whose steps all equal h up to
    rounding, those lengths add up to the window."""
    deviations = _DEVIATIONS[:3]
    h = float(np.max(np.diff(times), initial=0.0))
    first = _pointwise_terms(system, system.energy_spread * h / 2, deviations)
    return [(_bounds.CEILINGS[name](system.r, system.dim) + w1) * (1 + _CEILING_RTOL)
            for (name, *_), w1 in zip(deviations, first)]


def evaluate_bounds(system: PreparedSystem, trajectory: Trajectory, T_grid,
                    eps_points: int = 32) -> list:
    """Evaluate the population, entropy, and expectation inequalities for
    every averaging window in ``T_grid``, on one count of the ε grid.

    Each lhs is its trapezoid plus a quadrature remainder, so it bounds the
    true average from above. On a grid of largest step h every segment
    adds the smaller of two proven terms, w being the report's continuity
    bound (x, the entropy continuity bounds, or 8 |A|^2 x):

    * second order, h w(tau2) plus a triangle: the populations stay within
      TV distance tau2 = h^2 M / 16 of their linear interpolant, M the
      ``curvature``. On the interpolant the convex population distance and
      squared expectation deviation stay under their chord; the concave
      entropies exceed it by at most the triangle under the endpoint
      tangents, of area at most (h/8) J(p_a, p_b), J the Jeffreys
      divergence of the two samples;
    * first order, h w(tau1), tau1 = sigma_E h / 2: the populations move at
      TV rate at most sigma_E, so a quantity stays within w(tau1) of the
      samples' interpolant. A segment with an outcome zero at one end only
      has J infinite and takes this term.

    A window ending inside a segment takes that segment's pointwise terms
    in part and its triangle whole. The proof covers the exact
    populations; their rounding in the samples enters through w at the
    round-off scale, and so does the entropies' zero cutoff, which J
    applies too."""
    if system.r < 2:
        raise ValueError("bound evaluation needs a measurement with r >= 2")
    windows = [float(T) for T in T_grid]
    best = _bounds.optimal_epsilon(system.gap_stats, windows, points=eps_points) if windows else []
    return _reports(system, trajectory, windows, [(*width, _rhs_rows(system, width[1])) for width in best])


def _reports(system: PreparedSystem, trajectory: Trajectory, windows: list, best: list) -> list:
    """:func:`evaluate_bounds` at the windows from their optimal widths and
    right-hand sides ``best``, one ``(eps, factor, count, rhs_rows)`` per
    window, ``rhs_rows`` the :func:`_rhs_rows` at that factor."""
    deviations = _DEVIATIONS[:3] if system.observable_norm is None else _DEVIATIONS
    times, pops, eq = trajectory.times, trajectory.populations, system.equilibrium
    h = float(np.max(np.diff(times), initial=0.0))
    second = _pointwise_terms(system, system.curvature * h * h / 16, deviations)
    first = _pointwise_terms(system, system.energy_spread * h / 2, deviations)
    jeffreys = _segment_jeffreys(pops) / 8
    triangles = [jeffreys if takes_triangle else 0.0 for *_, takes_triangle in deviations]
    # each report's deviation series
    rows = [0.5 * np.sum(np.abs(pops - eq.populations), axis=-1),
            np.abs(trajectory.shannon - eq.shannon),
            np.abs(trajectory.observational - eq.observational)]
    if len(deviations) == 4:
        rows.append((trajectory.expectation - eq.expectation) ** 2)
    trapezoids = _trapezoids(times, np.stack(rows), windows)
    remainders = _quadrature_remainders(times, h, np.array(windows), second, first, triangles)
    reports = []
    stats = system.gap_stats
    for i, (T, (eps, factor, count, rhs_rows)) in enumerate(zip(windows, best)):
        params = {
            "T": T,
            "eps": eps,
            "factor": factor,
            "eta": rhs_rows[0][0],
            "window_count": count,
            "distinct_count": stats.distinct_count,
            "min_gap": stats.min_gap,
            "outcomes": system.r,
            "d_eff": system.d_eff,
            "dim": system.dim,
        }
        for (name, *_), trapezoid, remainder, (rhs, extra) in zip(deviations, trapezoids[:, i], remainders[:, i],
                                                                   rhs_rows, strict=True):
            trapezoid, remainder = float(trapezoid), float(remainder)
            reports.append(_bounds.BoundReport(
                name=name, lhs=trapezoid + remainder, rhs=rhs,
                parameters={**params, "trapezoid": trapezoid, "quadrature_remainder": remainder, **extra}))
    return reports


def _rhs_rows(system: PreparedSystem, factor: float) -> list:
    """Each report's ``(rhs, extra parameters)`` at an equilibration factor,
    in :data:`_DEVIATIONS` order. The population rhs is the distance bound
    eta, and each entropy rhs is its report's continuity bound at eta."""
    eta = _bounds.population_distance_bound(system.r, system.d_eff, factor)
    population, shannon, observational = _pointwise_terms(system, eta, _DEVIATIONS[:3])
    rows = [(population, {}),
            (shannon, {"rhs_alt_prefactor": _bounds.shannon_deviation_bound(system.r, eta, alt_prefactor=True)}),
            (observational, {})]
    if system.observable_norm is not None:
        rows.append((_bounds.expectation_bound(system.observable_norm, system.d_eff, factor), {}))
    return rows


def window_average(trajectory: Trajectory, values, t0: float, t1: float) -> float:
    """Average over [t0, t1] of a series sampled on the trajectory's grid."""
    if not 0 <= t0 < t1 <= trajectory.span * (1 + _SPAN_RTOL):
        raise ValueError(f"window [{t0}, {t1}] outside the trajectory span")
    high = time_average_scalar(trajectory, values, t1) * t1
    low = time_average_scalar(trajectory, values, t0) * t0 if t0 > 0 else 0.0
    return (high - low) / (t1 - t0)


# ---------------------------------------------------------------------------
# exponential fits


def fit_exponential(points) -> dict:
    """Fit ``value = a exp(b x)`` by linear least squares on ln(value):
    ``{"a", "b", "residual"}``.

    Requires at least three points, at two or more distinct x, with
    positive values; the residual is the rms misfit of ln(value).
    """
    pts = [(float(x), float(v)) for x, v in points]
    if len(pts) < 3 or len({x for x, _ in pts}) < 2:
        raise ValueError("need at least 3 points, at 2 or more distinct x, to fit")
    xs = np.array([p[0] for p in pts])
    vs = np.array([p[1] for p in pts])
    if np.any(vs <= 0):
        raise ValueError("exponential fit needs positive values")
    b, ln_a = np.polyfit(xs, np.log(vs), 1)
    resid = np.log(vs) - (ln_a + b * xs)
    return {"a": float(np.exp(ln_a)), "b": float(b), "residual": float(np.sqrt(np.mean(resid**2)))}


# ---------------------------------------------------------------------------
# experiment configuration


class ConfigError(ValueError):
    """Invalid configuration; carries the offending key."""

    def __init__(self, key: str, message: str):
        self.key = key
        super().__init__(f"config key {key!r}: {message}")


def _require(ok: bool, key: str, message: str):
    if not ok:
        raise ConfigError(key, message)


def _get(raw: dict, dotted: str, convert, default=MISSING):
    """``convert`` applied to the value at a dotted key of ``raw``, or
    ``default`` when the key is absent (an error if there is none); a value
    that does not convert is a ConfigError naming the dotted key."""
    *sections, key = dotted.split(".")
    for section in sections:
        raw = raw.get(section, {})
    if key not in raw:
        _require(default is not MISSING, dotted, "missing required key")
        return default
    try:
        return convert(raw[key])
    except (TypeError, ValueError, OverflowError) as exc:  # an int too large for a float overflows
        raise ConfigError(dotted, str(exc)) from None


def _int(value) -> int:
    """An integer, or a float with an integral value; anything else
    (a fraction, a string, a boolean) is an error, not truncated."""
    integral = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not integral:
        raise TypeError(f"expected an integer, got {value!r}")
    return int(value)


def _float(value) -> float:
    """A finite number; a boolean, a string, a null, a list, a mapping, and
    infinity and NaN (which ``json`` accepts) are an error, not a value a
    run can use."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {value!r}")
    return float(value)


def _str(value) -> str:
    """A string; a number or a list is an error, not formatted."""
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


def _tuple(convert):
    """A list converted entry by entry; a string is not split into characters."""
    def parse(values):
        if not isinstance(values, (list, tuple)):
            raise TypeError(f"expected a list, got {values!r}")
        return tuple(convert(v) for v in values)

    return parse


def _check_windows(key: str, windows, t_max: float = math.inf):
    """Averaging windows must lie in (0, t_max]."""
    _require(all(T > 0 for T in windows), key, "entries must be positive")
    _require(max(windows, default=0.0) <= t_max * (1 + _SPAN_RTOL), key, "entries must not exceed t_max")


def _check_keys(section: str, mapping, allowed: set):
    if not isinstance(mapping, dict):
        raise ConfigError(section, "must be a mapping")
    for key in mapping:
        if key not in allowed:
            raise ConfigError(f"{section}.{key}" if section else key, "unknown configuration key")


def _key(dotted: str, convert, default=MISSING):
    """A config field read from the dotted key ``dotted`` and converted by
    ``convert``; an absent key takes ``default`` (a required key has none)."""
    return field(default=default, metadata={"key": dotted, "convert": convert})


class _Config:
    """Base of the config dataclasses, whose fields (each made by
    :func:`_key`) are the config's schema."""

    @classmethod
    def from_dict(cls, raw: dict):
        """The config of a raw nested dict. Unknown keys and sub-keys are
        rejected, and an absent key takes its field's default."""
        sections = {}
        for f in fields(cls):
            section, _, key = f.metadata["key"].partition(".")
            sections.setdefault(section, set()).update([key] if key else ())
        _check_keys("", raw, set(sections))
        for section, keys in sections.items():
            if keys and section in raw:
                _check_keys(section, raw[section], keys)
        return cls(**{f.name: _get(raw, f.metadata["key"], f.metadata["convert"], f.default)
                      for f in fields(cls)})

    def resolved_dict(self) -> dict:
        """Canonical nested form with every default filled in; parsing it
        back yields an identical configuration (config round-trip contract)."""
        out = {}
        for f in fields(self):
            *sections, key = f.metadata["key"].split(".")
            node = out
            for section in sections:
                node = node.setdefault(section, {})
            value = getattr(self, f.name)
            node[key] = list(value) if isinstance(value, tuple) else value
        return out


# the model sub-keys each kind reads
_MODEL_KEYS = {"tilted_ising": {"kind", "sites", "g", "h", "J"}, "precessing_spin": {"kind", "g"},
               "spin_bath": {"kind", "g", "bath_dim"}}
_MODEL_KINDS = tuple(_MODEL_KEYS)
_AXES = ("x", "y", "z")


@dataclass(kw_only=True)
class ExperimentConfig(_Config):
    """Declarative description of one experiment run. A model key the kind
    does not read stays None; an absent one it reads takes the kind's default."""

    label: str = _key("label", _str, "experiment")
    kind: str = _key("model.kind", _str)
    sites: int | None = _key("model.sites", _int, None)
    g: float | None = _key("model.g", _float, None)
    h: float | None = _key("model.h", _float, None)
    J: float | None = _key("model.J", _float, None)
    bath_dim: int | None = _key("model.bath_dim", _int, None)
    axis: str = _key("observable.axis", _str, "z")
    t_max: float = _key("times.t_max", _float, 100.0)
    dt: float | None = _key("times.dt", lambda dt: None if dt is None else _float(dt), None)
    average_grid: tuple = _key("average_grid", _tuple(_float), (10.0, 25.0, 50.0, 100.0))
    fluctuation_window: float = _key("fluctuation.window", _float, 1.0e4)
    fluctuation_count: int = _key("fluctuation.count", _int, 10_000)
    seed: int = _key("seed", _int, 0)

    def __post_init__(self):
        # the label becomes part of the output file names
        _require(self.label not in ("", ".", "..") and not any(c in self.label for c in "/\\\0"),
                 "label", "must be a file name part: non-empty, not '.' or '..', no '/', '\\' or NUL")
        kind = self.kind
        _require(kind in _MODEL_KINDS, "model.kind", f"must be one of {_MODEL_KINDS}, got {kind!r}")
        for f in fields(self):
            if f.metadata["key"].startswith("model.") and f.name not in _MODEL_KEYS[kind]:
                _require(getattr(self, f.name) is None, f.metadata["key"], f"not read by model kind {kind!r}")
        if kind == "tilted_ising":
            _require(self.sites is not None, "model.sites", "required for tilted_ising")
            _require(self.sites >= 2, "model.sites", "must be >= 2")
            _check_cap(self.sites)
            for key in "ghJ":  # an absent coupling takes its SpinChainParams default
                if getattr(self, key) is None:
                    setattr(self, key, getattr(SpinChainParams, key))
            _require(any((self.g, self.h, self.J)), "model", "g, h and J are all zero: H = 0 has no dynamics")
            _require(self.axis in _AXES, "observable.axis", f"must be one of {_AXES}")
        else:
            # the analytic models carry their own observable, sigma_z
            _require(self.axis == "z", "observable.axis", f"model kind {kind!r} measures sigma_z: must be 'z'")
            self.g = 1.0 if self.g is None else self.g
            _require(self.g != 0, "model.g", "must be nonzero")
        if kind == "spin_bath":
            self.bath_dim = 4 if self.bath_dim is None else self.bath_dim
            _require(self.bath_dim >= 1, "model.bath_dim", "must be >= 1")
            _check_bath_cap(self.bath_dim)
        _require(self.t_max > 0, "times.t_max", "must be positive")
        _require(self.dt is None or self.dt > 0, "times.dt", "must be positive")
        _check_windows("average_grid", self.average_grid, self.t_max)
        _require(self.fluctuation_window > 0, "fluctuation.window", "must be positive")
        _require(self.fluctuation_count >= 1, "fluctuation.count", "must be >= 1")
        _require(self.seed >= 0, "seed", "must be >= 0")

    def resolved_dict(self) -> dict:
        out = super().resolved_dict()
        # only the model keys the kind reads, each with its value or default
        out["model"] = {key: value for key, value in out["model"].items() if key in _MODEL_KEYS[self.kind]}
        return out


def build_system(config: ExperimentConfig) -> PreparedSystem:
    """Construct the model, measurement and initial state of a config."""
    if config.kind == "tilted_ising":
        return chain_system(SpinChainParams(config.sites, config.g, config.h, config.J), config.axis)
    # a precessing_spin is a spin_bath with a one-state bath
    ham, initial, obs = spin_bath(config.g, config.bath_dim or 1)
    return prepare_system(ham, obs, initial)


# ---------------------------------------------------------------------------
# experiment driver


def execute_experiment(config: ExperimentConfig):
    """Run one configured experiment end to end.

    Builds and diagonalizes the model, samples the trajectory and the
    fluctuations on two shared workers, evaluates every inequality
    on the averaging grid, and records the initial-versus-equilibrium
    entropy data. Nothing is written to disk; the CLI layer handles
    persistence.

    Returns ``(report, system, trajectory)``, where ``report`` is the JSON
    object ``simulate`` writes.
    """
    # imported here, not with the module: concurrent.futures loads
    # logging, and every subcommand's start-up would pay for it
    from concurrent.futures import ThreadPoolExecutor

    system = build_system(config)
    # the caches are built here, before the pool: the threads only read them
    system.equilibrium
    dt = config.dt if config.dt is not None else default_time_step(system.curvature)
    times = time_grid(config.t_max, dt)
    # Both propagations run their chunks on one two-worker pool. The
    # trajectory goes first, on both workers; then a task holds one worker
    # while the stages that need only the trajectory run here, and the
    # sample's chunks queue behind it from a second thread. So two threads
    # work until the last chunk, with at most two chunk sets live. Each chunk
    # only reads the system and keeps its GEMM shape, so the results keep
    # their bytes. A failure cancels every chunk not yet started.
    with ThreadPoolExecutor(max_workers=2) as chunks, ThreadPoolExecutor(max_workers=1) as side:
        tail_done = threading.Event()
        # a context runs on one thread at a time: here, then on the side thread
        pooled = contextvars.copy_context()
        pooled.run(_chunk_map.set, chunks.map)
        try:
            trajectory = pooled.run(compute_trajectory, system, times)
            chunks.submit(tail_done.wait)
            sample = side.submit(pooled.run, fluctuation_checks, system,
                                 config.fluctuation_window, config.fluctuation_count, config.seed)
            report = _trajectory_report(config, system, trajectory, dt)
            tail_done.set()
            checks, fluctuations = sample.result()
        except BaseException:
            tail_done.set()
            chunks.shutdown(cancel_futures=True)
            raise
    report["bounds"].extend(rep.to_json_dict() for rep in checks)
    report["fluctuations"] = fluctuations
    return report, system, trajectory


def _trajectory_report(config: ExperimentConfig, system: PreparedSystem, trajectory: Trajectory,
                       dt: float) -> dict:
    """The report of an experiment, short of its fluctuation checks."""
    reports = evaluate_bounds(system, trajectory, config.average_grid)
    reports.append(_bounds.average_entropy_check(trajectory, system.equilibrium.populations, config.t_max))

    # evaluate_bounds has rejected measurements with fewer than two outcomes
    r = system.r

    late_start = 0.75 * config.t_max
    late_sel = trajectory.times >= late_start
    late_band = float(np.max(np.abs(trajectory.shannon[late_sel] - system.equilibrium.shannon)))
    initial_shannon = float(trajectory.shannon[0])
    eq_shannon = system.equilibrium.shannon
    past_hypothesis = {
        "initial_shannon": initial_shannon,
        "equilibrium_shannon": eq_shannon,
        "ratio": initial_shannon / eq_shannon if eq_shannon > 0 else None,
        "late_band": late_band,
        "within_late_band": abs(initial_shannon - eq_shannon) <= late_band,
    }

    oracle = None
    if config.kind != "tilted_ising":
        # the analytic models' closed-form populations (cos^2 gt, sin^2 gt)
        up = np.cos(config.g * trajectory.times) ** 2
        err = float(np.max(np.abs(trajectory.populations - np.column_stack([up, 1.0 - up]))))
        oracle = {"max_population_error": err, "passed": err <= 1e-8}

    trajectory_summary = {
        "samples": int(len(trajectory.times)),
        "dt": float(dt),
        "t_max": float(config.t_max),
        "shannon_initial": initial_shannon,
        "shannon_min": float(trajectory.shannon.min()),
        "shannon_max": float(trajectory.shannon.max()),
        "boltzmann_variance": float(np.var(trajectory.boltzmann)),
        "late_band": late_band,
    }
    system_info = {
        "kind": config.kind,
        "dim": system.dim,
        "outcomes": r,
        "multiplicities": [float(v) for v in system.measurement.multiplicities],
        "values": [float(v) for v in system.measurement.values]
        if system.measurement.values is not None else None,
        "distinct_count": system.gap_stats.distinct_count,
        "min_gap": system.gap_stats.min_gap,
        "spectral_range": system.decomposition.spectral_range,
        "d_eff": system.d_eff,
        "energy_spread": system.energy_spread,
        "eta_infinite": _rhs_rows(system, 1.0)[0][0],
        **_asymptotic_bounds(system),
        "delta_applicable": system.gap_stats.degenerate_gap_multiplicity() <= 1,
    }
    equilibrium = {
        "populations": [float(p) for p in system.equilibrium.populations],
        "expectation": system.equilibrium.expectation,
        "shannon": system.equilibrium.shannon,
        "observational": system.equilibrium.observational,
        "boltzmann": system.equilibrium.boltzmann,
    }
    return {
        "label": config.label,
        "config": config.resolved_dict(),
        "system": system_info,
        "equilibrium": equilibrium,
        "past_hypothesis": past_hypothesis,
        "trajectory_summary": trajectory_summary,
        "bounds": [rep.to_json_dict() for rep in reports],
        "oracle": oracle,
    }


# ---------------------------------------------------------------------------
# chain-length sweep


@dataclass(kw_only=True)
class SweepConfig(_Config):
    """The chain lengths, time span, late-time window and measured axis of
    one chain-length sweep."""

    sites: tuple = _key("sites", _tuple(_int), (5, 6, 7, 8, 9))
    t_max: float = _key("t_max", _float, 100.0)
    late_window: tuple = _key("late_window", _tuple(_float), (50.0, 80.0))
    axis: str = _key("axis", _str, "z")

    def __post_init__(self):
        _require(len(set(self.sites)) == len(self.sites) >= 3 and min(self.sites) >= 2, "sites",
                 "the fits need at least 3 distinct chain lengths, each >= 2")
        for n in self.sites:
            _check_cap(n)
        late = self.late_window
        _require(len(late) == 2 and 0 <= late[0] < late[1] <= self.t_max, "late_window",
                 "must be [t0, t1] with 0 <= t0 < t1 <= t_max")
        _require(self.axis in _AXES, "axis", f"must be one of {_AXES}")


def sweep_chain_lengths(config: SweepConfig) -> dict:
    """Sweep the chain length and collect the scaling data: ``rows`` holds
    the per-N effective dimension, asymptotic bounds, and late-time-averaged
    entropy deviation; ``fits`` the exponential fits of both curves, as
    ``sweep`` writes them."""
    rows = []
    for n in config.sites:
        system = chain_system(SpinChainParams(sites=int(n)), config.axis)
        dt = default_time_step(system.curvature)
        trajectory = compute_trajectory(system, time_grid(config.t_max, dt))
        deviation = np.abs(trajectory.shannon - system.equilibrium.shannon)
        late = window_average(trajectory, deviation, *config.late_window)
        rows.append({
            "sites": int(n),
            "dim": system.dim,
            "outcomes": system.r,
            "d_eff": system.d_eff,
            **_asymptotic_bounds(system),
            "late_abs_dev": late,
        })
    lengths = [row["sites"] for row in rows]
    deltas = [row["delta"] for row in rows]
    lates = [row["late_abs_dev"] for row in rows]
    fits = {
        "late_window": list(config.late_window),
        "delta_fit": fit_exponential(zip(lengths, deltas)),
        "late_fit": fit_exponential(zip(lengths, lates)),
        "delta_inversions": _count_inversions(deltas),
        "late_inversions": _count_inversions(lates),
    }
    return {"rows": rows, "fits": fits}


def _count_inversions(values) -> int:
    """Number of upward steps in a nominally decreasing sequence."""
    return int(sum(1 for a, b in zip(values, values[1:]) if b > a))
