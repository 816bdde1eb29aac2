"""Verification driver: runs every inequality the package implements
against freshly generated systems and randomized inputs, and reports one
:class:`~qeqlab.bounds.BoundReport` per check.

The randomized suites draw their cases in blocks, each block from its own
generator spawned from the seeded one, so a verification run is
reproducible bit for bit and a block's cases do not depend on which other
blocks are drawn. The Shannon suite draws blocks of 64 distribution pairs
as one array; the observational, von Neumann and POVM suites draw one
shape per block of 8 cases as one stack, in which each case gives what it
gives as a stack of one. The observational and von Neumann suites
evaluate the block as one stack too; the POVM suite evaluates each system
alone and propagates only the systems whose lhs could change its report.
:func:`run_verification` splits the run between its process and one
forked worker; each process draws and evaluates alternate systems and
blocks, and the parent merges the results back into case order, so every
report equals that of the one-process run.
"""

from __future__ import annotations

import contextvars
import math
import os
import pickle
import sys
from dataclasses import dataclass
from functools import partial
from itertools import chain

import numpy as np

from . import bounds as _bounds
from .dynamics import finite_time_average_state, equilibrium_state, default_time_step
from .entropy import observational_entropy, shannon_entropy, von_neumann_entropy
from .harness import (
    _ceiling_certificates,
    _check_windows,
    _Config,
    _float,
    _int,
    _key,
    _prepared,
    _reports,
    _require,
    _rhs_rows,
    _tuple,
    chain_system,
    compute_trajectory,
    evaluate_bounds,
    fluctuation_checks,
    time_grid,
)
from .linalg import _decompositions, trace_norm
from .measurement import (
    Measurement,
    _povms_from_factors,
    _pvm_from_decomposition,
    _vector_weights,
    clamp_populations,
    population_distance,
    povm_from_factors,
)
from .models import DensityMatrix, PureState, SpinChainParams, _check_cap
# not called here: perfbench/tracing.py looks these names up on this module
from .harness import prepare_system, sample_deviations
from .measurement import pvm_from_observable
from .models import all_down_state, bulk_magnetization, tilted_ising_chain

__all__ = [
    "VerifyConfig",
    "observational_continuity_suite",
    "povm_equilibration_suite",
    "random_density_matrix",
    "random_povm",
    "run_verification",
    "shannon_continuity_suite",
    "time_averaged_state_suite",
    "von_neumann_continuity_suite",
]


# Fixed shapes of the randomized suites (largest outcome count and dimension
# drawn, POVM averaging window and epsilon grid, and the cases per block of
# one shape); the reports record them.
_SHANNON_MAX_OUTCOMES = 64
_OBSERVATIONAL_MAX_DIM = 32
_VON_NEUMANN_MAX_DIM = 16
_POVM_MAX_DIM = 32
_POVM_MAX_OUTCOMES = 8
_POVM_WINDOW = 10.0
_POVM_EPS_POINTS = 16


@dataclass(kw_only=True)
class VerifyConfig(_Config):
    """Knob set for one verification run."""

    sites: tuple = _key("sites", _tuple(_int), (5, 6, 7, 8, 9))
    average_grid: tuple = _key("average_grid", _tuple(_float), (10.0, 25.0, 50.0, 100.0))
    t_max: float = _key("t_max", _float, 100.0)
    fluctuation_sites: int = _key("fluctuation.sites", _int, 7)
    fluctuation_window: float = _key("fluctuation.window", _float, 1.0e4)
    fluctuation_count: int = _key("fluctuation.count", _int, 10_000)
    averaged_state_sites: tuple = _key("averaged_state.sites", _tuple(_int), (2, 3, 4, 5, 6))
    averaged_state_windows: tuple = _key("averaged_state.windows", _tuple(_float), (1.0e2, 1.0e3, 1.0e4))
    shannon_pairs: int = _key("suites.shannon_pairs", _int, 10_000)
    observational_cases: int = _key("suites.observational_cases", _int, 1_000)
    von_neumann_cases: int = _key("suites.von_neumann_cases", _int, 1_000)
    povm_cases: int = _key("suites.povm_cases", _int, 1_000)
    seed: int = _key("seed", _int, 0)

    def __post_init__(self):
        for key, sites in (("sites", self.sites), ("fluctuation.sites", [self.fluctuation_sites]),
                           ("averaged_state.sites", self.averaged_state_sites)):
            _require(min(sites, default=2) >= 2, key, "chains need at least 2 sites")
            for n in sites:
                _check_cap(n)
        _require(self.t_max > 0, "t_max", "must be positive")
        _check_windows("average_grid", self.average_grid, self.t_max)
        _check_windows("averaged_state.windows", self.averaged_state_windows)
        _require(self.fluctuation_window > 0, "fluctuation.window", "must be positive")
        for key, count in (("fluctuation.count", self.fluctuation_count),
                           ("suites.shannon_pairs", self.shannon_pairs),
                           ("suites.observational_cases", self.observational_cases),
                           ("suites.von_neumann_cases", self.von_neumann_cases),
                           ("suites.povm_cases", self.povm_cases)):
            _require(count >= 1, key, "must be >= 1")
        _require(self.seed >= 0, "seed", "must be >= 0")


# ---------------------------------------------------------------------------
# random inputs
#
# Each ``_*`` generator draws a stack of n inputs in one call per kind of
# draw; a public ``random_*`` helper is a stack of one, and draws the
# numbers it drew as a single input.


def _ginibre(rng, n: int, *shape) -> np.ndarray:
    """``n`` complex Gaussian arrays of ``shape``, each drawn real part first."""
    pair = rng.normal(size=(n, 2, *shape))
    out = np.empty((n, *shape), dtype=complex)
    out.real, out.imag = pair[:, 0], pair[:, 1]
    return out


def _dagger(stack: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix of a stack."""
    return np.swapaxes(stack.conj(), -1, -2)


def _density_matrices(rng, n: int, dim: int, rank: int) -> np.ndarray:
    """``n`` Haar-ish random mixed states of one rank, (n, dim, dim), from
    Ginibre factors."""
    G = _ginibre(rng, n, dim, rank)
    rho = G @ _dagger(G)
    return rho / np.trace(rho, axis1=1, axis2=2).real[:, None, None]


def random_density_matrix(rng, dim: int, rank: int | None = None):
    """Haar-ish random mixed state from a Ginibre factor."""
    return DensityMatrix(_density_matrices(rng, 1, dim, rank or dim)[0])


def _hermitians(rng, n: int, dim: int) -> np.ndarray:
    G = _ginibre(rng, n, dim, dim)
    return (G + _dagger(G)) / 2


def random_hermitian(rng, dim: int) -> np.ndarray:
    return _hermitians(rng, 1, dim)[0]


def _pure_states(rng, n: int, dim: int) -> np.ndarray:
    v = _ginibre(rng, n, dim)
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def random_pure_state(rng, dim: int) -> PureState:
    return PureState(_pure_states(rng, 1, dim)[0])


def _povm_factors(G: np.ndarray) -> np.ndarray:
    """Square-root factors (n, outcomes, dim, dim) of random POVMs from a
    stack of Ginibre matrices of the same shape: the positive pieces
    ``G_i G_i^dag`` whitened to sum to 1. The factors are ``G_i^dag W`` with
    ``W = (sum_i G_i G_i^dag)^(-1/2)``, so the effects are ``W G_i G_i^dag W``."""
    G_dag = _dagger(G)
    w, V = np.linalg.eigh(np.sum(G @ G_dag, axis=1))
    inv_sqrt = (V * (1.0 / np.sqrt(w))[:, None, :]) @ _dagger(V)
    return G_dag @ inv_sqrt[:, None]


def random_povm(rng, dim: int, outcomes: int) -> Measurement:
    """Random POVM (:func:`_povm_factors`)."""
    return povm_from_factors(_povm_factors(_ginibre(rng, outcomes, dim, dim)[None])[0])


def _partition_pvms(rng, n: int, dim: int, outcomes: int) -> list:
    """``n`` PVMs with multi-dimensional eigenspaces: random orthonormal
    bases, each split into random contiguous groups."""
    values = np.arange(outcomes, 0, -1, dtype=float)  # descending, arbitrary labels
    pvms = []
    for basis in np.linalg.qr(_ginibre(rng, n, dim, dim)).Q:
        cuts = np.sort(rng.choice(np.arange(1, dim), size=outcomes - 1, replace=False))
        edges = np.concatenate([[0], cuts, [dim]])
        slices = tuple(slice(int(a), int(b)) for a, b in zip(edges[:-1], edges[1:]))
        pvms.append(Measurement(values=values, basis=basis, outcome_slices=slices))
    return pvms


def random_partition_pvm(rng, dim: int, outcomes: int) -> Measurement:
    """PVM with multi-dimensional eigenspaces (:func:`_partition_pvms`)."""
    return _partition_pvms(rng, 1, dim, outcomes)[0]


# ---------------------------------------------------------------------------
# randomized suites (each returns a single summarizing report)
#
# A suite's case generator ``_*_cases(rng, start, stop)`` draws the cases
# ``start`` to ``stop - 1`` of one block from the block's own generator
# (:func:`_blocks`) and yields their ``(lhs, rhs)`` pairs in case order.
# The Shannon suite draws a block of pairs as one array. Every other suite
# draws one shape per block, its dimension and outcome count (the rank of
# the mixed states for the von Neumann suite), and draws the block's cases
# as one stack; each case gives what it gives as a stack of one. The POVM
# suite then evaluates each system alone (_povm_pairs).

# Cases per block of the Shannon suite, and of each suite drawn by shape.
# 1000 cases of the POVM suite spread over about 200 (dimension, outcomes)
# pairs, so a block of 64 grouped by shape would rarely stack two cases; a
# shape drawn per block of 8 stacks 8, and a POVM block at the largest
# shape peaks at about 5.7 MiB (tracemalloc), below a chain unit's 8.3 MiB.
_BLOCK = 64
_SHAPE_BLOCK = 8


def _suite_report(name: str, cases, extra: dict) -> _bounds.BoundReport:
    """One report of a suite's ``(lhs, rhs)`` cases: the worst case (the
    first with the largest ``lhs - rhs``), the number of cases and the
    number that violate ``lhs <= rhs + ATOL_BOUND``."""
    worst = None
    count = violations = 0
    for lhs, rhs in cases:
        count += 1
        violations += int(lhs > rhs + _bounds.ATOL_BOUND)
        if worst is None or lhs - rhs > worst[0] - worst[1]:
            worst = (lhs, rhs)
    params = {"cases": count, "violations": violations, **extra}
    return _bounds.BoundReport(name=name, lhs=worst[0], rhs=worst[1], parameters=params)


def _shannon_block(rng, n: int) -> tuple:
    """``n`` random distribution pairs and their entropy differences and
    distances, as arrays: the outcome counts ``r``, the pairs ``pq`` of
    shape ``(n, 2, _SHANNON_MAX_OUTCOMES)`` (zero past ``r``), ``|S(p) - S(q)|``
    and ``population_distance(p, q)``. Each row is a row of standard
    exponentials normalized to sum to 1, which is Dirichlet(1, ..., 1)."""
    r = rng.integers(2, _SHANNON_MAX_OUTCOMES + 1, size=n)
    pq = rng.standard_exponential((n, 2, _SHANNON_MAX_OUTCOMES))
    pq *= np.arange(_SHANNON_MAX_OUTCOMES) < r[:, None, None]
    pq /= pq.sum(axis=2, keepdims=True)
    entropy = shannon_entropy(pq)
    return r, pq, np.abs(entropy[:, 0] - entropy[:, 1]), population_distance(pq[:, 0], pq[:, 1])


def _shannon_cases(rng, start: int, stop: int):
    r, _, diffs, distances = _shannon_block(rng, stop - start)
    for outcomes, diff, eta in zip(r.tolist(), diffs.tolist(), distances.tolist()):
        yield diff, _bounds.shannon_deviation_bound(outcomes, eta)


def _observational_cases(rng, start: int, stop: int):
    """Cases alternate by index: a nondegenerate observable's PVM (even),
    a coarse partition PVM (odd); each measures two random mixed states."""
    dim = int(rng.integers(2, _OBSERVATIONAL_MAX_DIM + 1))
    outcomes = int(rng.integers(2, min(dim, 8) + 1))
    n = stop - start
    # a block starts at an even index, so its even cases come first
    fine = [_pvm_from_decomposition(decomp) for decomp in _decompositions(_hermitians(rng, (n + 1) // 2, dim))]
    measurements = _interleave(fine, _partition_pvms(rng, n // 2, dim, outcomes))
    states = _density_matrices(rng, 2 * n, dim, dim).reshape(n, 2, dim, dim)
    weights = _vector_weights(np.stack([m.basis for m in measurements])[:, None], states)
    yield from _observational_pairs(dim, measurements, [m.outcome_sums(w) for m, w in zip(measurements, weights)])


def _observational_pairs(dim: int, measurements: list, pairs: list) -> list:
    """``(|S_obs(p) - S_obs(q)|, bound)`` per case, from each case's
    unclamped population pair (2, r); the cases of one outcome count
    are evaluated as one stack."""
    out = [None] * len(pairs)
    for r in sorted({pair.shape[-1] for pair in pairs}):
        cases = [i for i, pair in enumerate(pairs) if pair.shape[-1] == r]
        pops = clamp_populations(np.stack([pairs[i] for i in cases]))
        entropy = observational_entropy(pops, np.stack([measurements[i].multiplicities for i in cases])[:, None])
        lhs = np.abs(entropy[:, 0] - entropy[:, 1])
        for i, diff, eta in zip(cases, lhs.tolist(), population_distance(pops[:, 0], pops[:, 1]).tolist()):
            out[i] = (diff, _bounds.observational_deviation_bound(dim, eta))
    return out


def _von_neumann_cases(rng, start: int, stop: int):
    """Every case draws a full-rank state; every third case (by index)
    compares it with a pure state, the others with a mixed state of the
    block's rank."""
    dim = int(rng.integers(2, _VON_NEUMANN_MAX_DIM + 1))
    rank = int(rng.integers(1, dim + 1))
    pure = np.array([k % 3 == 0 for k in range(start, stop)])
    rho = _density_matrices(rng, len(pure), dim, dim)
    psi = _pure_states(rng, int(pure.sum()), dim)
    sigma = np.empty_like(rho)
    sigma[pure] = psi[:, :, None] * psi.conj()[:, None, :]
    sigma[~pure] = _density_matrices(rng, int((~pure).sum()), dim, rank)
    yield from _von_neumann_pairs(rho, sigma)


def _von_neumann_pairs(rho: np.ndarray, sigma: np.ndarray) -> list:
    """``(|S(rho) - S(sigma)|, bound)`` per pair of a stack of state pairs."""
    dim = rho.shape[-1]
    entropy = von_neumann_entropy(np.stack([rho, sigma], axis=1).reshape(-1, dim, dim)).reshape(-1, 2)
    distance = 0.5 * trace_norm(rho - sigma)
    return [(diff, _bounds.von_neumann_deviation_bound(dim, t))
            for diff, t in zip(np.abs(entropy[:, 0] - entropy[:, 1]).tolist(), distance.tolist())]


def _povm_systems(rng, n: int, dim: int, outcomes: int) -> list:
    """``n`` prepared random systems of one shape: a random Hamiltonian
    measured through a random POVM, started in a random pure state."""
    hamiltonians = _hermitians(rng, n, dim)
    povms = _povms_from_factors(_povm_factors(_ginibre(rng, n * outcomes, dim, dim).reshape(n, outcomes, dim, dim)))
    states = _pure_states(rng, n, dim)
    return [_prepared(decomp, povm, PureState(state))
            for decomp, povm, state in zip(_decompositions(hamiltonians), povms, states)]


def _settled(ceilings: list, rhs: list, floor: float) -> bool:
    """Whether a system's pairs need no lhs: each certified ceiling U is at
    most its rhs + ``ATOL_BOUND`` and falls short of ``floor`` by U - rhs,
    so the pair can be neither a violation nor the suite's worst case."""
    return all(u <= b + _bounds.ATOL_BOUND and u - b < floor for u, b in zip(ceilings, rhs))


def _povm_pairs(system, floor: float) -> list:
    """The ``(lhs, rhs)`` pairs of one random POVM system at the window.

    Its optimal width and rhs come first. A system that its ceiling
    certificates (:func:`~qeqlab.harness._ceiling_certificates`) settle
    against ``floor`` (:func:`_settled`) is not propagated; its pairs are
    ``(U, rhs)``, which give the suite's report what the lhs would."""
    grid = time_grid(_POVM_WINDOW, default_time_step(system.curvature))
    width = _bounds.optimal_epsilon(system.gap_stats, [_POVM_WINDOW], _POVM_EPS_POINTS)[0]
    rows = _rhs_rows(system, width[1])
    rhs = [rhs for rhs, _ in rows]
    ceilings = _ceiling_certificates(system, grid)
    if _settled(ceilings, rhs, floor):
        return list(zip(ceilings, rhs))
    reports = _reports(system, compute_trajectory(system, grid), [_POVM_WINDOW], [(*width, rows)])
    return [(report.lhs, report.rhs) for report in reports]


def _povm_block(rng, n: int, dim: int, outcomes: int) -> list:
    """The ``(lhs, rhs)`` pairs of ``n`` random POVM systems of one shape,
    each system's at the block's floor (:data:`_floor`)."""
    floor = _floor.get()
    return [pair for system in _povm_systems(rng, n, dim, outcomes) for pair in _povm_pairs(system, floor)]


def _povm_cases(rng, start: int, stop: int):
    dim = int(rng.integers(4, _POVM_MAX_DIM + 1))
    outcomes = int(rng.integers(2, _POVM_MAX_OUTCOMES + 1))
    yield from _povm_block(rng, stop - start, dim, outcomes)


# The largest lhs - rhs among the pairs of a suite's earlier blocks of the
# parity (b % 2) of the block being drawn, -inf before the first; the POVM
# cases read it (_povm_block). The blocks of one parity are the blocks one
# share evaluates, so a share's pairs equal the one-process run's.
_floor = contextvars.ContextVar("_floor", default=-math.inf)


def _blocks(suite, rng, count: int, size: int, first: int = 0, step: int = 1) -> list:
    """The ``(lhs, rhs)`` pairs of blocks ``first``, ``first + step``, ...
    of case generator ``suite`` run on ``count`` cases in blocks of
    ``size``, one list per block, each drawn at its parity's
    :data:`_floor`. Every block's generator is spawned from ``rng``, in
    block order, so a block draws the same cases whichever blocks are
    evaluated."""
    streams = rng.spawn(-(-count // size))
    floors = [-math.inf, -math.inf]
    blocks = []
    for b in range(first, len(streams), step):
        token = _floor.set(floors[b % 2])
        try:
            pairs = list(suite(streams[b], b * size, min(count, (b + 1) * size)))
        finally:
            _floor.reset(token)
        floors[b % 2] = max([floors[b % 2], *(lhs - rhs for lhs, rhs in pairs)])
        blocks.append(pairs)
    return blocks


def _report(suite, count: int, blocks) -> _bounds.BoundReport:
    """The report of case generator ``suite`` run on ``count`` cases, from
    its per-block pair lists ``blocks`` in block order."""
    name, extra = {
        _shannon_cases: ("shannon_continuity_suite", {"max_outcomes": _SHANNON_MAX_OUTCOMES}),
        _observational_cases: ("observational_continuity_suite",
                               {"max_dim": _OBSERVATIONAL_MAX_DIM, "shape_block": _SHAPE_BLOCK}),
        _von_neumann_cases: ("von_neumann_continuity_suite",
                             {"max_dim": _VON_NEUMANN_MAX_DIM, "shape_block": _SHAPE_BLOCK}),
        _povm_cases: ("povm_equilibration_suite",
                      {"systems": count, "max_dim": _POVM_MAX_DIM, "max_outcomes": _POVM_MAX_OUTCOMES,
                       "window": _POVM_WINDOW, "shape_block": _SHAPE_BLOCK}),
    }[suite]
    if count < 1:
        raise ValueError(f"{name}: count must be >= 1, got {count}")
    return _suite_report(name, chain.from_iterable(blocks), extra)


def shannon_continuity_suite(rng, pairs: int) -> _bounds.BoundReport:
    """|S(p) - S(q)| against the distribution continuity bound on random
    distribution pairs."""
    return _report(_shannon_cases, pairs, _blocks(_shannon_cases, rng, pairs, _BLOCK))


def observational_continuity_suite(rng, cases: int) -> _bounds.BoundReport:
    """Observational-entropy continuity on random state pairs sharing a
    measurement; alternates nondegenerate and coarse measurements."""
    return _report(_observational_cases, cases, _blocks(_observational_cases, rng, cases, _SHAPE_BLOCK))


def von_neumann_continuity_suite(rng, cases: int) -> _bounds.BoundReport:
    """von Neumann entropy difference against the trace-distance bound."""
    return _report(_von_neumann_cases, cases, _blocks(_von_neumann_cases, rng, cases, _SHAPE_BLOCK))


def povm_equilibration_suite(rng, cases: int) -> _bounds.BoundReport:
    """Population equilibration (and the entropy bounds it implies) for
    random Hamiltonians measured through random POVMs."""
    return _report(_povm_cases, cases, _blocks(_povm_cases, rng, cases, _SHAPE_BLOCK))


def time_averaged_state_suite(sites, windows) -> list:
    """Finite-time-averaged states against the dephasing rate: trace-norm
    convergence and von Neumann entropy continuity, per chain size and
    averaging window.

    Each chain comes from :func:`~qeqlab.harness.chain_system`: the
    all-down state never leaves the reflection-even sector, so the states
    are compared as dense m x m matrices there. The isometry P onto the
    sector preserves trace distances and von Neumann entropies, and the
    rate ``2 sqrt(m) / (min_gap T)`` is that of the m-dimensional dynamics,
    with the sector's smallest gap. A report's ``dim`` is therefore m, the
    dimension the state lives in, not the chain's 2**N."""
    reports = []
    for n in sites:
        n = int(n)
        system = chain_system(SpinChainParams(sites=n))
        decomp = system.decomposition
        omega = equilibrium_state(decomp, system.initial)
        s_omega = von_neumann_entropy(omega)
        min_gap = system.gap_stats.min_gap
        dim = decomp.dim
        for T in map(float, windows):
            avg = finite_time_average_state(decomp, system.initial, T)
            params = {"system": f"avg_state_{n}", "sites": n, "dim": dim, "T": T, "min_gap": min_gap}
            # theta bounds the full trace norm, so theta / 2 the trace distance
            theta = 2.0 * math.sqrt(dim) / (min_gap * T)
            reports.append(_bounds.BoundReport(
                name="averaged_state_distance",
                lhs=trace_norm(avg.matrix - omega.matrix),
                rhs=theta,
                parameters=dict(params),
            ))
            reports.append(_bounds.BoundReport(
                name="averaged_state_entropy",
                lhs=abs(von_neumann_entropy(avg) - s_omega),
                rhs=_bounds.von_neumann_deviation_bound(dim, theta / 2),
                parameters=dict(params),
            ))
    return reports


# ---------------------------------------------------------------------------
# full run


def _named(name: str, reports: list) -> list:
    for report in reports:
        report.parameters["system"] = name
    return reports


def _chain_reports(config: VerifyConfig, n: int) -> list:
    system = chain_system(SpinChainParams(sites=int(n)))
    dt = default_time_step(system.curvature)
    trajectory = compute_trajectory(system, time_grid(config.t_max, dt))
    checks = evaluate_bounds(system, trajectory, config.average_grid)
    jensen = _bounds.average_entropy_check(trajectory, system.equilibrium.populations, config.t_max)
    return _named(f"chain_{n}", checks + [jensen])


def _fluctuation_reports(config: VerifyConfig) -> list:
    n = config.fluctuation_sites
    system = chain_system(SpinChainParams(sites=int(n)))
    checks, _ = fluctuation_checks(system, config.fluctuation_window, config.fluctuation_count,
                                   config.seed)
    return _named(f"fluct_{n}", checks)


# The randomized suites in spawn order, each with the config field counting
# its cases and its cases per block.
_SUITES = ((_shannon_cases, "shannon_pairs", _BLOCK),
           (_observational_cases, "observational_cases", _SHAPE_BLOCK),
           (_von_neumann_cases, "von_neumann_cases", _SHAPE_BLOCK),
           (_povm_cases, "povm_cases", _SHAPE_BLOCK))


def _share(config: VerifyConfig, rank: int) -> tuple:
    """Share ``rank`` (0 or 1) of a run: the reports of every unit (each
    chain, the fluctuation chain, each averaged-state chain, in report
    order) whose index k has ``k % 2 == rank``, and the per-block pairs of
    every suite block whose index b has ``b % 2 == rank``."""
    units = ([partial(_chain_reports, config, n) for n in config.sites]
             + [partial(_fluctuation_reports, config)]
             + [partial(time_averaged_state_suite, [n], config.averaged_state_windows)
                for n in config.averaged_state_sites])
    rng = np.random.default_rng(config.seed)
    return ([unit() for unit in units[rank::2]],
            [_blocks(suite, rng, getattr(config, count), size, rank, 2) for suite, count, size in _SUITES])


def _interleave(first: list, second: list) -> list:
    """Shares 0 and 1 of a sequence merged back into index order."""
    merged = first + second
    merged[0::2], merged[1::2] = first, second
    return merged


def _worker(config: VerifyConfig, read_end: int, write_end: int):
    """The forked worker: evaluates share 1, pickles it down the pipe and
    leaves with ``os._exit``, with status 0 only once it is written."""
    status = 1
    try:
        os.close(read_end)
        with os.fdopen(write_end, "wb") as pipe:
            pickle.dump(_share(config, 1), pipe, protocol=pickle.HIGHEST_PROTOCOL)
        status = 0
    except BaseException:
        import traceback

        traceback.print_exc()
        sys.stderr.flush()
        raise
    finally:  # never returns into the caller's code, whatever was raised
        os._exit(status)


def run_verification(config: VerifyConfig) -> list:
    """Run the complete inequality suite and return all reports.

    The run forks one worker. This process evaluates share 0 and the worker
    share 1 (:func:`_share`), and the shares merge back into unit and case
    order, so the reports equal those of the whole run in one process. The
    worker is reaped before this returns or raises; it is killed first if
    this process's share raises, and a worker that fails raises here.

    ``fork`` copies only the calling thread, so the caller should run no
    other threads; OpenBLAS stops its own in its fork handler."""
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        _worker(config, read_end, write_end)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as pipe:
        try:
            mine = _share(config, 0)
            theirs = pipe.read()
        except BaseException:
            import signal

            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code != 0:
        raise RuntimeError(f"the verification worker exited with code {code}")
    (my_units, my_suites), (their_units, their_suites) = mine, pickle.loads(theirs)
    reports = [report for unit in _interleave(my_units, their_units) for report in unit]
    for (suite, count, _), first, second in zip(_SUITES, my_suites, their_suites):
        reports.append(_report(suite, getattr(config, count), _interleave(first, second)))
    return reports
