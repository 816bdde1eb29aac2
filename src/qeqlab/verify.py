"""Verification driver: runs every inequality the package implements
against freshly generated systems and randomized inputs, and reports one
:class:`~qeqlab.bounds.BoundReport` per check.

The randomized suites draw from seeded generators, so a verification run
is reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bounds as _bounds
from .dynamics import finite_time_average_state, equilibrium_state, default_time_step
from .entropy import observational_entropy, shannon_entropy, von_neumann_entropy
from .harness import (
    _check_windows,
    _Config,
    _float,
    _int,
    _key,
    _require,
    _tuple,
    chain_system,
    compute_trajectory,
    evaluate_bounds,
    fluctuation_checks,
    prepare_system,
    time_grid,
)
from .linalg import trace_norm
from .measurement import Measurement, population_distance, populations, povm_from_factors, pvm_from_observable
from .models import DensityMatrix, PureState, SpinChainParams, _check_cap
# not called here: perfbench/tracing.py looks these names up on this module
from .harness import sample_deviations
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
# drawn, POVM averaging window and epsilon grid); the reports record them.
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


def _ginibre(rng, *shape) -> np.ndarray:
    """Complex Gaussian array, real part drawn first."""
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def random_density_matrix(rng, dim: int, rank: int | None = None):
    """Haar-ish random mixed state from a Ginibre factor."""
    rank = rank or dim
    G = _ginibre(rng, dim, rank)
    rho = G @ G.conj().T
    rho /= np.trace(rho).real
    return DensityMatrix(rho)


def random_hermitian(rng, dim: int) -> np.ndarray:
    G = _ginibre(rng, dim, dim)
    return (G + G.conj().T) / 2


def random_pure_state(rng, dim: int) -> PureState:
    v = _ginibre(rng, dim)
    return PureState(v / np.linalg.norm(v))


def random_povm(rng, dim: int, outcomes: int) -> Measurement:
    """Random POVM: Ginibre-positive pieces ``G_i G_i^dag`` whitened to sum
    to 1. The factors are ``G_i^dag W`` with ``W = (sum_i G_i G_i^dag)^(-1/2)``,
    so the effects are ``W G_i G_i^dag W``."""
    G = np.stack([_ginibre(rng, dim, dim) for _ in range(outcomes)])
    G_dag = np.swapaxes(G.conj(), 1, 2)
    w, V = np.linalg.eigh(np.sum(G @ G_dag, axis=0))
    inv_sqrt = (V * (1.0 / np.sqrt(w))) @ V.conj().T
    return povm_from_factors(G_dag @ inv_sqrt)


def random_partition_pvm(rng, dim: int, outcomes: int) -> Measurement:
    """PVM with multi-dimensional eigenspaces: random orthonormal basis
    split into random contiguous groups."""
    Q, _ = np.linalg.qr(_ginibre(rng, dim, dim))
    cuts = np.sort(rng.choice(np.arange(1, dim), size=outcomes - 1, replace=False))
    edges = np.concatenate([[0], cuts, [dim]])
    values = np.arange(outcomes, 0, -1, dtype=float)  # descending, arbitrary labels
    slices = tuple(slice(int(a), int(b)) for a, b in zip(edges[:-1], edges[1:]))
    return Measurement(values=values, basis=Q, outcome_slices=slices)


# ---------------------------------------------------------------------------
# randomized suites (each returns a single summarizing report)


def _suite_report(name: str, cases, extra: dict) -> _bounds.BoundReport:
    """One report of a suite's ``(lhs, rhs)`` cases: the worst case (the
    first with the largest ``lhs - rhs``), the number of cases and the
    number that violate ``lhs <= rhs + ATOL_BOUND``."""
    worst = None
    count = violations = 0
    for lhs, rhs in cases:
        count += 1
        violations += lhs > rhs + _bounds.ATOL_BOUND
        if worst is None or lhs - rhs > worst[0] - worst[1]:
            worst = (lhs, rhs)
    params = {"cases": count, "violations": violations, **extra}
    return _bounds.BoundReport(name=name, lhs=worst[0], rhs=worst[1], parameters=params)


def shannon_continuity_suite(rng, pairs: int) -> _bounds.BoundReport:
    """|S(p) - S(q)| against the distribution continuity bound on random
    distribution pairs."""
    def draws():
        for _ in range(pairs):
            r = int(rng.integers(2, _SHANNON_MAX_OUTCOMES + 1))
            p = rng.dirichlet(np.ones(r))
            q = rng.dirichlet(np.ones(r))
            yield (abs(shannon_entropy(p) - shannon_entropy(q)),
                   _bounds.shannon_deviation_bound(r, population_distance(p, q)))

    return _suite_report("shannon_continuity_suite", draws(), {"max_outcomes": _SHANNON_MAX_OUTCOMES})


def observational_continuity_suite(rng, cases: int) -> _bounds.BoundReport:
    """Observational-entropy continuity on random state pairs sharing a
    measurement; alternates nondegenerate and coarse measurements."""
    def draws():
        for k in range(cases):
            dim = int(rng.integers(2, _OBSERVATIONAL_MAX_DIM + 1))
            if k % 2 == 0:
                measurement = pvm_from_observable(random_hermitian(rng, dim))
            else:
                outcomes = int(rng.integers(2, min(dim, 8) + 1))
                measurement = random_partition_pvm(rng, dim, outcomes)
            rho = random_density_matrix(rng, dim)
            sigma = random_density_matrix(rng, dim)
            p = populations(measurement, rho)
            q = populations(measurement, sigma)
            mult = measurement.multiplicities
            yield (abs(observational_entropy(p, mult) - observational_entropy(q, mult)),
                   _bounds.observational_deviation_bound(dim, population_distance(p, q)))

    return _suite_report("observational_continuity_suite", draws(), {"max_dim": _OBSERVATIONAL_MAX_DIM})


def von_neumann_continuity_suite(rng, cases: int) -> _bounds.BoundReport:
    """von Neumann entropy difference against the trace-distance bound."""
    def draws():
        for k in range(cases):
            dim = int(rng.integers(2, _VON_NEUMANN_MAX_DIM + 1))
            rho = random_density_matrix(rng, dim)
            if k % 3 == 0:
                sigma = random_pure_state(rng, dim).density_matrix()
            else:
                sigma = random_density_matrix(rng, dim, rank=int(rng.integers(1, dim + 1)))
            yield (abs(von_neumann_entropy(rho) - von_neumann_entropy(sigma)),
                   _bounds.von_neumann_deviation_bound(dim, 0.5 * trace_norm(rho.matrix - sigma.matrix)))

    return _suite_report("von_neumann_continuity_suite", draws(), {"max_dim": _VON_NEUMANN_MAX_DIM})


def povm_equilibration_suite(rng, cases: int) -> _bounds.BoundReport:
    """Population equilibration (and the entropy bounds it implies) for
    random Hamiltonians measured through random POVMs."""
    def draws():
        for _ in range(cases):
            dim = int(rng.integers(4, _POVM_MAX_DIM + 1))
            outcomes = int(rng.integers(2, _POVM_MAX_OUTCOMES + 1))
            ham = random_hermitian(rng, dim)
            povm = random_povm(rng, dim, outcomes)
            system = prepare_system(ham, povm, random_pure_state(rng, dim))
            dt = default_time_step(system.decomposition.spectral_range)
            trajectory = compute_trajectory(system, time_grid(_POVM_WINDOW, dt))
            for report in evaluate_bounds(system, trajectory, [_POVM_WINDOW], eps_points=_POVM_EPS_POINTS):
                yield report.lhs, report.rhs

    return _suite_report("povm_equilibration_suite", draws(),
                         {"systems": cases, "max_dim": _POVM_MAX_DIM, "max_outcomes": _POVM_MAX_OUTCOMES,
                          "window": _POVM_WINDOW})


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


def run_verification(config: VerifyConfig) -> list:
    """Run the complete inequality suite and return all reports."""
    by_system = []  # (system name, its reports)
    for n in config.sites:
        system = chain_system(SpinChainParams(sites=int(n)))
        dt = default_time_step(system.decomposition.spectral_range)
        trajectory = compute_trajectory(system, time_grid(config.t_max, dt))
        checks = evaluate_bounds(system, trajectory, config.average_grid)
        jensen = _bounds.average_entropy_check(trajectory, system.equilibrium.populations, config.t_max)
        by_system.append((f"chain_{n}", checks + [jensen]))

    n = config.fluctuation_sites
    system = chain_system(SpinChainParams(sites=int(n)))
    checks, _ = fluctuation_checks(system, config.fluctuation_window, config.fluctuation_count,
                                   config.seed)
    by_system.append((f"fluct_{n}", checks))

    reports = []
    for name, checks in by_system:
        for report in checks:
            report.parameters["system"] = name
        reports.extend(checks)

    reports.extend(time_averaged_state_suite(config.averaged_state_sites,
                                             config.averaged_state_windows))

    rng = np.random.default_rng(config.seed)
    reports.append(shannon_continuity_suite(rng, config.shannon_pairs))
    reports.append(observational_continuity_suite(rng, config.observational_cases))
    reports.append(von_neumann_continuity_suite(rng, config.von_neumann_cases))
    reports.append(povm_equilibration_suite(rng, config.povm_cases))
    return reports
