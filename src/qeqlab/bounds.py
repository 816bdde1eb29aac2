"""Right-hand sides of every inequality the package checks, and report
objects pairing them with measured left-hand sides.

Each entropy bound is written once, as a function of a distance: a bound
on the outcome-distribution distance (or the trace distance of two
states) becomes an entropy bound through a Fannes-Audenaert-type
continuity estimate (Audenaert, J. Phys. A 40, 8127 (2007)).

Every exact inequality is compared with an absolute slack of
``ATOL_BOUND``; only the sampled fluctuation checks are statistical, and
those are compared at a one-sided Clopper-Pearson upper confidence edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import betaincinv

from .dynamics import GapStatistics, Trajectory, time_average_scalar
from .entropy import capped_binary_entropy, g_function, shannon_entropy
from .measurement import population_distance

__all__ = [
    "ATOL_BOUND",
    "BoundReport",
    "average_entropy_check",
    "equilibration_factor",
    "expectation_bound",
    "observational_deviation_bound",
    "optimal_epsilon",
    "population_distance_bound",
    "shannon_deviation_bound",
    "tail_bound_check",
    "von_neumann_deviation_bound",
]

ATOL_BOUND = 1e-9
# Confidence level of every Clopper-Pearson edge a tail check reports.
CONFIDENCE = 0.99


@dataclass
class BoundReport:
    """One evaluated inequality: measured side, bound side, margin."""

    name: str
    lhs: float
    rhs: float
    parameters: dict = field(default_factory=dict)

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    @property
    def holds(self) -> bool:
        return self.margin >= -ATOL_BOUND

    @property
    def status(self) -> str:
        return "holds" if self.holds else "violated"

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margin": self.margin,
            "status": self.status,
            "parameters": dict(self.parameters),
        }


def _factor(counts, eps, T, distinct_count: int):
    """The equilibration factor of window counts at widths eps and
    averaging windows T, elementwise with broadcasting."""
    if np.any(np.asarray(T) <= 0):
        raise ValueError("T must be positive")
    return counts * (1.0 + 8.0 * math.log2(distinct_count) / (eps * T))


def equilibration_factor(stats: GapStatistics, eps: float, T: float) -> float:
    """Gap-counting factor ``N(eps) (1 + 8 log2|spectrum| / (eps T))``.

    ``T`` may be ``math.inf``, in which case the factor reduces to the
    window count alone.
    """
    return _factor(stats.window_count(eps), eps, T, stats.distinct_count)


def optimal_epsilon(stats: GapStatistics, windows, points: int = 32) -> list:
    """Scan a logarithmic grid of window widths and return, per averaging
    window T of ``windows``, the ``(eps, factor, count)`` minimizing the
    equilibration factor.

    The inequalities hold for every eps, so optimizing simply reports
    the tightest bound this grid can certify. Counts do not depend on T:
    the grid is counted once and re-weighed per window.
    """
    grid = stats.epsilon_grid(points)
    counts = stats.window_counts(grid)
    # one row of factors per window; argmin takes a row's first minimum
    factors = _factor(counts, grid, np.array(windows, dtype=float)[:, None], stats.distinct_count)
    best = factors.argmin(axis=1)
    return [(float(grid[k]), float(row[k]), int(counts[k])) for row, k in zip(factors, best)]


def population_distance_bound(n_outcomes: int, d_eff: float, factor: float) -> float:
    """Bound on the time-averaged outcome-distribution distance:
    ``(1/2) sqrt(r f / d_eff)``."""
    if n_outcomes < 1:
        raise ValueError("n_outcomes must be >= 1")
    if d_eff < 1:
        raise ValueError("d_eff must be >= 1")
    if factor < 0:
        raise ValueError("factor must be nonnegative")
    return 0.5 * math.sqrt(n_outcomes * factor / d_eff)


def expectation_bound(norm: float, d_eff: float, factor: float) -> float:
    """Bound on the averaged squared deviation of an expectation value:
    ``|O|^2 f / d_eff``, given the operator norm ``|O|``."""
    return norm * norm * factor / d_eff


def shannon_deviation_bound(n_outcomes: int, eta: float, alt_prefactor: bool = False) -> float:
    """Bound on ``|S(p) - S(q)|`` for two r-outcome distributions at
    distance ``population_distance(p, q) <= eta``, and so on the
    time-averaged Shannon-entropy deviation when eta bounds the averaged
    distance: ``ln(r-1) eta + H2(eta)`` (ln 2 in place of H2 past its
    maximum).

    ``alt_prefactor`` switches ln(r-1) to ln(r+1) for comparison runs.
    """
    if n_outcomes < 2:
        raise ValueError("entropy bounds need at least 2 outcomes")
    if eta < 0:
        raise ValueError("eta must be nonnegative")
    pre = math.log(n_outcomes + 1) if alt_prefactor else math.log(n_outcomes - 1)
    return pre * eta + capped_binary_entropy(eta)


def observational_deviation_bound(dim: int, eta: float) -> float:
    """Observational-entropy version for two states of dimension d sharing
    a measurement, eta bounding their outcome distance: ``ln(d) eta + g(eta)``."""
    if dim < 2:
        raise ValueError("dimension must be >= 2")
    if eta < 0:
        raise ValueError("eta must be nonnegative")
    return math.log(dim) * eta + g_function(eta)


def von_neumann_deviation_bound(dim: int, t: float) -> float:
    """Bound on ``|S_vN(rho) - S_vN(sigma)|`` for d-dimensional states:
    ``ln(d) t + H2(t)`` (ln 2 in place of H2 past its maximum), at most
    ln d, with t the trace distance ``(1/2)|rho - sigma|_1``.

    The bound is nondecreasing in t, so t may be any upper bound on the
    trace distance, such as half a bound on the full trace norm. Two
    entropies in [0, ln d] differ by at most ln d, the cap of Audenaert's
    sharp bound."""
    if dim < 2:
        raise ValueError("dimension must be >= 2")
    if t < 0:
        raise ValueError("distance must be nonnegative")
    return min(math.log(dim) * t + capped_binary_entropy(t), math.log(dim))


def clopper_pearson_upper(successes: int, trials: int) -> float:
    """One-sided upper confidence limit for a binomial proportion: the
    ``CONFIDENCE`` quantile of Beta(successes + 1, trials - successes)."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if successes >= trials:
        return 1.0
    return float(betaincinv(successes + 1, trials - successes, CONFIDENCE))


def tail_bound_check(samples, threshold: float, mean_bound: float, name: str) -> BoundReport:
    """Generalized-Chebyshev tail check on sampled deviations.

    Compares the empirical frequency of ``sample >= threshold`` (taken at
    its upper Clopper-Pearson confidence edge) against
    ``mean_bound / threshold``.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ValueError("no samples")
    if np.any(samples < 0):
        raise ValueError("samples must be nonnegative")
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    exceed = int(np.count_nonzero(samples >= threshold))
    frequency = exceed / samples.size
    upper = clopper_pearson_upper(exceed, samples.size)
    return BoundReport(
        name=name,
        lhs=upper,
        rhs=mean_bound / threshold,
        parameters={
            "threshold": threshold,
            "samples": int(samples.size),
            "exceed_count": exceed,
            "raw_frequency": frequency,
            "confidence": CONFIDENCE,
        },
    )


def average_entropy_check(trajectory: Trajectory, equilibrium_populations, T: float) -> BoundReport:
    """Time-averaged Shannon entropy against S(omega), certified at every T:
    the trapezoid average is a convex combination of samples, so by
    concavity it is at most S(p_bar), p_bar being the outcome populations
    averaged with the same weights, and Fannes-Audenaert bounds
    S(p_bar) - S(omega) by ``shannon_deviation_bound(r, TV(p_bar, p_omega))``."""
    lhs = time_average_scalar(trajectory, trajectory.shannon, T)
    p_bar = np.array([time_average_scalar(trajectory, column, T) for column in trajectory.populations.T])
    distance = population_distance(p_bar, equilibrium_populations)
    return BoundReport(
        name="average_entropy_vs_equilibrium",
        lhs=lhs,
        rhs=shannon_entropy(equilibrium_populations) + shannon_deviation_bound(p_bar.size, distance),
        parameters={
            "T": T,
            "shannon_averaged_populations": shannon_entropy(p_bar),
            "averaged_population_distance": distance,
        },
    )
