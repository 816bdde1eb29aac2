"""Right-hand sides of the equilibration and entropy-deviation
inequalities, and report objects pairing them with measured left-hand
sides.

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
from .entropy import capped_binary_entropy, g_function

__all__ = [
    "ATOL_BOUND",
    "BoundReport",
    "asymptotic_observational_bound",
    "asymptotic_shannon_bound",
    "average_entropy_check",
    "averaged_state_entropy_bound",
    "equilibration_factor",
    "expectation_bound",
    "observational_deviation_bound",
    "optimal_epsilon",
    "population_distance_bound",
    "shannon_deviation_bound",
    "tail_bound_check",
]

ATOL_BOUND = 1e-9


@dataclass
class BoundReport:
    """One evaluated inequality: measured side, bound side, margin."""

    name: str
    lhs: float
    rhs: float
    parameters: dict = field(default_factory=dict)
    estimated: bool = False

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    @property
    def holds(self) -> bool:
        return self.margin >= -ATOL_BOUND

    @property
    def status(self) -> str:
        if not self.holds:
            return "violated"
        return "estimated" if self.estimated else "holds"

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margin": self.margin,
            "status": self.status,
            "parameters": dict(self.parameters),
        }


def equilibration_factor(stats: GapStatistics, eps: float, T: float) -> float:
    """Gap-counting factor ``N(eps) (1 + 8 log2|spectrum| / (eps T))``.

    ``T`` may be ``math.inf``, in which case the factor reduces to the
    window count alone.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if T <= 0:
        raise ValueError("T must be positive")
    count = stats.window_count(eps)
    if math.isinf(T):
        return float(count)
    return count * (1.0 + 8.0 * math.log2(stats.distinct_count) / (eps * T))


def optimal_epsilon(stats: GapStatistics, T: float, points: int = 32):
    """Scan a logarithmic grid of window widths and return
    ``(eps, factor)`` minimizing the equilibration factor.

    The inequalities hold for every eps, so optimizing simply reports
    the tightest bound this grid can certify. Window counts do not
    depend on ``T``; ``stats`` keeps each one, so scanning the same grid
    for further windows only re-weighs them.
    """
    best = (None, math.inf)
    for eps in stats.epsilon_grid(points):
        f = equilibration_factor(stats, float(eps), T)
        if f < best[1]:
            best = (float(eps), f)
    return best


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
    """Bound on the time-averaged Shannon-entropy deviation:
    ``ln(r-1) eta + H2(eta)`` (ln 2 in place of H2 past its maximum).

    ``alt_prefactor`` switches ln(r-1) to ln(r+1) for comparison runs.
    """
    if n_outcomes < 2:
        raise ValueError("entropy bounds need at least 2 outcomes")
    if eta < 0:
        raise ValueError("eta must be nonnegative")
    pre = math.log(n_outcomes + 1) if alt_prefactor else math.log(n_outcomes - 1)
    return pre * eta + capped_binary_entropy(eta)


def observational_deviation_bound(dim: int, eta: float) -> float:
    """Observational-entropy version: ``ln(d) eta + g(eta)``."""
    if dim < 2:
        raise ValueError("dimension must be >= 2")
    if eta < 0:
        raise ValueError("eta must be nonnegative")
    return math.log(dim) * eta + g_function(eta)


def asymptotic_shannon_bound(n_outcomes: int, d_eff: float, alt_prefactor: bool = False) -> float:
    """Infinite-time, nondegenerate-gap specialization of the Shannon
    bound: eta reduces to ``(1/2) sqrt(r / d_eff)``."""
    eta = population_distance_bound(n_outcomes, d_eff, 1.0)
    return shannon_deviation_bound(n_outcomes, eta, alt_prefactor=alt_prefactor)


def asymptotic_observational_bound(n_outcomes: int, d_eff: float, dim: int) -> float:
    """Infinite-time observational-entropy bound:
    ``ln(d)/2 sqrt(r/d_eff) + g((1/2) sqrt(r/d_eff))``."""
    eta = population_distance_bound(n_outcomes, d_eff, 1.0)
    return observational_deviation_bound(dim, eta)


def averaged_state_entropy_bound(dim: int, min_gap: float, T: float) -> float:
    """Bound on ``|S_vN[<rho>_T] - S_vN[omega]|`` via the trace-distance
    continuity bound with ``theta = 2 sqrt(d) / (min_gap T)``."""
    if min_gap <= 0:
        raise ValueError("min_gap must be positive")
    if T <= 0:
        raise ValueError("T must be positive")
    theta = 2.0 * math.sqrt(dim) / (min_gap * T)
    return math.log(dim) * theta + capped_binary_entropy(theta)


def clopper_pearson_upper(successes: int, trials: int, confidence: float = 0.99) -> float:
    """One-sided upper confidence limit for a binomial proportion: the
    ``confidence`` quantile of Beta(successes + 1, trials - successes)."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if successes >= trials:
        return 1.0
    return float(betaincinv(successes + 1, trials - successes, confidence))


def tail_bound_check(
    samples,
    threshold: float,
    mean_bound: float,
    name: str = "tail_frequency",
    confidence: float = 0.99,
) -> BoundReport:
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
    upper = clopper_pearson_upper(exceed, samples.size, confidence)
    return BoundReport(
        name=name,
        lhs=upper,
        rhs=mean_bound / threshold,
        parameters={
            "threshold": threshold,
            "samples": int(samples.size),
            "exceed_count": exceed,
            "raw_frequency": frequency,
            "confidence": confidence,
        },
    )


def average_entropy_check(
    trajectory: Trajectory,
    equilibrium_entropy: float,
    T: float,
    name: str = "average_entropy_vs_equilibrium",
) -> BoundReport:
    """Compare the time-averaged Shannon entropy against the equilibrium
    value. The exact inequality is an infinite-time statement; at small T
    the report is informational rather than a strict check."""
    if T > trajectory.span * (1 + 1e-12):
        raise ValueError(f"T = {T!r} beyond the trajectory span {trajectory.span!r}")
    lhs = time_average_scalar(trajectory, "shannon", T)
    return BoundReport(
        name=name,
        lhs=lhs,
        rhs=equilibrium_entropy,
        parameters={"T": T},
    )
