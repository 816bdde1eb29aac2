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


def optimal_epsilon(stats: GapStatistics, windows, points: int) -> list:
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


# ln n! minus Stirling's (n + 1/2) ln n - n + ln sqrt(2 pi), for n = 0..15 (Loader's table)
_STIRLERR = (
    0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748, 0.01189670994589177,
    0.010411265261972096, 0.009255462182712733, 0.00833056343336287, 0.007573675487951841,
    0.00694284010720953, 0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
)


def _stirlerr(n: int) -> float:
    """``ln n! - (n + 1/2) ln n + n - ln sqrt(2 pi)``: tabulated up to 15,
    beyond that the Stirling series, with fewer terms as n grows."""
    if n < len(_STIRLERR):
        return _STIRLERR[n]
    nn = float(n) * n
    if n > 500:
        return (1 / 12 - 1 / 360 / nn) / n
    if n > 80:
        return (1 / 12 - (1 / 360 - 1 / 1260 / nn) / nn) / n
    if n > 35:
        return (1 / 12 - (1 / 360 - (1 / 1260 - 1 / 1680 / nn) / nn) / nn) / n
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / nn) / nn) / nn) / nn) / n


def _bd0(x: float, m: float) -> float:
    """Deviance term ``x ln(x/m) + m - x``, summed as a series in
    ``(x - m)/(x + m)`` when x is near m, where the closed form cancels."""
    if abs(x - m) >= 0.1 * (x + m):
        return x * math.log(x / m) + m - x
    v = (x - m) / (x + m)
    s = (x - m) * v
    term = 2 * x * v
    j = 1
    while True:
        term *= v * v
        s_next = s + term / (2 * j + 1)
        if s_next == s:
            return s
        s = s_next
        j += 1


def _binomial_lower_tail(k: int, n: int, p: float) -> float:
    """``P(X <= k)`` for X ~ Binomial(n, p), 0 < k < n. The pmf at k is
    Loader's saddle-point form (C. Loader, "Fast and Accurate Computation
    of Binomial Probabilities", 2000); each lower term follows from the
    one above by the exact ratio ``j/(n - j + 1) (1 - p)/p``. For
    ``p >= k/n`` every ratio is below 1, so nothing overflows."""
    q = 1.0 - p
    log_pmf = (_stirlerr(n) - _stirlerr(k) - _stirlerr(n - k) - _bd0(k, n * p) - _bd0(n - k, n * q)
               - 0.5 * (math.log(2 * math.pi) + math.log(k) + math.log1p(-k / n)))
    j = np.arange(k, 0, -1, dtype=float)
    return math.exp(log_pmf) * (1.0 + float(np.cumprod(j / (n - j + 1) * (q / p)).sum()))


def clopper_pearson_upper(successes: int, trials: int) -> float:
    """One-sided upper confidence limit for a binomial proportion
    (Clopper & Pearson, Biometrika 26, 404 (1934)): the p at which
    ``P(X <= successes)`` for X ~ Binomial(trials, p) falls to
    ``1 - CONFIDENCE``, that is the ``CONFIDENCE`` quantile of
    Beta(successes + 1, trials - successes).

    Closed forms hold at 0 and trials - 1 successes. Otherwise the
    quantile is bisected to the last bit on the lower tail, which is the
    small target itself, so no ``1 - x`` cancels; the smallest p whose
    computed tail is at most the target is returned."""
    if not isinstance(trials, (int, np.integer)) or trials < 1:
        raise ValueError(f"trials must be an integer >= 1, got {trials!r}")
    if not isinstance(successes, (int, np.integer)) or not 0 <= successes <= trials:
        raise ValueError(f"successes must be an integer in [0, {trials}], got {successes!r}")
    alpha = 1.0 - CONFIDENCE
    if successes == trials:
        return 1.0
    if successes == 0:
        return -math.expm1(math.log(alpha) / trials)
    if successes == trials - 1:
        return CONFIDENCE ** (1.0 / trials)
    # the tail at p = k/n is at least 1/2 (k is then a median), so the root lies above
    lo, hi = successes / trials, 1.0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if _binomial_lower_tail(successes, trials, mid) > alpha:
            lo = mid
        else:
            hi = mid
    return hi


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
