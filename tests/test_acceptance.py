"""End-to-end acceptance checks.

Each test covers one numbered criterion at its stated tolerance and
prints one PASS line (visible with ``pytest -s`` or in the captured
output); the shared spin-chain systems are built once per session.
"""

import math
import time

import numpy as np
import pytest

from qeqlab.bounds import (
    observational_deviation_bound,
    population_distance_bound,
    shannon_deviation_bound,
    tail_bound_check,
)
from qeqlab.dynamics import default_time_step, time_average_scalar
from qeqlab.harness import (
    SweepConfig,
    compute_trajectory,
    evaluate_bounds,
    prepare_system,
    sample_deviations,
    sweep_chain_lengths,
    time_grid,
    window_average,
)
from qeqlab.models import (
    SpinChainParams,
    all_down_state,
    bulk_magnetization,
    precessing_spin,
    spin_bath,
    tilted_ising_chain,
)
from qeqlab.verify import (
    observational_continuity_suite,
    povm_equilibration_suite,
    shannon_continuity_suite,
    time_averaged_state_suite,
    von_neumann_continuity_suite,
)

ATOL_MARGIN = -1e-9
T_GRID = (10.0, 25.0, 50.0, 100.0)


def announce(num, text):
    print(f"\nACCEPTANCE criterion {num}: PASS - {text}")


def build_chain(sites, axis="z", t_max=100.0):
    system = prepare_system(
        tilted_ising_chain(SpinChainParams(sites=sites)),
        bulk_magnetization(sites, axis),
        all_down_state(sites),
    )
    dt = default_time_step(system.decomposition.spectral_range)
    trajectory = compute_trajectory(system, time_grid(t_max, dt))
    return system, trajectory


@pytest.fixture(scope="session")
def chain_data():
    t0 = time.monotonic()
    data = {n: build_chain(n) for n in range(5, 10)}
    return data, time.monotonic() - t0


@pytest.fixture(scope="session")
def chain_reports(chain_data):
    data, build_time = chain_data
    t0 = time.monotonic()
    reports = {n: evaluate_bounds(system, trajectory, T_GRID)
               for n, (system, trajectory) in data.items()}
    return reports, build_time + (time.monotonic() - t0)


def test_criterion_01_precessing_spin_oracle():
    t0 = time.monotonic()
    g = 1.3
    ham, initial, obs = precessing_spin(g)
    system = prepare_system(ham, obs, initial)

    times = np.linspace(0.0, 8 * math.pi / g, 1000)
    trajectory = compute_trajectory(system, times)
    analytic = np.column_stack([np.cos(g * times) ** 2, np.sin(g * times) ** 2])
    pop_err = float(np.max(np.abs(trajectory.populations - analytic)))
    assert pop_err < 1e-10

    assert abs(system.d_eff - 2.0) < 1e-12
    assert np.max(np.abs(system.equilibrium.populations - 0.5)) < 1e-12

    period = math.pi / g
    fine = compute_trajectory(system, np.linspace(0.0, period, 20001))
    distance = 0.5 * np.sum(np.abs(fine.populations - system.equilibrium.populations), axis=1)
    avg = time_average_scalar(fine, distance, period)
    assert abs(avg - 1.0 / math.pi) < 1e-6
    eta = population_distance_bound(2, system.d_eff, 1.0)
    assert np.isclose(eta, 0.5) and avg <= eta

    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    announce(1, f"populations exact to {pop_err:.1e}, <l1 dist> = {avg:.8f} "
                f"(1/pi to 1e-6), d_eff = 2, eta = 1/2 [{elapsed:.2f}s]")


def _criterion_margins(chain_reports, name):
    reports, elapsed = chain_reports
    worst = math.inf
    for n, report_list in reports.items():
        for report in report_list:
            if report.name == name:
                assert report.parameters["T"] in T_GRID
                assert report.margin >= ATOL_MARGIN, (
                    f"{name} violated at N={n}, T={report.parameters['T']}: "
                    f"lhs={report.lhs!r} rhs={report.rhs!r}")
                worst = min(worst, report.margin)
    return worst, elapsed


def test_criterion_02_shannon_deviation_bound(chain_reports):
    worst, elapsed = _criterion_margins(chain_reports, "shannon_deviation")
    assert elapsed < 600.0
    announce(2, f"entropy-deviation bound holds for N=5..9, T in {T_GRID}, "
                f"worst margin {worst:.3e} [{elapsed:.1f}s incl. shared build]")


def test_criterion_03_population_equilibration(chain_reports):
    worst, _ = _criterion_margins(chain_reports, "population_equilibration")
    announce(3, f"population 1-norm bound holds for N=5..9, worst margin {worst:.3e}")


def test_criterion_04_observational_deviation(chain_reports):
    worst, _ = _criterion_margins(chain_reports, "observational_deviation")
    announce(4, f"observational-entropy bound holds for N=5..9, worst margin {worst:.3e}")


def test_criterion_05_expectation_deviation(chain_reports):
    worst, _ = _criterion_margins(chain_reports, "expectation_deviation")
    announce(5, f"squared expectation-deviation bound holds for N=5..9, "
                f"worst margin {worst:.3e}")


def test_criterion_06_fluctuation_tail(chain_data):
    data, _ = chain_data
    system, _ = data[7]
    t0 = time.monotonic()
    # one draw of times feeds both checks, each valid on its own
    samples, obs_samples = sample_deviations(system, 1.0e4, 10_000, seed=123)
    eta = population_distance_bound(system.r, system.d_eff, 1.0)
    delta = shannon_deviation_bound(system.r, eta)
    report = tail_bound_check(samples, math.sqrt(delta), delta, "shannon_fluctuation")
    assert report.lhs <= math.sqrt(delta)      # Clopper-Pearson 99% upper edge
    assert report.holds

    nu = observational_deviation_bound(system.dim, eta)
    obs_report = tail_bound_check(obs_samples, math.sqrt(nu), nu, "observational_fluctuation")
    assert obs_report.holds

    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    announce(6, f"N=7 tail frequency {report.parameters['raw_frequency']:.2e} "
                f"(99% upper {report.lhs:.2e}) <= sqrt(delta) = {math.sqrt(delta):.4f} "
                f"[{elapsed:.1f}s]")


def test_criterion_07_time_averaged_states():
    reports = time_averaged_state_suite(sites=(2, 3, 4, 5, 6),
                                        windows=(1.0e2, 1.0e3, 1.0e4))
    worst = min(report.margin for report in reports)
    for report in reports:
        assert report.margin >= ATOL_MARGIN, report.to_json_dict()
    announce(7, f"time-averaged-state bounds hold for N<=6, "
                f"T in (1e2, 1e3, 1e4), worst margin {worst:.3e}")


def test_criterion_08_continuity_suites():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    suites = [
        shannon_continuity_suite(rng, pairs=10_000),
        observational_continuity_suite(rng, cases=1_000),
        von_neumann_continuity_suite(rng, cases=1_000),
        povm_equilibration_suite(rng, cases=1_000),
    ]
    for report in suites:
        assert report.parameters["violations"] == 0, report.to_json_dict()
        assert report.holds
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    announce(8, "zero violations in " + ", ".join(
        f"{r.name}({r.parameters['cases']})" for r in suites) + f" [{elapsed:.1f}s]")


def test_criterion_09_figure_reproduction(chain_data):
    data, _ = chain_data
    fits = sweep_chain_lengths(SweepConfig(sites=tuple(range(5, 11))))["fits"]

    b_delta = fits["delta_fit"]["b"]
    assert abs(b_delta - (-0.0920)) <= 0.2 * 0.0920, fits["delta_fit"]
    b_late = fits["late_fit"]["b"]
    assert b_late < 0
    assert -0.239 * 2 <= b_late <= -0.239 / 2, fits["late_fit"]
    # finite-size scaling trend: decreasing up to at most one inversion
    assert fits["late_inversions"] <= 1
    assert fits["delta_inversions"] <= 1

    # finite-window averages stay below the infinite-window bound value
    for n, (system_n, trajectory_n) in data.items():
        eta_n = population_distance_bound(system_n.r, system_n.d_eff, 1.0)
        delta_n = shannon_deviation_bound(system_n.r, eta_n)
        deviation = np.abs(trajectory_n.shannon - system_n.equilibrium.shannon)
        curve = [time_average_scalar(trajectory_n, deviation, T)
                 for T in np.arange(10.0, 101.0, 10.0)]
        assert all(value <= delta_n for value in curve), (n, delta_n, curve)

    # z-magnetization: entropy rises from zero toward the equilibrium value
    system, trajectory = data[7]
    eq = system.equilibrium
    assert trajectory.shannon[0] == 0.0
    assert eq.shannon > 0.0
    late_mean = window_average(trajectory, trajectory.shannon, 75.0, 100.0)
    assert late_mean > 0.75 * eq.shannon
    assert np.max(trajectory.shannon) > 0.9 * eq.shannon
    # magnetization relaxes from -1 toward its equilibrium value
    late_exp = window_average(trajectory, trajectory.expectation, 75.0, 100.0)
    assert abs(late_exp - eq.expectation) < 0.25 * abs(-1.0 - eq.expectation)

    # y-magnetization: starts inside the late-time fluctuation band, dips early
    system_y, trajectory_y = build_chain(9, axis="y")
    eq_y = system_y.equilibrium
    late = trajectory_y.times >= 75.0
    band = float(np.max(np.abs(trajectory_y.shannon[late] - eq_y.shannon)))
    s0 = float(trajectory_y.shannon[0])
    assert abs(s0 - eq_y.shannon) <= band
    early = trajectory_y.times <= 10.0
    assert float(np.min(trajectory_y.shannon[early])) < s0

    # multiplicity-weighted entropies rise toward equilibrium, capped by ln d
    assert np.all(trajectory.observational <= math.log(system.dim) + 1e-9)
    assert trajectory.observational[0] == pytest.approx(0.0, abs=1e-12)
    assert trajectory.boltzmann[0] == pytest.approx(0.0, abs=1e-12)
    assert window_average(trajectory, trajectory.observational, 75.0, 100.0) > 0.75 * eq.observational
    assert window_average(trajectory, trajectory.boltzmann, 75.0, 100.0) > 0.75 * eq.boltzmann

    announce(9, f"delta-curve fit b = {b_delta:.4f} (target -0.0920 +/- 20%), "
                f"late-time fit b = {b_late:.4f} (factor 2 of -0.239); "
                f"M_z/M_y/coarse-entropy panels reproduce")


def test_criterion_10_spin_bath_counterexample():
    ln2 = math.log(2.0)
    for bath_dim in (4, 16, 64):
        ham, initial, obs = spin_bath(1.0, bath_dim)
        system = prepare_system(ham, obs, initial)
        trajectory = compute_trajectory(system, np.linspace(0.0, 4 * math.pi, 2001))
        swing = float(trajectory.shannon.max() - trajectory.shannon.min())
        assert swing >= 0.99 * ln2
        assert np.max(np.abs(trajectory.boltzmann - math.log(bath_dim))) <= 1e-10
        assert float(np.var(trajectory.boltzmann)) <= 1e-12
    announce(10, "observable entropy oscillates by ln 2 while the multiplicity "
                 "term stays ln(bath_dim) for bath_dim in (4, 16, 64)")
