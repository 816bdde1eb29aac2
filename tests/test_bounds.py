import math

import numpy as np
import pytest
from scipy.integrate import quad

from qeqlab.bounds import (
    BoundReport,
    average_entropy_check,
    clopper_pearson_upper,
    equilibration_factor,
    expectation_bound,
    observational_deviation_bound,
    optimal_epsilon,
    population_distance_bound,
    shannon_deviation_bound,
    tail_bound_check,
    von_neumann_deviation_bound,
)
from qeqlab.dynamics import (
    equilibrium_state,
    finite_time_average_state,
    gap_statistics,
)
from qeqlab.entropy import binary_entropy, g_function, shannon_entropy
from qeqlab.linalg import decompose_hermitian, trace_norm
from qeqlab.models import SpinChainParams, bulk_magnetization, spin_bath

LN2 = math.log(2.0)


@pytest.fixture()
def two_level_stats():
    ham, _, _ = spin_bath(1.0, 1)
    return gap_statistics(decompose_hermitian(ham))


def test_equilibration_factor_values(two_level_stats):
    stats = two_level_stats
    # |spectrum| = 2, N(eps) = 1 below the 4g window
    assert equilibration_factor(stats, 1.0, math.inf) == 1.0
    assert np.isclose(equilibration_factor(stats, 1.0, 8.0), 2.0)  # 1 * (1 + 8*1/8)
    f1, f2 = (equilibration_factor(stats, 1.0, T) for T in (10.0, 20.0))
    assert f2 < f1
    with pytest.raises(ValueError):
        equilibration_factor(stats, 0.0, 10.0)
    with pytest.raises(ValueError):
        equilibration_factor(stats, 1.0, 0.0)


def test_optimal_epsilon_minimizes(two_level_stats):
    stats = two_level_stats
    grid = [float(e) for e in stats.epsilon_grid(32)]
    windows = [5.0, 50.0, math.inf]
    for T, (eps, factor, count) in zip(windows, optimal_epsilon(stats, windows, 32), strict=True):
        factors = [equilibration_factor(stats, e, T) for e in grid]
        assert factor == min(factors)
        assert eps == grid[factors.index(factor)]  # the first minimum
        assert count == stats.window_count(eps)
    assert optimal_epsilon(stats, [], 32) == []
    with pytest.raises(ValueError):
        optimal_epsilon(stats, [0.0], 32)


def test_population_distance_bound_values():
    assert population_distance_bound(2, 2.0, 1.0) == 0.5
    assert population_distance_bound(4, 1024.0, 1.0) == 1.0 / 32.0
    assert population_distance_bound(3, 10.0, 0.0) == 0.0
    with pytest.raises(ValueError):
        population_distance_bound(0, 2.0, 1.0)
    with pytest.raises(ValueError):
        population_distance_bound(2, 0.5, 1.0)


def test_expectation_bound_magnetization_norm():
    # |M_z| = 1 for every chain length, so the bound is f / d_eff
    for sites in (2, 4):
        M = bulk_magnetization(sites, "z")
        assert np.isclose(expectation_bound(np.linalg.norm(M, 2), 10.0, 3.0), 0.3)


def test_shannon_deviation_bound_values():
    assert shannon_deviation_bound(4, 0.0) == 0.0
    assert np.isclose(shannon_deviation_bound(2, 0.5), LN2)  # ln(1) = 0 prefactor
    assert np.isclose(shannon_deviation_bound(6, 0.1), 0.4860267646348583)
    # past the binary-entropy maximum the ln 2 substitution applies
    assert np.isclose(shannon_deviation_bound(2, 3.0), LN2)
    assert shannon_deviation_bound(6, 0.1, alt_prefactor=True) > shannon_deviation_bound(6, 0.1)
    with pytest.raises(ValueError):
        shannon_deviation_bound(1, 0.1)


def test_observational_deviation_bound_values():
    assert observational_deviation_bound(4, 0.0) == 0.0
    assert np.isclose(observational_deviation_bound(4, 0.5),
                      math.log(4) * 0.5 + g_function(0.5))
    etas = np.linspace(0.0, 2.0, 50)
    vals = [observational_deviation_bound(4, e) for e in etas]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        observational_deviation_bound(1, 0.1)


def eta_infinite(r, d_eff):
    """The infinite-time, nondegenerate-gap distance bound (1/2) sqrt(r / d_eff)."""
    return population_distance_bound(r, d_eff, 1.0)


def test_von_neumann_deviation_bound_values():
    assert von_neumann_deviation_bound(4, 0.0) == 0.0
    assert von_neumann_deviation_bound(4, 0.25) == math.log(4) * 0.25 + binary_entropy(0.25)
    # past the binary-entropy maximum the ln 2 substitution applies
    assert von_neumann_deviation_bound(16, 0.6) == math.log(16) * 0.6 + LN2
    # capped at ln d, the largest difference of two d-dimensional entropies
    assert von_neumann_deviation_bound(2, 3.0) == LN2
    assert von_neumann_deviation_bound(16, 0.8) == math.log(16)
    assert von_neumann_deviation_bound(4, 0.5) == pytest.approx(math.log(4), abs=1e-15)
    ts = np.linspace(0.0, 0.5, 50)
    vals = [von_neumann_deviation_bound(4, t) for t in ts]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert all(von_neumann_deviation_bound(4, t) == math.log(4) for t in np.linspace(0.51, 2.0, 50))
    with pytest.raises(ValueError, match="dimension"):
        von_neumann_deviation_bound(1, 0.1)
    with pytest.raises(ValueError, match="nonnegative"):
        von_neumann_deviation_bound(4, -0.1)


def test_asymptotic_shannon_bound_values():
    assert shannon_deviation_bound(2, eta_infinite(2, 1e12)) < 1e-4
    assert np.isclose(shannon_deviation_bound(2, eta_infinite(2, 2.0)), LN2)
    # frozen from the defining formula at r = 14, d_eff = 4096
    eta = eta_infinite(14, 4096.0)
    assert np.isclose(shannon_deviation_bound(14, eta), 0.20703907423257234)
    assert shannon_deviation_bound(14, eta, alt_prefactor=True) > 0.20703907423257234


def test_asymptotic_observational_bound_values():
    assert observational_deviation_bound(4, eta_infinite(2, 1e12)) < 1e-4
    # frozen from the defining formula at r = 2, d_eff = 16, d = 4
    x = 0.5 * math.sqrt(2.0 / 16.0)
    expected = math.log(4) * x + g_function(x)
    assert np.isclose(observational_deviation_bound(4, eta_infinite(2, 16.0)), expected)
    assert np.isclose(expected, 0.7429498413596375)


def test_observational_dominates_shannon_bound():
    # g >= H2 on [0, 1/2], so the ln(d) variant dominates when d >= r - 1
    for x in np.linspace(0.0, 0.5, 201):
        assert g_function(x) >= binary_entropy(x) - 1e-12
    for r, d_eff, dim in ((4, 50.0, 16), (6, 200.0, 64)):
        eta = eta_infinite(r, d_eff)
        assert observational_deviation_bound(dim, eta) >= shannon_deviation_bound(r, eta) - 1e-12


def test_averaged_state_entropy_bound_values():
    # the trace-norm rate theta = 2 sqrt(d) / (min_gap T) at d = 4, min_gap = 1
    def theta(T):
        return 2.0 * math.sqrt(4) / (1.0 * T)

    assert von_neumann_deviation_bound(4, theta(1e9)) < 1e-6
    assert np.isclose(von_neumann_deviation_bound(4, theta(16.0)), 0.908908734898781)


def test_averaged_state_trace_norm_on_two_level():
    # sinc-form state against the 2 sqrt(d) / (min_gap T) rate
    g = 0.9
    ham, initial, _ = spin_bath(g, 1)
    decomp = decompose_hermitian(ham)
    omega = equilibrium_state(decomp, initial)
    for T in (5.0, 20.0, 200.0):
        avg = finite_time_average_state(decomp, initial, T)
        dist = trace_norm(avg.matrix - omega.matrix)
        assert dist <= 2.0 * math.sqrt(2.0) / (2.0 * g * T) + 1e-12


def test_tail_bound_check_cases():
    report = tail_bound_check(np.zeros(100), 0.5, 0.25, "tail")
    assert report.holds
    assert report.parameters["exceed_count"] == 0

    rng = np.random.default_rng(0)
    samples = rng.uniform(0.0, 1.0, 20_000)
    report = tail_bound_check(samples, 0.5, 0.5, "tail")
    assert np.isclose(report.parameters["raw_frequency"], 0.5, atol=0.02)
    assert report.rhs == 1.0
    assert report.holds

    with pytest.raises(ValueError):
        tail_bound_check([], 0.5, 0.5, "tail")
    with pytest.raises(ValueError):
        tail_bound_check([-1.0], 0.5, 0.5, "tail")


def test_clopper_pearson_upper_values():
    # k = 0 closed form: 1 - alpha**(1/n)
    n = 1000
    assert np.isclose(clopper_pearson_upper(0, n), 1.0 - 0.01 ** (1.0 / n))
    assert clopper_pearson_upper(n, n) == 1.0
    assert clopper_pearson_upper(10, n) > 10 / n


@pytest.mark.parametrize("successes", [-1, 11, 2.5, 1.0, "1", None])
def test_clopper_pearson_upper_rejects_a_count_outside_0_to_trials(successes):
    with pytest.raises(ValueError, match="successes"):
        clopper_pearson_upper(successes, 10)


@pytest.mark.parametrize("trials", [0, -3, 10.0])
def test_clopper_pearson_upper_rejects_bad_trials(trials):
    with pytest.raises(ValueError, match="trials"):
        clopper_pearson_upper(0, trials)


def test_clopper_pearson_upper_closed_forms_keep_scipy_bits():
    from scipy.special import betaincinv

    for trials in [*range(1, 2001), 9999, 10_000, 10_001, 20_000]:
        assert clopper_pearson_upper(0, trials) == betaincinv(1, trials, 0.99)
        assert clopper_pearson_upper(trials - 1, trials) == betaincinv(trials, 1, 0.99)


@pytest.mark.parametrize("trials", [2, 3, 7, 40, 101])
def test_clopper_pearson_upper_increases_with_successes(trials):
    edges = [clopper_pearson_upper(k, trials) for k in range(trials + 1)]
    assert all(lo < hi for lo, hi in zip(edges, edges[1:]))
    assert all(edge > k / trials for k, edge in enumerate(edges[:-1]))


def test_clopper_pearson_upper_matches_beta_ppf():
    from scipy import stats

    for trials in (1, 2, 7, 100, 1000, 10_000):
        for successes in sorted({0, trials // 3, trials // 2, trials - 1}):
            want = stats.beta.ppf(0.99, successes + 1, trials - successes)
            got = clopper_pearson_upper(successes, trials)
            assert got == pytest.approx(want, rel=1e-14, abs=0.0)


def test_package_import_loads_no_scipy():
    import os
    import subprocess
    import sys
    from pathlib import Path

    # the child imports this checkout's package, installed or not
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    probe = "import sys, qeqlab.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True,
                         env=env)
    assert out.stdout.strip() == "[]"


def test_average_entropy_check_constant_at_equilibrium():
    from qeqlab.dynamics import Trajectory

    ts = np.linspace(0.0, 10.0, 101)
    p = np.array([0.25, 0.75])
    s = np.full_like(ts, shannon_entropy(p))
    traj = Trajectory(times=ts, populations=np.tile(p, (101, 1)), expectation=s,
                      shannon=s, observational=s, boltzmann=np.zeros_like(ts))
    report = average_entropy_check(traj, p, 10.0)
    assert abs(report.margin) < 1e-12
    with pytest.raises(ValueError, match="span"):
        average_entropy_check(traj, p, 20.0)


@pytest.fixture(scope="module")
def weak_field_chain():
    # weak transverse field: the entropy average overshoots S(omega) at T = 20
    from qeqlab.dynamics import default_time_step
    from qeqlab.harness import chain_system, compute_trajectory, time_grid

    system = chain_system(SpinChainParams(sites=4, g=0.02, h=0.5, J=0.3))
    dt = default_time_step(system.curvature)
    return system, compute_trajectory(system, time_grid(20.0, dt))


def test_average_entropy_check_certifies_the_weak_field_chain(weak_field_chain):
    system, traj = weak_field_chain
    report = average_entropy_check(traj, system.equilibrium.populations, 20.0)
    s_bar = report.parameters["shannon_averaged_populations"]
    assert report.lhs > system.equilibrium.shannon  # S(omega) alone is no bound here
    assert report.lhs <= s_bar <= report.rhs
    assert report.status == "holds"
    assert report.lhs == pytest.approx(0.27904, abs=1e-5)
    assert report.rhs == pytest.approx(0.35424, abs=1e-5)
    assert s_bar == pytest.approx(0.29983, abs=1e-5)


def test_average_entropy_check_rhs_is_the_shannon_bound_at_the_recorded_distance(weak_field_chain):
    system, traj = weak_field_chain
    p_omega = system.equilibrium.populations
    report = average_entropy_check(traj, p_omega, 20.0)
    distance = report.parameters["averaged_population_distance"]
    assert report.rhs == shannon_entropy(p_omega) + shannon_deviation_bound(p_omega.size, distance)


def test_average_entropy_check_fails_above_the_certified_bound(weak_field_chain):
    # negative control: entropies raised past the bound, populations untouched
    from dataclasses import replace

    system, traj = weak_field_chain
    p_omega = system.equilibrium.populations
    margin = average_entropy_check(traj, p_omega, 20.0).margin
    doctored = replace(traj, shannon=traj.shannon + margin + 1e-3)
    report = average_entropy_check(doctored, p_omega, 20.0)
    assert report.status == "violated"
    assert report.margin == pytest.approx(-1e-3, abs=1e-9)


def test_average_entropy_strictly_below_equilibrium_for_spin():
    # quadrature oracle: the period average of H2(cos^2) is 2 ln 2 - 1 < ln 2
    oracle, err = quad(lambda t: binary_entropy(math.cos(t) ** 2), 0.0, math.pi, limit=200)
    oracle /= math.pi
    assert err < 1e-7
    assert np.isclose(oracle, 2 * LN2 - 1.0, atol=1e-7)

    from qeqlab.harness import compute_trajectory, prepare_system
    from qeqlab.dynamics import time_average_scalar

    ham, initial, obs = spin_bath(1.0, 1)
    system = prepare_system(ham, obs, initial)
    traj = compute_trajectory(system, np.linspace(0.0, math.pi, 4001))
    avg = time_average_scalar(traj, traj.shannon, math.pi)
    assert abs(avg - oracle) < 1e-5
    assert avg < LN2


def test_bound_report_status():
    ok = BoundReport(name="x", lhs=1.0, rhs=2.0)
    assert ok.status == "holds" and ok.margin == 1.0
    borderline = BoundReport(name="x", lhs=1.0, rhs=1.0 - 1e-10)
    assert borderline.holds  # within atol slack
    bad = BoundReport(name="x", lhs=2.0, rhs=1.0)
    assert bad.status == "violated"
