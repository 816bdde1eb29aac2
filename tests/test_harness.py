import math
import sys
import threading

import numpy as np
import pytest

from qeqlab import harness
from qeqlab.bounds import average_entropy_check, observational_deviation_bound, shannon_deviation_bound
from qeqlab.dynamics import default_time_step, evolve, time_average_scalar
from qeqlab.harness import (
    ConfigError,
    ExperimentConfig,
    SweepConfig,
    build_system,
    chain_system,
    compute_trajectory,
    evaluate_bounds,
    execute_experiment,
    fit_exponential,
    fluctuation_checks,
    prepare_system,
    sample_deviations,
    sweep_chain_lengths,
    time_grid,
    window_average,
)
from qeqlab.measurement import clamp_populations, populations
from qeqlab.models import (
    DensityMatrix,
    DimensionCapError,
    SpinChainParams,
    all_down_state,
    bulk_magnetization,
    spin_bath,
    tilted_ising_chain,
)
from qeqlab.serialize import canonical_json
from qeqlab.verify import random_hermitian, random_povm, random_pure_state


def small_chain(sites=3, axis="z"):
    params = SpinChainParams(sites=sites)
    return prepare_system(
        tilted_ising_chain(params),
        bulk_magnetization(sites, axis),
        all_down_state(sites),
    )


def naive_populations(system, times):
    """Oracle: materialize every evolved state and measure it."""
    out = []
    for t in times:
        state = evolve(system.decomposition, system.initial, float(t))
        out.append(populations(system.measurement, state))
    return np.array(out)


@pytest.mark.parametrize("axis", ["z", "y"])
def test_trajectory_matches_naive_evolution(axis):
    system = small_chain(3, axis)
    times = np.linspace(0.0, 5.0, 41)
    traj = compute_trajectory(system, times)
    assert np.max(np.abs(traj.populations - naive_populations(system, times))) < 1e-10
    values = system.measurement.values
    assert np.allclose(traj.expectation, traj.populations @ values, atol=1e-12)


def test_trajectory_povm_matches_naive():
    rng = np.random.default_rng(0)
    G = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    ham = (G + G.conj().T) / 2
    povm = random_povm(rng, 6, 3)
    from qeqlab.models import PureState

    v = rng.normal(size=6) + 1j * rng.normal(size=6)
    system = prepare_system(ham, povm, PureState(v / np.linalg.norm(v)))
    times = np.linspace(0.0, 4.0, 31)
    traj = compute_trajectory(system, times)
    assert np.max(np.abs(traj.populations - naive_populations(system, times))) < 1e-10
    assert traj.expectation is None


def test_prepare_system_rejects_a_mixed_state():
    mixed = DensityMatrix(np.eye(4) / 4)
    with pytest.raises(TypeError, match="PureState, got DensityMatrix"):
        prepare_system(tilted_ising_chain(SpinChainParams(sites=2)),
                       bulk_magnetization(2, "z"), mixed)


def test_prepare_system_rejects_a_state_of_another_dimension():
    with pytest.raises(ValueError, match="dimension mismatch: decomposition 4, state 8"):
        prepare_system(tilted_ising_chain(SpinChainParams(sites=2)),
                       bulk_magnetization(2, "z"), all_down_state(3))


def test_equilibrium_reference_matches_omega_oracle():
    from qeqlab.dynamics import equilibrium_state

    for axis in ("z", "y"):
        system = small_chain(3, axis)
        omega = equilibrium_state(system.decomposition, system.initial)
        oracle = populations(system.measurement, omega)
        assert np.max(np.abs(system.equilibrium.populations - oracle)) < 1e-10


def _reduceat_p_omega(system):
    """p_omega by the m x m formula: |sum over each level cluster|^2,
    grouped by outcome and clamped."""
    edges = [sl.start for sl in system.decomposition.cluster_slices]
    per_block = np.add.reduceat(system.weighted_contraction, edges, axis=1)
    weights = np.sum(np.abs(per_block) ** 2, axis=1)
    return clamp_populations(system.measurement.group_sums(weights))


@pytest.mark.parametrize("params, degenerate", [
    (SpinChainParams(sites=7), False),
    # free spins: levels g (N - 2k), each many times over
    (SpinChainParams(sites=7, g=1.0, h=0.0, J=0.0), True),
])
@pytest.mark.parametrize("axis", ["z", "y"])
def test_p_omega_by_row_blocks_matches_the_reduceat_formula(monkeypatch, params, degenerate, axis):
    # blocks of 5 rows: several blocks and a partial last one
    monkeypatch.setattr(harness, "_P_OMEGA_ROWS", 5)
    system = chain_system(params, axis)
    decomp = system.decomposition
    assert (len(decomp.cluster_slices) < decomp.dim) == degenerate
    assert decomp.dim % 5 != 0
    assert np.array_equal(system.equilibrium.populations, _reduceat_p_omega(system))


def test_time_grid_covers_t_max():
    ts = time_grid(10.0, 0.3)
    assert ts[0] == 0.0
    assert ts[-1] >= 10.0 - 1e-12
    assert np.allclose(np.diff(ts), 0.3)
    with pytest.raises(ValueError):
        time_grid(0.0, 0.1)


def test_time_grid_takes_at_least_one_step():
    # t_max below 1e-9 steps: the grid still reaches t_max
    assert np.array_equal(time_grid(1e-11, 0.02), [0.0, 0.02])
    # t_max 7.5e-10 steps past a whole number of them: one more step
    assert np.array_equal(time_grid(10.000000000015, 0.02), np.arange(502) * 0.02)
    # t_max / dt rounded up past a whole number of steps: no extra step
    assert 0.27 / 0.09 > 3 and np.array_equal(time_grid(0.27, 0.09), np.arange(4) * 0.09)


def test_window_average_matches_oracle():
    system = small_chain(3)
    traj = compute_trajectory(system, time_grid(20.0, 0.01))
    got = window_average(traj, traj.shannon, 5.0, 15.0)
    sel = (traj.times >= 5.0) & (traj.times <= 15.0)
    oracle = np.trapezoid(traj.shannon[sel], traj.times[sel]) / 10.0
    assert abs(got - oracle) < 1e-9


def test_eigenstate_initial_state_has_zero_deviations():
    # an energy eigenstate never moves: every deviation series is zero
    from qeqlab.models import PureState

    ham = tilted_ising_chain(SpinChainParams(sites=3))
    from qeqlab.linalg import decompose_hermitian

    decomp = decompose_hermitian(ham)
    system = prepare_system(ham, bulk_magnetization(3, "z"),
                            PureState(decomp.eigenvectors[:, 0]))
    traj = compute_trajectory(system, time_grid(5.0, 0.05))
    eq = system.equilibrium
    assert np.max((traj.expectation - eq.expectation) ** 2) < 1e-20
    assert np.max(0.5 * np.sum(np.abs(traj.populations - eq.populations), axis=1)) < 1e-10
    for report in evaluate_bounds(system, traj, [5.0]):
        assert report.holds
        assert report.parameters["quadrature_remainder"] < 1e-12
    shannon_dev, observational_dev = sample_deviations(system, 100.0, 50, seed=0)
    assert np.max(shannon_dev) < 1e-9
    assert np.max(observational_dev) < 1e-9


def test_a_computed_eigenstate_takes_the_step_of_a_state_that_does_not_move():
    # the eigensolver leaves amplitudes of order eps on the other levels, so
    # M reads 6.8e-14 here: at the round-off scale it is 0, the default step
    # is 0.02 and the default grid ends within one step past t_max
    from qeqlab.linalg import decompose_hermitian
    from qeqlab.models import PureState

    ham = tilted_ising_chain(SpinChainParams(sites=3))
    decomp = decompose_hermitian(ham)
    system = prepare_system(ham, bulk_magnetization(3, "z"), PureState(decomp.eigenvectors[:, 0]))
    assert system.curvature == 0.0
    dt = default_time_step(system.curvature)
    assert dt == 0.02
    grid = time_grid(100.0, dt)
    assert grid[-1] <= 100.0 + 0.02
    reports = evaluate_bounds(system, compute_trajectory(system, grid), [10.0, 100.0])
    assert reports and all(report.holds for report in reports)


def test_a_moving_state_keeps_its_curvature():
    # the round-off cut reaches no state that moves: the all-down chains read
    # M / (m range^2) far above it
    for sites in (2, 5, 9):
        system = chain_system(SpinChainParams(sites=sites))
        decomp = system.decomposition
        assert system.curvature > 1e6 * harness._ROUND_OFF_CURVATURE * decomp.dim * decomp.spectral_range**2


@pytest.mark.parametrize("axis", ["x", "y", "z"])
@pytest.mark.parametrize("sites", range(2, 10))
def test_all_down_energy_spread_is_g_sqrt_n(sites, axis):
    # H|down...down> = E0|down...down> + g sum_i sigma_x^(i)|down...down>,
    # and the N single flips are orthonormal and orthogonal to the start
    params = SpinChainParams(sites=sites)
    spread = chain_system(params, axis).energy_spread
    assert spread == pytest.approx(params.g * math.sqrt(sites), rel=1e-12)


@pytest.mark.parametrize("couplings", [{}, {"g": 1.3, "h": -0.2, "J": 0.7}])
@pytest.mark.parametrize("sites", [2, 5, 8])
def test_energy_spread_matches_the_full_space_oracle(sites, couplings):
    params = SpinChainParams(sites=sites, **couplings)
    ham = tilted_ising_chain(params)
    psi = all_down_state(sites).amplitudes
    h_psi = ham @ psi
    oracle = np.linalg.norm(h_psi - np.vdot(psi, h_psi).real * psi)
    assert chain_system(params).energy_spread == pytest.approx(oracle, rel=1e-12)
    # a complex state spread over every level, propagated in the full space
    state = random_pure_state(np.random.default_rng(sites), 2**sites)
    h_psi = ham @ state.amplitudes
    oracle = np.linalg.norm(h_psi - np.vdot(state.amplitudes, h_psi).real * state.amplitudes)
    system = prepare_system(ham, bulk_magnetization(sites, "z"), state)
    assert system.energy_spread == pytest.approx(oracle, rel=1e-10)


def _curvature_oracle(ham, psi):
    # 2 (|(H - E) psi|^2 + |(H - E)^2 psi|), E the energy mean
    h_psi = ham @ psi
    centered = h_psi - np.vdot(psi, h_psi).real * psi
    return 2 * (np.linalg.norm(centered) ** 2
                + np.linalg.norm(ham @ centered - np.vdot(psi, h_psi).real * centered))


@pytest.mark.parametrize("sites", [2, 5, 8])
def test_curvature_matches_the_full_space_oracle(sites):
    params = SpinChainParams(sites=sites)
    ham = tilted_ising_chain(params)
    oracle = _curvature_oracle(ham, all_down_state(sites).amplitudes)
    assert chain_system(params).curvature == pytest.approx(oracle, rel=1e-12)
    state = random_pure_state(np.random.default_rng(sites), 2**sites)
    system = prepare_system(ham, bulk_magnetization(sites, "z"), state)
    assert system.curvature == pytest.approx(_curvature_oracle(ham, state.amplitudes), rel=1e-10)


def _deviation_series(system, trajectory):
    """Each report's deviation series, from the sampled populations and
    entropies and the equilibrium reference."""
    eq = system.equilibrium
    pops = trajectory.populations
    series = {"population_equilibration": 0.5 * np.sum(np.abs(pops - eq.populations), axis=1),
              "shannon_deviation": np.abs(trajectory.shannon - eq.shannon),
              "observational_deviation": np.abs(trajectory.observational - eq.observational)}
    if eq.expectation is not None:
        series["expectation_deviation"] = (pops @ system.measurement.values - eq.expectation) ** 2
    return series


def _remainder_system(name):
    """A z chain (real weights), a y chain (complex weights) or a random POVM."""
    if name != "povm":
        return chain_system(SpinChainParams(sites=5), name)
    rng = np.random.default_rng(7)
    return prepare_system(random_hermitian(rng, 6), random_povm(rng, 6, 3), random_pure_state(rng, 6))


@pytest.mark.parametrize("name", ["z", "y", "povm"])
def test_curvature_bounds_the_populations_second_derivative(name):
    # central second differences of the populations on a fine grid
    system = _remainder_system(name)
    step = 1e-3
    pops = compute_trajectory(system, time_grid(6.0, step)).populations
    second = np.abs(pops[2:] - 2 * pops[1:-1] + pops[:-2]).sum(axis=1) / step**2
    assert second.max() <= system.curvature


@pytest.mark.parametrize("name", ["z", "y", "povm"])
def test_quadrature_remainder_bounds_the_trapezoid_error(name):
    # the default-grid trapezoid against one on a grid 64 times finer, at
    # windows that end between samples of both grids
    system = _remainder_system(name)
    dt = default_time_step(system.curvature)
    coarse = compute_trajectory(system, time_grid(12.0, dt))
    fine = compute_trajectory(system, time_grid(12.0, dt / 64))
    windows = [3.7 + dt / 3, 10.0 + dt / 7]
    assert not np.isin(windows, fine.times).any()
    reports = evaluate_bounds(system, coarse, windows)
    coarse_series, fine_series = _deviation_series(system, coarse), _deviation_series(system, fine)
    names = {"population_equilibration", "shannon_deviation", "observational_deviation"}
    assert {r.name for r in reports} == names | (set() if name == "povm" else {"expectation_deviation"})
    for report in reports:
        params = report.parameters
        assert report.lhs == params["trapezoid"] + params["quadrature_remainder"]
        assert params["trapezoid"] == time_average_scalar(coarse, coarse_series[report.name], params["T"])
        refined = time_average_scalar(fine, fine_series[report.name], params["T"])
        assert abs(params["trapezoid"] - refined) <= params["quadrature_remainder"]


@pytest.mark.parametrize("axis", ["z", "y"])
def test_first_order_remainder_on_a_segment_with_an_outcome_zero_at_one_end(axis):
    # along z the all-down chain starts with every outcome but one at zero,
    # so the first segment's Jeffreys divergence is infinite; along y every
    # outcome starts positive and the second-order term is the smaller
    system = chain_system(SpinChainParams(sites=5), axis)
    dt = default_time_step(system.curvature)
    trajectory = compute_trajectory(system, time_grid(3 * dt, dt))
    jeffreys = harness._segment_jeffreys(trajectory.populations)
    assert np.isinf(jeffreys[0]) == (axis == "z")
    assert np.all(np.isfinite(jeffreys[1:]))
    h = float(np.max(np.diff(trajectory.times)))
    tau1, tau2 = system.energy_spread * h / 2, system.curvature * h * h / 16
    first_order = {"shannon_deviation": shannon_deviation_bound(system.r, tau1),
                   "observational_deviation": observational_deviation_bound(system.dim, tau1)}
    second_order = {"shannon_deviation": shannon_deviation_bound(system.r, tau2),
                    "observational_deviation": observational_deviation_bound(system.dim, tau2)}
    # the window [0, dt] is the first segment
    window = float(trajectory.times[1])
    for report in evaluate_bounds(system, trajectory, [window]):
        remainder = report.parameters["quadrature_remainder"]
        if report.name in first_order:
            with_triangle = second_order[report.name] + h * jeffreys[0] / 8 / window
            assert remainder == pytest.approx(min(first_order[report.name], with_triangle), rel=1e-12)
            assert (remainder == pytest.approx(first_order[report.name], rel=1e-12)) == (axis == "z")
        else:
            # the convex reports stay under their chord: no triangle
            scale = 1.0 if report.name == "population_equilibration" else 8 * system.observable_norm**2
            assert remainder == pytest.approx(scale * min(tau1, tau2), rel=1e-12)


@pytest.mark.parametrize("axis", ["x", "z"])
def test_an_eigenstate_has_no_curvature_and_no_remainder(axis):
    # with no transverse field the all-down state is an eigenstate
    system = chain_system(SpinChainParams(sites=5, g=0.0, h=0.5, J=1.0), axis)
    assert system.curvature == 0.0
    dt = default_time_step(system.curvature)
    assert dt == 0.02
    trajectory = compute_trajectory(system, time_grid(10.0, dt))
    reports = evaluate_bounds(system, trajectory, [3.7, 10.0])
    assert len(reports) == 8
    for report in reports:
        assert report.holds
        assert report.parameters["quadrature_remainder"] < 1e-12


def test_free_spins_average_without_a_warning():
    # the suite turns warnings into errors; this run used to warn that
    # halving the step moved an average by 1.354e-04
    config = ExperimentConfig(kind="tilted_ising", sites=3, g=1.0, h=0.0, J=0.0,
                              t_max=10.0, average_grid=(5.0, 10.0), fluctuation_count=100)
    report, system, _ = execute_experiment(config)
    assert report["system"]["energy_spread"] == system.energy_spread == pytest.approx(math.sqrt(3), rel=1e-12)
    assert all(bound["status"] == "holds" for bound in report["bounds"])


def test_sample_deviations_near_time_zero_gives_equilibrium_entropy():
    # a vanishing window pins the sample times at zero, where the
    # deviation equals the equilibrium entropy for the all-down state
    system = small_chain(3)
    shannon_dev, observational_dev = sample_deviations(system, 1e-9, 1, seed=5)
    assert shannon_dev.shape == observational_dev.shape == (1,)
    assert abs(shannon_dev[0] - system.equilibrium.shannon) < 1e-6
    assert abs(observational_dev[0] - system.equilibrium.observational) < 1e-6


def test_sample_deviations_deterministic_and_consistent():
    system = small_chain(3)
    a_sh, a_ob = sample_deviations(system, 100.0, 500, seed=7)
    b_sh, b_ob = sample_deviations(system, 100.0, 500, seed=7)
    assert np.array_equal(a_sh, b_sh) and np.array_equal(a_ob, b_ob)
    c_sh, c_ob = sample_deviations(system, 100.0, 500, seed=8)
    assert not np.array_equal(a_sh, c_sh)
    assert not np.array_equal(a_ob, c_ob)

    # spot-check one sample against a direct evolution
    rng = np.random.default_rng(7)
    times = rng.uniform(0.0, 100.0, 500)
    state = evolve(system.decomposition, system.initial, float(times[0]))
    pops = populations(system.measurement, state)
    from qeqlab.entropy import shannon_entropy

    expected = abs(shannon_entropy(pops) - system.equilibrium.shannon)
    assert abs(a_sh[0] - expected) < 1e-10


def test_sample_deviations_share_one_draw_of_times():
    # sample k of both arrays is taken at the k-th time of the one draw
    from qeqlab.entropy import observational_entropy, shannon_entropy

    system = small_chain(4)
    window, count, seed = 50.0, 300, 21
    shannon_dev, observational_dev = sample_deviations(system, window, count, seed=seed)
    times = np.random.default_rng(seed).uniform(0.0, window, count)
    eq = system.equilibrium
    for k in (0, 1, 137, count - 1):
        state = evolve(system.decomposition, system.initial, float(times[k]))
        pops = populations(system.measurement, state)
        mult = system.measurement.multiplicities
        assert abs(shannon_dev[k] - abs(shannon_entropy(pops) - eq.shannon)) < 1e-10
        assert abs(observational_dev[k]
                   - abs(observational_entropy(pops, mult) - eq.observational)) < 1e-10


def test_fit_exponential_exact_recovery():
    points = [(n, 2.0 * math.exp(-0.5 * n)) for n in range(3, 10)]
    fit = fit_exponential(points)
    assert abs(fit["a"] - 2.0) < 1e-10
    assert abs(fit["b"] + 0.5) < 1e-10
    assert fit["residual"] < 1e-12
    with pytest.raises(ValueError, match="3 points"):
        fit_exponential(points[:2])
    with pytest.raises(ValueError, match="positive"):
        fit_exponential([(1, 1.0), (2, -1.0), (3, 1.0)])
    # a line through one x is not determined: polyfit would return its minimum-norm solution
    with pytest.raises(ValueError, match="distinct x"):
        fit_exponential([(5, 1.0), (5, 2.0), (5, 3.0)])


def test_suite_report_counts_violations_and_keeps_the_first_worst_case():
    from qeqlab.bounds import ATOL_BOUND
    from qeqlab.verify import _suite_report

    # one violated case; a case exactly ATOL_BOUND over its bound holds
    cases = [(0.25, 1.0), (1.0 + ATOL_BOUND, 1.0), (3.0, 2.0), (0.5, 0.75)]
    report = _suite_report("suite", iter(cases), {"max_dim": 4})
    assert report.parameters == {"cases": 4, "violations": 1, "max_dim": 4}
    assert (report.name, report.lhs, report.rhs) == ("suite", 3.0, 2.0)
    # of two cases with the same largest lhs - rhs, the first is the worst
    report = _suite_report("suite", iter([(0.5, 1.0), (0.25, 0.5), (0.5, 0.75), (0.0, 1.0)]), {})
    assert report.parameters == {"cases": 4, "violations": 0}
    assert (report.lhs, report.rhs) == (0.25, 0.5)


def test_finite_time_average_curve_flat_for_constant():
    system = small_chain(2)
    traj = compute_trajectory(system, time_grid(10.0, 0.02))
    constant = np.full_like(traj.times, 2.5)
    curve = [time_average_scalar(traj, constant, T) for T in (2.0, 5.0, 10.0)]
    assert np.allclose(curve, 2.5, atol=1e-12)


def test_evaluate_bounds_requires_two_outcomes():
    system = prepare_system(
        tilted_ising_chain(SpinChainParams(sites=2)),
        np.eye(4, dtype=complex),
        all_down_state(2),
    )
    traj = compute_trajectory(system, time_grid(5.0, 0.02))
    with pytest.raises(ValueError, match="r >= 2"):
        evaluate_bounds(system, traj, [5.0])


def test_config_validation_errors():
    with pytest.raises(ConfigError, match="'model.kind'"):
        ExperimentConfig.from_dict({})
    with pytest.raises(ConfigError, match="bogus"):
        ExperimentConfig.from_dict({"model": {"kind": "tilted_ising", "sites": 3}, "bogus": 1})
    with pytest.raises(ConfigError, match="model.kind"):
        ExperimentConfig.from_dict({"model": {"kind": "unknown"}})
    with pytest.raises(ConfigError, match="model.sites"):
        ExperimentConfig.from_dict({"model": {"kind": "tilted_ising"}})
    with pytest.raises(ConfigError, match="times.step"):
        ExperimentConfig.from_dict({"model": {"kind": "precessing_spin"},
                                    "times": {"step": 0.1}})
    with pytest.raises(ConfigError, match="average_grid"):
        ExperimentConfig.from_dict({"model": {"kind": "precessing_spin"},
                                    "times": {"t_max": 5.0}, "average_grid": [10.0]})


def test_spin_bath_dimension_is_capped_at_parse():
    # 2 * bath_dim is checked against the cap before anything is built
    with pytest.raises(DimensionCapError, match="bath_dim"):
        ExperimentConfig.from_dict({"model": {"kind": "spin_bath", "bath_dim": 10**7}})
    with pytest.raises(DimensionCapError, match="bath_dim"):
        ExperimentConfig.from_dict({"model": {"kind": "spin_bath", "bath_dim": 4097}})
    ExperimentConfig.from_dict({"model": {"kind": "spin_bath", "bath_dim": 4096}})


def test_config_round_trip():
    raw = {
        "label": "demo",
        "model": {"kind": "tilted_ising", "sites": 4},
        "times": {"t_max": 20.0, "dt": 0.05},
        "average_grid": [5, 20],
        "fluctuation": {"window": 100.0, "count": 50},
        "seed": 3,
    }
    config = ExperimentConfig.from_dict(raw)
    resolved = config.resolved_dict()
    again = ExperimentConfig.from_dict(resolved)
    assert again == config
    assert again.resolved_dict() == resolved


def test_run_experiment_deterministic():
    config = ExperimentConfig.from_dict({
        "label": "det",
        "model": {"kind": "tilted_ising", "sites": 3},
        "times": {"t_max": 10.0},
        "average_grid": [5.0, 10.0],
        "fluctuation": {"window": 50.0, "count": 200},
        "seed": 11,
    })
    a = canonical_json(execute_experiment(config)[0])
    b = canonical_json(execute_experiment(config)[0])
    assert a == b


def test_run_experiment_past_hypothesis_and_bounds():
    config = ExperimentConfig.from_dict({
        "label": "n4",
        "model": {"kind": "tilted_ising", "sites": 4},
        "times": {"t_max": 50.0},
        "average_grid": [10.0, 50.0],
        "fluctuation": {"window": 200.0, "count": 500},
        "seed": 0,
    })
    report, system, trajectory = execute_experiment(config)
    assert report["past_hypothesis"]["initial_shannon"] == 0.0
    assert report["past_hypothesis"]["equilibrium_shannon"] > 0.0
    assert all(r["status"] == "holds" for r in report["bounds"])
    names = {r["name"] for r in report["bounds"]}
    assert {"population_equilibration", "shannon_deviation", "observational_deviation",
            "expectation_deviation", "average_entropy_vs_equilibrium",
            "shannon_fluctuation", "observational_fluctuation"} <= names
    # every inequality appears exactly once per averaging window
    for name in ("population_equilibration", "shannon_deviation"):
        Ts = [r["parameters"]["T"] for r in report["bounds"] if r["name"] == name]
        assert Ts == [10.0, 50.0]
    # magnetization starts at -1 and moves toward the equilibrium value
    assert trajectory.expectation[0] == pytest.approx(-1.0, abs=1e-12)
    eq = system.equilibrium.expectation
    assert abs(trajectory.expectation[-1] - eq) < abs(trajectory.expectation[0] - eq)


def test_report_delta_matches_independent_formula():
    config = ExperimentConfig.from_dict({
        "label": "n4",
        "model": {"kind": "tilted_ising", "sites": 4},
        "times": {"t_max": 10.0},
        "average_grid": [10.0],
        "fluctuation": {"window": 50.0, "count": 100},
    })
    report, system, _ = execute_experiment(config)
    # recompute from the defining formula, independent of the bounds module
    r, d_eff = system.measurement.r, system.d_eff
    x = 0.5 * math.sqrt(r / d_eff)
    h2 = -x * math.log(x) - (1 - x) * math.log(1 - x) if x <= 0.5 else math.log(2)
    assert abs(report["system"]["delta"] - (math.log(r - 1) * x + h2)) < 1e-12


def test_run_experiment_oracle_flag():
    config = ExperimentConfig.from_dict({
        "label": "oracle",
        "model": {"kind": "precessing_spin", "g": 1.0},
        "times": {"t_max": 20.0, "dt": 0.01},
        "average_grid": [10.0],
        "fluctuation": {"window": 100.0, "count": 100},
    })
    report = execute_experiment(config)[0]
    assert report["oracle"] is not None
    assert report["oracle"]["passed"]
    assert report["oracle"]["max_population_error"] < 1e-8


@pytest.mark.parametrize("model", [{"kind": "precessing_spin"}, {"kind": "spin_bath"},
                                   {"kind": "spin_bath", "g": 0.7, "bath_dim": 3}])
def test_analytic_run_and_oracle_share_g(model):
    config = ExperimentConfig.from_dict({
        "label": "analytic",
        "model": model,
        "times": {"t_max": 10.0, "dt": 0.01},
        "average_grid": [10.0],
        "fluctuation": {"window": 10.0, "count": 10},
    })
    # an absent g or bath_dim takes the README default, 1.0 or 4
    assert config.g == model.get("g", 1.0)
    assert config.bath_dim == (model.get("bath_dim", 4) if model["kind"] == "spin_bath" else None)
    report, system, _ = execute_experiment(config)
    assert system.decomposition.spectral_range == pytest.approx(2 * config.g, abs=1e-12)
    assert system.dim == 2 * (config.bath_dim or 1)
    assert report["oracle"]["passed"]


def test_spin_bath_counterexample_experiment():
    for bath_dim in (4, 16):
        config = ExperimentConfig.from_dict({
            "label": f"bath{bath_dim}",
            "model": {"kind": "spin_bath", "g": 1.0, "bath_dim": bath_dim},
            "times": {"t_max": 4 * math.pi, "dt": math.pi / 400},
            "average_grid": [4 * math.pi],
            "fluctuation": {"window": 30.0, "count": 100},
        })
        report, system, trajectory = execute_experiment(config)
        swing = trajectory.shannon.max() - trajectory.shannon.min()
        assert swing >= 0.99 * math.log(2)
        assert report["trajectory_summary"]["boltzmann_variance"] <= 1e-12
        assert np.max(np.abs(trajectory.boltzmann - math.log(bath_dim))) <= 1e-10


def test_sweep_chain_lengths_structure():
    sweep = sweep_chain_lengths(SweepConfig(sites=(2, 3, 4), t_max=30.0, late_window=(10.0, 25.0)))
    assert [row["sites"] for row in sweep["rows"]] == [2, 3, 4]
    for row in sweep["rows"]:
        assert row["outcomes"] == row["sites"] + 1
        assert 1.0 <= row["d_eff"] <= row["dim"]
        assert row["delta"] > 0 and row["late_abs_dev"] > 0
    assert set(sweep["fits"]["delta_fit"]) == {"a", "b", "residual"}


def _chain_report(model, t_max=10.0, grid=(5.0, 10.0)):
    return execute_experiment(ExperimentConfig.from_dict({
        "label": "fields",
        "model": model,
        "times": {"t_max": t_max},
        "average_grid": list(grid),
        "fluctuation": {"window": 50.0, "count": 100},
    }))


def test_delta_applicable_follows_the_degenerate_gap_multiplicity():
    report, _, _ = _chain_report({"kind": "tilted_ising", "sites": 7})
    assert report["system"]["delta_applicable"] is True
    # a transverse field alone: the gaps of the free spins coincide
    model = {"kind": "tilted_ising", "sites": 3, "g": 1.0, "h": 0.0, "J": 0.0}
    report, system, _ = _chain_report(model, grid=[10.0])
    assert system.gap_stats.degenerate_gap_multiplicity() == 3
    assert report["system"]["delta_applicable"] is False


@pytest.mark.xfail(strict=True, reason=(
    "delta bounds only the infinite-time mean of the Shannon deviation, not its mean over "
    "a short window, so at N = 10 and W = 0.25 the tail check reads lhs 1.0 against "
    "rhs 0.9232"))
def test_shannon_tail_check_holds_in_a_short_window():
    system = chain_system(SpinChainParams(sites=10))
    for seed in (0, 3):
        reports, _ = fluctuation_checks(system, 0.25, 2000, seed)
        assert all(report.status == "holds" for report in reports)


def test_past_hypothesis_late_band_recomputed_from_the_trajectory():
    report, system, trajectory = _chain_report({"kind": "tilted_ising", "sites": 4}, t_max=40.0, grid=[40.0])
    late = trajectory.times >= 0.75 * 40.0
    band = np.max(np.abs(trajectory.shannon[late] - system.equilibrium.shannon))
    ph = report["past_hypothesis"]
    assert ph["late_band"] == band == report["trajectory_summary"]["late_band"]
    initial, eq = ph["initial_shannon"], ph["equilibrium_shannon"]
    assert ph["within_late_band"] == (abs(initial - eq) <= band)
    assert ph["ratio"] == initial / eq


def test_shannon_reports_carry_the_alt_prefactor_bound():
    report, _, _ = _chain_report({"kind": "tilted_ising", "sites": 4})
    shannon = [rep for rep in report["bounds"] if rep["name"] == "shannon_deviation"]
    assert len(shannon) == 2
    for rep in shannon:
        params = rep["parameters"]
        want = shannon_deviation_bound(params["outcomes"], params["eta"], alt_prefactor=True)
        assert params["rhs_alt_prefactor"] == want > rep["rhs"]


def test_sweep_inversions_count_upward_steps():
    sweep = sweep_chain_lengths(SweepConfig(sites=(2, 3, 4), t_max=30.0, late_window=(10.0, 25.0)))
    for key, column in (("delta_inversions", "delta"), ("late_inversions", "late_abs_dev")):
        values = [row[column] for row in sweep["rows"]]
        assert sweep["fits"][key] == sum(b > a for a, b in zip(values, values[1:]))


_OVERLAP_CONFIGS = {
    "chain": {"label": "overlap", "model": {"kind": "tilted_ising", "sites": 5},
              "times": {"t_max": 100.0}, "average_grid": [10.0, 30.0],
              # more than one propagation chunk of times on both threads
              # (1385 grid times at the default step of 0.0723)
              "fluctuation": {"window": 500.0, "count": 2500}, "seed": 3},
    "oracle": {"label": "overlap", "model": {"kind": "precessing_spin", "g": 1.0},
               "times": {"t_max": 20.0, "dt": 0.01}, "average_grid": [10.0, 20.0],
               "fluctuation": {"window": 100.0, "count": 300}, "seed": 4},
}


@pytest.mark.parametrize("name", sorted(_OVERLAP_CONFIGS))
def test_overlapped_run_equals_the_sequential_composition(name):
    config = ExperimentConfig.from_dict(_OVERLAP_CONFIGS[name])
    before = threading.active_count()
    # switch threads as often as the interpreter can, to interleave the
    # two propagations finely
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        report, _, trajectory = execute_experiment(config)
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == before
    # the same stages, one after the other on this thread
    system = build_system(config)
    times = time_grid(config.t_max, default_time_step(system.curvature)
                      if config.dt is None else config.dt)
    sequential = compute_trajectory(system, times)
    reports = evaluate_bounds(system, sequential, config.average_grid)
    reports.append(average_entropy_check(sequential, system.equilibrium.populations, config.t_max))
    checks, fluctuations = fluctuation_checks(system, config.fluctuation_window,
                                              config.fluctuation_count, config.seed)
    for key in ("times", "populations", "shannon", "observational", "boltzmann"):
        assert np.array_equal(getattr(trajectory, key), getattr(sequential, key))
    assert canonical_json(report["bounds"]) == canonical_json([rep.to_json_dict() for rep in reports + checks])
    assert canonical_json(report["fluctuations"]) == canonical_json(fluctuations)


# many chunks on both streams, so some are still queued when a stage fails
# or while the bounds are evaluated
_LONG_RUN = {**_OVERLAP_CONFIGS["chain"], "times": {"t_max": 200.0},
             "fluctuation": {"window": 500.0, "count": 50_000}}


def _fail_overlapped_run(monkeypatch, stage):
    """Run _LONG_RUN with ``stage`` failing: the error surfaces, no thread
    is left behind, and the chunks still queued were cancelled."""

    def fail(*args):
        raise RuntimeError(f"{stage} failed")

    # chunk calls per stream; the grid's chunks are the increasing ones
    calls = {"trajectory": 0, "sample": 0}
    lock = threading.Lock()
    original = harness._sq_amplitudes

    def counted(weighted, levels, ts):
        stream = "trajectory" if np.all(np.diff(ts) > 0) else "sample"
        with lock:
            calls[stream] += 1
            k = calls[stream]
        if stage == f"{stream}_chunk" and k == 2:
            fail()
        return original(weighted, levels, ts)

    monkeypatch.setattr(harness, "_sq_amplitudes", counted)
    if stage in ("sample_deviations", "evaluate_bounds"):
        monkeypatch.setattr(harness, stage, fail)
    config = ExperimentConfig.from_dict(_LONG_RUN)
    system = build_system(config)
    samples = len(time_grid(config.t_max, default_time_step(system.curvature)))
    chunks = sum(math.ceil(n / harness._CHUNK_TIMES) for n in (samples, config.fluctuation_count))
    before = threading.active_count()
    with pytest.raises(RuntimeError, match=f"{stage} failed"):
        execute_experiment(config)
    assert threading.active_count() == before
    assert sum(calls.values()) < chunks


def test_overlapped_fluctuation_failure_propagates(monkeypatch):
    _fail_overlapped_run(monkeypatch, "sample_deviations")


@pytest.mark.parametrize("stage", ["trajectory_chunk", "sample_chunk", "evaluate_bounds"])
def test_overlapped_stage_failure_cancels_queued_chunks(monkeypatch, stage):
    # the second chunk of one stream, or the bounds of the trajectory, fail
    _fail_overlapped_run(monkeypatch, stage)


@pytest.mark.parametrize("run", [_OVERLAP_CONFIGS["chain"], _LONG_RUN], ids=["chain", "long"])
def test_overlap_starts_no_sample_chunk_before_the_trajectory_has_returned(monkeypatch, run):
    # the grid's chunks are the increasing ones; each sample chunk records
    # how many of them had returned when it started
    returned, starts = 0, []
    lock = threading.Lock()
    original = harness._sq_amplitudes

    def counted(weighted, levels, ts):
        nonlocal returned
        on_grid = bool(np.all(np.diff(ts) > 0))
        if not on_grid:
            with lock:
                starts.append(returned)
        out = original(weighted, levels, ts)
        if on_grid:
            with lock:
                returned += 1
        return out

    monkeypatch.setattr(harness, "_sq_amplitudes", counted)
    config = ExperimentConfig.from_dict(run)
    _, _, trajectory = execute_experiment(config)
    grid_chunks = math.ceil(len(trajectory.times) / harness._CHUNK_TIMES)
    assert grid_chunks >= 2
    assert starts == [grid_chunks] * math.ceil(config.fluctuation_count / harness._CHUNK_TIMES)


@pytest.mark.parametrize("run", [_OVERLAP_CONFIGS["chain"], _LONG_RUN], ids=["chain", "long"])
def test_overlap_holds_at_most_two_chunk_sets(monkeypatch, run):
    # Each chunk holds three rows x 1024 arrays while _sq_amplitudes runs.
    # simulate's two streams share two workers, so at most two chunks run
    # at once, and at most one while the trajectory's bounds are evaluated;
    # a bare propagation, as verify and sweep call it, runs one.
    active = peak = tail_peak = 0
    in_tail = False
    lock = threading.Lock()
    original, evaluate = harness._sq_amplitudes, harness.evaluate_bounds

    def counted(*args):
        nonlocal active, peak, tail_peak
        with lock:
            active += 1
            peak = max(peak, active)
            if in_tail:
                tail_peak = max(tail_peak, active)
        try:
            return original(*args)
        finally:
            with lock:
                active -= 1

    def tail(*args):
        nonlocal in_tail, tail_peak
        with lock:
            in_tail, tail_peak = True, active
        try:
            return evaluate(*args)
        finally:
            in_tail = False

    monkeypatch.setattr(harness, "_sq_amplitudes", counted)
    monkeypatch.setattr(harness, "evaluate_bounds", tail)
    config = ExperimentConfig.from_dict(run)
    _, system, trajectory = execute_experiment(config)
    assert 1 <= peak <= 2
    assert tail_peak <= 1
    peak = 0
    compute_trajectory(system, trajectory.times)
    assert peak == 1
    peak = 0
    fluctuation_checks(system, config.fluctuation_window, config.fluctuation_count, config.seed)
    assert peak == 1
