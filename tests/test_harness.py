import math

import numpy as np
import pytest

from qeqlab.dynamics import evolve
from qeqlab.harness import (
    ConfigError,
    ExperimentConfig,
    compute_trajectory,
    evaluate_bounds,
    execute_experiment,
    finite_time_average_curve,
    fit_exponential,
    prepare_system,
    sample_deviations,
    sweep_chain_lengths,
    time_grid,
    window_average,
)
from qeqlab.measurement import populations
from qeqlab.models import (
    DensityMatrix,
    SpinChainParams,
    all_down_state,
    bulk_magnetization,
    precessing_spin,
    spin_bath,
    tilted_ising_chain,
)
from qeqlab.serialize import canonical_json
from qeqlab.verify import random_povm


def small_chain(sites=3, axis="z"):
    params = SpinChainParams(sites=sites)
    return prepare_system(
        tilted_ising_chain(params),
        bulk_magnetization(sites, axis),
        all_down_state(sites),
        label=f"chain_{sites}",
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


def test_equilibrium_reference_matches_omega_oracle():
    from qeqlab.dynamics import equilibrium_state

    for axis in ("z", "y"):
        system = small_chain(3, axis)
        omega = equilibrium_state(system.decomposition, system.initial)
        oracle = populations(system.measurement, omega)
        assert np.max(np.abs(system.equilibrium.populations - oracle)) < 1e-10


def test_time_grid_covers_t_max():
    ts = time_grid(10.0, 0.3)
    assert ts[0] == 0.0
    assert ts[-1] >= 10.0 - 1e-12
    assert np.allclose(np.diff(ts), 0.3)
    with pytest.raises(ValueError):
        time_grid(0.0, 0.1)


def test_window_average_matches_oracle():
    system = small_chain(3)
    traj = compute_trajectory(system, time_grid(20.0, 0.01))
    got = window_average(traj, "shannon", 5.0, 15.0)
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
    assert np.max(traj.quantity("expectation_sq_dev")) < 1e-20
    assert np.max(traj.quantity("population_distance")) < 1e-10
    for report in evaluate_bounds(system, traj, [5.0]):
        assert report.holds
    shannon_dev, observational_dev = sample_deviations(system, 100.0, 50, seed=0)
    assert np.max(shannon_dev) < 1e-9
    assert np.max(observational_dev) < 1e-9


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
    assert abs(fit.a - 2.0) < 1e-10
    assert abs(fit.b + 0.5) < 1e-10
    assert fit.residual < 1e-12
    with pytest.raises(ValueError, match="3 points"):
        fit_exponential(points[:2])
    with pytest.raises(ValueError, match="positive"):
        fit_exponential([(1, 1.0), (2, -1.0), (3, 1.0)])
    # a line through one x is not determined: polyfit would return its minimum-norm solution
    with pytest.raises(ValueError, match="distinct x"):
        fit_exponential([(5, 1.0), (5, 2.0), (5, 3.0)])


def test_finite_time_average_curve_flat_for_constant():
    system = small_chain(2)
    traj = compute_trajectory(system, time_grid(10.0, 0.02))
    constant = np.full_like(traj.times, 2.5)
    curve = finite_time_average_curve(traj, constant, [2.0, 5.0, 10.0])
    assert np.allclose([v for _, v in curve], 2.5, atol=1e-12)


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
    with pytest.raises(ConfigError, match="'model'"):
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
    a = canonical_json(execute_experiment(config)[0].to_json_dict())
    b = canonical_json(execute_experiment(config)[0].to_json_dict())
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
    assert report.past_hypothesis["initial_shannon"] == 0.0
    assert report.past_hypothesis["equilibrium_shannon"] > 0.0
    assert all(r.holds for r in report.bound_reports)
    names = {r.name for r in report.bound_reports}
    assert {"population_equilibration", "shannon_deviation", "observational_deviation",
            "expectation_deviation", "average_entropy_vs_equilibrium",
            "shannon_fluctuation", "observational_fluctuation"} <= names
    # every inequality appears exactly once per averaging window
    for name in ("population_equilibration", "shannon_deviation"):
        Ts = [r.parameters["T"] for r in report.bound_reports if r.name == name]
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
    assert abs(report.system["delta"] - (math.log(r - 1) * x + h2)) < 1e-12


def test_run_experiment_oracle_flag():
    config = ExperimentConfig.from_dict({
        "label": "oracle",
        "model": {"kind": "precessing_spin", "g": 1.0},
        "times": {"t_max": 20.0, "dt": 0.01},
        "average_grid": [10.0],
        "fluctuation": {"window": 100.0, "count": 100},
    })
    report = execute_experiment(config)[0]
    assert report.oracle is not None
    assert report.oracle["passed"]
    assert report.oracle["max_population_error"] < 1e-8


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
        assert report.trajectory_summary["boltzmann_variance"] <= 1e-12
        assert np.max(np.abs(trajectory.boltzmann - math.log(bath_dim))) <= 1e-10


def test_sweep_chain_lengths_structure():
    sweep = sweep_chain_lengths([2, 3, 4], t_max=30.0, late_window=(10.0, 25.0))
    assert [row["sites"] for row in sweep["rows"]] == [2, 3, 4]
    for row in sweep["rows"]:
        assert row["outcomes"] == row["sites"] + 1
        assert 1.0 <= row["d_eff"] <= row["dim"]
        assert row["delta"] > 0 and row["late_abs_dev"] > 0
    assert set(sweep["delta_fit"]) == {"a", "b", "residual"}
