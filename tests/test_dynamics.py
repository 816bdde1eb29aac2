import math
import warnings

import numpy as np
import pytest

from qeqlab.dynamics import (
    EquilibriumReference,
    Trajectory,
    default_time_step,
    effective_dimension,
    equilibrium_state,
    evolve,
    finite_time_average_state,
    gap_statistics,
    time_average_scalar,
)
from qeqlab.entropy import von_neumann_entropy
from qeqlab.linalg import decompose_hermitian, frobenius_norm, operator_norm
from qeqlab.measurement import populations, pvm_from_observable
from qeqlab.models import DensityMatrix, PureState, pauli, precessing_spin


def random_hermitian(rng, dim):
    G = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (G + G.conj().T) / 2


def random_density(rng, dim):
    G = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = G @ G.conj().T
    return DensityMatrix(rho / np.trace(rho).real)


def brute_force_window_count(values, eps):
    """Independent oracle: count gaps in [g, g + eps) anchored at each gap."""
    gaps = sorted(a - b for a in values for b in values if a != b)
    best = 0
    for start in gaps:
        best = max(best, sum(1 for g in gaps if start <= g < start + eps))
    return best


@pytest.fixture()
def spin():
    ham, initial, obs = precessing_spin(1.0)
    return decompose_hermitian(ham), initial, pvm_from_observable(obs)


def test_evolve_identity_at_zero(spin):
    decomp, initial, _ = spin
    rho = initial.density_matrix()
    assert np.allclose(evolve(decomp, rho, 0.0).matrix, rho.matrix, atol=1e-14)


def test_evolve_quarter_period(spin):
    decomp, initial, measurement = spin
    state = evolve(decomp, initial, math.pi / 4)
    assert np.allclose(populations(measurement, state), [0.5, 0.5], atol=1e-12)


def test_evolve_eigenstate_stationary():
    rng = np.random.default_rng(0)
    decomp = decompose_hermitian(random_hermitian(rng, 6))
    eigenstate = PureState(decomp.eigenvectors[:, 2])
    rho0 = eigenstate.density_matrix()
    for t in (0.5, 3.0, 40.0):
        assert np.allclose(evolve(decomp, rho0, t).matrix, rho0.matrix, atol=1e-10)


def test_evolve_preserves_trace_purity_entropy():
    rng = np.random.default_rng(1)
    decomp = decompose_hermitian(random_hermitian(rng, 8))
    rho = random_density(rng, 8)
    s0, p0 = von_neumann_entropy(rho), rho.purity()
    for t in (0.1, 1.0, 25.0):
        out = evolve(decomp, rho, t)
        assert abs(np.trace(out.matrix).real - 1.0) < 1e-10
        assert abs(out.purity() - p0) < 1e-9
        assert abs(von_neumann_entropy(out) - s0) < 1e-8


def test_evolve_dimension_mismatch(spin):
    decomp, _, _ = spin
    with pytest.raises(ValueError, match="mismatch"):
        evolve(decomp, DensityMatrix(np.eye(3) / 3), 1.0)


def test_equilibrium_state_cases(spin):
    decomp, initial, _ = spin
    omega = equilibrium_state(decomp, initial)
    assert np.allclose(omega.matrix, np.eye(2) / 2, atol=1e-12)

    rng = np.random.default_rng(2)
    d6 = decompose_hermitian(random_hermitian(rng, 6))
    mixed = DensityMatrix(np.eye(6) / 6)
    assert np.allclose(equilibrium_state(d6, mixed).matrix, np.eye(6) / 6, atol=1e-12)

    eigenstate = PureState(d6.eigenvectors[:, 0])
    assert np.allclose(equilibrium_state(d6, eigenstate).matrix,
                       eigenstate.density_matrix().matrix, atol=1e-12)

    # omega commutes with H
    ham = random_hermitian(rng, 6)
    d = decompose_hermitian(ham)
    omega = equilibrium_state(d, random_density(rng, 6)).matrix
    assert operator_norm(ham @ omega - omega @ ham) < 1e-9


def test_effective_dimension_cases(spin):
    decomp, initial, _ = spin
    assert abs(effective_dimension(decomp, initial) - 2.0) < 1e-12

    rng = np.random.default_rng(3)
    d = decompose_hermitian(random_hermitian(rng, 7))
    eigenstate = PureState(d.eigenvectors[:, 4])
    assert abs(effective_dimension(d, eigenstate) - 1.0) < 1e-10
    assert abs(effective_dimension(d, DensityMatrix(np.eye(7) / 7)) - 7.0) < 1e-9


def test_effective_dimension_dual_route_random():
    rng = np.random.default_rng(4)
    for _ in range(10):
        dim = int(rng.integers(2, 33))
        decomp = decompose_hermitian(random_hermitian(rng, dim))
        rho = random_density(rng, dim)
        d_eff = effective_dimension(decomp, rho)  # raises if routes disagree
        omega = equilibrium_state(decomp, rho)
        assert abs(d_eff - 1.0 / omega.purity()) < 1e-9 * max(1.0, d_eff)
        assert 1.0 - 1e-9 <= d_eff <= dim + 1e-9


def test_finite_time_average_small_T_and_diagonal(spin):
    decomp, initial, _ = spin
    rho = initial.density_matrix()
    avg = finite_time_average_state(decomp, rho, 1e-12)
    assert np.max(np.abs(avg.matrix - rho.matrix)) < 1e-9

    rng = np.random.default_rng(5)
    d = decompose_hermitian(random_hermitian(rng, 6))
    rho6 = random_density(rng, 6)
    for T in (0.7, 13.0):
        avg6 = finite_time_average_state(d, rho6, T)
        diag_in = d.to_eigenbasis(rho6.matrix).diagonal()
        diag_out = d.to_eigenbasis(avg6.matrix).diagonal()
        assert np.allclose(diag_in, diag_out, atol=1e-12)
    with pytest.raises(ValueError):
        finite_time_average_state(d, rho6, 0.0)


def test_finite_time_average_full_periods_give_omega(spin):
    decomp, initial, _ = spin
    omega = equilibrium_state(decomp, initial)
    for k in (1, 2, 5):
        avg = finite_time_average_state(decomp, initial, k * math.pi)  # k periods of gap 2g
        assert np.max(np.abs(avg.matrix - omega.matrix)) < 1e-12


def test_sinc_average_agrees_with_trapezoid():
    rng = np.random.default_rng(6)
    for dim in (4, 16):
        decomp = decompose_hermitian(random_hermitian(rng, dim))
        rho = random_density(rng, dim)
        T = 3.0
        ts = np.linspace(0.0, T, 6001)
        acc = np.zeros((dim, dim), dtype=complex)
        samples = np.array([evolve(decomp, rho, t).matrix for t in ts])
        acc = np.trapezoid(samples, ts, axis=0) / T
        closed = finite_time_average_state(decomp, rho, T)
        assert np.max(np.abs(acc - closed.matrix)) < 1e-6


def test_averaged_state_converges_to_omega():
    rng = np.random.default_rng(7)
    for dim in (8, 32, 64):
        decomp = decompose_hermitian(random_hermitian(rng, dim))
        rho = random_density(rng, dim)
        stats = gap_statistics(decomp)
        omega = equilibrium_state(decomp, rho)
        for T in (10.0, 100.0, 1000.0):
            avg = finite_time_average_state(decomp, rho, T)
            assert frobenius_norm(avg.matrix - omega.matrix) <= 2.0 / (stats.min_gap * T) + 1e-12


def test_gap_statistics_two_level():
    g = 0.8
    decomp = decompose_hermitian(g * pauli("x"))
    stats = gap_statistics(decomp)
    assert stats.distinct_count == 2
    assert np.isclose(stats.min_gap, 2 * g)
    assert stats.window_count(2 * g) == 1          # windows of width < 4g hold one gap
    assert stats.window_count(4 * g + 0.1) == 2    # both signed gaps fit


def test_gap_statistics_equally_spaced():
    decomp = decompose_hermitian(np.diag([0.0, 1.0, 2.0]).astype(complex))
    stats = gap_statistics(decomp)
    assert stats.window_count(0.5) == 2  # the two +1 gaps coincide
    assert stats.window_count(0.5) == brute_force_window_count([0.0, 1.0, 2.0], 0.5)
    assert stats.degenerate_gap_multiplicity() == 2


def test_gap_statistics_against_brute_force():
    rng = np.random.default_rng(8)
    for _ in range(10):
        dim = int(rng.integers(3, 10))
        values = np.sort(rng.normal(size=dim))
        decomp = decompose_hermitian(np.diag(values).astype(complex))
        stats = gap_statistics(decomp)
        for eps in (0.05, 0.3, 1.0, 4.0):
            assert stats.window_count(eps) == brute_force_window_count(values, eps)


def test_gap_statistics_monotone_in_eps():
    rng = np.random.default_rng(9)
    decomp = decompose_hermitian(random_hermitian(rng, 12))
    stats = gap_statistics(decomp)
    counts = [stats.window_count(e) for e in np.geomspace(1e-3, 20.0, 30)]
    assert all(a <= b for a, b in zip(counts, counts[1:]))


def test_gap_statistics_single_eigenvalue():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        stats = gap_statistics(decompose_hermitian(np.eye(3, dtype=complex)))
        stats.window_count(0.1)
    assert stats.min_gap is None
    assert stats.window_counts[0.1] == 0
    assert any("single distinct eigenvalue" in str(w.message) for w in caught)


def test_gap_statistics_exact_above_a_thousand_levels():
    # m equally spaced levels: the signed gap +-k occurs m - k times, so a
    # window of width 0.5 holds the m - 1 unit gaps and one of width 1.5
    # the unit and double gaps together
    m = 1100
    stats = gap_statistics(decompose_hermitian(np.diag(np.arange(float(m)))))
    assert stats.distinct_count == m
    assert stats.window_count(0.5) == m - 1
    assert stats.window_count(1.5) == (m - 1) + (m - 2)
    assert stats.degenerate_gap_multiplicity() == m - 1


def _toy_trajectory(times, values):
    zeros = np.zeros_like(values)
    eq = EquilibriumReference(populations=np.array([1.0]), expectation=0.0,
                              shannon=0.0, observational=0.0, boltzmann=0.0)
    return Trajectory(times=times, populations=np.ones((len(times), 1)),
                      expectation=values, shannon=zeros, observational=zeros,
                      boltzmann=zeros, equilibrium=eq)


def test_time_average_constant_and_sine():
    ts = np.linspace(0.0, 2 * math.pi, 20001)
    const = _toy_trajectory(ts, np.full_like(ts, 3.25))
    assert time_average_scalar(const, "expectation", 5.0) == pytest.approx(3.25, abs=1e-14)
    sine = _toy_trajectory(ts, np.sin(ts))
    assert abs(time_average_scalar(sine, "expectation", 2 * math.pi)) < 1e-8


def test_trajectory_keeps_its_validated_float_times():
    ts = [0, 1, 2, 3, 4]
    traj = _toy_trajectory(ts, np.full(len(ts), 2.0))
    assert isinstance(traj.times, np.ndarray) and traj.times.dtype == float
    assert time_average_scalar(traj, "expectation", 4.0) == pytest.approx(2.0, abs=1e-14)


def test_time_average_errors_and_warning():
    ts = np.linspace(0.0, 1.0, 11)
    traj = _toy_trajectory(ts, np.sin(40 * ts))
    with pytest.raises(ValueError, match="span"):
        time_average_scalar(traj, "expectation", 2.0)
    with pytest.warns(UserWarning, match="not converged"):
        time_average_scalar(traj, "expectation", 1.0)


def test_time_average_population_distance_one_period(spin):
    decomp, initial, measurement = spin
    from qeqlab.harness import compute_trajectory, prepare_system

    system = prepare_system(decomp.reconstruct(), measurement, initial)
    ts = np.linspace(0.0, math.pi, 20001)
    traj = compute_trajectory(system, ts)
    avg = time_average_scalar(traj, "population_distance", math.pi)
    assert abs(avg - 1.0 / math.pi) < 1e-6


def test_default_time_step():
    assert default_time_step(1.0) == 0.02
    assert np.isclose(default_time_step(100.0), math.pi / 1000.0)
    assert default_time_step(0.0) == 0.02
