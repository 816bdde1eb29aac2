import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qeqlab import dynamics
from qeqlab.dynamics import (
    _BLOCK,
    GapStatistics,
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
from qeqlab.harness import chain_system
from qeqlab.linalg import decompose_hermitian
from qeqlab.measurement import populations, pvm_from_observable
from qeqlab.models import (
    DensityMatrix,
    PureState,
    SpinChainParams,
    pauli,
    spin_bath,
)


def random_hermitian(rng, dim):
    G = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (G + G.conj().T) / 2


def random_density(rng, dim):
    G = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = G @ G.conj().T
    return DensityMatrix(rho / np.trace(rho).real)


def random_pure(rng, dim):
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return PureState(psi / np.linalg.norm(psi))


def purity(rho):
    return float(np.sum(np.abs(rho.matrix) ** 2))


def amps_eig(decomp, state):
    return decomp.eigenvectors.conj().T @ state.amplitudes


def brute_force_window_count(values, eps):
    """Independent oracle: count gaps in [g, g + eps) anchored at each gap."""
    gaps = sorted(a - b for a in values for b in values if a != b)
    best = 0
    for start in gaps:
        best = max(best, sum(1 for g in gaps if start <= g < start + eps))
    return best


@pytest.fixture()
def spin():
    ham, initial, obs = spin_bath(1.0, 1)
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
    s0, p0 = von_neumann_entropy(rho), purity(rho)
    for t in (0.1, 1.0, 25.0):
        out = evolve(decomp, rho, t)
        assert abs(np.trace(out.matrix).real - 1.0) < 1e-10
        assert abs(purity(out) - p0) < 1e-9
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
    assert np.linalg.norm(ham @ omega - omega @ ham, 2) < 1e-9


def test_effective_dimension_cases(spin):
    decomp, initial, _ = spin
    assert abs(effective_dimension(decomp, amps_eig(decomp, initial)) - 2.0) < 1e-12

    rng = np.random.default_rng(3)
    d = decompose_hermitian(random_hermitian(rng, 7))
    eigenstate = PureState(d.eigenvectors[:, 4])
    assert abs(effective_dimension(d, amps_eig(d, eigenstate)) - 1.0) < 1e-10
    # equal weight on all 7 nondegenerate levels
    uniform = PureState(d.eigenvectors @ np.full(7, 1.0 / math.sqrt(7.0)))
    assert abs(effective_dimension(d, amps_eig(d, uniform)) - 7.0) < 1e-9
    with pytest.raises(ValueError, match="mismatch"):
        effective_dimension(d, np.ones(3) / math.sqrt(3.0))


def test_effective_dimension_matches_purity_for_pure_states():
    # a pure state has d_eff = 1 / Tr[omega^2], degenerate spectrum or not
    rng = np.random.default_rng(4)
    bath_ham, bath_initial, _ = spin_bath(0.7, 3)  # levels -0.7 and 0.7, each 3-fold
    bath = decompose_hermitian(bath_ham)
    assert list(bath.multiplicities) == [3, 3]
    cases = [(bath, bath_initial)] + [(bath, random_pure(rng, 6)) for _ in range(5)]
    for _ in range(10):
        dim = int(rng.integers(2, 33))
        cases.append((decompose_hermitian(random_hermitian(rng, dim)), random_pure(rng, dim)))
    for decomp, psi in cases:
        d_eff = effective_dimension(decomp, amps_eig(decomp, psi))
        omega = equilibrium_state(decomp, psi)
        assert abs(d_eff - 1.0 / purity(omega)) < 1e-9 * max(1.0, d_eff)
        assert 1.0 - 1e-9 <= d_eff <= len(decomp.cluster_slices) + 1e-9


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
            assert np.linalg.norm(avg.matrix - omega.matrix) <= 2.0 / (stats.min_gap * T) + 1e-12


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
    assert stats.min_gap is None
    assert stats.window_count(0.1) == 0
    assert stats.window_counts([0.1, 2.0]).tolist() == [0, 0]
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


def all_pairs_gaps(values):
    """Oracle for the mirrored build: every ordered pair's difference from
    the m x m difference matrix, sorted."""
    diff = values[None, :] - values[:, None]
    return np.sort(diff[~np.eye(len(values), dtype=bool)])


def test_gap_multiset_matches_all_pairs_sort():
    rng = np.random.default_rng(24)
    spectra = [np.sort(rng.normal(size=m)) * rng.choice([1e-3, 1.0, 40.0]) for m in range(2, 65)]
    # degenerate clusters: each distinct value enters once, whatever its multiplicity
    spectra.append(np.repeat([-2.0, -0.5, 0.0, 0.25, 3.0], [3, 1, 4, 2, 5]))
    spectra.append(np.arange(1100.0))  # the spectrum of the m = 1100 test above
    for values in spectra:
        decomp = decompose_hermitian(np.diag(values))
        assert np.array_equal(gap_statistics(decomp)._gaps, all_pairs_gaps(decomp.cluster_values))


def test_gap_multiset_build_stays_within_its_array():
    # the m(m - 1) float64 result, and at most 60 % more while building;
    # the all-pairs build holds about three m x m float64 arrays at once
    m = 1500
    decomp = decompose_hermitian(np.diag(np.sort(np.random.default_rng(5).normal(size=m))))
    tracemalloc.start()
    try:
        stats = gap_statistics(decomp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stats._gaps.size == m * (m - 1)
    assert peak <= 1.6 * m * m * 8 + 2**20


def direct_window_count(gaps, eps):
    """Oracle for the block-pruned count: every gap's window counted at
    once, ``max(searchsorted(g, g + eps) - arange(n))``."""
    if gaps.size == 0:
        return 0
    upper = np.searchsorted(gaps, gaps + eps, side="left")
    return int(np.max(upper - np.arange(gaps.size)))


@st.composite
def sorted_gap_arrays(draw):
    """Sorted arrays of 0 to 6 blocks of gaps, with sizes around one block
    and not a multiple of it; few integer levels force repeated values."""
    n = draw(st.one_of(st.sampled_from([0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5]),
                       st.integers(0, 6 * _BLOCK)))
    levels = draw(st.lists(st.integers(-12, 12), min_size=n, max_size=n))
    scale = draw(st.sampled_from([1.0, 0.1, 3.7e-3, 1e5]))
    return np.sort(np.array(levels, dtype=float) * scale)


@settings(max_examples=300, deadline=None)
@given(gaps=sorted_gap_arrays(), data=st.data())
def test_pruned_window_count_matches_direct_count(gaps, data):
    stats = GapStatistics(distinct_count=0, min_gap=None, _gaps=gaps)
    widths = [data.draw(st.floats(1e-9, 1e7), label="eps")]
    if gaps.size >= 2:
        # widths equal to exact gap differences put a gap on the open edge
        pairs = data.draw(st.lists(st.tuples(st.integers(0, gaps.size - 1),
                                             st.integers(0, gaps.size - 1)), max_size=4),
                          label="pairs")
        widths += [float(gaps[j] - gaps[i]) for i, j in pairs if gaps[j] > gaps[i]]
    widths += data.draw(st.lists(st.floats(1e-9, 1e7), max_size=5), label="grid")
    direct = [direct_window_count(gaps, eps) for eps in widths]
    for eps, count in zip(widths, direct):
        assert stats.window_count(eps) == count
    assert stats.window_counts(widths).tolist() == direct
    with pytest.MonkeyPatch.context() as mp:
        # grids this small are counted directly; with no direct budget they
        # take the pruned count
        mp.setattr(dynamics, "_DIRECT_KEYS", 0)
        assert stats.window_counts(widths).tolist() == direct
        # a budget below one head table puts every width in a group of its own
        mp.setattr(dynamics, "_HEAD_ENTRIES", 1)
        assert stats.window_counts(widths).tolist() == direct


@pytest.mark.parametrize("sites", [5, 6, 7, 8, 9])
def test_pruned_window_count_on_chain_epsilon_grids(sites):
    stats = chain_system(SpinChainParams(sites=sites)).gap_stats
    grid = stats.epsilon_grid(32)
    assert stats.window_counts(grid).tolist() == [direct_window_count(stats._gaps, e) for e in grid]


@pytest.mark.parametrize("params", [SpinChainParams(sites=7),
                                    SpinChainParams(sites=7, g=1.0, h=0.0, J=0.0)])
def test_window_count_gathers_candidates_in_slices(monkeypatch, params):
    # 64 entries: slices of 4 blocks, so the candidates of a width near 0
    # (every block) take many slices
    monkeypatch.setattr(dynamics, "_HEAD_ENTRIES", 64)
    stats = chain_system(params).gap_stats
    gaps = stats._gaps
    tiny = 1e-12 * max(1.0, stats.max_gap)
    widths = np.concatenate([[tiny, 1e-300], stats.epsilon_grid(16)])
    assert stats.window_counts(widths).tolist() == [direct_window_count(gaps, e) for e in widths]
    assert stats.degenerate_gap_multiplicity() == direct_window_count(gaps, tiny)


def test_window_count_near_zero_stays_small():
    # At a width near 0 every block is a candidate. Gathered all at once
    # they peaked at 3.4 times the bytes of the gaps here, and gathered in
    # slices at 0.8 times: the slices' buffers of fixed size and the
    # candidate indices, 16 bytes a block.
    m = 1500
    decomp = decompose_hermitian(np.diag(np.sort(np.random.default_rng(6).normal(size=m))))
    stats = gap_statistics(decomp)
    tracemalloc.start()
    try:
        count = stats.degenerate_gap_multiplicity()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == direct_window_count(stats._gaps, 1e-12 * stats.max_gap)
    assert peak <= stats._gaps.nbytes


def _toy_trajectory(times, values):
    zeros = np.zeros_like(values)
    return Trajectory(times=times, populations=np.ones((len(times), 1)),
                      expectation=values, shannon=zeros, observational=zeros,
                      boltzmann=zeros)


def test_time_average_constant_and_sine():
    ts = np.linspace(0.0, 2 * math.pi, 20001)
    const = _toy_trajectory(ts, np.full_like(ts, 3.25))
    assert time_average_scalar(const, const.expectation, 5.0) == pytest.approx(3.25, abs=1e-14)
    sine = _toy_trajectory(ts, np.sin(ts))
    assert abs(time_average_scalar(sine, sine.expectation, 2 * math.pi)) < 1e-8


def test_trajectory_keeps_its_validated_float_times():
    ts = [0, 1, 2, 3, 4]
    traj = _toy_trajectory(ts, np.full(len(ts), 2.0))
    assert isinstance(traj.times, np.ndarray) and traj.times.dtype == float
    assert time_average_scalar(traj, traj.expectation, 4.0) == pytest.approx(2.0, abs=1e-14)


def test_time_average_rejects_windows_outside_the_span():
    ts = np.linspace(0.0, 1.0, 11)
    traj = _toy_trajectory(ts, np.sin(40 * ts))
    for T in (2.0, 0.0, -1.0):
        with pytest.raises(ValueError, match="span"):
            time_average_scalar(traj, traj.expectation, T)
    # a grid that starts late leaves [0, t_0] unsampled
    late = _toy_trajectory(ts + 1.0, np.ones_like(ts))
    with pytest.raises(ValueError, match="span"):
        time_average_scalar(late, late.expectation, 2.0)


def test_time_average_population_distance_one_period(spin):
    decomp, initial, measurement = spin
    from qeqlab.harness import compute_trajectory, prepare_system

    ham = (decomp.eigenvectors * decomp.level_values) @ decomp.eigenvectors.conj().T
    system = prepare_system(ham, measurement, initial)
    ts = np.linspace(0.0, math.pi, 20001)
    traj = compute_trajectory(system, ts)
    distance = 0.5 * np.sum(np.abs(traj.populations - system.equilibrium.populations), axis=1)
    avg = time_average_scalar(traj, distance, math.pi)
    assert abs(avg - 1.0 / math.pi) < 1e-6


def test_default_time_step():
    # the default step fixes the second-order population remainder h^2 M / 16
    from qeqlab.harness import compute_trajectory, evaluate_bounds, time_grid

    for sites in (3, 7):
        system = chain_system(SpinChainParams(sites=sites))
        dt = default_time_step(system.curvature)
        trajectory = compute_trajectory(system, time_grid(10.0, dt))
        population = evaluate_bounds(system, trajectory, [10.0])[0]
        assert population.name == "population_equilibration"
        remainder = population.parameters["quadrature_remainder"]
        assert dt**2 * system.curvature / 16 == pytest.approx(remainder, rel=1e-12)
        assert remainder == pytest.approx(dynamics._STEP_REMAINDER, rel=1e-12)
    # a state that does not move keeps the fixed step
    assert default_time_step(0.0) == 0.02
