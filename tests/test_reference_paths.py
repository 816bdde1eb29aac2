"""Fast paths pinned to their reference paths.

The chain Hamiltonian is real, so it is diagonalized, contracted and
propagated in real arithmetic. The same Hamiltonian cast to complex128
takes the complex path, which serves as the reference here.

The real and the complex eigensolver return eigenvalues that differ by
up to about 1e-14 for these chains, and a level phase ``E t`` carries
that difference times ``t``. Populations of the two decompositions are
therefore compared over the trajectory span (t <= 100), while the
propagation arithmetic alone is compared out to t = 1e4 on one shared
decomposition.

The Shannon continuity suite draws and evaluates a block of distribution
pairs in whole-array calls, padded to the largest outcome count; the
entropy and distance of each pair, one at a time, are its reference.
"""

import math
import tracemalloc

import numpy as np
import pytest

import qeqlab.harness as harness
from qeqlab.bounds import equilibration_factor, optimal_epsilon
from qeqlab.dynamics import GapStatistics, default_time_step
from qeqlab.entropy import shannon_entropy
from qeqlab.harness import (
    _populations_at,
    chain_system,
    compute_trajectory,
    prepare_system,
)
from qeqlab.linalg import decompose_hermitian
from qeqlab.measurement import population_distance, povm_from_factors
from qeqlab.measurement import clamp_populations as _clamp_rows
from qeqlab.models import (
    PureState,
    SpinChainParams,
    all_down_state,
    bulk_magnetization,
    tilted_ising_chain,
)
from qeqlab.verify import (
    _shannon_block,
    random_hermitian,
    random_partition_pvm,
    random_povm,
    random_pure_state,
)

TOL = 1e-12


def chain_pair(sites):
    ham = tilted_ising_chain(SpinChainParams(sites=sites))
    obs = bulk_magnetization(sites, "z")
    initial = all_down_state(sites)
    real = prepare_system(ham, obs, initial)
    reference = prepare_system(ham.astype(complex), obs.astype(complex), initial)
    return real, reference


@pytest.mark.parametrize("sites", range(2, 10))
def test_real_chain_matches_complex_reference(sites):
    real, reference = chain_pair(sites)
    assert real.weighted_contraction.dtype == np.float64
    assert reference.weighted_contraction.dtype == np.complex128

    grid = np.linspace(0.0, 100.0, 1001)
    rng = np.random.default_rng(sites)
    scattered = np.sort(rng.uniform(0.0, 100.0, size=300))
    for times in (grid, scattered):
        got = compute_trajectory(real, times).populations
        want = compute_trajectory(reference, times).populations
        assert np.max(np.abs(got - want)) <= TOL
    assert np.max(np.abs(real.equilibrium.populations - reference.equilibrium.populations)) <= TOL

    assert abs(real.d_eff - reference.d_eff) <= TOL * reference.d_eff
    spread = max(1.0, reference.decomposition.spectral_range)
    assert abs(real.gap_stats.min_gap - reference.gap_stats.min_gap) <= TOL * spread
    counts = [[s.gap_stats.window_count(float(e)) for e in s.gap_stats.epsilon_grid(32)]
              for s in (real, reference)]
    assert counts[0] == counts[1]


def _complex_product_populations(system, times):
    """Populations from the complex amplitudes ``C @ (exp(-i E t) * a)``,
    formed without the real GEMMs or the stored weights."""
    phases = np.exp(np.outer(system.decomposition.level_values, times) * (-1j))
    amps = phases * system.amps_eig[:, None]
    contraction = system.measurement.in_basis(system.decomposition.eigenvectors)
    coeffs = contraction.astype(complex) @ amps
    return _clamp_rows(system.measurement.group_sums(np.abs(coeffs) ** 2).T)


@pytest.mark.parametrize("sites", [4, 7, 9])
def test_real_propagation_matches_complex_product(sites):
    system = chain_pair(sites)[0]
    rng = np.random.default_rng(sites)
    times = rng.uniform(0.0, 1.0e4, size=500)
    got = _populations_at(system, times)
    assert np.max(np.abs(got - _complex_product_populations(system, times))) <= TOL


def test_chain_stays_real_and_complex_input_stays_complex():
    system = chain_pair(6)[0]
    assert system.decomposition.eigenvectors.dtype == np.float64
    contraction = system.measurement.in_basis(system.decomposition.eigenvectors)
    assert contraction.dtype == np.float64
    assert system.amps_eig.dtype == np.float64
    assert system.weighted_contraction.dtype == np.float64

    rng = np.random.default_rng(0)
    decomp = decompose_hermitian(random_hermitian(rng, 12))
    assert decomp.eigenvectors.dtype == np.complex128


def test_complex_state_keeps_complex_amplitudes():
    rng = np.random.default_rng(1)
    ham = tilted_ising_chain(SpinChainParams(sites=3))
    system = prepare_system(ham, bulk_magnetization(3, "z"), random_pure_state(rng, 8))
    assert system.weighted_contraction.dtype == np.complex128
    reference = prepare_system(ham.astype(complex), bulk_magnetization(3, "z").astype(complex),
                               system.initial)
    times = np.linspace(0.0, 20.0, 101)
    got = compute_trajectory(system, times).populations
    assert np.max(np.abs(got - compute_trajectory(reference, times).populations)) <= TOL

    # the dtype alone picks the path: a global phase times the real state
    # takes the complex one, with the same populations to round-off
    real = prepare_system(ham, bulk_magnetization(3, "z"), all_down_state(3))
    phased = prepare_system(ham, bulk_magnetization(3, "z"),
                            PureState(np.exp(0.3j) * all_down_state(3).amplitudes))
    assert phased.weighted_contraction.dtype == np.complex128
    got = compute_trajectory(phased, times).populations
    assert np.max(np.abs(got - compute_trajectory(real, times).populations)) <= TOL
    assert abs(phased.d_eff - real.d_eff) <= TOL * real.d_eff


def _three_operand_povm_populations(system, times):
    """The POVM trajectory as one unoptimized three-operand einsum over
    the effects rotated into the eigenbasis."""
    U = system.decomposition.eigenvectors
    effects_eig = np.array([U.conj().T @ eff @ U for eff in system.measurement.effects])
    phases = np.exp(np.outer(system.decomposition.level_values, times) * (-1j))
    amps = phases * system.amps_eig[:, None]
    raw = np.einsum("jt,ijk,kt->ti", amps.conj(), effects_eig, amps).real
    return _clamp_rows(raw)


@pytest.mark.parametrize("case", range(6))
def test_povm_trajectory_matches_three_operand_einsum(case):
    rng = np.random.default_rng(100 + case)
    dim = int(rng.integers(4, 33))
    outcomes = int(rng.integers(2, 9))
    system = prepare_system(random_hermitian(rng, dim), random_povm(rng, dim, outcomes),
                            random_pure_state(rng, dim))
    times = np.linspace(0.0, 10.0, 1025)
    got = _populations_at(system, times)
    want = _three_operand_povm_populations(system, times)
    assert np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-300)) <= 1e-12


@pytest.mark.parametrize("case", range(4))
def test_povm_of_pvm_projectors_matches_the_pvm(case):
    # rank-deficient effects: a projector is its own square-root factor
    rng = np.random.default_rng(200 + case)
    dim = int(rng.integers(4, 17))
    pvm = random_partition_pvm(rng, dim, int(rng.integers(2, 5)))
    povm = povm_from_factors(np.array([pvm.vectors()[:, sl] @ pvm.vectors()[:, sl].conj().T
                                       for sl in pvm.outcome_slices]))
    ham, initial = random_hermitian(rng, dim), random_pure_state(rng, dim)
    as_pvm, as_povm = prepare_system(ham, pvm, initial), prepare_system(ham, povm, initial)
    times = np.linspace(0.0, 10.0, 257)
    got = compute_trajectory(as_povm, times).populations
    assert np.max(np.abs(got - compute_trajectory(as_pvm, times).populations)) <= TOL
    assert np.max(np.abs(as_povm.equilibrium.populations - as_pvm.equilibrium.populations)) <= TOL


def test_povm_chunks_cover_every_time(monkeypatch):
    rng = np.random.default_rng(7)
    system = prepare_system(random_hermitian(rng, 8), random_povm(rng, 8, 3),
                            random_pure_state(rng, 8))
    times = np.linspace(0.0, 5.0, 4000)
    # four chunks of 1024 times, against one chunk that holds every time
    assert 3 * harness._CHUNK_TIMES < len(times) <= 4 * harness._CHUNK_TIMES
    chunked = _populations_at(system, times)
    monkeypatch.setattr(harness, "_CHUNK_TIMES", 4096)
    assert np.max(np.abs(chunked - _populations_at(system, times))) <= TOL

    # a PVM chain, real: four chunks of 72 sector rows of float64. GEMM
    # column blocking may round differently with the chunk width, so the
    # chunked populations are compared within a tolerance.
    monkeypatch.undo()
    chain = chain_system(SpinChainParams(sites=7), "z")
    times = np.linspace(0.0, 1.0e3, 4000)
    chunked = _populations_at(chain, times)
    monkeypatch.setattr(harness, "_CHUNK_TIMES", 4096)
    assert np.max(np.abs(chunked - _populations_at(chain, times))) <= 1e-13


def test_propagation_stays_within_its_byte_budget():
    # three chunk arrays of m x 1024 float64 at once, plus the output and
    # 1 MiB for the rest
    system = chain_system(SpinChainParams(sites=9), "z")
    times = np.random.default_rng(9).uniform(0.0, 1.0e4, size=10_000)
    # at least three chunks
    assert len(times) > 2 * harness._CHUNK_TIMES
    tracemalloc.start()
    try:
        pops = _populations_at(system, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    chunk_array = system.decomposition.dim * harness._CHUNK_TIMES * 8
    assert peak <= 3 * chunk_array + pops.nbytes + 2**20


def test_evaluate_bounds_counts_the_grid_once(monkeypatch):
    system = chain_system(SpinChainParams(sites=7))
    stats = system.gap_stats
    windows = [10.0, 25.0, 50.0, 100.0]
    dt = default_time_step(system.curvature)
    trajectory = compute_trajectory(system, harness.time_grid(100.0, dt))
    calls = []
    original = GapStatistics.window_counts
    monkeypatch.setattr(GapStatistics, "window_counts",
                        lambda self, widths: calls.append(self) or original(self, widths))
    reports = harness.evaluate_bounds(system, trajectory, windows)
    assert len(calls) == 1 and calls[0] is stats
    monkeypatch.undo()

    grid = [float(e) for e in stats.epsilon_grid(32)]
    scans = {}
    for T in windows + [math.inf]:
        factors = [equilibration_factor(stats, eps, T) for eps in grid]
        k = factors.index(min(factors))
        scans[T] = (grid[k], factors[k], stats.window_count(grid[k]))
    assert optimal_epsilon(stats, list(scans), 32) == list(scans.values())
    assert {r.parameters["T"] for r in reports} == set(windows)
    for report in reports:
        p = report.parameters
        assert (p["eps"], p["factor"], p["window_count"]) == scans[p["T"]]


@pytest.mark.parametrize("seed", [0, 1])
def test_shannon_block_matches_the_pairs_one_at_a_time(seed):
    r, pq, lhs, distance = _shannon_block(np.random.default_rng(seed), 64)
    assert pq.shape == (64, 2, 64) and len(set(r.tolist())) > 1
    for k, outcomes in enumerate(r.tolist()):
        assert np.all(np.count_nonzero(pq[k], axis=1) == outcomes)
        assert np.all(pq[k, :, outcomes:] == 0.0)
        assert np.max(np.abs(pq[k].sum(axis=1) - 1.0)) <= TOL
        p, q = pq[k, :, :outcomes]
        assert abs(lhs[k] - abs(shannon_entropy(p) - shannon_entropy(q))) <= TOL
        assert abs(distance[k] - population_distance(p, q)) <= TOL
