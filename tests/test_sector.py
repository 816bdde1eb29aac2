"""The chain solved in its reflection-even sector (``chain_system``)
against the full-space oracle: the same pipeline, ``prepare_system``, run
on the whole 2**N-dimensional problem.

The two eigensolves differ by about 1e-14 per eigenvalue, so trajectories
are compared to 1e-10 out to t = 1e4, and window counts are compared on a
window widened by 1e-12 of the spectral range.
"""

import math
from functools import reduce

import numpy as np
import pytest

import qeqlab.harness as harness
from qeqlab.bounds import von_neumann_deviation_bound
from qeqlab.dynamics import equilibrium_state, finite_time_average_state
from qeqlab.entropy import von_neumann_entropy
from qeqlab.harness import chain_system, compute_trajectory, prepare_system, sample_deviations
from qeqlab.linalg import trace_norm
from qeqlab.models import (
    PureState,
    SpinChainParams,
    all_down_state,
    bulk_magnetization,
    reflection_sector,
    tilted_ising_chain,
)
from qeqlab.verify import time_averaged_state_suite

TOL = 1e-10
CASES = [(n, axis) for n in range(2, 10) for axis in "xyz"]


@pytest.fixture(scope="module", params=CASES, ids=[f"n{n}-{axis}" for n, axis in CASES])
def pair(request):
    sites, axis = request.param
    params = SpinChainParams(sites=sites)
    sector = chain_system(params, axis)
    full = prepare_system(tilted_ising_chain(params), bulk_magnetization(sites, axis),
                          all_down_state(sites))
    return sites, sector, full


def test_bound_dimension_stays_full_space(pair):
    sites, sector, full = pair
    assert sector.dim == full.dim == 2**sites
    assert sector.r == full.r == sites + 1
    assert sector.measurement.multiplicities.tolist() == [math.comb(sites, k) for k in range(sites + 1)]
    # one solved level per reflection orbit
    assert sector.decomposition.dim == (2**sites + 2 ** math.ceil(sites / 2)) // 2
    assert np.allclose(sector.measurement.values, full.measurement.values, atol=1e-12)


def test_trajectories_and_samples_agree(pair):
    _, sector, full = pair
    grid = np.linspace(0.0, 100.0, 1001)
    got = compute_trajectory(sector, grid).populations
    assert np.max(np.abs(got - compute_trajectory(full, grid).populations)) <= TOL
    got = sample_deviations(sector, 1.0e4, 500, seed=11)
    want = sample_deviations(full, 1.0e4, 500, seed=11)
    for got_dev, want_dev in zip(got, want, strict=True):
        assert np.max(np.abs(got_dev - want_dev)) <= TOL


def test_effective_dimension_and_equilibrium_agree(pair):
    _, sector, full = pair
    assert abs(sector.d_eff - full.d_eff) <= 1e-12 * full.d_eff
    assert np.max(np.abs(sector.equilibrium.populations - full.equilibrium.populations)) <= 1e-12
    assert sector.observable_norm == pytest.approx(full.observable_norm, abs=1e-12)


def test_sector_window_counts_never_exceed_full_space(pair):
    _, sector, full = pair
    widen = 1e-12 * max(1.0, full.decomposition.spectral_range)
    for eps in full.gap_stats.epsilon_grid(32):
        eps = float(eps)
        assert sector.gap_stats.window_count(eps) <= full.gap_stats.window_count(eps + widen)


@pytest.mark.parametrize("sites", range(2, 10))
@pytest.mark.parametrize("axis", ["x", "y"])
def test_built_x_and_y_bases_are_the_magnetization_eigenbasis(sites, axis):
    measurement = chain_system(SpinChainParams(sites=sites), axis).measurement
    assert measurement.values.tolist() == [(sites - 2.0 * k) / sites for k in range(sites + 1)]
    assert measurement.multiplicities.tolist() == [math.comb(sites, k) for k in range(sites + 1)]
    B = measurement.basis
    assert np.max(np.abs(B.conj().T @ B - np.eye(B.shape[0]))) <= 1e-12
    # each column is an eigenvector of the sector magnetization with its outcome's value
    magnetization = reflection_sector(sites).project_operator(bulk_magnetization(sites, axis))
    column_values = np.repeat(measurement.values, [sl.stop - sl.start for sl in measurement.outcome_slices])
    assert np.max(np.abs(magnetization @ B - B * column_values)) <= 1e-12


@pytest.mark.parametrize("sites", range(2, 12))
@pytest.mark.parametrize("couplings", [{}, {"g": 1.3, "h": -0.2, "J": 0.7}], ids=["default", "other"])
def test_sector_hamiltonian_is_the_projected_chain(sites, couplings):
    params = SpinChainParams(sites=sites, **couplings)
    sector = reflection_sector(sites)
    assert np.array_equal(sector.chain_hamiltonian(params),
                          sector.project_operator(tilted_ising_chain(params)))


@pytest.mark.parametrize("sites", range(2, 10))
@pytest.mark.parametrize("axis", ["x", "y"])
def test_sector_basis_is_the_projected_rotation(monkeypatch, sites, axis):
    sector = reflection_sector(sites)
    rotation = harness._SITE_ROTATIONS[axis]
    dense = sector.project_operator(reduce(np.kron, [rotation] * sites))
    basis = chain_system(SpinChainParams(sites=sites), axis).measurement.basis
    assert basis.dtype == dense.dtype
    assert np.array_equal(basis, dense)
    # row blocks change nothing: blocks of 7 rows, the last one short
    monkeypatch.setattr("qeqlab.models._BLOCK_ENTRIES", 7 * sector.dim)
    assert np.array_equal(sector.product_operator(rotation), dense)


def test_chain_system_builds_no_full_space_operator(monkeypatch):
    def full_space(*args, **kwargs):
        raise AssertionError("a full-space operator was built")

    for name in ("tilted_ising_chain", "bulk_magnetization"):
        for module in ("models", "harness", "verify"):
            monkeypatch.setattr(f"qeqlab.{module}.{name}", full_space)
    monkeypatch.setattr(np, "kron", full_space)
    for axis in "xyz":
        assert chain_system(SpinChainParams(sites=6), axis).decomposition.dim == 36
    reports = time_averaged_state_suite([6], [100.0])
    assert [report.parameters["dim"] for report in reports] == [36, 36]


@pytest.mark.parametrize("sites", range(2, 7))
def test_averaged_state_suite_agrees_with_the_full_space(sites):
    """The suite's states live in the sector. The isometry keeps trace
    distances and entropies, so the lhs match the full-space ones; the
    sector's gaps are a subset of the full space's, so its smallest gap is
    no smaller, and with m <= 2**N every rhs is no larger."""
    windows = (1.0e2, 1.0e3, 1.0e4)
    reports = time_averaged_state_suite([sites], windows)
    full = prepare_system(tilted_ising_chain(SpinChainParams(sites=sites)),
                          bulk_magnetization(sites, "z"), all_down_state(sites))
    decomp, dim, min_gap = full.decomposition, 2**sites, full.gap_stats.min_gap
    omega = equilibrium_state(decomp, full.initial)
    want = []
    for T in windows:
        avg = finite_time_average_state(decomp, full.initial, T)
        theta = 2.0 * math.sqrt(dim) / (min_gap * T)
        want.append((trace_norm(avg.matrix - omega.matrix), theta))
        want.append((abs(von_neumann_entropy(avg) - von_neumann_entropy(omega)),
                     von_neumann_deviation_bound(dim, theta)))
    for report, (lhs, rhs) in zip(reports, want, strict=True):
        assert report.parameters["dim"] == reflection_sector(sites).dim
        assert abs(report.lhs - lhs) <= 1e-13
        assert report.rhs <= rhs
        assert report.holds


def test_sector_hamiltonian_rejects_a_mismatched_chain():
    with pytest.raises(ValueError, match="4-site chain in a 5-site sector"):
        reflection_sector(5).chain_hamiltonian(SpinChainParams(sites=4))
    with pytest.raises(ValueError, match="at least 2 sites"):
        reflection_sector(1).chain_hamiltonian(SpinChainParams(sites=1))


def test_chain_rejects_an_unknown_axis():
    with pytest.raises(ValueError, match="'w'"):
        chain_system(SpinChainParams(sites=3), "w")


def test_chain_starts_from_the_real_all_down_column():
    """The all-down state is the sector's last column (k = N down spins),
    exactly and in float64, so the chain takes the real path by dtype."""
    system = chain_system(SpinChainParams(sites=7))
    amps = system.initial.amplitudes
    m = reflection_sector(7).dim
    assert amps.dtype == np.float64
    assert np.array_equal(amps, np.eye(m)[m - 1])
    assert system.amps_eig.dtype == system.weighted_contraction.dtype == np.float64


def _dense_isometry(sector):
    full_dim = 2**sector.sites
    P = np.zeros((full_dim, sector.dim))
    cols = np.arange(sector.dim)
    P[sector.reps, cols] += sector.coeffs
    P[sector.mirrors, cols] += sector.coeffs
    return P


@pytest.mark.parametrize("sites", range(1, 7))
def test_projection_gathers_match_the_dense_isometry(sites):
    sector = reflection_sector(sites)
    P = _dense_isometry(sector)
    assert np.allclose(P.T @ P, np.eye(sector.dim), atol=1e-15)
    rng = np.random.default_rng(sites)
    A = rng.normal(size=(2**sites, 2**sites)) + 1j * rng.normal(size=(2**sites, 2**sites))
    assert np.max(np.abs(sector.project_operator(A) - P.T @ A @ P)) <= 1e-13
    # the sector columns run through the z magnetization in descending order
    down = [bin(int(i)).count("1") for i in sector.reps]
    for k, sl in enumerate(sector.magnetization_slices()):
        assert all(d == k for d in down[sl])
    if sites >= 2:
        # the chain maps the sector into itself: H P = P (P^T H P)
        ham = tilted_ising_chain(SpinChainParams(sites=sites))
        assert np.max(np.abs(ham @ P - P @ sector.project_operator(ham))) <= 1e-13


@pytest.mark.parametrize("sites", [2, 3, 6])
def test_state_outside_the_sector_is_rejected(sites):
    sector = reflection_sector(sites)
    dim = 2**sites
    up_then_down = np.zeros(dim, dtype=complex)
    up_then_down[2 ** (sites - 1) - 1] = 1.0  # |up down ... down>
    with pytest.raises(ValueError, match="outside the reflection-even sector"):
        sector.project_state(PureState(up_then_down))
    # its reflection-even combination with |down ... down up> lies inside
    even = up_then_down.copy()
    even[dim - 2] = 1.0
    projected = sector.project_state(PureState(even / math.sqrt(2)))
    assert np.linalg.norm(projected.amplitudes) == pytest.approx(1.0, abs=1e-15)


def test_averaged_state_entropy_rhs_is_the_deviation_bound_at_the_distance_rhs():
    """Each window's entropy rhs is the von Neumann deviation bound at half
    the trace-norm rate theta that its distance report certifies: a trace
    distance is half a trace norm."""
    reports = time_averaged_state_suite([3, 5], (1.0e2, 1.0e4))
    for distance, entropy in zip(reports[::2], reports[1::2], strict=True):
        assert (distance.name, entropy.name) == ("averaged_state_distance", "averaged_state_entropy")
        assert entropy.parameters == distance.parameters
        assert entropy.rhs == von_neumann_deviation_bound(distance.parameters["dim"], distance.rhs / 2)
