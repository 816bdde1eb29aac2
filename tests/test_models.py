import math

import numpy as np
import pytest

from qeqlab.dynamics import effective_dimension, equilibrium_state
from qeqlab.linalg import decompose_hermitian, operator_norm
from qeqlab.measurement import populations, pvm_from_observable
from qeqlab.models import (
    DimensionCapError,
    SpinChainParams,
    all_down_state,
    bulk_magnetization,
    pauli,
    precessing_spin,
    spin_bath,
    tilted_ising_chain,
)


def test_pauli_conventions():
    assert np.array_equal(pauli("y"), np.array([[0, -1j], [1j, 0]]))
    assert np.array_equal(pauli("z"), np.diag([1.0, -1.0]).astype(complex))
    with pytest.raises(ValueError):
        pauli("q")


def test_default_constants():
    params = SpinChainParams(sites=4)
    assert params.h == (math.sqrt(5) + 1) / 4
    assert params.g == (math.sqrt(5) + 5) / 8
    assert params.J == 1.0
    assert abs(params.h - 0.80902) < 5e-6
    assert abs(params.g - 0.90451) < 5e-6


def test_chain_n2_special_case_is_pure_coupling():
    # g = 0, h = J: edge fields cancel and only the zz coupling remains
    params = SpinChainParams(sites=2, g=0.0, h=0.7, J=0.7)
    ham = tilted_ising_chain(params)
    assert np.allclose(ham, 0.7 * np.diag([1.0, -1.0, -1.0, 1.0]), atol=1e-15)


@pytest.mark.parametrize("sites", [2, 3, 5])
def test_chain_traceless_and_hermitian(sites):
    rng = np.random.default_rng(sites)
    params = SpinChainParams(sites=sites, g=rng.normal(), h=rng.normal(), J=rng.normal())
    ham = tilted_ising_chain(params)
    assert abs(np.trace(ham)) < 1e-12
    assert np.max(np.abs(ham - ham.conj().T)) < 1e-12


def test_chain_rejects_single_site_and_cap():
    with pytest.raises(ValueError, match="2 sites"):
        tilted_ising_chain(SpinChainParams(sites=1))
    with pytest.raises(DimensionCapError):
        tilted_ising_chain(SpinChainParams(sites=14))
    with pytest.raises(DimensionCapError):
        bulk_magnetization(14, "z")


@pytest.mark.parametrize("axis", ["x", "y", "z"])
def test_magnetization_hermitian(axis):
    M = bulk_magnetization(3, axis)
    assert np.max(np.abs(M - M.conj().T)) < 1e-12


def test_operators_keep_their_natural_dtype():
    assert tilted_ising_chain(SpinChainParams(sites=4)).dtype == np.float64
    assert bulk_magnetization(4, "z").dtype == np.float64
    assert bulk_magnetization(4, "x").dtype == np.float64
    assert bulk_magnetization(4, "y").dtype == np.complex128
    assert pvm_from_observable(bulk_magnetization(4, "z")).basis.dtype == np.float64


def test_magnetization_small_cases():
    assert np.array_equal(bulk_magnetization(1, "z"), pauli("z"))
    decomp = decompose_hermitian(bulk_magnetization(2, "z"))
    assert np.allclose(decomp.cluster_values, [-1.0, 0.0, 1.0])
    assert np.array_equal(decomp.multiplicities, [1, 2, 1])
    assert pvm_from_observable(bulk_magnetization(3, "z")).r == 4


@pytest.mark.parametrize("sites", [4, 7, 10])
@pytest.mark.parametrize("axis", ["y", "z"])
def test_magnetization_binomial_spectrum(sites, axis):
    # spectrum {(N-2k)/N} with multiplicities C(N, k)
    measurement = pvm_from_observable(bulk_magnetization(sites, axis))
    assert measurement.r == sites + 1
    expected_values = [(sites - 2 * k) / sites for k in range(sites + 1)]
    assert np.allclose(measurement.values, expected_values, atol=1e-9)
    expected_mult = [math.comb(sites, k) for k in range(sites + 1)]
    assert np.array_equal(measurement.multiplicities, expected_mult)


def test_all_down_state():
    state = all_down_state(1)
    assert np.allclose(state.density_matrix().matrix, np.diag([0.0, 1.0]), atol=1e-15)

    # the exact real basis vector at index 2**N - 1
    state = all_down_state(3)
    assert state.amplitudes.dtype == np.float64
    assert np.array_equal(state.amplitudes, np.eye(8)[7])

    # the preparation satisfies the low-entropy condition for M_z
    measurement = pvm_from_observable(bulk_magnetization(3, "z"))
    pops = populations(measurement, state)
    assert np.allclose(pops, [0, 0, 0, 1], atol=1e-15)


def test_chain_does_not_commute_with_magnetization():
    for sites in (2, 3, 4, 5):
        ham = tilted_ising_chain(SpinChainParams(sites=sites))
        M = bulk_magnetization(sites, "z")
        assert operator_norm(ham @ M - M @ ham) > 0.1


def test_precessing_spin_analytics():
    ham, initial, obs = precessing_spin(0.7)
    assert np.array_equal(ham, 0.7 * pauli("x"))
    measurement = pvm_from_observable(obs)
    decomp = decompose_hermitian(ham)

    assert np.allclose(populations(measurement, initial), [1.0, 0.0], atol=1e-15)

    from qeqlab.dynamics import evolve

    quarter = evolve(decomp, initial, math.pi / (2 * 0.7))
    assert np.allclose(populations(measurement, quarter), [0.0, 1.0], atol=1e-12)

    omega = equilibrium_state(decomp, initial)
    assert np.allclose(populations(measurement, omega), [0.5, 0.5], atol=1e-12)
    assert abs(effective_dimension(decomp, initial) - 2.0) < 1e-12

    with pytest.raises(ValueError, match="nonzero"):
        precessing_spin(0.0)


def test_spin_bath_structure():
    ham, initial, obs = spin_bath(1.0, 4)
    assert ham.shape == (8, 8)
    measurement = pvm_from_observable(obs)
    assert measurement.r == 2
    assert np.array_equal(measurement.multiplicities, [4, 4])
    assert np.allclose(populations(measurement, initial), [1.0, 0.0], atol=1e-15)
    with pytest.raises(ValueError):
        spin_bath(0.0, 4)
    with pytest.raises(ValueError):
        spin_bath(1.0, 0)


def test_pure_state_normalization_enforced():
    from qeqlab.models import PureState

    with pytest.raises(ValueError, match="normalized"):
        PureState(np.array([1.0, 1.0]))


def test_pure_state_keeps_its_natural_dtype():
    from qeqlab.models import PureState

    assert PureState(np.array([0.6, 0.8])).amplitudes.dtype == np.float64
    assert PureState([0, 1]).amplitudes.dtype == np.float64
    assert PureState(np.array([0.6, 0.8j])).amplitudes.dtype == np.complex128
    assert PureState(np.array([0.6, 0.8], dtype=complex)).amplitudes.dtype == np.complex128
    # the state keeps its own read-only copy; the caller's array stays writable
    amps = np.array([0.6, 0.8])
    assert not PureState(amps).amplitudes.flags.writeable
    assert amps.flags.writeable


def test_density_matrix_validation():
    from qeqlab.models import DensityMatrix

    with pytest.raises(ValueError, match="trace"):
        DensityMatrix(np.eye(2))
    with pytest.raises(ValueError, match="positive"):
        DensityMatrix(np.diag([1.5, -0.5]), check_positive=True)
