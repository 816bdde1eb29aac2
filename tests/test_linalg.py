import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qeqlab.linalg import NonHermitianError, decompose_hermitian, trace_norm
from qeqlab.models import SpinChainParams, bulk_magnetization, pauli, tilted_ising_chain


def random_hermitian(rng, dim):
    G = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (G + G.conj().T) / 2


def cluster_projectors(decomp):
    """Orthogonal projector onto each eigenvalue cluster."""
    for sl in decomp.cluster_slices:
        vecs = decomp.eigenvectors[:, sl]
        yield vecs @ vecs.conj().T


def rebuilt(decomp):
    """The operator rebuilt from clustered eigenvalues and eigenvectors."""
    return (decomp.eigenvectors * decomp.level_values) @ decomp.eigenvectors.conj().T


def test_pauli_z_decomposition():
    decomp = decompose_hermitian(pauli("z"))
    assert np.allclose(decomp.eigenvalues, [-1.0, 1.0])
    assert len(decomp.cluster_slices) == 2
    for P in cluster_projectors(decomp):
        assert np.isclose(np.trace(P).real, 1.0)
        assert np.allclose(P @ P, P, atol=1e-12)


def test_mz_n2_degeneracy_grouping():
    # oracle: enumerate the 4 computational basis states by hand
    per_state = []
    for bits in ((0, 0), (0, 1), (1, 0), (1, 1)):
        per_state.append(sum(1 if b == 0 else -1 for b in bits) / 2)
    expected_values, expected_counts = np.unique(per_state, return_counts=True)

    decomp = decompose_hermitian(bulk_magnetization(2, "z"))
    assert len(decomp.cluster_slices) == 3
    assert np.allclose(decomp.cluster_values, expected_values)
    assert np.array_equal(decomp.multiplicities, expected_counts)
    assert [int(np.trace(P).real + 0.5) for P in cluster_projectors(decomp)] == [1, 2, 1]


def test_chain_n2_against_kron_oracle():
    # independent construction of the two-site chain by explicit tensor products
    params = SpinChainParams(sites=2)
    sx, sz, eye = pauli("x"), pauli("z"), np.eye(2)
    oracle = (
        params.g * (np.kron(sx, eye) + np.kron(eye, sx))
        + (params.h - params.J) * (np.kron(sz, eye) + np.kron(eye, sz))
        + params.J * np.kron(sz, sz)
    )
    ham = tilted_ising_chain(params)
    assert np.allclose(ham, oracle, atol=1e-15)

    decomp = decompose_hermitian(ham)
    oracle_eigs = np.linalg.eigvalsh(oracle)
    assert len(decomp.eigenvalues) == 4
    assert np.allclose(decomp.eigenvalues, oracle_eigs, atol=1e-12)
    weighted = sum(v * np.trace(P).real for v, P in
                   zip(decomp.cluster_values, cluster_projectors(decomp)))
    assert abs(weighted - np.trace(ham).real) < 1e-12


def test_chain_n3_against_kron_oracle():
    # three sites exercise the interior longitudinal field, absent at N=2
    params = SpinChainParams(sites=3, g=0.3, h=1.7, J=0.9)
    sx, sz, eye = pauli("x"), pauli("z"), np.eye(2)

    def site(op, k):
        ops = [eye, eye, eye]
        ops[k] = op
        return np.kron(ops[0], np.kron(ops[1], ops[2]))

    oracle = (
        params.g * (site(sx, 0) + site(sx, 1) + site(sx, 2))
        + params.h * site(sz, 1)
        + (params.h - params.J) * (site(sz, 0) + site(sz, 2))
        + params.J * (site(sz, 0) @ site(sz, 1) + site(sz, 1) @ site(sz, 2))
    )
    assert np.allclose(tilted_ising_chain(params), oracle, atol=1e-15)


def test_projector_completeness_and_reconstruction():
    rng = np.random.default_rng(42)
    for dim in (3, 8, 64):
        M = random_hermitian(rng, dim)
        decomp = decompose_hermitian(M)
        total = sum(cluster_projectors(decomp))
        assert np.max(np.abs(total - np.eye(dim))) < 1e-10
        resid = np.linalg.norm(rebuilt(decomp) - M, 2)
        assert resid <= 1e-9 * np.linalg.norm(M, 2)


def test_reconstruction_large():
    rng = np.random.default_rng(7)
    M = random_hermitian(rng, 256)
    decomp = decompose_hermitian(M)
    assert np.linalg.norm(rebuilt(decomp) - M, 2) <= 1e-9 * np.linalg.norm(M, 2)


def test_degenerate_cluster_grouping():
    # gap below the relative tolerance is merged, gap above is split
    vals = np.diag([0.0, 1e-12, 1.0])
    decomp = decompose_hermitian(vals)
    assert len(decomp.cluster_slices) == 2
    assert np.array_equal(decomp.multiplicities, [2, 1])


def test_non_hermitian_rejected_with_asymmetry():
    M = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NonHermitianError, match="asymmetry"):
        decompose_hermitian(M)


def test_trace_norm_values():
    assert trace_norm(np.zeros((3, 3))) == 0.0
    assert np.isclose(trace_norm(np.eye(5)), 5.0)
    # singular values of diag(1, -2) are {1, 2} by hand
    assert np.isclose(trace_norm(np.diag([1.0, -2.0])), 3.0)


def test_norm_chain_random():
    rng = np.random.default_rng(3)
    for _ in range(20):
        dim = int(rng.integers(2, 9))
        M = random_hermitian(rng, dim)
        tn, fn = trace_norm(M), np.linalg.norm(M)
        assert tn >= fn - 1e-12
        assert tn <= np.sqrt(dim) * fn + 1e-12


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_norm_chain_property(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 17))
    M = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    tn, fn = trace_norm(M), np.linalg.norm(M)
    assert tn >= fn - 1e-10 * max(1.0, fn)
    assert tn <= np.sqrt(dim) * fn + 1e-10 * max(1.0, fn)


def test_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        trace_norm(np.ones((2, 3)))
