from dataclasses import fields

import numpy as np
import pytest

from qeqlab.entropy import observational_entropy, shannon_entropy, von_neumann_entropy
from qeqlab.measurement import (
    Povm,
    ProjectiveMeasurement,
    clamp_populations,
    coarse_grained_state,
    population_distance,
    populations,
    pvm_from_observable,
)
from qeqlab.models import DensityMatrix, PureState, all_down_state, bulk_magnetization, pauli
from qeqlab.verify import random_povm

# the trivial two-outcome POVM E_0 = E_1 = 1/2: each factor is 1/sqrt(2)
HALF_HALF = np.array([np.eye(2), np.eye(2)]) / np.sqrt(2)


def random_density(rng, dim):
    G = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = G @ G.conj().T
    return DensityMatrix(rho / np.trace(rho).real)


def test_pvm_sigma_z():
    m = pvm_from_observable(pauli("z"))
    assert m.r == 2
    assert np.array_equal(m.multiplicities, [1, 1])
    assert np.allclose(m.values, [1.0, -1.0])  # descending ordering


def test_pvm_mz_n3_multiplicities():
    m = pvm_from_observable(bulk_magnetization(3, "z"))
    assert m.r == 4
    assert np.array_equal(m.multiplicities, [1, 3, 3, 1])


def test_identity_observable_flagged():
    m = pvm_from_observable(np.eye(4, dtype=complex))
    assert m.r == 1


def test_pvm_projectors_complete_and_orthogonal():
    rng = np.random.default_rng(0)
    G = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    m = pvm_from_observable((G + G.conj().T) / 2)
    total = sum(m.projectors())
    assert np.max(np.abs(total - np.eye(6))) < 1e-10
    for i in range(m.r):
        for j in range(m.r):
            prod = m.projector(i) @ m.projector(j)
            target = m.projector(i) if i == j else np.zeros((6, 6))
            assert np.max(np.abs(prod - target)) < 1e-10


def test_populations_all_down_mz():
    m = pvm_from_observable(bulk_magnetization(2, "z"))
    pops = populations(m, all_down_state(2))
    # ordering (+1, 0, -1)
    assert np.allclose(pops, [0.0, 0.0, 1.0], atol=1e-15)


def test_populations_trivial_povm():
    povm = Povm(factors=HALF_HALF)
    rng = np.random.default_rng(1)
    state = random_density(rng, 2)
    assert np.allclose(populations(povm, state), [0.5, 0.5], atol=1e-12)
    pure = PureState(np.array([1.0, 0.0], dtype=complex))
    assert np.allclose(populations(povm, pure), [0.5, 0.5], atol=1e-12)


def test_populations_sum_to_one_random():
    rng = np.random.default_rng(2)
    for _ in range(10):
        dim = int(rng.integers(2, 17))
        G = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        m = pvm_from_observable((G + G.conj().T) / 2)
        pops = populations(m, random_density(rng, dim))
        assert abs(pops.sum() - 1.0) < 1e-10
        assert np.all(pops >= 0)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_povm_populations_are_the_effect_traces(seed):
    rng = np.random.default_rng(seed)
    dim, outcomes = 4 + 3 * seed, 2 + seed
    povm = random_povm(rng, dim, outcomes)
    rho = random_density(rng, dim)
    want = np.einsum("iab,ba->i", povm.effects, rho.matrix).real
    assert np.max(np.abs(populations(povm, rho) - want)) <= 1e-13
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    pure = PureState(psi / np.linalg.norm(psi))
    want = np.einsum("j,ijk,k->i", pure.amplitudes.conj(), povm.effects, pure.amplitudes).real
    assert np.max(np.abs(populations(povm, pure) - want)) <= 1e-13


def test_populations_reject_an_unsupported_measurement():
    with pytest.raises(TypeError, match="unsupported measurement type ndarray"):
        populations(np.eye(2), PureState(np.array([1.0, 0.0], dtype=complex)))


def test_populations_dimension_mismatch():
    m = pvm_from_observable(pauli("z"))
    with pytest.raises(ValueError, match="dimension mismatch"):
        populations(m, random_density(np.random.default_rng(0), 3))


def test_coarse_grained_trivial_pvm():
    m = pvm_from_observable(np.eye(4, dtype=complex))
    rng = np.random.default_rng(3)
    cg = coarse_grained_state(m, random_density(rng, 4))
    assert np.allclose(cg.matrix, np.eye(4) / 4, atol=1e-12)


def test_coarse_grained_rank1_pvm_keeps_diagonal():
    rng = np.random.default_rng(4)
    rho = random_density(rng, 4)
    # PVM diagonalizing rho: coarse graining reproduces its eigenvalues
    m = pvm_from_observable(rho.matrix)
    cg = coarse_grained_state(m, rho)
    pops = populations(m, rho)
    assert abs(von_neumann_entropy(cg) - shannon_entropy(pops)) < 1e-10


def test_coarse_grained_all_down():
    m = pvm_from_observable(bulk_magnetization(2, "z"))
    cg = coarse_grained_state(m, all_down_state(2))
    expected = np.zeros((4, 4))
    expected[3, 3] = 1.0  # the lone all-down basis state
    assert np.allclose(cg.matrix, expected, atol=1e-12)


def test_coarse_grained_rejects_povm():
    povm = Povm(factors=HALF_HALF)
    with pytest.raises(TypeError, match="projective"):
        coarse_grained_state(povm, PureState(np.array([1.0, 0.0], dtype=complex)))


def test_coarse_graining_entropy_consistency():
    rng = np.random.default_rng(5)
    for _ in range(5):
        dim = int(rng.integers(3, 13))
        G = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        m = pvm_from_observable((G + G.conj().T) / 2)
        rho = random_density(rng, dim)
        pops = populations(m, rho)
        s_obs = observational_entropy(pops, m.multiplicities)
        assert abs(von_neumann_entropy(coarse_grained_state(m, rho)) - s_obs) < 1e-9


def test_population_distance():
    assert population_distance([0.3, 0.7], [0.3, 0.7]) == 0.0
    assert population_distance([1, 0], [0, 1]) == 1.0
    assert population_distance([1, 0], [0.5, 0.5]) == 0.5
    with pytest.raises(ValueError, match="length"):
        population_distance([1, 0], [1, 0, 0])


def test_merging_outcomes_lowers_shannon_entropy():
    rng = np.random.default_rng(6)
    for _ in range(50):
        r = int(rng.integers(3, 10))
        p = rng.dirichlet(np.ones(r))
        i, j = rng.choice(r, size=2, replace=False)
        merged = np.delete(p, [i, j])
        merged = np.append(merged, p[i] + p[j])
        assert shannon_entropy(merged) <= shannon_entropy(p) + 1e-12


def test_rank1_pvm_observational_equals_shannon():
    rng = np.random.default_rng(7)
    for _ in range(5):
        dim = int(rng.integers(2, 9))
        G = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        m = pvm_from_observable((G + G.conj().T) / 2)
        if not np.all(m.multiplicities == 1):
            continue
        pops = populations(m, random_density(rng, dim))
        assert abs(observational_entropy(pops, m.multiplicities) - shannon_entropy(pops)) < 1e-12


def test_povm_validation():
    incomplete = np.array([np.eye(2) / np.sqrt(2), np.eye(2) / np.sqrt(3)])
    with pytest.raises(ValueError, match="identity"):
        Povm(factors=incomplete)
    non_finite = HALF_HALF.copy()
    non_finite[0, 0, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        Povm(factors=non_finite)
    with pytest.raises(ValueError, match="values"):
        Povm(factors=HALF_HALF, values=[1.0])
    with pytest.raises(ValueError, match="factors"):
        Povm(factors=np.eye(2))


def test_povm_derives_effects_and_multiplicities_from_factors():
    povm = Povm(factors=HALF_HALF, values=[1, -1])
    assert np.allclose(povm.effects, [np.eye(2) / 2] * 2, atol=1e-15)
    assert np.allclose(povm.multiplicities, [1.0, 1.0], atol=1e-15)
    assert povm.values.dtype == float and not povm.values.flags.writeable
    assert [f.name for f in fields(Povm)] == ["factors", "values"]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_povm_effects_are_the_whitened_pieces(seed):
    """The draw is pinned: the effects are W G_i G_i^dag W with
    W = (sum_i G_i G_i^dag)^(-1/2), rebuilt here from the same seed."""
    dim, outcomes = 5 + seed, 2 + seed
    povm = random_povm(np.random.default_rng(seed), dim, outcomes)
    rng = np.random.default_rng(seed)
    pieces = []
    for _ in range(outcomes):
        G = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        pieces.append(G @ G.conj().T)
    w, V = np.linalg.eigh(sum(pieces))
    W = (V / np.sqrt(w)) @ V.conj().T
    want = np.array([W @ piece @ W for piece in pieces])
    assert povm.factors.shape == (outcomes, dim, dim)
    assert np.max(np.abs(povm.effects - want)) <= 1e-13


def test_projective_measurement_converts_list_inputs():
    m = ProjectiveMeasurement(values=[1.0, -1.0], outcome_slices=(slice(0, 1), slice(1, 2)))
    assert m.values.dtype == float and not m.values.flags.writeable
    assert np.array_equal(m.multiplicities, [1, 1])
    m = ProjectiveMeasurement(values=[1, -1], outcome_slices=(slice(0, 1), slice(1, 2)),
                              basis=[[0, 1], [1, 0]], multiplicities=[2, 1])
    assert isinstance(m.basis, np.ndarray) and not m.basis.flags.writeable
    assert isinstance(m.multiplicities, np.ndarray) and m.values.dtype == float
    assert np.allclose(populations(m, PureState(np.array([0.0, 1.0]))), [1.0, 0.0])


@pytest.mark.parametrize("block", [False, True])
def test_clamp_populations_negative_controls(block):
    """Both error paths and the round-off clamp, on one distribution and on
    a (times, r) block whose last row carries the defect."""
    good = [0.5, 0.25, 0.25]

    def shaped(last):
        return np.array([good, good, last] if block else last)

    with pytest.raises(ValueError, match="below round-off floor"):
        clamp_populations(shaped([0.5, 0.5 + 2e-12, -2e-12]))
    with pytest.raises(ValueError, match="sum to"):
        clamp_populations(shaped([0.5, 0.25, 0.25 + 1e-9]))

    raw = shaped([0.5, 0.5 + 1e-13, -1e-13])
    pops = clamp_populations(raw)
    assert pops.shape == raw.shape
    last = pops.reshape(-1, 3)[-1]
    assert last[2] == 0.0
    assert abs(last.sum() - 1.0) <= 1e-15
    assert np.array_equal(last, np.array([0.5, 0.5 + 1e-13, 0.0]) / (1.0 + 1e-13))
    if block:
        assert np.array_equal(pops[:-1], raw[:-1])
