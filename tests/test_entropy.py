import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qeqlab.bounds import observational_deviation_bound, shannon_deviation_bound, von_neumann_deviation_bound
from qeqlab.dynamics import evolve
from qeqlab.entropy import (
    binary_entropy,
    boltzmann_term,
    capped_binary_entropy,
    g_function,
    observational_entropy,
    shannon_entropy,
    von_neumann_entropy,
)
from qeqlab.linalg import decompose_hermitian, trace_norm
from qeqlab.measurement import population_distance, populations, pvm_from_observable
from qeqlab.models import DensityMatrix

LN2 = math.log(2.0)


def random_density(rng, dim):
    G = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = G @ G.conj().T
    return DensityMatrix(rho / np.trace(rho).real)


def random_hermitian(rng, dim):
    G = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (G + G.conj().T) / 2


def test_shannon_entropy_values():
    assert shannon_entropy([1.0, 0.0, 0.0]) == 0.0
    assert np.isclose(shannon_entropy(np.full(4, 0.25)), math.log(4))
    assert np.isclose(shannon_entropy([0.5, 0.5]), LN2)


def test_observational_entropy_values():
    # maximally mixed state: p_i = V_i / d for any PVM
    V = np.array([1, 2, 1])
    p = V / V.sum()
    assert np.isclose(observational_entropy(p, V), math.log(4))
    assert np.isclose(observational_entropy([0.2, 0.8], [1, 1]),
                      shannon_entropy([0.2, 0.8]))
    assert observational_entropy([0.0, 0.0, 1.0], [1, 2, 1]) == 0.0


def test_boltzmann_term_values():
    assert boltzmann_term([0.3, 0.7], [1, 1]) == 0.0
    assert boltzmann_term([0.0, 0.0, 1.0], [1, 2, 1]) == 0.0
    assert np.isclose(boltzmann_term([0.5, 0.5], [4, 4]), math.log(4))
    with pytest.raises(ValueError, match="positive"):
        boltzmann_term([1.0], [0])


def test_von_neumann_entropy_values():
    pure = np.zeros((3, 3), dtype=complex)
    pure[0, 0] = 1.0
    assert von_neumann_entropy(pure) == 0.0
    assert np.isclose(von_neumann_entropy(np.eye(5) / 5), math.log(5))
    assert np.isclose(von_neumann_entropy(np.diag([0.75, 0.25])), 0.5623351446188083)
    with pytest.raises(ValueError, match="positive"):
        von_neumann_entropy(np.diag([1.5, -0.5]))


def test_binary_entropy_values():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert np.isclose(binary_entropy(0.5), LN2)
    assert np.isclose(binary_entropy(0.25), 0.5623351446188083)
    with pytest.raises(ValueError):
        binary_entropy(1.2)


def test_capped_binary_entropy():
    assert capped_binary_entropy(0.3) == binary_entropy(0.3)
    assert capped_binary_entropy(0.7) == LN2
    assert capped_binary_entropy(5.0) == LN2


def test_g_function_values():
    assert g_function(0.0) == 0.0
    assert np.isclose(g_function(1.0), 2 * LN2)
    assert np.isclose(g_function(0.5), 0.9547712524422192)
    grid = np.linspace(0.0, 1.0, 1000)
    vals = [g_function(x) for x in grid]
    assert np.all(np.diff(vals) > 0)
    with pytest.raises(ValueError):
        g_function(-0.1)


def test_scalar_xlogx_keeps_the_array_path_bits():
    from qeqlab.entropy import _xlogx, _xlogx_float

    rng = np.random.default_rng(0)
    cutoff = 1e-15
    edges = [0.0, 1.0, 0.5, cutoff, np.nextafter(cutoff, 0.0), np.nextafter(cutoff, 1.0), 1.0 - cutoff]
    xs = np.concatenate([edges, rng.random(5000), 10.0 ** rng.uniform(-16.0, 0.0, 5000)])
    for x in xs.tolist():
        assert _xlogx_float(x).hex() == float(_xlogx(x)).hex()
        assert binary_entropy(x).hex() == float(-_xlogx(x) - _xlogx(1.0 - x)).hex()
        assert g_function(x).hex() == float(-_xlogx(x) + (1.0 + x) * math.log1p(x)).hex()


def test_shannon_continuity_bound_cases():
    p = np.array([0.2, 0.5, 0.3])
    assert shannon_deviation_bound(3, population_distance(p, p)) == 0.0
    # equality case: r = 2, distance 1/2, both sides equal ln 2
    lhs = abs(shannon_entropy([1.0, 0.0]) - shannon_entropy([0.5, 0.5]))
    rhs = shannon_deviation_bound(2, population_distance([1.0, 0.0], [0.5, 0.5]))
    assert np.isclose(lhs, rhs)
    assert np.isclose(rhs, LN2)
    with pytest.raises(ValueError):
        shannon_deviation_bound(1, population_distance([1.0], [1.0]))


def test_shannon_continuity_bound_random():
    rng = np.random.default_rng(11)
    for _ in range(2000):
        r = int(rng.integers(2, 65))
        p, q = rng.dirichlet(np.ones(r)), rng.dirichlet(np.ones(r))
        lhs = abs(shannon_entropy(p) - shannon_entropy(q))
        assert lhs <= shannon_deviation_bound(r, population_distance(p, q)) + 1e-9


def test_observational_continuity_bound_cases():
    p = np.array([0.5, 0.5])
    assert observational_deviation_bound(4, population_distance(p, p)) == 0.0
    # distance 1/2 and d = 4, from the defining formulas
    val = observational_deviation_bound(4, population_distance([1.0, 0.0], [0.5, 0.5]))
    assert np.isclose(val, math.log(4) * 0.5 + g_function(0.5))
    assert np.isclose(val, 1.6479184330021646)
    with pytest.raises(ValueError):
        observational_deviation_bound(0, population_distance(p, p))


def test_observational_continuity_bound_random():
    rng = np.random.default_rng(12)
    for _ in range(200):
        dim = int(rng.integers(2, 33))
        m = pvm_from_observable(random_hermitian(rng, dim))
        rho, sigma = random_density(rng, dim), random_density(rng, dim)
        p, q = populations(m, rho), populations(m, sigma)
        mult = m.multiplicities
        lhs = abs(observational_entropy(p, mult) - observational_entropy(q, mult))
        assert lhs <= observational_deviation_bound(dim, population_distance(p, q)) + 1e-9


def test_von_neumann_continuity_bound_cases():
    rho = np.diag([1.0, 0.0]).astype(complex)
    sigma = np.eye(2, dtype=complex) / 2
    assert von_neumann_deviation_bound(2, 0.5 * trace_norm(rho - rho)) == 0.0
    # ln(2) / 2 + ln 2 before the ln d cap: the cap makes this pair its equality case
    rhs = von_neumann_deviation_bound(2, 0.5 * trace_norm(rho - sigma))
    assert rhs == LN2
    assert abs(von_neumann_entropy(sigma) - von_neumann_entropy(rho)) <= rhs
    assert abs(von_neumann_entropy(sigma) - von_neumann_entropy(rho)) == pytest.approx(rhs, abs=1e-15)


def test_von_neumann_continuity_bound_random():
    rng = np.random.default_rng(13)
    for _ in range(200):
        dim = int(rng.integers(2, 17))
        rho, sigma = random_density(rng, dim), random_density(rng, dim)
        lhs = abs(von_neumann_entropy(rho) - von_neumann_entropy(sigma))
        assert lhs <= von_neumann_deviation_bound(dim, 0.5 * trace_norm(rho.matrix - sigma.matrix)) + 1e-9


def test_additive_split_and_upper_estimate():
    rng = np.random.default_rng(14)
    for _ in range(50):
        dim = int(rng.integers(2, 33))
        m = pvm_from_observable(random_hermitian(rng, dim))
        rho = random_density(rng, dim)
        p = populations(m, rho)
        mult = m.multiplicities
        s_sh = shannon_entropy(p)
        s_b = boltzmann_term(p, mult)
        s_obs = observational_entropy(p, mult)
        assert abs(s_obs - (s_sh + s_b)) < 1e-10
        assert s_obs >= s_sh - 1e-12
        assert s_obs >= von_neumann_entropy(rho) - 1e-9
        assert s_obs <= math.log(dim) + 1e-9


def test_unitary_invariance_of_von_neumann_entropy():
    rng = np.random.default_rng(15)
    dim = 8
    decomp = decompose_hermitian(random_hermitian(rng, dim))
    rho = random_density(rng, dim)
    s0 = von_neumann_entropy(rho)
    for t in (0.3, 2.0, 17.0):
        assert abs(von_neumann_entropy(evolve(decomp, rho, t)) - s0) < 1e-8


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_shannon_entropy_range_property(seed):
    rng = np.random.default_rng(seed)
    r = int(rng.integers(2, 33))
    p = rng.dirichlet(np.ones(r))
    s = shannon_entropy(p)
    assert -1e-12 <= s <= math.log(r) + 1e-12


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_binary_entropy_symmetry_property(x):
    assert abs(binary_entropy(x) - binary_entropy(1.0 - x)) < 1e-12
    assert binary_entropy(x) <= LN2 + 1e-12


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_zhang_bound_property(seed):
    rng = np.random.default_rng(seed)
    r = int(rng.integers(2, 65))
    p, q = rng.dirichlet(np.ones(r)), rng.dirichlet(np.ones(r))
    lhs = abs(shannon_entropy(p) - shannon_entropy(q))
    assert lhs <= shannon_deviation_bound(r, population_distance(p, q)) + 1e-9
