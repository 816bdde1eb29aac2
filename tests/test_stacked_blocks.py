"""verify's observational, von Neumann and POVM suites draw one shape per
block of 8 cases and evaluate the block as one stack: stacked draws,
eigensolves, products and series. Each case of a stack must equal the same
case evaluated as a stack of one, bit for bit, and a POVM block at the
largest shape must stay within the memory of a chain unit."""

import tracemalloc

import numpy as np
import pytest

from qeqlab import verify
from qeqlab.harness import (
    _prepared_systems,
    _stack_reports,
    _stack_trajectory,
    chain_system,
    compute_trajectory,
    evaluate_bounds,
    time_grid,
)
from qeqlab.linalg import _decompositions, decompose_hermitian
from qeqlab.measurement import _povms_from_factors, _vector_weights, povm_from_factors
from qeqlab.models import SpinChainParams
from qeqlab.verify import VerifyConfig

SHAPES = [(4, 2), (13, 5), (32, 8)]


def same_arrays(a, b):
    """Equal bit for bit: same dtype and values (None or floats alike)."""
    if a is None or b is None:
        return a is b
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and np.array_equal(a, b)


def test_stacked_eigensolves_equal_single_ones():
    stack = verify._hermitians(np.random.default_rng(1), 8, 12)
    for i, decomp in enumerate(_decompositions(stack)):
        alone = decompose_hermitian(stack[i])
        for name in ("eigenvalues", "eigenvectors", "cluster_values", "level_values"):
            assert same_arrays(getattr(decomp, name), getattr(alone, name))
        assert decomp.cluster_slices == alone.cluster_slices


@pytest.mark.parametrize("dim, outcomes", SHAPES)
def test_stacked_povm_factors_equal_single_ones(dim, outcomes):
    G = verify._ginibre(np.random.default_rng(2), 8 * outcomes, dim, dim).reshape(8, outcomes, dim, dim)
    factors = verify._povm_factors(G)
    for i, povm in enumerate(_povms_from_factors(factors)):
        alone = verify._povm_factors(G[i : i + 1])[0]
        assert same_arrays(factors[i], alone)
        single = povm_from_factors(alone)
        assert same_arrays(povm.basis, single.basis)
        assert same_arrays(povm.multiplicities, single.multiplicities)
        assert povm.outcome_slices == single.outcome_slices


def report_dicts(reports):
    return [report.to_json_dict() for report in reports]


@pytest.mark.parametrize("dim, outcomes", SHAPES)
def test_each_system_of_a_povm_block_equals_it_as_a_block_of_one(dim, outcomes):
    systems = verify._povm_systems(np.random.default_rng(3), 8, dim, outcomes)
    grids = verify._povm_grids(systems)
    assert len({len(grid) for grid in grids}) > 1  # the stack is ragged
    block = verify._povm_reports(systems, grids)
    assert report_dicts(sum(block, [])) == report_dicts(sum(verify._povm_reports(systems, grids), []))
    for system, grid, reports in zip(systems, grids, block):
        (alone,) = _prepared_systems([system.decomposition], [system.measurement], [system.initial])
        for name in ("amps_eig", "weighted_contraction"):
            assert same_arrays(getattr(system, name), getattr(alone, name))
        for name in ("populations", "expectation", "shannon", "observational", "boltzmann"):
            assert same_arrays(getattr(system.equilibrium, name), getattr(alone.equilibrium, name))
        assert (system.d_eff, system.curvature, system.energy_spread) == (
            alone.d_eff, alone.curvature, alone.energy_spread)
        assert report_dicts(reports) == report_dicts(verify._povm_reports([alone], [grid])[0])
        # a stack of one is evaluate_bounds on compute_trajectory
        single = evaluate_bounds(system, compute_trajectory(system, grid), [verify._POVM_WINDOW],
                                 eps_points=verify._POVM_EPS_POINTS)
        assert report_dicts(reports) == report_dicts(single)


def test_a_stack_of_chains_with_values_equals_each_chain_alone():
    # the expectation report and the trajectory series, on ragged grids
    systems = [chain_system(SpinChainParams(sites=5, g=g)) for g in (0.7, 0.9, 1.3)]
    grids = [time_grid(6.0, 0.05 + 0.01 * k) for k in range(3)]
    rows = _stack_trajectory(systems, grids)
    block = _stack_reports(systems, grids, rows[0], *rows[1:4], [2.5, 6.0], 32)
    for k, (system, grid) in enumerate(zip(systems, grids)):
        trajectory = compute_trajectory(system, grid)
        for name, row in zip(("populations", "expectation", "shannon", "observational", "boltzmann"), rows):
            assert same_arrays(getattr(trajectory, name), row[k, : len(grid)])
        assert report_dicts(block[k]) == report_dicts(evaluate_bounds(system, trajectory, [2.5, 6.0]))


def test_each_case_of_an_observational_block_equals_it_as_a_block_of_one():
    rng = np.random.default_rng(4)
    dim = 9
    measurements = ([verify.pvm_from_observable(verify.random_hermitian(rng, dim)) for _ in range(4)]
                    + [verify.random_partition_pvm(rng, dim, 3) for _ in range(4)])
    states = verify._density_matrices(rng, 16, dim, dim).reshape(8, 2, dim, dim)
    bases = np.stack([m.basis for m in measurements])
    weights = _vector_weights(bases[:, None], states)
    pairs = [m.outcome_sums(w) for m, w in zip(measurements, weights)]
    block = verify._observational_pairs(dim, measurements, pairs)
    for i, measurement in enumerate(measurements):
        alone = _vector_weights(bases[i : i + 1, None], states[i : i + 1])[0]
        assert same_arrays(weights[i], alone)
        assert block[i] == verify._observational_pairs(dim, [measurement], [measurement.outcome_sums(alone)])[0]


def test_each_case_of_a_von_neumann_block_equals_it_as_a_block_of_one():
    rng = np.random.default_rng(5)
    rho = verify._density_matrices(rng, 8, 7, 7)
    sigma = verify._density_matrices(rng, 8, 7, 3)
    block = verify._von_neumann_pairs(rho, sigma)
    assert block == [verify._von_neumann_pairs(rho[i : i + 1], sigma[i : i + 1])[0] for i in range(8)]


def test_the_random_helpers_are_blocks_of_one():
    # a helper draws what the first case of a block of one draws
    for helper, block in [
        (lambda rng: verify.random_hermitian(rng, 5), lambda rng: verify._hermitians(rng, 1, 5)[0]),
        (lambda rng: verify.random_pure_state(rng, 5).amplitudes, lambda rng: verify._pure_states(rng, 1, 5)[0]),
        (lambda rng: verify.random_povm(rng, 5, 3).basis,
         lambda rng: _povms_from_factors(verify._povm_factors(verify._ginibre(rng, 3, 5, 5)[None]))[0].basis),
    ]:
        assert same_arrays(helper(np.random.default_rng(6)), block(np.random.default_rng(6)))


def traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_povm_block_at_the_largest_shape_peaks_below_a_chain_unit():
    # the N = 9 chain unit sets verify's peak; a block of the largest POVM
    # shape, stacked, must not raise it
    config = VerifyConfig.from_dict({})
    chain = traced_peak(lambda: verify._chain_reports(config, 9))
    block = traced_peak(lambda: verify._povm_block(np.random.default_rng(7), verify._SHAPE_BLOCK,
                                                   verify._POVM_MAX_DIM, verify._POVM_MAX_OUTCOMES))
    assert block <= chain
