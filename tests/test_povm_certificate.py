"""verify's POVM suite skips the propagation of a system whose certified
ceilings settle its three pairs: each pair's bound U = (ceiling + w(tau1))
(1 + rtol) is at most its rhs + ATOL_BOUND, and U - rhs falls short of the
largest lhs - rhs of the earlier blocks of the same parity. These tests
hold U to every lhs and its two terms to the trapezoid and the quadrature
remainder, hold each skipped system to the rule, hold the suite's report
to a run with every case evaluated, and hold each ceiling to its quantity."""

import functools
import math

import numpy as np
import pytest

from qeqlab import verify
from qeqlab.bounds import ATOL_BOUND, CEILINGS
from qeqlab.entropy import observational_entropy, shannon_entropy
from qeqlab.harness import _CEILING_RTOL
from qeqlab.measurement import population_distance, populations, pvm_from_observable
from qeqlab.models import DensityMatrix, PureState

SEEDS = (0, 1, 2)
DEFAULT_CASES = verify.VerifyConfig().povm_cases
SIZE = verify._SHAPE_BLOCK


@functools.cache
def every_case_run(seed: int, cases: int) -> tuple:
    """The suite at ``seed`` with every case evaluated: the case generator
    called per block with the floor at -inf. Returns the pairs per block and,
    per system in case order, its reports' (name, lhs, rhs, trapezoid,
    remainder, ceiling) and its certified ceilings U."""
    systems = []
    original = verify._reports

    def recorded(system, trajectory, windows, best):
        # the per-system step evaluates each propagated system here
        reports = original(system, trajectory, windows, best)
        rows = [(report.name, report.lhs, report.rhs, report.parameters["trapezoid"],
                 report.parameters["quadrature_remainder"], CEILINGS[report.name](system.r, system.dim))
                for report in reports]
        systems.append((rows, verify._ceiling_certificates(system, trajectory.times)))
        return reports

    streams = np.random.default_rng(seed).spawn(-(-cases // SIZE))
    token = verify._floor.set(-math.inf)
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(verify, "_reports", recorded)
            blocks = [list(verify._povm_cases(stream, b * SIZE, min(cases, (b + 1) * SIZE)))
                      for b, stream in enumerate(streams)]
    finally:
        verify._floor.reset(token)
    assert len(systems) == cases
    return blocks, systems


@pytest.mark.parametrize("seed", SEEDS)
def test_the_certificate_bounds_every_lhs_and_settles_only_what_it_may(seed):
    blocks, systems = every_case_run(seed, DEFAULT_CASES)
    suite = verify._blocks(verify._povm_cases, np.random.default_rng(seed), DEFAULT_CASES, SIZE)
    assert [len(block) for block in suite] == [len(block) for block in blocks]
    floors = [-math.inf, -math.inf]
    skipped = 0
    for b, (block, every) in enumerate(zip(suite, blocks)):
        floor = floors[b % 2]
        for k in range(len(block) // 3):
            rows, ceilings = systems[b * SIZE + k]
            pairs = block[3 * k : 3 * k + 3]
            for (name, lhs, rhs, trapezoid, remainder, ceiling), u in zip(rows, ceilings):
                assert lhs <= u, name
                # U's two terms bound the trapezoid and the remainder apart
                assert trapezoid <= ceiling * (1 + _CEILING_RTOL), name
                assert remainder <= u - ceiling, name
            if pairs == every[3 * k : 3 * k + 3]:
                continue
            # a skipped system yields (U, rhs) and can change no output
            skipped += 1
            assert pairs == [(u, rhs) for u, (_, _, rhs, *_) in zip(ceilings, rows)]
            for (_, lhs, rhs, *_), u in zip(rows, ceilings):
                assert u <= rhs + ATOL_BOUND
                assert lhs - rhs <= u - rhs < floor
        floors[b % 2] = max([floor, *(lhs - rhs for lhs, rhs in block)])
    assert skipped >= DEFAULT_CASES // 2


@pytest.mark.parametrize("cases", [7, 65, DEFAULT_CASES])
@pytest.mark.parametrize("seed", SEEDS)
def test_the_suite_reports_what_every_case_evaluated_reports(seed, cases):
    report = verify.povm_equilibration_suite(np.random.default_rng(seed), cases)
    blocks, _ = every_case_run(seed, cases)
    every = verify._report(verify._povm_cases, cases, blocks)
    assert report.to_json_dict() == every.to_json_dict()
    assert report.parameters["cases"] == 3 * cases


def test_a_pair_that_could_violate_is_never_settled():
    # a floor above 0 means an earlier pair is violated; a pair whose U
    # exceeds its rhs + ATOL_BOUND must still be evaluated below that floor
    assert verify._settled([0.5, 0.2, 0.3], [0.6, 0.9, 0.4], -0.05)
    assert not verify._settled([0.5, 0.2, 0.3], [0.6, 0.9, 0.4], -0.1)
    assert not verify._settled([0.5, 0.2, 0.3], [0.6, 0.9, 0.29], 1.0)
    assert verify._settled([0.3], [0.3 - ATOL_BOUND], 1.0)


def random_distributions(rng, n: int, r: int) -> np.ndarray:
    return rng.dirichlet(np.ones(r), size=n)


def test_the_population_ceiling_bounds_the_distance_and_is_reached():
    rng = np.random.default_rng(11)
    for r in (2, 3, 8, 40):
        p, q = random_distributions(rng, 200, r), random_distributions(rng, 200, r)
        assert np.all(population_distance(p, q) <= CEILINGS["population_equilibration"](r, r))
        # point masses on different outcomes
        assert population_distance(np.eye(r)[0], np.eye(r)[1]) == CEILINGS["population_equilibration"](r, r)


def test_the_shannon_ceiling_bounds_the_deviation_and_is_reached():
    rng = np.random.default_rng(12)
    for r in (2, 3, 8, 40):
        ceiling = CEILINGS["shannon_deviation"](r, r)
        p, q = random_distributions(rng, 200, r), random_distributions(rng, 200, r)
        assert np.all(np.abs(shannon_entropy(p) - shannon_entropy(q)) <= ceiling)
        # a point mass against the uniform distribution
        assert abs(shannon_entropy(np.full(r, 1.0 / r)) - shannon_entropy(np.eye(r)[0])) == pytest.approx(
            ceiling, rel=1e-14)


def test_the_observational_ceiling_bounds_the_deviation_and_is_reached():
    rng = np.random.default_rng(13)
    for dim, outcomes in ((2, 2), (5, 3), (12, 8), (32, 8)):
        ceiling = CEILINGS["observational_deviation"](outcomes, dim)
        for _ in range(20):
            povm = verify.random_povm(rng, dim, outcomes)
            entropies = [observational_entropy(populations(povm, state), povm.multiplicities)
                         for state in (verify.random_density_matrix(rng, dim),
                                       verify.random_density_matrix(rng, dim, 1),
                                       verify.random_pure_state(rng, dim))]
            assert all(-1e-12 <= s <= ceiling * (1 + 1e-12) for s in entropies)
        # a rank-one PVM: the maximally mixed state against a basis state
        pvm = pvm_from_observable(np.diag(np.arange(dim, dtype=float)))
        mixed = observational_entropy(populations(pvm, DensityMatrix(np.eye(dim) / dim)), pvm.multiplicities)
        pure = observational_entropy(populations(pvm, PureState(np.eye(dim)[0])), pvm.multiplicities)
        assert abs(mixed - pure) == pytest.approx(ceiling, rel=1e-14)
