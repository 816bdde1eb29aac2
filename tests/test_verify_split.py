"""``run_verification`` splits its run between its process and one forked
worker. Each suite's cases come in blocks (of 64 for the Shannon suite, of
8 for the suites drawn by shape), each block with its own generator
spawned from the seeded one; each process draws and evaluates alternate
units and blocks, and the parent merges them back into order. These tests
hold the merged run to the whole run in one process, check that a share
draws only its own blocks, check that no worker outlives the call, and
hold each case of a stacked block to the same case as a block of one."""

import os
import time

import numpy as np
import pytest

from qeqlab import verify
from qeqlab.bounds import average_entropy_check
from qeqlab.dynamics import default_time_step
from qeqlab.harness import (
    chain_system,
    compute_trajectory,
    evaluate_bounds,
    fluctuation_checks,
    time_grid,
)
from qeqlab.models import SpinChainParams
from qeqlab.serialize import canonical_json
from qeqlab.verify import (
    VerifyConfig,
    observational_continuity_suite,
    povm_equilibration_suite,
    run_verification,
    shannon_continuity_suite,
    time_averaged_state_suite,
    von_neumann_continuity_suite,
)

# an odd unit count, so share 0 holds one unit more than share 1; the Shannon
# and POVM suites are one block each, which share 0 holds, and the
# observational and von Neumann suites three blocks each
SMALL = {
    "sites": [3, 4],
    "average_grid": [5.0],
    "t_max": 5.0,
    "fluctuation": {"sites": 3, "window": 50.0, "count": 101},
    "averaged_state": {"sites": [2, 3], "windows": [100.0]},
    "suites": {"shannon_pairs": 51, "observational_cases": 21,
               "von_neumann_cases": 21, "povm_cases": 7},
    "seed": 3,
}


def one_share(config: VerifyConfig) -> list:
    """The whole run in one process, from the public functions."""
    reports = []
    for n in config.sites:
        system = chain_system(SpinChainParams(sites=n))
        dt = default_time_step(system.curvature)
        trajectory = compute_trajectory(system, time_grid(config.t_max, dt))
        checks = evaluate_bounds(system, trajectory, config.average_grid)
        checks.append(average_entropy_check(trajectory, system.equilibrium.populations, config.t_max))
        for report in checks:
            report.parameters["system"] = f"chain_{n}"
        reports += checks
    system = chain_system(SpinChainParams(sites=config.fluctuation_sites))
    checks, _ = fluctuation_checks(system, config.fluctuation_window, config.fluctuation_count, config.seed)
    for report in checks:
        report.parameters["system"] = f"fluct_{config.fluctuation_sites}"
    reports += checks
    reports += time_averaged_state_suite(config.averaged_state_sites, config.averaged_state_windows)
    rng = np.random.default_rng(config.seed)
    reports += [shannon_continuity_suite(rng, config.shannon_pairs),
                observational_continuity_suite(rng, config.observational_cases),
                von_neumann_continuity_suite(rng, config.von_neumann_cases),
                povm_equilibration_suite(rng, config.povm_cases)]
    return reports


def serialized(reports: list) -> str:
    return canonical_json([report.to_json_dict() for report in reports])


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_split_run_equals_the_one_share_composition():
    config = VerifyConfig.from_dict(SMALL)
    split = run_verification(config)
    assert_no_child_left()
    assert serialized(split) == serialized(one_share(config))
    suites = [report.parameters for report in split[-4:]]
    assert [p["cases"] for p in suites[:3]] == [51, 21, 21]
    assert suites[3]["systems"] == 7


BLOCK_SIZES = {suite: size for suite, _, size in verify._SUITES}


def test_block_sizes():
    assert list(BLOCK_SIZES.values()) == [64, 8, 8, 8]


@pytest.mark.parametrize("suite", list(BLOCK_SIZES))
def test_a_block_draws_the_same_cases_in_a_longer_run(suite):
    size = BLOCK_SIZES[suite]
    short = verify._blocks(suite, np.random.default_rng(5), size, size)
    long = verify._blocks(suite, np.random.default_rng(5), 3 * size + size // 8, size)
    assert [len(block) for block in long] == [len(short[0])] * 3 + [len(short[0]) // 8]
    assert short == long[:1]


def test_a_share_draws_only_its_own_blocks(monkeypatch):
    config = VerifyConfig.from_dict({**SMALL, "suites": {
        "shannon_pairs": 300, "observational_cases": 130, "von_neumann_cases": 129, "povm_cases": 65}})
    suites = [suite for suite, *_ in verify._SUITES]
    counts = [getattr(config, count) for _, count, _ in verify._SUITES]
    sizes = [size for *_, size in verify._SUITES]
    calls = []

    def recorded(suite):
        def cases(rng, start, stop):
            calls.append((suite, start, stop))
            return suite(rng, start, stop)

        return cases

    rng = np.random.default_rng(config.seed)
    whole = [verify._blocks(suite, rng, count, size) for suite, count, size in zip(suites, counts, sizes)]
    monkeypatch.setattr(verify, "_SUITES", [(recorded(suite), count, size)
                                            for suite, count, size in verify._SUITES])
    shares = []
    for rank in (0, 1):
        calls.clear()
        shares.append(verify._share(config, rank)[1])
        assert calls == [(suite, b * size, min(count, b * size + size))
                         for suite, count, size in zip(suites, counts, sizes)
                         for b in range(rank, -(-count // size), 2)]
    assert [verify._interleave(*pair) for pair in zip(*shares)] == whole


def patch_trajectory(monkeypatch, here, in_worker):
    """Make ``verify.compute_trajectory`` call ``here`` in this process and
    ``in_worker`` in the forked worker before it computes."""
    parent = os.getpid()
    original = verify.compute_trajectory

    def patched(system, times):
        (here if os.getpid() == parent else in_worker)()
        return original(system, times)

    monkeypatch.setattr(verify, "compute_trajectory", patched)


def nothing():
    pass


def boom():
    raise ValueError("boom")


def test_a_failure_in_the_worker_raises(monkeypatch, capfd):
    patch_trajectory(monkeypatch, nothing, boom)
    with pytest.raises(RuntimeError, match="worker exited with code 1"):
        run_verification(VerifyConfig.from_dict(SMALL))
    assert_no_child_left()
    assert "ValueError: boom" in capfd.readouterr().err


def test_a_failure_in_this_process_kills_and_reaps_the_worker(monkeypatch):
    patch_trajectory(monkeypatch, boom, lambda: time.sleep(120))  # the worker stalls
    start = time.monotonic()
    with pytest.raises(ValueError, match="boom"):
        run_verification(VerifyConfig.from_dict(SMALL))
    assert time.monotonic() - start < 60
    assert_no_child_left()


@pytest.mark.parametrize("suite", [shannon_continuity_suite, observational_continuity_suite,
                                   von_neumann_continuity_suite, povm_equilibration_suite])
def test_an_empty_suite_is_rejected(suite):
    with pytest.raises(ValueError, match="count must be >= 1, got 0"):
        suite(np.random.default_rng(0), 0)
