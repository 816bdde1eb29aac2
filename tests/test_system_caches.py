"""A prepared system builds its weighted contraction and its equilibrium on
first read: a POVM system that verify settles without propagating builds
neither, and simulate builds them once, before its threads share the
system. Each POVM system computes its curvature and its rhs rows once."""

import threading
from collections import Counter

import numpy as np

from qeqlab import harness, verify
from qeqlab.harness import ExperimentConfig, PreparedSystem, execute_experiment

CACHES = ("weighted_contraction", "equilibrium")


def test_a_settled_povm_system_builds_neither_cache(monkeypatch):
    systems, propagated = [], set()
    step, propagate = verify._povm_pairs, verify.compute_trajectory

    def recorded_step(system, floor):
        systems.append(system)
        return step(system, floor)

    def recorded_propagation(system, times):
        propagated.add(id(system))
        return propagate(system, times)

    monkeypatch.setattr(verify, "_povm_pairs", recorded_step)
    monkeypatch.setattr(verify, "compute_trajectory", recorded_propagation)
    verify.povm_equilibration_suite(np.random.default_rng(7), 64)
    assert len(systems) == 64
    assert 0 < len(propagated) < len(systems)
    for system in systems:
        built = [name in vars(system) for name in CACHES]
        assert built == [id(system) in propagated] * len(CACHES)


def test_each_povm_system_computes_its_rhs_rows_and_curvature_once(monkeypatch):
    systems, propagated, rows = [], set(), Counter()
    step, propagate, rhs_rows = verify._povm_pairs, verify.compute_trajectory, harness._rhs_rows

    def recorded_step(system, floor):
        systems.append(system)
        return step(system, floor)

    def recorded_propagation(system, times):
        propagated.add(id(system))
        return propagate(system, times)

    def counted_rows(system, factor):
        rows[id(system)] += 1
        return rhs_rows(system, factor)

    monkeypatch.setattr(verify, "_povm_pairs", recorded_step)
    monkeypatch.setattr(verify, "compute_trajectory", recorded_propagation)
    # the suite's step and the reports it builds each read the rows by name
    monkeypatch.setattr(verify, "_rhs_rows", counted_rows)
    monkeypatch.setattr(harness, "_rhs_rows", counted_rows)
    verify.povm_equilibration_suite(np.random.default_rng(7), 64)
    assert propagated
    assert [rows[id(system)] for system in systems] == [1] * len(systems)
    assert all("curvature" in vars(system) for system in systems)


def test_simulate_builds_the_contraction_once_on_the_calling_thread(monkeypatch):
    threads = []
    build = PreparedSystem.weighted_contraction.func

    def recorded(system):
        threads.append((threading.get_ident(), threading.active_count()))
        return build(system)

    monkeypatch.setattr(PreparedSystem.weighted_contraction, "func", recorded)
    config = ExperimentConfig.from_dict({
        "model": {"kind": "tilted_ising", "sites": 5}, "times": {"t_max": 5.0},
        "average_grid": [2.5, 5.0], "fluctuation": {"window": 50.0, "count": 3000},
    })
    before = threading.active_count()
    _, system, _ = execute_experiment(config)
    # built here, before the pools start a thread
    assert threads == [(threading.get_ident(), before)]
    assert all(name in vars(system) for name in CACHES)
    # the fluctuation sample spans several chunks, so both threads propagate
    assert config.fluctuation_count > harness._CHUNK_TIMES
