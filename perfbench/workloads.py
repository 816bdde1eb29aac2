"""The benchmark's workloads and the configs it generates for them.

The benchmark owns these configs instead of reading ``configs/*.json``,
so an edit to the shipped examples cannot move its numbers. The seed is
the only input that varies between runs; it is written into every
generated config.
"""

from __future__ import annotations

import json
from pathlib import Path

AVERAGE_GRID = [10.0, 25.0, 50.0, 100.0]
T_MAX = 100.0
FLUCTUATION = {"window": 10000.0, "count": 10000}

# Why each workload is in the benchmark; BENCHMARK.json repeats these.
WORKLOADS = {
    "simulate_n11": "simulate at N=11 (d=2048, subsampled gaps): eigensolve, propagation and memory dominate",
    "verify_default": "the default 121-check verify suite: ~1000 small random systems and Python-level loops",
}

CHAIN_SITES = {"simulate_n11": 11}

# The default verify suite, written out in full.
VERIFY_SITES = [5, 6, 7, 8, 9]
VERIFY_FLUCTUATION_SITES = 7
VERIFY_AVERAGED_STATE = {"sites": [2, 3, 4, 5, 6], "windows": [100.0, 1000.0, 10000.0]}
VERIFY_SUITES = {
    "shannon_pairs": 10000,
    "observational_cases": 1000,
    "von_neumann_cases": 1000,
    "povm_cases": 1000,
}


def make_config(workload: str, seed: int) -> dict:
    """The config one run of ``workload`` feeds to the CLI."""
    if workload in CHAIN_SITES:
        sites = CHAIN_SITES[workload]
        return {
            "label": f"chain_n{sites}",
            "seed": seed,
            "model": {"kind": "tilted_ising", "sites": sites},
            "observable": {"axis": "z"},
            "times": {"t_max": T_MAX},
            "average_grid": AVERAGE_GRID,
            "fluctuation": dict(FLUCTUATION),
        }
    if workload == "verify_default":
        return {
            "sites": VERIFY_SITES,
            "average_grid": AVERAGE_GRID,
            "t_max": T_MAX,
            "fluctuation": {"sites": VERIFY_FLUCTUATION_SITES, **FLUCTUATION},
            "averaged_state": VERIFY_AVERAGED_STATE,
            "suites": VERIFY_SUITES,
            "seed": seed,
        }
    raise KeyError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")


def subcommand(workload: str) -> str:
    return "verify" if workload == "verify_default" else "simulate"


def write_config(workload: str, seed: int, path: Path) -> dict:
    config = make_config(workload, seed)
    path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
    return config
