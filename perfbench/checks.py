"""Output checks made after every measured CLI run, outside the measured
process.

Each check is one attempted operation with a fixed name; the list for a
workload depends only on its generated config, so every round of a run
attempts the same operations. Property checks recompute what they test
from the artifacts (a bound holds when ``rhs - lhs >= -1e-9``, never
because its ``status`` says so). Reference checks compare against
:mod:`reference`, which shares no code with the package.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from reference import ChainReference
from workloads import CHAIN_SITES

BOUND_SLACK = 1e-9
REFERENCE_TOL = 1e-8
ROUNDOFF = 1e-12
GRID_ROWS = 6  # grid times propagated independently per run

CHAIN_BOUNDS = ("population_equilibration", "shannon_deviation",
                "observational_deviation", "expectation_deviation")
CONTINUITY_CASES = (
    ("shannon_continuity_suite", "shannon_pairs"),
    ("observational_continuity_suite", "observational_cases"),
    ("von_neumann_continuity_suite", "von_neumann_cases"),
)
# POVM systems carry no observable norm, so no expectation bound
POVM_BOUNDS_PER_SYSTEM = 3


def expected_simulate_reports(config: dict) -> list:
    names = [name for _ in config["average_grid"] for name in CHAIN_BOUNDS]
    return names + ["average_entropy_vs_equilibrium", "shannon_fluctuation",
                    "observational_fluctuation"]


def expected_verify_reports(config: dict) -> list:
    names = []
    for _ in config["sites"]:
        names += [name for _ in config["average_grid"] for name in CHAIN_BOUNDS]
        names.append("average_entropy_vs_equilibrium")
    names += ["shannon_fluctuation", "observational_fluctuation"]
    for _ in config["averaged_state"]["sites"]:
        for _ in config["averaged_state"]["windows"]:
            names += ["averaged_state_distance", "averaged_state_entropy"]
    return names + [suite for suite, _ in CONTINUITY_CASES] + ["povm_equilibration_suite"]


def _close(a: float, b: float, rel: bool = False) -> bool:
    scale = max(1.0, abs(b)) if rel else 1.0
    return abs(a - b) <= REFERENCE_TOL * scale


class Artifacts:
    """Lazily parsed outputs of one CLI run."""

    def __init__(self, outdir: Path, label: str | None):
        self.outdir = outdir
        self.label = label
        self._report = self._rows = None

    @property
    def report(self):
        if self._report is None:
            name = f"report_{self.label}.json" if self.label else "verify_report.json"
            self._report = json.loads((self.outdir / name).read_text())
        return self._report

    @property
    def bounds(self) -> list:
        return self.report["bounds"] if self.label else self.report

    @property
    def rows(self) -> np.ndarray:
        """Trajectory CSV as an array: t, expectation, shannon,
        observational, boltzmann, then the equilibrium columns."""
        if self._rows is None:
            path = self.outdir / f"trajectory_{self.label}.csv"
            self._rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        return self._rows


def _bound_checks(names: list) -> list:
    checks = [("report_names", lambda a: [b["name"] for b in a.bounds] == names)]
    for k, name in enumerate(names):
        checks.append((f"bound[{k}]:{name}",
                       lambda a, k=k: a.bounds[k]["rhs"] - a.bounds[k]["lhs"] >= -BOUND_SLACK))
    return checks


def _samples_check(config_fluct: dict):
    count = config_fluct["count"]

    def check(a):
        tails = [b for b in a.bounds if b["name"].endswith("_fluctuation")]
        return len(tails) == 2 and all(b["parameters"]["samples"] == count for b in tails)

    return ("fluctuation_samples", check)


def simulate_checks(config: dict, ref: ChainReference, seed: int) -> list:
    sites = config["model"]["sites"]
    max_shannon = math.log(sites + 1)
    row_fractions = np.random.default_rng(seed).random(GRID_ROWS)

    def shannon_range(a):
        shannon = a.rows[:, 2]
        return bool(np.all(shannon >= 0.0) and np.all(shannon <= max_shannon + ROUNDOFF))

    def observational_split(a):
        observational, total = a.rows[:, 3], a.rows[:, 2] + a.rows[:, 4]
        return bool(np.all(np.abs(observational - total) <= ROUNDOFF * np.maximum(1.0, total)))

    def row_count(a):
        summary = a.report["trajectory_summary"]
        return len(a.rows) == summary["samples"] and a.rows[-1, 0] >= config["times"]["t_max"] - ROUNDOFF

    def initial_row(a):
        return abs(a.rows[0, 0]) == 0.0 and abs(a.rows[0, 1] + 1.0) <= ROUNDOFF and abs(a.rows[0, 2]) <= ROUNDOFF

    def populations(a):
        got = np.array(a.report["equilibrium"]["populations"])
        want = ref.equilibrium_populations()
        return got.shape == want.shape and bool(np.all(np.abs(got - want) <= REFERENCE_TOL))

    def d_eff(a):
        return _close(a.report["system"]["d_eff"], ref.d_eff(), rel=True)

    def grid_row(fraction):
        def check(a):
            t, expectation, shannon = a.rows[int(fraction * (len(a.rows) - 1)), :3]
            want_expectation, want_shannon = ref.expectation_and_shannon(t)
            return _close(expectation, want_expectation) and _close(shannon, want_shannon)

        return check

    return (_bound_checks(expected_simulate_reports(config)) + [
        _samples_check(config["fluctuation"]),
        ("csv_row_count", row_count),
        ("csv_shannon_range", shannon_range),
        ("csv_observational_split", observational_split),
        ("csv_initial_row", initial_row),
        ("reference_equilibrium_populations", populations),
        ("reference_d_eff", d_eff),
    ] + [(f"reference_grid_row[{k}]", grid_row(f)) for k, f in enumerate(row_fractions)])


def verify_checks(config: dict, refs: dict) -> list:
    def suite_cases(suite, key):
        def check(a):
            (report,) = [b for b in a.bounds if b["name"] == suite]
            return report["parameters"]["cases"] == config["suites"][key]

        return (f"cases:{suite}", check)

    def povm_cases(a):
        (report,) = [b for b in a.bounds if b["name"] == "povm_equilibration_suite"]
        systems = config["suites"]["povm_cases"]
        params = report["parameters"]
        return params["systems"] == systems and params["cases"] == POVM_BOUNDS_PER_SYSTEM * systems

    def chain_d_eff(sites):
        def check(a):
            values = [b["parameters"]["d_eff"] for b in a.bounds
                      if b["parameters"].get("system") == f"chain_{sites}" and "d_eff" in b["parameters"]]
            want = refs[sites].d_eff()
            return len(values) == len(CHAIN_BOUNDS) * len(config["average_grid"]) and all(
                _close(v, want, rel=True) for v in values)

        return (f"reference_d_eff:chain_{sites}", check)

    return (_bound_checks(expected_verify_reports(config))
            + [suite_cases(s, k) for s, k in CONTINUITY_CASES]
            + [("cases:povm_equilibration_suite", povm_cases), _samples_check(config["fluctuation"])]
            + [chain_d_eff(n) for n in config["sites"]])


def checks_for(workload: str, config: dict, seed: int) -> tuple[list, str | None]:
    """The checks of one round and the label of its artifacts. Builds
    the independent references once, before any round is measured."""
    if workload in CHAIN_SITES:
        ref = ChainReference(CHAIN_SITES[workload])
        return simulate_checks(config, ref, seed), config["label"]
    refs = {n: ChainReference(n) for n in config["sites"]}
    return verify_checks(config, refs), None


def run_checks(checks: list, outdir: Path, label: str | None) -> list:
    """Names of the checks that did not pass on one run's artifacts."""
    artifacts = Artifacts(outdir, label)
    failed = []
    for name, check in checks:
        try:
            ok = bool(check(artifacts))
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            ok = False
            name = f"{name} ({type(exc).__name__}: {exc})"
        if not ok:
            failed.append(name)
    return failed
