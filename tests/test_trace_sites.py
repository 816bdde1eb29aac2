"""The benchmark's traced run (``perfbench/tracing.py``) wraps package
functions at the names their callers look up, from outside the package.
Every name it wraps must exist, or the traced run fails on install."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_call_sites_resolve():
    missing = [
        f"qeqlab.{module}.{attribute}"
        for module, attribute, *_ in load_tracing().CALL_SITES
        if not callable(getattr(importlib.import_module(f"qeqlab.{module}"), attribute, None))
    ]
    assert missing == []


def test_counted_methods_resolve():
    missing = []
    for module, cls_name, method, _ in load_tracing().COUNTED_METHODS:
        cls = getattr(importlib.import_module(f"qeqlab.{module}"), cls_name, None)
        if not callable(getattr(cls, method, None)):
            missing.append(f"qeqlab.{module}.{cls_name}.{method}")
    assert missing == []


# Installs the tracer, runs cli.main on argv[2:] and prints the layer metrics.
TRACED_RUN = ("import json, sys; sys.path.insert(0, sys.argv[1]); import tracing; from qeqlab import cli; "
              "tracer = tracing.Tracer(); tracer.install(); "
              "assert tracer.wrap('cli.main', cli.main)(sys.argv[2:]) == 0; "
              "print(json.dumps(tracing.layer_metrics(tracer.export(), {}, 0.0, 0.0, 0)))")

SMALL_RUNS = {
    "simulate": ["simulate_chain.json", "model.sites=3", "fluctuation.count=100"],
    "verify": ["verify_default.json", "sites=[3]", "t_max=10.0", "average_grid=[10.0]",
               "fluctuation.sites=3", "fluctuation.count=100", "averaged_state.sites=[2]",
               "suites.shannon_pairs=1", "suites.observational_cases=1",
               "suites.von_neumann_cases=1", "suites.povm_cases=1"],
}


@pytest.mark.parametrize("command", sorted(SMALL_RUNS))
def test_traced_run_counts_its_work(tmp_path, command):
    """The work counters read attributes of what the wrapped calls take
    and return (``result.dim``, ``result.times``, ``args[0].dim``); a
    rename there fails the traced run, or leaves its counts at zero."""
    config, *overrides = SMALL_RUNS[command]
    args = [sys.executable, "-c", TRACED_RUN, str(TRACING.parent), command,
            str(TRACING.parents[1] / "configs" / config), "--out", str(tmp_path / "out")]
    for item in overrides:
        args += ["--set", item]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(TRACING.parents[1] / "src"),
                                                       os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(args, env=env, check=True, capture_output=True, text=True)
    metrics = json.loads(done.stdout.splitlines()[-1])
    assert metrics["linalg.levels_diagonalized"] > 0
    assert metrics["harness.trajectory_amplitudes"] > 0
