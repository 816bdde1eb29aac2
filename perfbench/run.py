"""Benchmark entry point: times the ``qeqlab`` CLI end to end, or traces it
layer by layer, on one workload.

    python3 perfbench/run.py --workload simulate_n11 --seed 1 --seconds 45 --trace 0

Every CLI run happens in a fresh process (``child.py``) that imports the
package from the checkout's ``src/``, so each run pays its own start-up
and has its own peak RSS. One run of this script:

1. writes the workload's config, with the seed in it, and builds the
   independent references the output checks compare against;
2. spawns one discarded warm-up process, then ``SETUP_PROBES`` processes
   that only import ``qeqlab.cli`` (``setup_s`` is their median);
3. runs whole rounds of the subcommand, at least one and then as many
   more as are expected to fit in ``--seconds``, checking every round's
   artifacts outside the measured process.

With ``--trace 1`` the first round runs untraced, the second is an
allocation round (``tracemalloc`` peaks only; it is neither timed nor
checked, and a ``simulate`` one stops after its trajectory), and the
following rounds run with the timing wrappers of ``tracing.py``; the
difference in run time between those and the untraced round is reported
as the tracing overhead. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and the
metrics. Run outputs go to ``perfbench/runs/<workload>/``.
"""

import os

# One BLAS thread for the measured processes (and the reference checks):
# on a 2-core box two threads made N=10 runs spread twice as far.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from checks import checks_for, run_checks  # noqa: E402
from tracing import PER_LAYER, layer_metrics, peak_allocations  # noqa: E402
from workloads import WORKLOADS, subcommand, write_config  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 4
CHILD_TIMEOUT_S = 160

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (no package, a probe crashed)."""


def spawn(mode: str, result_path: Path, cli_args: list, log_path: Path):
    """Run one child process; its measurements, or None if it crashed."""
    result_path.unlink(missing_ok=True)
    command = [sys.executable, str(HERE / "child.py"), str(result_path), mode, *cli_args]
    with open(log_path, "ab") as log:
        spawned = time.monotonic()
        try:
            proc = subprocess.run(command, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT,
                                  timeout=CHILD_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            return None
    if proc.returncode != 0 or not result_path.is_file():
        return None
    result = json.loads(result_path.read_text())
    result["setup_s"] = result["ready"] - spawned
    return result


def probe_setup(rundir: Path, name: str) -> float:
    result = spawn("setup", rundir / f"{name}.json", [], rundir / "child.log")
    if result is None:
        raise BenchmarkError(f"the setup probe failed; see {rundir / 'child.log'}")
    module = Path(result["module"]).resolve()
    if ROOT / "src" not in module.parents:
        raise BenchmarkError(f"qeqlab was imported from {module}, not from {ROOT / 'src'}")
    return result["setup_s"]


def directory_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


class Rounds:
    """Runs rounds of one workload and tallies their checked operations."""

    def __init__(self, workload: str, seed: int, rundir: Path):
        self.rundir = rundir
        config_path = rundir / "config.json"
        config = write_config(workload, seed, config_path)
        self.checks, self.label = checks_for(workload, config, seed)
        self.command = [subcommand(workload), str(config_path)]
        self.attempted = self.failed = 0
        self.wrong = []
        self.results = []

    def run(self, mode: str):
        """One round: the CLI run plus every check of its artifacts."""
        k = self.attempted // (1 + len(self.checks))
        outdir = self.rundir / f"round{k}"
        result = spawn(mode, self.rundir / f"round{k}.json", [*self.command, "--out", str(outdir)],
                       self.rundir / "child.log")
        self.attempted += 1 + len(self.checks)
        if result is None or result["exit_code"] != 0:
            self.failed += 1 + len(self.checks)
            return None
        self.wrong += [f"round{k}: {name}" for name in run_checks(self.checks, outdir, self.label)]
        result["bytes_written"] = directory_bytes(outdir)
        print(f"round {k} ({mode}): run_s {result['run_s']:.4f} setup_s {result['setup_s']:.4f} "
              f"peak_rss_mib {result['peak_rss_mib']:.1f}", flush=True)
        self.results.append(result)
        return result


def allocation_round(rounds: Rounds) -> dict:
    """The trace of one allocation round; it counts as no operation."""
    result = spawn("alloc", rounds.rundir / "alloc.json",
                   [*rounds.command, "--out", str(rounds.rundir / "alloc")],
                   rounds.rundir / "child.log")
    if result is None or result["exit_code"] != 0:
        raise BenchmarkError(f"the allocation round failed; see {rounds.rundir / 'child.log'}")
    return result["trace"]


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    rundir = HERE / "runs" / workload
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    rounds = Rounds(workload, seed, rundir)
    probe_setup(rundir, "warmup")
    setups = [] if trace else [probe_setup(rundir, f"setup{k}") for k in range(SETUP_PROBES)]
    if setups:
        print("setup probes: " + " ".join(f"{s:.4f}" for s in setups), flush=True)
    start = time.monotonic()
    untraced = rounds.run("run") if trace else None
    peak = peak_allocations(allocation_round(rounds)) if trace else None
    layer_rows = []
    while True:
        began = time.monotonic()
        result = rounds.run("trace" if trace else "run")
        if trace and result is not None and untraced is not None:
            layer_rows.append(layer_metrics(result["trace"], peak, result["run_s"],
                                            untraced["run_s"], result["bytes_written"]))
        now = time.monotonic()
        if now - start + (now - began) > seconds:  # the next round would not fit
            break
    if not rounds.results or (trace and not layer_rows):
        raise BenchmarkError(f"no round of {workload} completed; see {rundir / 'child.log'}")
    if trace:
        values = {name: [row[name] for row in layer_rows] for name in PER_LAYER}
        units = PER_LAYER
    else:
        values = {
            "run_s": [r["run_s"] for r in rounds.results],
            "setup_s": setups,
            "peak_rss_mib": [r["peak_rss_mib"] for r in rounds.results],
        }
        units = END_TO_END
    for line in rounds.wrong:
        print(f"check failed: {line}", file=sys.stderr)
    return {
        "correct": not rounds.wrong,
        "attempted": rounds.attempted,
        "failed": rounds.failed,
        "metrics": {name: {"value": statistics.median(v), "unit": units[name]}
                    for name, v in values.items()},
    }


def _exit_on_term(signum, frame):
    # SystemExit unwinds through subprocess.run, which kills and reaps its child
    sys.exit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _exit_on_term)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qeqlab" / "cli.py").is_file():
        print(f"error: no qeqlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, metric in result["metrics"].items():
        print(f"{args.workload:<16} {name:<42} {metric['value']:>14.6g} {metric['unit']}")
    print(f"{args.workload:<16} attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
