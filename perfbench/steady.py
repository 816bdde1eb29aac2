"""Steadiness check: runs the benchmark in two sets on the same code and
compares them metric by metric against the bounds in BENCHMARK.json.

    python3 perfbench/steady.py                      # 2 sets x 10 seeds, every workload
    python3 perfbench/steady.py --runs 5 --sets 1 --workloads verify_default

Set ``s`` uses seeds ``FIRST_SEED + s * runs + i`` (with 10 runs:
1-10, then 11-20). Within a set the
workloads are interleaved (one run of each per seed), so drift on the
machine reaches every workload alike; one warm-up run of the first
workload is made first and discarded. For each workload and end-to-end
metric it prints every set's median and quartiles, the spread (distance
between the quartiles as a share of the median), and whether the last
set's median is within the bound of the first set's. It is not steady
if any run reports ``correct`` false, or if the share of failed
operations differs between runs. All run results go to
``perfbench/runs/steady.json``.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FIRST_SEED = 1
OUT = HERE / "runs" / "steady.json"


def run_once(command: list, workload: str, seed: int, seconds: int) -> dict:
    args = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "0"]
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["log"] = [line for line in lines[:-1] if line.startswith(("round", "setup probes"))]
    return result


def summary(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def _exit_on_term(signum, frame):
    # SystemExit unwinds through subprocess.run, which kills and reaps its child
    sys.exit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _exit_on_term)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="seeds per set")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    seconds = bench["run_seconds"]
    command = [sys.executable if part == "python3" else part for part in bench["command"]]

    run_once(command, workloads[0], 0, seconds)  # warm-up, discarded
    results = {w: [[] for _ in range(args.sets)] for w in workloads}
    for s in range(args.sets):
        for i in range(args.runs):
            seed = FIRST_SEED + s * args.runs + i
            for w in workloads:
                result = run_once(command, w, seed, seconds)
                result["seed"] = seed
                results[w][s].append(result)
                print(f"set {s} seed {seed:>3} {w:<16} " + " ".join(
                    f"{k}={v['value']:.4f}" for k, v in result["metrics"].items()), flush=True)
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(results, indent=1) + "\n")

    steady = True
    print(f"\n{'workload':<16} {'metric':<13} {'set':>3} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'spread':>7} {'bound':>6}  verdict")
    for w in workloads:
        shares = {r["failed"] / r["attempted"] for runs in results[w] for r in runs}
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sets = [summary([r["metrics"][name]["value"] for r in runs]) for runs in results[w]]
            for s, st in enumerate(sets):
                ok = name == "setup_s" or st["spread"] <= bound / 3
                steady &= ok
                print(f"{w:<16} {name:<13} {s:>3} {st['median']:>10.4f} {st['q1']:>10.4f} "
                      f"{st['q3']:>10.4f} {st['spread']:>7.2%} {bound:>6.0%}  "
                      f"{'spread ok' if ok else 'SPREAD ABOVE BOUND/3'}")
            if len(sets) > 1:
                change = sets[-1]["median"] / sets[0]["median"] - 1
                agree = abs(change) <= bound
                steady &= agree
                print(f"{w:<16} {name:<13} {'':>3} medians differ by {change:+.2%}: "
                      f"{'agree' if agree else 'DISAGREE'} within {bound:.0%}")
        wrong = [r["seed"] for runs in results[w] for r in runs if not r["correct"]]
        print(f"{w:<16} failed share per run: {sorted(shares)}; "
              f"seeds with a wrong output: {wrong or 'none'}")
        steady &= len(shares) == 1 and not wrong
    print(f"\n{'steady' if steady else 'NOT steady'}; runs written to {OUT}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
