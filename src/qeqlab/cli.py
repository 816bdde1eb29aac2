"""Command-line front end.

Three subcommands, all driven by a JSON config file (schema documented
in the README):

* ``simulate`` -- run one experiment, write the trajectory CSV and the
  report JSON; exits 1 if any inequality is violated;
* ``verify``   -- run the full inequality suite and print a results
  table; exits 1 if any inequality is violated;
* ``sweep``    -- sweep chain lengths, write the per-length summary CSV
  and the exponential-fit JSON.

Exit codes: 0 success, 1 bound violation, 2 config error (the message
names the offending key), 3 dimension cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from itertools import repeat
from pathlib import Path

from . import __version__
from .harness import (
    ConfigError,
    ExperimentConfig,
    SweepConfig,
    _get,
    _str,
    execute_experiment,
    sweep_chain_lengths,
)
from .models import DimensionCapError
from .serialize import canonical_json, config_hash, write_csv
from .verify import VerifyConfig, run_verification

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_CONFIG = 2
EXIT_CAP = 3

def _load_config(path: str, overrides) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(path, "config file not found") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(path, f"invalid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(path, "top level must be a JSON object")
    for item in overrides or ():
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(item, "override must look like key=value")
        try:
            parsed = json.loads(value)
        except json.JSONDecodeError:
            parsed = value
        node = raw
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(key, "override path crosses a non-object")
        node[parts[-1]] = parsed
    return raw


def _write_manifest(outdir: Path, config_path: str, resolved: dict, timings: dict):
    manifest = {
        "config_path": str(config_path),
        "config_hash": config_hash(resolved),
        "artifact_version": __version__,
        "output_dir": str(outdir),
        "timings_seconds": timings,
    }
    (outdir / "manifest.json").write_text(canonical_json(manifest) + "\n")


def _parse_config(args, parse):
    """The parsed config and the output directory, which is created only
    once the config has parsed."""
    raw = _load_config(args.config, args.set)
    output_dir = _get(raw, "output_dir", _str, "out")
    raw.pop("output_dir", None)
    config = parse(raw)
    outdir = Path(args.out or output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    return config, outdir


def cmd_simulate(args) -> int:
    config, outdir = _parse_config(args, ExperimentConfig.from_dict)
    t0 = time.monotonic()
    report, system, trajectory = execute_experiment(config)
    t_run = time.monotonic() - t0

    label = config.label
    t1 = time.monotonic()
    trajectory_csv(outdir / f"trajectory_{label}.csv", system, trajectory)
    (outdir / f"report_{label}.json").write_text(canonical_json(report) + "\n")
    t_write = time.monotonic() - t1
    _write_manifest(outdir, args.config, config.resolved_dict(),
                    {"run": t_run, "write": t_write})
    print(f"simulate: wrote trajectory_{label}.csv and report_{label}.json to {outdir}")
    violated = [_context_name(b["name"], b["parameters"])
                for b in report["bounds"] if b["status"] == "violated"]
    if violated:
        print(f"{len(violated)} violated bound(s): {', '.join(violated)}")
    return EXIT_VIOLATION if violated else EXIT_OK


def trajectory_csv(path, system, trajectory):
    """Emit the plot-data CSV.

    Columns are a public contract: time, the expectation value, the
    three entropies, and the equilibrium reference value of each.
    """
    eq = system.equilibrium
    header = ["t", "expectation", "shannon", "observational", "boltzmann",
              "expectation_eq", "shannon_eq", "observational_eq", "boltzmann_eq"]
    expectation = repeat(None) if trajectory.expectation is None else trajectory.expectation
    rows = zip(trajectory.times, expectation, trajectory.shannon, trajectory.observational,
               trajectory.boltzmann)
    write_csv(path, header, rows, (eq.expectation, eq.shannon, eq.observational, eq.boltzmann))


def cmd_verify(args) -> int:
    config, outdir = _parse_config(args, VerifyConfig.from_dict)
    t0 = time.monotonic()
    reports = run_verification(config)
    t_run = time.monotonic() - t0

    widths = (46, 13, 13, 13, 11)
    print(f"{'inequality':<{widths[0]}}{'lhs':>{widths[1]}}{'rhs':>{widths[2]}}"
          f"{'margin':>{widths[3]}}{'status':>{widths[4]}}")
    violated = []
    for rep in reports:
        print(f"{_context_name(rep.name, rep.parameters):<{widths[0]}}{rep.lhs:>{widths[1]}.4e}"
              f"{rep.rhs:>{widths[2]}.4e}{rep.margin:>{widths[3]}.4e}{rep.status:>{widths[4]}}")
        if not rep.holds:
            violated.append(rep)
    (outdir / "verify_report.json").write_text(
        canonical_json([rep.to_json_dict() for rep in reports]) + "\n")
    _write_manifest(outdir, args.config, {"verify": True, **config.resolved_dict()},
                    {"run": t_run})
    if violated:
        print(f"{len(violated)} violated bound(s):")
        for rep in violated:
            print(f"  {rep.name}: lhs={rep.lhs!r} rhs={rep.rhs!r} parameters={rep.parameters!r}")
        return EXIT_VIOLATION
    print(f"all {len(reports)} checks hold")
    return EXIT_OK


def _context_name(name: str, parameters: dict) -> str:
    system = parameters.get("system")
    T = parameters.get("T")
    if system:
        name += f"[{system}"
        name += f", T={T:g}]" if T is not None else "]"
    elif T is not None:
        name += f"[T={T:g}]"
    return name


def cmd_sweep(args) -> int:
    config, outdir = _parse_config(args, SweepConfig.from_dict)
    t0 = time.monotonic()
    sweep = sweep_chain_lengths(config)
    t_run = time.monotonic() - t0

    header = ["sites", "outcomes", "d_eff", "delta", "late_abs_dev",
              "dim", "delta_alt_prefactor", "nu"]
    rows = [[row[key] for key in header] for row in sweep["rows"]]
    write_csv(outdir / "sweep_summary.csv", header, rows)
    fits = sweep["fits"]
    (outdir / "sweep_fits.json").write_text(canonical_json(fits) + "\n")
    _write_manifest(outdir, args.config, {"sweep": True, **config.resolved_dict()},
                    {"run": t_run})
    print(f"sweep: wrote sweep_summary.csv and sweep_fits.json to {outdir}")
    print(f"delta fit: a={fits['delta_fit']['a']:.4g} b={fits['delta_fit']['b']:.4g}; "
          f"late-time fit: a={fits['late_fit']['a']:.4g} b={fits['late_fit']['b']:.4g}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qeqlab",
        description="Exact-diagonalization laboratory for observable-entropy "
                    "equilibration bounds.",
    )
    parser.add_argument("--version", action="version", version=f"qeqlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, doc in (
        ("simulate", cmd_simulate, "run one experiment and write trajectory/report files"),
        ("verify", cmd_verify, "run the full inequality suite"),
        ("sweep", cmd_sweep, "sweep chain lengths and fit the scaling curves"),
    ):
        p = sub.add_parser(name, help=doc)
        p.add_argument("config", help="path to the JSON config file")
        p.add_argument("--out", help="output directory (overrides config output_dir)")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config key (dotted path, JSON value)")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DimensionCapError as exc:
        print(f"dimension cap: {exc}", file=sys.stderr)
        return EXIT_CAP


if __name__ == "__main__":
    sys.exit(main())
