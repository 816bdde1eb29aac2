"""The reference record: the reported numbers of the four shipped configs.

``tests/reference_record.json`` holds, for ``simulate_chain``,
``simulate_oracle`` and ``verify_default``, each bound report's name,
status, lhs and rhs, with the window count, epsilon, d_eff, minimum gap
and quadrature remainder where the report has them (and each simulate
run's oracle check and the step and sample count of its trajectory), and
for ``sweep_lengths`` the sweep rows and fits.
``test_reference_record.py`` recomputes the record in-process and
compares it field by field. A change that moves a reported number on
purpose regenerates the record, with one BLAS thread, by running

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/reference_record.py

from the repository root, and lists the moved fields in CHANGES.md.
"""

import json
import math
import sys
from pathlib import Path

from qeqlab.harness import ExperimentConfig, SweepConfig, execute_experiment, sweep_chain_lengths
from qeqlab.verify import VerifyConfig, run_verification

ROOT = Path(__file__).resolve().parents[1]
RECORD = ROOT / "tests" / "reference_record.json"
# the report fields the record keeps: top-level keys, then parameters
_REPORT_KEYS = ("name", "status", "lhs", "rhs")
_PARAMETER_KEYS = ("window_count", "eps", "d_eff", "min_gap", "quadrature_remainder")
# the trajectory_summary fields a simulate run keeps
_TRAJECTORY_KEYS = ("dt", "samples")
# float tolerances; integers, strings and statuses compare exactly
RTOL = 1e-9
ATOL = 1e-12


def shipped_config(name: str) -> dict:
    """The raw shipped config ``configs/<name>.json``, without its output
    directory (which the CLI reads, not the config)."""
    raw = json.loads((ROOT / "configs" / f"{name}.json").read_text())
    raw.pop("output_dir", None)
    return raw


def _bound_fields(report: dict) -> dict:
    parameters = report["parameters"]
    return {**{key: report[key] for key in _REPORT_KEYS},
            **{key: parameters[key] for key in _PARAMETER_KEYS if key in parameters}}


def compute_record(sweep: dict | None = None) -> dict:
    """The record, recomputed. ``sweep`` is the result of the
    ``sweep_lengths`` config when the caller already has it."""
    record = {}
    for name in ("simulate_chain", "simulate_oracle"):
        report = execute_experiment(ExperimentConfig.from_dict(shipped_config(name)))[0]
        record[name] = {"bounds": [_bound_fields(b) for b in report["bounds"]], "oracle": report["oracle"],
                        "trajectory": {key: report["trajectory_summary"][key] for key in _TRAJECTORY_KEYS}}
    reports = run_verification(VerifyConfig.from_dict(shipped_config("verify_default")))
    record["verify_default"] = {"bounds": [_bound_fields(rep.to_json_dict()) for rep in reports]}
    if sweep is None:
        sweep = sweep_chain_lengths(SweepConfig.from_dict(shipped_config("sweep_lengths")))
    record["sweep_lengths"] = {"rows": sweep["rows"], "fits": sweep["fits"]}
    # through JSON, so that tuples and lists compare alike
    return json.loads(json.dumps(record))


def moved_fields(old, new, path: str = "") -> list:
    """Every field of ``new`` that differs from ``old``, as
    ``(path, old, new)``: a float beyond ``RTOL``/``ATOL``, any other value
    of another type or value, a key that only one side has, and a list of
    another length."""
    if isinstance(old, dict) and isinstance(new, dict):
        moved = []
        for key in sorted(old.keys() | new.keys()):
            sub = f"{path}.{key}" if path else key
            moved += (moved_fields(old[key], new[key], sub) if key in old and key in new
                      else [(sub, old.get(key), new.get(key))])
        return moved
    if isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            return [(f"{path}.length", len(old), len(new))]
        moved = []
        for i, (a, b) in enumerate(zip(old, new)):
            label = a.get("name") if isinstance(a, dict) else None
            moved += moved_fields(a, b, f"{path}[{i}{':' + label if label else ''}]")
        return moved
    if isinstance(old, float) and isinstance(new, float):
        return [] if math.isclose(old, new, rel_tol=RTOL, abs_tol=ATOL) else [(path, old, new)]
    return [] if type(old) is type(new) and old == new else [(path, old, new)]


def main() -> int:
    RECORD.write_text(json.dumps(compute_record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {RECORD.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
