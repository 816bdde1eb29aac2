import ast
import dataclasses
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qeqlab
from qeqlab import harness, verify

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize("name", sorted(m.name for m in pkgutil.iter_modules(qeqlab.__path__)))
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"qeqlab.{name}")
    missing = [item for item in getattr(module, "__all__", ()) if not hasattr(module, item)]
    assert missing == []


def _imports(path: Path) -> set:
    """Every module a source file imports, relative ones with their dots."""
    imported = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    return imported


def test_entropy_module_imports_only_math_and_numpy():
    assert _imports(Path(qeqlab.entropy.__file__)) == {"__future__", "math", "numpy"}


def test_no_package_module_imports_scipy():
    package = Path(qeqlab.__file__).parent
    users = [path.name for path in sorted(package.glob("*.py"))
             if any(m.split(".")[0] == "scipy" for m in _imports(path))]
    assert users == []


def test_scipy_is_no_run_time_dependency():
    tomllib = pytest.importorskip("tomllib")
    with open(README.parent / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]

    def names(requirements):
        return {re.split(r"[\s<>=!~\[;]", item, maxsplit=1)[0].lower() for item in requirements}

    assert names(project["dependencies"]) == {"numpy"}
    # the tests still compare the quantile with SciPy's
    assert "scipy" in names(project["optional-dependencies"]["test"])


def test_cli_import_loads_no_executor_or_logging():
    # simulate imports its thread pool when it runs: concurrent.futures
    # loads logging, and every subcommand's start-up would pay for both
    src = str(Path(qeqlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = ("import sys, qeqlab.cli; "
             "print(sorted(m for m in ('concurrent.futures', 'logging') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_readme_quick_tour_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)
    assert len(blocks) >= 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    spin = namespace["spin"]
    assert spin.r == 2 and spin.d_eff == pytest.approx(2.0)
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 + 4 * 2  # d_eff, equilibrium entropy, 4 reports per window
    assert all(line.endswith("holds") for line in lines[2:])


def _dotted_keys(mapping, prefix=""):
    """Dotted keys of a nested config."""
    keys = set()
    for key, value in mapping.items():
        if isinstance(value, dict):
            keys |= _dotted_keys(value, f"{prefix}{key}.")
        else:
            keys.add(prefix + key)
    return keys


def _config_keys(config) -> set:
    """The dotted keys of a config dataclass, one per field."""
    return {f.metadata["key"] for f in dataclasses.fields(config)}


def test_readme_schemas_match_the_key_tables():
    blocks = re.findall(r"## Config schema \((\w+)\)\n.*?```jsonc\n(.*?)```", README.read_text(),
                        flags=re.DOTALL)
    schema = {name: json.loads(re.sub(r"//.*", "", block)) for name, block in blocks}
    assert sorted(schema) == ["simulate", "sweep", "verify"]
    for raw in schema.values():
        assert raw.pop("output_dir") == "out"

    simulate = schema["simulate"]
    # the block lists the model sub-keys of every kind; each kind parses
    # with the sub-keys it reads
    for kind, keys in harness._MODEL_KEYS.items():
        model = {key: value for key, value in simulate["model"].items() if key in keys}
        harness.ExperimentConfig.from_dict({**simulate, "model": {**model, "kind": kind}})
    assert _dotted_keys(simulate) == _config_keys(harness.ExperimentConfig)

    # the verify and sweep blocks show the defaults
    assert _dotted_keys(schema["verify"]) == _config_keys(verify.VerifyConfig)
    assert verify.VerifyConfig.from_dict(schema["verify"]) == verify.VerifyConfig()
    assert _dotted_keys(schema["sweep"]) == _config_keys(harness.SweepConfig)
    assert harness.SweepConfig.from_dict(schema["sweep"]) == harness.SweepConfig()
