import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import qeqlab

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize("name", sorted(m.name for m in pkgutil.iter_modules(qeqlab.__path__)))
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"qeqlab.{name}")
    missing = [item for item in getattr(module, "__all__", ()) if not hasattr(module, item)]
    assert missing == []


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

