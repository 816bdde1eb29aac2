"""The benchmark's traced run (``perfbench/tracing.py``) wraps package
functions at the names their callers look up, from outside the package.
Every name it wraps must exist, or the traced run fails on install."""

import importlib
import importlib.util
from pathlib import Path

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
