"""Layer spans for the traced run, recorded from outside the package.

Nothing under ``src/`` knows about tracing. :class:`Tracer` replaces each
public layer function at the names its callers resolve at call time:
``harness`` binds ``decompose_hermitian`` by name, ``verify`` binds
``prepare_system`` by name, ``cli`` binds ``execute_experiment`` by name,
and so on. Patching only the defining module would miss those calls.

A span is ``[name, start, end, parent, work, peak_bytes]``; spans stay in
a list until the run ends and are exported once. A layer's self time is
its span's duration minus the durations of its direct child spans.

Timing and allocation are measured in separate rounds. In a timing round
``tracemalloc`` stays off. In an allocation round it runs inside the two
stages that report a peak, and nothing of that round's timing is used:
``tracemalloc`` slows every allocation it traces, and the POVM suite
enters ``compute_trajectory`` about a thousand times.
"""

from __future__ import annotations

import functools
import importlib
import time
import tracemalloc
from collections import defaultdict

MIB = 1024.0 * 1024.0

# Spans time the wrapped call; ``work`` and ``peak`` name what else the
# span records. Several call sites share one span name.
CALL_SITES = (
    # (module, attribute, span name, work, peak)
    ("harness", "tilted_ising_chain", "models.tilted_ising_chain", None, False),
    ("harness", "bulk_magnetization", "models.bulk_magnetization", None, False),
    ("harness", "all_down_state", "models.all_down_state", None, False),
    ("verify", "tilted_ising_chain", "models.tilted_ising_chain", None, False),
    ("verify", "bulk_magnetization", "models.bulk_magnetization", None, False),
    ("verify", "all_down_state", "models.all_down_state", None, False),
    ("harness", "decompose_hermitian", "linalg.decompose_hermitian", "levels", False),
    ("measurement", "decompose_hermitian", "linalg.decompose_hermitian", "levels", False),
    ("harness", "pvm_from_observable", "measurement.pvm_from_observable", None, False),
    ("verify", "pvm_from_observable", "measurement.pvm_from_observable", None, False),
    ("harness", "gap_statistics", "dynamics.gap_statistics", None, True),
    ("harness", "effective_dimension", "dynamics.effective_dimension", None, False),
    ("harness", "time_average_scalar", "dynamics.time_average_scalar", None, False),
    ("bounds", "time_average_scalar", "dynamics.time_average_scalar", None, False),
    ("bounds", "optimal_epsilon", "bounds.optimal_epsilon", None, False),
    ("bounds", "tail_bound_check", "bounds.tail_bound_check", None, False),
    ("harness", "prepare_system", "harness.prepare_system", None, False),
    ("verify", "prepare_system", "harness.prepare_system", None, False),
    ("harness", "compute_trajectory", "harness.compute_trajectory", "amplitudes", True),
    ("verify", "compute_trajectory", "harness.compute_trajectory", "amplitudes", True),
    ("harness", "sample_deviations", "harness.sample_deviations", None, False),
    ("verify", "sample_deviations", "harness.sample_deviations", None, False),
    ("harness", "evaluate_bounds", "harness.evaluate_bounds", None, False),
    ("verify", "evaluate_bounds", "harness.evaluate_bounds", None, False),
    ("cli", "execute_experiment", "harness.execute_experiment", None, False),
    ("cli", "run_verification", "verify.run_verification", None, False),
    ("verify", "shannon_continuity_suite", "verify.shannon_continuity_suite", None, False),
    ("verify", "observational_continuity_suite", "verify.observational_continuity_suite", None, False),
    ("verify", "von_neumann_continuity_suite", "verify.von_neumann_continuity_suite", None, False),
    ("verify", "povm_equilibration_suite", "verify.povm_equilibration_suite", None, False),
    ("verify", "time_averaged_state_suite", "verify.time_averaged_state_suite", None, False),
    # the CSV writer lives in cli.py but is the serialization layer's work
    ("cli", "trajectory_csv", "serialize.trajectory_csv", None, False),
    ("cli", "canonical_json", "serialize.canonical_json", None, False),
    ("cli", "_write_manifest", "serialize.write_manifest", None, False),
)

# Calls counted without a span: one per ε-grid point per T, tens of
# thousands on verify_default.
COUNTED_METHODS = (("dynamics", "GapStatistics", "window_count", "dynamics.window_count_calls"),)

WORK = {
    "levels": lambda args, result: result.dim,
    "amplitudes": lambda args, result: len(result.times) * args[0].dim,
}

# The top-level layers: every span belongs to one, so their self times
# add up to the root span, ``cli.main``. That sum is an identity, not a
# coverage check: work in a function left unwrapped counts as the self
# time of the wrapped layer that called it.
MODULES = ("cli", "harness", "verify", "models", "linalg", "measurement",
           "dynamics", "bounds", "serialize")

CONTINUITY_SUITES = ("verify.shannon_continuity_suite", "verify.observational_continuity_suite",
                     "verify.von_neumann_continuity_suite")

# Per-layer metrics of the traced run, with units, in report order.
PER_LAYER = {
    "models.build_s": "s",
    "linalg.decompose_hermitian_s": "s",
    "linalg.decompose_hermitian_calls": "count",
    "linalg.levels_diagonalized": "count",
    "measurement.pvm_from_observable_s": "s",
    "dynamics.gap_statistics_s": "s",
    "dynamics.gap_statistics_peak_alloc_mib": "MiB",
    "dynamics.window_count_calls": "count",
    "dynamics.time_average_scalar_s": "s",
    "bounds.optimal_epsilon_s": "s",
    "bounds.tail_bound_check_s": "s",
    "harness.prepare_system_self_s": "s",
    "harness.compute_trajectory_s": "s",
    "harness.trajectory_amplitudes": "count",
    "harness.compute_trajectory_peak_alloc_mib": "MiB",
    "harness.sample_deviations_s": "s",
    "harness.evaluate_bounds_self_s": "s",
    "verify.povm_equilibration_suite_s": "s",
    "verify.continuity_suites_s": "s",
    "verify.time_averaged_state_suite_s": "s",
    "verify.run_verification_self_s": "s",
    "serialize.write_s": "s",
    "serialize.bytes_written": "bytes",
    **{f"{module}.self_s": "s" for module in MODULES},
    "trace.overhead_s": "s",
}


class EnoughMeasured(BaseException):
    """Ends an allocation round once the stage named by ``stop_after`` has
    returned; a ``BaseException`` so that no handler in the CLI catches it."""


class Tracer:
    """Installs the layer wrappers and holds the spans they record.

    With ``peaks`` true (an allocation round) the stages that report a peak
    run under ``tracemalloc``, and the first return of the span named
    ``stop_after`` ends the round.
    """

    def __init__(self, peaks=False, stop_after=None):
        self.spans = []
        self.counters = defaultdict(int)
        self._stack = []
        self._peaks = peaks
        self._stop_after = stop_after

    def wrap(self, name, fn, work=None, peak=False):
        spans, stack = self.spans, self._stack
        peak = peak and self._peaks
        stop = name == self._stop_after

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, None, None]
            stack.append(len(spans))
            spans.append(record)
            own_peak = peak and not tracemalloc.is_tracing()
            if own_peak:
                tracemalloc.start()
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                if own_peak:
                    record[5] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                stack.pop()
            if work is not None:
                record[4] = WORK[work](args, result)
            if stop:
                raise EnoughMeasured(name)
            return result

        return traced

    def count(self, counter, fn):
        counters = self.counters

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counters[counter] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self):
        wrapped = {}
        for module_name, attribute, span, work, peak in CALL_SITES:
            module = importlib.import_module(f"qeqlab.{module_name}")
            original = getattr(module, attribute)
            if id(original) not in wrapped:
                wrapped[id(original)] = self.wrap(span, original, work, peak)
            setattr(module, attribute, wrapped[id(original)])
        for module_name, cls_name, method, counter in COUNTED_METHODS:
            cls = getattr(importlib.import_module(f"qeqlab.{module_name}"), cls_name)
            setattr(cls, method, self.count(counter, getattr(cls, method)))

    def export(self) -> dict:
        return {"spans": self.spans, "counters": dict(self.counters)}


def peak_allocations(trace: dict) -> dict:
    """Largest ``tracemalloc`` peak per span name, in bytes, of an allocation round."""
    peak = defaultdict(int)
    for name, _, _, _, _, peak_bytes in trace["spans"]:
        peak[name] = max(peak[name], peak_bytes or 0)
    return peak


def layer_metrics(trace: dict, peak: dict, run_s: float, untraced_run_s: float,
                  bytes_written: int) -> dict:
    """Per-layer metrics (keyed as PER_LAYER) of one timing round ``trace``,
    with the peaks of an allocation round (``peak_allocations``)."""
    spans = trace["spans"]
    child_s = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
    total = defaultdict(float)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    work = defaultdict(int)
    module_self = dict.fromkeys(MODULES, 0.0)
    serialize_s = 0.0
    for k, (name, start, end, parent, units, _) in enumerate(spans):
        own = end - start - child_s[k]
        total[name] += end - start
        self_s[name] += own
        calls[name] += 1
        work[name] += units or 0
        module_self[name.split(".")[0]] += own
        if name.startswith("serialize.") and not _inside(spans, parent, "serialize."):
            serialize_s += end - start

    return {
        "models.build_s": sum(v for n, v in total.items() if n.startswith("models.")),
        "linalg.decompose_hermitian_s": total["linalg.decompose_hermitian"],
        "linalg.decompose_hermitian_calls": calls["linalg.decompose_hermitian"],
        "linalg.levels_diagonalized": work["linalg.decompose_hermitian"],
        "measurement.pvm_from_observable_s": total["measurement.pvm_from_observable"],
        "dynamics.gap_statistics_s": total["dynamics.gap_statistics"],
        "dynamics.gap_statistics_peak_alloc_mib": peak.get("dynamics.gap_statistics", 0) / MIB,
        "dynamics.window_count_calls": trace["counters"].get("dynamics.window_count_calls", 0),
        "dynamics.time_average_scalar_s": total["dynamics.time_average_scalar"],
        "bounds.optimal_epsilon_s": total["bounds.optimal_epsilon"],
        "bounds.tail_bound_check_s": total["bounds.tail_bound_check"],
        "harness.prepare_system_self_s": self_s["harness.prepare_system"],
        "harness.compute_trajectory_s": total["harness.compute_trajectory"],
        "harness.trajectory_amplitudes": work["harness.compute_trajectory"],
        "harness.compute_trajectory_peak_alloc_mib": peak.get("harness.compute_trajectory", 0) / MIB,
        "harness.sample_deviations_s": total["harness.sample_deviations"],
        "harness.evaluate_bounds_self_s": self_s["harness.evaluate_bounds"],
        "verify.povm_equilibration_suite_s": total["verify.povm_equilibration_suite"],
        "verify.continuity_suites_s": sum(total[n] for n in CONTINUITY_SUITES),
        "verify.time_averaged_state_suite_s": total["verify.time_averaged_state_suite"],
        "verify.run_verification_self_s": self_s["verify.run_verification"],
        "serialize.write_s": serialize_s,
        "serialize.bytes_written": bytes_written,
        **{f"{module}.self_s": module_self[module] for module in MODULES},
        "trace.overhead_s": run_s - untraced_run_s,
    }


def _inside(spans, index: int, prefix: str) -> bool:
    while index >= 0:
        if spans[index][0].startswith(prefix):
            return True
        index = spans[index][3]
    return False
