"""The measured process: one fresh interpreter per CLI run.

    python3 perfbench/child.py RESULT_JSON MODE [CLI ARGS...]

MODE is ``setup`` (import ``qeqlab.cli`` and stop), ``run`` (time
``qeqlab.cli.main`` on the CLI arguments), ``trace`` (the same with
the layer wrappers of ``tracing.py`` installed) or ``alloc`` (the layer
wrappers with ``tracemalloc`` peaks; a ``simulate`` run ends once its
trajectory, the later of its two peak stages, is done). The process imports the
package from the checkout's ``src/``. It records the monotonic clock once
the CLI module is imported, so the parent can subtract its own spawn time,
and writes what it measured to RESULT_JSON.
"""

import json
import resource
import sys
import time
from pathlib import Path

MODES = ("setup", "run", "trace", "alloc")


def main(argv) -> int:
    if len(argv) < 2 or argv[1] not in MODES:
        print(__doc__, file=sys.stderr)
        return 2
    result_path, mode, cli_args = Path(argv[0]), argv[1], argv[2:]
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import qeqlab.cli as cli

    ready = time.monotonic()
    out = {"ready": ready, "module": cli.__file__}
    if mode != "setup":
        tracer = None
        entry = cli.main
        stopped = ()  # catches nothing unless an allocation round may stop early
        if mode in ("trace", "alloc"):
            import tracing

            if mode == "trace":
                tracer = tracing.Tracer()
            else:
                stop = "harness.compute_trajectory" if cli_args[:1] == ["simulate"] else None
                tracer = tracing.Tracer(peaks=True, stop_after=stop)
                stopped = tracing.EnoughMeasured
            tracer.install()
            entry = tracer.wrap("cli.main", cli.main)
        start = time.perf_counter()
        try:
            code = entry(cli_args)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code if isinstance(exc.code, int) else 1
        except stopped:  # the allocation round has measured what it is for
            code = 0
        out["run_s"] = time.perf_counter() - start
        out["exit_code"] = code
        if tracer is not None:
            out["trace"] = tracer.export()
    out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result_path.write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
