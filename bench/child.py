"""One `weakinv run` in this process, timed from the outside in.

    python3 bench/child.py MODE REPORT [weakinv arguments...]

MODE is one of
  plain  time stamps at entry to and exit from run_scenario, nothing else;
  probe  stop at entry to run_scenario (a set-up time sample);
  spans  plain plus the declared spans of spans.py;
  alloc  plain plus the tracemalloc peak inside each integrate call;
  facts  record the library and machine facts.

The time stamps come from time.monotonic(), the clock the parent reads
when it spawns this process. REPORT receives a JSON object with the
time stamps, the exit code and, in the traced modes, the span
statistics. The process exits with the CLI's exit code.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import spans


class _StopAtEntry(BaseException):
    """Raised by the probe at run_scenario entry; passes the CLI's handlers."""


def _facts() -> dict:
    import numpy
    import scipy

    import weakinv.scenarios

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    workers = getattr(weakinv.scenarios, "_fuzz_worker_count", None)
    return {
        "weakinv_file": weakinv.__file__,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "channel_fuzz_workers": workers() if workers else None,
    }


def main(argv: list[str]) -> int:
    mode, report_path, cli_args = argv[0], Path(argv[1]), argv[2:]
    report: dict = {"mode": mode}
    start = time.perf_counter()
    import weakinv.cli
    report["import_s"] = time.perf_counter() - start

    if mode == "facts":
        report["facts"] = _facts()
        report_path.write_text(json.dumps(report))
        return 0

    tracer = spans.Tracer()
    if mode == "spans":
        spans.install_spans(tracer)
    elif mode == "alloc":
        spans.install_alloc_probe(tracer)
    elif mode not in ("plain", "probe"):
        raise SystemExit(f"unknown mode {mode!r}")

    run_scenario = weakinv.cli.run_scenario

    def stamped(cfg):
        report["enter"] = time.monotonic()
        if mode == "probe":
            raise _StopAtEntry
        try:
            return run_scenario(cfg)
        finally:
            report["exit"] = time.monotonic()

    weakinv.cli.run_scenario = stamped
    try:
        report["rc"] = weakinv.cli.main(cli_args)
    except _StopAtEntry:
        report["rc"] = 0
    report["spans"] = tracer.stats()
    report_path.write_text(json.dumps(report))
    return report["rc"]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
