"""Command line front end.

`weakinv run --config file.json [--output-dir dir]` executes one scenario
and writes series.csv plus verdict.json into the output directory. Exit
codes: 0 all checks passed, 1 at least one check failed, 2 configuration
error, 3 numerical abort inside the engine, 4 internal error (any other
exception, reported as one line; no verdict.json is written).

`weakinv scenarios` lists the built-in scenarios.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

import numpy as np

from .config import SCENARIOS, ConfigError, load_config
from .errors import WeakInvError
from .scenarios import CSV_HEADER, SCENARIO_SUMMARIES, ScenarioResult, run_scenario

log = logging.getLogger(__name__)


def format_series(columns: dict, out) -> None:
    """Write the standard table to `out`, 512 rows at a time; 17 digits round-trip floats."""
    row = ",".join(["%.17g"] * len(CSV_HEADER)) + "\n"
    out.write(",".join(CSV_HEADER) + "\n")
    for i in range(0, len(columns["t"]), 512):
        chunk = zip(*(columns[k][i:i + 512].tolist() for k in CSV_HEADER))
        out.write("".join(row % r for r in chunk))


def emit_verdict(result: ScenarioResult, path: Path) -> None:
    """Write the check records, plus the runner's diagnostics under `notes`."""
    doc = {
        "scenario": result.scenario,
        "all_pass": result.all_pass,
        "checks": [
            {
                "name": c.name,
                "law": c.law,
                "measured": c.measured,
                "bound_or_target": c.bound_or_target,
                "tolerance": c.tolerance,
                "pass": c.passed,
            }
            for c in result.checks
        ],
        "notes": result.notes,
    }
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _cmd_run(args) -> int:
    try:
        cfg = load_config(args.config)
        # Overflow and invalid-value warnings would print source lines
        # before the one-line abort; the engine's finiteness guards turn
        # those cases into exit 3.
        with np.errstate(all="ignore"):
            result = run_scenario(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except WeakInvError as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        log.debug("internal error", exc_info=True)
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4

    out_dir = Path(args.output_dir if args.output_dir else cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "series.csv", "w") as out:
        format_series(result.columns, out)
    emit_verdict(result, out_dir / "verdict.json")

    for c in result.checks:
        tag = "PASS" if c.passed else "FAIL"
        print(f"[{tag}] {c.name}: measured {c.measured:.6g} "
              f"(target {c.bound_or_target:.6g}, tol {c.tolerance:.6g})")
    print(f"wrote {out_dir / 'series.csv'} and {out_dir / 'verdict.json'}")
    return 0 if result.all_pass else 1


def _cmd_scenarios() -> int:
    for name in SCENARIOS:
        print(f"{name}: {SCENARIO_SUMMARIES[name]}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="weakinv",
        description="Weak-invariant dynamics experiments: run a configured "
                    "scenario or list the built-ins.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute one scenario from a JSON config")
    run_p.add_argument("--config", required=True, help="path to the JSON config")
    run_p.add_argument("--output-dir", default=None,
                       help="where to write series.csv and verdict.json "
                            "(default: the config's output_dir)")

    sub.add_parser("scenarios", help="list built-in scenarios")

    args = parser.parse_args(argv)
    if args.command == "scenarios":
        return _cmd_scenarios()
    return _cmd_run(args)


if __name__ == "__main__":
    sys.exit(main())
