"""Outside-in benchmark of `weakinv run`.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree (the library is imported from its
`src/`, nothing is installed). Each sample is one `weakinv run` in a
fresh process, started only after the previous one has exited: a closed
loop with a single client. Samples are taken for S seconds, and at least
MIN_RUNS full runs are made whatever S is.

--trace 0 reports the end-to-end metrics: wall_s (spawn to exit),
setup_s (spawn to run_scenario entry), solve_s (run_scenario) and
peak_rss_mb (peak resident set of the run process), each the median of
the samples. SETUP_PROBES more processes per invocation stop at
run_scenario entry to add setup_s samples.

--trace 1 alternates untraced runs with runs whose library functions are
wrapped in the spans of spans.py, adds one tracemalloc run where the
workload integrates, and reports the per-layer metrics.

Every full run passes the correctness gate: exit code 0, the reference
check names and pass/fail, series.csv within SERIES_RTOL of the
reference (SERIES_ATOL for round-off-level entries), and series.csv and
verdict.json byte-identical to the first run of the invocation. The
channel fuzz output depends on the seed, so its series is compared only
at REFERENCE_SEED.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.

The run processes hold every BLAS library to one thread and the channel
fuzz pool to one worker (WEAKINV_THREADS), so that both sides of a
comparison use the same settings; see README.md for why one worker.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = BENCH / "reference"

REFERENCE_SEED = 1234
MIN_RUNS = 2
SETUP_PROBES = 3
TIME_LIMIT_S = 170.0      # one invocation, children killed past it
BLAS_THREADS = "1"
FUZZ_WORKERS = "1"
SERIES_RTOL = 1e-10
SERIES_ATOL = 1e-12


# name -> (config, reduced config for the smoke test, output depends on seed)
WORKLOADS: dict[str, tuple[dict, dict, bool]] = {
    "spin": ({"scenario": "spin"},
             {"scenario": "spin", "t1": 0.1}, False),
    "fp_ou": ({"scenario": "fp_ou"},
              {"scenario": "fp_ou", "t1": 0.1}, False),
    "channel_fuzz_5k": ({"scenario": "channel_fuzz", "params": {"n_channels": 5000}},
                        {"scenario": "channel_fuzz", "params": {"n_channels": 50}},
                        True),
    "thermo_spin": ({"scenario": "thermo_spin"},
                    {"scenario": "thermo_spin", "t1": 0.125,
                     "params": {"n_times": 513}}, False),
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "solve_s": "s", "peak_rss_mb": "MiB"}


class BenchError(Exception):
    """The benchmark cannot run here (no source tree, no reference)."""


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), WEAKINV_THREADS=FUZZ_WORKERS)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def spawn(mode: str, report: Path, cli_args: list[str], log: Path,
          timeout: float) -> dict:
    """One child process; returns its report plus what the parent measured."""
    cmd = [sys.executable, str(BENCH / "child.py"), mode, str(report), *cli_args]
    env = child_env()
    report.unlink(missing_ok=True)
    with open(log, "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env,
                                stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            if proc.returncode is None and proc.poll() is None:
                proc.kill()
                proc.wait()
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    out = json.loads(report.read_text()) if report.is_file() else {}
    out.update(exit_code=proc.returncode, start=start, wall_s=end - start,
               peak_rss_mb=usage.ru_maxrss / 1024.0)
    if "enter" in out:
        out["setup_s"] = out["enter"] - start
    if "exit" in out:
        out["solve_s"] = out["exit"] - out["enter"]
    return out


# -- correctness gate --------------------------------------------------------

def load_reference(workload: str) -> dict:
    ref_dir = REFERENCE / workload
    try:
        checks = json.loads((ref_dir / "checks.json").read_text())
        series = gzip.decompress((ref_dir / "series.csv.gz").read_bytes()).decode()
    except FileNotFoundError as exc:
        raise BenchError(f"missing reference for {workload}: {exc.filename}") from exc
    header, rows = parse_series(series)
    return {"checks": [list(c) for c in checks], "header": header, "rows": rows}


def parse_series(text: str):
    lines = text.splitlines()
    return lines[0], [[float(v) for v in line.split(",")] for line in lines[1:]]


def series_problem(text: str, ref: dict) -> str | None:
    """Why `text` is not within tolerance of the reference series, or None."""
    header, rows = parse_series(text)
    if header != ref["header"]:
        return f"series header {header!r} differs from the reference"
    if len(rows) != len(ref["rows"]):
        return f"series has {len(rows)} rows, the reference {len(ref['rows'])}"
    names = header.split(",")
    for i, (row, ref_row) in enumerate(zip(rows, ref["rows"])):
        for name, got, want in zip(names, row, ref_row):
            if not abs(got - want) <= max(SERIES_RTOL * max(abs(got), abs(want)),
                                          SERIES_ATOL):
                return f"series row {i} column {name}: {got!r}, reference {want!r}"
    return None


class Gate:
    """Checks every full run of one invocation against the reference."""

    def __init__(self, workload: str, compare_series: bool):
        self.ref = load_reference(workload)
        self.compare_series = compare_series
        self.first: tuple[bytes, bytes] | None = None
        self.identical = True

    def problems(self, run: dict, out_dir: Path) -> list[str]:
        found = []
        if run["exit_code"] != 0 or run.get("rc") != 0:
            found.append(f"exit code {run['exit_code']} (CLI returned {run.get('rc')})")
        try:
            series = (out_dir / "series.csv").read_bytes()
            verdict = (out_dir / "verdict.json").read_bytes()
        except FileNotFoundError as exc:
            return found + [f"missing output {exc.filename}"]
        checks = [[c["name"], c["pass"]] for c in json.loads(verdict)["checks"]]
        if checks != self.ref["checks"]:
            found.append(f"checks {checks} differ from the reference {self.ref['checks']}")
        if self.compare_series:
            problem = series_problem(series.decode(), self.ref)
            if problem:
                found.append(problem)
        if self.first is None:
            self.first = (series, verdict)
        elif self.first != (series, verdict):
            self.identical = False
            found.append("series.csv or verdict.json not byte-identical to the first run")
        return found


# -- measuring ---------------------------------------------------------------

def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def machine_facts(work: Path) -> dict:
    facts = spawn("facts", work / "facts.json", [], work / "facts.log", 60.0)
    if facts["exit_code"] != 0 or "facts" not in facts:
        raise BenchError("cannot import weakinv from src/: "
                         + (work / "facts.log").read_text()[-2000:])
    lib = facts["facts"]
    if not Path(lib.pop("weakinv_file")).resolve().is_relative_to(SRC.resolve()):
        raise BenchError("weakinv was not imported from this tree's src/")
    return {
        "nproc": os.cpu_count(),
        "load_avg_1m": os.getloadavg()[0],
        "python": sys.version.split()[0],
        **lib,
        "blas_threads": BLAS_THREADS,
    }


def prepare(workload: str, seed: int, small: bool) -> tuple[Path, Path]:
    """A fresh work directory for the workload and its config file in it."""
    config, small_config, _ = WORKLOADS[workload]
    work = OUT / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(dict(small_config if small else config, seed=seed)))
    return work, config_path


class Loop:
    """Closed-loop sampler for one invocation."""

    def __init__(self, workload: str, seed: int, small: bool):
        seeded = WORKLOADS[workload][2]
        self.work, self.config_path = prepare(workload, seed, small)
        self.gate = Gate(workload, not small and (not seeded or seed == REFERENCE_SEED))
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.count = 0
        self.deadline = time.monotonic() + TIME_LIMIT_S

    def run(self, mode: str) -> dict:
        self.count += 1
        out_dir = self.work / f"out{self.count}"
        args = ["run", "--config", str(self.config_path), "--output-dir", str(out_dir)]
        run = spawn(mode, self.work / f"report{self.count}.json", args,
                    self.work / f"run{self.count}.log",
                    max(1.0, self.deadline - time.monotonic()))
        self.attempted += 1
        if mode == "probe":
            found = [] if run["exit_code"] == 0 and "setup_s" in run else \
                [f"set-up probe failed with exit code {run['exit_code']}"]
        else:
            found = self.gate.problems(run, out_dir)
            shutil.rmtree(out_dir, ignore_errors=True)
        if found:
            self.failed += 1
            log = (self.work / f"run{self.count}.log").read_text()[-2000:]
            self.problems.append(f"{mode} run {self.count}: {'; '.join(found)}"
                                 + (f"\n{log}" if log else ""))
        run["ok"] = not found
        return run


def sample_plain(loop: Loop, seconds: float) -> dict:
    """Set-up probes, then full runs while the next one fits in `seconds`."""
    start = time.monotonic()
    probes = [loop.run("probe") for _ in range(SETUP_PROBES)]
    runs: list[dict] = []
    while len(runs) < MIN_RUNS or time.monotonic() - start + statistics.median(
            r["wall_s"] for r in runs) <= seconds:
        runs.append(loop.run("plain"))
    good = [r for r in runs if r["ok"]]
    samples = {name: [r[name] for r in good] for name in END_TO_END}
    samples["setup_s"] += [p["setup_s"] for p in probes if p["ok"]]
    return samples


def layer_value(metric: str, stats: dict):
    if metric.endswith("_s") and metric[:-2] in spans.INCLUSIVE:
        return stats.get(metric[:-2], {}).get("total_s", 0.0)
    span, _, field = metric.rpartition(".")
    return stats.get(span, {}).get(field, 0)


def sample_traced(loop: Loop, workload: str, seconds: float) -> tuple[dict, dict]:
    """Pairs of untraced and traced runs, then one alloc run; per-layer samples."""
    start = time.monotonic()
    plain: list[dict] = []
    traced: list[dict] = []
    while not traced or time.monotonic() - start + statistics.median(
            p["wall_s"] + t["wall_s"] for p, t in zip(plain, traced)) <= seconds:
        plain.append(loop.run("plain"))
        traced.append(loop.run("spans"))
    traced = [t for t in traced if t["ok"]]
    plain = [p for p in plain if p["ok"]]
    if not traced or not plain:
        return {}, {}

    per_run = []
    for t in traced:
        values = {m: layer_value(m, t["spans"]) for m in spans.PER_LAYER}
        values["setup.import_s"] = t["import_s"]
        per_run.append(values)
    samples = {m: [v[m] for v in per_run] for m in spans.PER_LAYER}
    for metric, (unit, _, _) in spans.PER_LAYER.items():
        if unit == "count" and len(set(samples[metric])) > 1:
            loop.problems.append(f"{metric} differs between runs: {samples[metric]}")

    samples["trace.overhead_s"] = [statistics.median(t["solve_s"] for t in traced)
                                   - statistics.median(p["solve_s"] for p in plain)]
    integrates = traced[0]["spans"].get("lindblad.integrate", {}).get("calls", 0)
    if integrates:
        alloc = loop.run("alloc")
        if alloc["ok"]:
            samples["lindblad.integrate.alloc_peak_mb"] = [
                alloc["spans"]["lindblad.integrate"]["alloc_peak_mb"]]

    span_table = {}
    for span in spans.SPANS:
        rows = [t["spans"].get(span.name, {}) for t in traced]
        calls = rows[0].get("calls", 0)
        if calls == 0 and workload in span.needs:
            loop.problems.append(f"span {span.name} recorded no calls on {workload}")
        span_table[span.name] = {
            "calls": calls,
            "self_s": statistics.median(r.get("self_s", 0.0) for r in rows),
            "total_s": statistics.median(r.get("total_s", 0.0) for r in rows),
        }
    samples["solve_s.untraced"] = [p["solve_s"] for p in plain]
    samples["solve_s.traced"] = [t["solve_s"] for t in traced]
    return samples, span_table


def report_lines(samples: dict, units: dict) -> list[str]:
    lines = []
    for name, values in samples.items():
        if not values:
            continue
        q1, med, q3 = quartiles(values)
        lines.append(f"{name:<46} {med:.6g} {units.get(name, 's')}"
                     f"  (q1 {q1:.6g}, q3 {q3:.6g}, n {len(values)})")
    return lines


def benchmark(workload: str, seed: int, seconds: float, trace: bool,
              small: bool) -> tuple[dict, list[str]]:
    if not (SRC / "weakinv" / "__init__.py").is_file():
        raise BenchError(f"no weakinv source tree under {SRC}")
    loop = Loop(workload, seed, small)
    facts = machine_facts(loop.work)
    lines = [f"workload {workload}  seed {seed}  trace {int(trace)}  "
             f"measuring {seconds:g} s", "facts " + json.dumps(facts)]

    span_table = {}
    if trace:
        samples, span_table = sample_traced(loop, workload, seconds)
        units = {m: unit for m, (unit, _, _) in spans.PER_LAYER.items()}
    else:
        samples = sample_plain(loop, seconds)
        units = END_TO_END

    metrics = {}
    for name, unit in units.items():
        if samples.get(name):
            metrics[name] = {"value": statistics.median(samples[name]), "unit": unit}
        else:
            loop.problems.append(f"no sample for {name}")
    result = {
        "correct": not loop.problems,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }

    for span in spans.SPANS:
        row = span_table.get(span.name)
        if row and row["calls"]:
            lines.append(f"span {span.name:<41} calls {row['calls']:<7} self "
                         f"{row['self_s']:.6g} s  total {row['total_s']:.6g} s"
                         f"  (moves {span.moves})")
    lines += report_lines(samples, units)
    lines.append(f"{'failed_frac':<46} {loop.failed / loop.attempted:.6g} ratio"
                 f"  ({loop.failed} of {loop.attempted} runs)")
    lines.append(f"{'byte_identical':<46} {'yes' if loop.gate.identical else 'no'}")
    lines += [f"PROBLEM {p}" for p in loop.problems]
    (OUT / f"{workload}-trace{int(trace)}.json").write_text(json.dumps(
        {"facts": facts, "samples": samples, "problems": loop.problems,
         **result}, indent=1))
    for path in loop.work.glob("report*.json"):
        path.unlink()
    return result, lines


def write_reference(workload: str) -> None:
    """Store the checks and series of one run at REFERENCE_SEED."""
    work, config_path = prepare(workload, REFERENCE_SEED, small=False)
    out_dir = work / "reference"
    args = ["run", "--config", str(config_path), "--output-dir", str(out_dir)]
    run = spawn("plain", work / "reference.json", args, work / "reference.log",
                TIME_LIMIT_S)
    if run["exit_code"] != 0:
        raise BenchError(f"{workload} exited with {run['exit_code']}")
    verdict = json.loads((out_dir / "verdict.json").read_text())
    ref_dir = REFERENCE / workload
    ref_dir.mkdir(parents=True, exist_ok=True)
    checks = [json.dumps([c["name"], c["pass"]]) for c in verdict["checks"]]
    (ref_dir / "checks.json").write_text("[\n" + ",\n".join(checks) + "\n]\n")
    (ref_dir / "series.csv.gz").write_bytes(
        gzip.compress((out_dir / "series.csv").read_bytes(), mtime=0))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="reduced problem sizes, for the smoke test")
    parser.add_argument("--write-reference", action="store_true",
                        help=f"store the reference outputs at seed {REFERENCE_SEED}")
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so that spawn() kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if args.write_reference:
            write_reference(args.workload)
            return 0
        result, lines = benchmark(args.workload, args.seed, args.seconds,
                                  bool(args.trace), args.small)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
