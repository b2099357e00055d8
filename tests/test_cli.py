"""End-to-end CLI behaviour: exit codes, output files, reproducibility."""

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import weakinv
from weakinv import scenarios
from weakinv.cli import main
from weakinv.config import default_config
from weakinv.scenarios import CSV_HEADER

EXPECTED_HEADER = ("t,exp_I,var_I,growth_formula,growth_fd,S_vn,S_renyi,"
                   "bound_vn,bound_renyi,trace_err,min_eig")


def _write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def _spin_cfg(tmp_path, **over):
    doc = {"scenario": "spin", "t1": 0.05, "dt": 1e-3}
    doc.update(over)
    return _write(tmp_path, "spin.json", doc)


def test_header_constant_matches_contract():
    assert ",".join(CSV_HEADER) == EXPECTED_HEADER


def test_run_spin_writes_series_and_verdict(tmp_path):
    cfg = _spin_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--output-dir", str(out)]) == 0

    lines = (out / "series.csv").read_text().splitlines()
    assert lines[0] == EXPECTED_HEADER
    assert len(lines) == 1 + 51          # header + one row per grid node
    assert all(len(row.split(",")) == 11 for row in lines[1:])

    doc = json.loads((out / "verdict.json").read_text())
    assert doc["scenario"] == "spin"
    assert doc["all_pass"] is True
    names = {c["name"] for c in doc["checks"]}
    assert "mean_invariant_conserved" in names
    assert "growth_rate_equality" in names
    for c in doc["checks"]:
        assert set(c) == {"name", "law", "measured", "bound_or_target",
                          "tolerance", "pass"}
        assert c["pass"] is True


def test_runs_are_byte_identical(tmp_path):
    cfg = _spin_cfg(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", cfg, "--output-dir", str(out_a)]) == 0
    assert main(["run", "--config", cfg, "--output-dir", str(out_b)]) == 0
    assert (out_a / "series.csv").read_bytes() == (out_b / "series.csv").read_bytes()
    assert (out_a / "verdict.json").read_bytes() == (out_b / "verdict.json").read_bytes()
    notes = json.loads((out_a / "verdict.json").read_text())["notes"]
    assert set(notes) == {"step_defects", "conservation"}
    assert notes["conservation"]["max_herm_correction"] >= 0.0


def test_fuzz_runs_are_byte_identical(tmp_path):
    cfg = _write(tmp_path, "fuzz.json", {
        "scenario": "channel_fuzz",
        "params": {"n_channels": 16, "max_dim": 4, "max_kraus": 3},
    })
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", cfg, "--output-dir", str(out_a)]) == 0
    assert main(["run", "--config", cfg, "--output-dir", str(out_b)]) == 0
    assert (out_a / "series.csv").read_bytes() == (out_b / "series.csv").read_bytes()


def test_fuzz_rows_do_not_depend_on_grouping(tmp_path):
    # Cases are stacked by (dim, n_kraus). With 64 cases every group holds
    # members beyond the first k, so the stacks differ from those of a
    # k-case run; row i must still depend only on case i.
    def rows(n):
        cfg = _write(tmp_path, f"fuzz{n}.json", {
            "scenario": "channel_fuzz", "params": {"n_channels": n}})
        out = tmp_path / f"o{n}"
        assert main(["run", "--config", cfg, "--output-dir", str(out)]) == 0
        return (out / "series.csv").read_text().splitlines()

    full = rows(64)
    for k in (1, 5, 19):
        assert rows(k) == full[:k + 1]


def test_fuzz_rows_do_not_depend_on_slicing(tmp_path, monkeypatch):
    # A group is worked in slices of which four Kraus stacks fit in
    # BLOCK_BYTES: at the default budget the largest group of a 2000-case
    # run (dim 6, 4 Kraus operators, 53 cases a slice) spans several.
    # One case a slice and one slice a group must write the same bytes.
    cfg = _write(tmp_path, "fuzz2000.json", {
        "scenario": "channel_fuzz", "params": {"n_channels": 2000}})
    calls = []
    group = scenarios._fuzz_group

    def counted(dim, n_kraus, *draws):
        calls.append((dim, n_kraus))
        return group(dim, n_kraus, *draws)

    def outputs(name, budget):
        monkeypatch.setattr(scenarios, "BLOCK_BYTES", budget)
        calls.clear()
        out = tmp_path / name
        assert main(["run", "--config", cfg, "--output-dir", str(out)]) == 0
        return [(out / f).read_bytes() for f in ("series.csv", "verdict.json")]

    monkeypatch.setattr(scenarios, "_fuzz_group", counted)
    sliced = outputs("sliced", scenarios.BLOCK_BYTES)
    assert calls.count((6, 4)) > 1
    assert outputs("one_case", 0) == sliced
    assert len(calls) == 2000
    assert outputs("unbounded", 2**62) == sliced
    assert len(calls) == len(set(calls)) == 20


def test_config_errors_exit_2(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["run", "--config", missing]) == 2

    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert main(["run", "--config", str(bad)]) == 2

    neg_dt = _write(tmp_path, "neg.json", {"scenario": "spin", "dt": -0.1})
    assert main(["run", "--config", neg_dt]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("name, doc", [
    ("nan_dt", '{"scenario": "spin", "dt": NaN}'),
    ("inf_t1", '{"scenario": "spin", "t1": Infinity}'),
    ("two_times", '{"scenario": "thermo_spin", "params": {"n_times": 2}}'),
    ("zero_field", '{"scenario": "spin", "params": {"b0": [1.0, 0.0, 3.0]}}'),
    ("zero_field_thermo",
     '{"scenario": "thermo_spin", "params": {"b0": [0, 2.0, 3.0]}}'),
    ("one_level_fuzz", '{"scenario": "channel_fuzz", "params": {"max_dim": 1}}'),
    ("tiny_fock", '{"scenario": "oscillator", "params": {"n_fock": 3}}'),
    ("growing_stiffness", '{"scenario": "oscillator", "params": {"decay": -0.5}}'),
    ("huge_decay", '{"scenario": "oscillator", "t1": 0.01, "params": {"decay": 1e300}}'),
    ("untiled_dt", '{"scenario": "spin", "t1": 0.0105, "dt": 1e-3}'),
    ("untiled_h", '{"scenario": "fp_ou", "params": {"h": 0.03}}'),
    # three steps of 0.3334 overshoot the window's end by 2e-4
    ("far_window", '{"scenario": "oscillator", "t0": 1e6, "t1": 1000001.0, "dt": 0.3334, '
                   '"params": {"n_fock": 8}}'),
    ("cfl_dt", '{"scenario": "fp_ou", "dt": 1e-3}'),
    # an initial profile that vanishes on the grid, or already reaches its edges
    ("far_mean", '{"scenario": "fp_ou", "params": {"init_mean": 100.0}}'),
    ("wide_start", '{"scenario": "fp_ou", "params": {"init_var": 50.0}}'),
    ("negative_seed",
     '{"scenario": "channel_fuzz", "seed": -1, "params": {"n_channels": 4}}'),
    # grids with more nodes than numpy can build
    ("tiny_dt", '{"scenario": "spin", "dt": 1e-300}'),
    ("huge_t1", '{"scenario": "spin", "t1": 1e300}'),
    ("tiny_h", '{"scenario": "fp_ou", "params": {"h": 1e-300}}'),
    ("huge_n_times", '{"scenario": "thermo_spin", "params": {"n_times": 100000000000000000000}}'),
    ("huge_n_channels",
     '{"scenario": "channel_fuzz", "params": {"n_channels": 100000000000000000000}}'),
])
def test_config_decided_failures_exit_2(tmp_path, capsys, name, doc):
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(doc)
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg), "--output-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert err.count("\n") == 1
    assert not (out / "verdict.json").exists()


def test_config_refused_before_its_first_step_prints_one_line(tmp_path):
    # the stiffness schedule's square overflows while the runner checks it,
    # so kdot rounds to -0 where k still falls: the message names the rate
    # as unrepresentable rather than blaming the schedule's shape; in a fresh
    # interpreter no warning capture hides what reaches stderr
    out = tmp_path / "o"
    doc = {"scenario": "oscillator", "t1": 0.01, "params": {"decay": 1e300}}
    proc = subprocess.run(
        [sys.executable, "-m", "weakinv.cli", "run",
         "--config", _write(tmp_path, "huge_decay.json", doc), "--output-dir", str(out)],
        env=_src_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stderr == (
        "config error: double precision cannot represent the rate c = -kdot/2 at which "
        "k(t) falls: kdot(0.00015625) = -0\n")
    assert not (out / "verdict.json").exists()


# 4 GB of address space, as `ulimit -v 4000000`: the child can import numpy
# and run, but no grid of terabytes can be allocated in it
ADDRESS_SPACE_LIMIT = 4_000_000 * 1024


def _address_space_limit():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))


@pytest.mark.parametrize("name, doc, grid", [
    ("alloc_dt", {"scenario": "spin", "dt": 1e-12}, "dt 1e-12 makes 5e+11 nodes of [0.0, 0.5]"),
    ("alloc_h", {"scenario": "fp_ou", "params": {"h": 1e-14}},
     "h 1e-14 makes 1.6e+15 nodes of [-8.0, 8.0]"),
])
def test_grids_too_large_to_allocate_exit_2(tmp_path, name, doc, grid):
    # numpy accepts 3.64 TiB and 11.4 PiB of nodes but cannot allocate them:
    # the MemoryError is the config's doing, like numpy's refusal of a larger
    # grid. Run only under the address-space limit, in a child process.
    out = tmp_path / "o"
    proc = subprocess.run(
        [sys.executable, "-m", "weakinv.cli", "run",
         "--config", _write(tmp_path, f"{name}.json", doc), "--output-dir", str(out)],
        env=_src_env(), capture_output=True, text=True, timeout=120,
        preexec_fn=_address_space_limit,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == f"config error: {grid}, more than numpy can build\n"
    assert not (out / "verdict.json").exists()


def test_numerical_abort_exits_3(tmp_path, capsys):
    # a stiffness so large that the first step overflows the state
    cfg = _write(tmp_path, "osc.json", {
        "scenario": "oscillator", "t1": 0.01,
        "params": {"k0": 1e300, "n_fock": 8},
    })
    assert main(["run", "--config", cfg, "--output-dir",
                 str(tmp_path / "o")]) == 3
    assert "numerical abort" in capsys.readouterr().err


def test_positivity_abort_names_the_node(tmp_path, capsys):
    # an engine limit: at 180 Fock levels the default step loses positivity
    cfg = _write(tmp_path, "osc180.json", {
        "scenario": "oscillator", "t1": 0.04, "params": {"n_fock": 180}})
    assert main(["run", "--config", cfg, "--output-dir", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == (
        "numerical abort: state lost positivity at t = 0.038: min eigenvalue "
        "-2.504e-08 below floor -1.0e-08; reduce dt (positivity is monitored, "
        "not enforced)\n"
    )


NON_FINITE_RUNS = pytest.mark.parametrize("name, doc, message", [
    # the field overflows at the first midpoint
    ("huge_rate", {"scenario": "spin", "t1": 0.01, "params": {"rate_c": 1e300}},
     "H(0.0005) has a non-finite entry"),
    # finite generator data whose first step overflows the state
    ("huge_stiffness",
     {"scenario": "oscillator", "t1": 0.01, "params": {"k0": 1e300, "n_fock": 8}},
     "state is not finite at t = 0.001; reduce dt"),
    # the drift overflows the density in the first step
    ("huge_drift", {"scenario": "fp_ou", "t1": 0.01, "params": {"gamma": 1e300}},
     "state is not finite at t = 0.0001; reduce dt"),
    # a finite density, but the square of the invariant overflows
    ("huge_invariant", {"scenario": "fp_ou", "t1": 0.01, "params": {"a0": 1e300}},
     "series column var_I is not finite at row 0 (t = 0)"),
    # not a non-finite value but the same abort path: so cold a start puts
    # U on the ground energy, which no finite temperature reaches
    ("frozen_start", {"scenario": "thermo_spin", "params": {"t_init": 1e-3}},
     "stack member 0: target energy -3.74165738677 outside the reachable range "
     "(-3.74165738677, 0)"),
    # the path's field overflows after node 0, caught before any solve
    ("huge_rate_thermo", {"scenario": "thermo_spin", "params": {"rate_c": 1e300}},
     "stack member 1: Hamiltonian is not Hermitian: defect nan exceeds tol 1.0e-10"),
], ids=["huge_rate", "huge_stiffness", "huge_drift", "huge_invariant", "frozen_start",
        "huge_rate_thermo"])


@NON_FINITE_RUNS
def test_non_finite_runs_exit_3(tmp_path, capsys, name, doc, message):
    out = tmp_path / "o"
    code = main(["run", "--config", _write(tmp_path, f"{name}.json", doc),
                 "--output-dir", str(out)])
    assert code == 3
    assert capsys.readouterr().err == f"numerical abort: {message}\n"
    assert not (out / "verdict.json").exists()


@NON_FINITE_RUNS
def test_non_finite_runs_print_no_numpy_warnings(tmp_path, name, doc, message):
    # in a fresh interpreter no warning capture hides what reaches stderr
    out = tmp_path / "o"
    proc = subprocess.run(
        [sys.executable, "-m", "weakinv.cli", "run",
         "--config", _write(tmp_path, f"{name}.json", doc), "--output-dir", str(out)],
        env=_src_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 3
    assert proc.stderr == f"numerical abort: {message}\n"
    assert not (out / "verdict.json").exists()


def test_non_finite_check_exits_3(tmp_path, capsys, monkeypatch):
    # finite series but a check whose number overflowed: nothing is written
    import weakinv.scenarios as scenarios

    def runner(cfg):
        result = real(cfg)
        result.checks[0] = scenarios._rec("broken", "law", float("inf"), 0.0, 1e-9, False)
        return result

    real = scenarios._RUNNERS["spin"]
    monkeypatch.setitem(scenarios._RUNNERS, "spin", runner)
    out = tmp_path / "o"
    assert main(["run", "--config", _spin_cfg(tmp_path), "--output-dir", str(out)]) == 3
    assert capsys.readouterr().err == (
        "numerical abort: check broken is not finite: measured inf, target 0, tol 1e-09\n")
    assert not (out / "verdict.json").exists()


def test_run_scenario_fills_the_empty_slots(monkeypatch):
    # a runner returns only the slots it measures; run_scenario lays them
    # out in CSV order with zeros in the rest
    import weakinv.scenarios as scenarios

    monkeypatch.setitem(scenarios._RUNNERS, "spin", lambda cfg: scenarios.ScenarioResult(
        "spin", {"var_I": np.ones(3), "t": np.arange(3.0)}, []))
    cols = scenarios.run_scenario(default_config("spin")).columns
    assert tuple(cols) == CSV_HEADER
    assert cols["t"].tolist() == [0.0, 1.0, 2.0] and cols["var_I"].tolist() == [1.0] * 3
    assert all(cols[k].tolist() == [0.0] * 3 for k in CSV_HEADER if k not in ("t", "var_I"))


def test_column_outside_the_layout_exits_4(tmp_path, capsys, monkeypatch):
    # a misspelt slot is an internal error, never a silent zero column
    import weakinv.scenarios as scenarios

    def runner(cfg):
        result = real(cfg)
        result.columns["var_i"] = result.columns.pop("var_I")
        return result

    real = scenarios._RUNNERS["spin"]
    monkeypatch.setitem(scenarios._RUNNERS, "spin", runner)
    out = tmp_path / "o"
    assert main(["run", "--config", _spin_cfg(tmp_path), "--output-dir", str(out)]) == 4
    assert capsys.readouterr().err == (
        "internal error: KeyError: \"columns outside the CSV layout: ['var_i']\"\n")
    assert not (out / "verdict.json").exists()


@pytest.mark.parametrize("t0", [0.1, 0.3])
def test_drift_independence_for_a_later_start(tmp_path, t0):
    # the five-fold relaxation's invariant is anchored at t0, so the two
    # growth rates agree there as they do at t0 = 0
    cfg = _write(tmp_path, "fp.json", {"scenario": "fp_ou", "t0": t0, "t1": t0 + 0.05})
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--output-dir", str(out)]) == 0
    checks = json.loads((out / "verdict.json").read_text())["checks"]
    [check] = [c for c in checks if c["name"] == "drift_independence"]
    assert check["measured"] <= 1e-10


def test_failed_check_exits_1(tmp_path):
    # grid too coarse for the finite-difference identity tolerance; the
    # engine itself stays healthy so this lands as a check failure
    cfg = _write(tmp_path, "thermo.json", {
        "scenario": "thermo_spin", "params": {"n_times": 65}})
    code = main(["run", "--config", cfg, "--output-dir", str(tmp_path / "o")])
    assert code == 1
    notes = json.loads((tmp_path / "o" / "verdict.json").read_text())["notes"]
    assert 0.0 <= notes["canonical_gap_max"] < 1e-6


@pytest.mark.parametrize("doc", [
    {"scenario": "thermo_spin", "t0": 1e6, "t1": 1000000.5,
     "params": {"rate_c": 1e-9, "n_times": 2000}},
    {"scenario": "fp_ou", "t1": 0.01, "params": {"x_min": 999992.0, "x_max": 1000008.0,
                                                 "init_mean": 1000000.0, "gamma": 1e-12}},
], ids=["thermo_far_window", "fp_far_domain"])
def test_grids_far_from_zero_reach_a_verdict(tmp_path, doc):
    # nodes far from 0 tile their window only to roundoff; once the runner's
    # grid rule accepts them no later layer refuses them, so the run ends in
    # a verdict (the finite differences may lose the precision to pass)
    out = tmp_path / "o"
    code = main(["run", "--config", _write(tmp_path, "far.json", doc), "--output-dir", str(out)])
    assert code in (0, 1)
    assert (out / "verdict.json").exists()


def test_internal_error_exits_4(tmp_path, capsys, monkeypatch):
    def broken(cfg):
        raise RuntimeError("boom")

    monkeypatch.setattr("weakinv.cli.run_scenario", broken)
    out = tmp_path / "o"
    code = main(["run", "--config", _spin_cfg(tmp_path), "--output-dir", str(out)])
    assert code == 4
    assert capsys.readouterr().err == "internal error: RuntimeError: boom\n"
    assert not (out / "verdict.json").exists()


def test_scenarios_listing(capsys):
    assert main(["scenarios"]) == 0
    text = capsys.readouterr().out
    for name in ("spin", "oscillator", "channel_fuzz",
                 "thermo_spin", "fp_ou"):
        assert f"{name}:" in text


def test_seventeen_digit_floats(tmp_path):
    cfg = _spin_cfg(tmp_path)
    out = tmp_path / "out17"
    assert main(["run", "--config", cfg, "--output-dir", str(out)]) == 0
    lines = (out / "series.csv").read_text().splitlines()
    row = lines[2].split(",")
    # values round-trip: parse and re-render with the same format
    for cell in row:
        assert f"{float(cell):.17g}" == cell


def _src_env():
    src = str(Path(weakinv.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=src)


def test_cli_import_loads_no_scipy():
    env = _src_env()
    code = ("import sys, weakinv.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_fuzz_run_loads_no_numpy_ma(tmp_path):
    # numpy imports numpy.ma lazily, and pytest's own process may already
    # hold it, so the run gets a fresh interpreter
    cfg = _write(tmp_path, "fuzz.json", {"scenario": "channel_fuzz", "params": {"n_channels": 16}})
    code = ("import sys; from weakinv.cli import main; "
            f"code = main(['run', '--config', {cfg!r}, '--output-dir', {str(tmp_path / 'o')!r}]); "
            "print(code, sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']))")
    proc = subprocess.run([sys.executable, "-c", code], env=_src_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "0 []"


SHORT_CONFIGS = {
    "spin": {"t1": 0.05},
    "oscillator": {"t1": 0.05, "params": {"n_fock": 24}},
    "channel_fuzz": {"params": {"n_channels": 16}},
    "thermo_spin": {"t1": 0.1, "params": {"n_times": 129}},
    "fp_ou": {"t1": 0.05},
}

NO_SCIPY_RUNNER = """
import json, sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError("scipy is blocked")
        return None

sys.meta_path.insert(0, NoScipy())
try:
    import scipy
except ImportError:
    pass
else:
    sys.exit("the scipy blocker did not take")

from weakinv.cli import main

codes = {}
for name, cfg, out in json.loads(sys.argv[1]):
    codes[name] = main(["run", "--config", cfg, "--output-dir", out])
print(json.dumps(codes))
"""


def test_every_scenario_runs_without_scipy(tmp_path):
    runs = [(name, _write(tmp_path, f"{name}.json", {"scenario": name, **doc}),
             str(tmp_path / f"out_{name}"))
            for name, doc in SHORT_CONFIGS.items()]
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY_RUNNER, json.dumps(runs)],
                          env=_src_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    codes = json.loads(proc.stdout.strip().splitlines()[-1])
    assert codes == {name: 0 for name in SHORT_CONFIGS}
    for name, _, out in runs:
        assert (Path(out) / "verdict.json").exists()
