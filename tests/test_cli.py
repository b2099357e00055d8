"""End-to-end CLI behaviour: exit codes, output files, reproducibility."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import weakinv
from weakinv.cli import main
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
    ("untiled_dt", '{"scenario": "spin", "t1": 0.0105, "dt": 1e-3}'),
    ("untiled_h", '{"scenario": "fp_ou", "params": {"h": 0.03}}'),
    ("negative_seed",
     '{"scenario": "channel_fuzz", "seed": -1, "params": {"n_channels": 4}}'),
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


def test_numerical_abort_exits_3(tmp_path, capsys):
    # decay < 0 makes the spring constant grow, which the schedule refuses
    cfg = _write(tmp_path, "osc.json", {
        "scenario": "oscillator",
        "params": {"decay": -0.5, "n_fock": 16},
    })
    assert main(["run", "--config", cfg, "--output-dir",
                 str(tmp_path / "o")]) == 3
    assert "numerical abort" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name, doc, message", [
    # the field overflows at the first midpoint
    ("huge_rate", {"scenario": "spin", "t1": 0.01, "params": {"rate_c": 1e300}},
     "H(0.0005) has a non-finite entry"),
    # finite generator data whose first step overflows the state
    ("huge_stiffness",
     {"scenario": "oscillator", "t1": 0.01, "params": {"k0": 1e300, "n_fock": 8}},
     "state is not finite at t = 0.001; reduce dt"),
], ids=["huge_rate", "huge_stiffness"])
def test_non_finite_runs_exit_3(tmp_path, capsys, name, doc, message):
    out = tmp_path / "o"
    code = main(["run", "--config", _write(tmp_path, f"{name}.json", doc),
                 "--output-dir", str(out)])
    assert code == 3
    assert capsys.readouterr().err == f"numerical abort: {message}\n"
    assert not (out / "verdict.json").exists()


def test_failed_check_exits_1(tmp_path):
    # grid too coarse for the finite-difference identity tolerance; the
    # engine itself stays healthy so this lands as a check failure
    cfg = _write(tmp_path, "thermo.json", {
        "scenario": "thermo_spin", "params": {"n_times": 65}})
    code = main(["run", "--config", cfg, "--output-dir", str(tmp_path / "o")])
    assert code == 1
    notes = json.loads((tmp_path / "o" / "verdict.json").read_text())["notes"]
    assert 0.0 <= notes["canonical_gap_max"] < 1e-6


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
