"""Config schema: defaults, validation failures, JSON loading; and the
config-decided refusals each runner makes before it steps."""

import ast
import json
import re
from pathlib import Path

import numpy as np
import pytest

from weakinv import config
from weakinv.cli import main
from weakinv.config import (
    SCENARIOS,
    ConfigError,
    default_config,
    load_config,
    validate_config,
)
from weakinv.errors import NumericalError
from weakinv.fokker_planck import evolve, gaussian_profile, ou_invariant_coeffs, space_grid
from weakinv.scenarios import run_scenario


def _runner_refusal(doc) -> str:
    """The ConfigError message of a config that the schema accepts and its runner refuses."""
    cfg = validate_config(doc)
    with pytest.raises(ConfigError) as info:
        run_scenario(cfg)
    return str(info.value)


def test_config_is_the_schema_alone():
    # the schema alone: it builds no grid, so it accepts a step that tiles its
    # window into more nodes than numpy can build (the runner refuses it) ...
    assert validate_config({"scenario": "spin", "dt": 1e-300}).dt == 1e-300
    # ... and imports no engine module, relative or absolute
    tree = ast.parse(Path(config.__file__).read_text())
    names = [(node.level, node.module) for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom)]
    names += [(0, alias.name) for node in ast.walk(tree) if isinstance(node, ast.Import)
              for alias in node.names]
    package = [(level, module) for level, module in names
               if level or module.split(".")[0] == "weakinv"]
    assert package == [(1, "errors")]


def test_every_scenario_has_valid_defaults():
    for name in SCENARIOS:
        cfg = default_config(name)
        assert cfg.scenario == name
        assert cfg.t1 > cfg.t0
        assert cfg.dt > 0.0
        assert cfg.output_dir == f"out_{name}"


def test_scenario_required():
    with pytest.raises(ConfigError):
        validate_config({})
    with pytest.raises(ConfigError):
        validate_config({"scenario": "unknown_thing"})


def test_unknown_keys_rejected_at_both_levels():
    with pytest.raises(ConfigError):
        validate_config({"scenario": "spin", "bogus": 1})
    with pytest.raises(ConfigError):
        validate_config({"scenario": "spin", "params": {"bogus": 1}})


def test_window_and_step_validation():
    with pytest.raises(ConfigError):
        validate_config({"scenario": "spin", "dt": -1e-3})
    with pytest.raises(ConfigError):
        validate_config({"scenario": "spin", "t0": 1.0, "t1": 0.5})
    with pytest.raises(ConfigError):
        validate_config({"scenario": "spin", "alpha": 0.0})
    with pytest.raises(ConfigError):
        validate_config({"scenario": "spin", "seed": True})


def test_grids_that_do_not_tile_are_config_errors():
    # the engine's own grid rules, applied only where the grid is used
    for scenario in ("spin", "oscillator", "fp_ou"):
        assert "does not tile" in _runner_refusal(
            {"scenario": scenario, "t1": 0.0105, "dt": 1e-3})
    assert "h 0.03 does not tile" in _runner_refusal({"scenario": "fp_ou", "params": {"h": 0.03}})
    # step counts that overflow to inf do not tile either
    assert "dt 1e-320 does not tile" in _runner_refusal({"scenario": "spin", "dt": 1e-320})
    for params in ({"h": 1e-320}, {"x_min": -1e308, "x_max": 1e308}):
        assert "does not tile" in _runner_refusal({"scenario": "fp_ou", "params": params})
    assert "need x_max > x_min" in _runner_refusal({"scenario": "fp_ou",
                                                    "params": {"x_max": -9.0}})
    # channel_fuzz and thermo_spin never step on dt
    for scenario, params in (("channel_fuzz", {"n_channels": 4}), ("thermo_spin", {"n_times": 65})):
        cfg = validate_config({"scenario": scenario, "t1": 0.0105, "dt": 1e-3, "params": params})
        assert run_scenario(cfg).scenario == scenario


@pytest.mark.parametrize("doc, message", [
    ({"scenario": "spin", "dt": 1e-300}, "dt 1e-300 makes 5e+299 nodes of [0.0, 0.5]"),
    ({"scenario": "spin", "t1": 1e300}, "dt 0.001 makes 1e+303 nodes of [0.0, 1e+300]"),
    ({"scenario": "fp_ou", "params": {"h": 1e-300}}, "h 1e-300 makes 1.6e+301 nodes of [-8.0, 8.0]"),
    # thermo_spin's path steps (t1 - t0) / (n_times - 1)
    ({"scenario": "thermo_spin", "params": {"n_times": 10 ** 20}},
     "dt 5e-21 makes 1e+20 nodes of [0.0, 0.5]"),
])
def test_grids_numpy_cannot_build_are_config_errors(doc, message):
    # each step tiles its window, into more nodes than numpy can build
    assert _runner_refusal(doc) == message + ", more than numpy can build"


def test_explicit_step_budget_is_a_config_error():
    # D is the constant params.diffusion and h the spacing of the grid the
    # engine steps on (a hair under 0.02 here), so the config alone decides
    # dt <= h^2 / (2 D), exactly as the engine's own guard does
    for dt in (1e-3, 2e-4):
        assert "explicit-step budget" in _runner_refusal(
            {"scenario": "fp_ou", "t1": 0.01, "dt": dt})
    assert run_scenario(validate_config({"scenario": "fp_ou", "t1": 0.01, "dt": 1e-4})).all_pass
    # the engine's own guard, past the runner's refusal
    x = space_grid(-8.0, 8.0, 0.02)
    with pytest.raises(NumericalError, match="explicit-step budget violated at t = 0"):
        evolve(gaussian_profile(x, 0.5, 0.5), -x, np.ones_like(x),
               ou_invariant_coeffs(1.0, 1.0, 1.0, 0.0, 0.0), 0.0, 0.01, 2e-4)


def test_param_kind_enforcement():
    with pytest.raises(ConfigError):
        validate_config({"scenario": "spin", "params": {"b0": [1.0, 2.0]}})
    with pytest.raises(ConfigError):
        validate_config({"scenario": "spin", "params": {"rate_c": -0.1}})
    with pytest.raises(ConfigError):
        validate_config({"scenario": "spin",
                         "params": {"initial_state": "sideways"}})
    with pytest.raises(ConfigError):
        validate_config({"scenario": "oscillator", "params": {"n_fock": 2.5}})
    # signed float: the schema lets it through, but a growing stiffness is
    # decided by the config alone, by the engine's own schedule rule
    assert "needs k(t) strictly decreasing" in _runner_refusal(
        {"scenario": "oscillator", "params": {"decay": -0.5}})
    cfg = validate_config({"scenario": "oscillator", "params": {"decay": 0.25}})
    assert cfg.params["decay"] == 0.25


def test_fuzz_shape_ranges_past_32_bits_are_config_errors(tmp_path, capsys):
    # a case's (dim, n_kraus) is drawn as numpy's 32-bit bounded draw, so
    # dim's range max_dim - 1 and n_kraus's range max_kraus stop at 2**32
    for name, value, ceiling in (("max_dim", 2**32 + 2, "2**32 + 1"),
                                 ("max_kraus", 2**32 + 1, "2**32")):
        message = f"params.{name}: must be at most {ceiling}, got {value}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            validate_config({"scenario": "channel_fuzz", "params": {name: value}})
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps({"scenario": "channel_fuzz", "params": {name: value}}))
        assert main(["run", "--config", str(cfg), "--output-dir", str(tmp_path / "o")]) == 2
        assert "2**32" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()
    widest = validate_config({"scenario": "channel_fuzz",
                              "params": {"max_dim": 2**32 + 1, "max_kraus": 2**32}})
    assert (widest.params["max_dim"], widest.params["max_kraus"]) == (2**32 + 1, 2**32)


def test_fuzz_case_counts_past_numpy_arrays_are_config_errors():
    # 2**57 cases keep every per-case array within numpy's largest array;
    # past 2**63 numpy cannot even shape the seed array. The CLI's exit 2
    # is checked with the other config-decided failures in test_cli.
    for n in (2**57 + 1, 10**20):
        with pytest.raises(ConfigError, match=r"params\.n_channels: must be at most 2\*\*57"):
            validate_config({"scenario": "channel_fuzz", "params": {"n_channels": n}})
    widest = validate_config({"scenario": "channel_fuzz", "params": {"n_channels": 2**57}})
    assert widest.params["n_channels"] == 2**57


def test_scenario_specific_window_defaults():
    assert default_config("spin").dt == pytest.approx(1e-3)
    fp = default_config("fp_ou")
    assert fp.t1 == pytest.approx(1.0)
    assert fp.dt == pytest.approx(1e-4)


def test_param_overrides_merge_with_defaults():
    cfg = validate_config(
        {"scenario": "spin", "params": {"rate_c": 0.2}})
    assert cfg.params["rate_c"] == 0.2
    assert tuple(cfg.params["b0"]) == (1.0, 2.0, 3.0)


def test_load_config_roundtrip(tmp_path):
    doc = {"scenario": "spin", "t1": 0.1, "params": {"rate_c": 0.05}}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(doc))
    cfg = load_config(p)
    assert cfg.scenario == "spin"
    assert cfg.t1 == 0.1
    assert cfg.params["rate_c"] == 0.05


def test_load_config_failure_modes(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(bad)
