"""Experiment configuration: a small hand-rolled schema over JSON.

Configs are flat JSON objects. `scenario` picks the experiment, the
common block (t0, t1, dt, alpha, seed) controls the integration, and
`params` holds scenario-specific numbers; both take one schema form, and
t1 > t0 is the one rule across keys. Unknown keys anywhere are an
error: silent typos in tolerance-sensitive runs are worse than a loud
failure. All schema problems raise ConfigError, which the CLI maps to
its own exit code, distinct from runtime numerical failures.

This module is the schema alone: what the config decides only by the
engine's rules (grids by `lindblad.uniform_grid`, fp_ou's step budget and
start, the oscillator's schedule), each runner refuses as a ConfigError
before it steps.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ValidationError


class ConfigError(ValidationError):
    """Bad configuration file or schema violation."""


SCENARIOS = ("spin", "oscillator", "channel_fuzz", "thermo_spin", "fp_ou")

# name -> (default, kind), kinds as in _PARAM_SCHEMA below.
_COMMON_DEFAULTS = {
    "t0": (0.0, "float"),
    "t1": (0.5, "float"),
    "dt": (1e-3, "pos_float"),
    "alpha": (2.0, "pos_float"),
    "seed": (1234, "int:0"),
}

# Scenario-specific overrides of the common block. The classical run needs
# a longer window and a step inside the explicit-diffusion budget for its
# default grid spacing; its runner rejects a step outside it.
_SCENARIO_COMMON: dict[str, dict[str, float]] = {
    "fp_ou": {"t1": 1.0, "dt": 1e-4},
}

# Per-scenario parameter schema: name -> (default, kind).
# kind: "float", "pos_float", "int:LOW" or "int:LOW..HIGH" (HIGH a sum of
# integers and powers), "nonzero_vec3" (a field B0 exp(8ct) with a zero
# component has no finite spin rates), and "choice:..." with options after
# the colon. Every float must be finite.
_PARAM_SCHEMA: dict[str, dict[str, tuple]] = {
    "spin": {
        "b0": ((1.0, 2.0, 3.0), "nonzero_vec3"),
        "rate_c": (0.1, "pos_float"),
        "initial_state": ("gibbs", "choice:gibbs,up"),
        "t_init": (1.0, "pos_float"),
        "shift": (2.5, "float"),
    },
    "oscillator": {
        "k0": (1.0, "pos_float"),
        # a signed float in the schema; the runner rejects a stiffness
        # that does not shrink on the window, by the engine's own rule.
        "decay": (0.5, "float"),
        "n_fock": (60, "int:4"),
        "initial_state": ("ground", "choice:ground,gibbs"),
        "t_init": (1.0, "pos_float"),
    },
    # 2**57 cases of at most 48 bytes an array fit numpy's 2**63 - 1 bytes; dim in
    # [2, max_dim] and n_kraus in [1, max_kraus] take numpy's 32-bit bounded draw.
    "channel_fuzz": {
        "n_channels": (200, "int:1..2**57"),
        "max_dim": (6, "int:2..2**32 + 1"),
        "max_kraus": (4, "int:1..2**32"),
    },
    # The canonical-family identity is checked by central differences, so
    # the path must sit in the smooth (slow) regime: at t_init = 1 the
    # two-level start is nearly frozen (field over temperature ~ 3.7) and
    # T(t) has a stiff initial transient no practical grid resolves.
    # n_times >= 3: the state is integrated over n_times - 1 whole steps,
    # and the integrator needs at least two.
    "thermo_spin": {
        "b0": ((1.0, 2.0, 3.0), "nonzero_vec3"),
        "rate_c": (0.1, "pos_float"),
        "t_init": (4.0, "pos_float"),
        "n_times": (2049, "int:3"),
    },
    "fp_ou": {
        "gamma": (1.0, "pos_float"),
        "diffusion": (1.0, "pos_float"),
        "x_min": (-8.0, "float"),
        "x_max": (8.0, "float"),
        "h": (0.02, "pos_float"),
        "a0": (1.0, "float"),
        "b0": (0.0, "float"),
        "e0": (0.0, "float"),
        "init_mean": (0.5, "float"),
        "init_var": (0.5, "pos_float"),
    },
}


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: str
    t0: float
    t1: float
    dt: float
    alpha: float
    seed: int
    output_dir: str
    params: dict = field(default_factory=dict)


def _check_number(name: str, value, kind: str):
    if kind == "float":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{name}: expected a number, got {value!r}")
        try:
            v = float(value)
        except OverflowError:
            v = math.inf
        if not math.isfinite(v):
            raise ConfigError(f"{name}: must be a finite number, got {value!r}")
        return v
    if kind == "pos_float":
        v = _check_number(name, value, "float")
        if v <= 0.0:
            raise ConfigError(f"{name}: must be positive, got {v}")
        return v
    if kind.startswith("int:"):
        low, _, high = kind.split(":", 1)[1].partition("..")
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{name}: expected an integer, got {value!r}")
        if value < int(low):
            raise ConfigError(f"{name}: must be at least {low}, got {value}")
        terms = (t.partition("**") for t in high.split("+"))
        if high and value > sum(int(b) ** int(e or 1) for b, _, e in terms):
            raise ConfigError(f"{name}: must be at most {high}, got {value}")
        return value
    if kind == "nonzero_vec3":
        if (not isinstance(value, (list, tuple))) or len(value) != 3:
            raise ConfigError(f"{name}: expected a 3-vector, got {value!r}")
        vec = tuple(_check_number(f"{name}[{i}]", v, "float") for i, v in enumerate(value))
        if 0.0 in vec:
            raise ConfigError(f"{name}: every component must be nonzero, got {list(vec)}")
        return vec
    if kind.startswith("choice:"):
        options = kind.split(":", 1)[1].split(",")
        if value not in options:
            raise ConfigError(f"{name}: expected one of {options}, got {value!r}")
        return value
    raise AssertionError(f"unknown schema kind {kind}")


def validate_config(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError(f"config root must be an object, got {type(raw).__name__}")
    scenario = raw.get("scenario")
    if scenario not in SCENARIOS:
        raise ConfigError(f"scenario: expected one of {list(SCENARIOS)}, got {scenario!r}")

    known_top = {"scenario", "params", "output_dir"} | set(_COMMON_DEFAULTS)
    extra = set(raw) - known_top
    if extra:
        raise ConfigError(f"unknown top-level keys: {sorted(extra)}")

    output_dir = raw.get("output_dir", f"out_{scenario}")
    if not isinstance(output_dir, str) or not output_dir:
        raise ConfigError(f"output_dir: expected a nonempty string, got {output_dir!r}")

    overrides = _SCENARIO_COMMON.get(scenario, {})
    common = {key: _check_number(key, raw.get(key, overrides.get(key, default)), kind)
              for key, (default, kind) in _COMMON_DEFAULTS.items()}
    if common["t1"] <= common["t0"]:
        raise ConfigError(f"need t1 > t0, got [{common['t0']}, {common['t1']}]")

    schema = _PARAM_SCHEMA[scenario]
    raw_params = raw.get("params", {})
    if not isinstance(raw_params, dict):
        raise ConfigError(f"params: expected an object, got {type(raw_params).__name__}")
    extra = set(raw_params) - set(schema)
    if extra:
        raise ConfigError(f"unknown params for scenario {scenario!r}: {sorted(extra)}")
    params = {}
    for name, (default, kind) in schema.items():
        params[name] = _check_number(f"params.{name}", raw_params.get(name, default), kind)

    return ExperimentConfig(scenario=scenario, output_dir=output_dir,
                            params=params, **common)


def load_config(path: str | Path) -> ExperimentConfig:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    try:
        raw = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return validate_config(raw)


def default_config(scenario: str) -> ExperimentConfig:
    """Built-in defaults for a scenario, same path as an empty params file."""
    return validate_config({"scenario": scenario})
