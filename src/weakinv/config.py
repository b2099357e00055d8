"""Experiment configuration: a small hand-rolled schema over JSON.

Configs are flat JSON objects. `scenario` picks the experiment, the
common block (t0, t1, dt, alpha, seed) controls the integration, and
`params` holds scenario-specific numbers. Unknown keys anywhere are an
error: silent typos in tolerance-sensitive runs are worse than a loud
failure. All schema problems raise ConfigError, which the CLI maps to
its own exit code, distinct from runtime numerical failures.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ValidationError
from .fokker_planck import space_grid
from .lindblad import time_grid


class ConfigError(ValidationError):
    """Bad configuration file or schema violation."""


SCENARIOS = ("spin", "oscillator", "channel_fuzz", "thermo_spin", "fp_ou")

_COMMON_DEFAULTS = {
    "t0": 0.0,
    "t1": 0.5,
    "dt": 1e-3,
    "alpha": 2.0,
    "seed": 1234,
}

# Scenario-specific overrides of the common block. The classical run needs
# a longer window and a step inside the explicit-diffusion budget for its
# default grid spacing.
_SCENARIO_COMMON: dict[str, dict[str, float]] = {
    "fp_ou": {"t1": 1.0, "dt": 1e-4},
}

# Scenarios whose integrator steps on the common dt; the others take
# their time grid from their own params and ignore dt.
_STEPS_ON_DT = ("spin", "oscillator", "fp_ou")

# Per-scenario parameter schema: name -> (default, kind).
# kind: "float", "pos_float", "int_min:N", "nonzero_vec3" (a
# field B0 exp(8ct) with a zero component has no finite spin rates), and
# "choice:..." with options after the colon. Every float must be finite.
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
        # decay may be negative in a config; the engine rejects a growing
        # stiffness schedule at run time, which is a numerical-domain error,
        # not a schema error.
        "decay": (0.5, "float"),
        "n_fock": (60, "int_min:4"),
        "initial_state": ("ground", "choice:ground,gibbs"),
        "t_init": (1.0, "pos_float"),
    },
    "channel_fuzz": {
        "n_channels": (200, "int_min:1"),
        "max_dim": (6, "int_min:2"),
        "max_kraus": (4, "int_min:1"),
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
        "n_times": (2049, "int_min:3"),
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
    if kind.startswith("int_min:"):
        low = int(kind.split(":", 1)[1])
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{name}: expected an integer, got {value!r}")
        if value < low:
            raise ConfigError(f"{name}: must be at least {low}, got {value}")
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

    defaults = dict(_COMMON_DEFAULTS, **_SCENARIO_COMMON.get(scenario, {}))
    common = {}
    for key, default in defaults.items():
        value = raw.get(key, default)
        if key == "seed":
            common[key] = _check_number(key, value, "int_min:0")
        else:
            common[key] = _check_number(key, value, "float")
    if common["t1"] <= common["t0"]:
        raise ConfigError(f"need t1 > t0, got [{common['t0']}, {common['t1']}]")
    if common["dt"] <= 0.0:
        raise ConfigError(f"dt must be positive, got {common['dt']}")
    if common["alpha"] <= 0.0:
        raise ConfigError(f"alpha must be positive, got {common['alpha']}")

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

    # Grids the config alone makes unrunnable, by the engine's own rules.
    try:
        if scenario in _STEPS_ON_DT:
            time_grid(common["t0"], common["t1"], common["dt"])
        if scenario == "fp_ou":
            space_grid(params["x_min"], params["x_max"], params["h"])
    except ValidationError as exc:
        raise ConfigError(str(exc)) from exc

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
