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

from .channels import check_draw_bounds
from .errors import NumericalError, ValidationError
from .fokker_planck import explicit_step_limit, gaussian_profile, interior_minimum, space_grid
from .lindblad import time_grid
from .models import rational_decay


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
# default grid spacing; validate_config rejects a step outside it.
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
        # a signed float in the schema; validate_config rejects a stiffness
        # that does not shrink on the window, by the engine's own rule.
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


def fuzz_shape_bounds(max_dim: int, max_kraus: int) -> list[tuple[int, int]]:
    """`Generator.integers` bounds of a fuzz case's dim and n_kraus.

    dim is drawn from [2, max_dim] and n_kraus from [1, max_kraus].
    """
    return [(2, max_dim + 1), (1, max_kraus + 1)]


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

    if scenario == "channel_fuzz":
        # 2**57 cases of at most 48 bytes an array stay within numpy's 2**63 - 1 bytes
        if params["n_channels"] > 2**57:
            raise ConfigError(f"params.n_channels: must be at most 2**57, "
                              f"got {params['n_channels']}")
        # the fuzz draws each case's shape by numpy's 32-bit bounded draw alone
        bounds = fuzz_shape_bounds(params["max_dim"], params["max_kraus"])
        for name, bound in zip(("max_dim", "max_kraus"), bounds):
            try:
                check_draw_bounds([bound])
            except ValidationError as exc:
                raise ConfigError(f"params.{name}: {exc}") from exc

    # Grids the config alone makes unrunnable, by the engine's own rules.
    try:
        if scenario in _STEPS_ON_DT:
            times = time_grid(common["t0"], common["t1"], common["dt"])
        if scenario == "thermo_spin":
            time_grid(common["t0"], common["t1"],
                      (common["t1"] - common["t0"]) / (params["n_times"] - 1))
        if scenario == "fp_ou":
            x = space_grid(params["x_min"], params["x_max"], params["h"])
            # the spacing the engine steps on, which may sit a hair off h
            limit = explicit_step_limit(x[1] - x[0], params["diffusion"])
            if common["dt"] > limit:
                raise ValidationError(f"dt = {common['dt']:.3e} exceeds the explicit-step "
                                      f"budget h^2/(2 max D) = {limit:.3e}")
            # a start that vanishes on the grid or reaches its edges at the first node
            start = gaussian_profile(x, params["init_mean"], params["init_var"])
            interior_minimum(start.values[None], times[:1])
        if scenario == "oscillator":
            rational_decay(params["k0"], params["decay"]).validate_schedule(
                common["t0"], common["t1"])
    except (ValidationError, NumericalError) as exc:
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
