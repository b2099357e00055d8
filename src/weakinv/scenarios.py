"""Named experiments and the checks that make up their verdicts.

Each runner executes one configured experiment and returns the standard
series table (one row per time node, or per fuzz case) together with a
list of check records. A record states what was measured, the target or
bound it was held to, the tolerance, and the outcome; the full list is
the machine-readable verdict of the run.

All five scenarios share one CSV layout so downstream tooling never has
to branch on scenario type. For the two Lindblad scenarios the columns
are literal. For the other three the same slots carry the analogous
quantities (conservation defects, fluctuation measures, hygiene
witnesses); the README documents the mapping per scenario. A runner
returns only the slots it measures; `run_scenario` owns the layout and
fills every slot with no analogue with 0.0.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from .channels import (
    QuantumChannel,
    apply,
    bounded_draws,
    complex_normals,
    kadison_gap,
    lindblad_step_channel,
    pcg64_states,
    random_channel,
    sandwich,
)
from .config import ConfigError, ExperimentConfig
from .errors import NumericalError, ValidationError
from .fokker_planck import (
    classical_growth_rate,
    evolve,
    explicit_step_limit,
    gaussian_profile,
    interior_minimum,
    ou_invariant_coeffs,
    space_grid,
)
from .lindblad import (
    BLOCK_BYTES,
    SERIES_KEYS,
    Trajectory,
    entropies,
    integrate,
    lindblad_rhs,
    rhs_kernels,
    rk4_step,
    time_grid,
)
from .models import (
    edge_occupation,
    exponential_field,
    invariance_residual,
    oscillator_generator,
    oscillator_predicted_growth,
    rational_decay,
    spin_generator,
    spin_hamiltonian,
    spin_predicted_growth,
)
from .operators import DensityMatrix, abort_at, dagger, expectation, variance
from .thermo import (
    build_isoenergetic_path,
    canonical_state,
    check_specific_heat_relation,
    internal_energy,
    trace_distance,
)

CSV_HEADER = ("t",) + SERIES_KEYS

GROWTH_EQ_ABS = 1e-6      # floor of the growth-rate equality tolerance
GROWTH_EQ_REL = 1e-3      # relative part, per node
MONOTONE_SLACK = 1e-9


@dataclass(frozen=True)
class CheckRecord:
    """One verdict entry: a measured number held against a target."""

    name: str
    law: str
    measured: float
    bound_or_target: float
    tolerance: float
    passed: bool


@dataclass
class ScenarioResult:
    scenario: str
    columns: dict[str, np.ndarray]
    checks: list[CheckRecord]
    notes: dict = field(default_factory=dict)

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)


def _rec(name, law, measured, bound, tol, passed) -> CheckRecord:
    return CheckRecord(name=name, law=law, measured=float(measured),
                       bound_or_target=float(bound), tolerance=float(tol),
                       passed=bool(passed))


def _at_most(name, law, measured, tol, bound=0.0) -> CheckRecord:
    """A ceiling: passes when measured <= bound + tol."""
    return _rec(name, law, measured, bound, tol, measured <= bound + tol)


def _at_least(name, law, measured, tol, bound=0.0) -> CheckRecord:
    """A floor: passes when measured >= bound - tol."""
    return _rec(name, law, measured, bound, tol, measured >= bound - tol)


def _rel_dev(got, want):
    """|got - want| / max(|want|, 1e-12), elementwise."""
    return np.abs(got - want) / np.maximum(np.abs(want), 1e-12)


@contextmanager
def _config_decided():
    """Raise the engine's refusal of what the config alone decides as ConfigError."""
    try:
        yield
    except (ValidationError, NumericalError) as exc:
        raise ConfigError(str(exc)) from exc


# -- shared trajectory checks ------------------------------------------------

def _mean_conservation_check(traj: Trajectory, tol_rel: float,
                             name: str = "mean_invariant_conserved") -> CheckRecord:
    e = traj.series["exp_I"]
    return _at_most(name, "conserved invariant average", float(_rel_dev(e, e[0]).max()), tol_rel)


def _monotone_check(values, name: str, law: str, slack: float) -> CheckRecord:
    return _at_least(name, law, float(np.diff(values).min()), slack)


def _growth_equality_check(traj: Trajectory) -> CheckRecord:
    f = traj.series["growth_formula"]
    g = traj.series["growth_fd"]
    tol = np.maximum(GROWTH_EQ_ABS, GROWTH_EQ_REL * np.abs(f))
    ratio = np.abs(g - f)[1:-1] / tol[1:-1]
    return _at_most("growth_rate_equality",
                    "finite-difference fluctuation rate matches the commutator formula",
                    float(ratio.max()), 0.0, bound=1.0)


def _entropy_bound_checks(traj: Trajectory, dt: float) -> list[CheckRecord]:
    out = []
    for s_key, b_key, name in (
        ("S_vn", "bound_vn", "entropy_rate_vn_bound"),
        ("S_renyi", "bound_renyi", "entropy_rate_renyi_bound"),
    ):
        rate = np.gradient(traj.series[s_key], dt, edge_order=2)
        bound = traj.series[b_key]
        tol = np.maximum(GROWTH_EQ_ABS, GROWTH_EQ_REL * np.abs(bound))
        margin = (rate - bound)[1:-1]
        # per-node tolerance max(GROWTH_EQ_ABS, GROWTH_EQ_REL |bound|); the record keeps its floor
        out.append(_rec(name, "entropy production rate lower bound",
                        float(margin.min()), 0.0, GROWTH_EQ_ABS, np.all(margin >= -tol[1:-1])))
    bmax = max(float(np.abs(traj.series["bound_vn"]).max()),
               float(np.abs(traj.series["bound_renyi"]).max()))
    out.append(_at_most("hermitian_bounds_vanish",
                        "self-adjoint jump operators give a vanishing bound", bmax, 1e-12))
    return out


# -- spin scenario -----------------------------------------------------------

def channel_step_defect(gen, rho_mat, t: float, dt: float) -> float:
    """Distance between one accurate ODE step and 8 Kraus steps of dt / 8.

    The factored step has an O(tau^2) local defect, so the accumulated error
    scales as dt^2 / 8: halving dt must shrink this by about 4.
    """
    tau = dt / 8
    # one sample: the RK4 step's start, midpoint and end, then each micro-step's start
    coeffs, rates = gen.eval(np.append([t, t + 0.5 * dt, t + dt], t + tau * np.arange(8)))
    kernels = rhs_kernels(gen, coeffs[:3], rates[:3], [False])
    ref = rk4_step(lindblad_rhs, kernels, rho_mat[None], dt)[0]
    m = rho_mat
    for row in zip(coeffs[3:], rates[3:]):
        ch = lindblad_step_channel(gen, *row, tau)
        m = sandwich(ch.kraus, m, dagger(ch.kraus))
    return float(np.linalg.norm(m - ref, ord=2))


def _spin_initial_state(h0: np.ndarray, kind: str, t_init: float) -> DensityMatrix:
    if kind == "gibbs":
        return canonical_state(h0, t_init)
    up = np.zeros((2, 2), dtype=complex)
    up[0, 0] = 1.0
    return DensityMatrix.from_matrix(up)


def run_spin(cfg: ExperimentConfig) -> ScenarioResult:
    p = cfg.params
    with _config_decided():
        time_grid(cfg.t0, cfg.t1, cfg.dt)
    model = exponential_field(np.asarray(p["b0"]), p["rate_c"])
    gen = spin_generator(model)
    h0 = spin_hamiltonian(model, cfg.t0)
    rho0 = _spin_initial_state(h0, p["initial_state"], p["t_init"])

    traj = integrate(gen, rho0, i0=np.stack([h0, h0 + p["shift"] * np.eye(2)]), t0=cfg.t0,
                     t1=cfg.t1, dt=cfg.dt, alpha=cfg.alpha)
    checks = [
        _mean_conservation_check(traj, 1e-8),
        _monotone_check(traj.series["var_I"], "fluctuation_nondecreasing",
                        "invariant fluctuation can only grow", MONOTONE_SLACK),
        _growth_equality_check(traj),
    ]

    # Closed-form cross-checks against the field schedule.
    g0 = float(traj.series["growth_formula"][0])
    checks.append(_at_most("growth_field_prediction",
                           "growth rate equals the field-norm rate of change",
                           _rel_dev(g0, spin_predicted_growth(model, cfg.t0)), 1e-6))

    dvar = float(traj.series["var_I"][-1] - traj.series["var_I"][0])
    b_lo, b_hi = model.b(np.array([cfg.t0, cfg.t1]))
    dnorm = float(b_hi @ b_hi - b_lo @ b_lo)
    checks.append(_at_most("fluctuation_field_increment",
                           "fluctuation increment equals the field-norm increment",
                           _rel_dev(dvar, dnorm), 1e-6))

    checks.extend(_entropy_bound_checks(traj, cfg.dt))

    # Shifting the initial invariant by a multiple of the identity (the
    # second one stepped) must not move the fluctuation series at all.
    sdev = float(np.abs(traj.variances[:, 1] - traj.variances[:, 0]).max())
    checks.append(_at_most("shift_covariance",
                           "identity shifts of the invariant leave its spread alone",
                           sdev, MONOTONE_SLACK))

    # All rates zero: the invariant equation degenerates to closed unitary
    # motion and the spectrum must freeze.
    frozen_model = exponential_field(np.asarray(p["b0"]), 0.0)
    frozen = integrate(spin_generator(frozen_model), rho0,
                       i0=spin_hamiltonian(frozen_model, cfg.t0),
                       t0=cfg.t0, t1=cfg.t1, dt=cfg.dt, alpha=cfg.alpha)
    spec = np.linalg.eigvalsh(frozen.invariants)      # ascending per node
    checks.append(_at_most("strong_invariant_spectrum",
                           "zero rates freeze the invariant spectrum",
                           float(np.abs(spec - spec[0]).max()), MONOTONE_SLACK))
    var_f = frozen.series["var_I"]
    checks.append(_at_most("strong_invariant_fluctuation",
                           "zero rates freeze the invariant fluctuation",
                           float(np.abs(var_f - var_f[0]).max()), MONOTONE_SLACK))

    # Order-of-accuracy consistency between the ODE step and the factored
    # Kraus micro-steps.
    base_dt = 0.02
    e1 = channel_step_defect(gen, rho0.mat, cfg.t0, base_dt)
    e2 = channel_step_defect(gen, rho0.mat, cfg.t0, base_dt / 2.0)
    ratio = e1 / max(e2, 1e-300)
    checks.append(_at_least("step_map_consistency",
                            "factored-step error contracts at second order",
                            ratio, 0.0, bound=3.5))

    return ScenarioResult(scenario="spin", columns={"t": traj.times, **traj.series},
                          checks=checks,
                          notes={"step_defects": (e1, e2),
                                 "conservation": traj.notes})


# -- oscillator scenario -----------------------------------------------------

def run_oscillator(cfg: ExperimentConfig) -> ScenarioResult:
    p = cfg.params
    with _config_decided():
        time_grid(cfg.t0, cfg.t1, cfg.dt)
        model = replace(rational_decay(p["k0"], p["decay"]), n_fock=p["n_fock"])
        model.validate_schedule(cfg.t0, cfg.t1)
    gen = oscillator_generator(model)
    k1, k2, k3 = model.ops()
    h0 = k1 + float(model.k(cfg.t0)) * k2

    if p["initial_state"] == "ground":
        w, vecs = np.linalg.eigh(h0)
        vec = vecs[:, 0]
        rho0 = DensityMatrix.from_matrix(np.outer(vec, vec.conj()))
    else:
        rho0 = canonical_state(h0, p["t_init"])

    traj = integrate(gen, rho0, t0=cfg.t0, t1=cfg.t1, dt=cfg.dt, alpha=cfg.alpha)

    checks = [
        _mean_conservation_check(traj, 1e-7),
        _monotone_check(traj.series["var_I"], "fluctuation_nondecreasing",
                        "invariant fluctuation can only grow", MONOTONE_SLACK),
        _growth_equality_check(traj),
    ]

    c0 = -0.5 * float(model.kdot(cfg.t0))
    # Mirror of the schedule expression so the comparison is exact, not
    # merely close.
    c_target = -0.5 * (-p["k0"] * p["decay"] / (1.0 + p["decay"] * cfg.t0) ** 2)
    # exact equality: neither a ceiling nor a floor
    checks.append(_rec("initial_rate_value",
                       "dissipation rate follows the stiffness schedule",
                       c0, c_target, 0.0, c0 == c_target))

    g0 = float(traj.series["growth_formula"][0])
    checks.append(_at_most("growth_ansatz_prediction",
                           "growth rate matches the quadratic-ansatz closed form",
                           _rel_dev(g0, oscillator_predicted_growth(model, rho0, cfg.t0)), 1e-6))

    checks.extend(_entropy_bound_checks(traj, cfg.dt))

    t_mid = 0.5 * (cfg.t0 + cfg.t1)
    res = invariance_residual(gen, float(model.kdot(t_mid)) * k2, t_mid, trim=4)
    res_scale = max(1.0, float(np.abs(model.kdot(t_mid)) * np.abs(k2).max()))
    checks.append(_at_most("invariant_equation_residual",
                           "closed-form invariant satisfies the adjoint equation",
                           res / res_scale, 1e-9))
    checks.append(_at_most("edge_occupation", "truncation edge stays unpopulated",
                           edge_occupation(traj.states[-1]), 1e-8))

    return ScenarioResult(scenario="oscillator",
                          columns={"t": traj.times, **traj.series}, checks=checks,
                          notes={"conservation": traj.notes})


# -- channel fuzz ------------------------------------------------------------

def _fuzz_rows(ch: QuantumChannel, i_op: np.ndarray, rho_m: np.ndarray) -> np.ndarray:
    """One row per case of a stack: the duality defect, the paired moment
    growth, the Kadison gap's smallest eigenvalue, the completeness defect
    and the output state's smallest eigenvalue of channel ch, observable
    I and state rho."""
    rho_out = apply(ch, rho_m)
    gap, pulled = kadison_gap(ch, i_op)
    gap_min = np.linalg.eigvalsh(gap).min(axis=-1)
    cons = np.abs(expectation(pulled, rho_m) - expectation(i_op, rho_out))
    pair_growth = variance(i_op, rho_out) - variance(pulled, rho_m)
    return np.column_stack([cons, pair_growth, gap_min, ch.tp_defect, rho_out.min_eig])


def _fuzz_group(dim: int, n_kraus: int, channel_seeds: np.ndarray,
                observable_states: np.ndarray) -> np.ndarray:
    """`_fuzz_rows` for the cases sharing (dim, n_kraus), one helper call per stack.

    Each case draws its channel's Gaussians from its channel seed, and
    those of its observable I and state rho from its observable stream,
    which `observable_states` holds as the `pcg64_states` row its shape
    draws left.
    """
    ch = random_channel(complex_normals(pcg64_states(channel_seeds), (n_kraus * dim, dim)))
    g, r = np.moveaxis(complex_normals(observable_states, (2, dim, dim)), 1, 0)
    i_op = 0.5 * (g + dagger(g))
    i_op /= np.maximum(np.abs(np.linalg.eigvalsh(i_op)).max(axis=-1), 1e-12)[:, None, None]
    rho_m = r @ dagger(r)
    rho_m /= np.trace(rho_m, axis1=-2, axis2=-1).real[:, None, None]
    del g, r    # the views hold the whole draw buffer; free it before the channel acts
    return _fuzz_rows(ch, i_op, rho_m)


def run_channel_fuzz(cfg: ExperimentConfig) -> ScenarioResult:
    p = cfg.params
    n = p["n_channels"]
    master = np.random.default_rng(cfg.seed)
    # Per-case seeds are drawn up front and a row depends only on its own
    # pair, so neither grouping nor slicing the cases can change any result.
    # A case's shape is the first two draws of its observable stream, made
    # for every case at once; the stream resumes from the state they leave.
    seeds = master.integers(0, 2**63 - 1, size=(n, 2))
    shapes, after = bounded_draws(seeds[:, 1], [(2, p["max_dim"] + 1), (1, p["max_kraus"] + 1)])
    # groups in ascending (dim, n_kraus), in case order, in slices of 4 Kraus stacks in BLOCK_BYTES
    order = np.lexsort(shapes.T[::-1])
    rows = np.empty((n, 5))
    for group in np.split(order, np.flatnonzero(np.diff(shapes[order], axis=0).any(axis=1)) + 1):
        dim, n_kraus = shapes[group[0]].tolist()
        size = max(1, BLOCK_BYTES // (64 * n_kraus * dim * dim))
        for start in range(0, len(group), size):
            members = group[start:start + size]
            rows[members] = _fuzz_group(dim, n_kraus, seeds[members, 0], after[members])
    cons, pair, gaps, tp, out_min = rows.T

    checks = [
        _at_least("operator_jensen_floor",
                  "adjoint of a square dominates the square of the adjoint",
                  float(gaps.min()), 1e-9),
        _at_most("completeness_defect", "Kraus completeness", float(tp.max()), 1e-9),
        _at_most("adjoint_duality", "pulled-back average equals pushed-forward average",
                 float(cons.max()), 1e-10),
        _at_least("paired_moment_growth", "pull-back never shrinks the paired second moment",
                  float(pair.min()), 1e-9),
    ]

    columns = {"t": np.arange(n, dtype=float), "exp_I": cons, "var_I": pair,
               "growth_formula": gaps, "trace_err": tp, "min_eig": out_min}
    return ScenarioResult(scenario="channel_fuzz", columns=columns, checks=checks)


# -- isoenergetic thermo path ------------------------------------------------

def run_thermo_spin(cfg: ExperimentConfig) -> ScenarioResult:
    p = cfg.params
    step = (cfg.t1 - cfg.t0) / (p["n_times"] - 1)
    with _config_decided():
        times = time_grid(cfg.t0, cfg.t1, step)
    model = exponential_field(np.asarray(p["b0"]), p["rate_c"])

    hs = spin_hamiltonian(model, times)
    u = internal_energy(hs[0], p["t_init"])
    path = build_isoenergetic_path(hs, times, u)
    rel = check_specific_heat_relation(path)

    # The canonical family is a local-equilibrium description, not the actual
    # dissipative state. Report how far apart they drift; no threshold is
    # imposed, the number is a slowness diagnostic. H(t) is this model's
    # exact weak invariant, so the state is stepped against it in closed form.
    actual = integrate(spin_generator(model), canonical_state(hs[0], p["t_init"]),
                       t0=cfg.t0, t1=cfg.t1, dt=step, alpha=cfg.alpha)
    gap = trace_distance(actual.states, path.states.mat)

    checks = [
        # strict > 0: a floor at 0 would also pass min_lhs == 0, which is no heating
        _rec("heating_positive",
             "isoenergetic widening forces net heating",
             rel["min_lhs"], 0.0, 0.0, rel["min_lhs"] > 0.0),
        _at_most("specific_heat_identity",
                 "heat-capacity combination equals the canonical fluctuation rate",
                 rel["max_identity_rel_err"], 1e-6),
    ]

    # Two-level closed form for the heat capacity.
    b = model.b(times)
    ratio = np.sqrt(np.vecdot(b, b)) / path.temperature
    c_closed = ratio**2 / np.cosh(ratio) ** 2
    checks.append(_at_most("closed_form_heat", "two-level heat capacity closed form",
                           float(_rel_dev(path.heat_capacity, c_closed).max()), 1e-10))

    resid = _rel_dev(internal_energy(hs, path.temperature), u)
    checks.append(_at_most("energy_residual", "energy pinned along the path",
                           float(resid.max()), 1e-9))

    var_rate = np.gradient(path.var_h, float(times[1] - times[0]), edge_order=2)
    rho = path.states.mat
    s_vn, s_renyi = entropies(np.linalg.eigvalsh(0.5 * (rho + dagger(rho))), cfg.alpha)

    columns = {"t": times, "exp_I": np.full(times.size, u), "var_I": path.var_h,
               "growth_formula": path.temperature * path.heating, "growth_fd": var_rate,
               "S_vn": s_vn, "S_renyi": s_renyi, "trace_err": resid,
               "min_eig": path.states.min_eig}
    return ScenarioResult(
        scenario="thermo_spin", columns=columns, checks=checks,
        notes={"u": u, "canonical_gap_max": float(gap.max()),
               "canonical_gap_final": float(gap[-1]), **rel},
    )


# -- classical drift-diffusion ----------------------------------------------

def run_fp_ou(cfg: ExperimentConfig) -> ScenarioResult:
    p = cfg.params
    with _config_decided():
        times = time_grid(cfg.t0, cfg.t1, cfg.dt)
        x = space_grid(p["x_min"], p["x_max"], p["h"])
        # the spacing the engine steps on, which may sit a hair off h
        limit = explicit_step_limit(x[1] - x[0], p["diffusion"])
        if cfg.dt > limit:
            raise ValidationError(f"dt = {cfg.dt:.3e} exceeds the explicit-step "
                                  f"budget h^2/(2 max D) = {limit:.3e}")
        # a start that vanishes on the grid or reaches its edges at the first node
        dist = gaussian_profile(x, p["init_mean"], p["init_var"])
        interior_minimum(dist.values[None], times[:1])

    gamma, d_const = p["gamma"], p["diffusion"]
    inv = ou_invariant_coeffs(gamma, d_const, p["a0"], p["b0"], p["e0"])
    drift, diff = -gamma * x, np.full_like(x, d_const)
    traj = evolve(dist, drift, diff, inv, cfg.t0, cfg.t1, cfg.dt)

    var = traj.series["var_I"]
    checks = [
        _mean_conservation_check(traj, 1e-6, "classical_mean_conserved"),
        _monotone_check(var, "classical_fluctuation_nondecreasing",
                        "invariant fluctuation can only grow",
                        MONOTONE_SLACK * max(1.0, float(np.abs(var).max()))),
    ]

    f, g = traj.series["growth_formula"][1:-1], traj.series["growth_fd"][1:-1]
    checks.append(_at_most("classical_growth_equality",
                           "finite-difference spread rate matches the slope formula",
                           float(_rel_dev(g, f).max()), 1e-2))

    # The growth formula never sees the drift: recompute the initial rate
    # with a five-fold relaxation whose invariant equals `inv` at t0, and
    # demand bit-level agreement.
    a_t0 = inv.a(cfg.t0)
    a_alt = a_t0 * np.exp(-10.0 * gamma * cfg.t0)
    inv_alt = ou_invariant_coeffs(5.0 * gamma, d_const, a_alt,
                                  inv.b(cfg.t0) * np.exp(-5.0 * gamma * cfg.t0),
                                  inv.e(cfg.t0) + d_const * (a_t0 - a_alt) / (5.0 * gamma))
    r_base = classical_growth_rate(inv, dist, diff, cfg.t0)
    r_alt = classical_growth_rate(inv_alt, dist, diff, cfg.t0)
    checks.append(_at_most("drift_independence", "spread growth is blind to the drift",
                           abs(r_base - r_alt), 1e-10))
    checks.append(_at_most("mass_conserved", "probability mass conserved",
                           float(np.abs(traj.series["trace_err"]).max()), 1e-9))

    res_scale = 1.0 + abs(p["a0"]) * max(abs(p["x_min"]), abs(p["x_max"])) ** 2
    res = inv.residual(x, drift, diff, cfg.t0) / res_scale
    checks.append(_at_most("invariant_coefficient_residual",
                           "closed-form coefficients solve the invariant equation",
                           res, 1e-12))

    return ScenarioResult(scenario="fp_ou", columns={"t": traj.times, **traj.series},
                          checks=checks, notes=traj.notes)


# -- dispatch ----------------------------------------------------------------

_RUNNERS = {
    "spin": run_spin,
    "oscillator": run_oscillator,
    "channel_fuzz": run_channel_fuzz,
    "thermo_spin": run_thermo_spin,
    "fp_ou": run_fp_ou,
}

SCENARIO_SUMMARIES = {
    "spin": "driven two-level system: conservation, monotone growth, "
            "entropy bounds, shift covariance, step-map consistency",
    "oscillator": "shrinking-stiffness oscillator with closed-form invariant: "
                  "conservation, growth law, entropy bounds, truncation hygiene",
    "channel_fuzz": "random CPTP maps: operator Jensen inequality, duality, "
                    "paired second-moment growth",
    "thermo_spin": "isoenergetic canonical path: positive heating and the "
                   "specific-heat identity",
    "fp_ou": "classical drift-diffusion with quadratic invariant: conserved "
             "average, drift-free spread growth",
}


def run_scenario(cfg: ExperimentConfig) -> ScenarioResult:
    """Run the configured scenario and complete its columns in CSV_HEADER
    order, 0.0 in every slot the runner did not fill; a column outside the
    layout raises KeyError. What the config alone makes unrunnable raises
    ConfigError before any step; a non-finite series value or check number
    raises NumericalError naming the first one, so none is ever written."""
    result = _RUNNERS[cfg.scenario](cfg)
    extra = sorted(set(result.columns) - set(CSV_HEADER))
    if extra:
        raise KeyError(f"columns outside the CSV layout: {extra}")
    n = len(result.columns["t"])
    result.columns = {k: result.columns[k] if k in result.columns else np.zeros(n)
                      for k in CSV_HEADER}
    table = np.column_stack(list(result.columns.values()))
    abort_at(~np.isfinite(table), NumericalError, lambda at: (
        f"series column {CSV_HEADER[at[1]]} is not finite at row {at[0]} "
        f"(t = {table[at[0], 0]:.6g})"))
    for c in result.checks:
        if not np.isfinite([c.measured, c.bound_or_target, c.tolerance]).all():
            raise NumericalError(f"check {c.name} is not finite: measured {c.measured:.6g}, "
                                 f"target {c.bound_or_target:.6g}, tol {c.tolerance:.6g}")
    return result
