"""Canonical ensembles along an isoenergetic path.

For a Hamiltonian family H(t) the canonical state at temperature T is
exp(-H/T)/Z. Fixing the mean energy U and solving for T(t) at every node
gives the local-equilibrium description of a process whose expected
energy is conserved while the spectrum of H(t) spreads. Along such a
path the canonical energy variance is T^2 C with C the specific heat,
and its growth translates into the strict inequality

    2 C dT/dt + T dC/dt > 0,

which `check_specific_heat_relation` evaluates by central differences.

Temperatures are in energy units (Boltzmann constant 1). The helpers
take stacks (..., d, d), temperatures and energies broadcasting per
member, and work on the eigenvalues, with the ground energy subtracted
before exponentiation so low temperatures cannot overflow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .operators import (DensityMatrix, _as_matrix, _breach, _member, _require_square, abort_at,
                        dagger, require_hermitian, variance)

ROOT_TOL_REL = 1e-10
T_BRACKET = (1e-6, 1e6)   # relative to the spectral scale of H


def _hamiltonian(h) -> np.ndarray:
    return require_hermitian(_require_square(_as_matrix(h), "Hamiltonian"), name="Hamiltonian")


def _temperatures(temperature) -> np.ndarray:
    temps = np.asarray(temperature)
    abort_at(~(temps > 0.0), ValidationError,
             lambda at: f"{_member(at)}temperature must be positive, got {temps[at]}")
    return temps


def _gibbs_weights(evals: np.ndarray, temps: np.ndarray) -> np.ndarray:
    """exp(-E/T)/Z along the last axis of ascending spectra, one T per member."""
    p = np.exp(-(evals - evals[..., :1]) / temps[..., None])
    return p / p.sum(axis=-1, keepdims=True)


def canonical_state(h, temperature) -> DensityMatrix:
    """exp(-H/T)/Z as a certified density matrix, per member for stacks."""
    temps = _temperatures(temperature)
    w, v = np.linalg.eigh(_hamiltonian(h))
    p = _gibbs_weights(w, temps)
    out = v @ (p[..., :, None] * dagger(v))
    return DensityMatrix(mat=out, min_eig=p.min(axis=-1))


def internal_energy(h, temperature):
    """Canonical mean energy U(T) = tr(H exp(-H/T))/Z, per member for stacks."""
    temps = _temperatures(temperature)
    w = np.linalg.eigvalsh(_hamiltonian(h))
    return np.vecdot(_gibbs_weights(w, temps), w)


def solve_isoenergetic_temperature(h, u):
    """Temperature with canonical mean energy u, per member for stacks.

    U(T) increases monotonically from the ground energy (T -> 0) to the
    spectral mean (T -> inf), so u must lie strictly between the two.
    Bisection shrinks the bracket, Newton (with C = dU/dT) polishes; the
    final residual must be below 1e-10 times the spectral scale. Members
    step alone and stop once converged; a breach names the earliest member,
    at one member in the order flat, unreachable, bracket, stalled.
    """
    evals = np.linalg.eigvalsh(_hamiltonian(h))
    shape, d = np.broadcast_shapes(evals.shape[:-1], np.shape(u)), evals.shape[-1]
    w = np.broadcast_to(evals, shape + (d,)).reshape(-1, d)
    u = np.broadcast_to(np.asarray(u, dtype=float), shape).ravel()

    def f(temps, k=slice(None)):   # U(T) - u on members k, and the weights
        p = _gibbs_weights(w[k], temps)
        return np.vecdot(p, w[k]) - u[k], p

    e_min, e_mean = w[:, 0], w.mean(axis=-1)
    scale = np.maximum(np.abs(w).max(axis=-1), 1e-30)
    flat = e_mean - e_min <= 1e-14 * scale
    outside = ~((e_min < u) & (u < e_mean))
    bottom, top = T_BRACKET[0] * scale, T_BRACKET[1] * scale
    f_lo, f_hi = f(bottom)[0], f(top)[0]
    bracket = (f_lo > 0.0) | (f_hi < 0.0)
    live, resid = ~(flat | outside | bracket), np.full(u.size, np.nan)

    lo, hi = bottom.copy(), top.copy()
    for _ in range(80):   # geometric bisection, the bracket spans 12 decades
        k = np.flatnonzero(live & ~(hi - lo <= 1e-3 * lo))   # a bracket once narrow stays so
        if k.size == 0:
            break
        mid = np.sqrt(lo[k] * hi[k])
        below = f(mid, k)[0] < 0.0
        lo[k[below]], hi[k[~below]] = mid[below], mid[~below]

    temp, tol = 0.5 * (lo + hi), ROOT_TOL_REL * scale
    for polish in range(61):   # a residual test before each of 60 Newton steps, and a last
        k = np.flatnonzero(live)
        resid[k], p = f(temp[k], k)
        live[k] = np.abs(resid[k]) > tol[k]
        if polish == 60 or not live.any():
            break
        k, p = k[live[k]], p[live[k]]
        t, r = temp[k], resid[k]
        lo[k], hi[k] = np.where(r < 0.0, t, lo[k]), np.where(r < 0.0, hi[k], t)
        deriv = (np.vecdot(p, w[k] ** 2) - np.vecdot(p, w[k]) ** 2) / t**2
        nxt = t - np.divide(r, deriv, out=np.full(k.size, np.inf), where=deriv > 0.0)
        temp[k] = np.where((lo[k] < nxt) & (nxt < hi[k]), nxt, 0.5 * (lo[k] + hi[k]))

    guard = np.select([flat, outside, bracket, live], [1, 2, 3, 4]).reshape(shape)
    at = _breach(guard > 0)
    if at is not None:
        n = np.ravel_multi_index(at, shape)
        exc, text = (
            (ValidationError, "Hamiltonian is a multiple of the identity; U(T) is flat"),
            (ValidationError, f"target energy {u[n]:.12g} outside the reachable range "
                              f"({e_min[n]:.12g}, {e_mean[n]:.12g})"),
            (NumericalError, f"bracket failure: U({bottom[n]:.3e}) - u = {f_lo[n]:.3e}, "
                             f"U({top[n]:.3e}) - u = {f_hi[n]:.3e}"),
            (NumericalError, f"temperature solve stalled: residual {resid[n]:.3e} "
                             f"exceeds {tol[n]:.3e}"),
        )[guard[at] - 1]
        raise exc(_member(at) + text)
    return temp.reshape(shape)[()]


@dataclass
class IsoenergeticPath:
    """Per-node canonical description of a fixed-energy process."""

    times: np.ndarray
    temperature: np.ndarray
    heat_capacity: np.ndarray
    var_h: np.ndarray
    states: DensityMatrix
    heating: np.ndarray   # 2 C T' + T C' by central differences, second order at the ends


def build_isoenergetic_path(h, times, u: float) -> IsoenergeticPath:
    """Solve T(t) with U fixed at every node of a uniform time grid.

    h is the (n, d, d) stack of the path's Hamiltonians, one per node.
    """
    ts = np.asarray(times, dtype=float)
    if ts.ndim != 1 or ts.size < 3:
        raise ValidationError("need a 1-d grid with at least 3 nodes")
    steps = np.diff(ts)
    if np.abs(steps - steps[0]).max() > 1e-9 * abs(steps[0]):
        raise ValidationError("time grid must be uniform for the difference checks")
    hs = _as_matrix(h)
    if hs.shape[:-2] != ts.shape:
        raise ValidationError(f"need one Hamiltonian per node, got {hs.shape} for {ts.size}")
    temps = solve_isoenergetic_temperature(hs, u)
    states = canonical_state(hs, temps)
    var_h = variance(hs, states)
    heats, dt = var_h / temps**2, float(ts[1] - ts[0])
    heating = (2.0 * heats * np.gradient(temps, dt, edge_order=2)
               + temps * np.gradient(heats, dt, edge_order=2))
    return IsoenergeticPath(times=ts, temperature=temps, heat_capacity=heats,
                            var_h=var_h, states=states, heating=heating)


def check_specific_heat_relation(path: IsoenergeticPath) -> dict:
    """Central-difference test of 2 C T' + T C' > 0 and of the identity
    T (2 C T' + T C') = d(T^2 C)/dt, reported at interior nodes."""
    dt = float(path.times[1] - path.times[0])
    lhs = path.heating
    var_rate = np.gradient(path.temperature**2 * path.heat_capacity, dt, edge_order=2)
    interior = slice(1, -1)
    prod = path.temperature[interior] * lhs[interior]
    ref = var_rate[interior]
    rel = np.abs(prod - ref) / np.maximum(np.abs(ref), 1e-30)
    return {
        "min_lhs": float(lhs[interior].min()),
        "max_identity_rel_err": float(rel.max()),
        "n_interior": int(ref.size),
    }


def trace_distance(rho_a, rho_b):
    """(1/2) tr |a - b| for Hermitian matrices, per member for stacks of one shape."""
    ma = require_hermitian(rho_a, name="a")
    mb = require_hermitian(rho_b, name="b")
    if ma.shape != mb.shape:
        raise ValidationError(f"need two matrices of one shape, got {ma.shape} vs {mb.shape}")
    return 0.5 * np.abs(np.linalg.eigvalsh(ma - mb)).sum(axis=-1)
