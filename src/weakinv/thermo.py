"""Canonical ensembles along an isoenergetic path.

For a Hamiltonian family H(t) the canonical state at temperature T is
exp(-H/T)/Z. Fixing the mean energy U and solving for T(t) node by node
gives the local-equilibrium description of a process whose expected
energy is conserved while the spectrum of H(t) spreads. Along such a
path the canonical energy variance is T^2 C with C the specific heat,
and its growth translates into the strict inequality

    2 C dT/dt + T dC/dt > 0,

which `check_specific_heat_relation` evaluates by central differences.

Temperatures are in energy units (Boltzmann constant 1). All solvers
work on the eigenvalues, with the ground energy subtracted before
exponentiation so low temperatures cannot overflow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .operators import DensityMatrix, _require_matrix, require_hermitian, variance

ROOT_TOL_REL = 1e-10
T_BRACKET = (1e-6, 1e6)   # relative to the spectral scale of H


def _spectrum(h) -> np.ndarray:
    m = require_hermitian(_require_matrix(h, "Hamiltonian"), name="Hamiltonian")
    return np.linalg.eigvalsh(m)


def _gibbs_weights(evals: np.ndarray, temperature: float) -> np.ndarray:
    shifted = (evals - evals[0]) / temperature
    p = np.exp(-shifted)
    return p / p.sum()


def canonical_state(h, temperature: float) -> DensityMatrix:
    """exp(-H/T)/Z as a certified density matrix."""
    if temperature <= 0.0:
        raise ValidationError(f"temperature must be positive, got {temperature}")
    m = require_hermitian(_require_matrix(h, "Hamiltonian"), name="Hamiltonian")
    w, v = np.linalg.eigh(m)
    p = _gibbs_weights(w, temperature)
    out = v @ (p[:, None] * v.conj().T)
    return DensityMatrix(
        mat=out,
        herm_defect=float(np.abs(out - out.conj().T).max()),
        trace_defect=float(abs(np.trace(out) - 1.0)),
        min_eig=float(p.min()),
    )


def internal_energy(h, temperature: float) -> float:
    """Canonical mean energy U(T) = tr(H exp(-H/T))/Z."""
    if temperature <= 0.0:
        raise ValidationError(f"temperature must be positive, got {temperature}")
    w = _spectrum(h)
    return float(np.dot(_gibbs_weights(w, temperature), w))


def solve_isoenergetic_temperature(h, u: float) -> float:
    """Temperature with canonical mean energy u.

    U(T) increases monotonically from the ground energy (T -> 0) to the
    spectral mean (T -> inf), so u must lie strictly between the two.
    Bisection shrinks the bracket, Newton (with C = dU/dT) polishes; the
    final residual must be below 1e-10 times the spectral scale.
    """
    w = _spectrum(h)
    e_min, e_mean = float(w[0]), float(w.mean())
    scale = max(float(np.abs(w).max()), 1e-30)
    if e_mean - e_min <= 1e-14 * scale:
        raise ValidationError("Hamiltonian is a multiple of the identity; U(T) is flat")
    if not (e_min < u < e_mean):
        raise ValidationError(
            f"target energy {u:.12g} outside the reachable range "
            f"({e_min:.12g}, {e_mean:.12g})"
        )

    def f(temp: float) -> float:
        return float(np.dot(_gibbs_weights(w, temp), w)) - u

    lo, hi = T_BRACKET[0] * scale, T_BRACKET[1] * scale
    flo, fhi = f(lo), f(hi)
    if flo > 0.0 or fhi < 0.0:
        raise NumericalError(
            f"bracket failure: U({lo:.3e}) - u = {flo:.3e}, U({hi:.3e}) - u = {fhi:.3e}"
        )
    for _ in range(80):   # geometric bisection, the bracket spans 12 decades
        if hi - lo <= 1e-3 * lo:
            break
        mid = float(np.sqrt(lo * hi))
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid

    temp = 0.5 * (lo + hi)
    tol = ROOT_TOL_REL * scale
    for _ in range(60):
        resid = f(temp)
        if abs(resid) <= tol:
            return float(temp)
        if resid < 0.0:
            lo = temp
        else:
            hi = temp
        p = _gibbs_weights(w, temp)
        var = float(np.dot(p, w * w) - np.dot(p, w) ** 2)
        deriv = var / temp**2
        nxt = temp - resid / deriv if deriv > 0.0 else 0.0
        temp = nxt if lo < nxt < hi else 0.5 * (lo + hi)
    resid = f(temp)
    if abs(resid) > tol:
        raise NumericalError(
            f"temperature solve stalled: residual {resid:.3e} exceeds {tol:.3e}"
        )
    return float(temp)


@dataclass
class IsoenergeticPath:
    """Per-node canonical description of a fixed-energy process."""

    times: np.ndarray
    u: float
    temperature: np.ndarray
    heat_capacity: np.ndarray
    var_h: np.ndarray
    states: list[DensityMatrix]


def build_isoenergetic_path(h_of_t, times, u: float) -> IsoenergeticPath:
    """Solve T(t) with U fixed for each node of a uniform time grid."""
    ts = np.asarray(times, dtype=float)
    if ts.ndim != 1 or ts.size < 3:
        raise ValidationError("need a 1-d grid with at least 3 nodes")
    steps = np.diff(ts)
    if np.abs(steps - steps[0]).max() > 1e-9 * abs(steps[0]):
        raise ValidationError("time grid must be uniform for the difference checks")
    temps = np.empty(ts.size)
    heats = np.empty(ts.size)
    var_h = np.empty(ts.size)
    states: list[DensityMatrix] = []
    for i, t in enumerate(ts):
        h = h_of_t(t)
        temps[i] = solve_isoenergetic_temperature(h, u)
        state = canonical_state(h, temps[i])
        var_h[i] = variance(h, state)
        heats[i] = var_h[i] / temps[i] ** 2
        states.append(state)
    return IsoenergeticPath(
        times=ts, u=float(u), temperature=temps,
        heat_capacity=heats, var_h=var_h, states=states,
    )


def check_specific_heat_relation(path: IsoenergeticPath) -> dict:
    """Central-difference test of 2 C T' + T C' > 0 and of the identity
    T (2 C T' + T C') = d(T^2 C)/dt, reported at interior nodes."""
    dt = float(path.times[1] - path.times[0])
    t_dot = np.gradient(path.temperature, dt, edge_order=2)
    c_dot = np.gradient(path.heat_capacity, dt, edge_order=2)
    lhs = 2.0 * path.heat_capacity * t_dot + path.temperature * c_dot
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


def trace_distance(rho_a, rho_b) -> float:
    """(1/2) tr |a - b| for Hermitian matrices."""
    ma = require_hermitian(rho_a, name="a")
    mb = require_hermitian(rho_b, name="b")
    if ma.shape != mb.shape or ma.ndim != 2:
        raise ValidationError(f"need two matrices of one shape, got {ma.shape} vs {mb.shape}")
    return float(0.5 * np.abs(np.linalg.eigvalsh(ma - mb)).sum())
