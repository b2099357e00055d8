"""Dissipative dynamics and the co-evolving weak invariant.

The state obeys the completely positive master equation

    d rho / dt = -i [H, rho] - sum_n c_n (L_n^dag L_n rho + rho L_n^dag L_n
                                          - 2 L_n rho L_n^dag),

with nonnegative rates c_n, and a weak invariant I(t) obeys the adjoint
equation

    d I / dt = -i [H, I] + sum_n c_n (L_n^dag L_n I + I L_n^dag L_n
                                      - 2 L_n^dag I L_n),

so that tr(I(t) rho(t)) is constant while the spectrum of I(t) may move.
Along any such pair the second moment of the invariant can only grow,
at the rate

    d (Delta I)^2 / dt = 2 sum_n c_n < [L_n, I]^dag [L_n, I] >  >=  0,

and the entropy production is bounded below by 2 sum_n c_n <[L_n^dag, L_n]>
(with the alpha-escort average for the Renyi family). The integrator
checks all of this on the fly: conservation and positivity breaches abort
the run rather than producing quietly wrong series.

A caution on the invariant equation: integrated forward it is the inverse
of a contractive (unital, completely positive) flow, so components of I
outside the physically resolved subspace are amplified at rates up to
c_n * spread(spec(L_n))^2. For bounded generators (spin-sized L) this is
harmless and the matrix equation is integrated directly. For truncated
unbounded operators the amplification is catastrophic. Both models here
choose their rates so that H(t) itself is the weak invariant, so without
an initial invariant `integrate` takes I(t) = H(t) in closed form from the
generator it already evaluates at every node.

The jump operators are one constant (n, dim, dim) stack; only H and the
rates depend on time. Both equations are evaluated in effective-Hamiltonian
form: with H_eff = H - i sum_n c_n L_n^dag L_n and the scaled jumps
sqrt(c_n) L_n, each right-hand side is two products with H_eff plus one
stacked jump sandwich, and one such kernel per distinct time serves every
stage of both Runge-Kutta steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import NumericalError, ValidationError
from .operators import (
    DensityMatrix,
    _as_matrix,
    require_hermitian,
)

EVAL_FLOOR = 1e-15       # eigenvalues at or below this count as exact zeros in entropies
C_TOL = 1e-12            # how negative a rate may be before it is an input error
CONSERVATION_TOL = 1e-7
POSITIVITY_FLOOR = -1e-8


@dataclass(frozen=True)
class LindbladGenerator:
    """Time-dependent generator data: H(t), constant jump operators L_n, rates c_n(t).

    `hamiltonian` is a callable of time, `jumps` one (n, dim, dim) stack
    checked for shape and finiteness at construction, and `rates` one
    callable that returns every c_n at once, so models whose rates share a
    formula compute it once per time. Every evaluation certifies H finite
    and Hermitian with the right shape, one finite rate per jump operator,
    and rates nonnegative within C_TOL (tiny negative roundoff is clamped
    to 0).
    """

    dim: int
    hamiltonian: Callable[[float], np.ndarray]
    jumps: np.ndarray
    rates: Callable[[float], Sequence[float]]

    def __post_init__(self):
        jumps = np.asarray(self.jumps, dtype=complex)
        if jumps.ndim != 3 or jumps.shape[1:] != (self.dim, self.dim):
            raise ValidationError(
                f"jumps must be an (n, {self.dim}, {self.dim}) stack, got shape {jumps.shape}"
            )
        if not np.isfinite(jumps).all():
            raise ValidationError("jump operators have a non-finite entry")
        object.__setattr__(self, "jumps", jumps)

    def eval(self, t: float):
        """(H(t), the rates c_n(t) as an array), both certified."""
        h = require_hermitian(self.hamiltonian(t), name=f"H({t})")
        if h.shape != (self.dim, self.dim):
            raise ValidationError(f"H({t}) has shape {h.shape}, expected dim {self.dim}")
        if not np.isfinite(h).all():
            raise ValidationError(f"H({t}) has a non-finite entry")
        rates = np.asarray(self.rates(t), dtype=float)
        if rates.shape != (len(self.jumps),):
            raise ValidationError(
                f"{len(self.jumps)} jump operators but rates({t}) has shape "
                f"{rates.shape}"
            )
        if not np.isfinite(rates).all():
            raise ValidationError(f"rates({t}) = {rates.tolist()} are not all finite")
        for k, c in enumerate(rates.tolist()):
            if c < -C_TOL:
                raise ValidationError(
                    f"rate c_{k}({t}) = {c:.6e} is negative beyond tolerance {C_TOL:.0e}"
                )
        return h, np.maximum(rates, 0.0)


class Kernel:
    """The generator at one time in effective-Hamiltonian form.

    H_eff = H - i sum_n c_n L_n^dag L_n and the stack of sqrt(c_n) L_n
    (channels with c_n = 0 dropped) are all that both right-hand sides,
    the growth rate and the entropy bound need, so one generator
    evaluation per distinct time serves all of them. H itself is kept as
    `h`: it is the closed-form invariant when none is integrated.
    """

    __slots__ = ("h", "h_eff", "h_eff_dag", "jumps", "jumps_dag")

    def __init__(self, gen: LindbladGenerator, t: float):
        h, cs = gen.eval(t)
        on = cs > 0.0
        jumps = np.sqrt(cs[on])[:, None, None] * gen.jumps[on]
        self.h = h
        self.jumps = jumps
        self.jumps_dag = jumps.conj().transpose(0, 2, 1)
        self.h_eff = h - 1j * (self.jumps_dag @ jumps).sum(axis=0)
        self.h_eff_dag = self.h_eff.conj().T

    def state_rhs(self, m: np.ndarray) -> np.ndarray:
        """-i (H_eff rho - rho H_eff^dag) + 2 sum_n L~_n rho L~_n^dag."""
        return (-1j * (self.h_eff @ m - m @ self.h_eff_dag)
                + 2.0 * (self.jumps @ m @ self.jumps_dag).sum(axis=0))

    def invariant_rhs(self, m: np.ndarray) -> np.ndarray:
        """-i (H_eff^dag I - I H_eff) - 2 sum_n L~_n^dag I L~_n."""
        return (-1j * (self.h_eff_dag @ m - m @ self.h_eff)
                - 2.0 * (self.jumps_dag @ m @ self.jumps).sum(axis=0))

    def growth_rate(self, i_mat: np.ndarray, m: np.ndarray) -> float:
        """2 sum_n tr([L~_n, I]^dag [L~_n, I] rho), the variance growth rate.

        Each term is the second moment of a commutator, hence nonnegative up
        to roundoff; a value below -1e-12 means the inputs were inconsistent.
        """
        comm = self.jumps @ i_mat - i_mat @ self.jumps
        rate = 2.0 * float(np.vdot(comm, comm @ m).real)
        if rate < -1e-12:
            raise NumericalError(f"growth rate {rate:.3e} is negative; inputs inconsistent")
        return rate

    def bound_terms(self, weight: np.ndarray) -> float:
        """2 tr(sum_n [L~_n^dag, L~_n] weight), the entropy-rate lower bound
        averaged in `weight` (the state, or its escort for the Renyi family).

        Exactly 0 when every jump is normal (in particular Hermitian), the
        self-adjoint-noise case.
        """
        comm = (self.jumps_dag @ self.jumps - self.jumps @ self.jumps_dag).sum(axis=0)
        if not comm.any():
            return 0.0
        val = 2.0 * complex(np.sum(comm * weight.T))
        if abs(val.imag) > 1e-9 * max(abs(val), 1.0):
            raise NumericalError(f"entropy bound has imaginary residue {val.imag:.3e}")
        return val.real


def rk4_step(rhs, kernels, m: np.ndarray, dt: float) -> np.ndarray:
    """One classic RK4 step of dm/dt = rhs(kernel, m).

    `kernels` holds whatever `rhs` needs to know of the step's start,
    midpoint and end: a `Kernel` each for the Lindblad equations, the
    three times themselves for the classical grid. The midpoint entry
    serves both middle stages.
    """
    k_start, k_mid, k_end = kernels
    k1 = rhs(k_start, m)
    k2 = rhs(k_mid, m + 0.5 * dt * k1)
    k3 = rhs(k_mid, m + 0.5 * dt * k2)
    k4 = rhs(k_end, m + dt * k3)
    return m + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


# -- entropies ---------------------------------------------------------------

def _clipped_evals(rho) -> np.ndarray:
    m = _as_matrix(rho)
    defect = float(np.abs(m - m.conj().T).max(initial=0.0))
    if defect > 1e-8:
        raise ValidationError(f"entropy of a non-Hermitian state (defect {defect:.3e})")
    tr = float(np.trace(m).real)
    if abs(tr - 1.0) > 1e-6:
        raise ValidationError(f"entropy of a non-normalised state (trace {tr:.6g})")
    w = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
    if w[0] < -1e-8:
        raise ValidationError(f"entropy of a non-positive state (min eigenvalue {w[0]:.3e})")
    return w


def _vn_from_evals(w: np.ndarray) -> float:
    pos = w[w > EVAL_FLOOR]
    return float(-np.sum(pos * np.log(pos)))


def _renyi_from_evals(w: np.ndarray, alpha: float) -> float:
    if alpha == 1.0:
        return _vn_from_evals(w)
    pos = np.clip(w, 0.0, None)
    return float(np.log(np.sum(pos ** alpha)) / (1.0 - alpha))


def vn_entropy(rho) -> float:
    """-tr(rho ln rho), with eigenvalues <= 1e-15 excluded (0 ln 0 = 0)."""
    return _vn_from_evals(_clipped_evals(rho))


def renyi_entropy(rho, alpha: float) -> float:
    """ln tr(rho^alpha) / (1 - alpha) for alpha > 0; alpha = 1 falls back to vn."""
    if alpha <= 0.0:
        raise ValidationError(f"Renyi order must be positive, got {alpha}")
    return _renyi_from_evals(_clipped_evals(rho), alpha)


def _escort(w: np.ndarray, v: np.ndarray, alpha: float):
    """Escort weights p = w_+^alpha / sum(w_+^alpha) and V diag(p) V^dag."""
    p = np.clip(w, 0.0, None) ** alpha
    z = float(np.sum(p))
    if z <= 0.0:
        raise NumericalError("escort normalisation vanished; state is numerically zero")
    p /= z
    return p, v @ (p[:, None] * v.conj().T)


# -- trajectory integration --------------------------------------------------

SERIES_KEYS = (
    "exp_I", "var_I", "growth_formula", "growth_fd",
    "S_vn", "S_renyi", "bound_vn", "bound_renyi", "trace_err", "min_eig",
)


@dataclass
class Trajectory:
    """Co-integrated (state, invariant) pair plus per-node diagnostics.

    `states` and `invariants` are (n_nodes, dim, dim) arrays, one matrix
    per node of `times`.
    """

    times: np.ndarray
    states: np.ndarray
    invariants: np.ndarray
    series: dict[str, np.ndarray]
    notes: dict[str, float] = field(default_factory=dict)


def time_grid(t0: float, t1: float, dt: float) -> np.ndarray:
    """Nodes t0, t0 + dt, ..., t1; dt must tile [t0, t1] in at least two whole steps."""
    if dt <= 0.0:
        raise ValidationError(f"dt must be positive, got {dt}")
    if t1 <= t0:
        raise ValidationError(f"need t1 > t0, got [{t0}, {t1}]")
    n = int(round((t1 - t0) / dt))
    if n < 2 or abs(t0 + n * dt - t1) > 1e-9 * max(1.0, abs(t1)):
        raise ValidationError(
            f"dt {dt} does not tile [{t0}, {t1}] into at least two whole steps"
        )
    return t0 + dt * np.arange(n + 1)


def integrate(
    gen: LindbladGenerator,
    rho0,
    i0=None,
    t0: float = 0.0,
    t1: float = 0.5,
    dt: float = 1e-3,
    alpha: float = 2.0,
) -> Trajectory:
    """Fixed-step joint integration of state and invariant.

    Classic fourth-order Runge-Kutta advances rho and (when `i0` is
    given) the invariant matrix through shared stages, so both see the
    generator at identical times. The generator is evaluated once per
    distinct time: at each node (reused as the previous step's final
    stage) and at each midpoint, 2N + 1 evaluations for N steps. Without
    `i0` the invariant is H(t) itself, read in closed form from each
    node's kernel, and only rho is stepped; the conservation guard then
    checks that H(t) really is a weak invariant of `gen`.

    The state is re-Hermitized once per step ((rho + rho^dag)/2, the
    applied correction is tracked in notes); trace and positivity are
    monitored, never enforced. The run aborts with a NumericalError if
    the state stops being finite, tr(I rho) drifts beyond CONSERVATION_TOL
    (relative to its initial size) or an eigenvalue of rho falls below
    POSITIVITY_FLOOR.
    """
    if alpha <= 0.0:
        raise ValidationError(f"alpha must be positive, got {alpha}")

    times = time_grid(t0, t1, dt)
    n_nodes = times.size

    m = DensityMatrix.from_matrix(rho0).mat.copy()
    kern = Kernel(gen, times[0])
    i_mat = kern.h if i0 is None else require_hermitian(i0, name="I(t0)").copy()

    states = np.empty((n_nodes,) + m.shape, dtype=complex)
    invariants = np.empty_like(states)
    cols = {k: np.empty(n_nodes) for k in SERIES_KEYS}
    max_herm_fix = 0.0
    exp0 = None

    for idx, t in enumerate(times):
        # node diagnostics
        if not np.isfinite(m).all():
            raise NumericalError(f"state is not finite at t = {t:.6g}; reduce dt")
        sym = 0.5 * (m + m.conj().T)
        w, v = np.linalg.eigh(sym)
        min_eig = float(w[0])
        trace_err = float(abs(np.trace(m) - 1.0))
        if min_eig < POSITIVITY_FLOOR:
            raise NumericalError(
                f"state lost positivity at t = {t:.6g}: min eigenvalue {min_eig:.3e} "
                f"below floor {POSITIVITY_FLOOR:.1e}; reduce dt (positivity is "
                "monitored, not enforced)"
            )

        i2 = i_mat @ i_mat
        e_val = complex(np.trace(i_mat @ m))
        e2_val = complex(np.trace(i2 @ m))
        if abs(e_val.imag) > 1e-9 * max(abs(e_val), 1.0):
            raise NumericalError(
                f"<I> at t = {t:.6g} has imaginary residue {e_val.imag:.3e}"
            )
        exp_i = e_val.real
        var_i = e2_val.real - exp_i * exp_i
        if var_i < 0.0:
            if var_i < -1e-10:
                raise NumericalError(f"variance {var_i:.3e} negative at t = {t:.6g}")
            var_i = 0.0

        if exp0 is None:
            exp0 = exp_i
            cons_scale = abs(exp0) if abs(exp0) > 1e-12 else 1.0
        drift = abs(exp_i - exp0)
        if drift > CONSERVATION_TOL * cons_scale:
            raise NumericalError(
                f"conservation breach at t = {t:.6g}: <I> drifted by {drift:.3e} "
                f"(allowed {CONSERVATION_TOL * cons_scale:.3e}); the pair no longer "
                "solves the two evolution equations consistently"
            )

        escort = _escort(w, v, alpha)[1] if alpha != 1.0 else sym

        cols["exp_I"][idx] = exp_i
        cols["var_I"][idx] = var_i
        cols["growth_formula"][idx] = kern.growth_rate(i_mat, m)
        cols["S_vn"][idx] = _vn_from_evals(w)
        cols["S_renyi"][idx] = _renyi_from_evals(w, alpha)
        cols["bound_vn"][idx] = kern.bound_terms(sym)
        cols["bound_renyi"][idx] = kern.bound_terms(escort)
        cols["trace_err"][idx] = trace_err
        cols["min_eig"][idx] = min_eig
        states[idx] = m
        invariants[idx] = i_mat

        if idx == n_nodes - 1:
            break

        kernels = (kern, Kernel(gen, t + 0.5 * dt), Kernel(gen, times[idx + 1]))
        m = rk4_step(Kernel.state_rhs, kernels, m, dt)
        fix = float(np.abs(m - m.conj().T).max())
        max_herm_fix = max(max_herm_fix, fix)
        m = 0.5 * (m + m.conj().T)

        kern = kernels[2]
        if i0 is None:
            i_mat = kern.h
        else:
            i_mat = rk4_step(Kernel.invariant_rhs, kernels, i_mat, dt)
            i_mat = 0.5 * (i_mat + i_mat.conj().T)

    cols["growth_fd"] = np.gradient(cols["var_I"], dt, edge_order=2)
    return Trajectory(
        times=times,
        states=states,
        invariants=invariants,
        series=cols,
        notes={"max_herm_correction": max_herm_fix},
    )
