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
unbounded operators the amplification is catastrophic; callers in that
regime must supply the invariant in closed form via `invariant_path`
(see the oscillator model, whose invariant stays inside a closed operator
algebra with exact coefficient dynamics).

Both equations are evaluated in effective-Hamiltonian form: with
H_eff = H - i sum_n c_n L_n^dag L_n and the scaled jumps sqrt(c_n) L_n,
each right-hand side is two products with H_eff plus one stacked jump
sandwich, and one such kernel per distinct time serves every stage of
both Runge-Kutta steps.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import NumericalError, ValidationError
from .operators import (
    DensityMatrix,
    _as_matrix,
    require_hermitian,
)

log = logging.getLogger(__name__)

EVAL_FLOOR = 1e-15       # eigenvalues at or below this are treated as exact zeros in logs
C_TOL = 1e-12            # how negative a rate may be before it is an input error
CONSERVATION_TOL = 1e-7
POSITIVITY_FLOOR = -1e-8


@dataclass(frozen=True)
class LindbladGenerator:
    """Time-dependent generator data: H(t), jump operators L_n(t), rates c_n(t).

    H and each L_n are callables of time; `rates` is one callable that
    returns every c_n at once, so models whose rates share a formula
    compute it once per time. Constant pieces are just constant callables.
    Every evaluation certifies H Hermitian, shapes consistent, one rate
    per jump operator, and rates nonnegative within C_TOL (tiny negative
    roundoff is clamped to 0).
    """

    dim: int
    hamiltonian: Callable[[float], np.ndarray]
    lindblads: tuple[Callable[[float], np.ndarray], ...]
    rates: Callable[[float], Sequence[float]]

    def eval(self, t: float):
        h = require_hermitian(self.hamiltonian(t), name=f"H({t})")
        if h.shape != (self.dim, self.dim):
            raise ValidationError(f"H({t}) has shape {h.shape}, expected dim {self.dim}")
        rates = np.asarray(self.rates(t), dtype=float)
        if rates.shape != (len(self.lindblads),):
            raise ValidationError(
                f"{len(self.lindblads)} jump operators but rates({t}) has shape "
                f"{rates.shape}"
            )
        ls, cs = [], []
        for k, (lf, c) in enumerate(zip(self.lindblads, rates.tolist())):
            l_op = np.asarray(lf(t), dtype=complex)
            if l_op.shape != (self.dim, self.dim):
                raise ValidationError(
                    f"L_{k}({t}) has shape {l_op.shape}, expected dim {self.dim}"
                )
            if c < -C_TOL:
                raise ValidationError(
                    f"rate c_{k}({t}) = {c:.6e} is negative beyond tolerance {C_TOL:.0e}"
                )
            ls.append(l_op)
            cs.append(max(c, 0.0))
        return h, ls, cs


class Kernel:
    """The generator at one time in effective-Hamiltonian form.

    H_eff = H - i sum_n c_n L_n^dag L_n and the stack of sqrt(c_n) L_n
    (channels with c_n = 0 dropped) are all that both right-hand sides,
    the growth rate and the entropy bound need, so one generator
    evaluation per distinct time serves all of them.
    """

    __slots__ = ("h_eff", "h_eff_dag", "jumps", "jumps_dag")

    def __init__(self, gen: LindbladGenerator, t: float):
        h, ls, cs = gen.eval(t)
        jumps = np.array([np.sqrt(c) * l_op for l_op, c in zip(ls, cs) if c > 0.0],
                         dtype=complex).reshape(-1, gen.dim, gen.dim)
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
        """2 sum_n tr([L~_n, I]^dag [L~_n, I] rho)."""
        comm = self.jumps @ i_mat - i_mat @ self.jumps
        return 2.0 * float(np.vdot(comm, comm @ m).real)

    def bound_terms(self, weight: np.ndarray) -> complex:
        """2 tr(sum_n [L~_n^dag, L~_n] weight); exactly 0 when every jump is normal."""
        comm = (self.jumps_dag @ self.jumps - self.jumps @ self.jumps_dag).sum(axis=0)
        if not comm.any():
            return 0j
        return 2.0 * complex(np.sum(comm * weight.T))


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


def lindblad_rhs(gen: LindbladGenerator, rho, t: float) -> np.ndarray:
    """Right-hand side of the master equation at time t."""
    return Kernel(gen, t).state_rhs(_as_matrix(rho))


def weak_invariant_rhs(gen: LindbladGenerator, i_op, t: float) -> np.ndarray:
    """Right-hand side of the invariant equation (note the adjoint jump term)."""
    return Kernel(gen, t).invariant_rhs(_as_matrix(i_op))


def fluctuation_growth_rate(gen: LindbladGenerator, i_op, rho, t: float) -> float:
    """2 sum_n c_n <[L_n, I]^dag [L_n, I]>, the variance growth rate.

    Each term is the second moment of a commutator, hence nonnegative up
    to roundoff; a value below -1e-12 means the inputs were inconsistent.
    """
    rate = Kernel(gen, t).growth_rate(_as_matrix(i_op), _as_matrix(rho))
    if rate < -1e-12:
        raise NumericalError(f"growth rate {rate:.3e} is negative; inputs inconsistent")
    return rate


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


def escort_density(rho, alpha: float) -> DensityMatrix:
    """rho^alpha / tr(rho^alpha), the escort state for alpha-averages."""
    if alpha <= 0.0:
        raise ValidationError(f"escort order must be positive, got {alpha}")
    m = _as_matrix(rho)
    defect = float(np.abs(m - m.conj().T).max(initial=0.0))
    if defect > 1e-8:
        raise ValidationError(f"escort of a non-Hermitian state (defect {defect:.3e})")
    if alpha == 1.0:
        return DensityMatrix.from_matrix(m)
    sym = 0.5 * (m + m.conj().T)
    w, v = np.linalg.eigh(sym)
    if w[0] < -1e-8:
        raise ValidationError(f"escort of a non-positive state (min eigenvalue {w[0]:.3e})")
    p, out = _escort(w, v, alpha)
    return DensityMatrix(
        mat=out,
        herm_defect=float(np.abs(out - out.conj().T).max()),
        trace_defect=float(abs(np.trace(out) - 1.0)),
        min_eig=float(p.min()),
    )


def _bound_terms(gen: LindbladGenerator, weight, t: float) -> float:
    """2 sum_n c_n tr([L_n^dag, L_n] weight) for a given averaging state."""
    val = Kernel(gen, t).bound_terms(_as_matrix(weight))
    if abs(val.imag) > 1e-9 * max(abs(val), 1.0):
        raise NumericalError(f"entropy bound has imaginary residue {val.imag:.3e}")
    return val.real


def entropy_rate_bound(gen: LindbladGenerator, rho, t: float) -> float:
    """Lower bound on dS/dt: 2 sum_n c_n <[L_n^dag, L_n]>.

    Identically zero when every jump operator is normal (in particular
    Hermitian), which is the self-adjoint-noise case.
    """
    return _bound_terms(gen, rho, t)


def renyi_rate_bound(gen: LindbladGenerator, rho, t: float, alpha: float) -> float:
    """Renyi-family version of the bound, averaged in the escort state."""
    return _bound_terms(gen, escort_density(rho, alpha), t)


# -- trajectory integration --------------------------------------------------

SERIES_KEYS = (
    "exp_I", "var_I", "growth_formula", "growth_fd",
    "S_vn", "S_renyi", "bound_vn", "bound_renyi", "trace_err", "min_eig",
)


@dataclass
class Trajectory:
    """Co-integrated (state, invariant) pair plus per-node diagnostics."""

    times: np.ndarray
    states: list[DensityMatrix]
    invariants: list[np.ndarray]
    series: dict[str, np.ndarray]
    alpha: float
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
    *,
    invariant_path: Callable[[float], np.ndarray] | None = None,
    conservation_tol: float = CONSERVATION_TOL,
    positivity_floor: float = POSITIVITY_FLOOR,
) -> Trajectory:
    """Fixed-step joint integration of state and invariant.

    Classic fourth-order Runge-Kutta advances rho and (when `i0` is
    given) the invariant matrix through shared stages, so both see the
    generator at identical times. The generator is evaluated once per
    distinct time: at each node (reused as the previous step's final
    stage) and at each midpoint, 2N + 1 evaluations for N steps.
    Alternatively `invariant_path` supplies I(t) in closed form and only
    rho is stepped; exactly one of the two must be provided.

    The state is re-Hermitized once per step ((rho + rho^dag)/2, the
    applied correction is tracked in notes); trace and positivity are
    monitored, never enforced. The run aborts with a NumericalError if
    tr(I rho) drifts beyond conservation_tol (relative to its initial
    size) or an eigenvalue of rho falls below positivity_floor.
    """
    if alpha <= 0.0:
        raise ValidationError(f"alpha must be positive, got {alpha}")
    if (i0 is None) == (invariant_path is None):
        raise ValidationError("provide exactly one of i0 or invariant_path")

    times = time_grid(t0, t1, dt)
    n_nodes = times.size

    state = DensityMatrix.from_matrix(rho0)
    m = state.mat.copy()
    if i0 is not None:
        i_mat = require_hermitian(i0, name="I(t0)").copy()
    else:
        i_mat = require_hermitian(invariant_path(times[0]), name="invariant_path(t0)")

    states: list[DensityMatrix] = []
    invariants: list[np.ndarray] = []
    cols = {k: np.empty(n_nodes) for k in SERIES_KEYS}
    max_herm_fix = 0.0
    exp0 = None

    kern = Kernel(gen, times[0])
    for idx, t in enumerate(times):
        # node diagnostics
        sym = 0.5 * (m + m.conj().T)
        w, v = np.linalg.eigh(sym)
        min_eig = float(w[0])
        trace_err = float(abs(np.trace(m) - 1.0))
        if min_eig < positivity_floor:
            raise NumericalError(
                f"state lost positivity at t = {t:.6g}: min eigenvalue {min_eig:.3e} "
                f"below floor {positivity_floor:.1e}; reduce dt (positivity is "
                "monitored, not enforced)"
            )
        node_state = DensityMatrix(
            mat=m.copy(),
            herm_defect=float(np.abs(m - m.conj().T).max()),
            trace_defect=trace_err,
            min_eig=min_eig,
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
        if drift > conservation_tol * cons_scale:
            raise NumericalError(
                f"conservation breach at t = {t:.6g}: <I> drifted by {drift:.3e} "
                f"(allowed {conservation_tol * cons_scale:.3e}); the pair no longer "
                "solves the two evolution equations consistently"
            )

        escort = _escort(w, v, alpha)[1] if alpha != 1.0 else sym

        cols["exp_I"][idx] = exp_i
        cols["var_I"][idx] = var_i
        cols["growth_formula"][idx] = kern.growth_rate(i_mat, m)
        cols["S_vn"][idx] = _vn_from_evals(w)
        cols["S_renyi"][idx] = _renyi_from_evals(w, alpha)
        cols["bound_vn"][idx] = kern.bound_terms(sym).real
        cols["bound_renyi"][idx] = kern.bound_terms(escort).real
        cols["trace_err"][idx] = trace_err
        cols["min_eig"][idx] = min_eig
        states.append(node_state)
        invariants.append(i_mat.copy())

        if idx == n_nodes - 1:
            break

        kernels = (kern, Kernel(gen, t + 0.5 * dt), Kernel(gen, times[idx + 1]))
        m = rk4_step(Kernel.state_rhs, kernels, m, dt)
        fix = float(np.abs(m - m.conj().T).max())
        max_herm_fix = max(max_herm_fix, fix)
        m = 0.5 * (m + m.conj().T)

        if i0 is not None:
            i_mat = rk4_step(Kernel.invariant_rhs, kernels, i_mat, dt)
            i_mat = 0.5 * (i_mat + i_mat.conj().T)
        else:
            i_mat = require_hermitian(
                invariant_path(times[idx + 1]), name="invariant_path"
            )
        kern = kernels[2]

    cols["growth_fd"] = np.gradient(cols["var_I"], dt, edge_order=2)
    return Trajectory(
        times=times,
        states=states,
        invariants=invariants,
        series=cols,
        alpha=alpha,
        notes={"max_herm_correction": max_herm_fix},
    )
