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
stage of both Runge-Kutta steps. `march`, the one stepping loop (of the
classical mirror too), hands node blocks to stack-aware diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import NumericalError, ValidationError
from .operators import DensityMatrix, _breach, dagger, hermiticity_defect, require_hermitian

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
    are all that both right-hand sides, the growth rate and the entropy
    bound need, so one generator evaluation per distinct time serves all
    of them. A zero rate leaves a zero matrix in the stack, so every
    kernel of a generator has the same stack shape and node kernels
    stack. H itself is kept as `h`: it is the closed-form invariant when
    none is integrated.
    """

    __slots__ = ("h", "h_eff", "h_eff_dag", "jumps", "jumps_dag")

    def __init__(self, gen: LindbladGenerator, t: float):
        h, cs = gen.eval(t)
        jumps = np.sqrt(cs)[:, None, None] * gen.jumps
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


def rk4_step(rhs, kernels, m: np.ndarray, dt: float) -> np.ndarray:
    """One classic RK4 step of dm/dt = rhs(kernel, m).

    `kernels` holds whatever `rhs` needs to know of the step's start,
    midpoint and end: a `Kernel` each for the Lindblad equations, the
    drift and diffusion samples for the classical grid. The midpoint
    entry serves both middle stages.
    """
    k_start, k_mid, k_end = kernels
    k1 = rhs(k_start, m)
    k2 = rhs(k_mid, m + 0.5 * dt * k1)
    k3 = rhs(k_mid, m + 0.5 * dt * k2)
    k4 = rhs(k_end, m + dt * k3)
    return m + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


# -- the stepping loop -------------------------------------------------------

# The most nodes, and bytes of node states, in one observed block: 64 rows
# of fp_ou's default grid fit, larger oscillator states get shorter blocks
# (8 nodes at 60 levels, 2 at 120).
BLOCK_NODES = 64
BLOCK_BYTES = 480 * 1024


def time_grid(t0: float, t1: float, dt: float) -> np.ndarray:
    """Nodes t0, t0 + dt, ..., t1; dt must tile [t0, t1] in at least two whole steps."""
    if dt <= 0.0:
        raise ValidationError(f"dt must be positive, got {dt}")
    if t1 <= t0:
        raise ValidationError(f"need t1 > t0, got [{t0}, {t1}]")
    n = int(round((t1 - t0) / dt))
    if n < 2 or abs(t0 + n * dt - t1) > 1e-9 * max(1.0, abs(t1)):
        raise ValidationError(f"dt {dt} does not tile [{t0}, {t1}] into at least two whole steps")
    return t0 + dt * np.arange(n + 1)


def march(times, dt: float, x: np.ndarray, sample, step, observe) -> None:
    """Step the state x across the nodes `times`, observing them in blocks.

    `sample(t)` runs once per distinct time: first node, then per step
    the midpoint and the next node, which starts the next step (2N + 1
    calls). `step((start, mid, end), x)` returns the next node's state,
    which must be finite. Blocks go in node order to `observe(span,
    states, samples)`; states are overwritten by the next block. Whatever
    stops the run, buffered nodes are observed first. An observer raises
    the first guard any node breaches; the block is then observed node by
    node, so the earliest node's error wins.
    """
    rows = max(1, min(BLOCK_NODES, BLOCK_BYTES // x.nbytes, times.size))
    block = np.empty((rows,) + x.shape, dtype=x.dtype)
    samples = []

    def flush(stop: int) -> None:
        first = stop - len(samples)
        try:
            observe(slice(first, stop), block[:len(samples)], samples)
        except NumericalError:
            for k in range(len(samples)):
                observe(slice(first + k, first + k + 1), block[k:k + 1], samples[k:k + 1])
            raise
        samples.clear()

    for idx, t in enumerate(times):
        try:
            if idx == 0:
                s = sample(t)
            else:
                mid, end = sample(times[idx - 1] + 0.5 * dt), sample(t)
                x = step((s, mid, end), x)
                s = end
            if not np.isfinite(x).all():
                raise NumericalError(f"state is not finite at t = {t:.6g}; reduce dt")
        except Exception:
            if samples:
                flush(idx)
            raise
        block[len(samples)] = x
        samples.append(s)
        if len(samples) == rows or idx == times.size - 1:
            flush(idx + 1)


def abort_at(bad, message) -> None:
    """Raise NumericalError(message(at)) at the first index where mask `bad` holds."""
    at = _breach(bad)
    if at is not None:
        raise NumericalError(message(at))


# -- node diagnostics: stacks of any leading shape in, one value per node out

def entropies(w: np.ndarray, alpha: float):
    """(von Neumann, Renyi-alpha) entropies per spectrum of a stack (..., d)
    of state eigenvalues. The von Neumann sum skips eigenvalues <=
    EVAL_FLOOR (0 ln 0 = 0), each spectrum summed alone over those it
    keeps; the Renyi sum clips roundoff below 0; alpha = 1 is von Neumann."""
    rows = np.reshape(w, (-1, np.shape(w)[-1]))
    vn = np.reshape([-np.sum(p * np.log(p)) for p in (r[r > EVAL_FLOOR] for r in rows)],
                    np.shape(w)[:-1])[()]
    if alpha == 1.0:
        return vn, vn
    return vn, (np.log(np.sum(np.clip(w, 0.0, None) ** alpha, axis=-1)) / (1.0 - alpha))[()]


def escort(w: np.ndarray, v: np.ndarray, alpha: float) -> np.ndarray:
    """V diag(p) V^dag with p = w_+^alpha / sum(w_+^alpha), the escort state,
    per eigendecomposition (w (..., d), v (..., d, d)) of a stack of states."""
    p = np.clip(w, 0.0, None) ** alpha
    z = np.sum(p, axis=-1, keepdims=True)
    abort_at(z <= 0.0, lambda at: "escort normalisation vanished; state is numerically zero")
    return v @ ((p / z)[..., :, None] * dagger(v))


def growth_rate(jumps: np.ndarray, inv: np.ndarray, rho: np.ndarray):
    """2 sum_n tr([L~_n, I]^dag [L~_n, I] rho), the variance growth rate.

    `jumps` (..., n, d, d) are the scaled jumps sqrt(c_n) L_n of a
    `Kernel` or of stacked nodes; `inv` and `rho` are (..., d, d). Each
    term is a commutator's second moment, nonnegative up to roundoff; a
    value below -1e-12 means the inputs were inconsistent."""
    inv = inv[..., None, :, :]
    comm = jumps @ inv - inv @ jumps
    moved = comm @ rho[..., None, :, :]
    nodes = (-1,) + comm.shape[-3:]
    rate = np.reshape([2.0 * np.vdot(c, m).real
                       for c, m in zip(comm.reshape(nodes), moved.reshape(nodes))],
                      comm.shape[:-3])
    abort_at(rate < -1e-12,
             lambda at: f"growth rate {rate[at]:.3e} is negative; inputs inconsistent")
    return rate[()]


def entropy_bound(jumps: np.ndarray, weight: np.ndarray):
    """2 tr(sum_n [L~_n^dag, L~_n] weight), the entropy-rate lower bound
    averaged in `weight` (the state, or its escort for the Renyi family).

    Stacks as in `growth_rate`; extra leading axes of `weight` broadcast.
    Exactly 0, with no average formed, where every jump is normal (in
    particular Hermitian), the self-adjoint-noise case."""
    jumps_dag = dagger(jumps)
    comm = (jumps_dag @ jumps - jumps @ jumps_dag).sum(axis=-3)
    live = comm.any(axis=(-2, -1))
    val = np.zeros(np.broadcast_shapes(live.shape, np.shape(weight)[:-2]), dtype=complex)
    if live.any():
        val = np.where(live, 2.0 * np.sum(comm * np.swapaxes(weight, -1, -2), axis=(-2, -1)), 0.0)
    # np.hypot, unlike np.abs, matches the scalar abs() of a complex bit for bit
    abort_at(np.abs(val.imag) > 1e-9 * np.maximum(np.hypot(val.real, val.imag), 1.0),
             lambda at: f"entropy bound has imaginary residue {val[at].imag:.3e}")
    return val.real[()]


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


def integrate(gen: LindbladGenerator, rho0, i0=None, t0: float = 0.0, t1: float = 0.5,
              dt: float = 1e-3, alpha: float = 2.0) -> Trajectory:
    """Fixed-step joint integration of state and invariant on `march`.

    Classic RK4 advances rho and (when `i0` is given) the invariant
    through shared stages, with the generator evaluated once per distinct
    time (2N + 1 evaluations for N steps). Without `i0` the invariant is
    H(t), read from each node's kernel, and only rho is stepped; the
    conservation guard then checks that H(t) is a weak invariant of `gen`.

    The state is re-Hermitized once per step (the correction is tracked
    in notes); trace and positivity are monitored, never enforced. The
    node diagnostics run on stacks, once per block. The run aborts with a
    NumericalError at the earliest node where the state stops being
    finite, an eigenvalue of rho falls below POSITIVITY_FLOOR or tr(I rho)
    drifts beyond CONSERVATION_TOL (relative to its initial size).
    """
    if alpha <= 0.0:
        raise ValidationError(f"alpha must be positive, got {alpha}")

    times = time_grid(t0, t1, dt)
    rho = DensityMatrix.from_matrix(rho0).mat
    # x stacks rho with the invariant when one is integrated
    x = rho[None] if i0 is None else np.stack([rho, require_hermitian(i0, name="I(t0)")])
    rhs = (Kernel.state_rhs, Kernel.invariant_rhs)[:len(x)]

    states = np.empty((times.size,) + rho.shape, dtype=complex)
    invariants = np.empty_like(states)
    cols = {k: np.empty(times.size) for k in SERIES_KEYS}
    notes = {"max_herm_correction": 0.0}
    exp0 = cons_scale = None

    def step(kernels, x):
        nxt = np.stack([rk4_step(f, kernels, m, dt) for f, m in zip(rhs, x)])
        fix = float(hermiticity_defect(nxt[0]))
        notes["max_herm_correction"] = max(notes["max_herm_correction"], fix)
        return 0.5 * (nxt + dagger(nxt))

    # The block's arrays outlive each call, as loop variables would: each is
    # freed only when the next block rebinds it, so its memory is reused
    # rather than trimmed from the heap and faulted in again at large d.
    jumps = sym = w = v = ir = iir = weight = weights = None

    def observe(span, block, kernels):
        nonlocal exp0, cons_scale, jumps, sym, w, v, ir, iir, weight, weights
        t = times[span]
        states[span] = block[:, 0]
        if i0 is None:
            np.stack([k.h for k in kernels], out=invariants[span])
        else:
            invariants[span] = block[:, 1]
        rho, inv = states[span], invariants[span]
        jumps = np.stack([k.jumps for k in kernels])
        sym = 0.5 * (rho + dagger(rho))
        w, v = np.linalg.eigh(sym)
        min_eig = w[:, 0]
        abort_at(min_eig < POSITIVITY_FLOOR, lambda k: (
            f"state lost positivity at t = {t[k]:.6g}: min eigenvalue {min_eig[k]:.3e} "
            f"below floor {POSITIVITY_FLOOR:.1e}; reduce dt (positivity is monitored, "
            "not enforced)"))
        ir = inv @ rho
        iir = inv @ inv @ rho
        e_val = np.trace(ir, axis1=-2, axis2=-1)
        e2_val = np.trace(iir, axis1=-2, axis2=-1)
        abort_at(np.abs(e_val.imag) > 1e-9 * np.maximum(np.hypot(e_val.real, e_val.imag), 1.0),
                 lambda k: f"<I> at t = {t[k]:.6g} has imaginary residue {e_val[k].imag:.3e}")
        exp_i = e_val.real
        var_i = e2_val.real - exp_i * exp_i
        abort_at(var_i < -1e-10,
                 lambda k: f"variance {var_i[k]:.3e} negative at t = {t[k]:.6g}")
        var_i = np.where(var_i < 0.0, 0.0, var_i)
        if span.start == 0:
            exp0 = exp_i[0]
            cons_scale = abs(exp0) if abs(exp0) > 1e-12 else 1.0
        drift = np.abs(exp_i - exp0)
        abort_at(drift > CONSERVATION_TOL * cons_scale, lambda k: (
            f"conservation breach at t = {t[k]:.6g}: <I> drifted by {drift[k]:.3e} "
            f"(allowed {CONSERVATION_TOL * cons_scale:.3e}); the pair no longer "
            "solves the two evolution equations consistently"))
        weight = escort(w, v, alpha) if alpha != 1.0 else sym
        tr_err = np.trace(rho, axis1=-2, axis2=-1) - 1.0
        cols["exp_I"][span] = exp_i
        cols["var_I"][span] = var_i
        cols["growth_formula"][span] = growth_rate(jumps, inv, rho)
        cols["S_vn"][span], cols["S_renyi"][span] = entropies(w, alpha)
        weights = np.stack((sym, weight))
        cols["bound_vn"][span], cols["bound_renyi"][span] = entropy_bound(jumps, weights)
        cols["trace_err"][span] = np.hypot(tr_err.real, tr_err.imag)
        cols["min_eig"][span] = min_eig

    march(times, dt, x, lambda t: Kernel(gen, t), step, observe)
    cols["growth_fd"] = np.gradient(cols["var_I"], dt, edge_order=2)
    return Trajectory(times=times, states=states, invariants=invariants,
                      series=cols, notes=notes)
