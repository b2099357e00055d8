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
the run by `operators.abort_at` rather than producing quietly wrong series.

A caution on the invariant equation: integrated forward it is the inverse
of a contractive (unital, completely positive) flow, so components of I
outside the physically resolved subspace are amplified at rates up to
c_n * spread(spec(L_n))^2. For bounded generators (spin-sized L) this is
harmless and the matrix equation is integrated directly. For truncated
unbounded operators the amplification is catastrophic. Both models here
choose their rates so that H(t) itself is the weak invariant, which
`integrate` takes in closed form when given no initial invariant.

The generator is affine in time, H(t) = sum_k f_k(t) H_k with constant jumps
L_n at rates c_n(t), and is sampled once per run on all 2N + 1 times the RK4
steps need. Both equations take H_eff = H - i sum_n c_n L_n^dag L_n and the
scaled jumps sqrt(c_n) L_n; the adjoint one swaps each for its adjoint and
the sandwich sign +2 for -2, so the state and its invariants step as one
stack through one right-hand side, its kernels formed by `integrate` for
each step's three rows. It is linear in the stack and in the sampled row, so
for d^2 <= MAP_MAX_D2 `integrate` forms a block's re-Hermitizing RK4 step
maps in one call, one for the state and one all invariants share. Either way
each node is written from the one before, so no value depends on where a
block starts. `march`, the one stepping loop (of the classical mirror too),
knows only nodes; its blocks go to stack-aware diagnostics, which fold the
jump axis (and `integrate` the invariant axis) into one product per node.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import Callable

import numpy as np

from .errors import NumericalError, SamplingError, ValidationError
from .operators import (IMAG_TOL, VARIANCE_CLIP, DensityMatrix, abort_at, dagger,
                        hermiticity_defect, reject_first, require_hermitian)

EVAL_FLOOR = 1e-15       # eigenvalues at or below this count as exact zeros in entropies
C_TOL = 1e-12            # how negative a rate may be before it is an input error
CONSERVATION_TOL = 1e-7
POSITIVITY_FLOOR = -1e-8


@dataclass(frozen=True)
class LindbladGenerator:
    """Affine generator data: H(t) = sum_k f_k(t) H_k, jumps L_n at rates c_n(t).

    `terms` (m, d, d) and `jumps` (n, d, d) are checked once, at
    construction (shape, finiteness, Hermiticity of the terms); `coeffs`
    and `rates` map a column of T times to (T, m) and (T, n) arrays.
    """

    terms: np.ndarray
    jumps: np.ndarray
    coeffs: Callable[[np.ndarray], np.ndarray]
    rates: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        dim = np.shape(self.terms)[-1]
        for name, rows, what in (("terms", "m", "Hamiltonian terms"),
                                 ("jumps", "n", "jump operators")):
            ops = np.asarray(getattr(self, name), dtype=complex)
            if ops.ndim != 3 or ops.shape[1:] != (dim, dim):
                raise ValidationError(f"{name} must be an ({rows}, {dim}, {dim}) stack, "
                                      f"got shape {ops.shape}")
            if not np.isfinite(ops).all():
                raise ValidationError(f"{what} have a non-finite entry")
            object.__setattr__(self, name, ops)
        require_hermitian(self.terms, name="Hamiltonian term")

    def eval(self, times):
        """(coeffs (T, m), rates (T, n)) on a column of T times. The guards raise
        SamplingError at the earliest bad time; at one time H's finiteness comes
        first, then the rates' finiteness and sign (roundoff within C_TOL clamps to 0)."""
        col = np.reshape(np.asarray(times, dtype=float), -1)
        coeffs = np.asarray(self.coeffs(col))
        if coeffs.shape != (col.size, len(self.terms)) or np.iscomplexobj(coeffs):
            raise ValidationError(f"coeffs on {col.size} times must be real with "
                                  f"{len(self.terms)} columns, got {coeffs.dtype} {coeffs.shape}")
        hot = ~np.isfinite(coeffs).all(axis=1)
        stop = hot.argmax() if hot.any() else col.size   # later rates cannot come first
        rates = np.asarray(self.rates(col[:stop]), dtype=float)
        if rates.shape != (stop, len(self.jumps)):
            raise ValidationError(f"{len(self.jumps)} jump operators but rates on "
                                  f"{stop} times have shape {rates.shape}")
        reject_first([
            (hot, lambda k: f"H({col[k[0]]}) has a non-finite entry"),
            (~np.isfinite(rates).all(axis=1),
             lambda k: f"rates({col[k[0]]}) = {rates[k[0]].tolist()} are not all finite"),
            (rates < -C_TOL, lambda k: f"rate c_{k[1]}({col[k[0]]}) = {rates[k]:.6e} "
                                       f"is negative beyond tolerance {C_TOL:.0e}"),
        ])
        return coeffs, np.maximum(rates, 0.0)

    def hamiltonian(self, coeffs: np.ndarray) -> np.ndarray:
        """sum_k f_k H_k per row of coefficients (..., m)."""
        return sum(coeffs[..., k, None, None] * term for k, term in enumerate(self.terms))

    def scaled_jumps(self, rates: np.ndarray) -> np.ndarray:
        """sqrt(c_n) L_n per row of rates (..., n); zero rates leave zeros."""
        return np.sqrt(rates)[..., None, None] * self.jumps


def rhs_kernels(gen: LindbladGenerator, coeffs: np.ndarray, rates: np.ndarray,
                adjoint) -> list:
    """The `lindblad_rhs` kernel of each sampled row of coeffs (R, m) and
    rates (R, n), for a stack whose member k follows the state equation,
    or the adjoint one where adjoint[k] holds."""
    jumps = gen.scaled_jumps(rates)
    jumps_dag = dagger(jumps)
    h_eff = gen.hamiltonian(coeffs) - 1j * (jumps_dag @ jumps).sum(axis=-3)
    adj = np.asarray(adjoint)[:, None, None]
    a = np.where(adj, dagger(h_eff)[:, None], h_eff[:, None])
    ls = np.where(adj[..., None], jumps_dag[:, None], jumps[:, None])
    return list(zip(a, dagger(a), ls, dagger(ls), repeat(np.where(adj, -2.0, 2.0))))


def lindblad_rhs(kernel, m: np.ndarray) -> np.ndarray:
    """-i (A m - m A^dag) + s sum_n J_n m J_n^dag on a stack m (..., k, d, d),
    with A, J and s per member from `rhs_kernels`: H_eff, L~ and +2 for the
    state, H_eff^dag, L~^dag and -2 for an invariant."""
    a, a_dag, ls, ls_dag, sign = kernel
    return -1j * (a @ m - m @ a_dag) + sign * (ls @ m[..., None, :, :] @ ls_dag).sum(axis=-3)


def superoperators(gen: LindbladGenerator, adjoint) -> np.ndarray:
    """(m + n, k, d^2, d^2): per unit row of (coeffs, rates) and per member,
    `lindblad_rhs` on its `rhs_kernels` as a matrix on row-major vec(m).
    The RHS is linear in the stack and in the row (the rates enter as
    c L^dag L and c L . L^dag), so a sampled row's map is its dot with these."""
    d, m = gen.terms.shape[-1], len(gen.terms)
    unit = np.eye(m + len(gen.jumps))
    basis = np.stack([lindblad_rhs(kernel, np.eye(d * d).reshape(d * d, 1, d, d))
                      for kernel in rhs_kernels(gen, unit[:, :m], unit[:, m:], adjoint)])
    return basis.reshape(len(unit), d * d, len(adjoint), d * d).transpose(0, 2, 3, 1)


def rk4_step(rhs, kernels, m: np.ndarray, dt: float, k1=None) -> np.ndarray:
    """One classic RK4 step of dm/dt = rhs(kernel, m).

    `kernels` holds whatever `rhs` needs at the step's start, midpoint
    (both middle stages) and end: `rhs_kernels` rows for the Lindblad
    equations, the drift and diffusion for the classical grid. A caller
    that already holds the first stage rhs(k_start, m) passes it as k1.
    """
    k_start, k_mid, k_end = kernels
    if k1 is None:
        k1 = rhs(k_start, m)
    k2 = rhs(k_mid, m + 0.5 * dt * k1)
    k3 = rhs(k_mid, m + 0.5 * dt * k2)
    k4 = rhs(k_end, m + dt * k3)
    return m + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


# -- the stepping loop -------------------------------------------------------

# The most rows, and bytes of node states, in one block of `march`: 128 spin
# nodes, 76 of fp_ou's default grid, fewer of larger oscillator states (8 at
# 60 levels, 2 at 120 and above). They set memory and the observer calls only.
BLOCK_NODES = 128
BLOCK_BYTES = 480 * 1024

# The largest d^2 that `integrate` steps with RK4 step maps, one (d^2, d^2)
# matrix per kind (state, invariant) and step, rather than with four
# `lindblad_rhs` calls a step. Maps cost O(d^6) a step: per `integrate` call
# (500 steps, one or three invariants, 2 cores) they take 0.11-0.20 of the
# other path's time at d = 2, 0.19-0.33 at 3, 0.67-0.93 at 4 and 1.0-1.6 at 5.
MAP_MAX_D2 = 16


def time_grid(t0: float, t1: float, dt: float) -> np.ndarray:
    """Nodes t0, t0 + dt, ..., t1; dt must tile [t0, t1] in at least two whole
    steps, into no more nodes than numpy can build."""
    if dt <= 0.0:
        raise ValidationError(f"dt must be positive, got {dt}")
    if t1 <= t0:
        raise ValidationError(f"need t1 > t0, got [{t0}, {t1}]")
    n = np.rint((t1 - t0) / dt)     # inf where the window overflows or dt underflows
    if not 2 <= n < np.inf or abs(t0 + n * dt - t1) > 1e-9 * max(1.0, abs(t1)):
        raise ValidationError(f"dt {dt} does not tile [{t0}, {t1}] into at least two whole steps")
    try:
        return t0 + dt * np.arange(int(n) + 1)
    except (ValueError, MemoryError) as exc:
        raise ValidationError(f"dt {dt} makes {n + 1:.6g} nodes of [{t0}, {t1}], "
                              "more than numpy can build") from exc


def block_for(x: np.ndarray, n_nodes: int) -> int:
    """Rows of a `march` block for node states like x on n_nodes nodes:
    row 0 and at least one more, within BLOCK_NODES and BLOCK_BYTES."""
    return max(2, min(BLOCK_NODES, BLOCK_BYTES // x.nbytes, n_nodes))


def march(times, block: np.ndarray, step, observe) -> None:
    """Step node 0's state, row 0 of the caller's `block`, across the nodes
    `times`, observing them in blocks.

    `step(i, k)` writes nodes i + 1 ... i + k into rows 1 ... k from node
    i's state in row 0, k filling the block unless the last node comes
    first. The rows not yet observed then go in node order to
    `observe(span, states)`, and the last row moves to row 0. Each block is
    checked for finiteness once: its nodes before the first non-finite one
    are observed, then the run aborts naming that node. If a step raises,
    node 0 is observed first unless it already was. An observer raises
    the first guard any node breaches; the block is then observed node by
    node, so the earliest node's error wins, over a later non-finite node too.
    """
    first = lo = 0      # row 0 holds node `first`; rows from lo on are not yet observed

    def flush(hi: int) -> None:
        rows, at = block[lo:hi], first + lo
        hot = ~np.isfinite(rows).all(axis=tuple(range(1, rows.ndim)))
        good = int(hot.argmax()) if hot.any() else len(rows)
        try:
            if good:
                observe(slice(at, at + good), rows[:good])
        except NumericalError:
            for k in range(good):
                observe(slice(at + k, at + k + 1), rows[k:k + 1])
            raise
        if good < len(rows):
            raise NumericalError(f"state is not finite at t = {times[at + good]:.6g}; reduce dt")

    while times.size:
        k = min(len(block) - 1, times.size - 1 - first)
        try:
            if k:
                step(first, k)
        except Exception:
            flush(1)
            raise
        flush(k + 1)
        if first + k == times.size - 1:
            return
        block[0] = block[k]
        first, lo = first + k, 1


# -- node diagnostics: stacks of any leading shape in, one value per node out

def entropies(w: np.ndarray, alpha: float):
    """(von Neumann, Renyi-alpha) entropies per spectrum of a stack (..., d)
    of state eigenvalues. The von Neumann sum skips eigenvalues <=
    EVAL_FLOOR (0 ln 0 = 0), each spectrum summed alone over those it
    keeps; the Renyi sum clips roundoff below 0; alpha = 1 is von Neumann."""
    keep = w > EVAL_FLOOR
    p = np.where(keep, w, 1.0)
    vn = -np.sum(np.where(keep, p * np.log(p), 0.0), axis=-1)[()]
    if alpha == 1.0:
        return vn, vn
    return vn, (np.log(np.sum(np.clip(w, 0.0, None) ** alpha, axis=-1)) / (1.0 - alpha))[()]


def escort(w: np.ndarray, v: np.ndarray, alpha: float) -> np.ndarray:
    """V diag(p) V^dag with p = w_+^alpha / sum(w_+^alpha), the escort state,
    per eigendecomposition (w (..., d), v (..., d, d)) of a stack of states."""
    p = np.clip(w, 0.0, None) ** alpha
    z = np.sum(p, axis=-1, keepdims=True)
    abort_at(z <= 0.0, NumericalError,
             lambda at: "escort normalisation vanished; state is numerically zero")
    return v @ ((p / z)[..., :, None] * dagger(v))


def growth_rate(jumps: np.ndarray, inv: np.ndarray, rho: np.ndarray):
    """2 sum_n tr([L~_n, I]^dag [L~_n, I] rho), the variance growth rate.

    `jumps` (..., n, d, d) are the scaled jumps sqrt(c_n) L_n at one node
    or stacked nodes, `inv` and `rho` (..., d, d); the jump axis folds into
    one product a node for L~ I, I L~ and [L~, I] rho. Each term is a second
    moment, nonnegative up to roundoff: below -1e-12 the inputs disagree."""
    n, d = jumps.shape[-3:-1]
    left = jumps.reshape(jumps.shape[:-3] + (n * d, d)) @ inv
    right = inv @ np.swapaxes(jumps, -3, -2).reshape(jumps.shape[:-3] + (d, n * d))
    comm = left - np.swapaxes(right.reshape(right.shape[:-1] + (n, d)), -3, -2).reshape(left.shape)
    nodes = comm.shape[:-2] + (-1,)
    rate = 2.0 * np.vecdot(comm.reshape(nodes), (comm @ rho).reshape(nodes)).real
    abort_at(rate < -1e-12, NumericalError,
             lambda at: f"growth rate {rate[at]:.3e} is negative; inputs inconsistent")
    return rate[()]


def entropy_bound(jumps: np.ndarray, weight: np.ndarray):
    """2 tr(sum_n [L~_n^dag, L~_n] weight), the entropy-rate lower bound
    averaged in `weight` (the state, or its escort for the Renyi family).

    Stacks as in `growth_rate`; extra leading axes of `weight` broadcast. The
    jump sum is S^dag S - T T^dag (S, T the jumps stacked and side by side):
    exactly 0, no average formed, for Hermitian jumps, whose S^dag is T."""
    n, d = jumps.shape[-3:-1]
    stack = jumps.reshape(jumps.shape[:-3] + (n * d, d))
    side = np.swapaxes(jumps, -3, -2).reshape(jumps.shape[:-3] + (d, n * d))
    comm = dagger(stack) @ stack - side @ dagger(side)
    live = comm.any(axis=(-2, -1))
    val = np.zeros(np.broadcast_shapes(live.shape, np.shape(weight)[:-2]), dtype=complex)
    if live.any():
        val = np.where(live, 2.0 * np.sum(comm * np.swapaxes(weight, -1, -2), axis=(-2, -1)), 0.0)
    # np.hypot, unlike np.abs, matches the scalar abs() of a complex bit for bit
    abort_at(np.abs(val.imag) > IMAG_TOL * np.maximum(np.hypot(val.real, val.imag), 1.0),
             NumericalError, lambda at: f"entropy bound has imaginary residue {val[at].imag:.3e}")
    return val.real[()]


# -- trajectory integration --------------------------------------------------

SERIES_KEYS = (
    "exp_I", "var_I", "growth_formula", "growth_fd",
    "S_vn", "S_renyi", "bound_vn", "bound_renyi", "trace_err", "min_eig",
)


@dataclass
class Trajectory:
    """Co-integrated state and invariants plus per-node diagnostics.

    `states` and `invariants` (of the first invariant, which the series
    describe) are (n_nodes, dim, dim) arrays, one matrix per node of
    `times`; `variances` (n_nodes, k) holds the variance of each invariant.
    """

    times: np.ndarray
    states: np.ndarray
    invariants: np.ndarray
    series: dict[str, np.ndarray]
    variances: np.ndarray
    notes: dict[str, float] = field(default_factory=dict)


def integrate(gen: LindbladGenerator, rho0, i0=None, t0: float = 0.0, t1: float = 0.5,
              dt: float = 1e-3, alpha: float = 2.0) -> Trajectory:
    """Fixed-step joint integration of state and invariants on `march`.

    One `eval` samples the generator at the 2N + 1 distinct times of N
    steps, node i at row 2i and the midpoint after it at 2i + 1; the steps
    write their nodes into `march`'s block. Classic RK4 advances rho and
    `i0`, one invariant or a (k, dim, dim) stack, as one stack, each node
    from the one before: for dim^2 <= MAP_MAX_D2 by its RK4 step map (a
    block's maps formed in one call from `superoperators`, one for the state
    and one all invariants share, made real maps on (Re, Im) vec that
    re-Hermitize), otherwise by `lindblad_rhs` on its three rows' kernels.
    Without `i0` the invariant is H(t) and only rho is stepped; the
    conservation guard then checks that H(t) is a weak invariant of `gen`.

    The state is re-Hermitized once per step (its correction noted); trace and
    positivity are monitored, never enforced. The node diagnostics run on
    stacks once per block, all invariants and squares in one product with rho.
    The run aborts with a NumericalError at the earliest node where the state
    stops being finite, an eigenvalue of rho falls below POSITIVITY_FLOOR or
    tr(I rho) of any invariant drifts beyond CONSERVATION_TOL (relative to its
    initial size); a sampling error once the nodes before it are observed.
    """
    if alpha <= 0.0:
        raise ValidationError(f"alpha must be positive, got {alpha}")

    times = time_grid(t0, t1, dt)
    rho = DensityMatrix.from_matrix(rho0).mat
    inv0 = np.empty((0,) + rho.shape) if i0 is None else require_hermitian(i0, name="I(t0)")
    if inv0.shape[-2:] != rho.shape or inv0.ndim > 3:
        raise ValidationError(f"I(t0) has shape {inv0.shape}, not {rho.shape} or a stack")
    x = np.concatenate([rho[None], inv0.reshape((-1,) + rho.shape)])
    m = len(gen.terms)

    # every node, with the midpoint after it interleaved
    column = np.insert(times, np.arange(1, times.size), times[:-1] + 0.5 * dt)
    try:
        rows, fault = np.hstack(gen.eval(column)), None
    except SamplingError as exc:
        rows, fault = np.hstack(gen.eval(column[:exc.at])), exc

    states = np.empty((times.size,) + rho.shape, dtype=complex)
    invariants = np.empty_like(states)
    variances = np.empty((times.size, max(1, len(x) - 1)))
    cols = {k: np.empty(times.size) for k in SERIES_KEYS}
    notes = {"max_herm_correction": 0.0}
    exp0 = cons_scale = None

    # march walks only the nodes whose rows were sampled, in a block led by x
    nodes = times[:(len(rows) + 1) // 2]
    block = np.empty((block_for(x, nodes.size),) + x.shape, dtype=x.dtype)
    block[0] = x
    adjoint, d2 = np.arange(len(x)) > 0, rho.size

    def note(pre):    # the re-Hermitization's correction of the state member
        notes["max_herm_correction"] = max(notes["max_herm_correction"],
                                           float(hermiticity_defect(pre).max()))

    if d2 > MAP_MAX_D2:
        def step(i, k):    # a node at a time: RK4 on the kernels of its three rows
            for j in range(k):
                r = rows[2 * (i + j):2 * (i + j) + 3]
                nxt = rk4_step(lindblad_rhs, rhs_kernels(gen, r[:, :m], r[:, m:], adjoint),
                               block[j], dt)
                note(nxt[0])
                block[j + 1] = 0.5 * (nxt + dagger(nxt))
    else:
        basis = superoperators(gen, adjoint[:2])     # one map a kind: state, invariant
        kind = adjoint.astype(int) if len(x) > 2 else slice(None)    # each member's kind
        flip = np.arange(d2).reshape(rho.shape).T.ravel()    # vec(m) to vec(m^T)

        # the block as interleaved (Re, Im) row-major vec(m), one column per member
        vecs = block.view(float).reshape((len(block), len(x), 2 * d2, 1))

        def step(i, k):    # k nodes, each from the one before by its step map
            sup = np.tensordot(rows[2 * i:2 * (i + k) + 1], basis, axes=1)
            # the maps step the identity, so the first stage is the start superoperator
            start = sup[0:-1:2]
            maps = rk4_step(np.matmul, (start, sup[1::2], sup[2::2]), np.eye(d2), dt, k1=start)
            # each map, then the projector onto Hermitian matrices, as a real map on
            # the vecs: rows (p, q) and (q, p) averaged for Re, differenced for Im
            even, odd = 0.5 * (maps + maps[..., flip, :]), 0.5 * (maps - maps[..., flip, :])
            real = np.stack([np.stack([even.real, -even.imag], -1),
                             np.stack([odd.imag, odd.real], -1)], -3).reshape(
                maps.shape[:-2] + (2 * d2, 2 * d2))[:, kind]
            for j in range(k):
                np.matmul(real[j], vecs[j], out=vecs[j + 1])
            note((maps[:, 0] @ block[:k, 0].reshape(k, d2, 1)).reshape((k,) + rho.shape))

    # The block's arrays outlive each call, as loop variables would: each is
    # freed only when the next block rebinds it, so its memory is reused
    # rather than trimmed from the heap and faulted in again at large d.
    jumps = sym = w = v = moments = weight = weights = None

    def observe(span, block):
        nonlocal exp0, cons_scale, jumps, sym, w, v, moments, weight, weights
        t = times[span]
        node_rows = rows[2 * span.start:2 * span.stop:2]
        states[span] = block[:, 0]
        inv = gen.hamiltonian(node_rows[:, :m])[:, None] if i0 is None else block[:, 1:]
        invariants[span] = inv[:, 0]
        rho = states[span]
        jumps = gen.scaled_jumps(node_rows[:, m:])
        sym = 0.5 * (rho + dagger(rho))
        w, v = np.linalg.eigh(sym)
        min_eig = w[:, 0]
        abort_at(min_eig < POSITIVITY_FLOOR, NumericalError, lambda k: (
            f"state lost positivity at t = {t[k]:.6g}: min eigenvalue {min_eig[k]:.3e} "
            f"below floor {POSITIVITY_FLOOR:.1e}; reduce dt (positivity is monitored, "
            "not enforced)"))
        moments = np.concatenate([inv, inv @ inv], axis=1)
        moments = (moments.reshape(len(rho), -1, rho.shape[-1]) @ rho).reshape(moments.shape)
        e_val, e2_val = np.split(np.trace(moments, axis1=-2, axis2=-1), 2, axis=1)
        abort_at(np.abs(e_val.imag) > IMAG_TOL * np.maximum(np.hypot(e_val.real, e_val.imag), 1.0),
                 NumericalError,
                 lambda k: f"<I> at t = {t[k[0]]:.6g} has imaginary residue {e_val[k].imag:.3e}")
        exp_i = e_val.real
        var_i = e2_val.real - exp_i * exp_i
        abort_at(var_i < -VARIANCE_CLIP, NumericalError,
                 lambda k: f"variance {var_i[k]:.3e} negative at t = {t[k[0]]:.6g}")
        var_i = np.where(var_i < 0.0, 0.0, var_i)
        if span.start == 0:
            exp0 = exp_i[0]
            cons_scale = np.where(np.abs(exp0) > 1e-12, np.abs(exp0), 1.0)
        drift = np.abs(exp_i - exp0)
        abort_at(drift > CONSERVATION_TOL * cons_scale, NumericalError, lambda k: (
            f"conservation breach at t = {t[k[0]]:.6g}: <I> drifted by {drift[k]:.3e} "
            f"(allowed {CONSERVATION_TOL * cons_scale[k[1]]:.3e}); the pair no longer "
            "solves the two evolution equations consistently"))
        weight = escort(w, v, alpha) if alpha != 1.0 else sym
        tr_err = np.trace(rho, axis1=-2, axis2=-1) - 1.0
        cols["exp_I"][span] = exp_i[:, 0]
        cols["var_I"][span] = var_i[:, 0]
        variances[span] = var_i
        cols["growth_formula"][span] = growth_rate(jumps, inv[:, 0], rho)
        cols["S_vn"][span], cols["S_renyi"][span] = entropies(w, alpha)
        weights = np.stack((sym, weight))
        cols["bound_vn"][span], cols["bound_renyi"][span] = entropy_bound(jumps, weights)
        cols["trace_err"][span] = np.hypot(tr_err.real, tr_err.imag)
        cols["min_eig"][span] = min_eig

    march(nodes, block, step, observe)
    if fault is not None:
        raise fault
    cols["growth_fd"] = np.gradient(cols["var_I"], dt, edge_order=2)
    return Trajectory(times=times, states=states, invariants=invariants, series=cols,
                      variances=variances, notes=notes)
