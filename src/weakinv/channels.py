"""Completely positive trace-preserving maps in Kraus form.

A channel is a finite list of Kraus operators V_k acting as

    rho' = sum_k V_k rho V_k^dag,      sum_k V_k^dag V_k = 1.

The adjoint (Heisenberg-picture) map X -> sum_k V_k^dag X V_k is then
automatically unital, which is what makes the second-moment inequality

    adjoint(X^2) >= adjoint(X)^2        (Kadison)

hold for every Hermitian X. Channels carry a certified bound on the
trace-preservation residual so first-order step channels can be honest
about their O(dt^2) defect.

The Kraus operators of a channel are one array (n_kraus, dim, dim). A
stack of channels sharing dim and n_kraus is the same object with
leading batch axes, (..., n_kraus, dim, dim); `apply`, `adjoint_apply`
and `kadison_gap` broadcast over those axes, so many small channels
cost one numpy call each instead of one per channel.

`random_channel` builds channels from the complex Gaussians it is
given. Random draws follow `default_rng(seed)`'s stream bit for bit, for
many seeds at once. `pcg64_states` runs NumPy's SeedSequence (NEP 19)
and PCG64's 128-bit seeding for all seeds on uint32 and uint64 limb
arrays. `bounded_draws` makes `Generator.integers` draws for all seeds
the same way, from PCG64's LCG step, its XSL-RR output and Lemire's
bounded draw, replays on numpy only the rare lanes a rejection could
touch, and returns the states the draws leave. `complex_normals` draws
one complex Gaussian array per such state with numpy's own normals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .operators import (
    TRACE_TOL,
    DensityMatrix,
    _as_matrix,
    _member,
    abort_at,
    dagger,
    require_hermitian,
)

CPTP_TOL = 1e-9

# NumPy's SeedSequence: hash constants and pool size (NEP 19), and the
# 128-bit LCG multiplier of PCG64 (O'Neill, HMC-CS-2014-0905).
POOL_SIZE = 4
INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715
PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
MASK32, MASK64 = (1 << 32) - 1, (1 << 64) - 1
# The widest range `bounded_draws` covers: numpy draws wider ones from 64-bit words.
DRAW_RANGE_MAX = 1 << 32
_M32, _S32 = np.uint64(MASK32), np.uint64(32)
_MULT_HI, _MULT_LO = np.uint64(PCG_MULT >> 64), np.uint64(PCG_MULT & MASK64)


@dataclass(frozen=True)
class QuantumChannel:
    """Kraus representation of a CPTP map, or of a stack of them, with a
    completeness certificate.

    kraus has shape (..., n_kraus, dim, dim). tp_defect is the measured
    max-abs residual of sum V^dag V - 1, one per stack member; tp_tol is
    the bound every member was certified against at construction.
    """

    kraus: np.ndarray
    tp_defect: float
    tp_tol: float

    @classmethod
    def from_kraus(cls, ops, tp_tol: float = CPTP_TOL) -> "QuantumChannel":
        try:
            mats = np.asarray(ops, dtype=complex)
        except ValueError:
            raise ValidationError("Kraus operators must all share one square shape") from None
        if mats.size == 0:
            raise ValidationError("a channel needs at least one Kraus operator")
        if mats.ndim < 3 or mats.shape[-1] != mats.shape[-2]:
            raise ValidationError(
                f"Kraus operators must be square matrices, got shape {mats.shape}"
            )
        acc = (dagger(mats) @ mats).sum(axis=-3)
        defect = np.abs(acc - np.eye(mats.shape[-1])).max(axis=(-2, -1))
        abort_at(~(defect <= tp_tol), ValidationError, lambda at: (
            f"{_member(at)}Kraus completeness residual {defect[at]:.3e} "
            f"exceeds tol {tp_tol:.1e}"))
        return cls(kraus=mats, tp_defect=defect, tp_tol=float(tp_tol))

    @property
    def dim(self) -> int:
        return self.kraus.shape[-1]


def sandwich(left, m, right) -> np.ndarray:
    """sum_k left_k m right_k over the Kraus axis -3, broadcast over stacks.

    The sum is one product of the concatenated Kraus blocks,
    [left_1 ... left_K] @ vstack(m right_k), so the Kraus axis folds into
    the matmul's inner dimension instead of a separate reduction.
    """
    k, d = left.shape[-3], left.shape[-2]
    row = np.swapaxes(left, -3, -2).reshape(left.shape[:-3] + (d, -1))
    col = m[..., None, :, :] @ right
    return row @ col.reshape(col.shape[:-3] + (k * col.shape[-2], col.shape[-1]))


def apply(ch: QuantumChannel, rho) -> DensityMatrix:
    """Schroedinger-picture action rho -> sum V rho V^dag.

    The output is validated as a density matrix; a positivity failure
    there is the symptom of a non-CP input map, so the validation error
    is allowed to propagate.
    """
    m = _as_matrix(rho)
    if m.shape[-2:] != (ch.dim, ch.dim):
        raise ValidationError(f"state shape {m.shape} does not match channel dim {ch.dim}")
    out = sandwich(ch.kraus, m, dagger(ch.kraus))
    # Loosen the trace check by the channel's own certified defect.
    return DensityMatrix.from_matrix(out, trace_tol=max(TRACE_TOL, 2.0 * ch.tp_tol))


def adjoint_apply(ch: QuantumChannel, x) -> np.ndarray:
    """Heisenberg-picture action X -> sum V^dag X V (unital for CPTP)."""
    m = _as_matrix(x)
    if m.shape[-2:] != (ch.dim, ch.dim):
        raise ValidationError(f"operator shape {m.shape} does not match channel dim {ch.dim}")
    return sandwich(dagger(ch.kraus), m, ch.kraus)


def kadison_gap(ch: QuantumChannel, i_op) -> tuple[np.ndarray, np.ndarray]:
    """(adjoint(I^2) - adjoint(I)^2, adjoint(I)) for Hermitian I.

    The gap is positive semidefinite for every channel with a unital
    adjoint; its expectation in the pre-step state is exactly the
    one-step variance growth of the invariant pair. The pulled-back
    adjoint(I) it is formed from comes along for callers that need it.
    """
    m = require_hermitian(i_op, name="invariant")
    fwd = adjoint_apply(ch, m)
    return adjoint_apply(ch, m @ m) - fwd @ fwd, fwd


def lindblad_step_channel(gen, coeffs, rates, dt: float) -> QuantumChannel:
    """First-order Kraus factorisation of a short generator step.

    `coeffs` (m,) and `rates` (n,) are one row that `gen.eval` sampled at
    the step's start t. With jump operators L_n at rates c_n >= 0 and
    Hamiltonian H, the step over [t, t+dt] is

        V_0 = 1 - i dt H - dt sum_n c_n L_n^dag L_n,
        V_n = sqrt(2 c_n dt) L_n,

    which reproduces the generator to first order and leaves a
    trace-preservation residual of O(dt^2). The channel is certified
    against a dt^2 budget scaled by the operator norms, so large systems
    do not pass silently while small ones are held to ~10 dt^2.
    """
    if dt <= 0.0:
        raise ValidationError(f"step needs dt > 0, got {dt}")
    h, jumps = gen.hamiltonian(coeffs), gen.scaled_jumps(rates)
    ll = dagger(jumps) @ jumps                  # c_n L_n^dag L_n
    v0 = np.eye(len(h), dtype=complex) - 1j * dt * h - dt * ll.sum(axis=0)
    scale = max(float(np.abs(h).max(initial=0.0)), float(np.abs(ll).max(initial=0.0)))
    budget = 10.0 * dt * dt * max(1.0, scale) ** 2
    return QuantumChannel.from_kraus([v0, *np.sqrt(2.0 * dt) * jumps[rates > 0.0]],
                                     tp_tol=max(CPTP_TOL, budget))


def _seed_array(seed) -> np.ndarray:
    """seed as uint64, after checking that every member is an integer in [0, 2**64)."""
    seeds = np.asarray(seed)
    if seeds.dtype == object:       # ints beyond int64 and uint64, or non-numbers
        integral = np.reshape([isinstance(s, (int, np.integer)) for s in seeds.flat],
                              seeds.shape)
    else:
        integral = np.full(seeds.shape, seeds.dtype.kind in "iu")
    abort_at(~integral, ValidationError,
             lambda at: f"{_member(at)}seed {seeds[at]} is not an integer")
    abort_at((seeds < 0) | (seeds >= 2**64), ValidationError,
             lambda at: f"{_member(at)}seed {seeds[at]} is outside [0, 2**64)")
    return seeds.astype(np.uint64)


def _hash(words, const: int, mult: int):
    """One SeedSequence hash round of uint32 words: (hashed words, next const)."""
    nxt = const * mult & MASK32
    words = (words ^ np.uint32(const)) * np.uint32(nxt)
    return words ^ (words >> np.uint32(16)), nxt


def _state_words(seeds: np.ndarray) -> np.ndarray:
    """SeedSequence(s).generate_state(4, uint64) for each s of a 1-d uint64 array, (n, 4).

    A seed has the 32-bit entropy words (lo, hi); one below 2**32 has
    (lo,) alone, and the pool then hashes 0 into slot 1, as hi = 0 gives.
    """
    lo = (seeds & np.uint64(MASK32)).astype(np.uint32)
    pool, const = [], INIT_A
    for words in (lo, (seeds >> np.uint64(32)).astype(np.uint32), 0 * lo, 0 * lo):
        words, const = _hash(words, const, MULT_A)
        pool.append(words)
    for src in range(POOL_SIZE):
        for dst in range(POOL_SIZE):
            if dst != src:
                hashed, const = _hash(pool[src], const, MULT_A)
                mixed = np.uint32(MIX_MULT_L) * pool[dst] - np.uint32(MIX_MULT_R) * hashed
                pool[dst] = mixed ^ (mixed >> np.uint32(16))
    # state word k is the uint32 words 2k (low half) and 2k + 1 (high half)
    out, const = np.zeros((len(seeds), POOL_SIZE), np.uint64), INIT_B
    for i in range(2 * POOL_SIZE):
        words, const = _hash(pool[i % POOL_SIZE], const, MULT_B)
        out[:, i // 2] |= words.astype(np.uint64) << np.uint64(32 * (i % 2))
    return out


def _mulhi(a, b):
    """High 64 bits of the 128-bit products a * b of uint64 arrays, by 32-bit halves."""
    a0, a1, b0, b1 = a & _M32, a >> _S32, b & _M32, b >> _S32
    cross0, cross1 = a1 * b0, a0 * b1
    mid = (a0 * b0 >> _S32) + (cross0 & _M32) + (cross1 & _M32)
    return a1 * b1 + (cross0 >> _S32) + (cross1 >> _S32) + (mid >> _S32)


def _add(a_hi, a_lo, b_hi, b_lo):
    """128-bit sums of uint64 limb arrays, mod 2**128."""
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < b_lo), lo


def _lcg(hi, lo, inc_hi, inc_lo):
    """One PCG64 LCG step, state * PCG_MULT + inc mod 2**128, on uint64 limb arrays."""
    mul_hi = _mulhi(lo, _MULT_LO) + lo * _MULT_HI + hi * _MULT_LO
    return _add(mul_hi, lo * _MULT_LO, inc_hi, inc_lo)


def _xsl_rr(hi, lo):
    """PCG64's 64-bit output of a stepped state: (hi ^ lo) rotated right by hi's top 6 bits."""
    x, rot = hi ^ lo, hi >> np.uint64(58)
    return (x >> rot) | (x << (-rot & np.uint64(63)))


def pcg64_states(seed) -> np.ndarray:
    """The PCG64 state of default_rng(s) for each seed s, as (n, 6) uint64 rows.

    A row is (state_hi, state_lo, inc_hi, inc_lo, has_uint32, uinteger),
    the fields of `PCG64.state`. PCG64 seeds from the four state words
    (init_hi, init_lo, seq_hi, seq_lo) as inc = 2 seq + 1 and
    state = (inc + init) * PCG_MULT + inc, here for all seeds at once.
    seed is an integer or an array of them, each in [0, 2**64).
    """
    words = _state_words(_seed_array(seed).reshape(-1))
    out = np.zeros((len(words), 6), np.uint64)
    seq_hi, seq_lo = words[:, 2], words[:, 3]
    one = np.uint64(1)
    out[:, 2], out[:, 3] = seq_hi << one | seq_lo >> np.uint64(63), seq_lo << one | one
    out[:, 0], out[:, 1] = _lcg(*_add(out[:, 2], out[:, 3], words[:, 0], words[:, 1]),
                                out[:, 2], out[:, 3])
    return out


def bounded_draws(seed, bounds) -> tuple[np.ndarray, np.ndarray]:
    """default_rng(s).integers(lo, hi) for each (lo, hi) of bounds in turn, per seed s.

    Returns the draws (n, len(bounds)) as int64 and each stream's state
    after them as `pcg64_states` rows. numpy draws from a range of
    m <= 2**32 integers with one 32-bit word u as lo + (u * m >> 32)
    (Lemire 2019), drawing u again while (u * m) mod 2**32 falls below
    (2**32 - m) mod m; m = 1 takes no word and m = 2**32 takes u as it
    is. The words come from `next_uint32`: a new LCG step's XSL-RR
    output gives its low half and buffers its high half for the next
    word. Every lane is computed that way on uint64 arrays; a lane where
    the leftover (u * m) mod 2**32 is below m, so that a rejection could
    act, is replayed on numpy's own generator. A wider range, which numpy
    draws from 64-bit words instead, raises ValidationError.
    """
    bounds = [(int(lo), int(hi)) for lo, hi in bounds]
    for lo, hi in bounds:
        if not 1 <= hi - lo <= DRAW_RANGE_MAX:
            raise ValidationError(f"draw range [{lo}, {hi}) must hold between 1 and "
                                  f"2**32 = {DRAW_RANGE_MAX} integers, got {hi - lo}")
    seeds = _seed_array(seed).reshape(-1)
    states = pcg64_states(seeds)
    draws = np.empty((len(seeds), len(bounds)), np.int64)
    replay = np.zeros(len(seeds), bool)
    buffered = False
    for k, (lo, hi) in enumerate(bounds):
        m = np.uint64(hi - lo)
        if m == 1:
            draws[:, k] = lo
            continue
        if buffered:
            word = states[:, 5]
        else:
            states[:, 0], states[:, 1] = _lcg(*states[:, :4].T)
            out = _xsl_rr(states[:, 0], states[:, 1])
            word, states[:, 5] = out & _M32, out >> _S32
        buffered = not buffered
        scaled = word * m
        draws[:, k] = lo + (scaled >> _S32).astype(np.int64)
        if m < DRAW_RANGE_MAX:
            replay |= (scaled & _M32) < m
    states[:, 4] = buffered
    for j in np.flatnonzero(replay):
        rng = np.random.default_rng(int(seeds[j]))
        draws[j] = [rng.integers(lo, hi) for lo, hi in bounds]
        st = rng.bit_generator.state
        s, inc = st["state"]["state"], st["state"]["inc"]
        states[j] = (s >> 64, s & MASK64, inc >> 64, inc & MASK64,
                     st["has_uint32"], st["uinteger"])
    return draws, states


def complex_normals(states, shape) -> np.ndarray:
    """One complex standard-normal array of `shape` per stream, (len(states),) + shape.

    states are `pcg64_states` rows. Each stream draws the real parts of
    each trailing matrix, then its imaginary parts, with numpy's own
    `standard_normal`: shape (n, m) as z[0] + 1j z[1] of one (2, n, m)
    draw, shape (2, n, m) as two such draws in turn. The states are set
    one by one on a single reused generator.
    """
    lead = len(shape) - 2
    draw = shape[:lead] + (2,) + shape[lead:]
    # (..., re/im, n, m) -> (..., n, m, re/im): the buffer is then the complex array itself
    axes = tuple(range(lead)) + (lead + 1, lead + 2, lead)
    bits = np.random.PCG64(0)
    rng = np.random.Generator(bits)
    z = np.empty((len(states),) + shape + (2,))
    for j, row in enumerate(states):    # row by row: a whole-array tolist() holds every word at once
        s_hi, s_lo, i_hi, i_lo, has_uint32, uinteger = row.tolist()
        bits.state = {"bit_generator": "PCG64",
                      "state": {"state": s_hi << 64 | s_lo, "inc": i_hi << 64 | i_lo},
                      "has_uint32": has_uint32, "uinteger": uinteger}
        z[j] = rng.standard_normal(draw).transpose(axes)
    return z.view(complex)[..., 0]


def random_channel(z) -> QuantumChannel:
    """Haar-style random CPTP map built from complex Gaussians, or a stack of them.

    z has shape (..., n_kraus*dim, dim), with dim >= 1 read from its last
    axis and n_kraus from the rows. Each matrix is QR-orthonormalised
    into an isometry whose dim x dim row blocks are the Kraus operators,
    so completeness holds to machine precision by construction; the R
    phases are fixed to make the map a function of z. Member j of a stack
    is the channel of z[j] alone. `complex_normals` draws z from
    `default_rng(seed)`-equal streams.
    """
    z = np.asarray(z, dtype=complex)
    if not (z.ndim >= 2 and z.shape[-2] >= z.shape[-1] >= 1 and z.shape[-2] % z.shape[-1] == 0):
        raise ValidationError(f"Gaussians must have shape (..., n_kraus*dim, dim) with "
                              f"n_kraus, dim >= 1, got {z.shape}")
    dim = z.shape[-1]
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    q = q * (d.conj() / np.abs(d))[..., None, :]
    return QuantumChannel.from_kraus(
        q.reshape(z.shape[:-2] + (-1, dim, dim)), tp_tol=1e-12
    )
