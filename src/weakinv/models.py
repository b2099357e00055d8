"""The two closed-algebra model systems.

Oscillator with shrinking stiffness
    H(t) = K1 + k(t) K2 with K1 = p^2/2, K2 = x^2/2, K3 = (px + xp)/2,
    closing the algebra [K1, K2] = -i K3, [K2, K3] = 2i K2,
    [K3, K1] = 2i K1. A single self-adjoint jump operator L = K2 at rate
    c(t) = -kdot(t)/2 makes H(t) itself a weak invariant, which requires
    k(t) to decrease strictly. The variance growth rate reduces to
    -kdot(t) <K3^2>.

    The Fock-space matrices are built at the fixed reference frequency
    omega_ref = sqrt(k(0)). Truncation corrupts operator products in the
    top few levels, so algebra identities are only checked on the
    interior block, and runs must keep the occupation of the top two
    levels below EDGE_OCCUPATION_TOL. The invariant is NOT obtained by
    integrating its matrix equation forward (on the truncated space that
    equation amplifies off-algebra noise at rates ~ c * spread(K2)^2,
    which overwhelms double precision within t ~ 0.1); it is H(t) itself,
    which `integrate` forms from the sampled coefficients at every node.
    A general weak invariant stays inside the algebra, I = kappa1 K1 +
    kappa2 K2 + kappa3 K3 + kappa0, whose coefficient dynamics

        kappa1' = -2 kappa3
        kappa2' = 2 k kappa3 - 2 c kappa1
        kappa3' = k kappa1 - kappa2

    is exact, with (1, k(t), 0) recovering H(t) in closed form.

Spin in a growing field
    H(t) = B(t) . sigma with the three Pauli operators as the jump stack.
    Requiring H to be a weak invariant fixes the rates to

        c_1 = (1/8) (-Bdot1/B1 + Bdot2/B2 + Bdot3/B3)   (and cyclic),

    equivalently Bdot = 4 ((c2+c3) B1, (c3+c1) B2, (c1+c2) B3). All
    rates nonnegative forces |B| to grow; the uniform exponential field
    B0 exp(8ct) has all three rates equal to c. Since H^2 = B^2 and
    [sigma_n, H]^dag [sigma_n, H] = 4 (B^2 - B_n^2), the fluctuation
    growth rate is d B^2/dt for every state.

Schedules (k and kdot, B and Bdot) also take a column of times, so each
generator samples its coefficients and rates in one call per run.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .errors import ValidationError
from .lindblad import LindbladGenerator, lindblad_rhs, rhs_kernels
from .operators import PAULIS, _as_matrix, expectation, reject_first

EDGE_OCCUPATION_TOL = 1e-8


# -- truncated Fock-space operators ------------------------------------------

def lowering(n_fock: int) -> np.ndarray:
    """Truncated lowering operator a with a|n> = sqrt(n)|n-1>."""
    if n_fock < 4:
        raise ValidationError(f"need at least 4 Fock levels, got {n_fock}")
    a = np.zeros((n_fock, n_fock), dtype=complex)
    for n in range(1, n_fock):
        a[n - 1, n] = np.sqrt(n)
    return a


def build_su11_ops(n_fock: int, omega_ref: float):
    """(K1, K2, K3) as n_fock-level matrices at the given reference frequency.

    x = (a + a^dag)/sqrt(2 w), p = i sqrt(w/2)(a^dag - a). The returned
    matrices are products of truncated factors, so the commutation
    relations hold only away from the truncation edge: single products
    are clean once the top 2 levels are dropped, nested products once the
    top 4 are.
    """
    if omega_ref <= 0.0:
        raise ValidationError(f"reference frequency must be positive, got {omega_ref}")
    a = lowering(n_fock)
    ad = a.conj().T
    x = (a + ad) / np.sqrt(2.0 * omega_ref)
    p = 1j * np.sqrt(omega_ref / 2.0) * (ad - a)
    k1 = p @ p / 2.0
    k2 = x @ x / 2.0
    k3 = (p @ x + x @ p) / 2.0
    return k1, k2, k3


def edge_occupation(rho) -> float:
    """Total population of the top 2 basis states."""
    m = _as_matrix(rho)
    return float(np.sum(np.diagonal(m)[-2:]).real)


# -- oscillator model --------------------------------------------------------

@dataclass(frozen=True)
class OscillatorModel:
    """Shrinking-stiffness oscillator. k and kdot are schedules of time."""

    n_fock: int
    k: Callable[[float], float]
    kdot: Callable[[float], float]

    @property
    def omega_ref(self) -> float:
        k0 = float(self.k(0.0))
        if k0 <= 0.0:
            raise ValidationError(f"k(0) must be positive, got {k0}")
        return float(np.sqrt(k0))

    def ops(self):
        return build_su11_ops(self.n_fock, self.omega_ref)

    def validate_schedule(self, t0: float, t1: float) -> None:
        """Reject schedules that break the weak-invariant construction (a
        pole of k reads as infinite); config validation calls this too."""
        col = np.linspace(t0, t1, 65)
        with np.errstate(divide="ignore", invalid="ignore"):
            kv, kd = (np.asarray(f(col), dtype=float) for f in (self.k, self.kdot))
        reject_first([
            (~((0.0 < kv) & (kv < np.inf)), lambda at: (
                f"stiffness must stay positive and finite: k({col[at]:.6g}) = {kv[at]:.6g}")),
            (~(kd < 0.0), lambda at: (
                f"the dissipative construction needs k(t) strictly decreasing (rate c = "
                f"-kdot/2 must be positive): kdot({col[at]:.6g}) = {kd[at]:.6g}")),
        ])


def rational_decay(k0: float = 1.0, decay: float = 0.5) -> OscillatorModel:
    """k(t) = k0 / (1 + decay * t), the default schedule (decay > 0 shrinks)."""
    return OscillatorModel(n_fock=60, k=lambda t: k0 / (1.0 + decay * t),
                           kdot=lambda t: -k0 * decay / (1.0 + decay * t) ** 2)


def oscillator_generator(model: OscillatorModel) -> LindbladGenerator:
    """Generator with H(t) = K1 + k(t) K2, single jump L = K2, c = -kdot/2."""
    k1, k2, _ = model.ops()
    return LindbladGenerator(
        terms=np.array([k1, k2]),
        jumps=k2[None],
        coeffs=lambda t: np.stack([np.ones_like(t), model.k(t)], axis=-1),
        rates=lambda t: -0.5 * model.kdot(t)[:, None],
    )


def oscillator_predicted_growth(model: OscillatorModel, rho, t: float) -> float:
    """-kdot(t) <K3^2>, the model's closed-form variance growth rate.

    Meaningful only while the state respects the truncation-edge budget,
    which is checked here.
    """
    _, _, k3 = model.ops()
    occ = edge_occupation(rho)
    if occ > EDGE_OCCUPATION_TOL:
        raise ValidationError(
            f"top-2 Fock occupation {occ:.3e} exceeds {EDGE_OCCUPATION_TOL:.0e}; "
            "the truncation no longer resolves this state"
        )
    return -float(model.kdot(t)) * expectation(k3 @ k3, rho)


# -- spin model --------------------------------------------------------------

@dataclass(frozen=True)
class SpinModel:
    """Field schedule B(t) and its derivative, each mapping a time to a
    3-vector and a column of n times to (n, 3)."""

    b: Callable[[float], np.ndarray]
    bdot: Callable[[float], np.ndarray]


def exponential_field(b0, rate: float) -> SpinModel:
    """Uniform exponential field B(t) = B0 exp(8 c t) with all rates c."""
    base = np.asarray(b0, dtype=float)
    if base.shape != (3,):
        raise ValidationError(f"B0 must be a 3-vector, got shape {base.shape}")
    return SpinModel(b=lambda t: np.exp(8.0 * rate * t)[..., None] * base,
                     bdot=lambda t: 8.0 * rate * base * np.exp(8.0 * rate * t)[..., None])


def spin_coefficients(model: SpinModel, t) -> np.ndarray:
    """The three rates c_n(t) forced by weak invariance of H(t), (T, 3) on
    a column of T times.

    c_n = (1/8) (sum over the other two of Bdot_m/B_m - Bdot_n/B_n).
    Every component of B must stay away from zero, the rates must come
    out nonnegative, and the defining identity
    Bdot = 4((c2+c3)B1, (c3+c1)B2, (c1+c2)B3) is re-checked on the way
    out as a guard against schedule bugs; the earliest bad time is named.
    """
    bv, bd = (np.asarray(f(t), dtype=float) for f in (model.b, model.bdot))
    if bv.shape != np.shape(t) + (3,) or bd.shape != bv.shape:
        raise ValidationError("field and derivative must be 3-vectors")
    col, bv, bd = np.reshape(t, -1), bv.reshape(-1, 3), bd.reshape(-1, 3)
    with np.errstate(divide="ignore", invalid="ignore"):
        logd = bd / bv
        cs = (logd.sum(axis=1, keepdims=True) - 2.0 * logd) / 8.0
        fit = np.clip(cs, 0.0, None)
        defect = np.abs(4.0 * (fit[:, [1, 2, 0]] + fit[:, [2, 0, 1]]) * bv - bd).max(axis=1)
    reject_first([
        ((np.abs(bv) <= 1e-12).any(axis=1), lambda k: (
            f"field component crosses zero at t = {col[k[0]]:.6g}: B = {bv[k[0]].tolist()}")),
        ((cs < -1e-12).any(axis=1), lambda k: (
            f"schedule gives a negative rate at t = {col[k[0]]:.6g}: c = {cs[k[0]].tolist()}")),
        (defect > 1e-10 * np.maximum(np.abs(bd).max(axis=1), 1e-30), lambda k: (
            f"rate reconstruction defect {defect[k]:.3e} exceeds 1e-10 relative at "
            f"t = {col[k[0]]:.6g}")),
    ])
    return fit.reshape(np.shape(t) + (3,))


def spin_hamiltonian(model: SpinModel, t) -> np.ndarray:
    """B(t) . sigma; a column of n times gives the (n, 2, 2) stack."""
    bv = np.asarray(model.b(t), dtype=float)
    return sum(bv[..., n, None, None] * PAULIS[n] for n in range(3))


def spin_generator(model: SpinModel) -> LindbladGenerator:
    """Generator with H(t) = B(t).sigma and the three Paulis as jumps."""
    return LindbladGenerator(terms=np.array(PAULIS), jumps=np.array(PAULIS),
                             coeffs=model.b, rates=partial(spin_coefficients, model))


def spin_predicted_growth(model: SpinModel, t: float) -> float:
    """d B^2/dt = 2 B . Bdot, the state-independent growth rate."""
    bv = np.asarray(model.b(t), dtype=float)
    bd = np.asarray(model.bdot(t), dtype=float)
    return float(2.0 * bv @ bd)


# -- shared checks -----------------------------------------------------------

def invariance_residual(gen: LindbladGenerator, h_dot, t: float, trim: int = 0) -> float:
    """Max-abs residual of the invariant equation for I = H(t) itself.

    h_dot is the analytic time derivative of H at t. trim drops that many
    edge levels from each side of the comparison, for truncated spaces
    where the residual is pure edge artefact.
    """
    coeffs, rates = gen.eval(np.array([t]))
    rhs = lindblad_rhs(rhs_kernels(gen, coeffs, rates, [True])[0], gen.hamiltonian(coeffs))
    res = np.asarray(h_dot, dtype=complex) - rhs[0]
    return float(np.abs(res[:-trim or None, :-trim or None]).max())
