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
    which overwhelms double precision within t ~ 0.1); instead it is
    carried inside the algebra, I = kappa1 K1 + kappa2 K2 + kappa3 K3 +
    kappa0, whose coefficient dynamics

        kappa1' = -2 kappa3
        kappa2' = 2 k kappa3 - 2 c kappa1
        kappa3' = k kappa1 - kappa2

    is exact, with (1, k(t), 0) recovering H(t) in closed form.

Spin in a growing field
    H(t) = B(t) . sigma with the three Pauli operators as jump operators.
    Requiring H to be a weak invariant fixes the rates to

        c_1 = (1/8) (-Bdot1/B1 + Bdot2/B2 + Bdot3/B3)   (and cyclic),

    equivalently Bdot = 4 ((c2+c3) B1, (c3+c1) B2, (c1+c2) B3). All
    rates nonnegative forces |B| to grow; the uniform exponential field
    B0 exp(8ct) has all three rates equal to c. Since H^2 = B^2 and
    [sigma_n, H]^dag [sigma_n, H] = 4 (B^2 - B_n^2), the fluctuation
    growth rate is d B^2/dt for every state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ValidationError
from .lindblad import Kernel, LindbladGenerator
from .operators import PAULIS, _as_matrix, expectation

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


def edge_occupation(rho, levels: int = 2) -> float:
    """Total population of the top `levels` basis states."""
    m = _as_matrix(rho)
    return float(np.sum(np.diagonal(m)[-levels:]).real)


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

    def validate_schedule(self, t0: float, t1: float, samples: int = 65) -> None:
        """Reject schedules that break the weak-invariant construction."""
        for t in np.linspace(t0, t1, samples):
            kv, kd = float(self.k(t)), float(self.kdot(t))
            if kv <= 0.0:
                raise ValidationError(
                    f"stiffness must stay positive: k({t:.6g}) = {kv:.6g}"
                )
            if kd >= 0.0:
                raise ValidationError(
                    f"the dissipative construction needs k(t) strictly decreasing "
                    f"(rate c = -kdot/2 must be positive): kdot({t:.6g}) = {kd:.6g}"
                )


def rational_decay(k0: float = 1.0, decay: float = 0.5) -> OscillatorModel:
    """k(t) = k0 / (1 + decay * t), the default schedule (decay > 0 shrinks)."""
    def k(t: float) -> float:
        return k0 / (1.0 + decay * t)

    def kdot(t: float) -> float:
        return -k0 * decay / (1.0 + decay * t) ** 2

    return OscillatorModel(n_fock=60, k=k, kdot=kdot)


def oscillator_generator(model: OscillatorModel) -> LindbladGenerator:
    """Generator with H(t) = K1 + k(t) K2, single jump L = K2, c = -kdot/2."""
    k1, k2, _ = model.ops()

    def hamiltonian(t: float) -> np.ndarray:
        return k1 + float(model.k(t)) * k2

    def rates(t: float) -> tuple[float]:
        return (-0.5 * float(model.kdot(t)),)

    return LindbladGenerator(
        dim=model.n_fock,
        hamiltonian=hamiltonian,
        lindblads=(lambda t: k2,),
        rates=rates,
    )


def oscillator_invariant_path(model: OscillatorModel) -> Callable[[float], np.ndarray]:
    """The closed-form weak invariant I(t) = H(t) = K1 + k(t) K2."""
    k1, k2, _ = model.ops()

    def path(t: float) -> np.ndarray:
        return k1 + float(model.k(t)) * k2

    return path


def oscillator_predicted_growth(model: OscillatorModel, rho, t: float) -> float:
    """-kdot(t) <K3^2>, the model's closed-form variance growth rate.

    Meaningful only while the state respects the truncation-edge budget,
    which is checked here.
    """
    _, _, k3 = model.ops()
    occ = edge_occupation(rho, 2)
    if occ > EDGE_OCCUPATION_TOL:
        raise ValidationError(
            f"top-2 Fock occupation {occ:.3e} exceeds {EDGE_OCCUPATION_TOL:.0e}; "
            "the truncation no longer resolves this state"
        )
    return -float(model.kdot(t)) * expectation(k3 @ k3, rho)


# -- spin model --------------------------------------------------------------

@dataclass(frozen=True)
class SpinModel:
    """Field schedule B(t) and its derivative, each mapping t -> 3-vector."""

    b: Callable[[float], np.ndarray]
    bdot: Callable[[float], np.ndarray]


def exponential_field(b0, rate: float) -> SpinModel:
    """Uniform exponential field B(t) = B0 exp(8 c t) with all rates c."""
    base = np.asarray(b0, dtype=float)
    if base.shape != (3,):
        raise ValidationError(f"B0 must be a 3-vector, got shape {base.shape}")

    def b(t: float) -> np.ndarray:
        return base * np.exp(8.0 * rate * t)

    def bdot(t: float) -> np.ndarray:
        return 8.0 * rate * base * np.exp(8.0 * rate * t)

    return SpinModel(b=b, bdot=bdot)


def spin_coefficients(model: SpinModel, t: float) -> np.ndarray:
    """The three rates c_n(t) forced by weak invariance of H(t).

    c_n = (1/8) (sum over the other two of Bdot_m/B_m - Bdot_n/B_n).
    Every component of B must stay away from zero, the rates must come
    out nonnegative, and the defining identity
    Bdot = 4((c2+c3)B1, (c3+c1)B2, (c1+c2)B3) is re-checked on the way
    out as a guard against schedule bugs.
    """
    bv = np.asarray(model.b(t), dtype=float)
    bd = np.asarray(model.bdot(t), dtype=float)
    if bv.shape != (3,) or bd.shape != (3,):
        raise ValidationError("field and derivative must be 3-vectors")
    if np.any(np.abs(bv) <= 1e-12):
        raise ValidationError(
            f"field component crosses zero at t = {t:.6g}: B = {bv.tolist()}"
        )
    logd = bd / bv
    total = logd.sum()
    cs = (total - 2.0 * logd) / 8.0
    if np.any(cs < -1e-12):
        raise ValidationError(
            f"schedule gives a negative rate at t = {t:.6g}: c = {cs.tolist()}"
        )
    cs = np.clip(cs, 0.0, None)
    recon = 4.0 * np.array([
        (cs[1] + cs[2]) * bv[0],
        (cs[2] + cs[0]) * bv[1],
        (cs[0] + cs[1]) * bv[2],
    ])
    scale = max(float(np.abs(bd).max()), 1e-30)
    defect = float(np.abs(recon - bd).max())
    if defect > 1e-10 * scale:
        raise ValidationError(
            f"rate reconstruction defect {defect:.3e} exceeds 1e-10 relative at t = {t:.6g}"
        )
    return cs


def spin_hamiltonian(model: SpinModel, t: float) -> np.ndarray:
    bv = np.asarray(model.b(t), dtype=float)
    return sum(bv[n] * PAULIS[n] for n in range(3))


def spin_generator(model: SpinModel) -> LindbladGenerator:
    """Generator with H(t) = B(t).sigma and the three Paulis as jumps."""
    def ham(t: float) -> np.ndarray:
        return spin_hamiltonian(model, t)

    return LindbladGenerator(
        dim=2,
        hamiltonian=ham,
        lindblads=tuple((lambda t, n=n: PAULIS[n]) for n in range(3)),
        rates=lambda t: spin_coefficients(model, t),
    )


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
    h, _, _ = gen.eval(t)
    res = np.asarray(h_dot, dtype=complex) - Kernel(gen, t).invariant_rhs(h)
    if trim > 0:
        res = res[:-trim, :-trim]
    return float(np.abs(res).max())
