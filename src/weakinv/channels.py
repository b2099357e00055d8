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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .operators import (
    TRACE_TOL,
    DensityMatrix,
    _as_matrix,
    _breach,
    _member,
    dagger,
    require_hermitian,
)

CPTP_TOL = 1e-9


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
        at = _breach(defect > tp_tol)
        if at is not None:
            raise ValidationError(
                f"{_member(at)}Kraus completeness residual {defect[at]:.3e} "
                f"exceeds tol {tp_tol:.1e}"
            )
        return cls(kraus=mats, tp_defect=defect, tp_tol=float(tp_tol))

    @property
    def dim(self) -> int:
        return self.kraus.shape[-1]


def sandwich(left, m, right) -> np.ndarray:
    """sum_k left_k m right_k over the Kraus axis -3, broadcast over stacks."""
    return (left @ m[..., None, :, :] @ right).sum(axis=-3)


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


def kadison_gap(ch: QuantumChannel, i_op) -> np.ndarray:
    """adjoint(I^2) - adjoint(I)^2 for Hermitian I.

    Positive semidefinite for every channel with a unital adjoint; its
    expectation in the pre-step state is exactly the one-step variance
    growth of the invariant pair.
    """
    m = require_hermitian(i_op, name="invariant")
    fwd = adjoint_apply(ch, m)
    return adjoint_apply(ch, m @ m) - fwd @ fwd


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


def random_channel(dim: int, n_kraus: int, seed) -> QuantumChannel:
    """Seeded Haar-style random CPTP map, or a stack of them.

    For each seed a complex Gaussian (n_kraus*dim, dim) matrix is drawn
    from its own default_rng(seed) and QR-orthonormalised into an
    isometry; its dim x dim row blocks are the Kraus operators, so
    completeness holds to machine precision by construction. The R
    phases are fixed to make the draw unambiguous for a given seed. A
    1-d array of seeds gives a stack whose member j equals the channel
    drawn for seed[j] alone.
    """
    if dim < 1 or n_kraus < 1:
        raise ValidationError(f"need dim >= 1 and n_kraus >= 1, got {dim}, {n_kraus}")
    seeds = np.asarray(seed)
    if seeds.ndim > 1:
        raise ValidationError(f"seed must be an integer or a 1-d array, got shape {seeds.shape}")
    shape = (n_kraus * dim, dim)
    # one draw per seed, real parts then imaginary, stored as (re, im) pairs
    # so that the buffer is the complex stack itself
    z = np.empty((seeds.size,) + shape + (2,))
    for j, s in enumerate(seeds.reshape(-1)):
        z[j] = np.moveaxis(np.random.default_rng(int(s)).normal(size=(2,) + shape), 0, -1)
    q, r = np.linalg.qr(z.view(complex).reshape(seeds.shape + shape))
    d = np.diagonal(r, axis1=-2, axis2=-1)
    q = q * (d.conj() / np.abs(d))[..., None, :]
    return QuantumChannel.from_kraus(
        q.reshape(seeds.shape + (n_kraus, dim, dim)), tp_tol=1e-12
    )
