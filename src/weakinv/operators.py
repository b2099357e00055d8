"""Dense Hermitian-operator primitives shared by every other module.

All operators are plain complex numpy arrays; the helpers here certify the
properties the physics relies on (Hermiticity, unit trace, positivity) and
report the measured residual instead of a bare pass/fail. Everything is
dense and eigh-based on purpose: the target systems are small (dim <= 128)
and a single well-tested Hermitian eigensolver is easier to trust than a
zoo of specialised routines. Every guard of the package that names where
it breached raises through `abort_at`, at the first index a mask holds.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError

log = logging.getLogger(__name__)

# Pauli matrices, index order (x, y, z).
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)

# Lowering operator |g><e| in the basis (|e>, |g>).
SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)


# Certification tolerances: Hermiticity defect, negative-eigenvalue floor,
# trace defect (loosened per call by `channels.apply`), imaginary residue
# of an expectation, and the roundoff a negative variance is clipped from.
HERM_TOL = 1e-10
PSD_TOL = 1e-10
TRACE_TOL = 1e-9
IMAG_TOL = 1e-9
VARIANCE_CLIP = 1e-10


def _as_matrix(a) -> np.ndarray:
    """Accept a bare ndarray or any wrapper exposing .mat."""
    return np.asarray(getattr(a, "mat", a), dtype=complex)


def _require_square(a: np.ndarray, name: str) -> np.ndarray:
    """a itself, after checking it is a square matrix or a stack (..., d, d) of them."""
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValidationError(f"{name} must be a square matrix, got shape {a.shape}")
    return a


def _breach(bad) -> tuple | None:
    """Index of the first member where a guard mask holds, or None.

    The index is () for a single matrix, whose mask is a scalar; that
    mask is tested directly, which keeps the 2-D path as cheap per call
    as a plain comparison.
    """
    if bad.ndim == 0:
        return () if bad else None
    if not bad.any():
        return None
    return tuple(np.argwhere(bad)[0].tolist())


def _member(at: tuple) -> str:
    """Message prefix naming a breaching stack member; empty for a single matrix."""
    if not at:
        return ""
    return f"stack member {at[0] if len(at) == 1 else at}: "


def abort_at(bad, error, message, *more) -> None:
    """Raise error(message(at)) at the first index `at` where mask `bad` holds.

    `more` holds further (mask, error, message) checks; the earliest index
    of any check wins, compared as tuples (a row (r,) before its cells
    (r, c)), and at one index the earlier check. The error carries the
    index's first entry as `at`, None for a single matrix.
    """
    checks = ((bad, error, message), *more)
    found = [(at, k) for k, (mask, _, _) in enumerate(checks)
             if (at := _breach(mask)) is not None]
    if found:
        at, k = min(found)
        _, error, message = checks[k]
        exc = error(message(at))
        exc.at = at[0] if at else None
        raise exc


def hermiticity_defect(a):
    """Max-abs deviation of a from its conjugate transpose, per matrix of a stack."""
    m = _require_square(_as_matrix(a), "operator")
    return np.abs(m - m.conj().swapaxes(-1, -2)).max(axis=(-2, -1), initial=0.0)


def require_hermitian(a, name: str = "operator") -> np.ndarray:
    """Return a as an ndarray after certifying every matrix Hermitian within HERM_TOL."""
    m = _as_matrix(a)
    defect = hermiticity_defect(m)
    abort_at(~(defect <= HERM_TOL), ValidationError, lambda at: (
        f"{_member(at)}{name} is not Hermitian: defect {defect[at]:.3e} "
        f"exceeds tol {HERM_TOL:.1e}"))
    return m


def dagger(a) -> np.ndarray:
    """Conjugate transpose of the last two axes, so stacks are daggered member-wise."""
    return _as_matrix(a).conj().swapaxes(-1, -2)


@dataclass(frozen=True)
class DensityMatrix:
    """A certified density matrix with its smallest eigenvalue.

    Validation clips nothing: the stored matrix is exactly what was passed
    in, certified Hermitian, of unit trace and positive within tolerance.
    A stack (..., d, d) of states is certified member by member; `min_eig`
    then carries the stack's leading shape.
    """

    mat: np.ndarray
    min_eig: float

    @classmethod
    def from_matrix(cls, mat, trace_tol: float = TRACE_TOL) -> "DensityMatrix":
        m = require_hermitian(_require_square(_as_matrix(mat), "state"), name="state")
        tr = np.trace(m, axis1=-2, axis2=-1)
        trace_defect = abs(tr - 1.0)
        abort_at(trace_defect > trace_tol, ValidationError, lambda at: (
            f"{_member(at)}state trace {tr[at]:.12g} misses 1 by "
            f"{trace_defect[at]:.3e} (tol {trace_tol:.1e})"))
        min_eig = np.linalg.eigvalsh(0.5 * (m + dagger(m)))[..., 0]
        abort_at(min_eig < -PSD_TOL, ValidationError, lambda at: (
            f"{_member(at)}state has negative eigenvalue {min_eig[at]:.3e} "
            f"below -{PSD_TOL:.1e}"))
        return cls(mat=m, min_eig=min_eig)


def expectation(a, rho):
    """tr(A rho) for Hermitian A, returned as a real number.

    Operator and state may be stacks (..., d, d) that broadcast against
    each other; the result then holds one value per member. The imaginary
    residue of the trace is a cheap witness for a non-Hermitian operator
    or a corrupted state, so it is checked for every member.
    """
    ma = _as_matrix(a)
    mr = _as_matrix(rho)
    _require_square(ma, "operator")
    if ma.shape[-2:] != mr.shape[-2:]:
        raise ValidationError(f"dimension mismatch: operator {ma.shape}, state {mr.shape}")
    val = np.einsum("...ij,...ji->...", ma, mr)
    residue = abs(val.imag)
    # residue > IMAG_TOL * max(|val|, 1), without a ufunc call per scalar
    abort_at((residue > IMAG_TOL) & (residue > IMAG_TOL * abs(val)), ValidationError,
             lambda at: (f"{_member(at)}expectation has imaginary residue {val[at].imag:.3e} "
                         f"(tol {IMAG_TOL:.1e}); operator or state is not Hermitian enough"))
    return val.real


def variance(a, rho):
    """<A^2> - <A>^2 in the given state, per member for stacks.

    Roundoff can push a mathematically zero variance slightly negative;
    values in [-VARIANCE_CLIP, 0) are clipped to 0 and logged. Anything
    more negative means the inputs are broken and is a hard error.
    """
    ma = _as_matrix(a)
    mean = expectation(ma, rho)
    second = expectation(ma @ ma, rho)
    var = second - mean * mean
    neg = var < 0.0
    if neg.any():
        abort_at(var < -VARIANCE_CLIP, NumericalError, lambda at: (
            f"{_member(at)}variance {var[at]:.3e} is negative beyond the clip "
            f"threshold {VARIANCE_CLIP:.1e}"))
        log.debug("clipped %d tiny negative variance(s), down to %.3e, to 0",
                  np.count_nonzero(neg), var.min())
        var = np.where(neg, 0.0, var)[()]
    return var
