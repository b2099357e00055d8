import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weakinv.channels import QuantumChannel
from weakinv.errors import NumericalError, ValidationError
from weakinv.fokker_planck import interior_minimum
from weakinv.lindblad import entropy_bound, escort
from weakinv.operators import (
    DensityMatrix,
    SIGMA_MINUS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    dagger,
    expectation,
    hermiticity_defect,
    require_hermitian,
    variance,
)
from weakinv.thermo import canonical_state, internal_energy


def random_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (g + g.conj().T)


def random_density(dim, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return m / np.trace(m).real


def test_pauli_algebra():
    def commutator(a, b):
        return a @ b - b @ a

    assert np.allclose(SIGMA_X @ SIGMA_X, np.eye(2))
    assert np.allclose(commutator(SIGMA_X, SIGMA_Y), 2j * SIGMA_Z)
    assert np.allclose(commutator(SIGMA_Y, SIGMA_Z), 2j * SIGMA_X)
    assert np.allclose(commutator(SIGMA_Z, SIGMA_X), 2j * SIGMA_Y)


def test_hermiticity_defect_detects_asymmetry():
    a = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    assert hermiticity_defect(a) == pytest.approx(1.0)
    assert hermiticity_defect(SIGMA_Y) == 0.0


def test_hermitian_operator_rejects_nonhermitian():
    with pytest.raises(ValidationError, match="operator is not Hermitian: defect 1.000e"):
        require_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_hermiticity_guards_reject_non_finite_matrices(bad):
    # a NaN defect compares False against the tolerance, so the guards
    # test that it is within it; an infinite entry minus itself is NaN
    m = np.diag([bad, 0.5]).astype(complex)
    herm = re.escape("is not Hermitian: defect nan exceeds tol 1.0e-10")
    with pytest.raises(ValidationError, match="^operator " + herm):
        require_hermitian(m)
    with pytest.raises(ValidationError, match="^state " + herm):
        DensityMatrix.from_matrix(m)
    stack = np.stack([np.eye(2) / 2, m, m])
    with pytest.raises(ValidationError, match="^stack member 1: operator " + herm):
        require_hermitian(stack)
    with pytest.raises(ValidationError, match="^stack member 1: state " + herm):
        DensityMatrix.from_matrix(stack)


def test_density_matrix_validation():
    rho = DensityMatrix.from_matrix(np.diag([0.25, 0.75]).astype(complex))
    assert np.trace(rho.mat) == pytest.approx(1.0, abs=1e-15)
    assert rho.min_eig == pytest.approx(0.25)

    with pytest.raises(ValidationError):
        DensityMatrix.from_matrix(np.diag([0.5, 0.6]))   # trace 1.1
    with pytest.raises(ValidationError):
        DensityMatrix.from_matrix(np.diag([1.5, -0.5]))  # negative weight


@pytest.mark.parametrize("bad, message", [
    (np.array([[0.5, 0.1], [0.0, 0.5]], dtype=complex), "not Hermitian"),
    (np.diag([0.5, 0.6]).astype(complex), "misses 1"),
    (np.diag([1.5, -0.5]).astype(complex), "negative eigenvalue"),
])
def test_density_matrix_stack_names_breaching_member(bad, message):
    stack = np.stack([random_density(2, s) for s in range(4)])
    ok = DensityMatrix.from_matrix(stack)
    assert ok.min_eig.shape == (4,)
    stack[2] = bad
    with pytest.raises(ValidationError, match=f"stack member 2: .*{message}"):
        DensityMatrix.from_matrix(stack)


def test_variance_clips_or_raises_per_member():
    # sigma_z in diag(p, 1 - p) has variance 4 p (1 - p): slightly negative
    # just above p = 1, where roundoff-sized breaches are clipped
    def states(*ps):
        return np.stack([np.diag([p, 1.0 - p]).astype(complex) for p in ps])

    var = variance(SIGMA_Z, states(0.25, 1.0 + 1e-12, 0.5))
    assert var[1] == 0.0
    assert var[0] == pytest.approx(0.75) and var[2] == pytest.approx(1.0)
    with pytest.raises(NumericalError, match="stack member 1: variance"):
        variance(SIGMA_Z, states(0.25, 1.0 + 1e-6, 1.0 + 1e-12))


def test_expectation_and_variance_pure_state():
    # spin up along z: <sz> = 1, var = 0; <sx> = 0, var = 1
    rho = np.diag([1.0, 0.0]).astype(complex)
    assert expectation(SIGMA_Z, rho) == pytest.approx(1.0)
    assert variance(SIGMA_Z, rho) == pytest.approx(0.0, abs=1e-12)
    assert expectation(SIGMA_X, rho) == pytest.approx(0.0, abs=1e-12)
    assert variance(SIGMA_X, rho) == pytest.approx(1.0)


def test_expectation_rejects_large_imaginary_part():
    # tr(a rho) = i/2 for the raising operator against (1 + sigma_y)/2
    rho = 0.5 * (np.eye(2) + SIGMA_Y).astype(complex)
    with pytest.raises(ValidationError):
        expectation(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex), rho)


@pytest.mark.parametrize("trip, error, message", [
    (lambda: DensityMatrix.from_matrix(np.stack([np.eye(2) / 2, np.eye(2)])), ValidationError,
     "stack member 1: state trace 2+0j misses 1 by 1.000e+00 (tol 1.0e-09)"),
    (lambda: expectation(1j * np.eye(2), np.eye(2) / 2), ValidationError,
     "expectation has imaginary residue 1.000e+00 (tol 1.0e-09); "
     "operator or state is not Hermitian enough"),
    (lambda: variance(np.diag([1.0, 0.0]), np.diag([1.5, -0.5])), NumericalError,
     "variance -7.500e-01 is negative beyond the clip threshold 1.0e-10"),
    (lambda: QuantumChannel.from_kraus([2.0 * np.eye(2)]), ValidationError,
     "Kraus completeness residual 3.000e+00 exceeds tol 1.0e-09"),
    (lambda: escort(np.zeros(2), np.eye(2), 2.0), NumericalError,
     "escort normalisation vanished; state is numerically zero"),
    (lambda: entropy_bound(SIGMA_MINUS[None], np.diag([1j, 0.0])), NumericalError,
     "entropy bound has imaginary residue 2.000e+00"),
    (lambda: interior_minimum(np.array([[0.0, 0, 0, 1, -0.5, 0, 0, 0, 0]]), np.array([0.25])),
     NumericalError, "density went negative at t = 0.25: min -5.000e-01"),
], ids=["trace", "expectation", "variance", "completeness", "escort", "entropy_bound",
        "interior_minimum"])
def test_guards_raise_their_class_and_whole_message(trip, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as exc:
        trip()
    assert type(exc.value) is error


@pytest.mark.parametrize("entry", [lambda h: canonical_state(h, 1.0),
                                   lambda h: internal_energy(h, 1.0)],
                         ids=["canonical_state", "internal_energy"])
def test_thermo_entry_points_reject_non_square_input(entry):
    # a non-square input is a config-level shape error, named as the Hamiltonian
    for bad in (np.ones((2, 3), dtype=complex), np.ones(2, dtype=complex)):
        with pytest.raises(ValidationError, match="Hamiltonian must be a square matrix"):
            entry(bad)


@given(st.integers(2, 8), st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_variance_nonnegative(dim, seed):
    a = random_hermitian(dim, seed)
    rho = random_density(dim, seed + 1)
    assert variance(a, rho) >= 0.0


def test_dagger_matches_conjugate_transpose():
    a = np.array([[1.0, 2.0j], [0.5, -1.0]], dtype=complex)
    assert np.array_equal(dagger(a), a.conj().T)
