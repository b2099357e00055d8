"""Channel layer: CPTP validation, adjoints, composition, the operator
Jensen inequality, and the short-step factorisation of the generator."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weakinv.channels import (
    QuantumChannel,
    adjoint_apply,
    apply,
    compose,
    kadison_gap,
    lindblad_step_channel,
    random_channel,
)
from weakinv.errors import ValidationError
from weakinv.lindblad import LindbladGenerator
from weakinv.operators import DensityMatrix, SIGMA_X, SIGMA_Z, expectation


def depolarizing(p):
    s = np.sqrt(p / 3.0)
    kraus = [np.sqrt(1.0 - p) * np.eye(2, dtype=complex)]
    for sigma in (SIGMA_X, np.array([[0, -1j], [1j, 0]]), SIGMA_Z):
        kraus.append(s * sigma.astype(complex))
    return QuantumChannel.from_kraus(kraus, t_from=0.0, t_to=1.0)


def bit_flip(p):
    return QuantumChannel.from_kraus(
        [np.sqrt(1.0 - p) * np.eye(2, dtype=complex), np.sqrt(p) * SIGMA_X],
        t_from=0.0, t_to=1.0,
    )


def test_kraus_completeness_enforced():
    with pytest.raises(ValidationError):
        QuantumChannel.from_kraus([0.5 * np.eye(2, dtype=complex)],
                                  t_from=0.0, t_to=1.0)


def test_depolarizing_adjoint_contracts_observables():
    # Phi*(s3) = (1 - 4p/3) s3 for the depolarizing channel; 0.6 at p = 0.3
    ch = depolarizing(0.3)
    pulled = adjoint_apply(ch, SIGMA_Z)
    assert np.abs(pulled - 0.6 * SIGMA_Z).max() < 1e-12


def test_depolarizing_kadison_gap_closed_form():
    # With I = s3: adjoint(I^2) = 1, (adjoint I)^2 = 0.36 * 1, gap = 0.64 * 1
    ch = depolarizing(0.3)
    gap = kadison_gap(ch, SIGMA_Z)
    assert np.abs(gap - 0.64 * np.eye(2)).max() < 1e-12


def test_bit_flip_adjoint():
    ch = bit_flip(0.2)
    pulled = adjoint_apply(ch, SIGMA_Z)
    assert np.abs(pulled - 0.6 * SIGMA_Z).max() < 1e-12


def test_compose_two_half_flips():
    # two p = 1/2 bit flips: rho -> rho/2 + X rho X / 2, and the time
    # bookkeeping must chain.
    a = QuantumChannel.from_kraus(
        [np.sqrt(0.5) * np.eye(2, dtype=complex), np.sqrt(0.5) * SIGMA_X],
        t_from=0.0, t_to=1.0)
    b = QuantumChannel.from_kraus(
        [np.sqrt(0.5) * np.eye(2, dtype=complex), np.sqrt(0.5) * SIGMA_X],
        t_from=1.0, t_to=2.0)
    both = compose(b, a)
    assert both.t_from == 0.0 and both.t_to == 2.0
    rho = np.diag([1.0, 0.0]).astype(complex)
    out = apply(both, rho)
    expected = 0.5 * rho + 0.5 * SIGMA_X @ rho @ SIGMA_X
    assert np.abs(out.mat - expected).max() < 1e-12


def test_compose_rejects_time_gap():
    a = bit_flip(0.1)                      # [0, 1]
    b = bit_flip(0.1)                      # also [0, 1], cannot follow a
    with pytest.raises(ValidationError):
        compose(b, a)


def test_apply_preserves_trace_and_positivity():
    ch = random_channel(4, 3, seed=7)
    rng = np.random.default_rng(8)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    out = apply(ch, rho)
    assert isinstance(out, DensityMatrix)
    assert out.trace_defect < 1e-9
    assert out.min_eig > -1e-10


def test_adjoint_is_unital_for_random_channels():
    for seed in range(5):
        ch = random_channel(5, 4, seed=seed)
        pulled = adjoint_apply(ch, np.eye(5, dtype=complex))
        assert np.abs(pulled - np.eye(5)).max() < 1e-12


@given(st.integers(2, 6), st.integers(1, 5), st.integers(0, 10**6))
@settings(max_examples=50, deadline=None)
def test_random_channel_kadison_psd(dim, n_kraus, seed):
    ch = random_channel(dim, n_kraus, seed)
    rng = np.random.default_rng(seed + 13)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    i_op = 0.5 * (g + g.conj().T)
    gap = kadison_gap(ch, i_op)
    assert np.linalg.eigvalsh(gap).min() >= -1e-9 * max(1.0, np.abs(i_op).max() ** 2)


@given(st.integers(2, 6), st.integers(1, 5), st.integers(0, 10**6))
@settings(max_examples=50, deadline=None)
def test_duality_of_expectations(dim, n_kraus, seed):
    ch = random_channel(dim, n_kraus, seed)
    rng = np.random.default_rng(seed + 29)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    i_op = 0.5 * (g + g.conj().T)
    r = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = r @ r.conj().T
    rho /= np.trace(rho).real
    lhs = expectation(adjoint_apply(ch, i_op), rho)
    rhs = expectation(i_op, apply(ch, rho))
    assert lhs == pytest.approx(rhs, abs=1e-10)


def _static_spin_generator(c):
    h = SIGMA_Z.astype(complex)
    return LindbladGenerator(
        dim=2,
        hamiltonian=lambda t: h,
        lindblads=(lambda t: SIGMA_X.astype(complex),),
        rates=lambda t: (c,),
    )


def test_step_channel_residual_within_budget():
    gen = _static_spin_generator(0.3)
    for dt in (1e-2, 1e-3):
        ch = lindblad_step_channel(gen, 0.0, dt)
        # certified at construction; the defect must really be O(dt^2)
        assert ch.tp_defect <= 10.0 * dt * dt * 4.0


def test_step_channel_matches_generator_to_first_order():
    gen = _static_spin_generator(0.3)
    rho = np.diag([0.75, 0.25]).astype(complex)
    dt = 1e-4
    ch = lindblad_step_channel(gen, 0.0, dt)
    stepped = sum(v @ rho @ v.conj().T for v in ch.kraus)
    from weakinv.lindblad import lindblad_rhs
    euler = rho + dt * lindblad_rhs(gen, rho, 0.0)
    # agreement through first order, so the residual is O(dt^2)
    assert np.abs(stepped - euler).max() < 100.0 * dt * dt
