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


def test_compose_broadcasts_over_stacks():
    seeds = np.array([3, 4, 5])
    later, earlier = random_channel(3, 2, seeds), random_channel(3, 3, seeds + 10)
    both = compose(later, earlier)
    assert both.kraus.shape == (3, 6, 3, 3)
    for j, s in enumerate(seeds):
        one = compose(random_channel(3, 2, s), random_channel(3, 3, s + 10))
        assert np.abs(both.kraus[j] - one.kraus).max() < 1e-14


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


def _hermitian(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (g + g.conj().T)


def _density(rng, dim):
    r = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = r @ r.conj().T
    return rho / np.trace(rho).real


SEED_STACKS = st.lists(st.integers(0, 10**6), min_size=1, max_size=4)


@given(st.integers(2, 6), st.integers(1, 5), SEED_STACKS)
@settings(max_examples=50, deadline=None)
def test_random_channel_kadison_psd(dim, n_kraus, seeds):
    stack = random_channel(dim, n_kraus, np.array(seeds))
    i_ops = np.stack([_hermitian(np.random.default_rng(s + 13), dim) for s in seeds])
    gaps = kadison_gap(stack, i_ops)
    assert stack.kraus.shape == (len(seeds), n_kraus, dim, dim)
    for j, seed in enumerate(seeds):
        ch = random_channel(dim, n_kraus, seed)
        gap = kadison_gap(ch, i_ops[j])
        assert np.linalg.eigvalsh(gap).min() >= -1e-9 * max(1.0, np.abs(i_ops[j]).max() ** 2)
        assert np.array_equal(stack.kraus[j], ch.kraus)
        assert np.abs(gaps[j] - gap).max() <= 1e-13 * max(1.0, np.abs(gap).max())


@given(st.integers(2, 6), st.integers(1, 5), SEED_STACKS)
@settings(max_examples=50, deadline=None)
def test_duality_of_expectations(dim, n_kraus, seeds):
    stack = random_channel(dim, n_kraus, np.array(seeds))
    rngs = [np.random.default_rng(s + 29) for s in seeds]
    i_ops = np.stack([_hermitian(rng, dim) for rng in rngs])
    rhos = np.stack([_density(rng, dim) for rng in rngs])
    lhs_stack = expectation(adjoint_apply(stack, i_ops), rhos)
    rhs_stack = expectation(i_ops, apply(stack, rhos))
    for j, seed in enumerate(seeds):
        ch = random_channel(dim, n_kraus, seed)
        lhs = expectation(adjoint_apply(ch, i_ops[j]), rhos[j])
        rhs = expectation(i_ops[j], apply(ch, rhos[j]))
        assert lhs == pytest.approx(rhs, abs=1e-10)
        assert lhs_stack[j] == pytest.approx(lhs, abs=1e-13)
        assert rhs_stack[j] == pytest.approx(rhs, abs=1e-13)


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
    from weakinv.lindblad import Kernel
    euler = rho + dt * Kernel(gen, 0.0).state_rhs(rho)
    # agreement through first order, so the residual is O(dt^2)
    assert np.abs(stepped - euler).max() < 100.0 * dt * dt
