"""Channel layer: CPTP validation, adjoints, the operator Jensen
inequality, and the short-step factorisation of the generator."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weakinv.channels import (
    QuantumChannel,
    adjoint_apply,
    apply,
    kadison_gap,
    lindblad_step_channel,
    random_channel,
    seeded_generators,
)
from weakinv.errors import ValidationError
from weakinv.lindblad import LindbladGenerator
from weakinv.operators import DensityMatrix, SIGMA_X, SIGMA_Z, expectation


def depolarizing(p):
    s = np.sqrt(p / 3.0)
    kraus = [np.sqrt(1.0 - p) * np.eye(2, dtype=complex)]
    for sigma in (SIGMA_X, np.array([[0, -1j], [1j, 0]]), SIGMA_Z):
        kraus.append(s * sigma.astype(complex))
    return QuantumChannel.from_kraus(kraus)


def bit_flip(p):
    return QuantumChannel.from_kraus(
        [np.sqrt(1.0 - p) * np.eye(2, dtype=complex), np.sqrt(p) * SIGMA_X])


def test_kraus_completeness_enforced():
    with pytest.raises(ValidationError):
        QuantumChannel.from_kraus([0.5 * np.eye(2, dtype=complex)])


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


EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 2, 2**64 - 1]


@given(st.lists(st.integers(0, 2**64 - 1), max_size=6), st.integers(2, 6))
@settings(max_examples=100, deadline=None)
def test_seeded_generators_replay_default_rng(seeds, dim):
    # each yielded stream is default_rng(seed)'s, bit for bit, through the
    # draws channel fuzz makes: shape, observable and channel draws
    seeds = seeds + EDGE_SEEDS
    streams = seeded_generators(np.array(seeds, dtype=np.uint64))
    for seed, rng in zip(seeds, streams, strict=True):
        ref = np.random.default_rng(seed)
        assert rng.integers(2, 7) == ref.integers(2, 7)
        assert rng.integers(1, 5) == ref.integers(1, 5)
        assert np.array_equal(rng.standard_normal((2, 2, dim, dim)),
                              ref.standard_normal((2, 2, dim, dim)))
        assert np.array_equal(rng.normal(size=(2, 3 * dim, dim)),
                              ref.normal(size=(2, 3 * dim, dim)))


def _per_seed_channel(dim, n_kraus, seed):
    """random_channel's draw for one seed, from its own default_rng."""
    z = np.random.default_rng(seed).normal(size=(2, n_kraus * dim, dim))
    q, r = np.linalg.qr(z[0] + 1j * z[1])
    d = np.diagonal(r)
    return (q * (d.conj() / np.abs(d))).reshape(n_kraus, dim, dim)


@given(st.integers(2, 6), st.integers(1, 5),
       st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4))
@settings(max_examples=50, deadline=None)
def test_random_channel_members_equal_per_seed_draws(dim, n_kraus, seeds):
    stack = random_channel(dim, n_kraus, np.array(seeds, dtype=np.uint64))
    for j, seed in enumerate(seeds):
        assert np.array_equal(stack.kraus[j], _per_seed_channel(dim, n_kraus, seed))


@pytest.mark.parametrize("seed, message", [
    (-1, "seed -1 is outside"),
    ([3, -1], "stack member 1: seed -1 is outside"),
    ([0, 2**64], "stack member 1: seed 18446744073709551616 is outside"),
    (2.5, "seed 2.5 is not an integer"),
    ([1.0, 2.0], "stack member 0: seed 1.0 is not an integer"),
    ([True], "stack member 0: seed True is not an integer"),
    ([2**64, "7"], "stack member 1: seed 7 is not an integer"),
])
def test_seed_domain_is_guarded(seed, message):
    for call in (lambda: random_channel(2, 1, seed), lambda: seeded_generators(seed)):
        with pytest.raises(ValidationError, match=message):
            call()


def _static_spin_generator(c):
    return LindbladGenerator(
        terms=[SIGMA_Z],
        jumps=[SIGMA_X],
        coeffs=lambda t: np.ones((t.size, 1)),
        rates=lambda t: np.full((t.size, 1), c),
    )


def _step_channel_at_zero(gen, dt):
    coeffs, rates = gen.eval(np.array([0.0]))
    return lindblad_step_channel(gen, coeffs[0], rates[0], dt)


def test_step_channel_residual_within_budget():
    gen = _static_spin_generator(0.3)
    for dt in (1e-2, 1e-3):
        ch = _step_channel_at_zero(gen, dt)
        # certified at construction; the defect must really be O(dt^2)
        assert ch.tp_defect <= 10.0 * dt * dt * 4.0


def test_step_channel_matches_generator_to_first_order():
    gen = _static_spin_generator(0.3)
    rho = np.diag([0.75, 0.25]).astype(complex)
    dt = 1e-4
    ch = _step_channel_at_zero(gen, dt)
    stepped = sum(v @ rho @ v.conj().T for v in ch.kraus)
    from weakinv.lindblad import lindblad_rhs, rhs_kernels
    kernel = rhs_kernels(gen, *gen.eval(np.array([0.0])), [False])[0]
    euler = rho + dt * lindblad_rhs(kernel, rho[None])[0]
    # agreement through first order, so the residual is O(dt^2)
    assert np.abs(stepped - euler).max() < 100.0 * dt * dt
