"""Channel layer: CPTP validation, adjoints, the operator Jensen
inequality, and the short-step factorisation of the generator."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weakinv.channels import (
    QuantumChannel,
    adjoint_apply,
    apply,
    bounded_draws,
    kadison_gap,
    lindblad_step_channel,
    pcg64_states,
    random_channel,
    sandwich,
    seeded_generators,
)
from weakinv.config import validate_config
from weakinv.errors import ValidationError
from weakinv.lindblad import LindbladGenerator
from weakinv.operators import DensityMatrix, SIGMA_X, SIGMA_Z, expectation, variance
from weakinv.scenarios import run_scenario


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
    gap, _ = kadison_gap(ch, SIGMA_Z)
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
    assert abs(np.trace(out.mat) - 1.0) < 1e-9
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
    gaps, _ = kadison_gap(stack, i_ops)
    assert stack.kraus.shape == (len(seeds), n_kraus, dim, dim)
    for j, seed in enumerate(seeds):
        ch = random_channel(dim, n_kraus, seed)
        gap, _ = kadison_gap(ch, i_ops[j])
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


def _state_row(rng):
    """A generator's PCG64 state as a `pcg64_states` row of Python ints."""
    st = rng.bit_generator.state
    s, inc = st["state"]["state"], st["state"]["inc"]
    return [s >> 64, s & (2**64 - 1), inc >> 64, inc & (2**64 - 1),
            st["has_uint32"], st["uinteger"]]


# ranges of 1 (no word), 2**31 + 1 (about half of all words rejected) and
# 2**32 (the word itself) are the edges of numpy's 32-bit bounded draw
EDGE_RANGES = [1, 2, 5, 2**31 + 1, 2**32 - 1, 2**32]
DRAW_BOUNDS = st.tuples(st.integers(-2**40, 2**40),
                        st.one_of(st.sampled_from(EDGE_RANGES), st.integers(1, 2**32)))


@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=6),
       st.lists(DRAW_BOUNDS, max_size=3))
@settings(max_examples=100, deadline=None)
def test_bounded_draws_equal_default_rng(seeds, lo_ranges):
    seeds = seeds + EDGE_SEEDS
    bounds = [(lo, lo + m) for lo, m in lo_ranges]
    states = pcg64_states(np.array(seeds, dtype=np.uint64))
    draws, after = bounded_draws(np.array(seeds, dtype=np.uint64), bounds)
    assert draws.shape == (len(seeds), len(bounds)) and draws.dtype == np.int64
    for j, seed in enumerate(seeds):
        ref = np.random.default_rng(seed)
        assert states[j].tolist() == _state_row(ref)
        assert draws[j].tolist() == [ref.integers(lo, hi) for lo, hi in bounds]
        assert after[j].tolist() == _state_row(ref)


@pytest.mark.parametrize("m", [1, 5, 2**31 + 1, 2**32])
def test_bounded_draws_at_range_edges(m):
    seeds = np.arange(400, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    draws, after = bounded_draws(seeds, [(3, 3 + m), (-1, 4)])
    extra = 0
    for j, seed in enumerate(seeds):
        ref = np.random.default_rng(int(seed))
        assert draws[j].tolist() == [ref.integers(3, 3 + m), ref.integers(-1, 4)]
        assert after[j].tolist() == _state_row(ref)
        extra += after[j, 4] != (m == 1)    # a rejected word flips the buffered half
    # 2**31 + 1 rejects a word with probability about 1/2, the others never here
    assert (extra > 100) if m == 2**31 + 1 else extra == 0


def test_bounded_draws_reject_ranges_past_32_bits():
    for bounds in ([(0, 2**32 + 1)], [(0, 0)], [(5, 2)]):
        with pytest.raises(ValidationError, match=r"2\*\*32 = 4294967296"):
            bounded_draws([1, 2], bounds)


@pytest.mark.parametrize("left_batch, m_batch", [((), ()), ((3,), ()), ((), (4,)),
                                                 ((2, 3), (3,)), ((3,), (2, 3))])
def test_sandwich_equals_per_kraus_sum(left_batch, m_batch):
    rng = np.random.default_rng(17)
    k, d = 3, 4

    def draw(shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    left, right = draw(left_batch + (k, d, d)), draw(left_batch + (k, d, d))
    m = draw(m_batch + (d, d))
    want = sum(left[..., i, :, :] @ m @ right[..., i, :, :] for i in range(k))
    got = sandwich(left, m, right)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_kadison_gap_returns_the_pulled_back_operator():
    stack = random_channel(3, 2, np.array([4, 5, 6]))
    i_ops = np.stack([_hermitian(np.random.default_rng(s), 3) for s in (1, 2, 3)])
    gap, pulled = kadison_gap(stack, i_ops)
    assert np.array_equal(pulled, adjoint_apply(stack, i_ops))
    assert np.array_equal(gap, adjoint_apply(stack, i_ops @ i_ops) - pulled @ pulled)


def test_channel_fuzz_rows_equal_per_case_draws():
    # max_kraus 1 takes the no-draw path for n_kraus: each case's stream
    # spends one 32-bit word on dim and resumes with its high half buffered
    n, max_dim = 60, 9
    res = run_scenario(validate_config({"scenario": "channel_fuzz",
                                        "params": {"n_channels": n, "max_dim": max_dim,
                                                   "max_kraus": 1}}))
    got = np.column_stack([res.columns[k] for k in
                           ("exp_I", "var_I", "growth_formula", "trace_err", "min_eig")])
    seeds = np.random.default_rng(1234).integers(0, 2**63 - 1, size=(n, 2))
    dims = set()
    for j, (channel_seed, observable_seed) in enumerate(seeds.tolist()):
        rng = np.random.default_rng(observable_seed)
        dim, n_kraus = int(rng.integers(2, max_dim + 1)), int(rng.integers(1, 2))
        z = rng.standard_normal((2, 2, dim, dim))
        g, r = z[:, 0] + 1j * z[:, 1]
        i_op = 0.5 * (g + g.conj().T)
        i_op /= max(np.abs(np.linalg.eigvalsh(i_op)).max(), 1e-12)
        rho = r @ r.conj().T
        rho /= np.trace(rho).real
        ch = random_channel(dim, n_kraus, channel_seed)
        gap, pulled = kadison_gap(ch, i_op)
        rho_out = apply(ch, rho)
        want = [abs(expectation(pulled, rho) - expectation(i_op, rho_out)),
                variance(i_op, rho_out) - variance(pulled, rho),
                np.linalg.eigvalsh(gap).min(), ch.tp_defect, rho_out.min_eig]
        assert np.abs(got[j] - want).max() <= 1e-12, j
        dims.add(dim)
    assert len(dims) > 4


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
