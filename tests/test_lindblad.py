"""Generator, invariant equation, growth law, entropies and their rate
bounds, and the joint integrator."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weakinv import lindblad
from weakinv.errors import NumericalError, SamplingError, ValidationError
from weakinv.lindblad import (
    BLOCK_BYTES,
    BLOCK_NODES,
    EVAL_FLOOR,
    MAP_MAX_D2,
    LindbladGenerator,
    entropies,
    entropy_bound,
    escort,
    growth_rate,
    integrate,
    lindblad_rhs,
    march,
    rhs_kernels,
    rk4_step,
    superoperators,
    uniform_grid,
)
from weakinv.fokker_planck import (
    evolve,
    gaussian_profile,
    ou_invariant_coeffs,
)
from weakinv.models import (
    exponential_field,
    oscillator_generator,
    rational_decay,
    spin_generator,
    spin_hamiltonian,
)
from weakinv.operators import (
    DensityMatrix,
    SIGMA_MINUS,
    SIGMA_X,
    SIGMA_Z,
    variance,
)
from weakinv.thermo import canonical_state

B0 = np.array([1.0, 2.0, 3.0])


def constant_generator(h, jumps, rates):
    """H and the rates constant in time: one term H with coefficient 1."""
    return LindbladGenerator(
        terms=[h],
        jumps=jumps,
        coeffs=lambda t: np.ones((t.size, 1)),
        rates=lambda t: np.tile(np.asarray(rates, dtype=float), (t.size, 1)),
    )


ZERO = np.zeros((2, 2), dtype=complex)


def dephasing_generator(c=1.0):
    return constant_generator(ZERO, [SIGMA_Z], [c])


def damping_generator(c=0.5):
    # lowering operator in the (excited, ground) ordering
    return constant_generator(ZERO, [SIGMA_MINUS], [c])


def rhs_at(gen, m, adjoint=False, t=0.0):
    """The state (or, with adjoint, the invariant) equation's RHS at time t."""
    kernel = rhs_kernels(gen, *gen.eval(np.array([t])), [adjoint])[0]
    return lindblad_rhs(kernel, np.asarray(m, dtype=complex)[None])[0]


def jumps_at(gen, t=0.0):
    return gen.scaled_jumps(gen.eval(np.array([t]))[1][0])


def test_dephasing_invariant_rhs_closed_form():
    # H = 0, L = s3, c = 1, I = s1: rhs = (s3 s3 s1 + s1 s3 s3 - 2 s3 s1 s3) = 4 s1
    gen = dephasing_generator(1.0)
    rhs = rhs_at(gen, SIGMA_X, adjoint=True)
    assert np.abs(rhs - 4.0 * SIGMA_X).max() < 1e-12


def test_state_and_invariant_rhs_differ_in_jump_ordering():
    gen = damping_generator(0.5)
    rho = np.diag([1.0, 0.0]).astype(complex)   # excited state
    drho = rhs_at(gen, rho)
    # population leaves the excited level at rate 2c <e|L+L|e> = 1
    assert drho[0, 0].real == pytest.approx(-1.0)
    assert np.trace(drho).real == pytest.approx(0.0, abs=1e-14)


def test_growth_rate_dephasing():
    gen = dephasing_generator(1.0)
    rho = np.eye(2, dtype=complex) / 2.0
    jumps = jumps_at(gen)
    # 2c <[L,I]^dag [L,I]> with [s3, s1] = 2i s2: 2 * 4 = 8
    assert growth_rate(jumps, SIGMA_X, rho) == pytest.approx(8.0)
    # I commuting with L gives exactly zero
    assert growth_rate(jumps, SIGMA_Z, rho) == pytest.approx(0.0)


def test_identity_is_fixed_point_of_invariant_equation():
    gen = damping_generator(0.7)
    rhs = rhs_at(gen, np.eye(2), adjoint=True)
    assert np.abs(rhs).max() < 1e-14


def _spectrum(rho):
    return np.linalg.eigvalsh(DensityMatrix.from_matrix(rho).mat)


def test_entropies_on_known_spectra():
    rho = _spectrum(np.diag([0.5, 0.5]).astype(complex))
    vn, renyi = entropies(rho, 2.0)
    assert vn == pytest.approx(np.log(2.0))
    assert renyi == pytest.approx(np.log(2.0))
    assert entropies(rho, 0.5)[1] == pytest.approx(np.log(2.0))

    pure = _spectrum(np.diag([1.0, 0.0]).astype(complex))
    vn, renyi = entropies(pure, 2.0)
    assert vn == pytest.approx(0.0, abs=1e-12)
    assert renyi == pytest.approx(0.0, abs=1e-12)

    # zeros, roundoff below zero and values at or just below the floor add
    # nothing to the von Neumann sum; the Renyi sum clips only below zero
    below = np.nextafter(EVAL_FLOOR, 0.0)
    spectra = np.array([[0.0, 0.25, 0.75], [-1e-17, 0.25, 0.75], [below, 0.25, 0.75],
                        [EVAL_FLOOR, 0.25, 0.75], [0.0, 0.0, 1.0], [0.2, 0.3, 0.5]])
    vn, renyi = entropies(spectra, 2.0)
    for k, w in enumerate(spectra):
        kept = w[w > EVAL_FLOOR]
        assert vn[k] == pytest.approx(-np.sum(kept * np.log(kept)), rel=1e-15, abs=0.0)
        assert renyi[k] == pytest.approx(-np.log(np.sum(np.clip(w, 0.0, None) ** 2)), rel=1e-15)
    assert vn[0] == vn[1] == vn[2] == vn[3] and vn[4] == 0.0
    assert entropies(spectra[None], 2.0)[0].shape == (1, len(spectra))


def test_renyi_approaches_vn_near_alpha_one():
    rho = _spectrum(np.diag([0.7, 0.2, 0.1]).astype(complex))
    vn, renyi = entropies(rho, 1.0)
    assert renyi == vn
    assert entropies(rho, 1.0 + 1e-7)[1] == pytest.approx(vn, rel=1e-5)


def _escort_matrix(rho, alpha):
    w, v = np.linalg.eigh(rho)
    return escort(w, v, alpha)


def test_escort_density_reweights_spectrum():
    esc = _escort_matrix(np.diag([0.75, 0.25]).astype(complex), 2.0)
    w = 0.75**2 + 0.25**2
    assert esc[0, 0].real == pytest.approx(0.75**2 / w)
    assert esc[1, 1].real == pytest.approx(0.25**2 / w)


def test_hermitian_jump_bounds_vanish():
    gen = dephasing_generator(0.4)
    rho = np.diag([0.6, 0.4]).astype(complex)
    jumps = jumps_at(gen)
    assert entropy_bound(jumps, rho) == 0.0
    assert entropy_bound(jumps, _escort_matrix(rho, 2.0)) == 0.0


def test_damping_entropy_bound_on_excited_state():
    # [L^dag, L] = diag(1, -1); on the excited state the bound is 2c
    gen = damping_generator(0.5)
    rho = DensityMatrix.from_matrix(np.diag([1.0, 0.0]).astype(complex))
    assert entropy_bound(jumps_at(gen), rho.mat) == pytest.approx(1.0)

    # and the actual entropy rate respects it: S(h) ~ -h ln h for the
    # decayed population h = 2c dt, so the early slope is enormous
    dt = 1e-3
    traj = integrate(gen, rho, i0=np.eye(2, dtype=complex), t0=0.0, t1=10 * dt,
                     dt=dt, alpha=2.0)
    rate0 = (traj.series["S_vn"][1] - traj.series["S_vn"][0]) / dt
    assert rate0 > 1.0


def _lindblad_window(t0, t1, dt):
    integrate(dephasing_generator(0.2), np.eye(2, dtype=complex) / 2.0, i0=SIGMA_X,
              t0=t0, t1=t1, dt=dt)


def _fokker_planck_window(t0, t1, dt):
    p0 = gaussian_profile(np.linspace(-4.0, 4.0, 161), mean=0.0, var=0.5)
    inv = ou_invariant_coeffs(1.0, 1.0, a0=1.0, b0=0.0, e0=0.0)
    evolve(p0, -1.0 * p0.x, np.full_like(p0.x, 1.0), inv, t0=t0, t1=t1, dt=dt)


@pytest.mark.parametrize("run", [_lindblad_window, _fokker_planck_window],
                         ids=["integrate", "evolve"])
@pytest.mark.parametrize("t0, t1, dt", [
    (0.0, 0.1, 0.0),
    (0.0, 0.1, -1e-3),
    (0.1, 0.1, 1e-3),
    (0.1, 0.0, 1e-3),
    (0.0, 0.1, 0.1),
    (0.0, 0.1, 0.03),
    (0.0, 0.1, 1e-300),
    (0.0, 0.1, 1e-320),
    (1e6, 1e6 + 1.0, 0.3334),
    (0.0, 0.1, 0.1 * (1.0 + 2e-9) / 50),
], ids=["dt_zero", "dt_negative", "empty", "reversed", "single_step", "no_tiling",
        "more_nodes_than_numpy_builds", "uncountable_steps", "far_window_overshoots",
        "misses_by_2e-9_of_the_width"])
def test_both_integrators_reject_the_same_windows(run, t0, t1, dt):
    with pytest.raises(ValidationError):
        run(t0, t1, dt)


def test_uniform_grid_holds_the_tiling_to_its_width():
    # a step that misses hi by 2e-9 of the width is refused, near 0 and far
    # from it, and one off by the nodes' roundoff only is accepted
    for lo, hi, n in ((0.0, 0.1, 50), (1e6, 1e6 + 1.0, 10), (992.0, 1008.0, 800)):
        with pytest.raises(ValidationError, match=r"^dt .* into at least 2 whole steps$"):
            uniform_grid(lo, hi, (hi - lo) * (1.0 + 2e-9) / n, 2)
        assert uniform_grid(lo, hi, (hi - lo) / n, 2).size == n + 1
    # at least min_steps whole steps, the refusal naming the step and window
    assert uniform_grid(992.0, 1008.0, 2.0, 8).size == 9
    with pytest.raises(ValidationError, match=r"^h 2.0 does not tile \[992.0, 1008.0\] "
                                              r"into at least 9 whole steps$"):
        uniform_grid(992.0, 1008.0, 2.0, 9, ("x_min", "x_max", "h"))


def test_spin_trajectory_conserves_invariant_mean():
    model = exponential_field(B0, 0.1)
    gen = spin_generator(model)
    h0 = spin_hamiltonian(model, 0.0)
    rho0 = canonical_state(h0, 1.0)
    traj = integrate(gen, rho0, i0=h0, t0=0.0, t1=0.2, dt=1e-3, alpha=2.0)
    e = traj.series["exp_I"]
    assert np.abs(e - e[0]).max() < 1e-9 * abs(e[0])
    assert np.all(np.diff(traj.series["var_I"]) > -1e-12)
    assert np.abs(traj.series["trace_err"]).max() < 1e-10


def test_integrate_conservation_guard_trips():
    # without i0 the invariant is H(t); sigma_x under sigma_z dephasing is
    # not a weak invariant, so its mean decays and the guard must trip
    gen = constant_generator(SIGMA_X, [SIGMA_Z], [0.5])
    rho0 = canonical_state(SIGMA_X, 1.0)
    with pytest.raises(NumericalError) as info:
        integrate(gen, rho0, t0=0.0, t1=0.2, dt=1e-3, alpha=2.0)
    assert str(info.value) == CONSERVATION_BREACH


CONSERVATION_BREACH = (
    "conservation breach at t = 0.001: <I> drifted by 1.522e-03 (allowed "
    "7.616e-08); the pair no longer solves the two evolution equations consistently"
)


def test_earlier_node_guard_wins_over_a_later_sampling_error():
    # the rates turn NaN at node 30, inside the first block of nodes; the
    # nodes already stepped are still observed first, so the breach at
    # node 1 is what the run reports
    gen = LindbladGenerator(
        terms=[SIGMA_X],
        jumps=[SIGMA_Z],
        coeffs=lambda t: np.ones((t.size, 1)),
        rates=lambda t: np.where(t > 0.0299, np.nan, 0.5)[:, None],
    )
    with pytest.raises(ValidationError, match=r"rates\(0.03\) = \[nan\]"):
        gen.eval(np.array([0.03]))
    rho0 = canonical_state(SIGMA_X, 1.0)
    with pytest.raises(NumericalError) as info:
        integrate(gen, rho0, t0=0.0, t1=0.2, dt=1e-3, alpha=2.0)
    assert str(info.value) == CONSERVATION_BREACH


def _random_nodes(rng, n_nodes, dim, n_jumps):
    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    jumps = cplx(n_nodes, n_jumps, dim, dim)          # not normal
    i_m = cplx(n_nodes, dim, dim)
    inv = 0.5 * (i_m + i_m.conj().swapaxes(-1, -2))
    r = cplx(n_nodes, dim, dim)
    rho = r @ r.conj().swapaxes(-1, -2)
    rho /= np.trace(rho, axis1=-2, axis2=-1).real[:, None, None]
    return jumps, inv, rho


@pytest.mark.parametrize("dim", [2, 9])
def test_stack_diagnostics_equal_single_node_calls(dim):
    rng = np.random.default_rng(dim)
    jumps, inv, rho = _random_nodes(rng, 5, dim, 2)
    w, v = np.linalg.eigh(rho)
    weight = escort(w, v, 2.0)
    stacked = {
        "growth": growth_rate(jumps, inv, rho),
        "bound": entropy_bound(jumps, rho),
        "vn": entropies(w, 2.0)[0],
        "renyi": entropies(w, 2.0)[1],
        "renyi_half": entropies(w, 0.5)[1],
    }
    both = entropy_bound(jumps, np.stack((rho, weight)))
    assert both.shape == (2, 5)
    assert np.array_equal(both[0], stacked["bound"])
    for k in range(5):
        single = {
            "growth": growth_rate(jumps[k], inv[k], rho[k]),
            "bound": entropy_bound(jumps[k], rho[k]),
            "vn": entropies(w[k], 2.0)[0],
            "renyi": entropies(w[k], 2.0)[1],
            "renyi_half": entropies(w[k], 0.5)[1],
        }
        for key, value in single.items():
            assert np.ndim(value) == 0 and value == stacked[key][k], key
        comm = jumps[k] @ inv[k] - inv[k] @ jumps[k]    # one vdot a node, as a reference
        assert single["growth"] == pytest.approx(2.0 * np.vdot(comm, comm @ rho[k]).real,
                                                 rel=1e-13)
        assert np.array_equal(escort(w[k], v[k], 2.0), weight[k])
        assert both[1, k] == entropy_bound(jumps[k], weight[k])


def test_stack_guards_report_the_first_breaching_node():
    rng = np.random.default_rng(3)
    jumps, inv, rho = _random_nodes(rng, 4, 3, 1)
    bad = rho.copy()
    bad[2] *= -1.0          # negative states turn the second moment negative
    bad[3] *= -2.0
    with pytest.raises(NumericalError) as one:
        growth_rate(jumps[2], inv[2], bad[2])
    with pytest.raises(NumericalError) as stack:
        growth_rate(jumps, inv, bad)
    assert str(stack.value) == str(one.value)

    weight = rho.astype(complex)
    weight[1] *= 1j         # anti-Hermitian weights make the bound imaginary
    weight[3] *= 2j
    with pytest.raises(NumericalError) as one:
        entropy_bound(jumps[1], weight[1])
    with pytest.raises(NumericalError) as stack:
        entropy_bound(jumps, weight)
    assert str(stack.value) == str(one.value)


@pytest.mark.parametrize("n_jumps", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_folded_diagnostics_equal_their_per_jump_sums(dim, n_jumps):
    # the jump axis folds into one product a node; a loop over the jumps,
    # one pair of matrix products each, is the reference (no jumps, a
    # closed system, give exactly 0)
    rng = np.random.default_rng(10 * dim + n_jumps)
    jumps, inv, rho = _random_nodes(rng, 4, dim, n_jumps)

    def dag(a):
        return a.conj().T

    for k in range(4):
        growth = bound = 0.0
        for l_op in jumps[k]:
            comm = l_op @ inv[k] - inv[k] @ l_op
            growth += 2.0 * np.trace(dag(comm) @ comm @ rho[k]).real
            bound += 2.0 * np.trace((dag(l_op) @ l_op - l_op @ dag(l_op)) @ rho[k]).real
        for got in (growth_rate(jumps[k], inv[k], rho[k]), growth_rate(jumps, inv, rho)[k]):
            assert got == pytest.approx(growth, rel=1e-13)
        for got in (entropy_bound(jumps[k], rho[k]), entropy_bound(jumps, rho)[k]):
            assert got == pytest.approx(bound, rel=1e-13)

    # Hermitian jumps: the vertical stack's adjoint is the horizontal stack
    # entry for entry, so the bound is exactly zero, at one node and stacked
    herm = jumps + jumps.conj().swapaxes(-1, -2)
    assert np.all(entropy_bound(herm, rho) == 0.0)
    assert all(entropy_bound(herm[k], rho[k]) == 0.0 for k in range(4))


def _block_edge_runs(run, *edges):
    """Windows ending just before, on and after each edge (a node count)
    reproduce the first rows of a longer run bit for bit; growth_fd is a
    gradient over the whole series, so only its last row (a one-sided
    difference) may differ."""
    full = run(2 * max(edges) + 5)
    for nodes in (n + d for n in edges for d in (-1, 0, 1)):
        part = run(nodes)
        assert part.times.tobytes() == full.times[:nodes].tobytes()
        assert part.states.tobytes() == full.states[:nodes].tobytes()
        assert part.invariants.tobytes() == full.invariants[:nodes].tobytes()
        for key, col in part.series.items():
            upto = nodes - 1 if key == "growth_fd" else nodes
            assert col[:upto].tobytes() == full.series[key][:upto].tobytes(), key


def test_integrate_blocks_do_not_depend_on_the_window():
    # dim 2 with an integrated invariant: the first block holds BLOCK_NODES
    # nodes and each later one BLOCK_NODES - 1, after the row carried over
    model = exponential_field(B0, 0.1)
    gen = spin_generator(model)
    h0 = spin_hamiltonian(model, 0.0)
    rho0 = canonical_state(h0, 1.0)
    assert 2 * 2 * 2 * 16 * BLOCK_NODES <= BLOCK_BYTES

    def run(nodes):
        return integrate(gen, rho0, i0=h0, t0=0.0, t1=(nodes - 1) * 1e-3, dt=1e-3)

    _block_edge_runs(run, BLOCK_NODES, 2 * BLOCK_NODES - 1)


def test_integrate_byte_cap_shortens_blocks():
    # 40 Fock levels: the byte cap, not BLOCK_NODES, sets the block length
    model = replace(rational_decay(1.0, 0.5), n_fock=40)
    gen = oscillator_generator(model)
    k1, k2, _ = model.ops()
    rho0 = canonical_state(k1 + float(model.k(0.0)) * k2, 1.0)
    rows = BLOCK_BYTES // (40 * 40 * 16)
    assert 1 < rows < BLOCK_NODES

    def run(nodes):
        return integrate(gen, rho0, t0=0.0, t1=(nodes - 1) * 1e-3, dt=1e-3)

    _block_edge_runs(run, rows)


def test_integrate_kernel_runs_do_not_depend_on_the_window():
    # 30 Fock levels step a node at a time from the oscillator scenario's
    # start, in blocks of 34 rows: the first edge after node 33, the second
    # after node 66, once the last row has been carried over to row 0
    model = replace(rational_decay(1.0, 0.5), n_fock=30)
    gen = oscillator_generator(model)
    k1, k2, _ = model.ops()
    ground = np.linalg.eigh(k1 + float(model.k(0.0)) * k2)[1][:, 0]
    rho0 = np.outer(ground, ground.conj())
    assert 30 * 30 > MAP_MAX_D2
    rows = BLOCK_BYTES // (30 * 30 * 16)
    assert rows == 34

    def run(nodes):
        return integrate(gen, rho0, t0=0.0, t1=(nodes - 1) * 1e-3, dt=1e-3)

    _block_edge_runs(run, rows, 2 * rows - 1)


def _block_layouts(monkeypatch, run):
    """What `run()` returns, as bytes, with BLOCK_NODES at 128, 37 and 2."""
    outs = []
    for rows in (128, 37, 2):
        monkeypatch.setattr(lindblad, "BLOCK_NODES", rows)
        out = run()
        outs.append([out.times.tobytes(), repr(out.notes)]
                    + [col.tobytes() for col in out.series.values()]
                    + [getattr(out, key).tobytes() for key in ("states", "invariants", "variances")
                       if hasattr(out, key)])
    return outs


def test_no_output_depends_on_the_block_layout(monkeypatch):
    # BLOCK_NODES decides only how many nodes a step writes and a block
    # observes: each node is written from the one before it, and every
    # diagnostic is reduced per node, so series, notes, states and
    # invariants keep their bytes whatever the layout
    model = exponential_field(B0, 0.1)
    h0 = spin_hamiltonian(model, 0.0)
    pair = _block_layouts(monkeypatch, lambda: integrate(
        spin_generator(model), canonical_state(h0, 1.0), i0=np.stack([h0, SIGMA_X]),
        t0=0.0, t1=0.3, dt=1e-3))
    assert pair[0] == pair[1] == pair[2]

    # 30 Fock levels step a node at a time, in blocks of 34 rows or of 2
    osc = replace(rational_decay(1.0, 0.5), n_fock=30)
    k1, k2, _ = osc.ops()
    ground = np.linalg.eigh(k1 + float(osc.k(0.0)) * k2)[1][:, 0]
    fock = _block_layouts(monkeypatch, lambda: integrate(
        oscillator_generator(osc), np.outer(ground, ground.conj()), t0=0.0, t1=0.04, dt=1e-3))
    assert fock[0] == fock[1] == fock[2]

    x = np.linspace(-8.0, 8.0, 161)
    classical = _block_layouts(monkeypatch, lambda: evolve(
        gaussian_profile(x, mean=0.4, var=0.3), -1.0 * x, np.full_like(x, 1.0),
        ou_invariant_coeffs(1.0, 1.0, a0=1.0, b0=0.3, e0=0.1), t0=0.0, t1=0.1, dt=1e-3))
    assert classical[0] == classical[1] == classical[2]


def _fake_march(rows, n_nodes, nan_at=None, breach_at=None, fail=(None, None)):
    """A `march` over nodes whose state is their index, in a block of
    `rows` rows, with a step that writes each node from the row before it
    (node nan_at NaN; from node fail[0] it writes one node and raises
    fail[1]) and an observer that breaches a guard at node breach_at.
    Returns the run and the lists it fills: the nodes observed, in order,
    the spans and the (i, k) of each step."""
    block = np.zeros((rows, 1))
    seen, spans, stepped = [], [], []

    def step(i, k):
        assert block[0, 0] == i
        stepped.append((i, k))
        for j in range(k):
            block[j + 1] = np.nan if i + j + 1 == nan_at else block[j] + 1.0
            if i == fail[0]:
                raise fail[1]

    def observe(span, states):
        assert states[:, 0].tolist() == list(range(span.start, span.stop))
        if breach_at is not None and span.start <= breach_at < span.stop:
            raise NumericalError(f"guard breached at node {breach_at}")
        spans.append((span.start, span.stop))
        seen.extend(range(span.start, span.stop))

    def run():
        march(0.5 * np.arange(n_nodes), block, step, observe)

    return run, seen, spans, stepped


def test_march_observes_multi_node_steps_in_order_across_block_edges():
    # with 4 rows the first block observes nodes 0 ... 3 and each later one
    # the 3 rows after the carried one, the last cut at the last node; with
    # 2 rows (the layout of 120 Fock levels and more) each step is one node
    for rows, want_spans, want_steps in [
        (4, [(0, 4), (4, 7), (7, 10), (10, 11)], [(0, 3), (3, 3), (6, 3), (9, 1)]),
        (2, [(0, 2)] + [(n, n + 1) for n in range(2, 11)], [(i, 1) for i in range(10)]),
    ]:
        run, seen, spans, stepped = _fake_march(rows, 11)
        run()
        assert seen == list(range(11))
        assert spans == want_spans
        assert stepped == want_steps


@pytest.mark.parametrize("nan_at", [5, 7], ids=["mid_block", "block_start"])
def test_march_aborts_at_a_non_finite_mid_run_node(nan_at):
    # node nan_at is written by a step of 3 nodes (4 rows: inside the block
    # of nodes 4 ... 6, or first in that of 7 ... 9) or of one (2 rows);
    # every node before it is observed once, in order, and the abort names its t
    for rows in (2, 4):
        run, seen, _, _ = _fake_march(rows, 20, nan_at=nan_at)
        with pytest.raises(NumericalError) as info:
            run()
        assert str(info.value) == f"state is not finite at t = {0.5 * nan_at:g}; reduce dt"
        assert seen == list(range(nan_at))


def test_march_guard_breach_at_an_earlier_node_wins_over_a_non_finite_one():
    # with 4 rows nodes 4 ... 6 share a block; the observer breaches at
    # node 5, before the NaN at node 6
    for rows in (2, 4):
        run, seen, _, _ = _fake_march(rows, 20, nan_at=6, breach_at=5)
        with pytest.raises(NumericalError, match="^guard breached at node 5$"):
            run()
        assert seen == [0, 1, 2, 3, 4]     # node 4 alone after the earlier blocks


@pytest.mark.parametrize("fail_at", [0, 6])
def test_march_observes_the_stepped_nodes_before_a_step_error_propagates(fail_at):
    # a step from node fail_at writes one node and raises: node 0, still
    # pending in the first block, is observed first; the node the failed
    # step wrote is not, and the step's own error propagates
    for rows in (2, 4):
        error = ValueError("step failed")
        run, seen, _, stepped = _fake_march(rows, 20, fail=(fail_at, error))
        with pytest.raises(ValueError) as info:
            run()
        assert info.value is error
        assert stepped[-1][0] == fail_at
        assert seen == list(range(fail_at + 1))


def test_march_window_of_zero_or_one_node():
    calls = []
    step = lambda i, k: calls.append(("step", i, k))
    observe = lambda span, states: calls.append((span.start, span.stop, states.tolist()))
    march(np.array([]), np.ones((2, 1)), step, observe)
    assert calls == []
    march(np.array([0.0]), np.ones((2, 1)), step, observe)
    assert calls == [(0, 1, [[1.0]])]


def test_closed_form_invariant_is_the_generator_hamiltonian():
    model = exponential_field(B0, 0.1)
    gen = spin_generator(model)
    rho0 = canonical_state(spin_hamiltonian(model, 0.0), 1.0)
    traj = integrate(gen, rho0, t0=0.0, t1=0.05, dt=1e-3, alpha=2.0)
    assert traj.invariants.shape == traj.states.shape == (traj.times.size, 2, 2)
    for t, i_mat in zip(traj.times, traj.invariants):
        assert np.array_equal(i_mat, gen.hamiltonian(gen.eval(np.array([t]))[0][0]))


@pytest.mark.parametrize("jumps, message", [
    (SIGMA_X, r"jumps must be an \(n, 2, 2\) stack, got shape \(2, 2\)"),
    (np.zeros((1, 3, 3)), r"jumps must be an \(n, 2, 2\) stack, got shape \(1, 3, 3\)"),
    ([np.full((2, 2), np.nan)], "jump operators have a non-finite entry"),
], ids=["single_matrix", "wrong_dim", "non_finite"])
def test_jump_stack_is_checked_at_construction(jumps, message):
    with pytest.raises(ValidationError, match=message):
        constant_generator(SIGMA_Z, jumps, [0.1])


def test_growth_formula_matches_series_difference():
    model = exponential_field(B0, 0.1)
    gen = spin_generator(model)
    h0 = spin_hamiltonian(model, 0.0)
    rho0 = canonical_state(h0, 1.0)
    traj = integrate(gen, rho0, i0=h0, t0=0.0, t1=0.2, dt=1e-3, alpha=2.0)
    f = traj.series["growth_formula"]
    g = traj.series["growth_fd"]
    dev = np.abs(g - f)[1:-1]
    assert dev.max() < 1e-3 * np.abs(f)[1:-1].max()


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_growth_rate_never_negative(seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    l_op = g                                  # arbitrary, not Hermitian
    i_m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    i_op = 0.5 * (i_m + i_m.conj().T)
    r = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    rho = r @ r.conj().T
    rho /= np.trace(rho).real
    gen = constant_generator(np.zeros((3, 3), dtype=complex), [l_op], [0.3])
    assert growth_rate(jumps_at(gen), i_op, rho) >= -1e-12


def test_negative_rate_rejected():
    gen = constant_generator(ZERO, [SIGMA_X], [-0.5])
    with pytest.raises(ValidationError):
        gen.eval(np.array([0.0]))


def test_variance_shift_exact_identity():
    rho = canonical_state(SIGMA_Z.astype(complex), 1.0)
    base = variance(SIGMA_X, rho)
    shifted = variance(SIGMA_X + 2.5 * np.eye(2), rho)
    assert shifted == pytest.approx(base, rel=1e-12)


def test_integrate_samples_the_generator_once_per_run():
    n_steps = 20
    columns, rate_columns = [], []

    def rates(t):
        rate_columns.append(t)
        return np.full((t.size, 1), 0.4)

    class CountingGenerator(LindbladGenerator):
        def eval(self, times):
            columns.append(times)
            return super().eval(times)

    gen = CountingGenerator(
        terms=[SIGMA_Z],
        jumps=[SIGMA_MINUS],
        coeffs=lambda t: (1.0 + t)[:, None],
        rates=rates,
    )
    rho0 = canonical_state(SIGMA_X.astype(complex), 1.0)
    traj = integrate(gen, rho0, i0=np.eye(2, dtype=complex) + SIGMA_Z,
                     t0=0.0, t1=n_steps * 1e-2, dt=1e-2)
    assert len(columns) == len(rate_columns) == 1
    assert np.array_equal(rate_columns[0], columns[0])
    # every node plus every midpoint, each exactly once
    col = columns[0]
    assert col.shape == (2 * n_steps + 1,)
    mids = 0.5 * (traj.times[:-1] + traj.times[1:])
    expected = np.sort(np.concatenate([traj.times, mids]))
    assert np.allclose(np.sort(col), expected, rtol=0.0, atol=1e-15)
    assert len(set(col.tolist())) == col.size


@pytest.mark.parametrize("hot_at, cold_at, message", [
    (0.05, 0.02, r"^rate c_0\(0.02\) = -1.000000e-01 is negative beyond tolerance 1e-12$"),
    (0.02, 0.05, r"^H\(0.02\) has a non-finite entry$"),
    (0.02, 0.02, r"^H\(0.02\) has a non-finite entry$"),
], ids=["rate_first", "hamiltonian_first", "same_time"])
def test_the_earliest_sampling_guard_wins(hot_at, cold_at, message):
    # H turns infinite at hot_at and the rate negative at cold_at: the
    # earlier time's guard is reported, and at one time H's guard comes first
    gen = LindbladGenerator(
        terms=[SIGMA_Z],
        jumps=[SIGMA_X],
        coeffs=lambda t: np.where(t > hot_at - 1e-9, np.inf, 1.0)[:, None],
        rates=lambda t: np.where(t > cold_at - 1e-9, -0.1, 0.1)[:, None],
    )
    with pytest.raises(SamplingError, match=message) as info:
        gen.eval(np.linspace(0.0, 0.1, 11))
    assert info.value.at == 2
    with pytest.raises(SamplingError, match=message):
        integrate(gen, np.eye(2) / 2.0, i0=SIGMA_Z, t0=0.0, t1=0.1, dt=1e-2)


@pytest.mark.parametrize("terms, message", [
    ([SIGMA_Z, SIGMA_MINUS], "stack member 1: Hamiltonian term is not Hermitian"),
    ([SIGMA_Z, np.full((2, 2), np.inf)], "Hamiltonian terms have a non-finite entry"),
    (SIGMA_Z, r"terms must be an \(m, 2, 2\) stack, got shape \(2, 2\)"),
], ids=["non_hermitian", "non_finite", "single_matrix"])
def test_terms_are_checked_at_construction(terms, message):
    with pytest.raises(ValidationError, match=message):
        LindbladGenerator(terms=terms, jumps=[SIGMA_X],
                          coeffs=lambda t: np.ones((t.size, 2)),
                          rates=lambda t: np.ones((t.size, 1)))


def test_a_stack_of_invariants_rides_on_one_state_path():
    gen = damping_generator(0.5)
    rho0 = canonical_state(0.7 * SIGMA_X, 1.0)
    i0 = np.array([[1.0, 0.3 + 0.4j], [0.3 - 0.4j, -0.5]])
    stack = np.stack([i0, i0 + 2.5 * np.eye(2), SIGMA_Z])
    both = integrate(gen, rho0, i0=stack, t0=0.0, t1=0.2, dt=1e-3)
    assert both.invariants.shape == (201, 2, 2)
    assert both.variances.shape == (201, 3)
    for k, inv in enumerate(stack):
        one = integrate(gen, rho0, i0=inv, t0=0.0, t1=0.2, dt=1e-3)
        assert one.variances.shape == (201, 1)
        assert np.array_equal(one.states, both.states)
        assert np.array_equal(one.variances[:, 0], both.variances[:, k])
        if k == 0:
            assert np.array_equal(one.invariants, both.invariants)
            for key, col in one.series.items():
                assert np.array_equal(col, both.series[key]), key
    # an identity shift moves the mean, never the spread
    assert np.abs(both.variances[:, 1] - both.variances[:, 0]).max() < 1e-12


@pytest.mark.parametrize("dim", [2, 3, 5])
def test_invariants_share_one_step_map(dim):
    # d = 2 and 3 step by maps formed once per kind (state, adjoint) and
    # indexed per member, d = 5 by kernels: three random invariants stepped
    # together write the bytes each writes alone
    rng = np.random.default_rng(dim)

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def herm(a):
        return a + a.conj().swapaxes(-1, -2)

    gen = LindbladGenerator(
        terms=herm(cplx(2, dim, dim)),
        jumps=cplx(2, dim, dim) / dim,
        coeffs=lambda t: np.column_stack([1.0 + t, np.sin(5.0 * t)]),
        rates=lambda t: np.column_stack([0.4 + t, 0.2 + 0.1 * np.cos(3.0 * t)]),
    )
    r = cplx(dim, dim)
    rho0 = r @ r.conj().T
    rho0 /= np.trace(rho0).real
    stack = herm(cplx(3, dim, dim))
    window = dict(t0=0.0, t1=0.05, dt=1e-3)
    assert (dim * dim <= MAP_MAX_D2) == (dim < 5)
    both = integrate(gen, rho0, i0=stack, **window)
    for k, inv in enumerate(stack):
        one = integrate(gen, rho0, i0=inv, **window)
        assert one.states.tobytes() == both.states.tobytes()
        assert one.variances[:, 0].tobytes() == both.variances[:, k].tobytes()
        if k == 0:
            assert one.invariants.tobytes() == both.invariants.tobytes()
            for key, col in one.series.items():
                assert col.tobytes() == both.series[key].tobytes(), key


def test_every_invariant_of_a_stack_is_held_to_conservation():
    # a coarse step under strong dephasing: the RK4 pair stops conserving
    # <sigma_x> beyond the tolerance, while the identity stays conserved
    gen = dephasing_generator(5.0)
    rho0 = canonical_state(SIGMA_X, 1.0)
    window = dict(t0=0.0, t1=0.2, dt=1e-2)
    integrate(gen, rho0, i0=np.eye(2), **window)
    with pytest.raises(NumericalError) as alone:
        integrate(gen, rho0, i0=SIGMA_X, **window)
    assert str(alone.value).startswith("conservation breach at t = 0.01: ")
    for stack in ([np.eye(2), SIGMA_X], [SIGMA_X, np.eye(2)]):
        with pytest.raises(NumericalError) as info:
            integrate(gen, rho0, i0=np.stack(stack), **window)
        assert str(info.value) == str(alone.value)


def test_integrate_diagnostics_match_standalone_on_non_normal_jumps():
    # amplitude damping: [L^dag, L] != 0, so the bound columns are nonzero
    gen = constant_generator(0.7 * SIGMA_X, [SIGMA_MINUS], [0.5])
    rho0 = DensityMatrix.from_matrix(
        np.array([[0.8, 0.1 - 0.2j], [0.1 + 0.2j, 0.2]], dtype=complex))
    i0 = np.array([[1.0, 0.3 + 0.4j], [0.3 - 0.4j, -0.5]], dtype=complex)
    alpha = 2.0
    traj = integrate(gen, rho0, i0=i0, t0=0.0, t1=0.3, dt=1e-3, alpha=alpha)

    # reference formulas written out from L, c, I and rho, sharing no code
    # with the integrator
    l_op, c = SIGMA_MINUS, 0.5
    l_dag = l_op.conj().T

    def close(a, b):
        return abs(a - b) <= 1e-12 * abs(b)

    for idx in (0, 1, 97, 150, 299, 300):
        rho, i_op = traj.states[idx], traj.invariants[idx]
        s = traj.series
        comm = l_op @ i_op - i_op @ l_op
        growth = 2.0 * c * np.trace(comm.conj().T @ comm @ rho).real
        bound = 2.0 * c * np.trace((l_dag @ l_op - l_op @ l_dag) @ rho).real
        rho2 = rho @ rho
        escort = rho2 / np.trace(rho2).real
        bound_renyi = 2.0 * c * np.trace((l_dag @ l_op - l_op @ l_dag) @ escort).real
        assert abs(bound) > 1e-3
        assert abs(bound_renyi - bound) > 1e-3
        assert close(s["growth_formula"][idx], growth)
        assert close(s["bound_vn"][idx], bound)
        assert close(s["bound_renyi"][idx], bound_renyi)


def test_rates_callable_must_match_jump_count():
    gen = constant_generator(ZERO, [SIGMA_X], [0.1, 0.2])
    with pytest.raises(ValidationError):
        gen.eval(np.array([0.0]))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_generator_values_are_rejected_naming_t():
    nan = float("nan")
    gen = constant_generator(ZERO, [SIGMA_Z], [nan])
    with pytest.raises(ValidationError, match=r"rates\(0.25\) .* not all finite"):
        gen.eval(np.array([0.25]))
    with pytest.raises(ValidationError, match="not all finite"):
        integrate(gen, np.eye(2, dtype=complex) / 2.0, i0=SIGMA_X, t0=0.0, t1=0.1, dt=1e-2)

    hot = LindbladGenerator(
        terms=[SIGMA_Z],
        jumps=[SIGMA_Z],
        coeffs=lambda t: np.full((t.size, 1), np.inf),
        rates=lambda t: np.full((t.size, 1), 0.1),
    )
    with pytest.raises(ValidationError, match=r"H\(0.5\) has a non-finite entry"):
        hot.eval(np.array([0.5]))


def test_kernel_guards_growth_sign_and_bound_residue():
    jumps = jumps_at(damping_generator(0.5))
    rho = np.diag([0.75, 0.25]).astype(complex)
    # a negative "state" turns the second moment negative
    with pytest.raises(NumericalError, match="growth rate .* is negative"):
        growth_rate(jumps, SIGMA_X.astype(complex), -rho)
    # an anti-Hermitian weight makes the bound purely imaginary
    with pytest.raises(NumericalError, match="imaginary residue"):
        entropy_bound(jumps, 1j * rho)
    bound = entropy_bound(jumps, rho)
    assert type(bound) is np.float64 and bound == pytest.approx(0.5)


def _two_level_pair(rates=lambda t: np.column_stack([0.4 + t, 0.1 * np.cos(3.0 * t)])):
    """A dim-2 generator with a non-normal jump (SIGMA_MINUS) and a Hermitian
    one at time-dependent rates, a state and two invariants."""
    gen = LindbladGenerator(
        terms=[SIGMA_Z, SIGMA_X],
        jumps=[SIGMA_MINUS, SIGMA_Z],
        coeffs=lambda t: np.column_stack([1.0 + t, np.sin(5.0 * t)]),
        rates=rates,
    )
    rho0 = np.array([[0.8, 0.1 - 0.2j], [0.1 + 0.2j, 0.2]])
    i0 = np.stack([np.array([[1.0, 0.3 + 0.4j], [0.3 - 0.4j, -0.5]]), SIGMA_X + 0.5 * SIGMA_Z])
    return gen, rho0, i0


def _stepped_alone(gen, x0, n_steps, dt):
    """Node states from kernels formed in one call and one `rk4_step` of
    `lindblad_rhs` per step, re-Hermitized as `integrate` does."""
    nodes = dt * np.arange(n_steps + 1)
    column = np.insert(nodes, np.arange(1, nodes.size), nodes[:-1] + 0.5 * dt)
    kernels = rhs_kernels(gen, *gen.eval(column), np.arange(len(x0)) > 0)
    xs = [x0]
    for i in range(n_steps):
        nxt = rk4_step(lindblad_rhs, kernels[2 * i:2 * i + 3], xs[-1], dt)
        xs.append(0.5 * (nxt + nxt.conj().swapaxes(-1, -2)))
    return np.stack(xs)


def test_superoperators_act_as_the_rhs_of_each_row():
    rng = np.random.default_rng(5)
    gen = LindbladGenerator(
        terms=[SIGMA_Z, SIGMA_X, np.array([[0.5, 1j], [-1j, -0.2]])],
        jumps=rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2)),
        coeffs=None, rates=None,
    )
    adjoint = np.array([False, True, True])
    basis = superoperators(gen, adjoint)
    assert basis.shape == (5, 3, 4, 4)
    for _ in range(5):
        coeffs, rates = rng.standard_normal(3), rng.uniform(0.0, 2.0, 2)
        m = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
        direct = lindblad_rhs(rhs_kernels(gen, coeffs[None], rates[None], adjoint)[0], m)
        mapped = np.tensordot(np.concatenate([coeffs, rates]), basis, axes=1) @ m.reshape(3, 4, 1)
        assert np.abs(mapped.reshape(m.shape) - direct).max() < 1e-14 * np.abs(direct).max()


@pytest.mark.parametrize("n_steps", [31, 45, 700])
def test_step_maps_agree_with_the_kernel_steps(monkeypatch, n_steps):
    # 31 and 45 steps end inside the first block of 127; 700 cross five
    # block edges (128 rows, each later block after the row carried over)
    # and end in a short block of 65 (at dt = 5e-4 the rates stay positive)
    gen, rho0, i0 = _two_level_pair()
    assert rho0.size <= MAP_MAX_D2
    window = dict(t0=0.0, t1=n_steps * 5e-4, dt=5e-4)
    mapped = integrate(gen, rho0, i0=i0, **window)
    monkeypatch.setattr(lindblad, "MAP_MAX_D2", 0)
    stepped = integrate(gen, rho0, i0=i0, **window)
    alone = _stepped_alone(gen, np.concatenate([rho0[None], i0]), n_steps, 5e-4)
    assert stepped.states.tobytes() == alone[:, 0].tobytes()
    assert stepped.invariants.tobytes() == alone[:, 1].tobytes()
    assert np.abs(mapped.states - stepped.states).max() < 1e-13
    assert np.abs(mapped.invariants - stepped.invariants).max() < 1e-13
    assert np.abs(mapped.variances - stepped.variances).max() < 1e-13
    assert abs(mapped.notes["max_herm_correction"]
               - stepped.notes["max_herm_correction"]) < 1e-15


@pytest.mark.parametrize("cut", [MAP_MAX_D2, 0], ids=["maps", "kernels"])
def test_every_step_re_hermitizes_the_stack(monkeypatch, cut):
    # a state and an invariant off Hermitian by 4e-11 (within the input
    # tolerance) are Hermitian from node 1 on, the step maps carrying the
    # projection themselves; the first step's correction is the note
    gen, rho0, i0 = _two_level_pair()
    skew = 2e-11 * np.array([[0.0, 1.0], [-1.0, 0.0]])
    monkeypatch.setattr(lindblad, "MAP_MAX_D2", cut)
    traj = integrate(gen, rho0 + skew, i0=i0 + 1j * abs(skew), t0=0.0, t1=0.35, dt=5e-4)
    for nodes in (traj.states, traj.invariants):
        defect = np.abs(nodes - nodes.conj().swapaxes(-1, -2)).max(axis=(1, 2))
        assert defect[0] > 3e-11 and defect[1:].max() < 1e-15
    assert traj.notes["max_herm_correction"] == pytest.approx(4e-11, rel=1e-3)


@pytest.mark.parametrize("cut", [MAP_MAX_D2, 0], ids=["maps", "kernels"])
def test_fluctuation_increment_converges_at_fourth_order(monkeypatch, cut):
    # the var_I increment of H(t) from a Gibbs start against its closed form
    # |B(t1)|^2 - |B(t0)|^2: each halving of dt cuts the error 16-fold
    model = exponential_field(B0, 0.1)
    gen, h0 = spin_generator(model), spin_hamiltonian(model, 0.0)
    rho0 = canonical_state(h0, 1.0)
    b_lo, b_hi = model.b(np.array([0.0, 0.5]))
    monkeypatch.setattr(lindblad, "MAP_MAX_D2", cut)
    errors = []
    for dt in (0.1, 0.05, 0.025, 0.0125, 0.00625):
        var = integrate(gen, rho0, i0=h0, t0=0.0, t1=0.5, dt=dt).series["var_I"]
        errors.append(abs(var[-1] - var[0] - (b_hi @ b_hi - b_lo @ b_lo)))
    ratios = np.array(errors[:-1]) / errors[1:]
    assert np.all((14.0 <= ratios) & (ratios <= 18.0)), ratios


@pytest.mark.parametrize("bad_row", [79, 80, 279, 280], ids=[
    "midpoint", "node", "second_run_midpoint", "second_run_node"])
def test_step_maps_stop_at_the_earliest_bad_sample(monkeypatch, bad_row):
    # the rates turn NaN at a midpoint or at a node of the first or the
    # second block of 127 steps, and `march` walks only the nodes sampled
    # before it; the sampling error is raised once they are observed, and a
    # guard breach before it wins on either path
    bad_t = bad_row * 0.5e-3
    gen, rho0, i0 = _two_level_pair(lambda t: np.where(
        t[:, None] < bad_t - 1e-9, [[0.4, 0.1]], np.nan))
    breached = replace(gen, coeffs=lambda t: np.column_stack([1.0 + t, 1.0 + 0 * t]))
    for cut in (MAP_MAX_D2, 0):
        monkeypatch.setattr(lindblad, "MAP_MAX_D2", cut)
        with pytest.raises(SamplingError, match=rf"^rates\({bad_t}\) = ") as info:
            integrate(gen, rho0, i0=i0, t0=0.0, t1=0.2, dt=1e-3)
        assert info.value.at == bad_row
        # without i0 the invariant is H(t), which this generator does not conserve
        with pytest.raises(NumericalError, match=r"^conservation breach at t = 0.001: "):
            integrate(breached, rho0, t0=0.0, t1=0.2, dt=1e-3)


@pytest.mark.parametrize("n_fock, n_steps", [(30, 10), (60, 10)])
def test_kernel_steps_form_their_own_three_rows(monkeypatch, n_fock, n_steps):
    # above the map cut-off each step forms the kernels of its start,
    # midpoint and end rows in one call, the shared end row again as the
    # next step's start; at 60 levels the steps cross a block edge (8 rows)
    model = replace(rational_decay(1.0, 0.5), n_fock=n_fock)
    gen = oscillator_generator(model)
    assert n_fock ** 2 > MAP_MAX_D2
    k1, k2, _ = model.ops()
    ground = np.linalg.eigh(k1 + float(model.k(0.0)) * k2)[1][:, 0]
    rho0 = np.outer(ground, ground.conj())
    formed = []

    def counting(gen, coeffs, rates, adjoint):
        formed.append(np.hstack([coeffs, rates]))
        return rhs_kernels(gen, coeffs, rates, adjoint)

    monkeypatch.setattr(lindblad, "rhs_kernels", counting)
    traj = integrate(gen, rho0, t0=0.0, t1=n_steps * 1e-3, dt=1e-3)
    nodes = 1e-3 * np.arange(n_steps + 1)
    rows = np.hstack(gen.eval(np.insert(nodes, np.arange(1, nodes.size), nodes[:-1] + 5e-4)))
    assert len(formed) == n_steps
    for i, got in enumerate(formed):
        assert got.tobytes() == rows[2 * i:2 * i + 3].tobytes()
    alone = _stepped_alone(gen, rho0[None], n_steps, 1e-3)
    assert traj.states.tobytes() == alone[:, 0].tobytes()
