"""Generator, invariant equation, growth law, entropies and their rate
bounds, and the joint integrator."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weakinv.errors import NumericalError, ValidationError
from weakinv.lindblad import (
    Kernel,
    LindbladGenerator,
    _escort,
    integrate,
    renyi_entropy,
    vn_entropy,
)
from weakinv.fokker_planck import (
    constant_diffusion,
    evolve,
    gaussian_profile,
    ou_drift,
    ou_invariant_coeffs,
)
from weakinv.models import exponential_field, spin_generator, spin_hamiltonian
from weakinv.operators import (
    DensityMatrix,
    SIGMA_MINUS,
    SIGMA_X,
    SIGMA_Z,
    variance,
)
from weakinv.thermo import canonical_state

B0 = np.array([1.0, 2.0, 3.0])


def dephasing_generator(c=1.0):
    return LindbladGenerator(
        dim=2,
        hamiltonian=lambda t: np.zeros((2, 2), dtype=complex),
        lindblads=(lambda t: SIGMA_Z.astype(complex),),
        rates=lambda t: (c,),
    )


def damping_generator(c=0.5):
    # lowering operator in the (excited, ground) ordering
    return LindbladGenerator(
        dim=2,
        hamiltonian=lambda t: np.zeros((2, 2), dtype=complex),
        lindblads=(lambda t: SIGMA_MINUS.astype(complex),),
        rates=lambda t: (c,),
    )


def test_dephasing_invariant_rhs_closed_form():
    # H = 0, L = s3, c = 1, I = s1: rhs = (s3 s3 s1 + s1 s3 s3 - 2 s3 s1 s3) = 4 s1
    gen = dephasing_generator(1.0)
    rhs = Kernel(gen, 0.0).invariant_rhs(SIGMA_X)
    assert np.abs(rhs - 4.0 * SIGMA_X).max() < 1e-12


def test_state_and_invariant_rhs_differ_in_jump_ordering():
    gen = damping_generator(0.5)
    rho = np.diag([1.0, 0.0]).astype(complex)   # excited state
    drho = Kernel(gen, 0.0).state_rhs(rho)
    # population leaves the excited level at rate 2c <e|L+L|e> = 1
    assert drho[0, 0].real == pytest.approx(-1.0)
    assert np.trace(drho).real == pytest.approx(0.0, abs=1e-14)


def test_growth_rate_dephasing():
    gen = dephasing_generator(1.0)
    rho = np.eye(2, dtype=complex) / 2.0
    kern = Kernel(gen, 0.0)
    # 2c <[L,I]^dag [L,I]> with [s3, s1] = 2i s2: 2 * 4 = 8
    assert kern.growth_rate(SIGMA_X, rho) == pytest.approx(8.0)
    # I commuting with L gives exactly zero
    assert kern.growth_rate(SIGMA_Z, rho) == pytest.approx(0.0)


def test_identity_is_fixed_point_of_invariant_equation():
    gen = damping_generator(0.7)
    rhs = Kernel(gen, 0.0).invariant_rhs(np.eye(2, dtype=complex))
    assert np.abs(rhs).max() < 1e-14


def test_entropies_on_known_spectra():
    rho = DensityMatrix.from_matrix(np.diag([0.5, 0.5]).astype(complex))
    assert vn_entropy(rho) == pytest.approx(np.log(2.0))
    assert renyi_entropy(rho, 2.0) == pytest.approx(np.log(2.0))
    assert renyi_entropy(rho, 0.5) == pytest.approx(np.log(2.0))

    pure = DensityMatrix.from_matrix(np.diag([1.0, 0.0]).astype(complex))
    assert vn_entropy(pure) == pytest.approx(0.0, abs=1e-12)
    assert renyi_entropy(pure, 2.0) == pytest.approx(0.0, abs=1e-12)


def test_renyi_approaches_vn_near_alpha_one():
    rho = DensityMatrix.from_matrix(np.diag([0.7, 0.2, 0.1]).astype(complex))
    assert renyi_entropy(rho, 1.0) == pytest.approx(vn_entropy(rho))
    assert renyi_entropy(rho, 1.0 + 1e-7) == pytest.approx(vn_entropy(rho), rel=1e-5)


def _escort_matrix(rho, alpha):
    w, v = np.linalg.eigh(rho)
    return _escort(w, v, alpha)[1]


def test_escort_density_reweights_spectrum():
    esc = _escort_matrix(np.diag([0.75, 0.25]).astype(complex), 2.0)
    w = 0.75**2 + 0.25**2
    assert esc[0, 0].real == pytest.approx(0.75**2 / w)
    assert esc[1, 1].real == pytest.approx(0.25**2 / w)


def test_hermitian_jump_bounds_vanish():
    gen = dephasing_generator(0.4)
    rho = np.diag([0.6, 0.4]).astype(complex)
    kern = Kernel(gen, 0.0)
    assert kern.bound_terms(rho) == 0.0
    assert kern.bound_terms(_escort_matrix(rho, 2.0)) == 0.0


def test_damping_entropy_bound_on_excited_state():
    # [L^dag, L] = diag(1, -1); on the excited state the bound is 2c
    gen = damping_generator(0.5)
    rho = DensityMatrix.from_matrix(np.diag([1.0, 0.0]).astype(complex))
    assert Kernel(gen, 0.0).bound_terms(rho.mat) == pytest.approx(1.0)

    # and the actual entropy rate respects it: S(h) ~ -h ln h for the
    # decayed population h = 2c dt, so the early slope is enormous
    dt = 1e-3
    traj = integrate(gen, rho, i0=np.eye(2, dtype=complex), t0=0.0, t1=10 * dt,
                     dt=dt, alpha=2.0)
    rate0 = (traj.series["S_vn"][1] - traj.series["S_vn"][0]) / dt
    assert rate0 > 1.0


def test_integrate_requires_exactly_one_invariant_source():
    gen = dephasing_generator(0.2)
    rho = np.eye(2, dtype=complex) / 2.0
    with pytest.raises(ValidationError):
        integrate(gen, rho, t0=0.0, t1=0.1, dt=1e-2)
    with pytest.raises(ValidationError):
        integrate(gen, rho, i0=SIGMA_X, invariant_path=lambda t: SIGMA_X,
                  t0=0.0, t1=0.1, dt=1e-2)


def _lindblad_window(t0, t1, dt):
    integrate(dephasing_generator(0.2), np.eye(2, dtype=complex) / 2.0, i0=SIGMA_X,
              t0=t0, t1=t1, dt=dt)


def _fokker_planck_window(t0, t1, dt):
    p0 = gaussian_profile(np.linspace(-4.0, 4.0, 161), mean=0.0, var=0.5)
    inv = ou_invariant_coeffs(1.0, 1.0, a0=1.0, b0=0.0, e0=0.0)
    evolve(p0, ou_drift(1.0), constant_diffusion(1.0), inv, t0=t0, t1=t1, dt=dt)


@pytest.mark.parametrize("run", [_lindblad_window, _fokker_planck_window],
                         ids=["integrate", "evolve"])
@pytest.mark.parametrize("t0, t1, dt", [
    (0.0, 0.1, 0.0),
    (0.0, 0.1, -1e-3),
    (0.1, 0.1, 1e-3),
    (0.1, 0.0, 1e-3),
    (0.0, 0.1, 0.1),
    (0.0, 0.1, 0.03),
], ids=["dt_zero", "dt_negative", "empty", "reversed", "single_step", "no_tiling"])
def test_both_integrators_reject_the_same_windows(run, t0, t1, dt):
    with pytest.raises(ValidationError):
        run(t0, t1, dt)


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
    # a wrong "invariant" cannot satisfy the conservation identity
    model = exponential_field(B0, 0.1)
    gen = spin_generator(model)
    rho0 = canonical_state(spin_hamiltonian(model, 0.0), 1.0)
    with pytest.raises(NumericalError):
        integrate(gen, rho0, invariant_path=lambda t: SIGMA_Z.astype(complex),
                  t0=0.0, t1=0.2, dt=1e-3, alpha=2.0)


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
    gen = LindbladGenerator(
        dim=3,
        hamiltonian=lambda t: np.zeros((3, 3), dtype=complex),
        lindblads=(lambda t: l_op,),
        rates=lambda t: (0.3,),
    )
    assert Kernel(gen, 0.0).growth_rate(i_op, rho) >= -1e-12


def test_negative_rate_rejected():
    gen = LindbladGenerator(
        dim=2,
        hamiltonian=lambda t: np.zeros((2, 2), dtype=complex),
        lindblads=(lambda t: SIGMA_X.astype(complex),),
        rates=lambda t: (-0.5,),
    )
    with pytest.raises(ValidationError):
        gen.eval(0.0)


def test_variance_shift_exact_identity():
    rho = canonical_state(SIGMA_Z.astype(complex), 1.0)
    base = variance(SIGMA_X, rho)
    shifted = variance(SIGMA_X + 2.5 * np.eye(2), rho)
    assert shifted == pytest.approx(base, rel=1e-12)


def test_integrate_evaluates_generator_once_per_distinct_time():
    n_steps = 20
    rate_times = []
    eval_times = []

    def rates(t):
        rate_times.append(t)
        return (0.4,)

    class CountingGenerator(LindbladGenerator):
        def eval(self, t):
            eval_times.append(t)
            return super().eval(t)

    gen = CountingGenerator(
        dim=2,
        hamiltonian=lambda t: (1.0 + t) * SIGMA_Z.astype(complex),
        lindblads=(lambda t: SIGMA_MINUS.astype(complex),),
        rates=rates,
    )
    rho0 = canonical_state(SIGMA_X.astype(complex), 1.0)
    traj = integrate(gen, rho0, i0=np.eye(2, dtype=complex) + SIGMA_Z,
                     t0=0.0, t1=n_steps * 1e-2, dt=1e-2)
    assert len(eval_times) == 2 * n_steps + 1
    assert rate_times == eval_times
    # every node plus every midpoint, each exactly once
    mids = 0.5 * (traj.times[:-1] + traj.times[1:])
    expected = np.sort(np.concatenate([traj.times, mids]))
    assert np.allclose(np.sort(eval_times), expected, rtol=0.0, atol=1e-15)
    assert len(set(eval_times)) == len(eval_times)


def test_integrate_diagnostics_match_standalone_on_non_normal_jumps():
    # amplitude damping: [L^dag, L] != 0, so the bound columns are nonzero
    gen = LindbladGenerator(
        dim=2,
        hamiltonian=lambda t: 0.7 * SIGMA_X.astype(complex),
        lindblads=(lambda t: SIGMA_MINUS.astype(complex),),
        rates=lambda t: (0.5,),
    )
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
        rho, i_op = traj.states[idx].mat, traj.invariants[idx]
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
    gen = LindbladGenerator(
        dim=2,
        hamiltonian=lambda t: np.zeros((2, 2), dtype=complex),
        lindblads=(lambda t: SIGMA_X.astype(complex),),
        rates=lambda t: (0.1, 0.2),
    )
    with pytest.raises(ValidationError):
        gen.eval(0.0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_generator_values_are_rejected_naming_t():
    nan = float("nan")
    gen = LindbladGenerator(
        dim=2,
        hamiltonian=lambda t: np.zeros((2, 2), dtype=complex),
        lindblads=(lambda t: SIGMA_Z.astype(complex),),
        rates=lambda t: (nan,),
    )
    with pytest.raises(ValidationError, match=r"rates\(0.25\) .* not all finite"):
        gen.eval(0.25)
    with pytest.raises(ValidationError, match="not all finite"):
        integrate(gen, np.eye(2, dtype=complex) / 2.0, i0=SIGMA_X, t0=0.0, t1=0.1, dt=1e-2)

    hot = LindbladGenerator(
        dim=2,
        hamiltonian=lambda t: np.full((2, 2), np.inf, dtype=complex),
        lindblads=(lambda t: SIGMA_Z.astype(complex),),
        rates=lambda t: (0.1,),
    )
    with pytest.raises(ValidationError, match=r"H\(0.5\) has a non-finite entry"):
        hot.eval(0.5)


def test_kernel_guards_growth_sign_and_bound_residue():
    kern = Kernel(damping_generator(0.5), 0.0)
    rho = np.diag([0.75, 0.25]).astype(complex)
    # a negative "state" turns the second moment negative
    with pytest.raises(NumericalError, match="growth rate .* is negative"):
        kern.growth_rate(SIGMA_X.astype(complex), -rho)
    # an anti-Hermitian weight makes the bound purely imaginary
    with pytest.raises(NumericalError, match="imaginary residue"):
        kern.bound_terms(1j * rho)
    bound = kern.bound_terms(rho)
    assert type(bound) is float and bound == pytest.approx(0.5)
