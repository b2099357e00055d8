"""Model builders: the truncated quadratic algebra, the shrinking-stiffness
oscillator, and the driven spin with its coefficient formula."""

import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings, strategies as st

from weakinv.errors import ValidationError
from weakinv.lindblad import integrate, rk4_step, time_grid
from weakinv.models import (
    OscillatorModel,
    SpinModel,
    build_su11_ops,
    edge_occupation,
    exponential_field,
    invariance_residual,
    lowering,
    oscillator_generator,
    oscillator_predicted_growth,
    rational_decay,
    spin_coefficients,
    spin_generator,
    spin_hamiltonian,
    spin_predicted_growth,
)
from weakinv.operators import PAULIS, DensityMatrix, expectation

N = 40


def interior(mat, levels=4):
    return mat[:-levels, :-levels]


def commutator(a, b):
    return a @ b - b @ a


def fock_ground(n_fock):
    """Projector on the lowest Fock level."""
    m = np.zeros((n_fock, n_fock), dtype=complex)
    m[0, 0] = 1.0
    return DensityMatrix.from_matrix(m)


def test_lowering_operator_matrix_elements():
    a = lowering(5)
    assert a[0, 1] == pytest.approx(1.0)
    assert a[3, 4] == pytest.approx(2.0)
    assert np.abs(np.tril(a)).max() == 0.0


def test_su11_commutators_hold_in_the_interior():
    k1, k2, k3 = build_su11_ops(N, omega_ref=1.0)
    # [K1, K2] = -i K3, [K2, K3] = 2i K2, [K3, K1] = 2i K1, away from the
    # truncation edge (products corrupt the top levels only)
    r1 = commutator(k1, k2) + 1j * k3
    r2 = commutator(k2, k3) - 2j * k2
    r3 = commutator(k3, k1) - 2j * k1
    for r in (r1, r2, r3):
        assert np.abs(interior(r)).max() < 1e-10


def test_ground_state_is_exact_at_reference_frequency():
    # H(0) = K1 + k0 K2 is diagonal when omega_ref = sqrt(k0); its ground
    # state is the bare vacuum
    model = rational_decay(1.0, 0.5)
    k1, k2, _ = model.ops()
    h0 = k1 + 1.0 * k2
    off = h0 - np.diag(np.diag(h0))
    assert np.abs(off).max() < 1e-12
    rho = fock_ground(model.n_fock)
    assert expectation(h0, rho) == pytest.approx(0.5)


def test_k3_variance_on_ground_state():
    model = rational_decay(1.0, 0.5)
    _, _, k3 = model.ops()
    rho = fock_ground(model.n_fock)
    assert expectation(k3 @ k3, rho) == pytest.approx(0.5, rel=1e-12)
    assert expectation(k3, rho) == pytest.approx(0.0, abs=1e-12)


def test_schedule_validation_rejects_growing_stiffness():
    model = rational_decay(1.0, -0.5)
    with pytest.raises(ValidationError):
        model.validate_schedule(0.0, 0.5)
    flat = OscillatorModel(n_fock=8, k=np.ones_like, kdot=np.zeros_like)
    with pytest.raises(ValidationError):
        flat.validate_schedule(0.0, 0.5)


def test_rate_follows_schedule():
    model = rational_decay(1.0, 0.5)
    gen = oscillator_generator(model)
    _, cs = gen.eval(np.array([0.0]))
    assert cs[0, 0] == pytest.approx(0.25)
    _, cs = gen.eval(np.array([2.0]))
    assert cs[0, 0] == pytest.approx(0.25 / 4.0)


def test_invariant_equation_residual_small_in_interior():
    model = replace(rational_decay(1.0, 0.5), n_fock=N)
    gen = oscillator_generator(model)
    _, k2, _ = model.ops()
    res = invariance_residual(gen, model.kdot(0.25) * k2, 0.25, trim=4)
    assert res < 1e-9


def test_coefficient_ode_matches_closed_form_invariant():
    # carrying I = kappa1 K1 + kappa2 K2 + kappa3 K3 in the algebra: with
    # kappa(0) = (1, k(0), 0) the coefficient dynamics must reproduce
    # (1, k(t), 0), the closed-form invariant H(t)
    model = replace(rational_decay(1.0, 0.5), n_fock=N)

    def rhs(t, kap):
        k, c = model.k(t), -0.5 * model.kdot(t)
        return np.array([-2.0 * kap[2], 2.0 * k * kap[2] - 2.0 * c * kap[0],
                         k * kap[0] - kap[1]])

    dt = 1e-3
    times = time_grid(0.0, 0.5, dt)
    kap = np.array([1.0, model.k(0.0), 0.0])
    for idx, t in enumerate(times):
        if idx % 100 == 0:
            want = np.array([1.0, model.k(t), 0.0])
            assert np.abs(kap - want).max() < 1e-9
        if idx < times.size - 1:
            kap = rk4_step(rhs, (t, t + 0.5 * dt, times[idx + 1]), kap, dt)


def test_predicted_growth_on_ground_state():
    model = rational_decay(1.0, 0.5)
    rho = fock_ground(model.n_fock)
    assert oscillator_predicted_growth(model, rho, 0.0) == pytest.approx(0.25)


def test_predicted_growth_refuses_edge_heavy_states():
    model = replace(rational_decay(1.0, 0.5), n_fock=8)
    bad = np.zeros((8, 8), dtype=complex)
    bad[7, 7] = 1.0
    with pytest.raises(ValidationError):
        oscillator_predicted_growth(model, bad, 0.0)


def test_edge_occupation_reads_top_levels():
    rho = np.zeros((6, 6))
    rho[5, 5] = 0.25
    rho[0, 0] = 0.75
    assert edge_occupation(rho) == pytest.approx(0.25)


# -- spin --------------------------------------------------------------------

def test_uniform_exponential_field_coefficients():
    model = exponential_field(np.array([1.0, 2.0, 3.0]), 0.1)
    cs = spin_coefficients(model, 0.0)
    assert np.abs(cs - 0.1).max() < 1e-14
    cs = spin_coefficients(model, 0.37)
    assert np.abs(cs - 0.1).max() < 1e-14


def test_mixed_rate_field_coefficients():
    # components growing at 4, 4, 8: coefficients (1, 1, 0)
    model = SpinModel(
        b=lambda t: np.array([np.exp(4 * t), np.exp(4 * t), np.exp(8 * t)]),
        bdot=lambda t: np.array([4 * np.exp(4 * t), 4 * np.exp(4 * t),
                                 8 * np.exp(8 * t)]),
    )
    cs = spin_coefficients(model, 0.0)
    assert np.abs(cs - np.array([1.0, 1.0, 0.0])).max() < 1e-12


def test_field_zero_component_rejected():
    model = SpinModel(
        b=lambda t: np.array([1.0, 0.0, 1.0]),
        bdot=lambda t: np.zeros(3),
    )
    with pytest.raises(ValidationError):
        spin_coefficients(model, 0.0)


def test_shrinking_component_rejected():
    # a decaying component would need a negative coefficient
    model = SpinModel(
        b=lambda t: np.array([np.exp(-t), 1.0, 1.0]),
        bdot=lambda t: np.array([-np.exp(-t), 0.0, 0.0]),
    )
    with pytest.raises(ValidationError):
        spin_coefficients(model, 0.0)


def test_spin_hamiltonian_is_field_dot_paulis():
    model = exponential_field(np.array([1.0, 2.0, 3.0]), 0.1)
    h = spin_hamiltonian(model, 0.0)
    want = PAULIS[0] + 2.0 * PAULIS[1] + 3.0 * PAULIS[2]
    assert np.abs(h - want).max() < 1e-14


def test_spin_hamiltonian_on_a_column_of_times():
    model = exponential_field(np.array([1.0, -2.0, 3.0]), 0.1)
    times = 0.5 / 2048 * np.arange(2049)
    hs = spin_hamiltonian(model, times)
    assert hs.shape == (2049, 2, 2)
    for t, h in zip(times, hs):
        assert np.array_equal(h, spin_hamiltonian(model, float(t)))


def test_spin_invariance_residual_vanishes():
    model = exponential_field(np.array([1.0, 2.0, 3.0]), 0.1)
    gen = spin_generator(model)
    bd = model.bdot(0.2)
    h_dot = bd[0] * PAULIS[0] + bd[1] * PAULIS[1] + bd[2] * PAULIS[2]
    assert invariance_residual(gen, h_dot, 0.2) < 1e-12


def test_spin_predicted_growth_value():
    model = exponential_field(np.array([1.0, 2.0, 3.0]), 0.1)
    assert spin_predicted_growth(model, 0.0) == pytest.approx(22.4)


@given(st.floats(0.02, 0.3), st.floats(0.0, 0.4))
@settings(max_examples=20, deadline=None)
def test_spin_growth_is_field_norm_rate_everywhere(rate_c, t):
    model = exponential_field(np.array([1.0, 2.0, 3.0]), rate_c)
    b = model.b(t)
    assert spin_predicted_growth(model, t) == pytest.approx(
        16.0 * rate_c * float(b @ b), rel=1e-12)


def test_oscillator_trajectory_stays_clean_at_modest_truncation():
    model = replace(rational_decay(1.0, 0.5), n_fock=24)
    gen = oscillator_generator(model)
    rho0 = fock_ground(model.n_fock)
    traj = integrate(gen, rho0, t0=0.0, t1=0.1, dt=1e-3, alpha=2.0)
    assert edge_occupation(traj.states[-1]) < 1e-10
    e = traj.series["exp_I"]
    assert np.abs(e - e[0]).max() < 1e-9
