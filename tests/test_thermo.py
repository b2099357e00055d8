"""Canonical states, the isoenergetic temperature solve, and the
heat-capacity identity along a widening-spectrum path."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weakinv.errors import ValidationError
from weakinv.models import exponential_field, spin_hamiltonian
from weakinv.operators import SIGMA_Z, expectation, variance
from weakinv.thermo import (
    build_isoenergetic_path,
    canonical_state,
    check_specific_heat_relation,
    internal_energy,
    solve_isoenergetic_temperature,
    specific_heat,
    trace_distance,
)


def test_canonical_state_two_level_closed_form():
    h = SIGMA_Z.astype(complex)            # levels -1, +1
    rho = canonical_state(h, 1.0)
    z = np.exp(1.0) + np.exp(-1.0)
    assert rho.mat[1, 1].real == pytest.approx(np.exp(1.0) / z)
    assert expectation(h, rho) == pytest.approx(-np.tanh(1.0))


def test_canonical_state_commutes_with_hamiltonian():
    rng = np.random.default_rng(5)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = 0.5 * (g + g.conj().T)
    rho = canonical_state(h, 0.7)
    comm = h @ rho.mat - rho.mat @ h
    assert np.abs(comm).max() < 1e-12


def test_specific_heat_closed_form_at_unit_field():
    # C = (B/T)^2 sech^2(B/T) = 0.41997... at B = T = 1
    h = SIGMA_Z.astype(complex)
    c = specific_heat(h, 1.0)
    assert c == pytest.approx(1.0 / np.cosh(1.0) ** 2, rel=1e-12)
    assert c == pytest.approx(0.419974, rel=1e-5)


def test_specific_heat_matches_energy_derivative():
    h = SIGMA_Z.astype(complex)
    t, dt = 1.0, 1e-4
    fd = (internal_energy(h, t + dt) - internal_energy(h, t - dt)) / (2 * dt)
    assert specific_heat(h, t) == pytest.approx(fd, rel=1e-5)


def test_variance_is_t_squared_c_by_construction():
    h = SIGMA_Z.astype(complex)
    for temp in (0.5, 1.0, 3.0):
        rho = canonical_state(h, temp)
        assert variance(h, rho) == pytest.approx(
            temp**2 * specific_heat(h, temp), rel=1e-12)


def test_temperature_solve_roundtrip():
    rng = np.random.default_rng(17)
    g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    h = 0.5 * (g + g.conj().T)
    for temp in (0.3, 1.0, 7.0):
        u = internal_energy(h, temp)
        back = solve_isoenergetic_temperature(h, u)
        assert back == pytest.approx(temp, rel=1e-8)


def test_temperature_solve_rejects_unattainable_energy():
    h = SIGMA_Z.astype(complex)
    with pytest.raises(ValidationError):
        solve_isoenergetic_temperature(h, -1.5)   # below the spectrum
    with pytest.raises(ValidationError):
        solve_isoenergetic_temperature(h, 0.0)    # the infinite-T mean
    with pytest.raises(ValidationError):
        solve_isoenergetic_temperature(h, 0.4)    # above it


def test_flat_spectrum_has_no_isoenergetic_temperature():
    with pytest.raises(ValidationError):
        solve_isoenergetic_temperature(np.eye(3, dtype=complex), 1.0)


@given(st.floats(0.2, 2.0), st.floats(0.5, 4.0))
@settings(max_examples=30, deadline=None)
def test_solve_inverts_internal_energy(scale, temp):
    # B/T capped at 4: deeper into the frozen regime U(T) flattens
    # exponentially and no residual tolerance pins T to this precision
    h = scale * SIGMA_Z.astype(complex)
    u = internal_energy(h, temp)
    assert solve_isoenergetic_temperature(h, u) == pytest.approx(temp, rel=1e-6)


def test_isoenergetic_path_identity_on_smooth_window():
    model = exponential_field(np.array([1.0, 2.0, 3.0]), 0.1)
    times = 0.5 / 512 * np.arange(513)
    u = internal_energy(spin_hamiltonian(model, 0.0), 4.0)
    path = build_isoenergetic_path(
        lambda t: spin_hamiltonian(model, t), times, u)
    rel = check_specific_heat_relation(path)
    assert rel["min_lhs"] > 0.0
    assert rel["max_identity_rel_err"] < 1e-5
    assert np.all(np.diff(path.temperature) > 0.0)


def test_path_requires_uniform_grid():
    model = exponential_field(np.array([1.0, 2.0, 3.0]), 0.1)
    bad = np.array([0.0, 0.1, 0.3])
    with pytest.raises(ValidationError):
        build_isoenergetic_path(
            lambda t: spin_hamiltonian(model, t), bad, -1.0)


def test_trace_distance_basics():
    a = np.diag([1.0, 0.0]).astype(complex)
    b = np.diag([0.0, 1.0]).astype(complex)
    assert trace_distance(a, b) == pytest.approx(1.0)
    assert trace_distance(a, a) == pytest.approx(0.0, abs=1e-14)
    mixed = np.eye(2, dtype=complex) / 2.0
    assert trace_distance(a, mixed) == pytest.approx(0.5)
    # a stack passes the Hermiticity check member-wise but has no single distance
    with pytest.raises(ValidationError):
        trace_distance(np.stack([a, mixed]), np.stack([b, mixed]))
