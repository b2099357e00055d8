"""Canonical states, the isoenergetic temperature solve, and the
heat-capacity identity along a widening-spectrum path."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weakinv.errors import NumericalError, ValidationError
from weakinv.models import exponential_field, spin_hamiltonian
from weakinv.operators import SIGMA_Z, expectation, hermiticity_defect, variance
from weakinv.thermo import (
    build_isoenergetic_path,
    canonical_state,
    check_specific_heat_relation,
    internal_energy,
    solve_isoenergetic_temperature,
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


def _static_path_heat(h, temp):
    """Heat capacity the path builder reports for a constant H held at energy U(temp)."""
    path = build_isoenergetic_path(np.stack([h] * 3), np.linspace(0.0, 1.0, 3),
                                   internal_energy(h, temp))
    assert path.temperature == pytest.approx(temp, rel=1e-9)
    return float(path.heat_capacity[1])


def test_specific_heat_closed_form_at_unit_field():
    # C = (B/T)^2 sech^2(B/T) = 0.41997... at B = T = 1
    h = SIGMA_Z.astype(complex)
    c = _static_path_heat(h, 1.0)
    assert c == pytest.approx(1.0 / np.cosh(1.0) ** 2, rel=1e-12)
    assert c == pytest.approx(0.419974, rel=1e-5)


def test_specific_heat_matches_energy_derivative():
    h = SIGMA_Z.astype(complex)
    t, dt = 1.0, 1e-4
    fd = (internal_energy(h, t + dt) - internal_energy(h, t - dt)) / (2 * dt)
    assert _static_path_heat(h, t) == pytest.approx(fd, rel=1e-5)


def test_variance_is_t_squared_c_by_construction():
    # two levels at -1, +1: C = sech^2(1/T) / T^2, so var = sech^2(1/T)
    h = SIGMA_Z.astype(complex)
    for temp in (0.5, 1.0, 3.0):
        rho = canonical_state(h, temp)
        c_closed = 1.0 / (temp**2 * np.cosh(1.0 / temp) ** 2)
        assert variance(h, rho) == pytest.approx(temp**2 * c_closed, rel=1e-12)


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
    path = build_isoenergetic_path(spin_hamiltonian(model, times), times, u)
    rel = check_specific_heat_relation(path)
    assert rel["min_lhs"] > 0.0
    assert rel["max_identity_rel_err"] < 1e-5
    assert np.all(np.diff(path.temperature) > 0.0)


def test_path_requires_uniform_grid():
    model = exponential_field(np.array([1.0, 2.0, 3.0]), 0.1)
    bad = np.array([0.0, 0.1, 0.3])
    with pytest.raises(ValidationError):
        build_isoenergetic_path(spin_hamiltonian(model, bad), bad, -1.0)


def test_path_needs_one_hamiltonian_per_node():
    model = exponential_field(np.array([1.0, 2.0, 3.0]), 0.1)
    times = np.linspace(0.0, 0.1, 5)
    with pytest.raises(ValidationError, match="one Hamiltonian per node"):
        build_isoenergetic_path(spin_hamiltonian(model, times[:4]), times, -1.0)


def test_trace_distance_basics():
    a = np.diag([1.0, 0.0]).astype(complex)
    b = np.diag([0.0, 1.0]).astype(complex)
    assert trace_distance(a, b) == pytest.approx(1.0)
    assert trace_distance(a, a) == pytest.approx(0.0, abs=1e-14)
    mixed = np.eye(2, dtype=complex) / 2.0
    assert trace_distance(a, mixed) == pytest.approx(0.5)
    # a stack gives one distance per member; shapes must still match
    pairs = trace_distance(np.stack([a, a, mixed]), np.stack([b, a, a]))
    assert pairs.tolist() == [trace_distance(a, b), trace_distance(a, a),
                              trace_distance(mixed, a)]
    with pytest.raises(ValidationError, match="one shape"):
        trace_distance(np.stack([a, mixed]), a)


def _random_hamiltonians(n, dim, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, dim, dim)) + 1j * rng.standard_normal((n, dim, dim))
    return 0.5 * (g + g.conj().swapaxes(-1, -2))


@pytest.mark.parametrize("dim", [2, 5])
def test_stacked_calls_equal_two_d_calls(dim):
    hs = _random_hamiltonians(6, dim, 23 + dim)
    temps = np.array([0.3, 0.6, 1.0, 2.5, 7.0, 40.0])
    u = internal_energy(hs, temps)
    assert u.shape == (6,)
    back = solve_isoenergetic_temperature(hs, u)
    states = canonical_state(hs, temps)
    dist = trace_distance(states.mat, canonical_state(hs, 1.0).mat)
    for k in range(6):
        assert u[k] == internal_energy(hs[k], temps[k])
        assert back[k] == solve_isoenergetic_temperature(hs[k], u[k])
        one = canonical_state(hs[k], temps[k])
        assert np.array_equal(states.mat[k], one.mat)
        assert states.min_eig[k] == one.min_eig
        assert hermiticity_defect(one.mat) < 1e-12
        assert abs(np.trace(one.mat) - 1.0) < 1e-12
        assert dist[k] == trace_distance(one, canonical_state(hs[k], 1.0))
    # one Hamiltonian broadcasts against a column of temperatures and energies
    h = hs[0]
    assert np.array_equal(canonical_state(h, temps).mat,
                          np.stack([canonical_state(h, t).mat for t in temps]))
    assert np.array_equal(solve_isoenergetic_temperature(h, internal_energy(h, temps)),
                          [solve_isoenergetic_temperature(h, internal_energy(h, t))
                           for t in temps])


def test_stack_guards_name_the_earliest_member():
    z = np.diag([1.0, 0.0, -1.0]).astype(complex)    # levels -1, 0, 1
    # member 1 misses the reachable range; member 2 is flat, a guard listed
    # earlier, but the earlier member is reported
    hs = np.stack([z, z, np.eye(3, dtype=complex)])
    with pytest.raises(ValidationError) as err:
        solve_isoenergetic_temperature(hs, np.array([-0.5, -1.5, 1.0]))
    assert str(err.value) == (
        "stack member 1: target energy -1.5 outside the reachable range (-1, 0)")
    # at one member the guard order holds: flat before out of range
    with pytest.raises(ValidationError) as err:
        solve_isoenergetic_temperature(hs, np.array([-0.5, -0.5, 5.0]))
    assert str(err.value) == (
        "stack member 2: Hamiltonian is a multiple of the identity; U(T) is flat")
    # a level 1e-7 above the ground is populated even at the bracket's lower
    # end, so an energy just above the ground cannot be bracketed
    gap = np.diag([-1.0, -1.0 + 1e-7, 1.0]).astype(complex)
    with pytest.raises(NumericalError, match=r"^stack member 1: bracket failure: "):
        solve_isoenergetic_temperature(np.stack([z, gap]), np.array([-0.5, -1.0 + 1e-8]))
    with pytest.raises(ValidationError, match=r"^stack member 1: temperature must be positive"):
        canonical_state(np.stack([z, z]), np.array([1.0, -2.0]))
    # NaN is no positive temperature either, as a scalar or a stack member
    for call in (canonical_state, internal_energy):
        with pytest.raises(ValidationError, match=r"^temperature must be positive, got nan$"):
            call(z, np.nan)
        with pytest.raises(ValidationError,
                           match=r"^stack member 1: temperature must be positive, got nan$"):
            call(np.stack([z, z]), np.array([1.0, np.nan]))
