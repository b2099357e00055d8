"""Classical drift-diffusion mirror: conservation of the quadratic
invariant average and the drift-independent fluctuation growth law."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weakinv import lindblad
from weakinv.errors import NumericalError, ValidationError
from weakinv.fokker_planck import (
    ClassicalTrajectory,
    GridDistribution,
    PolyInvariant,
    classical_growth_rate,
    evolve,
    explicit_step_limit,
    fp_rhs,
    gaussian_profile,
    invariant_moments,
    ou_invariant_coeffs,
    rk4_band,
)
from weakinv.lindblad import rk4_step, uniform_grid


def _grid(x_min=-8.0, x_max=8.0, h=0.02):
    n = int(round((x_max - x_min) / h))
    return np.linspace(x_min, x_max, n + 1)


def test_ou_coefficients_closed_form():
    # gamma = D = a0 = 1, b0 = e0 = 0: at t = ln sqrt(2) the quadratic
    # weight has doubled and the offset has dropped by (e^{2t} - 1).
    inv = ou_invariant_coeffs(1.0, 1.0, a0=1.0, b0=0.0, e0=0.0)
    t = 0.5 * np.log(2.0)
    assert inv.a(t) == pytest.approx(2.0, rel=1e-12)
    assert inv.b(t) == pytest.approx(0.0, abs=1e-15)
    assert inv.e(t) == pytest.approx(-1.0, rel=1e-12)


def test_ou_coefficients_solve_the_adjoint_equation():
    inv = ou_invariant_coeffs(1.3, 0.7, a0=0.9, b0=0.4, e0=-0.2)
    x = _grid(-4.0, 4.0, 0.05)
    for t in (0.0, 0.37, 1.0):
        res = inv.residual(x, -1.3 * x, np.full_like(x, 0.7), t)
        assert np.abs(res).max() < 1e-9


def test_invariant_average_on_gaussian():
    # E[a x^2 + b x + e] = a (var + mean^2) + b mean + e, and for J = x^2
    # Var[x^2] = 2 var^2 + 4 mean^2 var
    x = _grid()
    p = gaussian_profile(x, mean=0.5, var=0.5)
    inv = ou_invariant_coeffs(1.0, 1.0, a0=1.0, b0=0.0, e0=0.0)
    bar, var = invariant_moments(inv, p, 0.0)
    assert isinstance(bar, float) and isinstance(var, float)
    assert bar == pytest.approx(0.75, rel=1e-8)
    assert var == pytest.approx(1.0, rel=1e-8)


def test_stacked_diagnostics_equal_per_row_calls():
    x = _grid(-6.0, 6.0, 0.05)
    rows = [gaussian_profile(x, mean=m, var=v).values
            for m, v in ((0.0, 0.5), (0.7, 0.3), (-1.1, 0.9), (0.2, 0.05))]
    times = np.array([0.0, 0.013, 0.4, 1.7])
    stack = replace(gaussian_profile(x, mean=0.0, var=0.5), values=np.array(rows))
    inv = ou_invariant_coeffs(1.3, 0.7, a0=0.9, b0=0.4, e0=-0.2)
    diff = np.full_like(x, 0.7)

    bar, var = invariant_moments(inv, stack, times[:, None])
    rate = classical_growth_rate(inv, stack, diff, times[:, None])
    mass = stack.mass
    assert bar.shape == var.shape == rate.shape == mass.shape == (4,)
    for i, (row, t) in enumerate(zip(rows, times)):
        one = replace(stack, values=row)
        assert (bar[i], var[i]) == invariant_moments(inv, one, t)
        assert rate[i] == classical_growth_rate(inv, one, diff, t)
        assert mass[i] == one.mass


def test_integrals_match_numpy_trapezoid_on_an_asymmetric_grid():
    # one weight vector stands in for np.trapezoid in every integral
    x = uniform_grid(-3.5, 6.25, 0.0625, 8, ("x_min", "x_max", "h"))
    # no symmetry, and unequal nonzero values at both ends
    p = np.exp(-0.1 * (x - 1.2) ** 2) * (1.0 + 0.3 * np.sin(x))
    dist = GridDistribution.from_samples(x, p)
    inv = ou_invariant_coeffs(0.8, 0.6, a0=0.9, b0=-0.4, e0=0.3)
    diff = 0.5 + 0.1 * x * x
    t = 0.37
    j, s = inv.a(t) * x * x + inv.b(t) * x + inv.e(t), 2.0 * inv.a(t) * x + inv.b(t)
    mean = np.trapezoid(j * p, x)
    want = {
        "mass": np.trapezoid(p, x),
        "mean": mean,
        "var": np.trapezoid(j * j * p, x) - mean * mean,
        "rate": 2.0 * np.trapezoid(diff * s * s * p, x),
    }
    bar, var = invariant_moments(inv, dist, t)
    got = {"mass": dist.mass, "mean": bar, "var": var,
           "rate": classical_growth_rate(inv, dist, diff, t)}
    for key, value in want.items():
        assert got[key] == pytest.approx(value, rel=1e-14, abs=0.0), key


def test_linear_invariant_growth_is_state_independent():
    # J = b0 x: the growth rate 2 <D (J')^2> = 2 D b0^2 for any profile.
    x = _grid(-6.0, 6.0, 0.02)
    zero = lambda t: 0.0
    inv = PolyInvariant(a=zero, b=lambda t: 1.0, e=zero, da=zero, db=zero, de=zero)
    for mean, var in ((0.0, 0.5), (1.5, 0.2)):
        p = gaussian_profile(x, mean=mean, var=var)
        assert classical_growth_rate(inv, p, np.full_like(x, 1.0),
                                     0.0) == pytest.approx(2.0, rel=1e-8)


def test_quadratic_growth_rate_closed_form():
    # J = x^2: rate = 2 D <(2x)^2> = 8 D (var + mean^2) on a gaussian
    x = _grid(-6.0, 6.0, 0.02)
    p = gaussian_profile(x, mean=0.3, var=0.4)
    inv = ou_invariant_coeffs(1.0, 1.0, a0=1.0, b0=0.0, e0=0.0)
    rate = classical_growth_rate(inv, p, np.full_like(x, 1.0), 0.0)
    assert rate == pytest.approx(8.0 * (0.4 + 0.09), rel=1e-8)


def test_rhs_annihilates_stationary_profile():
    # OU stationary density exp(-gamma x^2 / (2D)) up to normalization.
    x = _grid(-8.0, 8.0, 0.02)
    p = gaussian_profile(x, mean=0.0, var=1.0)   # var = D/gamma = 1
    rhs = fp_rhs(p.values, p.h, -1.0 * x, np.full_like(x, 1.0))
    # O(h^2) truncation floor; a transported profile gives |rhs| ~ 0.4
    assert np.abs(rhs).max() < 5e-4


def _band_step(band, p):
    """One step of an (n, 9) band on p (..., n), padded by 4 zeros a side."""
    pad = np.pad(p, [(0, 0)] * (p.ndim - 1) + [(4, 4)])
    windows = np.lib.stride_tricks.sliding_window_view(pad, 9, axis=-1)
    return np.einsum("...ij,ij->...i", windows, band)


def test_rk4_band_matches_the_stage_by_stage_step():
    # an asymmetric grid with position-dependent K and D, near the explicit budget
    x = uniform_grid(-3.5, 6.25, 0.0625, 8, ("x_min", "x_max", "h"))
    drift, diff = np.sin(x), 0.5 + 0.1 * x * x
    h, dt = 0.0625, 0.8 * explicit_step_limit(0.0625, diff)
    stack = np.random.default_rng(11).random((5, x.size))

    rhs = fp_rhs(stack, h, drift, diff)
    for row, want in zip(stack, rhs):
        assert fp_rhs(row, h, drift, diff).tobytes() == want.tobytes()

    want = rk4_step(lambda k, v: fp_rhs(v, h, *k), [(drift, diff)] * 3, stack, dt)
    scale = np.abs(want).max()
    band = rk4_band(h, drift, diff, dt)
    assert band.shape == (x.size, 9)
    got = _band_step(band, stack)
    assert np.abs(got - want).max() <= 1e-14 * scale
    assert got[:, [0, -1]].tobytes() == stack[:, [0, -1]].tobytes()
    assert np.abs(_band_step(band, stack[0]) - want[0]).max() <= 1e-14 * scale


def test_mean_invariant_conserved_along_flow():
    x = _grid()
    p0 = gaussian_profile(x, mean=0.5, var=0.5)
    inv = ou_invariant_coeffs(1.0, 1.0, a0=1.0, b0=0.0, e0=0.0)
    traj = evolve(p0, -1.0 * x, np.full_like(x, 1.0), inv,
                  t0=0.0, t1=0.2, dt=1e-4)
    bar = traj.series["exp_I"]
    assert np.abs(bar - bar[0]).max() < 1e-9 * max(abs(bar[0]), 1.0)
    assert np.all(np.diff(traj.series["var_I"]) > -1e-9)


def test_growth_equality_defect_converges_at_second_order():
    # max|growth_fd - growth_formula| relative to the formula over interior
    # nodes, with dt proportional to h^2 inside the explicit budget: each
    # halving of h cuts the defect 4-fold
    inv = ou_invariant_coeffs(1.0, 1.0, a0=1.0, b0=0.0, e0=0.0)
    defects = []
    for h, dt in ((0.16, 4e-3), (0.08, 1e-3), (0.04, 2.5e-4), (0.02, 6.25e-5)):
        x = _grid(-8.0, 8.0, h)
        traj = evolve(gaussian_profile(x, mean=0.5, var=0.5), -1.0 * x, np.full_like(x, 1.0),
                      inv, t0=0.0, t1=0.2, dt=dt)
        f, g = traj.series["growth_formula"][1:-1], traj.series["growth_fd"][1:-1]
        defects.append(np.abs(g - f).max() / np.abs(f).max())
    ratios = np.array(defects[:-1]) / defects[1:]
    assert np.all((3.5 <= ratios) & (ratios <= 4.5)), ratios


def test_cfl_violation_is_rejected():
    x = _grid(-6.0, 6.0, 0.02)     # stability needs dt <= 2e-4
    p0 = gaussian_profile(x, mean=0.0, var=0.5)
    inv = ou_invariant_coeffs(1.0, 1.0, a0=1.0, b0=0.0, e0=0.0)
    # the unstable steps drive later nodes negative before the block is
    # observed; the budget breach at the first node is still what is raised
    with pytest.raises(NumericalError) as info:
        evolve(p0, -1.0 * x, np.full_like(x, 1.0), inv,
               t0=0.0, t1=0.01, dt=1e-3)
    assert str(info.value) == ("explicit-step budget violated at t = 0: dt = 1.000e-03 "
                               "exceeds h^2/(2 max D) = 2.000e-04")


@pytest.mark.parametrize("dt, bad", [(1e-3, 132), (2e-3, 87)])
def test_cfl_violation_is_rejected_across_multi_node_steps(dt, bad):
    # 301 nodes in blocks of 102 rows, the first observing nodes 0 ... 101
    # and each later one 101 more: the unstable states stop being finite at
    # node `bad`, written by a multi-node step, at 2e-3 within the first
    # block and after its nodes went negative; the budget breach at node 0
    # is still what is raised
    x = _grid(-6.0, 6.0, 0.02)
    p0 = gaussian_profile(x, mean=0.0, var=0.5)
    inv = ou_invariant_coeffs(1.0, 1.0, a0=1.0, b0=0.0, e0=0.0)
    ones = np.full_like(x, 1.0)
    assert lindblad.block_for(x, 301) == 102
    band = rk4_band(0.02, -1.0 * x, ones, dt)
    states = [p0.values]
    for _ in range(300):
        states.append(_band_step(band, states[-1]))
    assert int(np.isfinite(states).all(axis=1).argmin()) == bad
    with pytest.raises(NumericalError) as info:
        evolve(p0, -1.0 * x, ones, inv, t0=0.0, t1=0.3, dt=dt)
    assert str(info.value) == (f"explicit-step budget violated at t = 0: dt = {dt:.3e} "
                               "exceeds h^2/(2 max D) = 2.000e-04")


def test_boundary_leak_aborts():
    # domain too narrow: diffusion reaches the edge within the window
    x = _grid(-1.5, 1.5, 0.05)
    p0 = gaussian_profile(x, mean=0.0, var=0.03)
    inv = ou_invariant_coeffs(0.1, 1.0, a0=1.0, b0=0.0, e0=0.0)
    msg = ("density reached the boundary at t = 0.007 (edge value 2.622e-10 "
           "vs peak 1.907e+00); enlarge the domain")
    with pytest.raises(NumericalError) as info:
        evolve(p0, -0.1 * x, np.full_like(x, 1.0), inv,
               t0=0.0, t1=2.0, dt=1e-3)
    assert str(info.value) == msg


def test_block_diagnostics_do_not_depend_on_the_window():
    # The states are written, and the diagnostics reduced, in blocks of
    # `cap` rows: the first holds nodes 0 ... cap - 1, each later one the
    # cap - 1 nodes a step writes after the row carried over. Windows ending
    # just before, on and after the first two block edges must reproduce the
    # first rows of a longer run bit for bit. growth_fd is a gradient over the
    # whole series, so only its last row (a one-sided difference) may differ.
    x = _grid(-8.0, 8.0, 0.1)
    cap = min(lindblad.BLOCK_NODES, lindblad.BLOCK_BYTES // x.nbytes)
    p0 = gaussian_profile(x, mean=0.4, var=0.3)
    inv = ou_invariant_coeffs(1.0, 1.0, a0=1.0, b0=0.3, e0=0.1)

    def run(nodes):
        return evolve(p0, -1.0 * x, np.full_like(x, 1.0), inv,
                      t0=0.0, t1=(nodes - 1) * 1e-3, dt=1e-3)

    full = run(2 * cap + 3)
    for nodes in (cap - 1, cap, cap + 1, 2 * cap - 2, 2 * cap - 1, 2 * cap):
        part = run(nodes)
        assert part.times.tobytes() == full.times[:nodes].tobytes()
        for key, col in part.series.items():
            upto = nodes - 1 if key == "growth_fd" else nodes
            assert col[:upto].tobytes() == full.series[key][:upto].tobytes(), key


def test_coefficients_must_be_sampled_on_the_grid():
    # K and D are arrays on the grid; a scalar would broadcast silently
    x = _grid(-4.0, 4.0, 0.05)
    p0 = gaussian_profile(x, mean=0.0, var=0.5)
    inv = ou_invariant_coeffs(1.0, 1.0, a0=1.0, b0=0.0, e0=0.0)
    ones, short = np.full_like(x, 1.0), np.ones(x.size - 1)
    for call in (lambda: evolve(p0, -x, short, inv, t0=0.0, t1=0.01, dt=1e-3),
                 lambda: evolve(p0, -1.0, ones, inv, t0=0.0, t1=0.01, dt=1e-3),
                 lambda: classical_growth_rate(inv, p0, 1.0, 0.0),
                 lambda: inv.residual(x, -x, short, 0.0)):
        with pytest.raises(ValidationError, match="sampled on the grid"):
            call()


def test_profile_validation():
    x = _grid(-2.0, 2.0, 0.1)
    with pytest.raises(ValidationError):
        GridDistribution.from_samples(x, -np.ones_like(x))
    with pytest.raises(ValidationError):
        GridDistribution.from_samples(x[:4], np.ones(4))
    bad_x = np.concatenate([x[:10], x[10:] + 0.05])
    with pytest.raises(ValidationError):
        GridDistribution.from_samples(bad_x, np.ones_like(bad_x))
    # spacing holds to 1e-9 of the width, the tolerance uniform_grid tiles
    # to: the nodes' roundoff far from 0 passes
    for lo in (992.0, 999992.0):
        far = uniform_grid(lo, lo + 16.0, 0.02, 8, ("x_min", "x_max", "h"))
        assert GridDistribution.from_samples(far, np.ones_like(far)).h == far[1] - far[0]


@given(st.floats(0.1, 2.0), st.floats(-1.0, 1.0), st.floats(-0.5, 0.5))
@settings(max_examples=20, deadline=None)
def test_conservation_for_random_quadratic(a0, b0, mean):
    x = _grid(-8.0, 8.0, 0.04)
    p0 = gaussian_profile(x, mean=mean, var=0.4)
    inv = ou_invariant_coeffs(1.0, 1.0, a0=a0, b0=b0, e0=0.1)
    traj = evolve(p0, -1.0 * x, np.full_like(x, 1.0), inv,
                  t0=0.0, t1=0.05, dt=4e-4)
    bar = traj.series["exp_I"]
    scale = max(abs(bar[0]), 1.0)
    assert np.abs(bar - bar[0]).max() < 1e-8 * scale
