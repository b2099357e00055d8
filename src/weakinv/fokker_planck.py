"""Classical drift-diffusion mirror of the quantum machinery.

A probability density on a `lindblad.uniform_grid` of space evolves by

    dP/dt = -d/dx (K P) + d^2/dx^2 (D P),

and a classical weak invariant J(x, t) satisfies

    dJ/dt + K dJ/dx + D d^2J/dx^2 = 0,

so that the average of J over P is conserved while its spread

    d <(J - <J>)^2> / dt = 2 <D (dJ/dx)^2>  >=  0

can only grow (the drift never contributes). The invariant equation run
forward on a grid is anti-diffusive and ill-posed, so J is restricted to
the quadratic ansatz J = a(t) x^2 + b(t) x + e(t), whose coefficient
dynamics is exact. For the Ornstein-Uhlenbeck process (K = -gamma x,
constant D) the coefficients are elementary exponentials. K and D are
arrays on the grid; only J depends on t. Every integral over the grid is
a per-row dot product with its one trapezoid weight vector, of the power
moments <x^k> and <D x^k> for the diagnostics of J, whose power rows are
formed by multiplication once per call. The series carry the
names of the CSV slots they fill: `exp_I`, `var_I` are <J> and its
spread, `trace_err` the mass defect and `min_eig` the smallest density.

The grid operator uses centered second-order differences in flux form;
degree <= 2 polynomials differentiate exactly under those stencils, which
is what makes the discrete conservation of <J> essentially exact. One
RK4 step of the constant operator is a band of 9 diagonals, built once per
run; each step is an einsum written straight into the next padded row of
`march`'s block.
The two outermost nodes are held fixed; the domain must be sized so the
density never reaches them (monitored at every node, never clamped).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .errors import NumericalError, ValidationError
from .lindblad import block_for, march, rk4_step, uniform_grid
from .operators import abort_at

BOUNDARY_DECAY_TOL = 1e-10
NEGATIVITY_TOL = 1e-10


@dataclass(frozen=True)
class GridDistribution:
    """A density on a grid uniform to 1e-9 of its width (the tolerance
    `uniform_grid` tiles to), or a stack (m, n) of them, with the grid's
    trapezoid `weights` (numpy's rule: half of each cell's width at either end)."""

    x: np.ndarray
    values: np.ndarray
    h: float
    weights: np.ndarray

    @classmethod
    def from_samples(cls, x, values) -> "GridDistribution":
        xv = np.asarray(x, dtype=float)
        pv = np.asarray(values, dtype=float)
        if xv.ndim != 1 or xv.size < 8 or pv.shape != xv.shape:
            raise ValidationError("grid and values must be matching 1-d arrays, >= 8 nodes")
        steps = np.diff(xv)
        h = float(steps[0])
        if h <= 0.0 or np.abs(steps - h).max() > 1e-9 * (xv[-1] - xv[0]):
            raise ValidationError("grid must be uniform and increasing")
        peak = float(pv.max())
        if peak <= 0.0:
            raise ValidationError("density must be positive somewhere")
        if pv.min() < -NEGATIVITY_TOL * peak:
            raise ValidationError(f"density has negative values down to {pv.min():.3e}")
        return cls(x=xv, values=pv, h=h, weights=np.convolve(steps, [0.5, 0.5]))

    @property
    def mass(self):
        """The integral of each density: a float, or one per row of a stack."""
        return np.vecdot(self.values, self.weights)


def gaussian_profile(x, mean: float, var: float) -> GridDistribution:
    """Normalised Gaussian sampled on the grid, boundary nodes zeroed."""
    xv = np.asarray(x, dtype=float)
    if var <= 0.0:
        raise ValidationError(f"variance must be positive, got {var}")
    p = np.exp(-0.5 * (xv - mean) ** 2 / var)
    p[0] = p[-1] = 0.0
    dist = GridDistribution.from_samples(xv, p)
    return replace(dist, values=dist.values / dist.mass)


@dataclass(frozen=True)
class PolyInvariant:
    """J = a(t) x^2 + b(t) x + e(t) with the analytic coefficient rates da, db, de."""

    a: Callable[[float], float]
    b: Callable[[float], float]
    e: Callable[[float], float]
    da: Callable[[float], float]
    db: Callable[[float], float]
    de: Callable[[float], float]

    def residual(self, x, drift, diffusion, t: float) -> float:
        """Max-abs defect of the invariant equation, K and D on the grid x."""
        xv = np.asarray(x, dtype=float)
        drift, diffusion = _on_grid(xv, drift, diffusion)
        dj_dt = self.da(t) * xv * xv + self.db(t) * xv + self.de(t)
        res = dj_dt + drift * (2.0 * self.a(t) * xv + self.b(t)) + diffusion * 2.0 * self.a(t)
        return float(np.abs(res).max())


def ou_invariant_coeffs(
    gamma: float, d_const: float, a0: float, b0: float, e0: float
) -> PolyInvariant:
    """Closed-form coefficients for the Ornstein-Uhlenbeck process.

    With K = -gamma x and constant D the invariant equation forces
    a(t) = a0 exp(2 gamma t), b(t) = b0 exp(gamma t),
    e(t) = e0 - (D a0 / gamma)(exp(2 gamma t) - 1).
    """
    if gamma <= 0.0:
        raise ValidationError(f"relaxation rate must be positive, got {gamma}")
    if d_const < 0.0:
        raise ValidationError(f"diffusion must be nonnegative, got {d_const}")
    return PolyInvariant(
        a=lambda t: a0 * np.exp(2.0 * gamma * t),
        b=lambda t: b0 * np.exp(gamma * t),
        e=lambda t: e0 - (d_const * a0 / gamma) * (np.exp(2.0 * gamma * t) - 1.0),
        da=lambda t: 2.0 * gamma * a0 * np.exp(2.0 * gamma * t),
        db=lambda t: gamma * b0 * np.exp(gamma * t),
        de=lambda t: -2.0 * d_const * a0 * np.exp(2.0 * gamma * t),
    )


def _on_grid(x: np.ndarray, *coeffs) -> list[np.ndarray]:
    """The coefficient arrays, each checked to be sampled on the grid x."""
    out = [np.asarray(c, dtype=float) for c in coeffs]
    if any(c.shape != x.shape for c in out):
        raise ValidationError(f"coefficients must be sampled on the grid {x.shape}, "
                              f"got shapes {[c.shape for c in out]}")
    return out


def explicit_step_limit(h: float, diffusion) -> float:
    """h^2 / (2 max D), the largest stable explicit step; inf when D vanishes."""
    d_max = float(np.max(diffusion))
    return h * h / (2.0 * d_max) if d_max > 0.0 else np.inf


def fp_rhs(
    p: np.ndarray, h: float, drift_values: np.ndarray, diffusion_values: np.ndarray
) -> np.ndarray:
    """Semi-discrete right-hand side, centered differences, fixed edge nodes.

    `p` is the density on a grid of spacing `h`; `drift_values` and
    `diffusion_values` are K and D sampled on that grid.
    """
    kp = drift_values * p
    dp = diffusion_values * p
    out = np.zeros(p.shape)
    out[..., 1:-1] = (
        -(kp[..., 2:] - kp[..., :-2]) / (2.0 * h)
        + (dp[..., 2:] - 2.0 * dp[..., 1:-1] + dp[..., :-2]) / (h * h)
    )
    return out


def rk4_band(h: float, drift, diffusion, dt: float) -> np.ndarray:
    """The RK4 step of `fp_rhs`, a degree-4 polynomial in the 3-point operator, as
    its (n, 9) band: row i weighs nodes i - 4 ... i + 4 (zero off the grid) into
    node i. One `rk4_step` on the 9 combs (comb r sums e_j over j = r mod 9)
    gives every column without overlap (Curtis, Powell & Reid 1974).
    """
    n = len(drift)
    combs = (np.arange(n) % 9 == np.arange(9)[:, None]).astype(float)
    cols = rk4_step(lambda k, v: fp_rhs(v, h, *k), [(drift, diffusion)] * 3, combs, dt)
    j = np.arange(n)[:, None] + np.arange(-4, 5)        # the column on each band slot
    return np.where((j >= 0) & (j < n), cols[j % 9, np.arange(n)[:, None]], 0.0)


def _power_moments(dist: GridDistribution, w: np.ndarray, k: int) -> np.ndarray:
    """<w x^j>, j < k, one row per density, reduced against the C-contiguous
    power rows w x^j formed once by multiplication (numpy's `**` takes the
    exponents 3 and 4 through `pow`, about 20 times slower on a grid)."""
    rows = np.empty((k, dist.x.size))
    rows[0] = w
    for j in range(1, k):
        np.multiply(rows[j - 1], dist.x, out=rows[j])
    return np.moveaxis(np.vecdot(dist.values[..., None, :], rows), -1, 0)


def invariant_moments(inv: PolyInvariant, dist: GridDistribution, t):
    """<J> and <(J - <J>)^2> over the density, from its power moments <x^k>, k <= 4.

    `dist.values` may be a stack (m, n) of densities; `t` is then one time
    per row, (m,) or a column (m, 1), and both results are arrays of length
    m, each entry equal to the single-density call on that row.
    """
    t = np.reshape(t, np.shape(dist.values)[:-1])
    a, b, e = inv.a(t), inv.b(t), inv.e(t)
    m0, m1, m2, m3, m4 = _power_moments(dist, dist.weights, 5)
    mean = a * m2 + b * m1 + e * m0
    second = (a * a * m4 + 2.0 * a * b * m3 + (b * b + 2.0 * a * e) * m2
              + 2.0 * b * e * m1 + e * e * m0)
    return mean, second - mean * mean


def classical_growth_rate(inv: PolyInvariant, dist: GridDistribution, diffusion, t):
    """2 <D (dJ/dx)^2>, the spread growth rate (drift-independent), from the
    moments <D x^k>, k <= 2.

    `diffusion` is D sampled on the grid. Takes a stack of densities with
    one time per row as `invariant_moments` does.
    """
    (diffusion,) = _on_grid(dist.x, diffusion)
    t = np.reshape(t, np.shape(dist.values)[:-1])
    a, b = inv.a(t), inv.b(t)
    d0, d1, d2 = _power_moments(dist, dist.weights * diffusion, 3)
    return 2.0 * (4.0 * a * a * d2 + 4.0 * a * b * d1 + b * b * d0)


def interior_minimum(block: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Each row's minimum of a density stack (m, n) at times t (m,); aborts at the first
    row whose four edge nodes exceed BOUNDARY_DECAY_TOL of its peak, or that goes negative."""
    peak = block.max(axis=1)
    bmax = np.abs(block[:, [0, 1, -2, -1]]).max(axis=1)
    abort_at(bmax > BOUNDARY_DECAY_TOL * peak, NumericalError, lambda k: (
        f"density reached the boundary at t = {t[k]:.6g} (edge value "
        f"{bmax[k]:.3e} vs peak {peak[k]:.3e}); enlarge the domain"))
    pmin = block.min(axis=1)
    abort_at(pmin < -NEGATIVITY_TOL * peak, NumericalError,
             lambda k: f"density went negative at t = {t[k]:.6g}: min {pmin[k]:.3e}")
    return pmin


@dataclass
class ClassicalTrajectory:
    times: np.ndarray
    series: dict[str, np.ndarray]
    notes: dict[str, float] = field(default_factory=dict)


def evolve(dist: GridDistribution, drift, diffusion, inv: PolyInvariant, *,
           t0: float, t1: float, dt: float) -> ClassicalTrajectory:
    """Fixed-step RK4 integration on `lindblad.march`, with safety monitors.

    Both integrators share one grid rule, one RK4 step and one loop; RK4
    keeps the conserved <J> flat to rounding. `drift` and `diffusion` are
    K and D sampled on `dist.x`, turned into one `rk4_band`; the block lent
    to `march` is the interior of padded rows, each step written into the next.
    Guards and diagnostics run once per block of nodes, and the run
    aborts at the earliest node where the density stops being finite,
    reaches the boundary or goes negative, or (at a node that starts a
    step) dt breaks the CFL budget `explicit_step_limit`.
    """
    times = uniform_grid(t0, t1, dt, 2)
    h, x = dist.h, dist.x
    coeffs = tuple(_on_grid(x, drift, diffusion))
    limit = explicit_step_limit(h, coeffs[1])
    mass0 = dist.mass
    cols = {k: np.empty(times.size) for k in
            ("exp_I", "var_I", "growth_formula", "growth_fd", "trace_err", "min_eig")}

    def observe(span, block):
        t = times[span]
        pmin = interior_minimum(block, t)
        abort_at((np.arange(span.start, span.stop) < times.size - 1) & (dt > limit),
                 NumericalError, lambda k: (f"explicit-step budget violated at t = {t[k]:.6g}: "
                                            f"dt = {dt:.3e} exceeds h^2/(2 max D) = {limit:.3e}"))

        blk = replace(dist, values=block)
        cols["exp_I"][span], cols["var_I"][span] = invariant_moments(inv, blk, t)
        cols["growth_formula"][span] = classical_growth_rate(inv, blk, coeffs[1], t)
        cols["trace_err"][span] = blk.mass - mass0
        cols["min_eig"][span] = pmin

    # march's block is the interior of padded rows, so that each step is one
    # einsum of a sliding window of padded row r with the band into row r + 1
    pad = np.zeros((block_for(dist.values, times.size),) + dist.values.shape[:-1] + (x.size + 8,))
    block = pad[..., 4:-4]
    block[0] = dist.values
    windows = np.lib.stride_tricks.sliding_window_view(pad, 9, axis=-1)
    band = rk4_band(h, *coeffs, dt)

    def step(i, k):
        for r in range(k):
            np.einsum("...ij,ij->...i", windows[r], band, out=block[r + 1])

    march(times, block, step, observe)
    cols["growth_fd"] = np.gradient(cols["var_I"], dt, edge_order=2)
    return ClassicalTrajectory(times=times, series=cols, notes={"mass_initial": mass0})
