"""Classical drift-diffusion mirror of the quantum machinery.

A probability density on a uniform grid evolves by

    dP/dt = -d/dx (K P) + d^2/dx^2 (D P),

and a classical weak invariant J(x, t) satisfies

    dJ/dt + K dJ/dx + D d^2J/dx^2 = 0,

so that the average of J over P is conserved while its spread

    d <(J - <J>)^2> / dt = 2 <D (dJ/dx)^2>  >=  0

can only grow (the drift never contributes). The invariant equation run
forward on a grid is anti-diffusive and ill-posed, so J is restricted to
the quadratic ansatz J = a(t) x^2 + b(t) x + e(t), whose coefficient
dynamics is exact. For the Ornstein-Uhlenbeck process (K = -gamma x,
constant D) the coefficients are elementary exponentials.

The grid operator uses centered second-order differences in flux form;
degree <= 2 polynomials differentiate exactly under those stencils, which
is what makes the discrete conservation of <J> essentially exact. The two
outermost nodes are held fixed; the domain must be sized so the density
never reaches them (monitored each step, never clamped).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import NumericalError, ValidationError
from .lindblad import rk4_step, time_grid

BOUNDARY_DECAY_TOL = 1e-10
NEGATIVITY_TOL = 1e-10
# Node states held at once for the block diagnostics (64 x 801 floats,
# about 0.4 MB, on the default grid).
_BLOCK_NODES = 64


@dataclass(frozen=True)
class GridDistribution:
    """Probability density sampled on a uniform grid."""

    x: np.ndarray
    values: np.ndarray
    h: float

    @classmethod
    def from_samples(cls, x, values) -> "GridDistribution":
        xv = np.asarray(x, dtype=float)
        pv = np.asarray(values, dtype=float)
        if xv.ndim != 1 or xv.size < 8 or pv.shape != xv.shape:
            raise ValidationError("grid and values must be matching 1-d arrays, >= 8 nodes")
        steps = np.diff(xv)
        h = float(steps[0])
        if h <= 0.0 or np.abs(steps - h).max() > 1e-12 * abs(h):
            raise ValidationError("grid must be uniform and increasing")
        peak = float(pv.max())
        if peak <= 0.0:
            raise ValidationError("density must be positive somewhere")
        if pv.min() < -NEGATIVITY_TOL * peak:
            raise ValidationError(f"density has negative values down to {pv.min():.3e}")
        return cls(x=xv, values=pv, h=h)

    @property
    def mass(self) -> float:
        return float(np.trapezoid(self.values, self.x))


def space_grid(x_min: float, x_max: float, h: float) -> np.ndarray:
    """Nodes x_min, x_min + h, ..., x_max; h must tile the domain in at least 8 cells."""
    width = x_max - x_min
    if width <= 0.0:
        raise ValidationError(f"need x_max > x_min, got [{x_min}, {x_max}]")
    n_cells = int(round(width / h))
    if n_cells < 8 or abs(x_min + n_cells * h - x_max) > 1e-9 * width:
        raise ValidationError(f"h {h} does not tile [{x_min}, {x_max}]")
    return x_min + h * np.arange(n_cells + 1)


def gaussian_profile(x, mean: float, var: float) -> GridDistribution:
    """Normalised Gaussian sampled on the grid, boundary nodes zeroed."""
    xv = np.asarray(x, dtype=float)
    if var <= 0.0:
        raise ValidationError(f"variance must be positive, got {var}")
    p = np.exp(-0.5 * (xv - mean) ** 2 / var)
    p[0] = p[-1] = 0.0
    dist = GridDistribution.from_samples(xv, p)
    return GridDistribution(x=dist.x, values=dist.values / dist.mass, h=dist.h)


@dataclass(frozen=True)
class PolyInvariant:
    """J = a(t) x^2 + b(t) x + e(t) with optional analytic coefficient rates."""

    a: Callable[[float], float]
    b: Callable[[float], float]
    e: Callable[[float], float]
    da: Callable[[float], float] | None = None
    db: Callable[[float], float] | None = None
    de: Callable[[float], float] | None = None

    def values(self, x, t: float) -> np.ndarray:
        xv = np.asarray(x, dtype=float)
        return self.a(t) * xv * xv + self.b(t) * xv + self.e(t)

    def slope(self, x, t: float) -> np.ndarray:
        xv = np.asarray(x, dtype=float)
        return 2.0 * self.a(t) * xv + self.b(t)

    def residual(self, x, drift, diffusion, t: float) -> float:
        """Max-abs defect of the invariant equation; needs the rate callables."""
        if self.da is None or self.db is None or self.de is None:
            raise ValidationError("residual needs analytic coefficient rates")
        xv = np.asarray(x, dtype=float)
        dj_dt = self.da(t) * xv * xv + self.db(t) * xv + self.de(t)
        res = dj_dt + drift(xv, t) * self.slope(xv, t) + diffusion(xv, t) * 2.0 * self.a(t)
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


def ou_drift(gamma: float) -> Callable:
    return lambda x, t: -gamma * np.asarray(x, dtype=float)


def constant_diffusion(d_const: float) -> Callable:
    return lambda x, t: np.full_like(np.asarray(x, dtype=float), d_const)


def fp_rhs(
    p: np.ndarray, h: float, drift_values: np.ndarray, diffusion_values: np.ndarray
) -> np.ndarray:
    """Semi-discrete right-hand side, centered differences, fixed edge nodes.

    `p` is the density on a grid of spacing `h`; `drift_values` and
    `diffusion_values` are K and D sampled on that grid at the stage time.
    """
    kp = drift_values * p
    dp = diffusion_values * p
    out = np.zeros(p.shape)
    out[1:-1] = (
        -(kp[2:] - kp[:-2]) / (2.0 * h)
        + (dp[2:] - 2.0 * dp[1:-1] + dp[:-2]) / (h * h)
    )
    return out


def _row_times(dist: GridDistribution, t):
    """`t` shaped to broadcast against the grid: one time per row of a stack."""
    tv = np.asarray(t, dtype=float)
    if tv.shape != dist.values.shape[:-1]:
        raise ValidationError(
            f"need one time per density row: {tv.shape} vs {dist.values.shape[:-1]}")
    return tv[..., None] if tv.ndim else t


def _scalar_or_rows(value, t):
    return float(value) if np.ndim(t) == 0 else value


def invariant_moments(inv: PolyInvariant, dist: GridDistribution, t):
    """<J> and <(J - <J>)^2> over the density (trapezoid rule).

    `dist.values` may be a stack (m, n) of densities with `t` holding one
    time per row; both results are then arrays of length m, each entry
    equal to the single-density call on that row. The coefficient
    callables of `inv` must broadcast over a column of times.
    """
    j = inv.values(dist.x, _row_times(dist, t))
    mean = np.trapezoid(j * dist.values, dist.x)
    second = np.trapezoid(j * j * dist.values, dist.x)
    return _scalar_or_rows(mean, t), _scalar_or_rows(second - mean * mean, t)


def classical_growth_rate(
    inv: PolyInvariant, dist: GridDistribution, diffusion, t
) -> float | np.ndarray:
    """2 <D (dJ/dx)^2>, the spread growth rate (drift-independent).

    Takes a stack of densities with one time per row as
    `invariant_moments` does; `diffusion` is then called with that
    column of times.
    """
    tc = _row_times(dist, t)
    s = inv.slope(dist.x, tc)
    rate = 2.0 * np.trapezoid(diffusion(dist.x, tc) * s * s * dist.values, dist.x)
    return _scalar_or_rows(rate, t)


@dataclass
class ClassicalTrajectory:
    times: np.ndarray
    series: dict[str, np.ndarray]
    notes: dict[str, float] = field(default_factory=dict)


CLASSICAL_SERIES_KEYS = ("bar_J", "var_J", "growth_formula", "growth_fd",
                         "mass_err", "boundary_max", "min_P")


def evolve(
    dist: GridDistribution,
    drift,
    diffusion,
    inv: PolyInvariant,
    t0: float,
    t1: float,
    dt: float,
) -> ClassicalTrajectory:
    """Fixed-step RK4 integration with per-step safety monitors.

    The window is tiled by `lindblad.time_grid` and each step is
    `lindblad.rk4_step`, so both integrators share one grid rule and one
    stepper; RK4's accuracy keeps the conserved <J> flat to rounding.
    Drift and diffusion are sampled once per distinct time, at each node
    (reused as the previous step's final stage) and at each midpoint;
    those samples are the three "kernels" of a step. The explicit-step
    CFL budget dt <= h^2 / (2 max D) is enforced every step from the
    node's sample (diffusion may depend on time).

    The boundary and negativity guards run at every node before its
    step. The node states are copied into a block buffer and the
    diagnostics (<J>, its variance, the growth formula, the mass drift)
    are computed once per block of `_BLOCK_NODES` rows.
    """
    times = time_grid(t0, t1, dt)

    h = dist.h
    x = dist.x
    p = dist.values.copy()
    mass0 = float(np.trapezoid(p, x))
    cols = {k: np.empty(times.size) for k in CLASSICAL_SERIES_KEYS}
    block = np.empty((min(_BLOCK_NODES, times.size), x.size))

    def sample(t: float) -> tuple[np.ndarray, np.ndarray]:
        return drift(x, t), diffusion(x, t)

    def rhs(coeffs: tuple[np.ndarray, np.ndarray], values: np.ndarray) -> np.ndarray:
        return fp_rhs(values, h, *coeffs)

    def flush(stop: int, rows: int) -> None:
        span = slice(stop - rows, stop)
        blk = GridDistribution(x=x, values=block[:rows], h=h)
        cols["bar_J"][span], cols["var_J"][span] = invariant_moments(inv, blk, times[span])
        cols["growth_formula"][span] = classical_growth_rate(inv, blk, diffusion, times[span])
        cols["mass_err"][span] = np.trapezoid(blk.values, x) - mass0

    start = sample(times[0])
    for idx, t in enumerate(times):
        peak = float(p.max())
        bmax = float(np.abs(np.concatenate((p[:2], p[-2:]))).max())
        if bmax > BOUNDARY_DECAY_TOL * peak:
            raise NumericalError(
                f"density reached the boundary at t = {t:.6g} "
                f"(edge value {bmax:.3e} vs peak {peak:.3e}); enlarge the domain"
            )
        pmin = float(p.min())
        if pmin < -NEGATIVITY_TOL * peak:
            raise NumericalError(
                f"density went negative at t = {t:.6g}: min {pmin:.3e}"
            )
        cols["boundary_max"][idx] = bmax
        cols["min_P"][idx] = pmin
        row = idx % len(block)
        block[row] = p
        last = idx == times.size - 1
        if last or row == len(block) - 1:
            flush(idx + 1, row + 1)
        if last:
            break

        dmax = float(np.max(start[1]))
        if dmax > 0.0 and dt > h * h / (2.0 * dmax):
            raise NumericalError(
                f"explicit-step budget violated at t = {t:.6g}: "
                f"dt = {dt:.3e} exceeds h^2/(2 max D) = {h * h / (2.0 * dmax):.3e}"
            )
        end = sample(times[idx + 1])
        p = rk4_step(rhs, (start, sample(t + 0.5 * dt), end), p, dt)
        start = end

    cols["growth_fd"] = np.gradient(cols["var_J"], dt, edge_order=2)
    return ClassicalTrajectory(times=times, series=cols, notes={"mass_initial": mass0})
