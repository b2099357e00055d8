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


def fp_rhs(dist: GridDistribution, drift, diffusion, t: float) -> np.ndarray:
    """Semi-discrete right-hand side, centered differences, fixed edge nodes."""
    x, p, h = dist.x, dist.values, dist.h
    kp = drift(x, t) * p
    dp = diffusion(x, t) * p
    out = np.zeros_like(p)
    out[1:-1] = (
        -(kp[2:] - kp[:-2]) / (2.0 * h)
        + (dp[2:] - 2.0 * dp[1:-1] + dp[:-2]) / (h * h)
    )
    return out


def invariant_average(inv: PolyInvariant, dist: GridDistribution, t: float) -> float:
    """<J> over the density (trapezoid rule)."""
    return float(np.trapezoid(inv.values(dist.x, t) * dist.values, dist.x))


def invariant_variance(inv: PolyInvariant, dist: GridDistribution, t: float) -> float:
    j = inv.values(dist.x, t)
    mean = float(np.trapezoid(j * dist.values, dist.x))
    second = float(np.trapezoid(j * j * dist.values, dist.x))
    return second - mean * mean


def classical_growth_rate(
    inv: PolyInvariant, dist: GridDistribution, diffusion, t: float
) -> float:
    """2 <D (dJ/dx)^2>, the spread growth rate (drift-independent)."""
    s = inv.slope(dist.x, t)
    return float(2.0 * np.trapezoid(diffusion(dist.x, t) * s * s * dist.values, dist.x))


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
    The explicit-step CFL budget dt <= h^2 / (2 max D) is enforced every
    step (diffusion may depend on time).
    """
    times = time_grid(t0, t1, dt)

    h = dist.h
    x = dist.x
    p = dist.values.copy()
    mass0 = float(np.trapezoid(p, x))
    cols = {k: np.empty(times.size) for k in CLASSICAL_SERIES_KEYS}

    def rhs(t: float, values: np.ndarray) -> np.ndarray:
        return fp_rhs(GridDistribution(x=x, values=values, h=h), drift, diffusion, t)

    for idx, t in enumerate(times):
        peak = float(p.max())
        bmax = float(np.abs(np.concatenate((p[:2], p[-2:]))).max())
        if bmax > BOUNDARY_DECAY_TOL * peak:
            raise NumericalError(
                f"density reached the boundary at t = {t:.6g} "
                f"(edge value {bmax:.3e} vs peak {peak:.3e}); enlarge the domain"
            )
        if float(p.min()) < -NEGATIVITY_TOL * peak:
            raise NumericalError(
                f"density went negative at t = {t:.6g}: min {p.min():.3e}"
            )
        j = inv.values(x, t)
        mean = float(np.trapezoid(j * p, x))
        second = float(np.trapezoid(j * j * p, x))
        cols["bar_J"][idx] = mean
        cols["var_J"][idx] = second - mean * mean
        cols["growth_formula"][idx] = classical_growth_rate(
            inv, GridDistribution(x=x, values=p, h=h), diffusion, t)
        cols["mass_err"][idx] = float(np.trapezoid(p, x)) - mass0
        cols["boundary_max"][idx] = bmax
        cols["min_P"][idx] = float(p.min())
        if idx == times.size - 1:
            break

        dmax = float(np.max(diffusion(x, t)))
        if dmax > 0.0 and dt > h * h / (2.0 * dmax):
            raise NumericalError(
                f"explicit-step budget violated at t = {t:.6g}: "
                f"dt = {dt:.3e} exceeds h^2/(2 max D) = {h * h / (2.0 * dmax):.3e}"
            )
        p = rk4_step(rhs, (t, t + 0.5 * dt, t + dt), p, dt)

    cols["growth_fd"] = np.gradient(cols["var_J"], dt, edge_order=2)
    return ClassicalTrajectory(times=times, series=cols, notes={"mass_initial": mass0})
