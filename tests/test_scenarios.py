"""Check records: the ceiling and floor rules and the one strict check."""

import dataclasses

import numpy as np
import pytest

from weakinv import scenarios
from weakinv.config import default_config


@pytest.mark.parametrize("bound, tol", [(0.0, 1e-9), (3.5, 0.0), (1.0, 1e-6)])
def test_ceiling_passes_up_to_bound_plus_tolerance(bound, tol):
    edge = bound + tol
    at = scenarios._at_most("c", "law", edge, tol, bound=bound)
    assert at.passed and (at.bound_or_target, at.tolerance) == (bound, tol)
    above = np.nextafter(edge, np.inf)
    assert not scenarios._at_most("c", "law", above, tol, bound=bound).passed


@pytest.mark.parametrize("bound, tol", [(0.0, 1e-9), (3.5, 0.0), (1.0, 1e-6)])
def test_floor_passes_down_to_bound_minus_tolerance(bound, tol):
    edge = bound - tol
    at = scenarios._at_least("f", "law", edge, tol, bound=bound)
    assert at.passed and (at.bound_or_target, at.tolerance) == (bound, tol)
    below = np.nextafter(edge, -np.inf)
    assert not scenarios._at_least("f", "law", below, tol, bound=bound).passed


def test_relative_deviation_floors_its_scale():
    got = scenarios._rel_dev(np.array([3.0, 1e-13]), np.array([2.0, 0.0]))
    assert got.tolist() == [0.5, 1e-13 / 1e-12]


def test_heating_positive_is_strict(monkeypatch):
    # a path whose net heating is exactly zero fails: the check is > 0, not >= 0
    real = scenarios.check_specific_heat_relation
    monkeypatch.setattr(scenarios, "check_specific_heat_relation",
                        lambda path: {**real(path), "min_lhs": 0.0})
    cfg = default_config("thermo_spin")
    cfg = dataclasses.replace(cfg, t1=0.125, params={**cfg.params, "n_times": 129})
    check = next(c for c in scenarios.run_thermo_spin(cfg).checks if c.name == "heating_positive")
    assert (check.measured, check.passed) == (0.0, False)
