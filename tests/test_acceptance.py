"""Acceptance gate: the ten headline criteria, one test each.

Each test prints a [PASS]/[FAIL] verdict line (visible with -s) before
asserting, so a red run still reports every criterion it reached.
Scenario runs are shared through module-scoped fixtures; everything here
goes through the same public entry points the CLI uses.
"""

import dataclasses
import gzip
import io
import json
from pathlib import Path

import numpy as np
import pytest

from weakinv.cli import emit_verdict, format_series
from weakinv.config import default_config
from weakinv.scenarios import MONOTONE_SLACK, run_scenario


@pytest.fixture(scope="module")
def spin():
    return run_scenario(default_config("spin"))


@pytest.fixture(scope="module")
def spin_half():
    cfg = dataclasses.replace(default_config("spin"), alpha=0.5)
    return run_scenario(cfg)


@pytest.fixture(scope="module")
def oscillator():
    return run_scenario(default_config("oscillator"))


@pytest.fixture(scope="module")
def oscillator_half():
    cfg = dataclasses.replace(default_config("oscillator"), alpha=0.5)
    return run_scenario(cfg)


@pytest.fixture(scope="module")
def fuzz():
    return run_scenario(default_config("channel_fuzz"))


@pytest.fixture(scope="module")
def thermo():
    return run_scenario(default_config("thermo_spin"))


@pytest.fixture(scope="module")
def fp():
    return run_scenario(default_config("fp_ou"))


def _get(result, name):
    for c in result.checks:
        if c.name == name:
            return c
    raise AssertionError(f"{result.scenario} has no check named {name!r}")


def _verdict(num, label, conditions):
    ok = all(bool(v) for _, v in conditions)
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {label}")
    for desc, v in conditions:
        assert v, f"criterion {num} ({label}): {desc}"


def _passed(result, name):
    c = _get(result, name)
    return (f"{result.scenario}:{name} measured {c.measured:.3e} "
            f"tol {c.tolerance:.1e}", c.passed)


def test_criterion_01_spin_closed_form(spin):
    g0 = spin.columns["growth_formula"][0]
    _verdict(1, "spin closed form: conservation, field increment, 22.4 rate", [
        _passed(spin, "mean_invariant_conserved"),
        _passed(spin, "fluctuation_field_increment"),
        (f"t=0 growth {g0!r} vs 22.4", abs(g0 - 22.4) <= 1e-6 * 22.4),
    ])


def test_criterion_02_oscillator_law(oscillator):
    g0 = oscillator.columns["growth_formula"][0]
    _verdict(2, "oscillator law: exact c(0), 0.25 rate, fd match, drift", [
        _passed(oscillator, "initial_rate_value"),
        (f"t=0 growth {g0!r} vs 0.25", abs(g0 - 0.25) <= 1e-6 * 0.25),
        _passed(oscillator, "growth_rate_equality"),
        _passed(oscillator, "mean_invariant_conserved"),
    ])


def test_criterion_03_growth_rate_equality(spin, oscillator):
    _verdict(3, "formula vs finite-difference growth on both models", [
        _passed(spin, "growth_rate_equality"),
        _passed(oscillator, "growth_rate_equality"),
    ])


def test_criterion_04_monotonicity(spin, oscillator, fuzz):
    n_cases = len(fuzz.columns["t"])
    _verdict(4, "second-moment monotonicity: 200-channel fuzz + models", [
        (f"fuzz ran {n_cases} cases", n_cases == 200),
        _passed(fuzz, "operator_jensen_floor"),
        _passed(spin, "fluctuation_nondecreasing"),
        _passed(oscillator, "fluctuation_nondecreasing"),
    ])


def test_criterion_05_strong_invariant_reduction(spin):
    _verdict(5, "zero-rate run freezes spectrum and fluctuation", [
        _passed(spin, "strong_invariant_spectrum"),
        _passed(spin, "strong_invariant_fluctuation"),
    ])


def test_criterion_06_entropy_bounds(spin, spin_half, oscillator,
                                     oscillator_half):
    conditions = []
    for r in (spin, spin_half, oscillator, oscillator_half):
        conditions.append(_passed(r, "entropy_rate_vn_bound"))
        conditions.append(_passed(r, "entropy_rate_renyi_bound"))
        conditions.append(_passed(r, "hermitian_bounds_vanish"))
    _verdict(6, "entropy production bounds, alpha in {0.5, 2}", conditions)


def test_criterion_07_thermo_relation(thermo):
    _verdict(7, "isoenergetic path: heating sign, identity, closed form", [
        _passed(thermo, "heating_positive"),
        _passed(thermo, "specific_heat_identity"),
        _passed(thermo, "closed_form_heat"),
    ])


def test_criterion_08_classical_mirror(fp):
    _verdict(8, "drift-diffusion run: conservation, growth, independence", [
        _passed(fp, "classical_mean_conserved"),
        _passed(fp, "classical_fluctuation_nondecreasing"),
        _passed(fp, "classical_growth_equality"),
        _passed(fp, "drift_independence"),
    ])


def test_criterion_09_step_consistency(spin):
    c = _get(spin, "step_map_consistency")
    _verdict(9, "one-step map vs integrator, second-order error ratio", [
        (f"halving ratio {c.measured:.3f} >= 3.5", c.passed),
    ])


def test_criterion_10_shift_symmetry(spin):
    _verdict(10, "constant shift of the invariant leaves fluctuation", [
        _passed(spin, "shift_covariance"),
    ])


def test_all_default_scenarios_fully_pass(spin, oscillator, fuzz, thermo, fp):
    # belt and braces: no scenario carries a failing check of any kind
    for r in (spin, oscillator, fuzz, thermo, fp):
        bad = [c.name for c in r.checks if not c.passed]
        assert not bad, f"{r.scenario}: failing checks {bad}"


# Every default check as (name, bound_or_target, tolerance), in verdict
# order; all of them pass. None marks fp_ou's monotone slack, which scales
# with the run's own fluctuation and is derived from it below.
PINNED_CHECKS = {
    "spin": [
        ("mean_invariant_conserved", 0.0, 1e-8),
        ("fluctuation_nondecreasing", 0.0, 1e-9),
        ("growth_rate_equality", 1.0, 0.0),
        ("growth_field_prediction", 0.0, 1e-6),
        ("fluctuation_field_increment", 0.0, 1e-6),
        ("entropy_rate_vn_bound", 0.0, 1e-6),
        ("entropy_rate_renyi_bound", 0.0, 1e-6),
        ("hermitian_bounds_vanish", 0.0, 1e-12),
        ("shift_covariance", 0.0, 1e-9),
        ("strong_invariant_spectrum", 0.0, 1e-9),
        ("strong_invariant_fluctuation", 0.0, 1e-9),
        ("step_map_consistency", 3.5, 0.0),
    ],
    "oscillator": [
        ("mean_invariant_conserved", 0.0, 1e-7),
        ("fluctuation_nondecreasing", 0.0, 1e-9),
        ("growth_rate_equality", 1.0, 0.0),
        ("initial_rate_value", 0.25, 0.0),
        ("growth_ansatz_prediction", 0.0, 1e-6),
        ("entropy_rate_vn_bound", 0.0, 1e-6),
        ("entropy_rate_renyi_bound", 0.0, 1e-6),
        ("hermitian_bounds_vanish", 0.0, 1e-12),
        ("invariant_equation_residual", 0.0, 1e-9),
        ("edge_occupation", 0.0, 1e-8),
    ],
    "channel_fuzz": [
        ("operator_jensen_floor", 0.0, 1e-9),
        ("completeness_defect", 0.0, 1e-9),
        ("adjoint_duality", 0.0, 1e-10),
        ("paired_moment_growth", 0.0, 1e-9),
    ],
    "thermo_spin": [
        ("heating_positive", 0.0, 0.0),
        ("specific_heat_identity", 0.0, 1e-6),
        ("closed_form_heat", 0.0, 1e-10),
        ("energy_residual", 0.0, 1e-9),
    ],
    "fp_ou": [
        ("classical_mean_conserved", 0.0, 1e-6),
        ("classical_fluctuation_nondecreasing", 0.0, None),
        ("classical_growth_equality", 0.0, 1e-2),
        ("drift_independence", 0.0, 1e-10),
        ("mass_conserved", 0.0, 1e-9),
        ("invariant_coefficient_residual", 0.0, 1e-12),
    ],
}


def test_default_check_thresholds_are_pinned(spin, oscillator, fuzz, thermo, fp):
    fp_slack = MONOTONE_SLACK * max(1.0, float(np.abs(fp.columns["var_I"]).max()))
    for r in (spin, oscillator, fuzz, thermo, fp):
        want = [(name, bound, fp_slack if tol is None else tol, True)
                for name, bound, tol in PINNED_CHECKS[r.scenario]]
        got = [(c.name, c.bound_or_target, c.tolerance, c.passed) for c in r.checks]
        assert got == want, r.scenario


def test_verdict_carries_every_scenarios_notes(tmp_path, spin, oscillator,
                                               fuzz, thermo, fp):
    for r in (spin, oscillator, fuzz, thermo, fp):
        path = tmp_path / f"{r.scenario}.json"
        emit_verdict(r, path)
        assert json.loads(path.read_text())["notes"] == json.loads(json.dumps(r.notes))
    # notes carry nothing machine-dependent, such as a worker count
    assert "workers" not in fuzz.notes
    assert "canonical_gap_max" in thermo.notes


# Golden baselines of the default runs: the benchmark's references (channel
# fuzz: the first 200 of its 5000 cases, same seed) and, for the
# oscillator, which the benchmark does not run, one kept with the tests.
_ROOT = Path(__file__).resolve().parents[1]
GOLDEN = {
    "spin": (_ROOT / "bench/reference/spin/series.csv.gz", None),
    "fp_ou": (_ROOT / "bench/reference/fp_ou/series.csv.gz", None),
    "thermo_spin": (_ROOT / "bench/reference/thermo_spin/series.csv.gz", None),
    "channel_fuzz": (_ROOT / "bench/reference/channel_fuzz_5k/series.csv.gz", 200),
    "oscillator": (_ROOT / "tests/golden/oscillator_series.csv.gz", None),
}


def _table(text: str, rows=None):
    header, *lines = text.splitlines()
    return header, np.array([[float(v) for v in line.split(",")]
                             for line in lines[:rows]])


def test_series_match_golden_baselines(spin, oscillator, fuzz, thermo, fp):
    # the benchmark gate's rule: |got - want| <= max(1e-10 max(|got|, |want|), 1e-12)
    for r in (spin, oscillator, fuzz, thermo, fp):
        path, rows = GOLDEN[r.scenario]
        want_header, want = _table(gzip.decompress(path.read_bytes()).decode(), rows)
        text = io.StringIO()
        format_series(r.columns, text)
        got_header, got = _table(text.getvalue())
        assert got_header == want_header, r.scenario
        assert got.shape == want.shape, r.scenario
        tol = np.maximum(1e-10 * np.maximum(np.abs(got), np.abs(want)), 1e-12)
        bad = np.argwhere(~(np.abs(got - want) <= tol))
        assert bad.size == 0, (
            f"{r.scenario} row {bad[0][0]} column {got_header.split(',')[bad[0][1]]}: "
            f"{float(got[tuple(bad[0])])!r} vs golden {float(want[tuple(bad[0])])!r}")


def test_total_budget(spin, oscillator, fuzz, thermo, fp):
    # all runs complete well inside the desk-scale budget; reaching this
    # line means the fixtures built, which is the point
    assert spin.all_pass and fp.all_pass
