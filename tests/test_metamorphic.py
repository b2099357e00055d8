"""Metamorphic relations: changes of input that must leave an output
alone, so a fast path is tested without an oracle of its own."""

import numpy as np

from weakinv import scenarios
from weakinv.channels import QuantumChannel
from weakinv.config import validate_config
from weakinv.operators import dagger


def _haar_unitaries(rng, n, dim):
    g = rng.standard_normal((n, dim, dim)) + 1j * rng.standard_normal((n, dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[:, None, :]


def test_channel_fuzz_rows_are_basis_free(monkeypatch):
    # Conjugating a case's Kraus operators, observable I and state rho by one
    # unitary U (V -> U V U^dag, and so on) is a change of basis: the duality
    # defect, the paired growth, the Kadison gap's spectrum, the completeness
    # residual and the output spectrum are all basis-free, so each of the five
    # row values moves by roundoff only. The inputs are the fuzz's own draws.
    rng = np.random.default_rng(11)
    rows = scenarios._fuzz_rows
    worst, cases, shapes = 0.0, 0, set()

    def rotated(ch, i_op, rho_m):
        nonlocal worst, cases
        got = rows(ch, i_op, rho_m)
        u = _haar_unitaries(rng, len(i_op), ch.dim)
        turned = QuantumChannel.from_kraus(u[:, None] @ ch.kraus @ dagger(u)[:, None])
        moved = rows(turned, u @ i_op @ dagger(u), u @ rho_m @ dagger(u))
        worst = max(worst, float(np.abs(moved - got).max()))
        cases += len(got)
        shapes.add((ch.dim, ch.kraus.shape[-3]))
        return got

    monkeypatch.setattr(scenarios, "_fuzz_rows", rotated)
    res = scenarios.run_scenario(validate_config({
        "scenario": "channel_fuzz", "seed": 5,
        "params": {"n_channels": 2000, "max_dim": 6, "max_kraus": 4}}))
    assert worst <= 1e-13, worst
    assert cases == 2000 and len(shapes) == 20
    assert all(c.passed for c in res.checks)
