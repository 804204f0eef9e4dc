"""Release gate: one test per acceptance criterion, each printing its line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
report, or `heisenmag verify --suite all` for the same checks from the
CLI.  HEISENMAG_TOL scales the thresholds.
"""

import numpy as np

from heisenmag import acceptance
from heisenmag.quartic import InitialData, delta_band, discriminant, monic_coefficients


def _run(name):
    result = acceptance.run_criterion(name, seed=0)
    print(result.line())
    assert result.passed, result.line()
    return result


def test_criterion_01_closed_form_correctness():
    # residual < 1e-8 on [0,10]; closed form vs oracle < 1e-6 over two
    # periods, or [0,20] via the high-precision oracle off the periodic set
    r = _run("closed-form")
    assert r.details["max_ode_residual"] < 1e-8
    assert r.details["max_oracle_distance"] < 1e-6
    assert r.elapsed < 30.0


def test_criterion_02_first_integral():
    r = _run("first-integral")
    assert r.details["max_drift"] < 1e-9


def test_criterion_03_discriminant_classification():
    r = _run("discriminant")
    assert r.details["mismatches"] == 0
    assert r.details["worst_viete"] < 1e-9
    assert r.elapsed < 10.0


def test_criterion_03_columns_equal_scalar_formulas():
    # the batched p0, q0, Delta and band of criterion 3, bit for bit
    draws = np.random.default_rng(3).uniform(-3.0, 3.0, (1000, 4))
    columns = np.stack(acceptance._discriminant_columns(draws), axis=1)
    rows = []
    for x0, y0, z0, rho in draws.tolist():
        p0, q0 = monic_coefficients(InitialData(x0, y0, z0, rho))
        rows.append((p0, q0, rho, discriminant(p0, q0, rho), delta_band(p0, q0, rho)))
    assert np.array_equal(columns.view(np.int64), np.array(rows).view(np.int64))


def test_criterion_04_periodicity_criterion():
    r = _run("periodicity")
    assert r.details["neg_closed_vs_quad"] < 1e-8
    assert r.details["pos_max_y_over_period"] < 0.0
    assert r.details["mu_pos_max_y_over_period"] < 0.0


def test_criterion_05_unique_dc_and_monotone_energy():
    r = _run("unique-dc")
    assert r.details["max_psi_tilde_residual"] < 1e-12
    assert r.details["d_increasing"] and r.details["energy_increasing"]
    assert r.details["energy_at_1p0001"] < 1e-3


def test_criterion_06_closed_at_every_energy():
    r = _run("energy-closure")
    assert r.details["max_closure"] < 1e-7
    assert r.details["max_energy_error"] < 1e-9


def test_criterion_07_exact_threshold():
    r = _run("exact-threshold")
    assert r.details["family_below"] and r.details["empty_at_threshold"]
    assert r.details["closure"] < 1e-8


def test_criterion_08_lambda_periodicity():
    r = _run("lambda-periodic")
    assert r.details["residual"] < 1e-7
    assert r.details["x1_nonzero_refused"]


def test_criterion_09_lattice_obstruction():
    r = _run("lattice-obstruction")
    assert r.details["rotated"] is False
    assert r.details["standard"] is True


def test_criterion_10_lagrangian_equivalence():
    r = _run("lagrangian")
    assert r.details["max_on_trajectories"] < 1e-5
    assert r.details["negative_control"] > 1e-2


def test_criterion_11_elliptic_kernel():
    r = _run("elliptic")
    assert r.details["legendre_defect"] < 1e-12
    assert r.details["appendix_vs_quadrature"] < 1e-10
    assert r.details["k0_closed_forms"] < 1e-10
