"""Release gate: one test per acceptance criterion, each printing its line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
report, or `heisenmag verify --suite all` for the same checks from the
CLI.  HEISENMAG_TOL scales the thresholds.
"""

import math
from collections import Counter

import numpy as np
import pytest

from heisenmag import acceptance, quartic
from heisenmag.errors import ConvergenceError
from heisenmag.quartic import (
    InitialData,
    delta_band,
    discriminant,
    monic_coefficients,
    quartic_roots,
)
from heisenmag.trajectory import TrajectorySolution, make_solution


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


def test_criterion_03_batched_roots_equal_scalar_roots(monkeypatch):
    # criterion 3's columns at seed 0, then edge rows: rho = 0, s = 0 (the
    # trivial datum at the origin), and rho^2 overflowing to inf
    draws = np.random.default_rng(0).uniform(-3.0, 3.0, (10_000, 4))
    p0, q0, rho, _, _ = acceptance._discriminant_columns(draws)
    edges = [
        (*monic_coefficients(data), data.rho)
        for data in (InitialData(0.5, 0.3, -0.2, 0.0), InitialData(0.0, 0.0, 0.0, 0.0))
    ]
    edges.append((1.0, 1.0, 1e200))
    p0, q0, rho = (np.concatenate([col, extra]) for col, extra in zip((p0, q0, rho), zip(*edges)))
    batched = quartic_roots(p0, q0, rho)

    newton = quartic._newton
    starts = []

    def spied(x, update):
        starts.append(update(x)[0])
        return newton(x, update)

    monkeypatch.setattr(quartic, "_newton", spied)
    rows = np.array([quartic_roots(*row) for row in zip(p0.tolist(), q0.tolist(), rho.tolist())])
    assert batched.shape == rows.shape == (10_003, 4)
    assert np.array_equal(np.ascontiguousarray(batched).view(np.int64), rows.view(np.int64))
    # the edge rows reach the branches they are there for: the last row's
    # two Newton runs start at a NaN residual, the one before it at s = 0
    assert math.isnan(starts[-1]) and math.isnan(starts[-2])
    assert quartic._descartes_factors(*map(float, (p0[-2], q0[-2], rho[-2])))[0][1] == 0.0


def test_criterion_03_solves_roots_once(monkeypatch):
    calls = []
    factors = quartic._descartes_factors

    def counted(*args):
        calls.append(args)
        return factors(*args)

    monkeypatch.setattr(quartic, "_descartes_factors", counted)
    acceptance.run_criterion("discriminant", seed=0)
    assert len(calls) == 1


def test_criterion_03_runs_no_eigensolve(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.eigvals called")

    monkeypatch.setattr(np.linalg, "eigvals", refuse)
    assert acceptance.run_criterion("discriminant", seed=0).passed


def test_criterion_04_reference_runs_on_arrays(monkeypatch):
    # the trapezoid reference reads x from evaluate, a few arrays per curve
    x_calls, evaluated = [], []  # the curves stay referenced, so their ids stay distinct
    x, evaluate = TrajectorySolution.x, TrajectorySolution.evaluate

    def counted_x(self, t):
        x_calls.append(t)
        return x(self, t)

    def counted_evaluate(self, ts):
        evaluated.append(self)
        return evaluate(self, ts)

    monkeypatch.setattr(TrajectorySolution, "x", counted_x)
    monkeypatch.setattr(TrajectorySolution, "evaluate", counted_evaluate)
    acceptance.run_criterion("periodicity", seed=0)
    per_curve = Counter(map(id, evaluated))
    assert x_calls == []
    assert len(per_curve) >= 300 and max(per_curve.values()) <= 6
    # one call for each integral's first level pair: 349 in all at seed 0
    assert len(evaluated) <= 360


def _level_by_level(f, period):
    """The periodic trapezoid sums with one call of f per level."""
    band = acceptance._TRAPEZOID_BAND * max(1.0, period)
    n = acceptance._TRAPEZOID_START
    total = period / n * np.sum(f(period / n * np.arange(n)), axis=-1)
    while True:
        midpoints = period / n * (np.arange(n) + 0.5)
        refined = 0.5 * (total + period / n * np.sum(f(midpoints), axis=-1))
        n *= 2
        if np.max(np.abs(refined - total)) <= band:
            return refined
        total = refined


class TestPeriodicIntegral:
    def test_smooth_periodic_integrand(self):
        val = acceptance._periodic_integral(lambda t: 1.0 / (2.0 + np.cos(t)), 2.0 * math.pi)
        assert abs(val - 2.0 * math.pi / math.sqrt(3.0)) <= 1e-14

    def test_several_integrands_in_one_call(self):
        def powers(t):
            inv = 1.0 / (2.0 + np.cos(t))
            return np.stack([inv, inv * inv])

        i1, i2 = acceptance._periodic_integral(powers, 2.0 * math.pi)
        assert abs(i1 - 2.0 * math.pi / math.sqrt(3.0)) <= 1e-14
        assert abs(i2 - 4.0 * math.pi / 3.0 ** 1.5) <= 1e-14

    def test_first_call_carries_the_first_level_pair(self):
        sizes = []

        def f(t):
            sizes.append(t.size)
            return 1.0 / (1.05 + np.cos(t))

        acceptance._periodic_integral(f, 2.0 * math.pi)
        assert sizes[0] == 2 * acceptance._TRAPEZOID_START
        assert len(sizes) > 1  # this integrand needs later levels too

    @pytest.mark.parametrize("case", ["2+cos", "1.05+cos", "powers", "curve"])
    def test_equals_the_level_by_level_sums(self, case):
        def powers(t):
            inv = 1.0 / (2.0 + np.cos(t))
            return np.stack([inv, inv * inv])

        sol = make_solution(InitialData(1.0, 0.5, 0.2, 1.0))

        def y_prime(t):
            x = sol.evaluate(t)[0]
            return 0.5 * x * x + sol.data.zr * x + sol.data.y0

        f, period = {
            "2+cos": (lambda t: 1.0 / (2.0 + np.cos(t)), 2.0 * math.pi),
            "1.05+cos": (lambda t: 1.0 / (1.05 + np.cos(t)), 2.0 * math.pi),
            "powers": (powers, 2.0 * math.pi),
            "curve": (y_prime, sol.x_period),
        }[case]
        assert np.array_equal(acceptance._periodic_integral(f, period), _level_by_level(f, period))

    def test_unsettled_sums_raise(self):
        # the sawtooth t on [0, 2 pi) jumps at the period's end: its sums
        # fall by pi^2 / n at each doubling and never agree to the band
        with pytest.raises(ConvergenceError, match="trapezoid sums"):
            acceptance._periodic_integral(lambda t: t, 2.0 * math.pi)


def test_appendix_reference_matches_the_cn_form():
    # the amplitude form of criterion 11's quadrature against the integrals
    # over [0, 4K] on scipy's cn
    from scipy.special import ellipj

    from heisenmag.elliptic import complete_K

    for a, b, k in acceptance._APPENDIX_CASES:
        def powers(ts, a=a, b=b, m=k * k):
            inv = 1.0 / (a * ellipj(ts, m)[1] + b)
            return np.stack([inv, inv * inv])

        cn_form = acceptance._periodic_integral(powers, 4.0 * complete_K(k))
        amplitude_form = acceptance._appendix_by_trapezoid(a, b, k)
        assert np.max(np.abs(amplitude_form - cn_form)) <= 1e-13, (a, b, k)


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
