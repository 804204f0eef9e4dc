"""Release gate: one test per acceptance criterion, each printing its line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
report, or `heisenmag verify --suite all` for the same checks from the
CLI.
"""

import math

import numpy as np
import pytest

from heisenmag import acceptance, quartic, trajectory
from heisenmag.errors import BranchConsistencyError, ConvergenceError, HeisenmagError
from heisenmag.periodic import initial_from_cde
from heisenmag.quartic import (
    Branch,
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
    edge = tuple(map(float, (p0[-2], q0[-2], rho[-2])))
    assert quartic._descartes_factors(*edge, quartic._coefficient_scale(*edge))[0][1] == 0.0


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
    # the trapezoid reference reads x from one stack per family and level:
    # no scalar x, no per-curve evaluate
    x_calls, per_curve, stacked = [], [], []
    x, evaluate = TrajectorySolution.x, acceptance.evaluate_stacked

    def counted_x(self, t):
        x_calls.append(t)
        return x(self, t)

    def counted_evaluate(sols, ts):
        stacked.append(len(ts))
        return evaluate(sols, ts)

    monkeypatch.setattr(TrajectorySolution, "x", counted_x)
    monkeypatch.setattr(TrajectorySolution, "evaluate", lambda self, ts: per_curve.append(ts))
    monkeypatch.setattr(acceptance, "evaluate_stacked", counted_evaluate)
    assert acceptance.run_criterion("periodicity", seed=0).passed
    assert x_calls == [] and per_curve == []
    # each family's first call stacks all 100 curves; the later levels carry
    # only the rows still refining: 7 calls in all at seed 0
    starts = [i for i, rows in enumerate(stacked) if rows == 100]
    assert len(starts) == 3 and starts[0] == 0
    families = np.split(np.array(stacked), starts[1:])
    assert all(len(calls) <= 4 and max(calls[1:], default=0) < 50 for calls in families)


def _one_row(f, period):
    """_periodic_integral of f(ts) over [0, period] as a one-row column."""
    return acceptance._periodic_integral(lambda rows, ts: f(ts), np.array([[period]]))[..., 0]


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
        val = _one_row(lambda t: 1.0 / (2.0 + np.cos(t)), 2.0 * math.pi)
        assert abs(val - 2.0 * math.pi / math.sqrt(3.0)) <= 1e-14

    def test_several_integrands_in_one_call(self):
        def powers(t):
            inv = 1.0 / (2.0 + np.cos(t))
            return np.stack([inv, inv * inv])

        i1, i2 = _one_row(powers, 2.0 * math.pi)
        assert abs(i1 - 2.0 * math.pi / math.sqrt(3.0)) <= 1e-14
        assert abs(i2 - 4.0 * math.pi / 3.0 ** 1.5) <= 1e-14

    def test_first_call_carries_the_first_level_pair(self):
        sizes = []

        def f(t):
            sizes.append(t.size)
            return 1.0 / (1.05 + np.cos(t))

        _one_row(f, 2.0 * math.pi)
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
        assert np.array_equal(_one_row(f, period), _level_by_level(f, period))

    def test_unsettled_sums_raise(self):
        # the sawtooth t on [0, 2 pi) jumps at the period's end: its sums
        # fall by pi^2 / n at each doubling and never agree to the band
        with pytest.raises(ConvergenceError, match="trapezoid sums"):
            _one_row(lambda t: t, 2.0 * math.pi)

    @staticmethod
    def _column(fs, periods):
        """The column call on integrands fs, one per row, and the rows of each call."""
        calls = []

        def f(rows, ts):
            calls.append(rows.tolist())
            return np.stack([fs[r](t) for r, t in zip(rows.tolist(), ts)])

        return (lambda: acceptance._periodic_integral(f, np.array(periods)[:, None])), calls

    def test_column_rows_equal_their_own_sums(self):
        # 1/(2 + cos) settles at the first level pair, 1/(1.05 + cos) needs
        # later levels; each at its own period, and each row equals its call alone
        periods = [2.0 * math.pi, 5.5, 0.75]
        fs = [lambda t: 1.0 / (2.0 + np.cos(t)),
              lambda t: 1.0 / (1.05 + np.cos(2.0 * math.pi * t / 5.5)),
              lambda t: 1.0 / (1.05 + np.cos(2.0 * math.pi * t / 0.75)) ** 2]
        run, calls = self._column(fs, periods)
        values = run()
        assert values.shape == (3,)
        for b, (f, period) in enumerate(zip(fs, periods)):
            assert values[b] == _level_by_level(f, period)
        assert calls[0] == [0, 1, 2] and len(calls) > 1
        assert all(0 not in rows for rows in calls[1:])

    def test_column_raises_the_first_unsettled_rows_message(self):
        sawtooth = [lambda t: t, lambda t: t * t]
        fs = [lambda t: 1.0 / (2.0 + np.cos(t))] + sawtooth
        periods = [2.0 * math.pi, 3.0, 2.0 * math.pi]
        with pytest.raises(ConvergenceError) as alone:
            _one_row(sawtooth[0], 3.0)
        with pytest.raises(ConvergenceError) as column:
            self._column(fs, periods)[0]()
        assert str(column.value) == str(alone.value)


def test_criterion_11_integrates_the_appendix_cases_in_one_column_call(monkeypatch):
    periods = []
    integral = acceptance._periodic_integral
    monkeypatch.setattr(acceptance, "_periodic_integral",
                        lambda f, period: periods.append(np.shape(period)) or integral(f, period))
    assert acceptance.run_criterion("elliptic").passed
    assert periods == [(len(acceptance._APPENDIX_CASES), 1)]


def test_appendix_column_rows_equal_their_own_calls():
    column = acceptance._appendix_by_trapezoid(*np.array(acceptance._APPENDIX_CASES).T)
    assert column.shape == (2, len(acceptance._APPENDIX_CASES))
    for j, case in enumerate(acceptance._APPENDIX_CASES):
        own = acceptance._appendix_by_trapezoid(*case)
        assert np.array_equal(column[:, j].view(np.int64), own.view(np.int64)), case


def test_appendix_reference_matches_the_cn_form():
    # the amplitude form of criterion 11's quadrature against the integrals
    # over [0, 4K] on scipy's cn
    from scipy.special import ellipj

    from heisenmag.elliptic import complete_K

    for a, b, k in acceptance._APPENDIX_CASES:
        def powers(ts, a=a, b=b, m=k * k):
            inv = 1.0 / (a * ellipj(ts, m)[1] + b)
            return np.stack([inv, inv * inv])

        cn_form = _one_row(powers, 4.0 * complete_K(k))
        amplitude_form = acceptance._appendix_by_trapezoid(a, b, k)
        assert np.max(np.abs(amplitude_form - cn_form)) <= 1e-13, (a, b, k)


def test_criterion_04_periodicity_criterion():
    r = _run("periodicity")
    assert r.details["neg_closed_vs_quad"] < 1e-8
    assert r.details["pos_max_y_over_period"] < 0.0
    assert r.details["mu_pos_max_y_over_period"] < 0.0


def _one_curve_at_a_time(seed):
    """Criterion 4 as a loop that draws, builds (make_solution) and
    integrates one curve at a time, each integral by _level_by_level on
    the curve's own evaluate."""
    def quad(sol):
        def y_prime(ts):
            x = sol.evaluate(ts)[0]
            return 0.5 * x * x + sol.data.zr * x + sol.data.y0

        return float(_level_by_level(y_prime, sol.x_period))

    def accepted(draw, branches):
        # the first 100 proposals (None is a rejection) that build on branches
        count = 0
        while count < 100:
            data = draw(rng)
            if data is None:
                continue
            sol = make_solution(data)
            if sol.profile.branch in branches:
                count += 1
                yield sol

    rng = np.random.default_rng(seed)
    worst_gap = 0.0
    for _ in range(100):
        c = rng.uniform(0.4, 2.5)
        d = rng.uniform(0.05, 0.95)
        e = rng.uniform(-1.0, 1.0)
        rho = rng.uniform(0.0, 2.0)
        sol = make_solution(initial_from_cde(c, d, e, rho))
        worst_gap = max(worst_gap, abs(quad(sol) - sol.y_over_period()))
    pos_all_negative, worst_pos = True, -math.inf
    for sol in accepted(acceptance._four_real_root_data, (Branch.POS_LOW, Branch.POS_HIGH)):
        val = max(quad(sol), sol.y_over_period())
        worst_pos = max(worst_pos, val)
        pos_all_negative = pos_all_negative and val < 0.0
    mu_all_negative, worst_mu, worst_mu_gap = True, -math.inf, 0.0
    for sol in accepted(acceptance._mu_pos_data, (Branch.ZERO_MU_POS,)):
        quadrature, closed = quad(sol), sol.y_over_period()
        worst_mu = max(worst_mu, quadrature, closed)
        worst_mu_gap = max(worst_mu_gap, abs(quadrature - closed))
        mu_all_negative = mu_all_negative and quadrature < 0.0 and closed < 0.0
    return acceptance.CriterionResult(
        "periodicity criterion y(omega)",
        worst_gap < 1e-8 and pos_all_negative and mu_all_negative,
        {
            "neg_closed_vs_quad": worst_gap,
            "pos_max_y_over_period": worst_pos,
            "mu_pos_max_y_over_period": worst_mu,
            "mu_pos_closed_vs_quad": worst_mu_gap,
        },
    )


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_criterion_04_equals_one_curve_at_a_time(seed):
    assert acceptance.crit_periodicity_criterion(seed) == _one_curve_at_a_time(seed)


def test_criterion_04_integrates_the_curves_built_before_a_refusal(monkeypatch):
    def build(count):
        yield from (make_solution(InitialData(1.0, 0.5, 0.1 * i, 1.0)) for i in range(count))
        raise BranchConsistencyError("refused in draw order")

    for count in (0, 2):
        with pytest.raises(BranchConsistencyError, match="refused in draw order"):
            acceptance._with_trapezoid(build(count))
    # the curves built before the refusal are integrated first, so a sum that
    # does not settle there raises before the refusal does
    monkeypatch.setattr(acceptance, "_TRAPEZOID_BAND", -1.0)
    with pytest.raises(ConvergenceError, match="trapezoid sums"):
        acceptance._with_trapezoid(build(2))


def test_criterion_04_builds_in_batches(monkeypatch):
    # no curve through scalar make_solution, in acceptance or in the batch's
    # fallback: at seed 0 every datum builds from the batch's profiles
    def refuse(data):
        raise AssertionError("criterion 4 built a curve with make_solution")

    monkeypatch.setattr(acceptance, "make_solution", refuse)
    monkeypatch.setattr(trajectory, "make_solution", refuse)
    assert acceptance.run_criterion("periodicity", seed=0).passed


@pytest.mark.parametrize("seed", [4, 7])
def test_criterion_04_raises_the_first_error_in_draw_order(seed):
    with pytest.raises(HeisenmagError) as reference:
        _one_curve_at_a_time(seed)
    with pytest.raises(HeisenmagError) as batched:
        acceptance.crit_periodicity_criterion(seed)
    assert type(batched.value) is type(reference.value)
    assert str(batched.value) == str(reference.value)


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
