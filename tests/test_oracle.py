"""Numerical oracle: integrators, conserved quantities, Lagrangian checks."""

import itertools
import math
import operator

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heisenmag import acceptance, oracle
from heisenmag.acceptance import _ALL_BRANCHES, check_branch, crit_closed_form, representative_data
from heisenmag.errors import ConvergenceError, DomainError, HeisenmagError
from heisenmag.heisenberg import LorentzForce
from heisenmag.oracle import (
    StateVector,
    euler_lagrange_residual,
    fd_second_derivative,
    integrate_general,
    lagrangian_gradients,
    lagrangian_momenta,
    lagrangian_value,
    metric_speed_sq,
    reduced_ode_residual,
    taylor_reduced,
)
from heisenmag.quartic import Branch, InitialData
from heisenmag.trajectory import make_solution

_NON_PERIODIC = (Branch.ZERO_MU_NEG_RIGHT, Branch.ZERO_MU_NEG_LEFT, Branch.ZERO_CUSP)
# criterion 10's two (force, start velocity) cases
_CRITERION_10_CASES = (
    (LorentzForce(0.0, 1.0, 1.0), (0.5, 0.3, -0.2)),
    (LorentzForce(0.7, 1.2, 0.9), (0.4, -0.3, 0.6)),
)


class TestGeneralIntegrator:
    @pytest.mark.parametrize(
        "ts",
        [
            (0.0, math.nan),
            (0.0, math.inf),
            (-math.inf, 1.0),
            (2.0, 2.0),
            (0.0,),
            (),
            [[0.0, 1.0], [2.0, 3.0]],
            1.0,
            (0.0, 2.0, 1.0),
            (0.0, 1.0, 1.0, 2.0),
        ],
        ids=str,
    )
    def test_rejects_bad_times(self, ts):
        # non-finite, coincident, too few, not 1-D or not monotone
        with pytest.raises(DomainError):
            integrate_general(LorentzForce(0.0, 1.0, 1.0), StateVector(0, 0, 0, 0.5, 0.3, -0.2), ts)

    def test_rejects_non_finite_start(self):
        s0 = StateVector(0.0, 0.0, 0.0, math.nan, 0.3, -0.2)
        with pytest.raises(DomainError, match="xp must be finite"):
            integrate_general(LorentzForce(0.0, 1.0, 1.0), s0, np.linspace(0.0, 1.0, 5))

    def test_rejects_an_overflowing_start(self):
        # the series overflows at this start: a typed refusal, and no numpy
        # RuntimeWarning (an error under the suite's filter) on the way
        s0 = StateVector(0.0, 0.0, 0.0, 1e200, 0.3, -0.2)
        with pytest.raises(ConvergenceError, match=r"xp=1e\+200"):
            integrate_general(LorentzForce(0, 1, 1), s0, np.linspace(0.0, 1.0, 5))

    def test_rejects_a_time_span_that_overflows(self):
        with pytest.raises(DomainError, match="finite, monotone"):
            integrate_general(LorentzForce(0, 1, 1), StateVector(0, 0, 0, 0.5, 0.3, -0.2),
                              (-1e308, 0.0, 1e308))

    @pytest.mark.parametrize(("force", "v0"), _CRITERION_10_CASES, ids=["force-A", "force-B"])
    def test_rows_match_dop853(self, force, v0):
        # an independent adaptive Runge-Kutta run of the same equations
        from scipy.integrate import solve_ivp

        alpha, beta, rho = force.alpha, force.beta, force.rho

        def rhs(t, s):
            x, y, _, u, v, w = s
            xi = w + 0.5 * (u * y - x * v)
            xpp = rho * beta - (xi + rho) * (v + beta)
            ypp = rho * alpha + (xi + rho) * (u - alpha)
            zpp = beta * u + alpha * v - 0.5 * (xpp * y - x * ypp)
            return (u, v, w, xpp, ypp, zpp)

        ts = np.linspace(0.0, 10.0, 10001)
        ref = solve_ivp(rhs, (0.0, 10.0), [0.0, 0.0, 0.0, *v0], method="DOP853",
                        rtol=1e-11, atol=1e-13, t_eval=ts)
        rows = integrate_general(force, StateVector(0.0, 0.0, 0.0, *v0), ts)
        assert np.max(np.abs(rows - ref.y.T)) < 1e-9

    def test_rows_are_read_off_the_steps(self, monkeypatch):
        # the steps do not depend on the times: a run that asks for the
        # endpoints only takes the same steps as one on a fine grid
        force, s0 = LorentzForce(0.7, 1.2, 0.9), StateVector(0, 0, 0, 0.4, -0.3, 0.6)
        steps = []
        jz_step = oracle._jz_step

        def record(*args):
            steps.append(jz_step(*args))
            return steps[-1]

        monkeypatch.setattr(oracle, "_jz_step", record)
        fine = integrate_general(force, s0, np.linspace(0.0, 10.0, 1001))
        fine_steps, steps[:] = steps[:], []
        ends = integrate_general(force, s0, (0.0, 10.0))
        assert steps == fine_steps and 10 < len(steps) < 100
        assert np.max(np.abs(ends - fine[[0, -1]])) < 1e-12

    def test_descending_times_integrate_backward(self):
        force, s0 = LorentzForce(0.0, 1.0, 1.0), StateVector(0.4, -0.7, 0.25, 0.5, 0.3, -0.2)
        fwd = integrate_general(force, s0, np.linspace(0.0, 2.0, 21))
        back = integrate_general(force, StateVector(*fwd[-1]), np.linspace(2.0, 0.0, 21))
        assert np.max(np.abs(fwd[0] - (0.4, -0.7, 0.25, 0.5, 0.3, -0.2))) < 1e-15
        assert np.max(np.abs(back[::-1] - fwd)) < 1e-9

    def test_central_geodesic(self):
        # F = 0 with a purely central start moves along the centre
        ts = np.linspace(0.0, 5.0, 51)
        rows = integrate_general(LorentzForce(0, 0, 0), StateVector(0, 0, 0, 0, 0, 1.3), ts)
        for t, s in zip(ts, rows):
            assert abs(s[0]) < 1e-12 and abs(s[1]) < 1e-12
            assert abs(s[2] - 1.3 * t) < 1e-10

    def test_polynomial_motion_at_far_times(self):
        # a straight line takes one infinite step; its rows stay exact
        rows = integrate_general(LorentzForce(0, 0, 0), StateVector(0, 0, 0, 0, 0, 1.3),
                                 [0.0, 1e20, 1e300])
        assert rows[:, 2].tolist() == [0.0, 1.3e20, 1.3e300]

    def test_exact_force_against_closed_form(self):
        from heisenmag.trajectory import ExactTrajectory

        data = InitialData(0.6, -0.4, 0.8, 2.0)
        traj = ExactTrajectory(data)
        ts = np.linspace(0.0, 10.0, 101)
        rows = integrate_general(LorentzForce(0, 0, 2.0), StateVector(0, 0, 0, 0.6, -0.4, 0.8), ts)
        for t, s in zip(ts, rows):
            p = traj.point(t)
            assert max(abs(p.x - s[0]), abs(p.y - s[1]), abs(p.z - s[2])) < 1e-8

    def test_metric_speed_constant(self):
        rows = integrate_general(
            LorentzForce(0.7, 1.2, 0.9), StateVector(0, 0, 0, 0.5, -0.2, 0.4),
            np.linspace(0.0, 15.0, 801),
        )
        speeds = [metric_speed_sq(StateVector(*s)) for s in rows]
        assert max(abs(v - speeds[0]) for v in speeds) < 1e-9

    def test_constraint_monitored(self):
        # xi - beta x - alpha y stays at z0' = -0.2, which the flow does not enforce
        force = LorentzForce(0.0, 1.0, 1.0)
        rows = integrate_general(
            force, StateVector(0, 0, 0, 0.5, 0.3, -0.2), np.linspace(0.0, 10.0, 801)
        )
        x, y, _, xp, yp, zp = rows.T
        xi = zp + 0.5 * (xp * y - x * yp)
        assert np.max(np.abs(xi - force.beta * x - force.alpha * y + 0.2)) < 1e-9

    def test_arbitrary_base_point(self):
        # same curve left-translated: integrate from p and from e, compare
        ts = np.linspace(0.0, 6.0, 61)
        force = LorentzForce(0.0, 1.0, 1.0)
        at_identity = integrate_general(force, StateVector(0, 0, 0, 0.5, 0.3, -0.2), ts)
        p = (0.4, -0.7, 0.25)
        # velocity of the translate at p: centre picks up the cross term
        zp = -0.2 + 0.5 * (p[0] * 0.3 - p[1] * 0.5)
        moved = integrate_general(force, StateVector(p[0], p[1], p[2], 0.5, 0.3, zp), ts)
        from heisenmag.heisenberg import HeisenbergPoint, group_product

        base = HeisenbergPoint(*p)
        for s_id, s_mv in zip(at_identity, moved):
            expected = group_product(base, HeisenbergPoint(s_id[0], s_id[1], s_id[2]))
            assert abs(expected.x - s_mv[0]) < 1e-9
            assert abs(expected.y - s_mv[1]) < 1e-9
            assert abs(expected.z - s_mv[2]) < 1e-9

    def test_reversibility(self):
        ts = np.linspace(0.0, 10.0, 801)
        force = LorentzForce(0.3, 0.8, 1.1)
        end = StateVector(*integrate_general(force, StateVector(0, 0, 0, 0.5, 0.3, -0.2), ts)[-1])
        # reverse time: flip velocities and the force sign stays (t -> -t)
        back = integrate_general(
            LorentzForce(-0.3, -0.8, -1.1),
            StateVector(end.x, end.y, end.z, -end.xp, -end.yp, -end.zp),
            ts,
        )
        final = StateVector(*back[-1])
        assert max(abs(final.x), abs(final.y), abs(final.z)) < 1e-8
        assert max(abs(final.xp + 0.5), abs(final.yp + 0.3), abs(final.zp - 0.2)) < 1e-8


def _level_drift(data, rows) -> float:
    """Worst |x'^2 + h(x)^2 - 2 rho x - (x0^2 + (y0+1)^2)| over oracle rows."""
    x, xp = rows[:, 0], rows[:, 1]
    level = xp ** 2 + data.h(x) ** 2 - 2.0 * data.rho * x
    return float(np.max(np.abs(level - data.norm_sq)))


def _mp_taylor(data, ts, dps=60, order=60):
    """(x, x', y) at ts from an order-60 Taylor integration at 60 digits."""
    with mpmath.workdps(dps):
        rho = mpmath.mpf(data.rho)
        zr = mpmath.mpf(data.z0) + rho
        c = mpmath.mpf(data.y0) + 1 - zr * zr / 2
        x, u, y, now = mpmath.mpf(0), mpmath.mpf(data.x0), mpmath.mpf(0), mpmath.mpf(0)
        eps = mpmath.mpf(10) ** (2 - dps)
        out = []
        for t in ts:
            while now < t:
                xs, us, ys, ws, gs = [x], [u], [y], [x + zr], []
                for k in range(order):
                    g = mpmath.fsum(ws[i] * ws[k - i] for i in range(k + 1)) / 2
                    gs.append(g + c if k == 0 else g)
                    wg = mpmath.fsum(ws[i] * gs[k - i] for i in range(k + 1))
                    xs.append(us[k] / (k + 1))
                    us.append(((rho if k == 0 else 0) - wg) / (k + 1))
                    ys.append((gs[k] - (1 if k == 0 else 0)) / (k + 1))
                    ws.append(xs[-1])
                h = min(
                    (eps / abs(cs[j])) ** (mpmath.mpf(1) / j)
                    for cs in (xs, us, ys) for j in (order, order - 1) if cs[j]
                )
                h = min(h / 2, t - now)
                x, u, y = (mpmath.polyval(cs[::-1], h) for cs in (xs, us, ys))
                now += h
            out.append((x, u, y))
        return out


class TestReducedIntegrator:
    def test_trivial_branch(self):
        data = InitialData(0.0, 0.0, 0.0, 1.0)
        rows = taylor_reduced(data, np.linspace(0.0, 10.0, 101))
        assert np.max(np.abs(rows[:, 0])) < 1e-12
        assert _level_drift(data, rows) < 1e-12

    def test_drift_small(self):
        data = InitialData(1.0, 0.5, 0.2, 1.0)
        rows = taylor_reduced(data, np.linspace(0.0, 20.0, 201))
        assert _level_drift(data, rows) < 1e-9

    def test_matches_closed_form(self):
        from heisenmag.trajectory import make_solution

        data = InitialData(2.0, -1.25, 1.5, 0.5)  # repeated root, mu > 0
        sol = make_solution(data)
        ts = np.linspace(0.0, 15.0, 101)
        for t, row in zip(ts, taylor_reduced(data, ts)):
            assert abs(sol.x(t) - row[0]) < 1e-7


class TestTaylorOracle:
    def test_agrees_with_odefun(self):
        ts = (0.5, 1.0, 2.0)
        for branch in _NON_PERIODIC:
            data = representative_data(branch)
            rows = taylor_reduced(data, ts)
            with mpmath.workdps(30):
                zr = mpmath.mpf(data.z0) + mpmath.mpf(data.rho)

                def rhs(t, s):
                    h = s[0] ** 2 / 2 + zr * s[0] + data.y0 + 1
                    return [s[1], data.rho - (s[0] + zr) * h, h - 1]

                f = mpmath.odefun(
                    rhs, 0, [mpmath.mpf(0), mpmath.mpf(data.x0), mpmath.mpf(0)],
                    tol=mpmath.mpf(10) ** -26,
                )
                for t, row in zip(ts, rows):
                    for got, want in zip(row[:3], f(t)):
                        assert abs(got - want) <= 4e-16 * max(1.0, abs(want)), (branch, t)

    def test_saddle_branch_within_1e_15_of_60_digit_reference(self):
        # the separatrix amplifies step error by exp(sqrt(-mu) t) ~ 1e16 on
        # [0, 20]; past the one final rounding, the oracle must stay within
        # 1e-15 of a 60-digit order-60 Taylor run
        data = representative_data(Branch.ZERO_MU_NEG_LEFT)
        ts = (10.0, 20.0)
        with mpmath.workdps(60):
            for row, want in zip(taylor_reduced(data, ts), _mp_taylor(data, ts)):
                for got, w in zip(row[:3], want):
                    assert abs(got - w) < 1e-15 + math.ulp(got) / 2, (got, w)

    def test_periodic_branch_within_1e_15_of_60_digit_reference(self):
        # criterion 1 compares the periodic branches with the oracle over
        # two periods; read POS_HIGH at half of that window and at its end
        from heisenmag.trajectory import make_solution

        data = representative_data(Branch.POS_HIGH)
        window = 2.0 * make_solution(data).x_period
        ts = (0.5 * window, window)
        with mpmath.workdps(60):
            for row, want in zip(taylor_reduced(data, ts), _mp_taylor(data, ts)):
                for got, w in zip(row[:3], want):
                    assert abs(got - w) < 1e-15 + math.ulp(got) / 2, (got, w)

    def test_closed_form_criterion_needs_no_odefun(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("mpmath.odefun called")

        monkeypatch.setattr(mpmath, "odefun", refuse)
        result = crit_closed_form()
        assert result.passed, result.line()

    def test_rejects_unordered_or_negative_times(self):
        data = InitialData(1.0, 0.5, 0.2, 1.0)
        for ts in ((1.0, 0.5), (-1.0,), (math.nan,), [[0.5, 1.0], [1.5, 2.0]], 1.0):
            with pytest.raises(DomainError):
                taylor_reduced(data, ts)

    def test_closed_form_criterion_runs_no_dop853(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("integrate_general called")

        monkeypatch.setattr(acceptance, "integrate_general", refuse)
        for branch in _ALL_BRANCHES:
            rec = check_branch(branch)
            assert rec["ode_residual"] < 1e-8 and rec["oracle_distance"] < 1e-6, rec
        result = crit_closed_form()
        assert result.passed, result.line()

    def test_periodic_branch_at_large_rho_tracks_the_oracle(self):
        # DOP853 at rtol 1e-11 put this 4.5e-6 from the closed form
        assert check_branch(Branch.POS_LOW, 50.0)["oracle_distance"] < 1e-6

    @pytest.mark.parametrize("branch", (Branch.POS_LOW, Branch.ZERO_MU_NEG_LEFT))
    def test_dense_output_equals_each_time_alone(self, branch, monkeypatch):
        data = representative_data(branch)
        ts = np.linspace(0.37, 9.1, 61)
        steps = []
        series = oracle._taylor_series

        def record(*args):
            coefficients, step = series(*args)
            steps.append(step)
            return coefficients, step

        monkeypatch.setattr(oracle, "_taylor_series", record)
        rows = taylor_reduced(data, ts)
        monkeypatch.setattr(oracle, "_taylor_series", series)
        # every time lies strictly inside a step, and some step holds several
        ends = set(itertools.accumulate(steps))
        assert not ends & {oracle._fixed(t) for t in ts}
        assert len(steps) < len(ts)
        for t, row in zip(ts, rows):
            alone = taylor_reduced(data, [t])[0]
            assert np.array_equal(row.view(np.int64), alone.view(np.int64)), t


def _criterion_1_run(branch):
    """The data and times of criterion 1's oracle run on branch."""
    data = representative_data(branch)
    sol = make_solution(data)
    ts = (np.linspace(0.0, acceptance._window(sol), 201) if sol.x_period is not None
          else np.linspace(20.0 / 14, 20.0, 14))
    return data, ts


def _criterion_1_states(branch, monkeypatch):
    """The states at which criterion 1's run of branch takes its steps."""
    states, series = [], oracle._taylor_series

    def record(*args):
        states.append(args)
        return series(*args)

    monkeypatch.setattr(oracle, "_taylor_series", record)
    taylor_reduced(*_criterion_1_run(branch))
    monkeypatch.setattr(oracle, "_taylor_series", series)
    return states


def _all_fixed_series(x, u, y, zr, c, rho):
    """The reduced system's order-38 series with every order in 112-bit fixed
    point, and its Jorba-Zou step as a float: the oracle's series before its
    orders above _EXACT_ORDER moved to floats, kept as a reference."""
    n, f, one = oracle._TAYLOR_ORDER, oracle._FRAC_BITS, oracle._ONE
    xs, us, ys, ws, gs = [x], [u], [y], [x + zr], []
    for k in range(n):
        half = (k + 1) >> 1
        ww = sum(map(operator.mul, ws[:half], reversed(ws[k - half + 1:]))) << 1
        g = (ww + ws[half] * ws[half] if k % 2 == 0 else ww) >> (f + 1)
        gs.append(g + c if k == 0 else g)
        wg = sum(map(operator.mul, ws, reversed(gs))) >> f
        xs.append(us[k] // (k + 1))
        us.append(((rho if k == 0 else 0) - wg) // (k + 1))
        ys.append((gs[k] - (one if k == 0 else 0)) // (k + 1))
        ws.append(xs[-1])
    sizes = [max(abs(cs[j]) for cs in (xs, us, ys)) for j in (n - 1, n)]
    r = min(((one / s) ** (1.0 / j) for j, s in zip((n - 1, n), sizes) if s), default=math.inf)
    return (xs, us, ys), r / math.e ** 2


class TestFloatTail:
    """The series' orders above _EXACT_ORDER in floats, against all fixed point."""

    @pytest.mark.parametrize("branch", _ALL_BRANCHES, ids=lambda b: b.name)
    def test_series_and_step_match_all_fixed_point(self, branch, monkeypatch):
        exact, unit = oracle._EXACT_ORDER, 2.0 ** -oracle._FRAC_BITS
        cap = 2.0 ** (oracle._FRAC_BITS / oracle._TAYLOR_ORDER) / math.e ** 2
        resolved = 0
        for args in _criterion_1_states(branch, monkeypatch):
            got, step = oracle._taylor_series(*args)
            want, want_step = _all_fixed_series(*args)
            h = step / oracle._ONE
            # a size below one unit counts as one: no step passes 2^(112/38)/e^2
            assert h <= cap * (1.0 + 1e-15)
            for cs, ref in zip(got, want):
                assert cs[:exact + 1] == ref[:exact + 1]
            # near an equilibrium the high orders fade into the reference's own
            # rounding; where its last two orders hold 2^52 units, they are resolved
            if min(max(abs(ref[j]) for ref in want) for j in (-2, -1)) < 2 ** 52:
                continue
            resolved += 1
            assert abs(h - want_step) <= 1e-15 * want_step
            for cs, ref in zip(got, want):
                for k in range(exact + 1, len(cs)):
                    assert abs(cs[k] - ref[k] * unit) * h ** k <= unit, (k, cs[k], ref[k])
        assert resolved >= 10  # on every branch, about half of the states or more


def _cauchy(a, b):
    """The last coefficient of the product of two series of equal length."""
    return sum(map(operator.mul, a, reversed(b)))


def _one_loop_series(x, u, y, zr, c, rho):
    """The reduced system's series and step as one loop over all orders, which
    swaps its operators to float ones at _EXACT_ORDER: the oracle's series
    before it split into a fixed-point and a float loop, kept as a reference."""
    exact, f, one = oracle._EXACT_ORDER, oracle._FRAC_BITS, oracle._ONE
    xs, us, ys, ws, gs = [x], [u], [y], [x + zr], []
    rescale, unit, two_units, div = operator.rshift, f, f + 1, operator.floordiv
    for k in range(oracle._TAYLOR_ORDER):
        if k == exact:
            try:
                exact_us, us, ws, gs = us, *([v * oracle._UNIT for v in cs] for cs in (us, ws, gs))
            except OverflowError as exc:
                raise ConvergenceError(f"a Taylor coefficient to order {k} overflows") from exc
            rescale, unit, two_units, div = operator.mul, 1.0, 0.5, operator.truediv
        half = (k + 1) >> 1
        ww = 2 * sum(map(operator.mul, ws[:half], reversed(ws[k - half + 1:])))
        g = rescale(ww + ws[half] * ws[half] if k % 2 == 0 else ww, two_units)
        gs.append(g + c if k == 0 else g)
        wg = rescale(_cauchy(ws, gs), unit)
        xs.append(div(us[k], k + 1))
        us.append(div((rho if k == 0 else 0) - wg, k + 1))
        ys.append(div(gs[k] - (one if k == 0 else 0), k + 1))
        ws.append(xs[-1])
    series = (xs, exact_us + us[exact + 1:], ys)
    if not math.isfinite(sum(sum(cs[exact + 1:]) for cs in series)):
        raise ConvergenceError(f"a Taylor coefficient past order {exact} overflows")
    step = oracle._jz_step(series, oracle._UNIT)
    return series, (oracle._fixed(step) if step < math.inf else step)


def _horner_values(series, dts):
    """(x, x', y) at each offset of dts by one Horner call per component: the
    oracle's dense output before `_values`, kept as a reference."""
    exact, f = oracle._EXACT_ORDER, oracle._FRAC_BITS

    def horner(cs, dt):
        acc, t = cs[-1], dt / oracle._ONE
        for ck in reversed(cs[exact + 1:-1]):
            acc = ck + acc * t
        acc = oracle._fixed(acc)
        for ck in reversed(cs[:exact + 1]):
            acc = ck + (acc * dt >> f)
        return acc

    return [[horner(cs, dt) for cs in series] for dt in dts]


def _cauchy_full_series(state, alpha, beta, rho):
    """The full system's float series with a Cauchy-product helper and order 0
    inside the loop: `_full_series` before its products were inlined."""
    xs, ys, zs, us, vs, ws = ([c] for c in state)
    xi_rho, xpps, ypps = [], [], []
    for k in range(oracle._FLOAT_ORDER):
        xi = ws[k] + 0.5 * (_cauchy(us, ys) - _cauchy(xs, vs))
        xi_rho.append(xi + rho if k == 0 else xi)
        xpps.append((rho * beta if k == 0 else 0.0) - _cauchy(xi_rho, vs) - beta * xi_rho[k])
        ypps.append((rho * alpha if k == 0 else 0.0) + _cauchy(xi_rho, us) - alpha * xi_rho[k])
        zpp = beta * us[k] + alpha * vs[k] - 0.5 * (_cauchy(xpps, ys) - _cauchy(xs, ypps))
        for cs, dc in zip((xs, ys, zs, us, vs, ws), (us[k], vs[k], ws[k], xpps[k], ypps[k], zpp)):
            cs.append(dc / (k + 1))
    return [xs, ys, zs, us, vs, ws]


def _bits(series):
    """Each coefficient as its type and exact value: float.hex tells -0.0 from 0.0."""
    return [[(type(v), v.hex() if isinstance(v, float) else v) for v in cs] for cs in series]


def _outcome(run):
    """A run's rows as int64 bits, or its refusal's type and message."""
    try:
        return run().view(np.int64).tolist()
    except HeisenmagError as exc:
        return type(exc), str(exc)


def _with_references(monkeypatch, run):
    """run() with the oracles' series and dense output swapped for the references."""
    with monkeypatch.context() as m:
        m.setattr(oracle, "_taylor_series", _one_loop_series)
        m.setattr(oracle, "_values", _horner_values)
        m.setattr(oracle, "_full_series", _cauchy_full_series)
        return run()


class TestBitForBitReferences:
    """The two-loop series, `_values` and the inlined `_full_series` against the
    one-loop references: every coefficient, step and row keeps its bits."""

    @pytest.mark.parametrize("branch", _ALL_BRANCHES, ids=lambda b: b.name)
    def test_criterion_1_series_steps_and_rows(self, branch, monkeypatch):
        states = _criterion_1_states(branch, monkeypatch)
        assert len(states) > 30
        for args in states:
            series, step = oracle._taylor_series(*args)
            want, want_step = _one_loop_series(*args)
            assert _bits(series) == _bits(want) and step == want_step
            dts = [step * i // 7 for i in range(8)]
            assert oracle._values(series, dts) == _horner_values(want, dts)

        def run():
            return taylor_reduced(*_criterion_1_run(branch))

        assert _outcome(run) == _with_references(monkeypatch, lambda: _outcome(run))

    @pytest.mark.parametrize("force, v0", _CRITERION_10_CASES)
    def test_criterion_10_series_and_rows(self, force, v0, monkeypatch):
        states, series_of = [], oracle._full_series

        def record(*args):
            states.append(args)
            return series_of(*args)

        def run():
            ts = np.linspace(0.0, 10.0, 10001)
            return integrate_general(force, StateVector(0, 0, 0, *v0), ts)

        monkeypatch.setattr(oracle, "_full_series", record)
        got = _outcome(run)
        monkeypatch.setattr(oracle, "_full_series", series_of)
        assert 30 < len(states) < 40
        for args in states:
            assert _bits(oracle._full_series(*args)) == _bits(_cauchy_full_series(*args))
        assert got == _with_references(monkeypatch, lambda: _outcome(run))

    @settings(max_examples=60, deadline=None)
    @given(st.tuples(*[st.floats(-4.0, 4.0)] * 3), st.floats(0.0, 8.0),
           st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))
    @example((1e140, 0.0, 0.0), 1.0, [0.5])  # past 2^1024 in fixed point
    @example((0.0, 0.0, 1e10), 1.0, [0.5])  # its float orders overflow
    @example((0.0, 0.0, 0.0), 0.0, [0.0, 1.0])  # at rest: zero coefficients, infinite step
    def test_swept_data_and_times(self, xyz, rho, fractions):
        data = InitialData(*xyz, rho)
        ts = sorted(3.0 * f / data.scale() for f in fractions)
        force, s0 = LorentzForce(*xyz), StateVector(*xyz, rho, -rho, 0.5)
        runs = (lambda: taylor_reduced(data, ts),
                lambda: integrate_general(force, s0, [0.0, *(t + 1e-3 for t in ts)]))
        for run in runs:
            with pytest.MonkeyPatch.context() as m:
                assert _outcome(run) == _with_references(m, lambda: _outcome(run))


class TestStepCap:
    """Past _TAYLOR_STEP_CAP steps both oracles refuse with ConvergenceError."""

    def test_both_oracles_refuse_a_long_span(self, monkeypatch):
        monkeypatch.setattr(oracle, "_TAYLOR_STEP_CAP", 50)
        with pytest.raises(ConvergenceError, match=r"passes 50 steps at time .* of \[0, 1000.0\]"):
            taylor_reduced(representative_data(Branch.NEG), [1e3])
        with pytest.raises(ConvergenceError, match=r"passes 50 steps at time .* of \[0, 1000.0\]"):
            integrate_general(_CRITERION_10_CASES[0][0], StateVector(0, 0, 0, 0.5, 0.3, -0.2),
                              [0.0, 1e3])

    @pytest.mark.parametrize("branch", (Branch.NEG, Branch.ZERO_MU_NEG_LEFT), ids=lambda b: b.name)
    def test_a_run_of_exactly_the_cap_passes(self, branch, monkeypatch):
        steps = len(_criterion_1_states(branch, monkeypatch))
        rows = taylor_reduced(*_criterion_1_run(branch))
        monkeypatch.setattr(oracle, "_TAYLOR_STEP_CAP", steps)
        assert np.array_equal(taylor_reduced(*_criterion_1_run(branch)), rows)
        monkeypatch.setattr(oracle, "_TAYLOR_STEP_CAP", steps - 1)
        with pytest.raises(ConvergenceError, match=f"passes {steps - 1} steps"):
            taylor_reduced(*_criterion_1_run(branch))


class TestLagrangian:
    def test_zero_state(self):
        assert lagrangian_value(LorentzForce(1, 1, 1), StateVector(0, 0, 0, 0, 0, 0)) == 0.0

    def test_exact_case_reduces_to_kinetic_plus_potential(self):
        # alpha = beta = 0 leaves the kinetic term and the central potential
        force = LorentzForce(0, 0, 1.5)
        s = StateVector(0.3, -0.2, 0.15, 0.4, -0.1, 0.2)
        body_z = s.zp + 0.5 * (s.xp * s.y - s.x * s.yp)
        kinetic = 0.5 * (s.xp ** 2 + s.yp ** 2 + body_z ** 2)
        potential = 0.5 * 1.5 * (s.y * s.xp - s.x * s.yp)
        assert abs(lagrangian_value(force, s) - (kinetic + potential)) < 1e-15

    def test_lagrangian_not_constant_but_energy_is(self):
        force = LorentzForce(0.0, 1.0, 1.0)
        rows = integrate_general(
            force, StateVector(0, 0, 0, 0.5, 0.3, -0.2), np.linspace(0.0, 10.0, 801)
        )
        lags = [lagrangian_value(force, StateVector(*s)) for s in rows]
        speeds = [metric_speed_sq(StateVector(*s)) for s in rows]
        assert max(lags) - min(lags) > 1e-3
        assert max(speeds) - min(speeds) < 1e-9


class TestEulerLagrange:
    def test_residual_vanishes_on_trajectories(self):
        for force, v0 in _CRITERION_10_CASES:
            ts = np.linspace(0.0, 10.0, 10001)
            rows = integrate_general(force, StateVector(0, 0, 0, *v0), ts)
            rx, ry, rz = euler_lagrange_residual(force, ts, rows)
            assert np.max(np.abs(rx)) < 1e-5
            assert np.max(np.abs(ry)) < 1e-5
            assert np.max(np.abs(rz)) < 1e-5

    def test_residual_large_off_shell(self):
        force = LorentzForce(0.0, 1.0, 1.0)
        ts = np.linspace(0.0, 10.0, 5001)
        ones = np.ones_like(ts)
        states = np.stack([ts, ts, 0 * ts, ones, ones, 0 * ts], axis=1)
        rx, ry, rz = euler_lagrange_residual(force, ts, states)
        assert max(np.max(np.abs(rx)), np.max(np.abs(ry)), np.max(np.abs(rz))) > 1e-2

    def test_z_residual_is_third_equation(self):
        # res_z = z'' + (x''y - xy'')/2 - (beta x' + alpha y') by construction;
        # evaluate both on a cubic test curve
        force = LorentzForce(0.4, 0.9, 0.0)
        ts = np.linspace(0.0, 2.0, 2001)
        x = 0.3 * ts ** 2
        y = ts
        z = 0.1 * ts ** 3
        states = np.stack(
            [x, y, z, 0.6 * ts, np.ones_like(ts), 0.3 * ts ** 2], axis=1
        )
        _, _, rz = euler_lagrange_residual(force, ts, states)
        inner = ts[2:-2]
        xpp = 0.6 * np.ones_like(inner)
        ypp = np.zeros_like(inner)
        zpp = 0.6 * inner
        expected = (
            zpp
            + 0.5 * (xpp * inner - 0.3 * inner ** 2 * ypp)
            - (0.9 * 0.6 * inner + 0.4 * 1.0)
        )
        np.testing.assert_allclose(rz, expected, atol=1e-6)

    def test_columns_equal_per_row_reference(self):
        # a start off the identity also maps the states back as columns
        force = LorentzForce(0.7, 1.2, 0.9)
        ts = np.linspace(0.0, 5.0, 501)
        rows = integrate_general(force, StateVector(0.3, -0.2, 0.1, 0.4, -0.3, 0.6), ts)
        n = len(ts)
        momenta, grads = np.empty((n, 3)), np.empty((n, 3))
        for i in range(n):
            s = StateVector(*rows[i])
            momenta[i] = lagrangian_momenta(force, s)
            grads[i] = lagrangian_gradients(force, s)
        dt = ts[1] - ts[0]
        stencil = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
        residuals = euler_lagrange_residual(force, ts, rows)
        for q, res in enumerate(residuals):
            ref = np.convolve(momenta[:, q], stencil[::-1], mode="valid") / dt - grads[2 : n - 2, q]
            assert np.array_equal(res.view(np.int64), ref.view(np.int64))

    def test_rejects_nonuniform_grid(self):
        force = LorentzForce(0, 1, 1)
        ts = np.array([0.0, 0.1, 0.25, 0.3, 0.4, 0.5])
        states = np.zeros((6, 6))
        with pytest.raises(DomainError):
            euler_lagrange_residual(force, ts, states)

    def test_rejects_non_finite_grid(self):
        # a NaN spacing compares False with the band, so it must not pass as uniform
        ts = np.array([0.0, 1.0, 2.0, 3.0, math.nan, 5.0])
        with pytest.raises(DomainError, match="finite"):
            euler_lagrange_residual(LorentzForce(0, 1, 1), ts, np.zeros((6, 6)))

    def test_rejects_a_grid_whose_spacings_overflow(self):
        # finite times 2e308 apart: a typed refusal, no numpy overflow warning
        ts = np.array([0.0, 1e308, -1e308, 1e308, -1e308, 0.0])
        with pytest.raises(DomainError, match="uniform"):
            euler_lagrange_residual(LorentzForce(0, 1, 1), ts, np.zeros((6, 6)))

    def test_rejects_zero_spacing_grid(self):
        ts = np.full(6, 2.0)
        with pytest.raises(DomainError, match="distinct"):
            euler_lagrange_residual(LorentzForce(0, 1, 1), ts, np.zeros((6, 6)))


class TestReducedOdeResidual:
    def test_array_stencil_matches_pointwise_loop(self):
        from heisenmag.trajectory import make_solution

        data = InitialData(1.0, 0.5, 0.2, 1.0)
        sol = make_solution(data)
        ts = np.linspace(0.05, 10.0, 50)
        worst = max(
            abs(fd_second_derivative(sol.x, t) + data.h_prime(x) * data.h(x) - data.rho)
            for t, x in ((t, sol.x(t)) for t in ts.tolist())
        )
        assert abs(reduced_ode_residual(sol.x, data, ts) - worst) < 1e-11
        assert reduced_ode_residual(sol.x, data, []) == 0.0
