"""Closed-form trajectories: branch constants, images, periods, symmetry."""

import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heisenmag.errors import DomainError, HeisenmagError, IntervalError
from heisenmag.heisenberg import HeisenbergPoint, LorentzForce
from heisenmag.oracle import (
    StateVector,
    integrate_general,
    reduced_ode_residual,
)
from heisenmag.periodic import (
    LatticeElement,
    find_lambda_periodic,
    initial_from_cde,
    lambda_periodic_residual,
)
from heisenmag import acceptance, elliptic, quartic, trajectory
from heisenmag.quartic import Branch, InitialData, build_profile
from heisenmag.trajectory import (
    ExactTrajectory,
    TranslatedTrajectory,
    make_solution,
)

CBRT2 = 2.0 ** (1.0 / 3.0)

# one interior (x0 > 0) datum per branch, plus the turning-point anchors
BRANCH_CASES = {
    Branch.NEG: [InitialData(0, 0, -1, 1), InitialData(1.0, 0.5, 0.2, 1.0)],
    Branch.POS_LOW: [InitialData(0, -2.75, -2, 1), InitialData(0.2, -2.75, -2, 1)],
    Branch.POS_HIGH: [InitialData(0, -4, -1, 1), InitialData(0.3, -4, -1, 1)],
    Branch.ZERO_MU_POS: [
        InitialData(0, -1.5 * CBRT2 - 1, -1, 1),
        InitialData(2.0, -1.25, 1.5, 0.5),
    ],
    Branch.ZERO_MU_NEG_RIGHT: [
        InitialData(0, 7, 1, 4),
        InitialData(3.0, -3.25, -1.25, 2.25),
    ],
    Branch.ZERO_MU_NEG_LEFT: [
        InitialData(0, 2, -4.75, 1),
        InitialData(math.sqrt(0.171875), -2.625, -3.75, 2.25),
    ],
    Branch.ZERO_CUSP: [InitialData(0, 2, 2, 1), InitialData(2.0, -2.0, 0.0, 1.0)],
}

ALL_CASES = [(b, d) for b, cases in BRANCH_CASES.items() for d in cases]


def test_evaluation_runs_no_agm(monkeypatch):
    """Each solution runs its AGM scheme in make_solution, never per point."""
    runs = []
    agm_scheme = elliptic._agm_scheme

    def counted(k):
        runs.append(k)
        return agm_scheme(k)

    monkeypatch.setattr(elliptic, "_agm_scheme", counted)
    ts = np.linspace(-41.3, 58.2, 200)
    for _, data in ALL_CASES:
        sol = make_solution(data)
        built = len(runs)
        for t in ts[:70]:
            sol.point(t)
        for t in ts[70:140]:
            sol.velocity(t)
        sol.sample(ts[140:])
        assert len(runs) == built, f"{len(runs) - built} AGM runs evaluating {data}"


def test_one_agm_per_elliptic_solution(monkeypatch):
    runs = []
    init = elliptic.AGM.__init__

    def counted(self, k):
        runs.append(k)
        init(self, k)

    monkeypatch.setattr(elliptic.AGM, "__init__", counted)
    for branch in (Branch.NEG, Branch.POS_LOW, Branch.POS_HIGH):
        for data in BRANCH_CASES[branch]:
            runs.clear()
            sol = make_solution(data)
            assert len(runs) == 1, (data, runs)
            if data == InitialData(1.0, 0.5, 0.2, 1.0):
                # past the cn quarter period: the inverse reads phi > pi/2, F > K
                assert abs(sol.phase) > sol.x_period * sol._curve.rate / 4.0


@pytest.mark.parametrize("branch,data", ALL_CASES, ids=lambda v: str(v)[:40])
class TestBranchSolutions:
    def test_classified_as_expected(self, branch, data):
        assert build_profile(data).branch is branch

    def test_construction_runs_no_quadrature(self, branch, data, monkeypatch):
        def no_quad(*args, **kwargs):
            raise AssertionError("construction and evaluation must not integrate numerically")

        monkeypatch.setattr(trajectory, "quad", no_quad)
        sol = make_solution(data)
        assert sol.profile.branch is branch
        refl = make_solution(InitialData(-data.x0, data.y0, data.z0, data.rho))
        ts = (-41.3, -0.35, 0.0, 3.3, 58.2)
        for traj in (sol, refl):
            assert len(traj.sample(ts)) == len(ts)
            for t in ts:
                for value in (traj.x(t), *dataclasses.astuple(traj.point(t)),
                              *traj.velocity(t)):
                    assert math.isfinite(value)

    def test_initial_conditions(self, branch, data):
        sol = make_solution(data)
        assert abs(sol.x(0.0)) < 1e-10
        h = 1e-6
        fd_slope = (sol.x(h) - sol.x(-h)) / (2 * h)
        assert abs(fd_slope - data.x0) < 1e-8
        assert abs(sol.x_prime(0.0) - data.x0) < 1e-10

    def test_ode_residual(self, branch, data):
        sol = make_solution(data)
        res = reduced_ode_residual(sol.x, data, np.linspace(0.05, 10.0, 100))
        assert res < 1e-8

    def test_first_integral(self, branch, data):
        sol = make_solution(data)
        level = data.norm_sq
        for t in np.linspace(0.0, 12.0, 120):
            drift = (
                sol.x_prime(t) ** 2
                + data.h(sol.x(t)) ** 2
                - 2.0 * data.rho * sol.x(t)
                - level
            )
            assert abs(drift) < 1e-9

    def test_y_derivative(self, branch, data):
        sol = make_solution(data)
        h = 1e-5
        for t in (0.3, 1.7, 4.1):
            fd = (sol.point(t + h).y - sol.point(t - h).y) / (2 * h)
            x = sol.x(t)
            expected = 0.5 * x * x + data.zr * x + data.y0
            assert abs(fd - expected) < 1e-9


class TestImagesAndPeriods:
    def test_image_containment(self):
        for branch, cases in BRANCH_CASES.items():
            for data in cases:
                sol = make_solution(data)
                lo, hi = _image_interval(sol.profile, data)
                t_max = sol.x_period if sol.x_period else 20.0
                for t in np.linspace(0.0, 2 * t_max, 160):
                    x = sol.x(t)
                    assert lo - 1e-9 <= x <= hi + 1e-9, (branch, t, x, lo, hi)

    def test_periodic_branches_repeat(self):
        for data in (
            InitialData(1.0, 0.5, 0.2, 1.0),
            InitialData(0.2, -2.75, -2, 1),
            InitialData(0.3, -4, -1, 1),
            InitialData(2.0, -1.25, 1.5, 0.5),
        ):
            sol = make_solution(data)
            omega = sol.x_period
            assert omega is not None
            for t in np.linspace(0.0, omega, 23):
                assert abs(sol.x(t + omega) - sol.x(t)) < 1e-10

    def test_period_matches_recurrence(self):
        # the closed-form period against the detected recurrence of x
        for data in (
            InitialData(1.0, 0.5, 0.2, 1.0),
            InitialData(0.3, -4, -1, 1),
            InitialData(2.0, -1.25, 1.5, 0.5),
        ):
            sol = make_solution(data)
            omega = sol.x_period
            detected = _detect_recurrence(sol, omega)
            assert abs(detected - omega) < 1e-7 * omega

    def test_nonperiodic_branches_have_none(self):
        for data in (
            InitialData(0, 2, -4.75, 1),
            InitialData(0, 2, 2, 1),
            InitialData(3.0, -3.25, -1.25, 2.25),
        ):
            assert make_solution(data).x_period is None


def _image_interval(prof, data):
    zr = data.zr
    if prof.branch is Branch.NEG:
        return prof.r1 - zr, prof.r4 - zr
    reals = sorted(r.real for r in prof.roots)
    if prof.branch is Branch.POS_LOW:
        return reals[0] - zr, reals[1] - zr
    if prof.branch is Branch.POS_HIGH:
        return reals[2] - zr, reals[3] - zr
    r, mu = prof.r_double, prof.mu
    if prof.branch is Branch.ZERO_MU_POS:
        half = math.sqrt(-2.0 * (prof.p0 + r * r))
        return -r - half - zr, -r + half - zr
    if prof.branch is Branch.ZERO_MU_NEG_RIGHT:
        return r - zr, -r + math.sqrt(-2.0 * (prof.p0 + r * r)) - zr
    if prof.branch is Branch.ZERO_MU_NEG_LEFT:
        return -r - math.sqrt(-2.0 * (prof.p0 + r * r)) - zr, r - zr
    if prof.branch is Branch.ZERO_CUSP:
        ends = sorted((r - zr, -3.0 * r - zr))
        return ends[0], ends[1]
    raise AssertionError(prof.branch)


def _detect_recurrence(sol, omega_hint):
    # first return of (x, x') to its initial value after t > omega/2
    target = (sol.x(0.0), sol.x_prime(0.0))

    def gap(t):
        return max(abs(sol.x(t) - target[0]), abs(sol.x_prime(t) - target[1]))

    ts = np.linspace(0.6 * omega_hint, 1.4 * omega_hint, 400)
    i = int(np.argmin([gap(t) for t in ts]))
    lo, hi = ts[max(0, i - 1)], ts[min(len(ts) - 1, i + 1)]
    for _ in range(80):
        m1, m2 = lo + (hi - lo) / 3, hi - (hi - lo) / 3
        if gap(m1) < gap(m2):
            hi = m2
        else:
            lo = m1
    return 0.5 * (lo + hi)


class TestCuspClosedForm:
    def test_explicit_rational_profile(self):
        # r = -1 and z0 + rho = 3 give x(t) = 4/(1 + t^2) + r - z0 - rho
        # with a vanishing phase; the constant term is r - z0 - rho = -4
        # (and only -4 makes x(0) = 0 and the equation residual vanish)
        sol = make_solution(InitialData(0, 2, 2, 1))
        assert sol.profile.branch is Branch.ZERO_CUSP
        for t in np.linspace(-4.0, 4.0, 33):
            assert abs(sol.x(t) - (4.0 / (1.0 + t * t) - 4.0)) < 1e-12


class TestTrivialBranch:
    def test_zero_profile(self):
        sol = make_solution(InitialData(0.0, 0.5, 1.0 / 1.5 - 1.0, 1.0))
        # (y0+1)(z0+rho) = rho picks the one-parameter subgroup
        assert sol.profile.branch is Branch.TRIVIAL
        data = sol.data
        for t in (0.0, 1.3, -2.0, 10.0):
            assert sol.x(t) == 0.0
            p = sol.point(t)
            assert abs(p.y - data.y0 * t) < 1e-12
            assert abs(p.z - data.z0 * t) < 1e-9 * max(1.0, abs(t))

    def test_origin_gives_identity_curve(self):
        sol = make_solution(InitialData(0, 0, 0, 1))
        p = sol.point(5.0)
        assert (p.x, p.y, p.z) == (0.0, 0.0, 0.0)


class TestAgainstOracle:
    @pytest.mark.parametrize(
        "data",
        [
            InitialData(1.0, 0.5, 0.2, 1.0),
            InitialData(0.2, -2.75, -2, 1),
            InitialData(0.3, -4, -1, 1),
            InitialData(2.0, -1.25, 1.5, 0.5),
        ],
        ids=str,
    )
    def test_periodic_branches_track_oracle(self, data):
        sol = make_solution(data)
        t_max = 2.0 * sol.x_period
        ts = np.linspace(0.0, t_max, 161)
        rows = integrate_general(
            LorentzForce(0.0, 1.0, data.rho), StateVector.from_initial_data(data), ts
        )
        for (px, py, pz), s in zip(sol.sample(ts), rows):
            assert abs(px - s[0]) < 1e-6
            assert abs(py - s[1]) < 1e-6
            assert abs(pz - s[2]) < 1e-6

    def test_cusp_tracks_oracle_short_horizon(self):
        # saddle-free part of the rational profile; the long-horizon
        # comparison runs in the acceptance suite against high precision
        data = InitialData(2.0, -2.0, 0.0, 1.0)
        sol = make_solution(data)
        ts = np.linspace(0.0, 6.0, 61)
        rows = integrate_general(
            LorentzForce(0.0, 1.0, data.rho), StateVector.from_initial_data(data), ts
        )
        for (px, py, pz), s in zip(sol.sample(ts), rows):
            assert max(abs(px - s[0]), abs(py - s[1]), abs(pz - s[2])) < 1e-7


class TestExactForce:
    def test_subgroup_when_turn_rate_vanishes(self):
        p = ExactTrajectory(InitialData(0.6, -0.4, -2.0, 2.0)).point(2.0)
        assert (p.x, p.y, p.z) == (1.2, -0.8, -4.0)

    def test_horizontal_return(self):
        traj = ExactTrajectory(InitialData(0.6, -0.4, 0.8, 2.0))
        period = traj.horizontal_period()
        p = traj.point(period)
        assert abs(p.x) < 1e-12 and abs(p.y) < 1e-12
        assert ExactTrajectory(InitialData(0.6, -0.4, -2.0, 2.0)).horizontal_period() is None

    def test_system_residual(self):
        traj = ExactTrajectory(InitialData(0.7, 0.2, 0.5, 1.5))
        tau = traj.data.zr
        h = 1e-5
        for t in np.linspace(0.1, 6.0, 25):
            vm, v0, vp = traj.velocity(t - h), traj.velocity(t), traj.velocity(t + h)
            p0 = traj.point(t)
            xpp = (vp[0] - vm[0]) / (2 * h)
            ypp = (vp[1] - vm[1]) / (2 * h)
            assert abs(xpp + tau * v0[1]) < 1e-9
            assert abs(ypp - tau * v0[0]) < 1e-9
            assert abs(v0[2] + 0.5 * (v0[0] * p0.y - p0.x * v0[1]) - traj.data.z0) < 1e-9

    # tau = z0 + rho = 1e-10: the turn angle tau t stays below the cut at t <= 1e4
    @pytest.mark.parametrize("t", [1.0, 3.0, 100.0, 1e4, *(
        np.geomspace(1e-12, trajectory._TURN_CUT, 13, endpoint=False) * 1e10)])
    def test_slow_turn_keeps_its_digits(self, t):
        traj = ExactTrajectory(InitialData(1e-3, 2.0, 1e-10, 0.0))
        p, v = traj.point(t), traj.velocity(t)
        with mpmath.workdps(50):  # the same closed form, on the same float inputs
            x0, y0, z0, tau, mt = map(mpmath.mpf, (1e-3, 2.0, 1e-10, 1e-10, t))
            s, one_c, v0_sq = mpmath.sin(tau * mt), 1 - mpmath.cos(tau * mt), x0 ** 2 + y0 ** 2
            x, y = (s * x0 - one_c * y0) / tau, (one_c * x0 + s * y0) / tau
            z = z0 * mt + v0_sq / (2 * tau ** 2) * (tau * mt - s)
            zp = z0 + v0_sq / (2 * tau) * one_c
            # x crosses zero at tau t = 2 atan(x0 / y0): x and y are held to the radius
            radius = mpmath.hypot(x, y)
            gaps = [abs(p.x - x) / radius, abs(p.y - y) / radius, abs(p.z - z) / z,
                    abs(v[2] - zp) / zp]
        assert max(gaps) < 1e-14, gaps

    def test_speed_constant(self):
        traj = ExactTrajectory(InitialData(0.7, 0.2, 0.5, 1.5))
        v0 = traj.velocity(0.0)
        for t in np.linspace(0.0, 10.0, 40):
            v = traj.velocity(t)
            p = traj.point(t)
            body_z = v[2] + 0.5 * (v[0] * p.y - p.x * v[1])
            speed = v[0] ** 2 + v[1] ** 2 + body_z ** 2
            assert abs(speed - (v0[0] ** 2 + v0[1] ** 2 + v0[2] ** 2)) < 1e-9


class TestSymmetries:
    def test_reflection_initial_velocity(self):
        data = InitialData(-1.0, 0.5, 0.2, 1.0)
        refl = make_solution(data)
        assert refl.sigma == -1.0
        v = refl.velocity(0.0)
        np.testing.assert_allclose(v, (-1.0, 0.5, 0.2), atol=1e-10)

    def test_reflection_zero_is_identity_transform(self):
        # x0 = 0 is a turning point, so x is even in t and the time
        # reversal leaves it: -0.0 keeps sigma = +1
        refl = make_solution(InitialData(-0.0, 0.3, -0.4, 1.0))
        sol = make_solution(InitialData(0.0, 0.3, -0.4, 1.0))
        assert refl.sigma == sol.sigma == 1.0
        for t in (0.5, 2.0):
            assert abs(refl.x(t) - sol.x(-t)) < 1e-12

    def test_reflection_against_oracle(self):
        data = InitialData(-1.0, 0.5, 0.2, 1.0)
        refl = make_solution(data)
        ts = np.linspace(0.0, 10.0, 101)
        rows = integrate_general(
            LorentzForce(0.0, 1.0, 1.0), StateVector(0, 0, 0, data.x0, data.y0, data.z0), ts
        )
        for t, s in zip(ts, rows):
            p = refl.point(t)
            assert max(abs(p.x - s[0]), abs(p.y - s[1]), abs(p.z - s[2])) < 1e-7

    def test_reflection_preserves_energy(self):
        assert InitialData(-1.0, 0.5, 0.2, 1.0).energy() == InitialData(1.0, 0.5, 0.2, 1.0).energy()

    def test_translate_base_point(self):
        sol = make_solution(InitialData(1.0, 0.5, 0.2, 1.0))
        p = HeisenbergPoint(0.5, -0.3, 0.7)
        moved = TranslatedTrajectory(p, sol)
        start = moved.point(0.0)
        np.testing.assert_allclose((start.x, start.y, start.z), (0.5, -0.3, 0.7), atol=1e-12)

    def test_translate_identity_is_noop(self):
        sol = make_solution(InitialData(1.0, 0.5, 0.2, 1.0))
        moved = TranslatedTrajectory(HeisenbergPoint(0, 0, 0), sol)
        for t in (0.4, 3.3):
            a, b = moved.point(t), sol.point(t)
            assert (a.x, a.y, a.z) == (b.x, b.y, b.z)

    def test_translated_curve_still_magnetic(self):
        sol = make_solution(InitialData(1.0, 0.5, 0.2, 1.0))
        moved = TranslatedTrajectory(HeisenbergPoint(0.5, -0.3, 0.7), sol)
        v0 = moved.velocity(0.0)
        ts = np.linspace(0.0, 8.0, 81)
        rows = integrate_general(LorentzForce(0.0, 1.0, 1.0), StateVector(0.5, -0.3, 0.7, *v0), ts)
        for t, s in zip(ts, rows):
            p = moved.point(t)
            assert max(abs(p.x - s[0]), abs(p.y - s[1]), abs(p.z - s[2])) < 1e-8


def _same_bits(a, b):
    """Equal values with equal signs, zeros included; NaN never matches."""
    a, b = np.asarray(a), np.asarray(b)
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def _contract_curves():
    """Curves of each class: closed forms whose array functions equal their
    float ones here, the exact force's turning and subgroup curves (the turn
    rate 1.2 crosses _TURN_CUT at t = 0.83; at 1e-10 every turn is below it),
    and a left translate of each."""
    sols = [make_solution(d) for d in (InitialData(0, 0, -1, 1), InitialData(-1.0, 0.5, 0.2, 1.0),
                                       InitialData(2.0, -1.25, 1.5, 0.5), InitialData(0, 2, 2, 1))]
    exact = [ExactTrajectory(d) for d in (InitialData(0.5, 0.3, 0.2, 1.0), InitialData(
        1e-3, 2.0, 1e-10, 0.0), InitialData(0.5, 0.3, -1.0, 1.0), InitialData(-0.0, 2.0, -1.0, 1.0))]
    return sols + exact + [TranslatedTrajectory(HeisenbergPoint(0.7, -1.3, 2.0), c)
                           for c in sols + exact]


class TestEvaluationContract:
    TS = np.concatenate([np.linspace(-25.0, 25.0, 301), [0.0, -0.0, 1e-9, 0.83, 1e6]])

    @pytest.mark.parametrize("curve", _contract_curves(), ids=lambda c: type(c).__name__)
    def test_arrays_equal_floats_bit_for_bit(self, curve):
        p, v = curve.point(self.TS), curve.velocity(self.TS)
        floats = [(*curve.point(t).__dict__.values(), *curve.velocity(t)) for t in self.TS.tolist()]
        for got, ref in zip((p.x, p.y, p.z, *v), zip(*floats)):
            assert got.shape == self.TS.shape and _same_bits(got, ref)

    def test_one_float_range_check_per_call(self, monkeypatch):
        """One check of t per call, and none in the AGM kernels the closed forms run."""
        res = find_lambda_periodic(LatticeElement(0.0, 1.0, 0.5), 1.0, 1.0)
        calls, kernel_calls = [], []

        def counted(log, check):
            return lambda **v: log.append(v) or check(**v)

        monkeypatch.setattr(trajectory, "check_finite", counted(calls, trajectory.check_finite))
        monkeypatch.setattr(elliptic, "check_finite", counted(kernel_calls, elliptic.check_finite))

        def count(call):
            calls.clear()
            kernel_calls.clear()
            call()
            return len(calls), len(kernel_calls)

        pos = make_solution(InitialData(0.2, -2.75, -2.0, 1.0))  # POS_LOW: the sn^2 closed form
        for curve in _contract_curves() + [pos, res.trajectory]:
            assert count(lambda: curve.point(0.3)) == count(lambda: curve.velocity(0.3)) == (1, 0)
        for sol in (pos, res.base_solution):
            assert count(lambda: sol.x(0.3)) == count(lambda: sol.evaluate([0.3, 1.0])) == (1, 0)
        assert count(lambda: lambda_periodic_residual(res.trajectory, res.lam, res.omega)) == (1, 0)
        # the kernels' public entries still refuse a non-finite argument themselves
        with pytest.raises(DomainError):
            elliptic.AGM(0.5).descend(math.nan)
        with pytest.raises(DomainError):
            elliptic.AGM(0.5).F(math.inf)


class TestTimeReversal:
    """x0 < 0 is the |x0| curve run backwards: (x, -x', -y, -z) at -t."""

    TS = np.concatenate([np.linspace(-30.0, 30.0, 121), [0.0, -0.0, 1e-9, -1e-9]])
    SCALAR_TS = (0.0, -0.0, 1e-9, 0.35, -2.7, 13.1)

    @pytest.mark.parametrize("branch,data", ALL_CASES, ids=lambda v: str(v)[:40])
    def test_bit_for_bit(self, branch, data):
        pos = make_solution(data)
        neg = make_solution(InitialData(-float(data.x0), data.y0, data.z0, data.rho))
        for sol in (pos, neg):
            d = sol.data
            np.testing.assert_allclose(sol.velocity(0.0), (d.x0, d.y0, d.z0),
                                       rtol=0.0, atol=1e-10 * d.scale())
        if data.x0 == 0:
            # -0.0 stays on the + side: the same curve, z up to the sign of a zero
            assert neg.sigma == pos.sigma == 1.0
            got, ref = neg.evaluate(self.TS), pos.evaluate(self.TS)
            assert all(_same_bits(g, r) for g, r in zip(got[:3], ref[:3]))
            assert np.array_equal(got[3], ref[3])
            return
        assert (pos.sigma, neg.sigma) == (1.0, -1.0)
        assert neg.profile.branch is branch and neg.phase == pos.phase
        x, xp, y, z = pos.evaluate(-self.TS)
        for got, ref in zip(neg.evaluate(self.TS), (x, -xp, -y, -z)):
            assert _same_bits(got, ref)
        for t in self.SCALAR_TS:
            p, q = neg.point(t), pos.point(-t)
            xp_, yp_, zp_ = pos.velocity(-t)
            assert repr(neg.x(t)) == repr(pos.x(-t))
            assert repr(neg.x_prime(t)) == repr(-pos.x_prime(-t))
            assert repr((p.x, p.y, p.z)) == repr((q.x, -q.y, -q.z))
            assert repr(neg.velocity(t)) == repr((-xp_, yp_, zp_))
        assert repr(neg.x_period) == repr(pos.x_period)

    def test_y_over_period(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            c, d, e, rho = (rng.uniform(0.5, 2.2), rng.uniform(0.1, 0.9),
                            rng.uniform(-0.95, 0.95), rng.uniform(0, 2))
            data = initial_from_cde(c, d, e, rho)
            sol = make_solution(InitialData(-data.x0, data.y0, data.z0, data.rho))
            assert sol.sigma == -1.0
            y = sol.evaluate([sol.x_period])[2][0]
            assert abs(sol.y_over_period() - y) <= 1e-12 * max(1.0, abs(y))


class TestEnergy:
    def test_values(self):
        assert InitialData(0, 0, 0, 1).energy() == 0.0
        assert InitialData(1, 2, 2, 1).energy() == 4.5

    def test_constant_along_closed_forms(self):
        data = InitialData(1.0, 0.5, 0.2, 1.0)
        sol = make_solution(data)
        e0 = data.energy()
        for t in np.linspace(0.0, 9.0, 45):
            p = sol.point(t)
            v = sol.velocity(t)
            body_z = v[2] + 0.5 * (v[0] * p.y - p.x * v[1])
            assert abs(0.5 * (v[0] ** 2 + v[1] ** 2 + body_z ** 2) - e0) < 1e-9


def _assert_evaluate_matches_accessors(traj, ts):
    """evaluate(ts) against the scalar accessors, within 1e-14 max(1, |v|)."""
    cols = traj.evaluate(ts)
    assert all(isinstance(c, np.ndarray) and c.shape == np.shape(ts) for c in cols)
    accessors = (traj.x, traj.x_prime, lambda t: traj.point(t).y, lambda t: traj.point(t).z)
    for col, accessor in zip(cols, accessors):
        ref = np.array([accessor(t) for t in np.asarray(ts).tolist()])
        assert np.all(np.abs(col - ref) <= 1e-14 * np.maximum(1.0, np.abs(ref)))


class TestArrayEvaluation:
    TS = np.concatenate([np.linspace(-25.0, 25.0, 301), [0.0, 1e-9, 123.456]])

    @pytest.mark.parametrize("branch,data", ALL_CASES + [(Branch.TRIVIAL, InitialData(0, 0, 0, 1))])
    def test_matches_scalar_accessors(self, branch, data):
        sol = make_solution(data)
        assert sol.profile.branch is branch
        _assert_evaluate_matches_accessors(sol, self.TS)

    def test_reflected(self):
        refl = make_solution(InitialData(-1.0, 0.5, 0.2, 1.0))
        _assert_evaluate_matches_accessors(refl, self.TS)
        x, xp, y, z = refl.evaluate([0.0])
        assert max(abs(x[0]), abs(xp[0] + 1.0), abs(y[0]), abs(z[0])) < 1e-12

    def test_modulus_zero(self):
        data = InitialData(1.0, 0.5, 0.2, 1.0)
        prof = dataclasses.replace(build_profile(data), k=0.0)
        closed = trajectory._profile_neg(data, prof, False)

        def state(u):
            return closed.formula(u, closed.params)

        us = np.linspace(-10.0, 10.0, 41)
        cols = state(us)
        for i, u in enumerate(us.tolist()):
            for col, v in zip(cols, state(u)):
                assert abs(col[i] - v) <= 1e-14 * max(1.0, abs(v))
        phi, turns, zeta = elliptic.AGM(0.0).descend(us)
        assert phi is us and turns == 0 and zeta == 0.0

    @pytest.mark.parametrize("branch", [Branch.ZERO_MU_NEG_RIGHT, Branch.ZERO_MU_NEG_LEFT])
    def test_saddle_far_out(self, branch):
        # |u| = |rate t + phase| from 600 to 10^4: e^-|u| underflows past 745
        data = BRANCH_CASES[branch][0]
        sol = make_solution(data)
        us = np.array([-1e4, -800.0, -746.0, -710.0, -600.0, 600.0, 710.0, 746.0, 800.0, 1e4])
        ts = (us - sol.phase) / sol._curve.rate
        _assert_evaluate_matches_accessors(sol, ts)
        x, xp, _, _ = sol.evaluate(ts)
        limit = sol.profile.r_double - data.zr
        assert np.all(np.isfinite(x)) and np.all(np.abs(x - limit) <= 1e-14 * max(1.0, abs(limit)))
        assert np.all(np.abs(xp) < 1e-200)

    def test_empty_times(self):
        for traj in (make_solution(InitialData(1.0, 0.5, 0.2, 1.0)),
                     make_solution(InitialData(-1.0, 0.5, 0.2, 1.0))):
            cols = traj.evaluate([])
            assert len(cols) == 4 and all(c.shape == (0,) for c in cols)
            assert traj.sample([]) == []


def _stack_pool():
    """Solutions of every formula: the branch cases, random data of the
    elliptic and cosine families, the trivial curve, each x0 > 0 datum
    again at -x0 (sigma = -1), and a NEG curve whose scheme is AGM(0)."""
    rng = np.random.default_rng(5)
    data = [d for cases in BRANCH_CASES.values() for d in cases]
    data += [initial_from_cde(rng.uniform(0.4, 2.5), rng.uniform(0.01, 0.99),
                              rng.uniform(-1.0, 1.0), rng.uniform(0.0, 2.0)) for _ in range(8)]
    data += [acceptance._four_real_root_data(rng) for _ in range(12)]
    data += [acceptance._mu_pos_data(rng) for _ in range(4)]
    data += [InitialData(0, 0, 0, 1), InitialData(0.0, 0.5, 1.0 / 1.5 - 1.0, 1.0)]
    data = [d for d in data if d is not None]
    data += [dataclasses.replace(d, x0=-d.x0) for d in data if d.x0 > 0.0]
    sols = []
    for d in data:
        try:
            sols.append(make_solution(d))
        except HeisenmagError:  # a repeated-root datum off its stratum
            pass
    neg = make_solution(BRANCH_CASES[Branch.NEG][1])
    params = (elliptic.AGM(0.0),) + neg._curve.params[1:]
    return sols + [dataclasses.replace(neg, _curve=neg._curve._replace(params=params))]


_POOL = _stack_pool()


def _by_formula(sols):
    groups = {}
    for sol in sols:
        groups.setdefault(sol._curve.formula, []).append(sol)
    return list(groups.values())


def _assert_stack_rows_are_evaluate(sols, grid):
    stacked = trajectory.evaluate_stacked(sols, grid)
    for b, sol in enumerate(sols):
        for col, own in zip(stacked, sol.evaluate(grid[b])):
            assert np.array_equal(col[b].view(np.int64), own.view(np.int64)), sol.data


class TestEvaluateStacked:
    def test_pool_covers_every_formula_and_depth(self):
        groups = _by_formula(_POOL)
        assert {sol.profile.branch for sol in _POOL} == set(Branch)
        assert len(groups) == 6  # POS_LOW/HIGH and the two saddles share formulas
        depths = {len(s._curve.params[0]._aa) for s in _POOL if s.profile.branch is Branch.NEG}
        assert len(depths) >= 3 and 1 in depths  # AGM(0) has no level
        assert any(s.sigma < 0.0 for s in _POOL)

    def test_whole_pool_on_one_grid(self):
        for sols in _by_formula(_POOL):
            grid = np.linspace(-37.0, 41.0, 97) + np.arange(len(sols))[:, None] * 0.731
            grid[:, :3] = [0.0, -0.0, 5e-324]
            _assert_stack_rows_are_evaluate(sols, grid)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.integers(0, len(_POOL) - 1), min_size=1, max_size=16),
           st.lists(st.floats(-1e4, 1e4), min_size=1, max_size=9))
    def test_rows_equal_each_solutions_evaluate(self, picks, times):
        # bit for bit, signed zeros included; row b runs its times rolled by b
        for sols in _by_formula([_POOL[i] for i in picks]):
            grid = np.array([np.roll(times, b) for b in range(len(sols))], dtype=float)
            _assert_stack_rows_are_evaluate(sols, grid)

    def test_subnormal_starts_keep_their_bits(self):
        # turning points at phase 0: u = rate t is subnormal on these times, and
        # so is each row's start lead u.  A row levels short of its stack enters
        # the padded levels at that start times 2^(levels short), exactly; a
        # lead scaled by that power rounds the start twice, which changes the
        # final amplitude on some of these times
        data = {  # (formula, AGM levels) -> datum
            ("neg", 3): (0.0, -0.06258846973417675, 0.27518429969875413, 4.566920690450678),
            ("neg", 8): (0.0, 0.9267953605703747, -4.979913627643845, 1.6209175285335369),
            ("pos", 4): (0.0, -0.8923395591241015, -3.467821553239001, 0.09850278010909042),
            ("pos", 7): (0.0, -0.09447763515278584, 1.779859896267192, 0.05740739471236822),
        }
        sols = [make_solution(InitialData(*d)) for d in data.values()]
        assert [(s._curve.formula.__name__[1:4], len(s._curve.params[0]._aa), s.phase)
                for s in sols] == [(*key, 0.0) for key in data]
        ts = np.arange(1, 4097) * 5e-324 * 3.0  # up to 6e-320
        for pair in (sols[:2], sols[2:]):
            _assert_stack_rows_are_evaluate(pair, np.array([ts, ts]))

    def test_refuses_mixed_formulas_and_non_finite_times(self):
        neg = make_solution(BRANCH_CASES[Branch.NEG][1])
        cusp = make_solution(BRANCH_CASES[Branch.ZERO_CUSP][1])
        with pytest.raises(DomainError, match="one closed-form formula"):
            trajectory.evaluate_stacked([neg, cusp], [[0.0], [0.0]])
        with pytest.raises(DomainError, match="one closed-form formula"):
            trajectory.evaluate_stacked([], np.zeros((0, 3)))
        with pytest.raises(DomainError, match="t must be finite"):
            trajectory.evaluate_stacked([neg, neg], [[0.0, 1.0], [np.inf, 1.0]])
        # a 1-D grid broadcasts against the (B, 1) columns
        assert trajectory.evaluate_stacked([neg, neg], [0.0, 1.0, 2.0])[0].shape == (2, 3)


# --- batched construction ----------------------------------------------------


def _wide_box(n, seed=0):
    """ROADMAP's wide box: four magnitudes, each 0 with probability 0.1, else
    10^U[-6, 6], then signs for x0, y0, z0 (rho >= 0); as Python floats."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        v = [0.0 if rng.uniform() < 0.1 else 10.0 ** rng.uniform(-6.0, 6.0) for _ in range(4)]
        signs = rng.choice([-1.0, 1.0], 3)
        yield InitialData(*(float(a * s) for a, s in zip(v, signs)), v[3])


def _bits(v):
    """v with every float as its raw float64 bits, signed zeros included:
    through tuples, lists, dataclasses and the AGM schemes' levels."""
    if isinstance(v, float):
        return np.float64(v).view(np.int64).item()
    if isinstance(v, complex):
        return _bits((v.real, v.imag))
    if isinstance(v, (tuple, list)):
        return tuple(map(_bits, v))
    if isinstance(v, elliptic.AGM):
        return _bits((v.k, v.K, v.E, v._lead, v._aa, v._bb, v._cc))
    if dataclasses.is_dataclass(v):
        return type(v), _bits(tuple(vars(v).values()))
    return v  # None, a bool, a tag, a closed-form function


def _built(solutions) -> list:
    """Each solution's fields in bits, then (index, type, message) of the first refusal."""
    out = []
    try:
        for sol in solutions:
            out.append(_bits(sol))
    except HeisenmagError as exc:
        out.append((len(out), type(exc), str(exc)))
    return out


def _batch_pool():
    """The branch cases and TRIVIAL as floats, each x0 > 0 datum mirrored to
    -x0, and wide-box data, some of which make_solution refuses."""
    data = [InitialData(*map(float, vars(d).values())) for _, d in ALL_CASES]
    data += [InitialData(0.0, 0.0, 0.0, 1.0), InitialData(-0.0, 0.5, 0.25, 2.0)]
    data += [dataclasses.replace(d, x0=-d.x0) for d in data if d.x0 > 0.0]
    return data + list(_wide_box(80, seed=3))


_BATCH_POOL = _batch_pool()


class TestMakeSolutions:
    def test_pool_covers_every_branch_mirror_and_refusal(self):
        tags, refusals = set(), set()
        for d in _BATCH_POOL:
            try:
                tags.add(make_solution(d).profile.branch)
            except HeisenmagError as exc:
                refusals.add(type(exc).__name__)
        assert tags == set(Branch)
        assert any(d.x0 < 0.0 for d in _BATCH_POOL)
        assert {"DomainError", "BranchConsistencyError"} <= refusals

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, len(_BATCH_POOL) - 1), max_size=24))
    def test_equals_one_at_a_time(self, picks):
        # every field bit for bit, and the first refusal at the same index
        data = [_BATCH_POOL[i] for i in picks]
        assert _built(trajectory.make_solutions(data)) == _built(make_solution(d) for d in data)

    def test_wide_box_in_batches(self):
        data = list(_wide_box(1500))
        for start in range(0, len(data), 100):
            chunk = data[start:start + 100]
            assert _built(trajectory.make_solutions(chunk)) == _built(map(make_solution, chunk))

    @pytest.mark.parametrize("values", [(1e100, 0, 0, 1), (1e154, 1, 1, 1), (1e50, 0.5, 0.2, 1)])
    def test_overflow_falls_back_to_make_solution(self, values):
        # numpy's power gives inf where Python's ** raises: the batch sees the
        # overflow and builds each datum with make_solution (1e50 builds in it)
        data = [InitialData(0.5, 0.3, -0.2, 1.0), InitialData(*map(float, values))]
        assert _built(trajectory.make_solutions(data)) == _built(map(make_solution, data))

    def test_rows_without_a_bracket_raise_in_draw_order(self, monkeypatch):
        # with no bracket holding z0 + rho, a POS datum's float build raises
        # IntervalError and its row is tagged None
        monkeypatch.setattr(quartic, "_BRACKET_BAND", -1.0)
        pos, neg = BRANCH_CASES[Branch.POS_LOW][1], BRANCH_CASES[Branch.NEG][1]
        cols = InitialData(*np.array([list(vars(d).values()) for d in (neg, pos)], float).T)
        with np.errstate(all="ignore"):  # the strata a row does not take run on it too
            assert quartic.build_profile(cols).branch.tolist() == [Branch.NEG, None]
        for data in ([neg, pos, neg], [pos, neg]):
            built = _built(trajectory.make_solutions(data))
            assert built == _built(map(make_solution, data)) and built[-1][1] is IntervalError

    def test_profiles_come_from_one_column_build(self, monkeypatch):
        # one build_profile call on the columns, and no datum that builds
        # goes through make_solution
        def refuse(data):
            raise AssertionError("make_solutions built a datum with make_solution")

        calls = []
        build = trajectory.build_profile
        monkeypatch.setattr(trajectory, "build_profile", lambda d: calls.append(d) or build(d))
        monkeypatch.setattr(trajectory, "make_solution", refuse)
        data = _BATCH_POOL[:len(ALL_CASES) + 2]  # the branch cases and TRIVIAL
        assert len(list(trajectory.make_solutions(data))) == len(data)
        assert len(calls) == 1 and len(calls[0].x0) == len(data)
