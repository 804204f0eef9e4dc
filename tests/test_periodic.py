"""Periodicity: the (c,d,e) chart, Psi, d_c, energy, lattices."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from heisenmag import acceptance, elliptic, periodic
from heisenmag.elliptic import complete_K_and_E
from heisenmag.errors import ConvergenceError, DomainError, LambdaNotFoundError
from heisenmag.heisenberg import HeisenbergPoint
from heisenmag.periodic import (
    GammaLattice,
    LatticeElement,
    build_periodic,
    cde_from_initial,
    energy_cde,
    energy_of_c,
    exact_periodic_family,
    find_lambda_periodic,
    initial_from_cde,
    lambda_periodic_residual,
    lattice_obstruction_check,
    primitive_period,
    psi,
    psi_tilde,
    solve_c_for_energy,
    solve_dc,
)
from heisenmag.quartic import Branch, InitialData, build_profile
from heisenmag.trajectory import ExactTrajectory, make_solution


def y_over_period_quad(sol):
    """Reference y(omega): adaptive quadrature of y' = h(x) - 1 over a period."""
    val, _ = quad(
        lambda s: sol.data.h(sol.x(s)) - 1.0,
        0.0,
        sol.x_period,
        epsabs=1e-13,
        epsrel=1e-13,
        limit=400,
    )
    return val


def assert_matches_quadrature(sol):
    y = sol.y_over_period()
    assert abs(y - y_over_period_quad(sol)) < 1e-12 * max(1.0, abs(y))
    return y


def _below_floor(solve, *args):
    with pytest.raises(DomainError, match="smallest resolvable"):
        solve(*args)


class TestChart:
    def test_round_trip(self):
        rng = np.random.default_rng(21)
        for _ in range(1000):
            c = rng.uniform(0.3, 3.0)
            d = rng.uniform(0.05, 0.95)
            e = rng.uniform(-0.999, 0.999)
            rho = rng.uniform(0.0, 2.0)
            data = initial_from_cde(c, d, e, rho)
            cde = cde_from_initial(data)
            assert abs(cde.c - c) < 1e-9
            assert abs(cde.d - d) < 1e-9
            assert abs(cde.e - e) < 1e-9

    def test_covers_neg_stratum(self):
        data = initial_from_cde(1.4, 0.5, 0.2, 1.0)
        assert build_profile(data).branch is Branch.NEG
        assert data.x0 >= 0.0

    def test_e_extremes_mean_turning_point(self):
        for e in (-1.0, 1.0):
            data = initial_from_cde(1.3, 0.4, e, 0.7)
            assert abs(data.x0) < 1e-12

    def test_energy_matches_data(self):
        rng = np.random.default_rng(22)
        for _ in range(300):
            c, d, e, rho = (
                rng.uniform(0.4, 2.5),
                rng.uniform(0.05, 0.95),
                rng.uniform(-1, 1),
                rng.uniform(0, 2),
            )
            data = initial_from_cde(c, d, e, rho)
            assert abs(energy_cde(c, d, rho) - data.energy()) < 1e-10 * max(
                1.0, data.energy()
            )

    def test_rho_zero_c_is_root_of_norm(self):
        # c^2 equals sqrt(x0^2 + (y0+1)^2) when rho = 0
        data = initial_from_cde(1.7, 0.3, 0.4, 0.0)
        cde = cde_from_initial(data)
        assert abs(cde.c ** 2 - math.sqrt(data.norm_sq)) < 1e-10

    def test_roots_and_deltas(self):
        cde = cde_from_initial(initial_from_cde(1.5, 0.45, 0.1, 0.8))
        r1, r4, r2, r3 = cde.roots()
        prof = build_profile(initial_from_cde(cde.c, cde.d, cde.e, cde.rho))
        assert abs(r1 - prof.r1) < 1e-8
        assert abs(r4 - prof.r4) < 1e-8
        d1, d4 = cde.deltas()
        assert abs(d1 - prof.delta1) < 1e-8
        assert abs(d4 - prof.delta4) < 1e-8

    def test_rejects_other_strata(self):
        with pytest.raises(DomainError):
            cde_from_initial(InitialData(0, -4, -1, 1))  # four real roots


class TestPsi:
    def test_equals_y_over_period(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            c, d, e, rho = (
                rng.uniform(0.5, 2.2),
                rng.uniform(0.1, 0.9),
                rng.uniform(-1, 1),
                rng.uniform(0, 2),
            )
            sol = make_solution(initial_from_cde(c, d, e, rho))
            assert sol.profile.branch is Branch.NEG
            y = assert_matches_quadrature(sol)
            assert abs(psi(c, d, rho) - y) < 1e-8

    def test_independent_of_e(self):
        # psi takes no e: the curve built at every e has the y-increment it gives
        for e in (-1.0, 0.0, 0.3, 1.0):
            sol = make_solution(initial_from_cde(1.6, 0.4, e, 0.9))
            assert abs(sol.y_over_period() - psi(1.6, 0.4, 0.9)) < 1e-14

    def test_small_d_limit(self):
        for c, rho in ((1.7, 1.3), (2.4, 0.0), (1.2, 2.0)):
            limit = c ** 4 * (c * c - 1.0) * math.pi / (4.0 * (rho * rho + c ** 6))
            assert abs(psi_tilde(c, 1e-8, rho) - limit) < 1e-7

    def test_negative_for_small_c(self):
        for c in (0.5, 0.9, 1.0):
            for d in np.linspace(0.05, 0.95, 12):
                assert psi_tilde(c, float(d), 1.0) < 0.0

    def test_rho_zero_form(self):
        # Psi = 8c (E(d) - (1/(2c^2) + 1/2) K(d)) when rho = 0
        c, d = 1.8, 0.35
        big_k, big_e = complete_K_and_E(d)
        expected = 8.0 * c * (big_e - (0.5 / (c * c) + 0.5) * big_k)
        assert abs(psi(c, d, 0.0) - expected) < 1e-12

    def test_sign_structure_around_dc(self):
        c, rho = 1.8, 1.0
        d_c = solve_dc(c, rho)
        for d in (0.5 * d_c, 0.9 * d_c):
            assert psi(c, d, rho) > 0.0
        for d in (min(0.999, 1.1 * d_c), min(0.999, 1.5 * d_c)):
            assert psi(c, d, rho) < 0.0


class TestYOverPeriod:
    def test_positive_discriminant_negative(self):
        for data, branch in (
            (InitialData(0.2, -2.75, -2, 1), Branch.POS_LOW),
            (InitialData(0.3, -4, -1, 1), Branch.POS_HIGH),
        ):
            sol = make_solution(data)
            assert sol.profile.branch is branch
            assert assert_matches_quadrature(sol) < 0.0

    def test_mu_positive_closed_form(self):
        data = InitialData(2.0, -1.25, 1.5, 0.5)
        sol = make_solution(data)
        prof = sol.profile
        assert prof.branch is Branch.ZERO_MU_POS
        expected = (prof.p0 + prof.r_double ** 2 - 2.0) * math.pi / math.sqrt(prof.mu)
        assert abs(sol.y_over_period() - expected) < 1e-12
        assert assert_matches_quadrature(sol) < 0.0

    def test_no_period_error(self):
        with pytest.raises(DomainError):
            make_solution(InitialData(0, 2, 2, 1)).y_over_period()


class TestUniqueDc:
    def test_rejects_c_below_one(self):
        with pytest.raises(DomainError):
            solve_dc(0.99, 1.0)
        with pytest.raises(DomainError):
            solve_dc(1.0, 0.5)

    def test_rho_zero_implicit_equation(self):
        # E(d_c)/K(d_c) = 1/(2 c^2) + 1/2 at rho = 0
        d_c = solve_dc(2.0, 0.0)
        big_k, big_e = complete_K_and_E(d_c)
        assert abs(big_e / big_k - 0.625) < 1e-13

    def test_monotone_in_c(self):
        ds = [solve_dc(c, 1.0) for c in (1.5, 2.0, 3.0)]
        assert ds[0] < ds[1] < ds[2]

    def test_residual_tiny(self):
        for c in np.arange(1.1, 5.01, 0.1):
            d_c = solve_dc(float(c), 1.0)
            assert abs(psi_tilde(float(c), d_c, 1.0)) < 1e-12


class TestEnergyBijection:
    def test_vanishes_at_one(self):
        assert energy_of_c(1.0 + 1e-4, 1.0) < 1e-3

    def test_monotone(self):
        es = [energy_of_c(c, 1.0) for c in np.arange(1.1, 5.01, 0.1)]
        assert all(a < b for a, b in zip(es, es[1:]))

    def test_round_trip(self):
        for energy in (0.1, 1.0, 10.0):
            c = solve_c_for_energy(energy, 1.0)
            assert abs(energy_of_c(c, 1.0) - energy) < 1e-10
        for rho in (0.0, 0.3, 1.0, 3.0, 10.0):
            for energy in (1e-6, 0.05, 1.0, 20.0, 1e4, 1e8):
                c = solve_c_for_energy(energy, rho)
                assert abs(energy_of_c(c, rho) - energy) < 1e-10 * max(1.0, energy)

    def test_rejects_nonpositive_energy(self):
        with pytest.raises(DomainError):
            solve_c_for_energy(0.0, 1.0)

    def test_rejects_energy_below_resolvable_floor(self):
        # c = 1 + 1e-11 already carries energy 2.1e-10 at rho = 3
        with pytest.raises(DomainError, match="smallest resolvable"):
            solve_c_for_energy(1e-10, 3.0)
        with pytest.raises(DomainError):
            solve_c_for_energy(1e-9, 10.0)

    def test_psi_tilde_calls_per_solve(self, monkeypatch):
        calls = []

        def counted(c, d, rho):
            calls.append(d)
            return psi_tilde(c, d, rho)

        monkeypatch.setattr(periodic, "psi_tilde", counted)
        solve_c_for_energy(1.0, 1.0)
        assert 0 < len(calls) < 40

    @pytest.mark.parametrize("solve, most", [
        (lambda: build_periodic(1.0, 0.0, 1.0), 12),
        (lambda: solve_c_for_energy(1.0, 1.0), 10),
        (lambda: _below_floor(build_periodic, 1e-12, 0.3, 1.0), 2),
    ], ids=["build_periodic", "solve_c_for_energy", "below_floor"])
    def test_psi_evaluations_are_not_repeated(self, monkeypatch, solve, most):
        # Brent is handed the bracket's end values, solve_dc reads its
        # residual off Brent's last value, build_periodic's d starts from
        # the level-set solve's last value, and a refusal below the floor
        # names the floor by c, with no d_c solve
        calls = []
        parts = periodic._psi_parts

        def counted(c, d, rho):
            calls.append((c, d))
            return parts(c, d, rho)

        monkeypatch.setattr(periodic, "_psi_parts", counted)
        solve()
        assert 0 < len(calls) <= most

    @pytest.mark.parametrize("solve, expected", [
        (lambda: solve_c_for_energy(1.0, 1.0), 0),
        (lambda: solve_dc(2.0, 1.0), 0),
        (lambda: build_periodic(1.0, 0.0, 1.0), 1),
        (lambda: find_lambda_periodic(LatticeElement(0, 1.0, 0.5), 1.0, 1.0), 1),
    ], ids=["solve_c_for_energy", "solve_dc", "build_periodic", "find_lambda_periodic"])
    def test_psi_builds_no_agm_scheme(self, monkeypatch, solve, expected):
        # psi_tilde reads K and E off the list-free loop; only the built
        # solution keeps an AGM scheme
        builds = []
        init = elliptic.AGM.__init__

        def counted(self, k):
            builds.append(k)
            init(self, k)

        monkeypatch.setattr(elliptic.AGM, "__init__", counted)
        solve()
        assert len(builds) == expected

    def test_single_solve_on_the_level_set(self, monkeypatch):
        def nested(*args):
            raise AssertionError("nested d_c solve")

        monkeypatch.setattr(periodic, "solve_dc", nested)
        monkeypatch.setattr(periodic, "energy_of_c", nested)
        c = solve_c_for_energy(1.0, 1.0)
        assert abs(energy_cde(c, solve_dc(c, 1.0), 1.0) - 1.0) < 1e-10

    @pytest.mark.parametrize("rho", [0.0, 1.0, 3.0, 10.0])
    def test_floor_boundary(self, rho):
        floor = energy_of_c(periodic._C_FLOOR, rho)
        for factor in (0.5, 0.9):
            with pytest.raises(DomainError, match="smallest resolvable"):
                solve_c_for_energy(factor * floor, rho)
        for factor in (1.1, 2.0):
            assert solve_c_for_energy(factor * floor, rho) > periodic._C_FLOOR

    def test_unresolvable_rho_is_convergence_error(self):
        # psi_tilde(1 + 1e-11, 1e-12) underflows to 0: no sign change in d
        with pytest.raises(ConvergenceError):
            solve_c_for_energy(1.0, 1000.0)

    @pytest.mark.parametrize("energy, rho, named", [
        (1.0, 1e200, "rho=1e+200"),  # rho^2 overflows to inf
        (1.0, 1e100, "rho=1e+100"),  # Python's ** overflows on (rho^2 + c^6)^2
        (1e300, 1.0, "energy 1e+300"),  # its c lies far past the bracket
        (4.2e34, 0.0, "energy 4.2e+34"),  # just above the bound at the bracket's end
    ])
    def test_out_of_range_input_is_named(self, energy, rho, named):
        for solve in (solve_c_for_energy, lambda en, r: build_periodic(en, 0.0, r)):
            with pytest.raises(DomainError) as info:
                solve(energy, rho)
            assert named in str(info.value)

    def test_energy_just_below_the_ceiling_bound_solves(self):
        assert solve_c_for_energy(4e34, 0.0) > 1e8

    def test_level_set_inverts_the_energy(self):
        # the energy of the returned d, evaluated exactly, is E to 8 ulp
        def exact_energy(c, d, rho):
            c, d, rho = Fraction(c), Fraction(d), Fraction(rho)
            return (c ** 4 + rho ** 2) * ((c * c - 1) ** 2 + 4 * c * c * d * d) / (2 * c ** 4)

        checked = 0
        for rho in (0.0, 0.3, 1.0, 3.0, 10.0, 100.0):
            for energy in (1e-6, 1e-3, 0.05, 1.0, 10.0, 1e4):
                for c in np.linspace(0.05, 30.0, 2000):
                    d = periodic._h_energy(float(c), energy, rho)
                    if 0.0 < d < 1.0:
                        en = float(exact_energy(float(c), d, rho))
                        assert abs(en - energy) <= 8 * math.ulp(energy)
                        checked += 1
        assert checked > 300

    def test_energy_cde_is_exact_to_8_ulp(self):
        # against the exact rational energy of the same float (c, d), along
        # the level sets where the expanded (c^2 - 1)^2 used to cancel
        cs = [1.0 + 10.0 ** -k for k in range(1, 16)] + np.linspace(1.05, 3.0, 40).tolist()
        checked = 0
        for rho in (0.0, 0.3, 1.0, 3.0, 10.0, 100.0):
            for energy in (1e-6, 1e-4, 1e-2, 1.0, 10.0):
                for c in cs:
                    d = periodic._h_energy(c, energy, rho)
                    if 0.0 < d < 1.0:
                        fc, fd, fr = Fraction(c), Fraction(d), Fraction(rho)
                        exact = float(
                            (fc ** 4 + fr * fr) * ((fc * fc - 1) ** 2 + 4 * fc * fc * fd * fd)
                            / (2 * fc ** 4)
                        )
                        assert abs(energy_cde(c, d, rho) - exact) <= 8 * math.ulp(exact)
                        checked += 1
        assert checked > 300


def _brent_families(rng):
    """Seeded (f, lo, hi) brackets, some with a flat or kinked root, some
    with an end exactly at the root."""
    a, b = rng.uniform(0.1, 5.0), rng.uniform(-2.0, 2.0)
    lo, hi = sorted(rng.uniform(-4.0, 4.0, 2).tolist())
    rho = 10.0 ** rng.uniform(-2.0, 1.0)
    return [
        (lambda x: math.sin(a * x) - b / 2.0, lo, hi),
        (lambda x: x ** 3 - a * x - b, lo, hi),
        (lambda x: math.expm1(a * x) - b, lo, hi),
        (lambda x: math.atan(a * (x - b)), lo, hi),
        (lambda x: a * (x - b) ** 5 + 1e-300, lo, hi),  # flat: often no convergence
        (lambda x: math.copysign(abs(x - b) ** 0.5, x - b), lo, hi),
        (lambda x: x - round(b), float(round(b)), hi + 3.0),  # f(lo) == 0
        (lambda d: psi_tilde(1.0 + a, d, rho), 1e-12, 1.0 - 1e-12),
    ]


def _narrow_psi_bracket(rng):
    """(f, lo, hi): psi_tilde in d around its root d_c, on a bracket of
    relative width 1e-12 to 1e-7, as build_periodic hands Brent."""
    c, rho = 1.0 + 10.0 ** rng.uniform(-3.0, 1.0), 10.0 ** rng.uniform(-2.0, 1.0)
    d_c = solve_dc(c, rho)
    width, u = 10.0 ** rng.uniform(-12.0, -7.0), rng.uniform()
    return (lambda d: psi_tilde(c, d, rho)), d_c * (1.0 - width * u), d_c * (1.0 + width * (1.0 - u))


def _matches_brentq(f, lo, hi) -> bool:
    """Whether _brent returns brentq's root on [lo, hi] (False where brentq
    fails, and then _brent must raise its message)."""
    from scipy.optimize import brentq

    f_lo, f_hi = f(lo), f(hi)
    try:
        root = brentq(f, lo, hi, xtol=periodic._XTOL, rtol=periodic._RTOL)
    except RuntimeError as exc:
        with pytest.raises(ConvergenceError, match=str(exc)):
            periodic._brent(f, lo, hi, f_lo, f_hi)
        return False
    x, f_x = periodic._brent(f, lo, hi, f_lo, f_hi)
    assert type(x) is float and x == root, (lo, hi)
    assert f_x == f(x)
    return True


class TestBrent:
    def test_failures_are_typed(self):
        with pytest.raises(ConvergenceError):
            periodic._brent(lambda x: 1.0, 0.0, 1.0, 1.0, 1.0)
        with pytest.raises(ConvergenceError):
            periodic._brent(lambda x: math.nan, 0.0, 1.0, math.nan, math.nan)

    def test_domain_error_passes_through(self):
        def f(x):
            raise DomainError("outside")

        with pytest.raises(DomainError):
            periodic._brent(f, 0.0, 1.0, -1.0, 1.0)

    def test_nan_inside_the_bracket_is_typed(self):
        with pytest.raises(ConvergenceError, match="is NaN"):
            periodic._brent(lambda x: math.nan, 0.0, 1.0, -1.0, 1.0)

    def test_matches_scipy_brentq_bit_for_bit(self):
        rng = np.random.default_rng(41)
        compared = failed = 0
        while compared < 10_000:
            for f, lo, hi in _brent_families(rng):
                if not f(lo) * f(hi) <= 0.0:
                    continue
                compared += 1
                failed += not _matches_brentq(f, lo, hi)
        assert 0 < failed < compared // 4
        # narrow brackets around psi_tilde roots, where the values are round-off
        rng = np.random.default_rng(43)
        compared = 0
        for _ in range(1_000):
            f, lo, hi = _narrow_psi_bracket(rng)
            if f(lo) * f(hi) <= 0.0:
                compared += 1
                assert _matches_brentq(f, lo, hi)
        assert compared > 500


class TestBuildPeriodic:
    def test_closure_grid(self):
        for energy in (0.1, 1.0, 10.0):
            for e in (-1.0, 0.0, 1.0):
                _, rep = build_periodic(energy, e, rho=1.0)
                assert rep["closure_x"] < 1e-7
                assert rep["closure_y"] < 1e-7
                assert rep["closure_z"] < 1e-7
                assert rep["energy_error"] < 1e-9

    @pytest.mark.parametrize("rho", [0.0, 0.3, 1.0, 3.0])
    def test_polished_d_closes_on_a_grid(self, rho):
        for energy in (0.05, 1.0, 20.0):
            for e in (-1.0, 0.0, 0.5):
                _, rep = build_periodic(energy, e, rho)
                c, d = rep["c"], rep["d"]
                f_d = psi_tilde(c, d, rho)
                assert abs(f_d) <= periodic._DC_TOL
                # a root to float resolution: psi_tilde is 0 at d or changes
                # sign within Brent's last bracket, 4 eps d wide
                below = above = d
                signs = []
                for _ in range(8):
                    below, above = math.nextafter(below, 0.0), math.nextafter(above, 1.0)
                    signs += (psi_tilde(c, below, rho) * f_d, psi_tilde(c, above, rho) * f_d)
                assert f_d == 0.0 or min(signs) <= 0.0
                closure = max(rep["closure_x"], rep["closure_y"], rep["closure_z"])
                assert closure < acceptance._CLOSURE_GATE

    def test_d_solves_beside_the_level_set(self, monkeypatch):
        # one new end value at h_E(c), then Brent on that narrow bracket
        def full_chart(*args):
            raise AssertionError("full-chart d_c solve")

        monkeypatch.setattr(periodic, "solve_dc", full_chart)
        _, rep = build_periodic(1.0, 0.0, 1.0)
        assert abs(rep["d"] / periodic._h_energy(rep["c"], 1.0, 1.0) - 1.0) < 1e-12

    def test_clamped_level_set_takes_the_full_chart_bracket(self, monkeypatch):
        c, rho = 1.5, 1.0
        calls = []
        monkeypatch.setattr(periodic, "solve_dc", lambda *a: calls.append(a) or solve_dc(*a))
        for h in (0.0, 1.0):
            f_h = psi_tilde(c, min(1.0 - 1e-12, max(1e-12, h)), rho)
            assert periodic._polish_dc(c, h, f_h, rho) == solve_dc(c, rho)
        assert len(calls) == 2

    def test_narrow_bracket_without_a_sign_change_takes_the_full_chart_bracket(
        self, monkeypatch
    ):
        # near c = 1, psi_tilde is round-off over the whole narrow bracket
        energy, rho = 2.4509799993097684e-10, 0.3595598393495029
        c, f_h = periodic._level_root(energy, rho)
        h = periodic._h_energy(c, energy, rho)
        f_far = psi_tilde(c, h * (1.0 + periodic._POLISH_BAND), rho)
        assert f_h > 0.0 and f_far >= 0.0
        calls = []
        monkeypatch.setattr(periodic, "solve_dc", lambda *a: calls.append(a) or solve_dc(*a))
        assert periodic._polish_dc(c, h, f_h, rho) == solve_dc(c, rho)
        assert len(calls) == 1
        # and build_periodic with a bracket of zero width
        monkeypatch.setattr(periodic, "_POLISH_BAND", 0.0)
        _, rep = build_periodic(1.0, 0.0, 1.0)
        assert rep["d"] == solve_dc(rep["c"], 1.0) and len(calls) == 2

    def test_period_matches_elliptic_formula(self):
        sol, rep = build_periodic(2.0, 0.0, rho=1.0)
        prof = sol.profile
        omega = 8.0 * complete_K_and_E(prof.k)[0] / math.sqrt(prof.delta1 * prof.delta4)
        assert abs(rep["period"] - omega) < 1e-12

    def test_full_curve_closes_everywhere(self):
        sol, rep = build_periodic(1.0, 0.4, rho=1.0)
        omega = rep["period"]
        for t in (0.3, 1.1, 2.9):
            p1, p2 = sol.point(t), sol.point(t + omega)
            assert max(abs(p1.x - p2.x), abs(p1.y - p2.y), abs(p1.z - p2.z)) < 1e-9

    @pytest.mark.parametrize("energy", [0.1, 1.0, 10.0])
    @pytest.mark.parametrize("rho", [0.0, 1.0])
    def test_outputs_are_python_floats(self, energy, rho):
        # a numpy scalar in the solver would carry into every field, and
        # slow down everything built on it
        _, rep = build_periodic(energy, 0.3, rho)
        data = rep["initial_data"]
        fields = {f.name: getattr(data, f.name) for f in dataclasses.fields(data)}
        for name, value in {**fields, "c": rep["c"], "d": rep["d"], "period": rep["period"]}.items():
            assert type(value) is float, name

    def test_e_within_the_chart_band_builds(self):
        # the chart admits |e| up to 1 + _CHART_BAND, and build_periodic with it
        _, rep = build_periodic(1.0, 1.0 + 5e-13, 1.0)
        assert rep["closure_x"] < 1e-7 and rep["closure_y"] < 1e-7 and rep["closure_z"] < 1e-7
        with pytest.raises(DomainError, match="build_periodic needs e in"):
            build_periodic(1.0, 1.0 + 2 * periodic._CHART_BAND, 1.0)


class TestExactFamily:
    def test_threshold(self):
        assert exact_periodic_family(2.0, 2.0) is None
        assert exact_periodic_family(2.1, 2.0) is None
        fam = exact_periodic_family(1.9, 2.0)
        assert fam is not None

    def test_threshold_values(self):
        fam = exact_periodic_family(1.0, 2.0)  # E = rho^2/4
        assert abs(fam.z0 - (-2.0 + math.sqrt(2.0))) < 1e-14
        assert abs(fam.radius_sq - (2.0 - fam.z0 ** 2)) < 1e-14

    def test_curve_closes(self):
        fam = exact_periodic_family(1.9, 2.0)
        for angle in (0.0, 1.0, 2.5):
            traj = fam.trajectory(angle)
            p = traj.point(traj.horizontal_period())
            assert max(abs(p.x), abs(p.y), abs(p.z)) < 1e-8

    def test_just_below_threshold_closes(self):
        fam = exact_periodic_family(1.999, 2.0)
        traj = fam.trajectory(0.3)
        p = traj.point(traj.horizontal_period())
        assert max(abs(p.x), abs(p.y), abs(p.z)) < 1e-7

    def test_rejects_zero_rho(self):
        with pytest.raises(DomainError):
            exact_periodic_family(0.5, 0.0)


class TestLambdaPeriodic:
    def test_gamma1_construction(self):
        lam = LatticeElement(0.0, 1.0, 0.5)
        res = find_lambda_periodic(lam, 1.0, 1.0)
        assert res.residual < 1e-7
        assert lambda_periodic_residual(res.trajectory, lam, res.omega) <= periodic._LAMBDA_RESIDUAL
        # energy preserved by the construction
        assert abs(res.base_solution.data.energy() - 1.0) < 1e-10

    def test_refusals(self):
        with pytest.raises(LambdaNotFoundError):
            find_lambda_periodic(LatticeElement(1.0, 0.0, 0.0), 1.0, 1.0)
        with pytest.raises(LambdaNotFoundError):
            find_lambda_periodic(LatticeElement(0.0, 0.0, 0.5), 1.0, 1.0)

    def test_negative_y1(self):
        lam = LatticeElement(0.0, -1.0, 0.25)
        res = find_lambda_periodic(lam, 1.0, 1.0)
        assert res.residual < 1e-7

    def test_center_relation(self):
        # z(omega) = -(z0 + rho) y(omega) on the base curve
        lam = LatticeElement(0.0, 1.0, 0.5)
        res = find_lambda_periodic(lam, 1.0, 1.0)
        sol = res.base_solution
        omega1 = res.base_period
        p = sol.point(omega1)
        assert abs(p.z + sol.data.zr * p.y) < 1e-9

    def test_kernel_condition(self, monkeypatch):
        # x1 != 0 is refused before any curve is built (kernel condition)
        def refuse(*args):
            raise AssertionError("built a curve for x1 != 0")

        monkeypatch.setattr(periodic, "solve_c_for_energy", refuse)
        monkeypatch.setattr(periodic, "make_solution", refuse)
        with pytest.raises(LambdaNotFoundError):
            find_lambda_periodic(LatticeElement(0.7, 1.0, 0.5), 1.0, 1.0)

    def test_residual_evaluates_the_curve_once(self):
        res = find_lambda_periodic(LatticeElement(0.0, 1.0, 0.5), 1.0, 1.0)
        calls = []

        class Counted:
            def point(self, ts):
                calls.append(len(ts))
                return res.trajectory.point(ts)

        residual = lambda_periodic_residual(Counted(), res.lam, res.omega)
        assert residual == lambda_periodic_residual(res.trajectory, res.lam, res.omega)
        assert calls == [2 * periodic._LAMBDA_GRID]

    def test_nan_curve_is_not_periodic(self):
        class NanCurve:
            def point(self, ts):
                nan = np.full_like(ts, math.nan)
                return HeisenbergPoint(nan, nan, nan)

        lam = LatticeElement(0.0, 1.0, 0.5)
        assert math.isnan(lambda_periodic_residual(NanCurve(), lam, 1.0))
        assert not lambda_periodic_residual(NanCurve(), lam, 1.0) <= periodic._LAMBDA_RESIDUAL

    def test_residual_reads_the_whole_group_law(self):
        # z0 + rho = 0: the curve is the subgroup exp(t V0), so lambda = sigma(2) with
        # x1 = 0.75 is a period; the x1 y(t)/2 term of the centre must enter
        curve = ExactTrajectory(InitialData(0.375, 0.25, -1.0, 1.0))
        assert curve.is_subgroup
        assert lambda_periodic_residual(curve, LatticeElement(0.75, 0.5, -2.0), 2.0) == 0.0
        assert lambda_periodic_residual(curve, LatticeElement(0.75, 0.5, -1.5), 2.0) == 0.5

    def test_conjugation_formula(self):
        # exp(a e1) exp(y1 e2 + z e3) exp(-a e1) = exp(y1 e2 + (z + a y1) e3)
        a, y1, z = 0.8, 1.5, -0.3
        p = HeisenbergPoint(a, 0.0, 0.0)
        q = HeisenbergPoint(0.0, y1, z)
        out = p * q * p.inverse()
        assert abs(out.x) < 1e-15
        assert abs(out.y - y1) < 1e-15
        assert abs(out.z - (z + a * y1)) < 1e-14

    @pytest.mark.parametrize("y1", [1e300, 1e20, -2.0 ** 29])
    def test_unresolved_lambda_is_named(self, y1):
        # the float spacing of y1 is above the absolute residual gate
        with pytest.raises(DomainError, match="lambda = "):
            find_lambda_periodic(LatticeElement(0.0, y1, 0.5), 1.0, 1.0)

    def test_huge_energy_is_named(self):
        with pytest.raises(DomainError, match="energy 1e"):
            find_lambda_periodic(LatticeElement(0.0, 1.0, 0.5), 1e300, 1.0)

    def test_larger_y1_needs_power_or_window(self):
        lam = LatticeElement(0.0, 5.0, 0.5)
        res = find_lambda_periodic(lam, 1.0, 1.0)
        assert res.residual < 1e-7
        assert abs(res.n * res.base_solution.point(res.base_period).y - 5.0) < 1e-8


class TestPrimitivePeriod:
    def test_collapse_to_generator(self):
        lam = LatticeElement(0.0, 1.0, 0.5)
        res = find_lambda_periodic(lam, 1.0, 1.0)
        lattice = GammaLattice(1)
        lam0, omega0 = primitive_period(res, lattice)
        assert (lam0.x1, lam0.y1, lam0.z1) == (0.0, 1.0, 0.5)
        assert abs(omega0 - res.omega) < 1e-9
        # the square is a period with twice the time
        sq = LatticeElement(0.0, 2.0, 1.0)
        assert lambda_periodic_residual(res.trajectory, sq, 2.0 * omega0) < 1e-9

    def test_distinct_primes_distinct_data(self):
        lattice = GammaLattice(1)
        firsts = {}
        for p in (2, 3):
            res = find_lambda_periodic(LatticeElement(0.0, float(p), 0.5), 1.0, 1.0)
            lam0, omega0 = primitive_period(res, lattice)
            firsts[p] = (lam0.y1, omega0)
        assert firsts[2] != firsts[3]

    def test_quotient_closure(self):
        lam = LatticeElement(0.0, 1.0, 0.5)
        res = find_lambda_periodic(lam, 1.0, 1.0)
        lattice = GammaLattice(1)
        g = res.trajectory.point(res.omega) * res.trajectory.point(0.0).inverse()
        assert lattice.distance(g) < 1e-7


class TestGammaLattice:
    def test_membership(self):
        lattice = GammaLattice(2)
        assert lattice.is_member(HeisenbergPoint(1.0, -3.0, 0.75))
        assert not lattice.is_member(HeisenbergPoint(0.5, 0.0, 0.0))

    def test_rejects_bad_k(self):
        with pytest.raises(DomainError):
            GammaLattice(0)
        with pytest.raises(DomainError):  # 1/2k would not be a float
            GammaLattice(10 ** 400)
        # Z x Z x (1/3) Z is no subgroup: (1, 0, 0) (0, 1, 0) = (1, 1, 1/2)
        with pytest.raises(DomainError, match="k = 1.5"):
            GammaLattice(1.5)
        for k in (2, np.int64(2), 2.0):
            assert GammaLattice(k).center_step == 0.25

    def test_snap_refuses_a_centre_past_the_float_range(self):
        # z / (1/2k) overflows; round() of the inf would raise OverflowError
        with pytest.raises(DomainError):
            GammaLattice(1).snap(HeisenbergPoint(0.0, 1.0, 1e308))


class TestObstruction:
    def test_rotated_lattice_blocks(self):
        basis = [[math.sqrt(3.0) / 2.0, 0.5], [-0.5, math.sqrt(3.0) / 2.0]]
        assert lattice_obstruction_check(basis) is False

    def test_standard_admits(self):
        assert lattice_obstruction_check([[1.0, 0.0], [0.0, 1.0]]) is True

    def test_rational_dependence(self):
        assert lattice_obstruction_check([[0.75, 0.5], [0.1, 0.9]]) is True
        assert lattice_obstruction_check([[1.0 / 3.0, 0.2], [1.0, 1.0]]) is True

    def test_zero_column_admits(self):
        assert lattice_obstruction_check([[0.0, 1.3], [1.0, 0.4]]) is True

    @pytest.mark.parametrize("basis", [
        [[1.0, 0.0], [0.0, 0.0]],  # a zero column
        [[1.0, 2.0], [2.0, 4.0]],  # parallel columns
        [[0.0, 0.0], [0.0, 0.0]],
        [[1.0, 1.0 + 1e-12], [1.0, 1.0]],
    ])
    def test_dependent_columns_are_refused(self, basis):
        with pytest.raises(DomainError, match="linearly dependent"):
            lattice_obstruction_check(basis)

    def test_scaled_bases_are_not_refused(self):
        assert lattice_obstruction_check([[1e-200, 0.0], [0.0, 1e-200]]) is True
        assert lattice_obstruction_check([[1e200, 0.0], [0.0, 1e200]]) is True
