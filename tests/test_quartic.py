"""Quartic profile construction, discriminant strata, branch tags."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heisenmag import quartic
from heisenmag.acceptance import _ALL_BRANCHES, _first_integral_drift, representative_data
from heisenmag.errors import DomainError, HeisenmagError
from heisenmag.quartic import (
    Branch,
    InitialData,
    build_profile,
    discriminant,
    monic_coefficients,
    mu_r_closed_forms,
    speed_quartic,
)
from heisenmag.trajectory import make_solution

CBRT2 = 2.0 ** (1.0 / 3.0)


class TestCoefficients:
    def test_neg_representative(self):
        # x0 = y0 = 0, z0 = -rho gives p0 = 2, q0 = 0, Delta = -496
        prof = build_profile(InitialData(0, 0, -1, 1))
        assert prof.p0 == 2.0
        assert prof.q0 == 0.0
        assert prof.delta == -496.0
        assert prof.branch is Branch.NEG

    def test_p_at_start_is_x0_squared(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            data = InitialData(*rng.uniform(-3, 3, 4))
            prof = build_profile(data)
            speed_sq = -0.25 * speed_quartic(data.zr, prof.p0, prof.q0, prof.rho)
            assert abs(speed_sq - data.x0 ** 2) <= 1e-10 * max(1.0, data.x0 ** 2)

    def test_p_prime_at_start(self):
        rng = np.random.default_rng(1)
        h = 1e-6
        for _ in range(50):
            data = InitialData(*rng.uniform(-2, 2, 4))
            prof = build_profile(data)
            speed_sq = [-0.25 * speed_quartic(data.zr + s, prof.p0, prof.q0, prof.rho) for s in (h, -h)]
            deriv = (speed_sq[0] - speed_sq[1]) / (2 * h)
            expected = 2.0 * (data.rho - (data.y0 + 1.0) * data.zr)
            assert abs(deriv - expected) < 1e-7


class TestTrivial:
    def test_flag(self):
        assert InitialData(0, 0, 0, 1).is_trivial  # (y0+1)(z0+rho) = rho
        assert not InitialData(0, -1, 0, 1).is_trivial
        assert not InitialData(0.5, 0, 0, 1).is_trivial

    def test_branch(self):
        assert build_profile(InitialData(0, 0, 0, 1)).branch is Branch.TRIVIAL


class TestZeroStratum:
    def test_cusp_representative(self):
        prof = build_profile(InitialData(0, 2, 2, 1))
        assert prof.p0 == -3.0 and prof.q0 == -3.0
        assert prof.delta == 0.0
        assert prof.branch is Branch.ZERO_CUSP
        assert prof.r_double == -1.0
        assert prof.mu == 0.0

    def test_mu_positive_representative(self):
        prof = build_profile(InitialData(0, -1.5 * CBRT2 - 1.0, -1.0, 1.0))
        assert prof.branch is Branch.ZERO_MU_POS
        assert abs(prof.r_double + CBRT2 ** 2) < 1e-12
        assert abs(prof.mu - 1.5 * CBRT2) < 1e-12

    def test_mu_negative_right(self):
        prof = build_profile(
            InitialData(0, 2 * (2 ** (2 / 3)) - 1, 2.5 * CBRT2 - 1, 1)
        )
        assert prof.branch is Branch.ZERO_MU_NEG_RIGHT
        assert prof.mu < 0

    def test_mu_negative_left(self):
        prof = build_profile(InitialData(0, 2, -4.75, 1))
        assert prof.branch is Branch.ZERO_MU_NEG_LEFT
        assert prof.r_double == -0.25
        assert prof.mu == -3.9375

    def test_closed_forms_match_root(self):
        # rational r formula against the numerically repeated root
        for data in (
            InitialData(0, 2, -4.75, 1),
            InitialData(0, 2 * (2 ** (2 / 3)) - 1, 2.5 * CBRT2 - 1, 1),
            InitialData(3, -3.25, -1.25, 2.25),
        ):
            prof = build_profile(data)
            forms = mu_r_closed_forms(prof)
            assert abs(forms["r_formula"] - prof.r_double) < 1e-8
            assert abs(forms["mu_formula"] - prof.mu) < 1e-9 * max(1.0, abs(prof.mu))

    def test_closed_forms_reject_cusp(self):
        prof = build_profile(InitialData(0, 2, 2, 1))
        with pytest.raises(DomainError):
            mu_r_closed_forms(prof)

    def test_closed_forms_reject_vanishing_denominator(self):
        # rho = 0 and p0 = 0 exactly: p0^3 - p0 q0 + 36 rho^2 = 0 off the cusp
        prof = build_profile(InitialData(0, -0.9921875, 0.125, 0))
        assert prof.mu is not None and prof.p0 == 0.0 and prof.rho == 0.0
        with pytest.raises(DomainError, match="denominator"):
            mu_r_closed_forms(prof)

    # |p0|, |q0|, |rho| stay below ~1e76 on every profile build_profile
    # returns: past that its discriminant overflows
    _coefficient = st.one_of(
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324]),
        st.floats(-1e76, 1e76, allow_nan=False, allow_infinity=False),
    )

    @settings(max_examples=300, deadline=None)
    @given(_coefficient, _coefficient, _coefficient)
    def test_closed_forms_raise_only_typed_errors(self, p0, q0, rho):
        base = build_profile(InitialData(0, 2, -4.75, 1))
        prof = dataclasses.replace(base, p0=p0, q0=q0, rho=rho)
        try:
            forms = mu_r_closed_forms(prof)
        except HeisenmagError:
            return
        assert set(forms) == {"r_formula", "mu_formula"}

    @pytest.mark.parametrize("rho", [1e-3, 0.1, 0.5, 2.0, 5.0, 100.0, 1000.0])
    @pytest.mark.parametrize("branch", _ALL_BRANCHES, ids=lambda b: b.value)
    def test_every_anchor_keeps_its_tag_away_from_the_default_rho(self, branch, rho):
        # the stated rho takes ZERO_MU_NEG_RIGHT off its written-out datum at rho = 4
        assert build_profile(representative_data(branch, rho)).branch is branch

    @pytest.mark.parametrize("rho", [0.5, 1.0, 3.5])
    def test_cusp_anchors_keep_their_tag(self, rho):
        prof = build_profile(representative_data(Branch.ZERO_CUSP, rho))
        assert prof.branch is Branch.ZERO_CUSP
        assert prof.mu == 0.0

    def test_cusp_band_is_in_eta4_units(self):
        # z0 + rho dominates: two root clusters near +-(z0 + rho), not a triple
        # root; a band in scale^4 tagged it ZERO_CUSP and built x(1.23e-5) =
        # 1.31e-6 where the Taylor oracle gives 2.29e-6
        data = InitialData(
            0.09705465603312724, -657852.6440832185, -0.016337706933550872, 0.038187968317787306
        )
        try:
            sol = make_solution(data)
        except HeisenmagError:
            return
        assert _first_integral_drift(sol, data) <= 1e-9 * data.scale() ** 2


class TestPositiveStratum:
    def test_high_interval(self):
        # z0 + rho = 0 lands exactly on r3
        data = InitialData(0, -4, -1, 1)
        prof = build_profile(data)
        assert prof.branch is Branch.POS_HIGH
        assert prof.k1 is not None and prof.k1 < 1.0

    def test_low_interval(self):
        data = InitialData(0, -2.75, -2, 1)
        prof = build_profile(data)
        assert prof.branch is Branch.POS_LOW
        reals = sorted(r.real for r in prof.roots)
        assert abs(reals[1] + 1.0) < 1e-9  # z0 + rho = -1 is r2

    def test_exactly_one_interval(self):
        rng = np.random.default_rng(9)
        found = 0
        while found < 50:
            roots = np.sort(rng.normal(0, 1.5, 4))
            roots -= roots.mean()
            if np.min(np.diff(roots)) < 0.05:
                continue
            e2 = sum(roots[i] * roots[j] for i in range(4) for j in range(i + 1, 4))
            e3 = sum(
                roots[i] * roots[j] * roots[k]
                for i in range(4)
                for j in range(i + 1, 4)
                for k in range(j + 1, 4)
            )
            p0, rho = e2 / 2.0, e3 / 8.0
            zr = rng.uniform(roots[0], roots[1]) if found % 2 else rng.uniform(roots[2], roots[3])
            y0 = 0.5 * (p0 + zr * zr) - 1.0
            q0 = float(np.prod(roots))
            val = -0.25 * (((zr * zr + 2 * p0) * zr - 8 * rho) * zr + q0)
            if val <= 1e-8:
                continue
            data = InitialData(math.sqrt(val), y0, zr - rho, rho)
            prof = build_profile(data)
            if prof.branch not in (Branch.POS_LOW, Branch.POS_HIGH):
                continue
            assert prof.branch is (Branch.POS_LOW if found % 2 else Branch.POS_HIGH)
            found += 1


class TestRandomCensus:
    def test_discriminant_sign_matches_root_count(self):
        rng = np.random.default_rng(42)
        boundary = 0
        for _ in range(10_000):
            data = InitialData(*rng.uniform(-3, 3, 4))
            p0, q0 = monic_coefficients(data)
            delta = discriminant(p0, q0, data.rho)
            prof = build_profile(data)
            scale = max(1.0, abs(2 * p0), abs(8 * data.rho) ** (2 / 3), abs(q0) ** 0.5)
            if abs(delta) <= 1e-9 * scale ** 6 or prof.branch is Branch.TRIVIAL:
                boundary += 1
                continue
            n_real = sum(1 for r in prof.roots if abs(r.imag) <= 1e-7 * max(1.0, abs(r)))
            if delta > 0:
                assert n_real == 4
            else:
                assert n_real == 2
        assert boundary < 50

    def test_viete_residuals(self):
        rng = np.random.default_rng(43)
        for _ in range(2000):
            data = InitialData(*rng.uniform(-3, 3, 4))
            prof = build_profile(data)
            r = np.array(prof.roots)
            rscale = max(1.0, float(np.max(np.abs(r))))
            e1 = np.sum(r)
            e2 = sum(r[i] * r[j] for i in range(4) for j in range(i + 1, 4))
            e3 = sum(
                r[i] * r[j] * r[k]
                for i in range(4)
                for j in range(i + 1, 4)
                for k in range(j + 1, 4)
            )
            e4 = np.prod(r)
            assert abs(e1) < 1e-9 * rscale
            assert abs(e2 - 2 * prof.p0) < 1e-9 * rscale ** 2
            assert abs(e3 - 8 * data.rho) < 1e-9 * rscale ** 3
            assert abs(e4 - prof.q0) < 1e-9 * rscale ** 4

    def test_neg_stratum_moduli_and_distance_relation(self):
        rng = np.random.default_rng(44)
        checked = 0
        while checked < 500:
            data = InitialData(*rng.uniform(-3, 3, 4))
            prof = build_profile(data)
            if prof.branch is not Branch.NEG:
                continue
            assert 0.0 < prof.k < 1.0
            lhs = prof.delta1 ** 2 - prof.delta4 ** 2
            rhs = 2.0 * prof.r1 ** 2 - 2.0 * prof.r4 ** 2
            assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(rhs))
            checked += 1

    def test_root_ordering(self):
        prof = build_profile(InitialData(0.5, 0.2, -0.3, 1.0))
        assert prof.branch is Branch.NEG
        assert prof.roots[0].imag == 0.0 and prof.roots[1].imag == 0.0
        assert prof.roots[0].real < prof.roots[1].real
        assert prof.roots[3].imag > 0.0  # r3-analog carries +Im
        assert abs(prof.roots[2] - prof.roots[3].conjugate()) < 1e-12


class TestOverflow:
    @pytest.mark.parametrize(
        "values",
        [(1e100, 0, 0, 1), (0, 1e80, 0, 1), (1, 0, 0, 1e80), (1e200, 0, 0, 0), (1e154, 1, 1, 1)],
    )
    def test_overflowing_data_is_domain_error(self, values):
        data = InitialData(*map(float, values))
        with pytest.raises(DomainError):
            build_profile(data)
        with pytest.raises(DomainError):
            make_solution(data)

    def test_large_data_still_builds(self):
        sol = make_solution(InitialData(1e50, 0.5, 0.2, 1.0))
        assert sol.profile.branch is Branch.NEG

    def test_quartic_roots_overflow_is_domain_error(self):
        # Python's ** overflows on the floats; numpy's power gives inf, and
        # the array row still holds the finite roots the formulas make of it
        with pytest.raises(DomainError):
            quartic.quartic_roots(1e100, 1.0, 1.0)
        row = quartic.quartic_roots(np.array([1e100]), np.array([1.0]), np.array([1.0]))[0]
        assert np.all(np.isfinite(row))
        assert abs(abs(row[3]) - math.sqrt(2e100)) <= 1e-12 * math.sqrt(2e100)

    def test_newton_stops_on_nan_residual(self):
        assert quartic._newton(1.0, lambda v: (math.nan, None)) == 1.0
        assert quartic._newton(1.0, lambda v: (math.nan, v + 1.0)) == 1.0
