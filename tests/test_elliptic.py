"""Elliptic kernel against quadrature oracles of the defining integrals."""

import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from heisenmag import elliptic as el
from heisenmag.errors import DomainError


def k_first_integrand(k):
    return lambda t: 1.0 / math.sqrt(1.0 - (k * math.sin(t)) ** 2)


def quad_oracle(f, a, b):
    val, _ = quad(f, a, b, epsabs=1e-13, epsrel=1e-13, limit=400)
    return val


def sn_cn_dn(agm, u):
    """sn, cn, dn at u on one AGM scheme, from the reduced amplitude."""
    return agm.sn_cn_dn(agm.descend(u)[0])


def amplitude(agm, u):
    """am(u) = phi + 2 pi turns from the Landen descent."""
    phi, turns, _ = agm.descend(u)
    return phi + 2.0 * math.pi * turns


class TestCompleteIntegrals:
    def test_k_at_zero(self):
        assert abs(el.complete_K(0.0) - math.pi / 2.0) < 1e-15

    def test_e_at_zero(self):
        assert abs(el.AGM(0.0).E - math.pi / 2.0) < 1e-15

    def test_e_is_the_scheme_sum_bit_for_bit(self):
        # E is stored from the scheme's loop, with the sum taken term by term,
        # and the list-free loop of complete_K_and_E gives the same bits
        rng = np.random.default_rng(43)
        ks = [0.0, 5e-324, 1e-310, *rng.uniform(0.0, 1.0, 2000),
              *(1.0 - 10.0 ** rng.uniform(-16, -1, 2000))]
        for k in map(float, ks):
            agm = el.AGM(k)
            terms = (2.0 ** (n - 1) * c ** 2 for n, c in enumerate(agm._cc))
            assert agm.E == agm.K * (1.0 - sum(terms)), k
            assert type(agm.E) is float
            assert el.complete_K_and_E(k) == (agm.K, agm.E), k
            assert el.complete_K(k) == agm.K, k

    def test_k_against_quadrature(self):
        for k in (0.1, 0.5, 0.77, 0.95):
            oracle = quad_oracle(k_first_integrand(k), 0.0, math.pi / 2.0)
            assert abs(el.complete_K(k) - oracle) < 1e-12

    def test_k_monotone_near_one(self):
        assert el.complete_K(0.999) > el.complete_K(0.99) > el.complete_K(0.9)

    def test_pi_reduces_to_k(self):
        for k in (0.2, 0.6):
            assert abs(el.complete_Pi(0.0, k) - el.complete_K(k)) < 1e-14

    def test_pi_against_quadrature(self):
        for alpha2, k in ((-0.3, 0.4), (-2.0, 0.8), (0.5, 0.3)):
            oracle = quad_oracle(
                lambda t: 1.0
                / ((1.0 - alpha2 * math.sin(t) ** 2) * math.sqrt(1.0 - (k * math.sin(t)) ** 2)),
                0.0,
                math.pi / 2.0,
            )
            assert abs(el.complete_Pi(alpha2, k) - oracle) < 1e-12

    def test_domain_errors(self):
        for bad in (-0.1, 1.0, 1.5):
            with pytest.raises(DomainError):
                el.complete_K(bad)
        with pytest.raises(DomainError):
            el.complete_Pi(1.0, 0.5)

    def test_e_below_k(self):
        for k in np.linspace(0.01, 0.99, 25):
            big_k, big_e = el.complete_K_and_E(float(k))
            assert 0.0 < big_e < big_k

    def test_legendre_relation(self):
        for k in np.linspace(0.01, 0.99, 50):
            assert abs(el.legendre_relation_defect(float(k))) < 1e-12


class TestIncompleteIntegrals:
    def test_f_against_quadrature(self):
        for phi, k in ((0.3, 0.5), (1.2, 0.8), (2.5, 0.4), (4.0, 0.6)):
            oracle = quad_oracle(k_first_integrand(k), 0.0, phi)
            assert abs(el.ellip_f(phi, k) - oracle) < 1e-12

    def test_epsilon_from_landen_phases(self):
        # Jacobi's epsilon E(am u, k) = (E/K) u + Z(u), Z from the descent
        for k in (0.0, 0.5, 0.99, 1.0 - 1e-8, 1.0 - 1e-12):
            agm = el.AGM(k)
            for u in (-37.1, -0.4, 0.0, 2.9, 61.0):
                phi, turns, zeta = agm.descend(u)
                am = phi + 2.0 * math.pi * turns
                with mpmath.workdps(30):
                    oracle = float(mpmath.ellipe(am, mpmath.mpf(k) ** 2))
                epsilon = agm.E / agm.K * u + zeta
                assert abs(epsilon - oracle) <= 1e-13 * max(1.0, abs(oracle))

    def test_oddness(self):
        assert abs(el.ellip_f(-1.1, 0.6) + el.ellip_f(1.1, 0.6)) < 1e-14

    def test_f_against_mpmath(self):
        # k ~ U[0, 1) and k = 1 - 10^U[-14, -1]; phi in [0, pi], then any real phi
        rng = np.random.default_rng(11)
        for i in range(800):
            k = rng.uniform(0.0, 1.0) if i % 2 else 1.0 - 10.0 ** rng.uniform(-14.0, -1.0)
            phi = rng.uniform(0.0, math.pi) if i < 600 else rng.uniform(-40.0, 40.0)
            with mpmath.workdps(40):
                oracle = mpmath.ellipf(phi, mpmath.mpf(k) ** 2)
            assert abs(el.ellip_f(phi, k) - oracle) <= 2e-13 * abs(oracle), (phi, k)

    def test_f_reuses_the_scheme(self):
        agm = el.AGM(0.8)
        assert agm.F(0.0) == 0.0
        assert agm.F(math.pi / 2.0) == pytest.approx(agm.K, rel=1e-15)
        assert agm.F(math.pi) == pytest.approx(2.0 * agm.K, rel=1e-15)
        assert el.AGM(0.0).F(2.5) == 2.5


class TestJacobiFunctions:
    def test_at_zero(self):
        for k in (0.0, 0.4, 0.9):
            sn, cn, dn = el.jacobi_sn_cn_dn(0.0, k)
            assert sn == 0.0 and cn == 1.0 and abs(dn - 1.0) < 1e-15

    def test_k_zero_is_trigonometric(self):
        agm = el.AGM(0.0)
        for u in (-2.0, 0.4, 7.0):
            sn, cn, _ = sn_cn_dn(agm, u)
            assert abs(cn - math.cos(u)) < 1e-15
            assert abs(sn - math.sin(u)) < 1e-15

    def test_large_modulus_approaches_sech(self):
        # cn(u, k) -> sech(u) as k -> 1
        u = 1.3
        gaps = [
            abs(sn_cn_dn(el.AGM(k), u)[1] - 1.0 / math.cosh(u)) for k in (0.9, 0.999, 0.9999999)
        ]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-6

    def test_pythagorean_identities(self):
        rng = np.random.default_rng(2)
        for _ in range(10_000):
            u = rng.uniform(-50.0, 50.0)
            k = rng.uniform(0.0, 0.9999)
            sn, cn, dn = el.jacobi_sn_cn_dn(u, k)
            assert abs(sn * sn + cn * cn - 1.0) < 1e-12
            assert abs(dn * dn + (k * sn) ** 2 - 1.0) < 1e-12

    def test_periodicity(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            u = rng.uniform(-20.0, 20.0)
            k = rng.uniform(0.05, 0.99)
            agm = el.AGM(k)
            period = 4.0 * agm.K
            sn, cn, dn = sn_cn_dn(agm, u)
            assert abs(sn_cn_dn(agm, u + period)[1] - cn) < 1e-11
            assert abs(sn_cn_dn(agm, u + period)[0] - sn) < 1e-11
            assert abs(sn_cn_dn(agm, u + period / 2.0)[2] - dn) < 1e-11

    def test_am_inverts_f(self):
        for phi, k in ((0.4, 0.3), (1.1, 0.8)):
            u = el.ellip_f(phi, k)
            assert abs(amplitude(el.AGM(k), u) - phi) < 1e-13

    def test_sn_is_derivative_consistent(self):
        # dn = d(am)/du by finite differences
        u, h = 0.8, 1e-6
        agm = el.AGM(0.6)
        d_am = (amplitude(agm, u + h) - amplitude(agm, u - h)) / (2 * h)
        assert abs(d_am - sn_cn_dn(agm, u)[2]) < 1e-9


class TestInverses:
    """F(arccos v) and F(arcsin v) on one AGM are the principal inverses of cn
    and sn, the way each branch inverts its closed form at x = 0."""

    def test_inverse_cn_endpoints(self):
        for k in (0.2, 0.7):
            agm = el.AGM(k)
            assert agm.F(math.acos(1.0)) == 0.0
            assert abs(agm.F(math.acos(-1.0)) - 2.0 * agm.K) < 1e-12

    def test_inverse_cn_round_trip(self):
        agm = el.AGM(0.6)
        assert abs(sn_cn_dn(agm, agm.F(math.acos(0.3)))[1] - 0.3) < 1e-12

    def test_inverse_sn_round_trip(self):
        for v, k in ((0.0, 0.5), (0.85, 0.3), (-0.6, 0.8)):
            agm = el.AGM(k)
            assert abs(sn_cn_dn(agm, agm.F(math.asin(v)))[0] - v) < 1e-12


class TestAppendixIntegrals:
    def test_k_zero_closed_forms(self):
        vals = el.appendix_integrals(1.0, 2.0, 0.0)
        assert abs(vals["I1"] - 2.0 * math.pi / math.sqrt(3.0)) < 1e-14
        assert abs(vals["I2"] - 4.0 * math.pi / 3.0 ** 1.5) < 1e-14

    def test_negative_b(self):
        vals = el.appendix_integrals(1.0, -2.0, 0.0)
        assert abs(vals["I1"] + 2.0 * math.pi / math.sqrt(3.0)) < 1e-14
        assert abs(vals["I2"] - 4.0 * math.pi / 3.0 ** 1.5) < 1e-14

    def test_against_quadrature(self):
        for a, b, k in ((0.7, 1.3, 0.5), (0.5, 3.0, 0.9), (2.5, -3.0, 0.2)):
            vals = el.appendix_integrals(a, b, k)
            agm = el.AGM(k)
            period = 4.0 * agm.K
            i1 = quad_oracle(lambda s: 1.0 / (a * sn_cn_dn(agm, s)[1] + b), 0.0, period)
            i2 = quad_oracle(lambda s: 1.0 / (a * sn_cn_dn(agm, s)[1] + b) ** 2, 0.0, period)
            assert abs(vals["I1"] - i1) < 1e-10
            assert abs(vals["I2"] - i2) < 1e-10

    def test_domain(self):
        with pytest.raises(DomainError):
            el.appendix_integrals(2.0, 1.0, 0.5)
        with pytest.raises(DomainError):
            el.appendix_integrals(0.0, 1.0, 0.5)
