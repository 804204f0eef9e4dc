"""Elliptic integrals and Jacobi elliptic functions.

Everything here uses the modulus k convention (not the parameter m = k^2):

    K(k) = integral_0^{pi/2} dtheta / sqrt(1 - k^2 sin^2 theta)

and similarly for E and Pi.  One kernel object, AGM(k), runs the AGM scheme
of a modulus once: K and E are read off it, and its descending Landen
(AGM phase) recurrence gives the amplitude am(u) with argument reduction
modulo the real period, which keeps full accuracy as k -> 1 where
scipy.special.ellipj does not, together with Jacobi's zeta function Z(u)
from the same phases, so Jacobi's epsilon E(am u, k) = (E/K) u + Z(u)
costs no further integral.  The ascending phases on the same scheme give
F(phi, k), the inverse of the amplitude.  Only the complete third kind
goes through the Carlson symmetric forms RF and RJ of scipy.special
(Carlson's duplication algorithm, DLMF 19.36).  The tests cross-check the
whole kernel against direct quadrature of the defining integrals.
"""

from __future__ import annotations

import math

from scipy.special import elliprf, elliprj

from ._ops import ops
from .errors import ConvergenceError, DomainError

__all__ = [
    "AGM",
    "complete_K",
    "complete_K_and_E",
    "complete_Pi",
    "ellip_f",
    "jacobi_sn_cn_dn",
    "inverse_cn",
    "inverse_sn",
    "appendix_integrals",
    "legendre_relation_defect",
]

_EPS = 2.220446049250313e-16
_INVERSE_BAND = 1e-12  # round-off admitted in an inverse_cn / inverse_sn argument


def _check_modulus(k: float) -> None:
    if not 0.0 <= k < 1.0:
        raise DomainError(f"modulus k must satisfy 0 <= k < 1, got {k}")


def _agm_scheme(k: float) -> tuple[list[float], list[float], list[float]]:
    """AGM sequences (a_n, b_n, c_n) for a0 = 1, b0 = k' = sqrt(1 - k^2); b_n
    is kept, since a_n - 2 c_{n+1} cancels as k -> 1, where b_0 is small."""
    kp2 = (1.0 - k) * (1.0 + k)
    a, b, c = 1.0, math.sqrt(kp2), k
    aa, bb, cc = [a], [b], [c]
    for _ in range(64):
        if abs(c) <= _EPS * a:
            break
        a, b, c = 0.5 * (a + b), math.sqrt(a * b), 0.5 * (a - b)
        aa.append(a)
        bb.append(b)
        cc.append(c)
    else:
        raise ConvergenceError("AGM failed to converge")
    return aa, bb, cc


class AGM:
    """The AGM scheme of one modulus k, run once.

    K = pi / (2 a_N) and E = K (1 - sum 2^(n-1) c_n^2) are read off it,
    descend(u) runs the descending Landen recurrence on it and F(phi) the
    ascending one (A&S 17.6), so a caller that evaluates many points of one
    modulus, or inverts one, runs the AGM once.
    """

    __slots__ = ("k", "K", "_aa", "_bb", "_cc")

    def __init__(self, k: float) -> None:
        _check_modulus(k)
        self._aa, self._bb, self._cc = _agm_scheme(k)
        self.k = k
        self.K = math.pi / (2.0 * self._aa[-1])

    @property
    def E(self) -> float:
        """E(k), computed on access: complete_K needs none of it."""
        return self.K * (1.0 - sum(2.0 ** (n - 1) * c ** 2 for n, c in enumerate(self._cc)))

    def descend(self, u):
        """(phi, turns, Z(u)) with am(u) = phi + 2 pi turns, turns = floor(u / 4K).

        phi is the amplitude of u - 4K turns (am(u + 4K) = am(u) + 2 pi);
        Jacobi's zeta function Z(u) = sum_n c_n sin phi_n over the descent's
        phases gives Jacobi's epsilon E(am u, k) = (E/K) u + Z(u)
        (DLMF 22.16(iii)).  At k = 0 the amplitude is u itself.  u may be a
        float (turns is then an int) or an array, descended level by level.
        """
        if self.k == 0.0:
            return u, 0, 0.0
        m = ops(u)
        aa, cc = self._aa, self._cc
        turns = m.floor(u / (4.0 * self.K))
        n = len(aa) - 1
        phi = (2.0 ** n) * aa[n] * (u - 4.0 * self.K * turns)
        zeta = 0.0
        for i in range(n, 0, -1):
            s = m.sin(phi)
            zeta += cc[i] * s
            # c_n < a_n, so |c_n / a_n * s| <= 1 after rounding too: no clamp
            phi = 0.5 * (phi + m.asin(cc[i] / aa[i] * s))
        return phi, turns, zeta

    def F(self, phi: float) -> float:
        """F(phi, k) for any real phi from the ascending phases
        tan(phi_{n+1} - phi_n) = (b_n / a_n) tan phi_n, phi_0 = phi, as
        phi_N / (2^N a_N) (A&S 17.6.9).  The step's arctangent lags phi_n by
        less than pi/2, so math.remainder modulo 2 pi puts it in phi_n's turn
        exactly; no reduction modulo a rounded pi costs digits near pi/2."""
        aa = self._aa
        for a, b in zip(aa, self._bb[:-1]):
            lag = phi - math.atan2(b * math.sin(phi), a * math.cos(phi))
            phi = 2.0 * phi - math.remainder(lag, math.tau)
        return phi / (2.0 ** (len(aa) - 1) * aa[-1])

    def sn_cn_dn(self, am):
        """sn, cn, dn at amplitude am (a float or an array); dn from
        k'^2 + k^2 cn^2, stable near k -> 1."""
        m = ops(am)
        sn, cn = m.sin(am), m.cos(am)
        return sn, cn, m.sqrt((1.0 - self.k) * (1.0 + self.k) + (self.k * cn) ** 2)


def complete_K(k: float) -> float:
    """Complete elliptic integral of the first kind via the AGM."""
    return AGM(k).K


def complete_K_and_E(k: float) -> tuple[float, float]:
    """K(k) and E(k) from a single AGM run."""
    agm = AGM(k)
    return agm.K, agm.E


# --- Incomplete integrals --------------------------------------------------


def ellip_f(phi: float, k: float) -> float:
    """Incomplete first-kind integral F(phi, k) for any real phi."""
    return AGM(k).F(phi)


def complete_Pi(alpha2: float, k: float) -> float:
    """Complete third-kind integral Pi(alpha^2, k) for alpha^2 < 1."""
    _check_modulus(k)
    if alpha2 >= 1.0:
        raise DomainError(
            f"third-kind integral needs alpha^2 < 1, got {alpha2}"
        )
    if alpha2 == 0.0:
        return complete_K(k)
    kp2 = (1.0 - k) * (1.0 + k)
    return float(
        elliprf(0.0, kp2, 1.0) + (alpha2 / 3.0) * elliprj(0.0, kp2, 1.0, 1.0 - alpha2)
    )


# --- Jacobi elliptic functions ----------------------------------------------


def jacobi_sn_cn_dn(u: float, k: float) -> tuple[float, float, float]:
    """sn, cn, dn at (u, k), from the reduced amplitude."""
    agm = AGM(k)
    return agm.sn_cn_dn(agm.descend(u)[0])


def inverse_cn(v: float, k: float) -> float:
    """Principal inverse of cn: the u in [0, 2K] with cn(u, k) = v."""
    _check_modulus(k)
    if abs(v) > 1.0 + _INVERSE_BAND:
        raise DomainError(f"inverse_cn argument must lie in [-1, 1], got {v}")
    return AGM(k).F(math.acos(min(1.0, max(-1.0, v))))


def inverse_sn(v: float, k: float) -> float:
    """Principal inverse of sn: the u in [-K, K] with sn(u, k) = v."""
    _check_modulus(k)
    if abs(v) > 1.0 + _INVERSE_BAND:
        raise DomainError(f"inverse_sn argument must lie in [-1, 1], got {v}")
    return AGM(k).F(math.asin(min(1.0, max(-1.0, v))))


# --- Reference closed forms used by the verification corpus -----------------


def appendix_integrals(a: float, b: float, k: float) -> dict[str, float]:
    """Closed forms of int_0^{4K} ds/(A cn + B) and its squared version.

    Valid for 0 < A^2 < B^2:

        I1 = 4B/(B^2-A^2) Pi(-A^2/(B^2-A^2), k)
        I2 = 4B^2((1-2k^2)A^2 + 2k^2 B^2)
                 / ((B^2-A^2)^2 ((1-k^2)A^2 + k^2 B^2)) * Pi(-A^2/(B^2-A^2), k)
             + 4A^2 E(k) / ((B^2-A^2)((1-k^2)A^2 + k^2 B^2))
             - 4K(k)/(B^2-A^2)

    At k = 0 the range 4K(0) = 2 pi is one period of cos and the values
    collapse to sgn(B) 2 pi / sqrt(B^2-A^2) and 2|B| pi / (B^2-A^2)^{3/2}.
    """
    _check_modulus(k)
    a2, b2 = a * a, b * b
    if not 0.0 < a2 < b2:
        raise DomainError(
            f"appendix integrals require 0 < A^2 < B^2, got A={a}, B={b}"
        )
    big_k, big_e = complete_K_and_E(k)
    k2 = k * k
    diff = b2 - a2
    pi_val = complete_Pi(-a2 / diff, k)
    denom = (1.0 - k2) * a2 + k2 * b2
    i1 = 4.0 * b / diff * pi_val
    i2 = (
        4.0 * b2 * ((1.0 - 2.0 * k2) * a2 + 2.0 * k2 * b2)
        / (diff * diff * denom)
        * pi_val
        + 4.0 * a2 * big_e / (diff * denom)
        - 4.0 * big_k / diff
    )
    return {"I1": i1, "I2": i2}


def legendre_relation_defect(k: float) -> float:
    """E(k)K(k') + E(k')K(k) - K(k)K(k') - pi/2; zero in exact arithmetic."""
    _check_modulus(k)
    if k == 0.0:
        raise DomainError("legendre relation needs 0 < k < 1")
    kp = math.sqrt((1.0 - k) * (1.0 + k))
    big_k, big_e = complete_K_and_E(k)
    big_kp, big_ep = complete_K_and_E(kp)
    return big_e * big_kp + big_ep * big_k - big_k * big_kp - math.pi / 2.0
