"""Elliptic integrals and Jacobi elliptic functions.

Everything here uses the modulus k convention (not the parameter m = k^2):

    K(k) = integral_0^{pi/2} dtheta / sqrt(1 - k^2 sin^2 theta)

and similarly for E and Pi.  Callers that need only the complete integrals
K and E call complete_K_and_E, an AGM loop that keeps no sequence.  The
kernel object AGM(k) runs the same scheme once and keeps its levels for
descend and F: its descending Landen (AGM phase) recurrence gives the
amplitude am(u) with argument reduction modulo the real period, which keeps
full accuracy as k -> 1 where scipy.special.ellipj does not, together with
Jacobi's zeta function Z(u) from the same phases, so Jacobi's epsilon
E(am u, k) = (E/K) u + Z(u) costs no further integral.  The ascending
phases on the same scheme give F(phi, k), the inverse of the amplitude.
The complete third kind runs the same AGM with one more sequence (DLMF
19.8(i)), summed so that no term cancels.  The tests cross-check the whole
kernel against direct quadrature of the defining integrals and against
50-digit mpmath.
"""

from __future__ import annotations

import math

import numpy as np

from ._ops import SCALAR, ops
from .errors import ConvergenceError, DomainError, check_finite

__all__ = [
    "AGM",
    "complete_K",
    "complete_K_and_E",
    "complete_Pi",
    "ellip_f",
    "jacobi_sn_cn_dn",
    "appendix_integrals",
    "legendre_relation_defect",
]

_EPS = 2.220446049250313e-16


def _check_modulus(k: float) -> None:
    if not 0.0 <= k < 1.0:
        raise DomainError(f"modulus k must satisfy 0 <= k < 1, got {k}")


def _agm_scheme(k: float) -> tuple[list[float], list[float], list[float], float]:
    """AGM sequences (a_n, b_n, c_n) from a0 = 1, b0 = k', and sum 2^(n-1) c_n^2;
    b_n is kept, since a_n - 2 c_{n+1} cancels as k -> 1, where b_0 is small."""
    kp2 = (1.0 - k) * (1.0 + k)
    a, b, c = 1.0, math.sqrt(kp2), k
    aa, bb, cc = [a], [b], [c]
    c_sum, weight = 0.5 * c ** 2, 1.0  # weight 2^(n-1), doubled exactly
    for _ in range(64):
        if abs(c) <= _EPS * a:
            break
        a, b, c = 0.5 * (a + b), math.sqrt(a * b), 0.5 * (a - b)
        aa.append(a)
        bb.append(b)
        cc.append(c)
        c_sum += weight * c ** 2
        weight += weight
    else:
        raise ConvergenceError("AGM failed to converge")
    return aa, bb, cc, c_sum


class AGM:
    """The AGM scheme of one modulus k, run once.

    K = pi / (2 a_N) and E = K (1 - sum 2^(n-1) c_n^2) are stored from the
    scheme's one loop, descend(u) runs the descending Landen recurrence on
    it and F(phi) the ascending one (A&S 17.6), so a caller that evaluates
    many points of one modulus, or inverts one, runs the AGM once.
    """

    __slots__ = ("k", "K", "E", "_lead", "_pad", "_aa", "_bb", "_cc")

    def __init__(self, k: float) -> None:
        _check_modulus(k)
        self._aa, self._bb, self._cc, c_sum = _agm_scheme(k)
        self.k = k
        self.K = math.pi / (2.0 * self._aa[-1])
        self.E = self.K * (1.0 - c_sum)
        self._lead = 2.0 ** (len(self._aa) - 1) * self._aa[-1]  # 2^N a_N
        self._pad = 1.0  # 2^(levels added on top); a stack's (B, 1) column

    @classmethod
    def stack(cls, agms: list[AGM]) -> AGM:
        """The schemes as one for (B, n) u, each level a (B, 1) column and each row bit for bit
        its own: m levels short, it halves its start times _pad = 2^m on levels a = 1, c = 0."""
        st, n = cls.__new__(cls), max(len(g._aa) for g in agms)
        cols = np.array([(g.k, g.K, g.E, g._lead, 2.0 ** m, *g._aa, *[1.0] * m, *g._cc, *[0.0] * m)
                         for g, m in ((g, n - len(g._aa)) for g in agms)]).T[..., None]
        st.k, st.K, st.E, st._lead, st._pad = cols[:5]
        st._aa, st._cc, st._bb = list(cols[5:5 + n]), list(cols[5 + n:]), None
        return st

    def descend(self, u):
        """(phi, turns, Z(u)) with am(u) = phi + 2 pi turns, turns = floor(u / 4K).

        phi is the amplitude of u - 4K turns (am(u + 4K) = am(u) + 2 pi);
        Jacobi's zeta function Z(u) = sum_n c_n sin phi_n over the descent's
        phases gives Jacobi's epsilon E(am u, k) = (E/K) u + Z(u)
        (DLMF 22.16(iii)).  At k = 0 the amplitude is u itself.  u may be a
        finite float (turns is then an int) or an array, descended level by level.
        """
        m = ops(u)
        if m is SCALAR:
            check_finite(u=u)
        if self._bb is not None and self.k == 0.0:  # one scheme; a stack has no _bb
            return u, 0, 0.0
        turns = m.floor(u / (4.0 * self.K))
        phi = self._lead * (u - 4.0 * self.K * turns) * self._pad
        zeta = 0.0
        for a, c in zip(self._aa[:0:-1], self._cc[:0:-1]):  # levels N, ..., 1
            s = m.sin(phi)
            zeta += c * s
            # c_n < a_n, so |c_n / a_n * s| <= 1 after rounding too: no clamp
            phi = 0.5 * (phi + m.asin(c / a * s))
        return m.where(self.k == 0.0, u, phi), turns, zeta  # a stack's rows at k = 0

    def F(self, phi: float) -> float:
        """F(phi, k) for any finite phi from the ascending phases
        tan(phi_{n+1} - phi_n) = (b_n / a_n) tan phi_n, phi_0 = phi, as
        phi_N / (2^N a_N) (A&S 17.6.9).  The step's arctangent lags phi_n by
        less than pi/2, so math.remainder modulo 2 pi puts it in phi_n's turn
        exactly; no reduction modulo a rounded pi costs digits near pi/2."""
        check_finite(phi=phi)
        aa = self._aa
        for a, b in zip(aa, self._bb[:-1]):
            lag = phi - math.atan2(b * math.sin(phi), a * math.cos(phi))
            phi = 2.0 * phi - math.remainder(lag, math.tau)
        return phi / self._lead

    def sn_cn_dn(self, am):
        """sn, cn, dn at amplitude am (a float or an array); dn from
        k'^2 + k^2 cn^2, stable near k -> 1."""
        m = ops(am)
        sn, cn = m.sin(am), m.cos(am)
        return sn, cn, m.sqrt((1.0 - self.k) * (1.0 + self.k) + (self.k * cn) ** 2)


def complete_K(k: float) -> float:
    """Complete elliptic integral of the first kind via the AGM."""
    return complete_K_and_E(k)[0]


def complete_K_and_E(k: float) -> tuple[float, float]:
    """K(k) and E(k) from one AGM run that keeps no level, for callers that
    need only the complete integrals.

    The updates, the c_n^2 terms and the order of their sum are those of
    _agm_scheme, and the weight 2^(n-1) doubles exactly, so both equal
    AGM(k).K and AGM(k).E bit for bit.
    """
    _check_modulus(k)
    a, b, c = 1.0, math.sqrt((1.0 - k) * (1.0 + k)), k
    c_sum = 0.5 * c ** 2
    weight = 1.0
    for _ in range(64):
        if abs(c) <= _EPS * a:
            break
        a, b, c = 0.5 * (a + b), math.sqrt(a * b), 0.5 * (a - b)
        c_sum += weight * c ** 2
        weight += weight
    else:
        raise ConvergenceError("AGM failed to converge")
    big_k = math.pi / (2.0 * a)
    return big_k, big_k * (1.0 - c_sum)


# --- Incomplete integrals --------------------------------------------------


def ellip_f(phi: float, k: float) -> float:
    """Incomplete first-kind integral F(phi, k) for any real phi."""
    return AGM(k).F(phi)


def complete_Pi(alpha2: float, k: float) -> float:
    """Complete third-kind integral Pi(alpha^2, k) for finite alpha^2 < 1.

    The AGM form of DLMF 19.8.6-7, Pi = pi / (4 AGM(1, k')) (2 + alpha^2 /
    (1 - alpha^2) sum Q_n) with p_0^2 = 1 - alpha^2, is summed as
    sum Q_n (1 - eps_n) + Q_n / p_0^2, since 2 - sum Q_n = sum Q_n (1 - eps_n)
    and 1 - eps_n = 2 a_n g_n / (p_n^2 + a_n g_n): for alpha^2 <= 0 no term
    is negative.  Where 2 (1 - alpha^2) < k'^2 the sums run at
    p_0^2 = 1 - N = k'^2 / (1 - alpha^2) instead, and (alpha^2 - k^2) Pi(alpha^2)
    = alpha^2 (1 - N) Pi(N) - k^2 K (t -> k'^2 / t in Carlson's R_J) becomes
    Pi = pi / (4 AGM(1, k')) (2 + alpha^2 / (1 - alpha^2) sum Q_n (1 - eps_n)),
    again with no term negative.
    """
    _check_modulus(k)
    if not -math.inf < alpha2 < 1.0:
        raise DomainError(f"third-kind integral needs a finite alpha^2 < 1, got {alpha2}")
    kp2, p2 = (1.0 - k) * (1.0 + k), 1.0 - alpha2
    near_pole = 2.0 * p2 < kp2
    a, g, p = 1.0, math.sqrt(kp2), math.sqrt(kp2 / p2 if near_pole else p2)
    q, q_sum, q_eps_sum = 1.0, 0.0, 0.0  # Q_n, sum Q_n, sum Q_n (1 - eps_n)
    for _ in range(64 + max(0, math.frexp(p)[1])):  # p_n halves while well above a_n
        pp, ag = p * p, a * g
        term = q * 2.0 * ag / (pp + ag)
        if q_eps_sum + term == q_eps_sum and q_sum + q == q_sum and abs(a - g) <= _EPS * a:
            break
        q_sum, q_eps_sum = q_sum + q, q_eps_sum + term
        q *= 0.5 * (pp - ag) / (pp + ag)
        p, a, g = 0.5 * (pp + ag) / p, 0.5 * (a + g), math.sqrt(ag)
    else:
        raise ConvergenceError(f"third-kind AGM failed to converge at alpha^2 = {alpha2}, k = {k}")
    bracket = 2.0 + alpha2 * q_eps_sum / p2 if near_pole else q_eps_sum + q_sum / p2
    return math.pi / (4.0 * a) * bracket


# --- Jacobi elliptic functions ----------------------------------------------


def jacobi_sn_cn_dn(u: float, k: float) -> tuple[float, float, float]:
    """sn, cn, dn at (u, k), from the reduced amplitude."""
    agm = AGM(k)
    return agm.sn_cn_dn(agm.descend(u)[0])


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
