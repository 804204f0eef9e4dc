"""Quartic profile of a magnetic initial condition for the force F_{e1,rho}.

The speed equation x'^2 = P(x + z0 + rho) reduces everything to the monic
quartic

    m(eta) = eta^4 + 2 p0 eta^2 - 8 rho eta + q0,     P = -m/4,

with p0 = 2(y0+1) - (z0+rho)^2 and
q0 = p0^2 + 8 rho (z0+rho) - 4 (x0^2 + (y0+1)^2).  The sign of the
discriminant Delta selects the closed-form solution branch: two real roots
(elliptic cn), four real roots (sn^2), or a repeated root (trigonometric,
hyperbolic, or rational profile).  This module builds the root data,
the derived deltas and moduli, and the branch tag.

The roots are closed forms: with no cubic term, Descartes' factorisation
into two quadratics needs only the largest root of the resolvent cubic
(Flocke, ACM TOMS 41(4), 2015, Algorithm 954), and each factor's own
discriminant says whether its pair is real, with no eigenvalue solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._ops import ops
from .errors import DomainError, IntervalError, check_finite

__all__ = [
    "InitialData",
    "Branch",
    "QuarticProfile",
    "build_profile",
    "mu_r_closed_forms",
    "discriminant",
    "monic_coefficients",
    "speed_quartic",
    "delta_band",
    "quartic_roots",
]

# relative half-width of the "value is zero" bands used for branch tags
_ZERO_TOL = 1e-9
_BRACKET_BAND = 1e-9  # overshoot of z0 + rho past a root bracket, relative to its span


@dataclass(frozen=True)
class InitialData:
    """Initial velocity (x0, y0, z0) at the identity and the force level rho.

    The fields may also be equal-length arrays, one datum per entry, for
    the batched formulas: build_profile and all it calls, h and body_velocity.
    """

    x0: float
    y0: float
    z0: float
    rho: float

    def __post_init__(self):
        check_finite(x0=self.x0, y0=self.y0, z0=self.z0, rho=self.rho)

    @property
    def norm_sq(self) -> float:
        """x0^2 + (y0+1)^2, the squared norm of V0 + e2."""
        pow_ = ops(self.x0).pow
        return pow_(self.x0, 2) + pow_(self.y0 + 1.0, 2)

    @property
    def zr(self) -> float:
        return self.z0 + self.rho

    def h(self, x: float) -> float:
        """h(x) = x^2/2 + (z0+rho) x + y0 + 1."""
        return 0.5 * x * x + self.zr * x + self.y0 + 1.0

    def h_prime(self, x: float) -> float:
        return x + self.zr

    def body_velocity(self, x, xp) -> tuple[float, float, float]:
        """(x', h(x) - 1, x + z0), the velocity in the body frame at x, x'."""
        return xp, self.h(x) - 1.0, x + self.z0

    def scale(self) -> float:
        return ops(self.x0).max(1.0, abs(self.x0), abs(self.y0), abs(self.z0), abs(self.rho))

    @property
    def is_trivial(self) -> bool:
        """x(t) = 0 identically iff x0 = 0 and (y0+1)(z0+rho) = rho."""
        s = self.scale()
        small = abs(self.x0) <= _ZERO_TOL * s
        if small is False:  # a float datum off x0 = 0; an array goes on
            return small
        return small & (abs((self.y0 + 1.0) * self.zr - self.rho) <= _ZERO_TOL * s * s)

    def energy(self) -> float:
        return 0.5 * (self.x0 ** 2 + self.y0 ** 2 + self.z0 ** 2)


class Branch(Enum):
    NEG = "NEG"  # Delta < 0: cn profile, periodic
    POS_LOW = "POS_LOW"  # Delta > 0, z0+rho in [r1, r2]
    POS_HIGH = "POS_HIGH"  # Delta > 0, z0+rho in [r3, r4]
    ZERO_MU_POS = "ZERO_MU_POS"  # Delta = 0, mu > 0: cosine profile
    ZERO_MU_NEG_RIGHT = "ZERO_MU_NEG_RIGHT"  # Delta = 0, mu < 0, z0+rho > r
    ZERO_MU_NEG_LEFT = "ZERO_MU_NEG_LEFT"  # Delta = 0, mu < 0, z0+rho < r
    ZERO_CUSP = "ZERO_CUSP"  # Delta = 0, p0^2 + 3 q0 = 0: rational profile
    TRIVIAL = "TRIVIAL"  # x(t) = 0


def monic_coefficients(data: InitialData) -> tuple[float, float]:
    """(p0, q0) of the monic quartic eta^4 + 2p0 eta^2 - 8 rho eta + q0."""
    p0 = 2.0 * (data.y0 + 1.0) - ops(data.zr).pow(data.zr, 2)
    q0 = p0 * p0 + 8.0 * data.rho * data.zr - 4.0 * data.norm_sq
    return p0, q0


def speed_quartic(eta, p0, q0, rho):
    """m(eta) = ((eta^2 + 2 p0) eta - 8 rho) eta + q0; floats or arrays."""
    return ((eta * eta + 2.0 * p0) * eta - 8.0 * rho) * eta + q0


def discriminant(p0: float, q0: float, rho: float) -> float:
    """Discriminant of the speed quartic; the standard one scaled by 1/256."""
    pow_ = ops(p0).pow
    r2 = rho * rho
    return (
        q0 * pow_(p0, 4)
        - 8.0 * r2 * pow_(p0, 3)
        - 432.0 * r2 * r2
        + 72.0 * r2 * q0 * p0
        - 2.0 * q0 * q0 * p0 * p0
        + pow_(q0, 3)
    )


def _coefficient_scale(p0: float, q0: float, rho: float) -> float:
    # weight eta ~ 1: p0 ~ eta^2, rho ~ eta^3, q0 ~ eta^4
    m = ops(p0)
    return m.max(1.0, abs(2.0 * p0), m.pow(abs(8.0 * rho), 2.0 / 3.0), m.pow(abs(q0), 0.5))


def _is_cusp(p0: float, q0: float, scale: float) -> bool:
    """p0^2 + 3 q0 = 0 within the zero band, in eta^4 units: the cusp stratum.
    scale is _coefficient_scale(p0, q0, rho)."""
    return abs(p0 * p0 + 3.0 * q0) <= _ZERO_TOL * ops(p0).pow(scale, 2)


def delta_band(p0: float, q0: float, rho: float) -> float:
    """Half-width of the band around Delta = 0 inside which the data count
    as the repeated-root stratum; floats or equal-length arrays."""
    return _band(_coefficient_scale(p0, q0, rho))


def _band(scale):
    return _ZERO_TOL * ops(scale).pow(scale, 6)


def _newton(x, update):
    """Newton steps from x while they lower the residual, at most four:
    near a double root the step is round-off, and this keeps it out.

    update(x) gives the residual at x and the point one Newton step from
    x, from one evaluation of the equations.  The steps give NaN where
    they would divide by zero, which stops them.  On arrays the rule holds
    per element.  An element whose step does not lower its residual (a NaN
    residual included) keeps its x and its step, so it stays stopped.
    """
    norm, cand = update(x)
    m = ops(norm)
    for _ in range(4):
        cand_norm, cand_next = update(cand)
        lower = cand_norm < norm  # a NaN residual stops it too
        if not m.any(lower):
            break
        x, norm, cand = m.where(lower, (cand, cand_norm, cand_next), (x, norm, cand))
    return x


def _resolvent_root(p0, q0, rho):
    """Largest root U >= 0 of U^3 + 4 p0 U^2 + 4 (p0^2 - q0) U - 64 rho^2."""
    m = ops(p0)
    c0 = -64.0 * rho * rho
    return m.select((c0 == 0.0,), (_factored_root, _cubic_root), p0, q0, rho, c0, m)


def _factored_root(p0, q0, rho, c0, m):
    """At c0 = 0 the cubic is U (U^2 + 4 p0 U + 4 (p0^2 - q0)): the
    quadratic's larger root, or 0."""
    return m.where(q0 >= 0.0, m.max(0.0, 2.0 * (m.sqrt(m.max(0.0, q0)) - p0)), 0.0)


def _cubic_root(p0, q0, rho, c0, m):
    """Cardano's or Viete's trigonometric form, then _newton on the cubic."""
    c2, c1 = 4.0 * p0, 4.0 * (p0 * p0 - q0)
    q = 4.0 * (p0 * p0 + 3.0 * q0) / 9.0
    r = -8.0 * (m.pow(p0, 3) - 9.0 * p0 * q0 + 108.0 * rho * rho) / 27.0

    def update(v):
        f = ((v + c2) * v + c1) * v + c0
        return abs(f), v - m.div(f, (3.0 * v + 2.0 * c2) * v + c1, math.nan)

    u = m.select((r * r < m.pow(q, 3),), (_viete, _cardano), q, r, m) - c2 / 3.0
    return m.max(0.0, _newton(u, update))


def _viete(q, r, m):
    """The largest root of the depressed cubic when all three are real."""
    theta = m.acos(m.min(1.0, m.max(-1.0, r / (q * m.sqrt(q)))))
    return -2.0 * m.sqrt(q) * m.cos((theta + 2.0 * math.pi) / 3.0)


def _cardano(q, r, m):
    """The real root of the depressed cubic when it has one."""
    big = -m.copysign(m.pow(abs(r) + m.sqrt(r * r - m.pow(q, 3)), 1.0 / 3.0), r)
    return big + m.div(q, big, 0.0)


def _descartes_factors(p0, q0, rho, scale):
    """m = (eta^2 + s eta + a)(eta^2 - s eta + b), as (discriminant, s, a) per factor.

    a + b = 2 p0 + s^2, s (b - a) = -8 rho, a b = q0: the larger of a, b
    comes from the first two (from the first and third at s = 0, rho = 0),
    the smaller from a b = q0, and Newton steps on all three take out the
    error that close resolvent roots leave in s^2.  scale is
    _coefficient_scale(p0, q0, rho).
    """
    m = ops(p0)
    u = _resolvent_root(p0, q0, rho)
    s = m.sqrt(u)
    total = 2.0 * p0 + u  # a + b
    diff = m.div(-8.0 * rho, s, m.sqrt(m.max(0.0, total * total - 4.0 * q0)))
    signed = m.copysign(diff, total)
    big = 0.5 * (total + signed)
    small = m.div(q0, big, 0.0)
    a, b = m.where(signed == diff, (small, big), (big, small))
    w1, w2 = scale, m.sqrt(scale)  # the three equations in eta^4 units

    def update(x):
        s, a, b = x
        f1, f2, f3 = a + b - s * s - 2.0 * p0, s * (b - a) + 8.0 * rho, a * b - q0
        det = 2.0 * s * s * (a + b) + m.pow(b - a, 2)
        ds = m.div(s * ((a + b) * f1 - 2.0 * f3) - (b - a) * f2, det, math.nan)
        dsum = 2.0 * s * ds - f1  # da + db
        ddiff = m.div(-(f2 + (b - a) * ds), s, math.nan)  # db - da
        norm = abs(f1) * w1 + abs(f2) * w2 + abs(f3)
        return norm, (s + ds, a + 0.5 * (dsum - ddiff), b + 0.5 * (dsum + ddiff))

    s, a, b = _newton((s, a, b), update)
    return (s * s - 4.0 * a, s, a), (s * s - 4.0 * b, -s, b)


def _factor_roots(disc, s, c, real: bool):
    """Roots of eta^2 + s eta + c: a real pair without cancellation
    (disc clamped at 0) when real is set, else the complex pair, -Im first."""
    m = ops(s)
    if real:
        big = -0.5 * (s + m.copysign(m.sqrt(m.max(0.0, disc)), s))
        return big + 0.0, m.div(c, big, 0.0)  # + 0.0 turns a -0.0 root into 0.0
    w = 0.5 * m.sqrt(m.max(0.0, -disc))
    return m.complex(-0.5 * s, -w), m.complex(-0.5 * s, w)


def quartic_roots(p0, q0, rho) -> np.ndarray:
    """The four roots of the speed quartic from Descartes' factorisation.

    p0, q0, rho are floats, or equal-length arrays with one row of four
    roots per entry; a row equals the roots of its floats bit for bit.
    Where Python's ** overflows on the floats, as at (1e100, 1, 1), they
    raise DomainError, while numpy's power gives inf and the row holds
    whatever the formulas make of it: finite roots at (1e100, 1, 1).
    """
    m = ops(p0)
    roots = []
    with m.quiet():
        try:  # Python's float ** raises on overflow where numpy gives inf
            factors = _descartes_factors(p0, q0, rho, _coefficient_scale(p0, q0, rho))
        except OverflowError as exc:
            raise DomainError(f"the speed quartic ({p0}, {q0}, {rho}) overflows a float") from exc
        for f in factors:
            roots += m.select((f[0] >= 0.0,), (lambda: _factor_roots(*f, True),
                                               lambda: _factor_roots(*f, False)))
    return np.array(roots, dtype=complex).T


@dataclass(frozen=True)
class QuarticProfile:
    """Roots, discriminant data, and branch tag of the speed quartic."""

    p0: float
    q0: float
    rho: float
    delta: float
    roots: tuple[complex, complex, complex, complex]
    r1: float
    r4: float
    branch: Branch
    delta_is_boundary: bool  # |Delta| inside the reported zero band
    delta1: float | None = None
    delta4: float | None = None
    k: float | None = None  # modulus of the cn profile (Delta < 0)
    k1: float | None = None  # modulus of the sn^2 profile (Delta > 0)
    mu: float | None = None  # (p0 + 3 r^2)/2 on the Delta = 0 stratum
    r_double: float | None = None


def build_profile(data: InitialData) -> QuarticProfile:
    """Classify the initial condition into its solution-branch stratum.

    data may also hold equal-length arrays (run under numpy's errstate, as
    in _ops): each field's entries then equal the float builds bit for bit,
    in object arrays where a stratum sets None, and the tag is None where a
    float build raises IntervalError.  A non-finite coefficient raises for
    all rows; an overflowing power gives inf where Python's ** raises."""
    rho = data.rho
    try:  # Python's float ** raises on overflow where * gives inf
        p0, q0 = monic_coefficients(data)
        scale = _coefficient_scale(p0, q0, rho)
        delta, band = discriminant(p0, q0, rho), _band(scale)
        check_finite(p0=p0, q0=q0, delta=delta, delta_band=band)
        factors = _descartes_factors(p0, q0, rho, scale)
    except OverflowError as exc:
        raise DomainError(f"the speed quartic of {data} overflows a float") from exc
    m = ops(p0)
    boundary = abs(delta) <= band
    # m(z0 + rho) = -4 x0^2 <= 0: the factor with the larger discriminant holds a
    # real pair; the other's is real iff Delta > 0, or in the band iff its disc >= 0
    wide, narrow = m.max(*factors), m.min(*factors[::-1])  # sorted(reverse=True)
    trivial = data.is_trivial
    narrow_real = m.where(boundary | trivial, narrow[0] >= 0.0, delta > 0.0)
    pair = m.sort(_factor_roots(*wide, True))
    ordered = m.select((narrow_real,), (_four_real, _two_real), m, pair, narrow)
    fields = m.select((trivial, delta < -band, delta > band), _STRATA,  # the last two off the band
                      m, data, p0, q0, scale, ordered, narrow_real, boundary)
    return QuarticProfile(p0, q0, rho, delta, *fields)


def _four_real(m, pair, narrow):
    return tuple(map(m.complex, m.sort((*pair, *_factor_roots(*narrow, True)))))


def _two_real(m, pair, narrow):
    return tuple(map(m.complex, pair)) + _factor_roots(*narrow, False)


# each stratum's (roots, r1, r4, tag, boundary, delta1, delta4, k, k1, mu, r_double)


def _trivial_fields(m, data, p0, q0, scale, roots, narrow_real, boundary):
    r4 = m.where(narrow_real, roots[3].real, roots[1].real)
    return roots, roots[0].real, r4, Branch.TRIVIAL, boundary, None, None, None, None, None, None


def _neg_fields(m, data, p0, q0, scale, roots, narrow_real, boundary):
    r1, r4 = roots[0].real, roots[1].real
    rsum = r1 + r4
    delta1 = m.sqrt(m.max(0.0, 2.0 * p0 + 2.0 * r1 * r1 + rsum * rsum))
    delta4 = m.sqrt(m.max(0.0, 2.0 * p0 + 2.0 * r4 * r4 + rsum * rsum))
    k_sq = (m.pow(r4 - r1, 2) - m.pow(delta4 - delta1, 2)) / (4.0 * delta1 * delta4)
    k = m.sqrt(m.min(1.0, m.max(0.0, k_sq)))
    return roots, r1, r4, Branch.NEG, boundary, delta1, delta4, k, None, None, None


def _pos_fields(m, data, p0, q0, scale, roots, narrow_real, boundary):
    r1, r2, r3, r4 = (w.real for w in roots)
    delta1 = m.sqrt(m.max(0.0, (r2 - r1) * (r3 - r1)))
    delta4 = m.sqrt(m.max(0.0, (r4 - r3) * (r4 - r2)))
    k1_sq = ((r4 - r3) * (r2 - r1)) / ((r4 - r2) * (r3 - r1))
    k1 = m.sqrt(m.min(1.0, m.max(0.0, k1_sq)))
    tag = _bracket_side(m, (r1, r2, r3, r4), data.zr)
    return roots, r1, r4, tag, boundary, delta1, delta4, None, k1, None, None


def _zero_fields(m, data, p0, q0, scale, ordered, narrow_real, boundary):
    mu, r, tag = m.select((_is_cusp(p0, q0, scale),), (_cusp_root, _double_root),
                          m, data, p0, ordered)
    roots = tuple(map(m.complex, m.sort(w.real for w in ordered)))  # the real parts, sorted
    return roots, roots[0].real, roots[3].real, tag, boundary, None, None, None, None, mu, r


def _cusp_root(m, data, p0, ordered):
    """(mu, r, tag) on the cusp: the triple root is exactly -cbrt(rho)."""
    rho = data.rho
    return 0.0, -m.copysign(m.pow(abs(rho), 1.0 / 3.0), rho), Branch.ZERO_CUSP


def _double_root(m, data, p0, ordered):
    """(mu, r, tag) off the cusp: r is the midpoint of the closest pair, then
    one Newton step on m', quadratic since m''(r) = 8 mu != 0."""
    r = m.min(*((abs(u - v), 0.5 * (u + v).real)
                for i, u in enumerate(ordered) for v in ordered[i + 1:]))[1]
    r = r - m.div((4.0 * r * r + 4.0 * p0) * r - 8.0 * data.rho, 12.0 * r * r + 4.0 * p0, 0.0)
    mu = 0.5 * (p0 + 3.0 * r * r)
    side = m.where(data.zr > r, Branch.ZERO_MU_NEG_RIGHT, Branch.ZERO_MU_NEG_LEFT)
    return mu, r, m.where(mu > 0.0, Branch.ZERO_MU_POS, side)


_STRATA = (_trivial_fields, _neg_fields, _pos_fields, _zero_fields)


def _bracket_side(m, reals, z0rho) -> Branch:
    """POS_LOW or POS_HIGH: which root bracket, [r1, r2] or [r3, r4], holds z0+rho.

    For four real roots the speed polynomial P is non-negative exactly on
    the two brackets, and P(z0+rho) = x0^2 >= 0 places the initial point
    in one of them (raises if the root solver disagrees; None on arrays).
    """
    r1, r2, r3, r4 = reals
    tol = _BRACKET_BAND * m.max(1.0, r4 - r1)
    in_low = (r1 - tol <= z0rho) & (z0rho <= r2 + tol)
    in_high = (r3 - tol <= z0rho) & (z0rho <= r4 + tol)
    # in both when pinched between r2 and r3 at a near-tangency: the nearer root's
    low = m.where(in_high, in_low & (abs(z0rho - r2) <= abs(z0rho - r3)), in_low)
    side = m.where(low, Branch.POS_LOW, m.where(in_high, Branch.POS_HIGH, None))
    if side is None:
        raise IntervalError(f"z0+rho={z0rho} lies in neither [{r1}, {r2}] nor [{r3}, {r4}]")
    return side


def mu_r_closed_forms(profile: QuarticProfile) -> dict[str, float]:
    """Closed forms for the repeated root r and the curvature mu (Delta = 0).

    Returns the rational formula for r and the defining value
    mu = (p0 + 3 r^2)/2 at that r.
    """
    if profile.mu is None:
        raise DomainError("closed forms for r and mu exist only on the Delta = 0 stratum")
    p0, q0, rho = profile.p0, profile.q0, profile.rho
    if _is_cusp(p0, q0, _coefficient_scale(p0, q0, rho)):
        raise DomainError("cusp stratum p0^2 + 3 q0 = 0 has no rational r formula")
    denom = p0 ** 3 - p0 * q0 + 36.0 * rho * rho
    if denom == 0.0:
        raise DomainError("r formula denominator p0^3 - p0 q0 + 36 rho^2 vanishes")
    r_formula = 2.0 * rho * (p0 * p0 + 3.0 * q0) / denom
    return {
        "r_formula": r_formula,
        "mu_formula": 0.5 * (p0 + 3.0 * r_formula * r_formula),
    }
