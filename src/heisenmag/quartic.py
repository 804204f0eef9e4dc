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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, IntervalError, check_finite

__all__ = [
    "InitialData",
    "Branch",
    "QuarticProfile",
    "build_profile",
    "mu_r_closed_forms",
    "discriminant",
    "monic_coefficients",
    "quartic_roots",
]

# relative half-width of the "value is zero" bands used for branch tags
_ZERO_TOL = 1e-9


@dataclass(frozen=True)
class InitialData:
    """Initial velocity (x0, y0, z0) at the identity and the force level rho."""

    x0: float
    y0: float
    z0: float
    rho: float

    def __post_init__(self):
        check_finite(x0=self.x0, y0=self.y0, z0=self.z0, rho=self.rho)

    @property
    def norm_sq(self) -> float:
        """x0^2 + (y0+1)^2, the squared norm of V0 + e2."""
        return self.x0 ** 2 + (self.y0 + 1.0) ** 2

    @property
    def zr(self) -> float:
        return self.z0 + self.rho

    def h(self, x: float) -> float:
        """h(x) = x^2/2 + (z0+rho) x + y0 + 1."""
        return 0.5 * x * x + self.zr * x + self.y0 + 1.0

    def h_prime(self, x: float) -> float:
        return x + self.zr

    def scale(self) -> float:
        return max(1.0, abs(self.x0), abs(self.y0), abs(self.z0), abs(self.rho))

    @property
    def is_trivial(self) -> bool:
        """x(t) = 0 identically iff x0 = 0 and (y0+1)(z0+rho) = rho."""
        s = self.scale()
        return (
            abs(self.x0) <= _ZERO_TOL * s
            and abs((self.y0 + 1.0) * self.zr - self.rho) <= _ZERO_TOL * s * s
        )

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
    p0 = 2.0 * (data.y0 + 1.0) - data.zr ** 2
    q0 = p0 * p0 + 8.0 * data.rho * data.zr - 4.0 * data.norm_sq
    return p0, q0


def discriminant(p0: float, q0: float, rho: float) -> float:
    """Discriminant of the speed quartic; the standard one scaled by 1/256."""
    r2 = rho * rho
    return (
        q0 * p0 ** 4
        - 8.0 * r2 * p0 ** 3
        - 432.0 * r2 * r2
        + 72.0 * r2 * q0 * p0
        - 2.0 * q0 * q0 * p0 * p0
        + q0 ** 3
    )


def _coefficient_scale(p0: float, q0: float, rho: float) -> float:
    # weight eta ~ 1: p0 ~ eta^2, rho ~ eta^3, q0 ~ eta^4
    return max(
        1.0,
        abs(2.0 * p0),
        abs(8.0 * rho) ** (2.0 / 3.0),
        abs(q0) ** 0.5,
    )


def _monic(eta, p0, q0, rho):
    return ((eta * eta + 2.0 * p0) * eta - 8.0 * rho) * eta + q0


def _monic_prime(eta, p0, rho):
    return (4.0 * eta * eta + 4.0 * p0) * eta - 8.0 * rho


def quartic_roots(p0: float, q0: float, rho: float) -> np.ndarray:
    """Companion-matrix eigenvalues polished by two Newton steps."""
    coeffs = np.array([1.0, 0.0, 2.0 * p0, -8.0 * rho, q0])
    roots = np.roots(coeffs)
    for _ in range(2):
        deriv = _monic_prime(roots, p0, rho)
        # near-multiple roots stall Newton; leave them to cluster handling
        safe = np.abs(deriv) > 1e-8 * np.maximum(1.0, np.abs(roots)) ** 3
        step = np.where(safe, _monic(roots, p0, q0, rho) / np.where(safe, deriv, 1.0), 0.0)
        roots = roots - step
    return roots


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
    delta1: float | None
    delta4: float | None
    k: float | None  # modulus of the cn profile (Delta < 0)
    k1: float | None  # modulus of the sn^2 profile (Delta > 0)
    mu: float | None  # (p0 + 3 r^2)/2 on the Delta = 0 stratum
    r_double: float | None
    branch: Branch
    delta_is_boundary: bool  # |Delta| inside the reported zero band

    def monic(self, eta: float) -> float:
        return _monic(eta, self.p0, self.q0, self.rho)

    def value(self, eta: float) -> float:
        """P(eta) = -(monic)/4 = x'^2 at x = eta - z0 - rho."""
        return -0.25 * self.monic(eta)


def build_profile(data: InitialData) -> QuarticProfile:
    """Classify the initial condition into its solution-branch stratum."""
    p0, q0 = monic_coefficients(data)
    rho = data.rho
    delta = discriminant(p0, q0, rho)
    scale = _coefficient_scale(p0, q0, rho)
    boundary = abs(delta) <= _ZERO_TOL * scale ** 6

    roots = quartic_roots(p0, q0, rho)
    imag_tol = 1e-7 * max(1.0, float(np.max(np.abs(roots))))
    real_mask = np.abs(roots.imag) <= imag_tol

    if data.is_trivial:
        ordered = _order_roots(roots, real_mask)
        reals = sorted(roots[real_mask].real)
        r1 = float(reals[0]) if reals else math.nan
        r4 = float(reals[-1]) if reals else math.nan
        return QuarticProfile(
            p0, q0, rho, delta, ordered, r1, r4,
            None, None, None, None, None, None, Branch.TRIVIAL, boundary,
        )

    if not boundary and delta < 0.0:
        return _profile_neg(p0, q0, rho, delta, roots, real_mask)
    if not boundary and delta > 0.0:
        return _profile_pos(data, p0, q0, rho, delta, roots)
    return _profile_zero(data, p0, q0, rho, delta, roots)


def _order_roots(roots: np.ndarray, real_mask: np.ndarray):
    """Reals first ascending, then the complex pair, +Im last (r3-analog)."""
    reals = sorted(roots[real_mask].real)
    complexes = sorted(roots[~real_mask], key=lambda w: w.imag)
    return tuple([complex(r) for r in reals] + [complex(w) for w in complexes])


def _profile_neg(p0, q0, rho, delta, roots, real_mask):
    if int(real_mask.sum()) != 2:
        # round-off straddling the band: the two smallest-imag roots are real
        order = np.argsort(np.abs(roots.imag))
        real_mask = np.zeros(4, dtype=bool)
        real_mask[order[:2]] = True
    reals = sorted(roots[real_mask].real)
    r1, r4 = float(reals[0]), float(reals[1])
    rsum = r1 + r4
    delta1 = math.sqrt(max(0.0, 2.0 * p0 + 2.0 * r1 * r1 + rsum * rsum))
    delta4 = math.sqrt(max(0.0, 2.0 * p0 + 2.0 * r4 * r4 + rsum * rsum))
    k_sq = ((r4 - r1) ** 2 - (delta4 - delta1) ** 2) / (4.0 * delta1 * delta4)
    k = math.sqrt(min(1.0, max(0.0, k_sq)))
    return QuarticProfile(
        p0, q0, rho, delta, _order_roots(roots, real_mask), r1, r4,
        delta1, delta4, k, None, None, None, Branch.NEG, False,
    )


def _profile_pos(data, p0, q0, rho, delta, roots):
    reals = sorted(float(r) for r in roots.real)
    r1, r2, r3, r4 = reals
    delta1 = math.sqrt(max(0.0, (r2 - r1) * (r3 - r1)))
    delta4 = math.sqrt(max(0.0, (r4 - r3) * (r4 - r2)))
    k1_sq = ((r4 - r3) * (r2 - r1)) / ((r4 - r2) * (r3 - r1))
    k1 = math.sqrt(min(1.0, max(0.0, k1_sq)))
    ordered = tuple(complex(r) for r in reals)
    branch = _bracket_side(reals, data.zr)
    return QuarticProfile(
        p0, q0, rho, delta, ordered, r1, r4,
        delta1, delta4, None, k1, None, None, branch, False,
    )


def _profile_zero(data, p0, q0, rho, delta, roots):
    reals = np.sort(roots.real)
    gaps = np.diff(reals)
    i = int(np.argmin(gaps))
    r = 0.5 * float(reals[i] + reals[i + 1])
    scale = _coefficient_scale(p0, q0, rho)
    cusp = abs(p0 * p0 + 3.0 * q0) <= _ZERO_TOL * scale ** 4
    if cusp:
        # triple root; exactly -cbrt(rho)
        r = -math.copysign(abs(rho) ** (1.0 / 3.0), rho)
        mu = 0.0
        branch = Branch.ZERO_CUSP
    else:
        # the double root is a simple critical point of the quartic:
        # Newton on m' converges quadratically since m''(r) = 8 mu != 0
        for _ in range(40):
            second = 12.0 * r * r + 4.0 * p0
            if second == 0.0:
                break
            step = _monic_prime(r, p0, rho) / second
            r -= step
            if abs(step) <= 1e-15 * max(1.0, abs(r)):
                break
        mu = 0.5 * (p0 + 3.0 * r * r)
        if mu > 0.0:
            branch = Branch.ZERO_MU_POS
        else:
            branch = (
                Branch.ZERO_MU_NEG_RIGHT
                if data.zr > r
                else Branch.ZERO_MU_NEG_LEFT
            )
    ordered = tuple(complex(x) for x in reals)
    return QuarticProfile(
        p0, q0, rho, delta, ordered, float(reals[0]), float(reals[-1]),
        None, None, None, None, mu, r, branch, True,
    )


def _bracket_side(reals: list[float], z0rho: float) -> Branch:
    """POS_LOW or POS_HIGH: which root bracket, [r1, r2] or [r3, r4], holds z0+rho.

    For four real roots the speed polynomial P is non-negative exactly on
    the two brackets, and P(z0+rho) = x0^2 >= 0 places the initial point
    in one of them (raises if the root solver disagrees).
    """
    r1, r2, r3, r4 = reals
    tol = 1e-9 * max(1.0, r4 - r1)
    in_low = r1 - tol <= z0rho <= r2 + tol
    in_high = r3 - tol <= z0rho <= r4 + tol
    if in_low and in_high:
        # pinched between r2 and r3 at a near-tangency
        return Branch.POS_LOW if abs(z0rho - r2) <= abs(z0rho - r3) else Branch.POS_HIGH
    if in_low:
        return Branch.POS_LOW
    if in_high:
        return Branch.POS_HIGH
    raise IntervalError(
        f"z0+rho={z0rho} lies in neither [{r1}, {r2}] nor [{r3}, {r4}]"
    )


def mu_r_closed_forms(profile: QuarticProfile) -> dict[str, float]:
    """Closed forms for the repeated root r and the curvature mu (Delta = 0).

    Returns the rational formula for r and the defining value
    mu = (p0 + 3 r^2)/2 at that r.
    """
    if profile.mu is None:
        raise DomainError("closed forms for r and mu exist only on the Delta = 0 stratum")
    p0, q0, rho = profile.p0, profile.q0, profile.rho
    disc2 = p0 * p0 + 3.0 * q0
    if abs(disc2) <= _ZERO_TOL * _coefficient_scale(p0, q0, rho) ** 4:
        raise DomainError("cusp stratum p0^2 + 3 q0 = 0 has no rational r formula")
    denom = p0 ** 3 - p0 * q0 + 36.0 * rho * rho
    if denom == 0.0:
        raise ZeroDivisionError("r formula denominator p0^3 - p0 q0 + 36 rho^2 vanishes")
    r_formula = 2.0 * rho * disc2 / denom
    return {
        "r_formula": r_formula,
        "mu_formula": 0.5 * (p0 + 3.0 * r_formula * r_formula),
    }
