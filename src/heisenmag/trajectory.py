"""Closed-form magnetic trajectories through the identity for F_{e1,rho}.

A trajectory exp(x(t) e1 + y(t) e2 + z(t) e3) through the identity is
determined by the scalar profile x(t), which solves

    x'' + h'(x) h(x) = rho,    h(x) = x^2/2 + (z0+rho) x + y0 + 1,

with x(0) = 0, x'(0) = x0.  Each discriminant stratum of the speed quartic
has its own closed form (Jacobi cn, sn^2, cosine, hyperbolic, or rational);
y recovers by quadrature of x^2/2 + (z0+rho) x + y0 within a period, plus
a closed-form increment y(omega) per whole period, and z by the algebraic
relation z = -x y / 2 - (z0+rho) y - x' + x0.

The inverse-function phase constants fix x(0) = 0 only up to the branch
of the inverse; construction corrects them by at most a sign flip so that
sign(x'(0)) = sign(x0), and records the correction.  Negative x0 goes
through the time-reversal symmetry (x, y, z)(t) -> (x, -y, -z)(-t), and
arbitrary base points through left translation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from scipy.integrate import quad

from .elliptic import (
    complete_K_and_E,
    inverse_cn,
    inverse_sn,
    jacobi_sn_cn_dn,
)
from .errors import BranchConsistencyError, ConvergenceError, DomainError
from .heisenberg import HeisenbergPoint
from .quartic import Branch, InitialData, QuarticProfile, build_profile

__all__ = [
    "TrajectorySolution",
    "ExactTrajectory",
    "ReflectedTrajectory",
    "TranslatedTrajectory",
    "make_solution",
    "exact_trajectory",
    "reflect_for_negative_x0",
    "translate",
    "energy",
]

_QUAD_OPTS = dict(epsabs=1e-12, epsrel=1e-12, limit=400)
_QUAD_ERR_PER_LENGTH = 1e-11
_COSH_CUTOFF = 700.0


def _checked_quad(f, a: float, b: float) -> float:
    val, err = quad(f, a, b, **_QUAD_OPTS)
    if err > _QUAD_ERR_PER_LENGTH * max(1.0, abs(b - a)):
        raise ConvergenceError(
            f"quadrature over [{a}, {b}] reports error {err}"
        )
    return val


def energy(data: InitialData) -> float:
    """(x0^2 + y0^2 + z0^2)/2: half the metric speed, conserved."""
    return data.energy()


def _clamped_unit(v: float, what: str, band: float = 1e-10) -> float:
    if abs(v) > 1.0 + band:
        raise DomainError(f"{what} = {v} falls outside [-1, 1]")
    return min(1.0, max(-1.0, v))


def _clamped_ge1(v: float, what: str, band: float = 1e-10) -> float:
    if v < 1.0 - band:
        raise DomainError(f"{what} = {v} falls below 1")
    return max(1.0, v)


class _XProfile:
    """Closed-form x(t) of one branch together with its derivative."""

    def __init__(self, value: Callable[[float], float], deriv: Callable[[float], float]):
        self.value = value
        self.deriv = deriv


def _profile_neg(data: InitialData, prof: QuarticProfile, phase: float) -> _XProfile:
    r1, r4 = prof.r1, prof.r4
    d1, d4, k = prof.delta1, prof.delta4, prof.k
    a = 0.5 * math.sqrt(d1 * d4)
    num0, num1 = r1 * d4 + r4 * d1, r1 * d4 - r4 * d1
    den0, den1 = d1 + d4, d4 - d1
    zr = data.zr
    slope = 2.0 * d1 * d4 * (r1 - r4)  # N S - M D of the Moebius form

    def value(t: float) -> float:
        _, cn, _ = jacobi_sn_cn_dn(a * t + phase, k)
        return (num1 * cn + num0) / (den1 * cn + den0) - zr

    def deriv(t: float) -> float:
        sn, cn, dn = jacobi_sn_cn_dn(a * t + phase, k)
        return -a * sn * dn * slope / (den1 * cn + den0) ** 2

    return _XProfile(value, deriv)


def _profile_pos(data: InitialData, prof: QuarticProfile, phase: float) -> _XProfile:
    reals = sorted(r.real for r in prof.roots)
    r1, r2, r3, r4 = reals
    k1 = prof.k1
    a = 0.25 * math.sqrt((r4 - r2) * (r3 - r1))
    zr = data.zr
    if prof.branch is Branch.POS_LOW:
        kappa = (r2 - r1) / (r4 - r2)
        base, span, sign = r4, r4 - r1, -1.0
    else:
        kappa = (r4 - r3) / (r3 - r1)
        base, span, sign = r1, r4 - r1, 1.0

    def value(t: float) -> float:
        sn, _, _ = jacobi_sn_cn_dn(a * t + phase, k1)
        return base + sign * span / (1.0 + kappa * sn * sn) - zr

    def deriv(t: float) -> float:
        sn, cn, dn = jacobi_sn_cn_dn(a * t + phase, k1)
        return (
            -sign * span * kappa * 2.0 * sn * cn * dn * a
            / (1.0 + kappa * sn * sn) ** 2
        )

    return _XProfile(value, deriv)


def _profile_mu_pos(data: InitialData, prof: QuarticProfile, phase: float) -> _XProfile:
    r, mu = prof.r_double, prof.mu
    g_amp = math.sqrt(r * r - mu)
    b = math.sqrt(mu)
    zr = data.zr

    def value(t: float) -> float:
        g = r + g_amp * math.cos(b * t + phase)
        return -2.0 * mu / g + r - zr

    def deriv(t: float) -> float:
        g = r + g_amp * math.cos(b * t + phase)
        g_dot = -g_amp * b * math.sin(b * t + phase)
        return 2.0 * mu * g_dot / (g * g)

    return _XProfile(value, deriv)


def _profile_mu_neg(data: InitialData, prof: QuarticProfile, phase: float) -> _XProfile:
    r, mu = prof.r_double, prof.mu
    g_amp = math.sqrt(r * r - mu)
    b = math.sqrt(-mu)
    zr = data.zr
    sign = 1.0 if prof.branch is Branch.ZERO_MU_NEG_RIGHT else -1.0

    def value(t: float) -> float:
        u = b * t + phase
        if abs(u) > _COSH_CUTOFF:
            return r - zr
        g = r + sign * g_amp * math.cosh(u)
        return -2.0 * mu / g + r - zr

    def deriv(t: float) -> float:
        u = b * t + phase
        if abs(u) > _COSH_CUTOFF:
            return 0.0
        g = r + sign * g_amp * math.cosh(u)
        g_dot = sign * g_amp * b * math.sinh(u)
        return 2.0 * mu * g_dot / (g * g)

    return _XProfile(value, deriv)


def _profile_cusp(data: InitialData, prof: QuarticProfile, phase: float) -> _XProfile:
    r = prof.r_double
    zr = data.zr

    def value(t: float) -> float:
        s = t + phase
        return -4.0 * r / (1.0 + (r * s) ** 2) + r - zr

    def deriv(t: float) -> float:
        s = t + phase
        return 8.0 * r ** 3 * s / (1.0 + (r * s) ** 2) ** 2

    return _XProfile(value, deriv)


def _principal_phase(data: InitialData, prof: QuarticProfile) -> float:
    """The inverse-function phase constant on its principal branch.

    A vanishing x0 puts the start at a turning point, where the inverse
    function's argument is exactly +-1 (or 0); evaluating it in floats
    loses half the digits through the square-root branch point, so that
    case snaps the argument to its exact boundary value.
    """
    zr = data.zr
    branch = prof.branch
    turning = abs(data.x0) <= 1e-12 * data.scale()
    if branch is Branch.NEG:
        d1, d4 = prof.delta1, prof.delta4
        num = (prof.r4 - zr) * d1 - (zr - prof.r1) * d4
        den = (prof.r4 - zr) * d1 + (zr - prof.r1) * d4
        arg = _clamped_unit(num / den, "cn constant argument")
        if turning:
            arg = math.copysign(1.0, arg)
        return inverse_cn(arg, prof.k)
    if branch in (Branch.POS_LOW, Branch.POS_HIGH):
        reals = sorted(r.real for r in prof.roots)
        r1, r2, r3, r4 = reals
        if branch is Branch.POS_LOW:
            arg2 = ((r4 - r2) * (zr - r1)) / ((r2 - r1) * (r4 - zr))
            sign = 1.0
        else:
            arg2 = ((r3 - r1) * (r4 - zr)) / ((r4 - r3) * (zr - r1))
            sign = -1.0
        arg2 = _clamped_unit(arg2, "sn^2 constant argument")
        if turning:
            arg2 = 0.0 if arg2 < 0.5 else 1.0
        return sign * inverse_sn(math.sqrt(max(0.0, arg2)), prof.k1)
    r, mu = prof.r_double, prof.mu
    if branch is Branch.ZERO_MU_POS:
        arg = (-2.0 * mu / (zr - r) - r) / math.sqrt(r * r - mu)
        arg = _clamped_unit(arg, "cosine constant argument")
        if turning:
            arg = math.copysign(1.0, arg)
        return -math.acos(arg)
    if branch is Branch.ZERO_MU_NEG_RIGHT:
        arg = (-2.0 * mu / (zr - r) - r) / math.sqrt(r * r - mu)
        return math.acosh(1.0 if turning else _clamped_ge1(arg, "cosh constant argument"))
    if branch is Branch.ZERO_MU_NEG_LEFT:
        arg = (2.0 * mu / (zr - r) + r) / math.sqrt(r * r - mu)
        return -math.acosh(1.0 if turning else _clamped_ge1(arg, "cosh constant argument"))
    if branch is Branch.ZERO_CUSP:
        arg = (3.0 * r + zr) / (r - zr)
        if arg < -1e-10:
            raise DomainError(f"cusp constant argument {arg} is negative")
        if turning:
            arg = 0.0
        return math.sqrt(max(0.0, arg)) / r
    raise DomainError(f"no closed-form constant for branch {branch}")


_PROFILE_BUILDERS = {
    Branch.NEG: _profile_neg,
    Branch.POS_LOW: _profile_pos,
    Branch.POS_HIGH: _profile_pos,
    Branch.ZERO_MU_POS: _profile_mu_pos,
    Branch.ZERO_MU_NEG_RIGHT: _profile_mu_neg,
    Branch.ZERO_MU_NEG_LEFT: _profile_mu_neg,
    Branch.ZERO_CUSP: _profile_cusp,
}


def _period_and_increment(prof: QuarticProfile) -> tuple[float | None, float | None]:
    """The x-period omega and the y increment y(omega) over one period.

    Both come in closed form from one complete_K_and_E run; branches
    without an x-period give (None, None).  Negative discriminant:
    y(omega) = 4 sqrt(d1 d4) (E - ((r1+r4)^2 + d1 d4 + 4) / (2 d1 d4) K).
    Four real roots: 2 sqrt((r4-r2)(r3-r1)) (E - K - (4 + (r2+r3)^2) /
    ((r4-r2)(r3-r1)) K).  Repeated root with mu > 0: (p0 + r^2 - 2) pi /
    sqrt(mu).
    """
    if prof.branch is Branch.NEG:
        d1, d4 = prof.delta1, prof.delta4
        big_k, big_e = complete_K_and_E(prof.k)
        omega = 8.0 * big_k / math.sqrt(d1 * d4)
        y_inc = 4.0 * math.sqrt(d1 * d4) * (
            big_e
            - ((prof.r1 + prof.r4) ** 2 + d1 * d4 + 4.0) / (2.0 * d1 * d4) * big_k
        )
        return omega, y_inc
    if prof.branch in (Branch.POS_LOW, Branch.POS_HIGH):
        r1, r2, r3, r4 = sorted(r.real for r in prof.roots)
        prod = (r4 - r2) * (r3 - r1)
        big_k, big_e = complete_K_and_E(prof.k1)
        omega = 8.0 * big_k / math.sqrt(prod)
        y_inc = 2.0 * math.sqrt(prod) * (
            big_e - big_k - (4.0 + (r2 + r3) ** 2) / prod * big_k
        )
        return omega, y_inc
    if prof.branch is Branch.ZERO_MU_POS:
        root_mu = math.sqrt(prof.mu)
        return 2.0 * math.pi / root_mu, (prof.p0 + prof.r_double ** 2 - 2.0) * math.pi / root_mu
    return None, None


@dataclass
class TrajectorySolution:
    """Evaluable magnetic trajectory through the identity, x0 >= 0.

    Immutable after construction: the per-period y increment is
    precomputed for periodic branches, so evaluation is safe from
    concurrent threads.
    """

    data: InitialData
    profile: QuarticProfile
    phase: float
    phase_flipped: bool  # principal constant needed a sign flip for x'(0)
    x_period: float | None
    _x_profile: _XProfile = field(repr=False)
    _y_over_period: float | None = field(default=None, repr=False)

    def x(self, t: float) -> float:
        if self.profile.branch is Branch.TRIVIAL:
            return 0.0
        return self._x_profile.value(t)

    def x_prime(self, t: float) -> float:
        if self.profile.branch is Branch.TRIVIAL:
            return 0.0
        return self._x_profile.deriv(t)

    def _y_integrand(self, s: float) -> float:
        x = self.x(s)
        return 0.5 * x * x + self.data.zr * x + self.data.y0

    def y(self, t: float) -> float:
        if self.profile.branch is Branch.TRIVIAL:
            return self.data.y0 * t
        omega = self.x_period
        if omega is None:
            return _checked_quad(self._y_integrand, 0.0, t)
        n = math.floor(t / omega)
        tail = _checked_quad(self._y_integrand, 0.0, t - n * omega)
        return n * self.y_over_period() + tail

    def y_over_period(self) -> float:
        """The increment y(omega), in closed form; constant across periods.

        Its sign decides whether the trajectory closes (periodic.psi).
        """
        if self._y_over_period is None:
            raise DomainError(f"branch {self.profile.branch} has no x-period")
        return self._y_over_period

    def z(self, t: float) -> float:
        y = self.y(t)
        return self._z_from(t, y)

    def _z_from(self, t: float, y: float) -> float:
        x = self.x(t)
        return (
            -0.5 * x * y - self.data.zr * y - self.x_prime(t) + self.data.x0
        )

    def point(self, t: float) -> HeisenbergPoint:
        y = self.y(t)
        return HeisenbergPoint(self.x(t), y, self._z_from(t, y))

    def velocity(self, t: float) -> tuple[float, float, float]:
        """(x', y', z') with y' = h(x) - 1 and z' from the level x + z0 of
        the centre component z' + (x'y - xy')/2."""
        x = self.x(t)
        xp = self.x_prime(t)
        yp = self.data.h(x) - 1.0
        y = self.y(t)
        zp = x + self.data.z0 - 0.5 * (xp * y - x * yp)
        return (xp, yp, zp)

    def sample(self, ts) -> list[tuple[float, float, float]]:
        """Curve points on an increasing grid; y by cumulative quadrature."""
        out = []
        y_acc, t_prev = 0.0, 0.0
        for t in ts:
            if self.profile.branch is Branch.TRIVIAL:
                y_acc = self.data.y0 * t
            else:
                y_acc += _checked_quad(self._y_integrand, t_prev, t)
            out.append((self.x(t), y_acc, self._z_from(t, y_acc)))
            t_prev = t
        return out


def make_solution(data: InitialData) -> TrajectorySolution:
    """Build the closed-form trajectory for x0 >= 0 initial data."""
    if data.x0 < 0.0:
        raise DomainError(
            "make_solution requires x0 >= 0; use reflect_for_negative_x0"
        )
    prof = build_profile(data)
    if prof.branch is Branch.TRIVIAL:
        return TrajectorySolution(data, prof, 0.0, False, None, _XProfile(lambda t: 0.0, lambda t: 0.0))

    principal = _principal_phase(data, prof)
    builder = _PROFILE_BUILDERS[prof.branch]
    tol0 = 1e-8 * data.scale()
    chosen = None
    for flipped, phase in ((False, principal), (True, -principal)):
        xp = builder(data, prof, phase)
        if abs(xp.value(0.0)) > tol0:
            continue
        if xp.deriv(0.0) * data.x0 >= -tol0:
            chosen = (flipped, phase, xp)
            break
    if chosen is None:
        xp = builder(data, prof, principal)
        raise BranchConsistencyError(
            f"branch {prof.branch}: x(0) = {xp.value(0.0)} with principal "
            f"constant {principal}; no sign correction restores x(0) = 0"
        )
    flipped, phase, xp = chosen
    slope_err = abs(xp.deriv(0.0) - data.x0)
    if slope_err > 1e-7 * data.scale():
        raise BranchConsistencyError(
            f"branch {prof.branch}: x'(0) = {xp.deriv(0.0)} != x0 = {data.x0}"
        )
    omega, y_inc = _period_and_increment(prof)
    return TrajectorySolution(data, prof, phase, flipped, omega, xp, y_inc)


# --- Exact forces F_{0,rho} ---------------------------------------------------


@dataclass(frozen=True)
class ExactTrajectory:
    """Magnetic trajectory through the identity for the exact force F_{0,rho}.

    The horizontal part rotates at rate z0 + rho; for z0 = -rho the curve
    degenerates to the one-parameter subgroup exp(t(x0 e1 + y0 e2 + z0 e3)).
    """

    data: InitialData

    @property
    def turn_rate(self) -> float:
        return self.data.zr

    @property
    def is_subgroup(self) -> bool:
        return abs(self.turn_rate) <= 1e-12 * self.data.scale()

    def point(self, t: float) -> HeisenbergPoint:
        d = self.data
        if self.is_subgroup:
            return HeisenbergPoint(d.x0 * t, d.y0 * t, d.z0 * t)
        tau = self.turn_rate
        s, c = math.sin(tau * t), math.cos(tau * t)
        x = (s * d.x0 + (-1.0 + c) * d.y0) / tau
        y = ((1.0 - c) * d.x0 + s * d.y0) / tau
        v0_sq = d.x0 ** 2 + d.y0 ** 2
        z = (d.z0 + v0_sq / (2.0 * tau)) * t - v0_sq / (2.0 * tau ** 2) * s
        return HeisenbergPoint(x, y, z)

    def velocity(self, t: float) -> tuple[float, float, float]:
        d = self.data
        if self.is_subgroup:
            return (d.x0, d.y0, d.z0)
        tau = self.turn_rate
        s, c = math.sin(tau * t), math.cos(tau * t)
        xp = c * d.x0 - s * d.y0
        yp = s * d.x0 + c * d.y0
        v0_sq = d.x0 ** 2 + d.y0 ** 2
        zp = d.z0 + v0_sq / (2.0 * tau) * (1.0 - c)
        return (xp, yp, zp)

    def horizontal_period(self) -> float | None:
        """Time for (x, y) to return to the origin: 2 pi / |z0 + rho|."""
        if self.is_subgroup:
            return None
        return 2.0 * math.pi / abs(self.turn_rate)


def exact_trajectory(data: InitialData, t: float) -> HeisenbergPoint:
    return ExactTrajectory(data).point(t)


# --- Symmetry extensions -------------------------------------------------------


@dataclass(frozen=True)
class ReflectedTrajectory:
    """Trajectory with x0 < 0 via the symmetry (x,y,z)(t) -> (x,-y,-z)(-t).

    `source` is the solution for |x0| with the same y0, z0, rho; the
    transformed curve has initial velocity (x0, y0, z0) and the same energy.
    """

    data: InitialData
    source: TrajectorySolution

    def x(self, t: float) -> float:
        return self.source.x(-t)

    def y(self, t: float) -> float:
        return -self.source.y(-t)

    def z(self, t: float) -> float:
        return -self.source.z(-t)

    def x_prime(self, t: float) -> float:
        return -self.source.x_prime(-t)

    def point(self, t: float) -> HeisenbergPoint:
        p = self.source.point(-t)
        return HeisenbergPoint(p.x, -p.y, -p.z)

    def sample(self, ts) -> list[tuple[float, float, float]]:
        reversed_grid = [-t for t in reversed(list(ts))]
        src = self.source.sample(reversed_grid)
        return [(x, -y, -z) for (x, y, z) in reversed(src)]

    def velocity(self, t: float) -> tuple[float, float, float]:
        xp, yp, zp = self.source.velocity(-t)
        return (-xp, yp, zp)

    @property
    def x_period(self) -> float | None:
        return self.source.x_period


def reflect_for_negative_x0(data: InitialData) -> ReflectedTrajectory:
    """Solution for x0 < 0 built from the |x0| solution by time reversal.

    The two equivalent statements of this symmetry (reverse time in x only and
    rebuild y, z; or flip the signs of y and z of the reversed curve) agree;
    construction checks the transformed initial velocity against the data
    and fails loudly if the convention were wrong.
    """
    if data.x0 > 0.0:
        raise DomainError("reflect_for_negative_x0 expects x0 <= 0")
    source = make_solution(
        InitialData(abs(data.x0), data.y0, data.z0, data.rho)
    )
    refl = ReflectedTrajectory(data, source)
    v = refl.velocity(0.0)
    err = max(
        abs(v[0] - data.x0), abs(v[1] - data.y0), abs(v[2] - data.z0)
    )
    if err > 1e-7 * data.scale():
        raise BranchConsistencyError(
            f"reflection convention check failed: sigma'(0) = {v}, "
            f"expected ({data.x0}, {data.y0}, {data.z0})"
        )
    return refl


@dataclass(frozen=True)
class TranslatedTrajectory:
    """Left translate t -> p * sigma(t); magnetic for the same force."""

    base_point: HeisenbergPoint
    source: object  # anything exposing point(t) and velocity(t)

    def point(self, t: float) -> HeisenbergPoint:
        return self.base_point * self.source.point(t)

    def velocity(self, t: float) -> tuple[float, float, float]:
        xp, yp, zp = self.source.velocity(t)
        p = self.base_point
        return (xp, yp, zp + 0.5 * (p.x * yp - p.y * xp))


def translate(source, p: HeisenbergPoint) -> TranslatedTrajectory:
    return TranslatedTrajectory(p, source)
