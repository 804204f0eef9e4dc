"""Closed-form magnetic trajectories through the identity for F_{e1,rho}.

A trajectory exp(x(t) e1 + y(t) e2 + z(t) e3) through the identity is
determined by the scalar profile x(t), which solves

    x'' + h'(x) h(x) = rho,    h(x) = x^2/2 + (z0+rho) x + y0 + 1,

with x(0) = 0, x'(0) = x0.  Each discriminant stratum of the speed quartic
has its own closed form (Jacobi cn, sn^2, cosine, hyperbolic, or rational).
So has an antiderivative F of (x + z0 + rho)^2 (Jacobi's epsilon function
plus elementary terms), which gives y = (p0/2 - 1) t + (F(t) - F(0))/2, and
z follows from the algebraic relation z = -x y / 2 - (z0+rho) y - x' + x0.

The inverse-function phase constants fix x(0) = 0 only up to the branch
of the inverse; construction corrects them by at most a sign flip so that
sign(x'(0)) = sign(x0), and records the correction.  Negative x0 goes
through the time-reversal symmetry (x, y, z)(t) -> (x, -y, -z)(-t), and
arbitrary base points through left translation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

# unused; perfbench's tracer counts quadrature in curve evaluation through this name
from scipy.integrate import quad  # noqa: F401

from .elliptic import (
    complete_K_and_E,
    ellip_e_inc,
    inverse_cn,
    inverse_sn,
    jacobi_am,
    jacobi_sn_cn_dn,
)
from .errors import BranchConsistencyError, DomainError
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

_COSH_CUTOFF = 700.0


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


class _XProfile(NamedTuple):
    """Closed forms of one branch at one phase constant."""

    value: Callable[[float], float]  # x(t)
    deriv: Callable[[float], float]  # x'(t)
    antideriv: Callable[[float], float]  # F(t) with F' = (x + z0 + rho)^2
    # (omega, F(omega) - F(0)), or (None, None) without an x-period; called
    # for the chosen phase only, so a rejected phase runs no complete integrals
    period: Callable[[], tuple] = lambda: (None, None)


def _epsilon_sn_cn_dn(u: float, k: float) -> tuple[float, float, float, float]:
    """Jacobi's epsilon E(am u, k) (DLMF 22.16(ii)) and sn, cn, dn at u,
    all from one amplitude; dn as in jacobi_sn_cn_dn."""
    am = jacobi_am(u, k)
    sn, cn = math.sin(am), math.cos(am)
    return ellip_e_inc(am, k), sn, cn, math.sqrt((1.0 - k) * (1.0 + k) + (k * cn) ** 2)


def _profile_neg(data: InitialData, prof: QuarticProfile, phase: float) -> _XProfile:
    r1, r4 = prof.r1, prof.r4
    d1, d4, k = prof.delta1, prof.delta4, prof.k
    a = 0.5 * math.sqrt(d1 * d4)
    num0, num1 = r1 * d4 + r4 * d1, r1 * d4 - r4 * d1
    den0, den1 = d1 + d4, d4 - d1
    zr = data.zr
    slope = 2.0 * d1 * d4 * (r1 - r4)  # N S - M D of the Moebius form
    c0 = -prof.p0 - 0.5 * ((r1 + r4) ** 2 + d1 * d4)

    def value(t: float) -> float:
        _, cn, _ = jacobi_sn_cn_dn(a * t + phase, k)
        return (num1 * cn + num0) / (den1 * cn + den0) - zr

    def deriv(t: float) -> float:
        sn, cn, dn = jacobi_sn_cn_dn(a * t + phase, k)
        return -a * sn * dn * slope / (den1 * cn + den0) ** 2

    def antideriv(t: float) -> float:
        u = a * t + phase
        eps, sn, cn, dn = _epsilon_sn_cn_dn(u, k)
        return (c0 * u + d1 * d4 * (eps - den1 * sn * dn / (den1 * cn + den0))) / a

    def period() -> tuple[float, float]:
        big_k, big_e = complete_K_and_E(k)
        return 4.0 * big_k / a, 4.0 * (c0 * big_k + d1 * d4 * big_e) / a

    return _XProfile(value, deriv, antideriv, period)


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
    # no third-kind term: the quartic's missing cubic term cancels it
    c0 = base * base - span * span / (2.0 * (1.0 + kappa))
    c1 = span * span * kappa / (2.0 * (k1 * k1 + kappa) * (1.0 + kappa))

    def value(t: float) -> float:
        sn, _, _ = jacobi_sn_cn_dn(a * t + phase, k1)
        return base + sign * span / (1.0 + kappa * sn * sn) - zr

    def deriv(t: float) -> float:
        sn, cn, dn = jacobi_sn_cn_dn(a * t + phase, k1)
        return (
            -sign * span * kappa * 2.0 * sn * cn * dn * a
            / (1.0 + kappa * sn * sn) ** 2
        )

    def antideriv(t: float) -> float:
        u = a * t + phase
        eps, sn, cn, dn = _epsilon_sn_cn_dn(u, k1)
        return (c0 * u + c1 * (eps + kappa * sn * cn * dn / (1.0 + kappa * sn * sn))) / a

    def period() -> tuple[float, float]:
        big_k, big_e = complete_K_and_E(k1)
        return 2.0 * big_k / a, 2.0 * (c0 * big_k + c1 * big_e) / a

    return _XProfile(value, deriv, antideriv, period)


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

    def antideriv(t: float) -> float:
        u = b * t + phase
        return r * r * t - 4.0 * mu * g_amp / b * math.sin(u) / (r + g_amp * math.cos(u))

    def period() -> tuple[float, float]:
        omega = 2.0 * math.pi / b
        return omega, r * r * omega

    return _XProfile(value, deriv, antideriv, period)


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

    def antideriv(t: float) -> float:
        u = b * t + phase
        if abs(u) > _COSH_CUTOFF:  # sinh u / (r + s A cosh u) -> sign(u) / (s A)
            return r * r * t - 4.0 * mu / b * math.copysign(1.0, u)
        g = r + sign * g_amp * math.cosh(u)
        return r * r * t - 4.0 * mu * sign * g_amp / b * math.sinh(u) / g

    return _XProfile(value, deriv, antideriv)


def _profile_cusp(data: InitialData, prof: QuarticProfile, phase: float) -> _XProfile:
    r = prof.r_double
    zr = data.zr

    def value(t: float) -> float:
        s = t + phase
        return -4.0 * r / (1.0 + (r * s) ** 2) + r - zr

    def deriv(t: float) -> float:
        s = t + phase
        return 8.0 * r ** 3 * s / (1.0 + (r * s) ** 2) ** 2

    def antideriv(t: float) -> float:
        s = t + phase
        return r * r * (t + 8.0 * s / (1.0 + (r * s) ** 2))

    return _XProfile(value, deriv, antideriv)


def _profile_trivial(data: InitialData, prof: QuarticProfile, phase: float) -> _XProfile:
    zr = data.zr
    return _XProfile(lambda t: 0.0, lambda t: 0.0, lambda t: zr * zr * t)


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
    return 0.0  # Branch.TRIVIAL: x(t) = 0 has no phase


_PROFILE_BUILDERS = {
    Branch.NEG: _profile_neg,
    Branch.POS_LOW: _profile_pos,
    Branch.POS_HIGH: _profile_pos,
    Branch.ZERO_MU_POS: _profile_mu_pos,
    Branch.ZERO_MU_NEG_RIGHT: _profile_mu_neg,
    Branch.ZERO_MU_NEG_LEFT: _profile_mu_neg,
    Branch.ZERO_CUSP: _profile_cusp,
    Branch.TRIVIAL: _profile_trivial,
}


@dataclass
class TrajectorySolution:
    """Evaluable magnetic trajectory through the identity, x0 >= 0.

    Immutable after construction: y is in closed form and its increment
    over one x-period is computed there, so evaluation is safe from
    concurrent threads.
    """

    data: InitialData
    profile: QuarticProfile
    phase: float
    phase_flipped: bool  # principal constant needed a sign flip for x'(0)
    x_period: float | None
    _x_profile: _XProfile = field(repr=False)
    _f_over_period: float | None = field(default=None, repr=False)

    def x(self, t: float) -> float:
        return self._x_profile.value(t)

    def x_prime(self, t: float) -> float:
        return self._x_profile.deriv(t)

    def _y_of(self, t: float, f_increment: float) -> float:
        # y' = (x + z0 + rho)^2 / 2 + p0/2 - 1
        return (0.5 * self.profile.p0 - 1.0) * t + 0.5 * f_increment

    def y(self, t: float) -> float:
        if t == 0.0:  # spares reflect_for_negative_x0's check two F evaluations
            return 0.0
        f = self._x_profile.antideriv
        return self._y_of(t, f(t) - f(0.0))

    def y_over_period(self) -> float:
        """The increment y(omega), in closed form; constant across periods.

        Its sign decides whether the trajectory closes (periodic.psi).
        """
        if self._f_over_period is None:
            raise DomainError(f"branch {self.profile.branch} has no x-period")
        return self._y_of(self.x_period, self._f_over_period)

    def z(self, t: float) -> float:
        return self._z_from(t, self.x(t), self.y(t))

    def _z_from(self, t: float, x: float, y: float) -> float:
        return (
            -0.5 * x * y - self.data.zr * y - self.x_prime(t) + self.data.x0
        )

    def point(self, t: float) -> HeisenbergPoint:
        x, y = self.x(t), self.y(t)
        return HeisenbergPoint(x, y, self._z_from(t, x, y))

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
        """Curve points (x, y, z) at the times ts."""
        return [(p.x, p.y, p.z) for p in map(self.point, ts)]


def make_solution(data: InitialData) -> TrajectorySolution:
    """Build the closed-form trajectory for x0 >= 0 initial data."""
    if data.x0 < 0.0:
        raise DomainError(
            "make_solution requires x0 >= 0; use reflect_for_negative_x0"
        )
    prof = build_profile(data)
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
    omega, f_inc = xp.period()
    return TrajectorySolution(data, prof, phase, flipped, omega, xp, f_inc)


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
        return [(p.x, p.y, p.z) for p in map(self.point, ts)]

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
