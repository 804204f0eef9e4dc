"""Closed-form magnetic trajectories through the identity for F_{e1,rho}.

A trajectory exp(x(t) e1 + y(t) e2 + z(t) e3) through the identity is
determined by the scalar profile x(t), which solves

    x'' + h'(x) h(x) = rho,    h(x) = x^2/2 + (z0+rho) x + y0 + 1,

with x(0) = 0, x'(0) = x0.  Each discriminant stratum of the speed quartic
has its own closed form (Jacobi cn, sn^2, cosine, hyperbolic, or rational).
So has an antiderivative F of (x + z0 + rho)^2 (Jacobi's epsilon function
plus elementary terms), which gives y = (p0/2 - 1) t + (F(t) - F(0))/2, and
z follows from the algebraic relation z = -x y / 2 - (z0+rho) y - x' + x0.
Each branch is one state function u -> (x, x', F) of u = rate t + phase:
on the elliptic branches one Landen descent at u gives sn, cn, dn and
Jacobi's epsilon together, on an AGM scheme run once per solution.  The
same state function takes a float (math, per point) or an array of u
(numpy, all points at once); `evaluate` is the array entry point.

Negative x0 goes through the time-reversal symmetry
(x, y, z)(t) -> (x, -y, -z)(-t), which sends x0 to -x0: a solution with
time direction sigma = -1 evaluates the |x0| curve at -t and negates x',
y and z.  The inverse-function phase constants fix x(0) = 0 only up to
the branch of the inverse; construction corrects them by at most a sign
flip so that x'(0) = |x0| on the |x0| curve, and records the correction.
Arbitrary base points go through left translation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from ._ops import ops
from .elliptic import AGM
from .errors import BranchConsistencyError, DomainError
from .heisenberg import HeisenbergPoint
from .quartic import Branch, InitialData, QuarticProfile, build_profile

__all__ = [
    "TrajectorySolution",
    "ExactTrajectory",
    "TranslatedTrajectory",
    "make_solution",
    "translate",
]

# relative bands; each value scales with data.scale() where data is at hand
_CLAMP_BAND = 1e-10  # round-off admitted in inverse-function arguments
_X0_BAND = 1e-8  # |x(0)| a phase constant may leave
_SLOPE_BAND = 1e-7  # |sigma'(0) - (x0, y0, z0)|
_VANISHING_BAND = 1e-12  # x0 at a turning point, z0 + rho of a subgroup


def __getattr__(name: str):
    # perfbench's tracer patches `quad` here, though no evaluation calls it.
    # Only perfbench, which installs scipy, reads this name, so scipy loads on
    # that first read and the library needs numpy alone.  This name goes with
    # the benchmark's retarget (ROADMAP item 3).
    if name == "quad":
        from scipy.integrate import quad

        return quad
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _clamped_unit(v: float, what: str) -> float:
    if abs(v) > 1.0 + _CLAMP_BAND:
        raise DomainError(f"{what} = {v} falls outside [-1, 1]")
    return min(1.0, max(-1.0, v))


def _clamped_ge1(v: float, what: str) -> float:
    if v < 1.0 - _CLAMP_BAND:
        raise DomainError(f"{what} = {v} falls below 1")
    return max(1.0, v)


class _ClosedForm(NamedTuple):
    """The closed forms of one branch, in the variable u = rate t + phase."""

    rate: float
    # u -> (x, x', F) with F' = (x + z0 + rho)^2 in t, from one evaluation;
    # u is a float or an array
    state: Callable
    # the principal inverse at x = 0; at a turning point (x0 = 0) its argument snaps to
    # the exact boundary, where a float one loses half its digits through the branch point
    phase: float
    period: float | None = None  # omega, the x-period
    f_over_period: float | None = None  # F(omega) - F(0)


def _profile_neg(data: InitialData, prof: QuarticProfile, turning: bool) -> _ClosedForm:
    r1, r4, d1, d4 = prof.r1, prof.r4, prof.delta1, prof.delta4
    zr = data.zr
    num = (r4 - zr) * d1 - (zr - r1) * d4
    if turning:  # z0 + rho is r1 or r4; the sign of num says which
        cn0 = math.copysign(1.0, num)
    else:
        cn0 = _clamped_unit(num / ((r4 - zr) * d1 + (zr - r1) * d4), "cn constant argument")
    agm = AGM(prof.k)
    big_k, big_e = agm.K, agm.E
    a = 0.5 * math.sqrt(d1 * d4)
    num0, num1 = r1 * d4 + r4 * d1, r1 * d4 - r4 * d1
    den0, den1 = d1 + d4, d4 - d1
    slope = 2.0 * d1 * d4 * (r1 - r4)  # N S - M D of the Moebius form
    c0 = -prof.p0 - 0.5 * ((r1 + r4) ** 2 + d1 * d4)

    def state(u):
        am, _, zeta = agm.descend(u)
        sn, cn, dn = agm.sn_cn_dn(am)
        den = den1 * cn + den0
        epsilon = big_e / big_k * u + zeta  # Jacobi's epsilon E(am u, k)
        return (
            (num1 * cn + num0) / den - zr,
            -a * sn * dn * slope / den ** 2,
            (c0 * u + d1 * d4 * (epsilon - den1 * sn * dn / den)) / a,
        )

    period, f_inc = 4.0 * big_k / a, 4.0 * (c0 * big_k + d1 * d4 * big_e) / a
    return _ClosedForm(a, state, agm.F(math.acos(cn0)), period, f_inc)


def _profile_pos(data: InitialData, prof: QuarticProfile, turning: bool) -> _ClosedForm:
    r1, r2, r3, r4 = (r.real for r in prof.roots)  # build_profile sorts them
    zr = data.zr
    if prof.branch is Branch.POS_LOW:
        sn2 = ((r4 - r2) * (zr - r1)) / ((r2 - r1) * (r4 - zr))
        kappa = (r2 - r1) / (r4 - r2)
        base, span, sign = r4, r4 - r1, -1.0
    else:
        sn2 = ((r3 - r1) * (r4 - zr)) / ((r4 - r3) * (zr - r1))
        kappa = (r4 - r3) / (r3 - r1)
        base, span, sign = r1, r4 - r1, 1.0
    sn2 = _clamped_unit(sn2, "sn^2 constant argument")
    if turning:
        sn2 = 0.0 if sn2 < 0.5 else 1.0
    agm = AGM(prof.k1)
    big_k, big_e = agm.K, agm.E
    a = 0.25 * math.sqrt((r4 - r2) * (r3 - r1))
    # no third-kind term: the quartic's missing cubic term cancels it
    c0 = base * base - span * span / (2.0 * (1.0 + kappa))
    c1 = span * span * kappa / (2.0 * (prof.k1 * prof.k1 + kappa) * (1.0 + kappa))

    def state(u):
        am, _, zeta = agm.descend(u)
        sn, cn, dn = agm.sn_cn_dn(am)
        q = 1.0 + kappa * sn * sn
        return (
            base + sign * span / q - zr,
            -sign * span * kappa * 2.0 * sn * cn * dn * a / q ** 2,
            (c0 * u + c1 * (big_e / big_k * u + zeta + kappa * sn * cn * dn / q)) / a,
        )

    period, f_inc = 2.0 * big_k / a, 2.0 * (c0 * big_k + c1 * big_e) / a
    return _ClosedForm(a, state, -sign * agm.F(math.asin(math.sqrt(max(0.0, sn2)))), period, f_inc)


def _repeated_root(data: InitialData, prof: QuarticProfile) -> tuple[float, float, float, float]:
    """r, mu, the amplitude sqrt(r^2 - mu) of g = -2 mu / (x + z0 + rho - r),
    and the argument (g(0) - r) / amplitude of its cosine or cosh at x = 0."""
    r, mu, zr = prof.r_double, prof.mu, data.zr
    if zr == r:
        raise DomainError(f"z0 + rho = {zr} sits on the repeated root, where x' vanishes")
    if not r * r - mu > 0.0:
        raise DomainError(f"r^2 - mu = {r * r - mu} leaves the repeated-root profile no amplitude")
    g_amp = math.sqrt(r * r - mu)
    return r, mu, g_amp, (-2.0 * mu / (zr - r) - r) / g_amp


def _profile_mu_pos(data: InitialData, prof: QuarticProfile, turning: bool) -> _ClosedForm:
    r, mu, g_amp, arg = _repeated_root(data, prof)
    arg = _clamped_unit(arg, "cosine constant argument")
    if turning:
        arg = math.copysign(1.0, arg)
    b = math.sqrt(mu)
    zr = data.zr

    def state(u):
        m = ops(u)
        s = m.sin(u)
        g = r + g_amp * m.cos(u)
        g_dot = -g_amp * b * s
        return (
            -2.0 * mu / g + r - zr,
            2.0 * mu * g_dot / (g * g),
            (r * r * u - 4.0 * mu * g_amp * s / g) / b,
        )

    omega = 2.0 * math.pi / b
    return _ClosedForm(b, state, -math.acos(arg), omega, r * r * omega)


def _profile_mu_neg(data: InitialData, prof: QuarticProfile, turning: bool) -> _ClosedForm:
    r, mu, g_amp, arg = _repeated_root(data, prof)
    # g = r + sa cosh u, the sign of sa picking the side of the saddle
    side = 1.0 if prof.branch is Branch.ZERO_MU_NEG_RIGHT else -1.0
    cosh0 = 1.0 if turning else _clamped_ge1(side * arg, "cosh constant argument")
    phase = side * math.acosh(cosh0)
    b = math.sqrt(-mu)
    zr = data.zr
    sa = g_amp * side

    def state(u):
        # in e = exp(-|u|) no term overflows at any u, and as e underflows
        # each one lands on its limit (x -> r - z0 - rho, x' -> 0)
        m = ops(u)
        e = m.exp(-abs(u))
        d = 2.0 * r * e + sa * (1.0 + e * e)  # 2 e g
        t = sa * m.tanh(u) * (1.0 + e * e) / d  # sa sinh u / g
        return (
            -4.0 * mu * e / d + r - zr,
            4.0 * mu * b * t * e / d,
            (r * r * u - 4.0 * mu * t) / b,
        )

    return _ClosedForm(b, state, phase)


def _profile_cusp(data: InitialData, prof: QuarticProfile, turning: bool) -> _ClosedForm:
    r = prof.r_double
    zr = data.zr
    if zr == r:
        raise DomainError(f"z0 + rho = {zr} sits on the triple root, where x' vanishes")
    arg = (3.0 * r + zr) / (r - zr)
    if arg < -_CLAMP_BAND:
        raise DomainError(f"cusp constant argument {arg} is negative")
    if turning:
        arg = 0.0

    def state(s):
        q = 1.0 + (r * s) ** 2
        return -4.0 * r / q + r - zr, 8.0 * r ** 3 * s / q ** 2, r * r * (s + 8.0 * s / q)

    return _ClosedForm(1.0, state, math.sqrt(max(0.0, arg)) / r)


def _profile_trivial(data: InitialData, prof: QuarticProfile, turning: bool) -> _ClosedForm:
    zr = data.zr

    def state(u):
        zero = u * 0.0 + 0.0  # +0.0, shaped like u
        return zero, zero, zr * zr * u

    return _ClosedForm(1.0, state, 0.0)  # x(t) = 0 has no phase


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
    """Evaluable magnetic trajectory through the identity, for any x0.

    The closed forms describe the curve with initial velocity
    (|x0|, y0, z0).  The time direction sigma is -1.0 for x0 < 0 and +1.0
    otherwise (x0 = -0.0 included): the accessors evaluate that curve at
    sigma t and return (x, sigma x', sigma y, sigma z), the time reversal
    (x, y, z)(t) -> (x, -y, -z)(-t) when sigma = -1.

    Immutable after construction: every coordinate at a time t comes from
    one closed-form state evaluation, and the branch's AGM scheme runs
    once, in make_solution, so evaluation is safe from concurrent threads.
    The accessors take a float time, or an array of times through the
    same formulas on numpy.
    """

    data: InitialData
    profile: QuarticProfile
    phase: float
    phase_flipped: bool  # principal constant needed a sign flip for x'(0)
    x_period: float | None
    sigma: float  # time direction, sign(x0) with +1.0 at x0 = 0
    _closed: _ClosedForm = field(repr=False)
    _f0: float = field(repr=False)  # F at t = 0

    def _state(self, t):
        """(x, x', y, z) at t, from one closed-form state evaluation."""
        s = self.sigma
        t = s * t
        x, xp, f = self._closed.state(self._closed.rate * t + self.phase)
        # y' = (x + z0 + rho)^2 / 2 + p0/2 - 1
        y = (0.5 * self.profile.p0 - 1.0) * t + 0.5 * (f - self._f0)
        # negated at the end, not inside the formulas, to keep signed zeros
        z = -0.5 * x * y - self.data.zr * y - xp + s * self.data.x0
        return x, s * xp, s * y, s * z

    def evaluate(self, ts) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Arrays x, x', y, z at the times ts, in one pass over the array."""
        return self._state(np.asarray(ts, dtype=float))

    def x(self, t: float) -> float:
        return self._state(t)[0]

    def x_prime(self, t: float) -> float:
        return self._state(t)[1]

    def y(self, t: float) -> float:
        return self._state(t)[2]

    def y_over_period(self) -> float:
        """The increment y(omega), in closed form; constant across periods.

        Its sign decides whether the trajectory closes (periodic.psi).
        """
        f_inc = self._closed.f_over_period
        if f_inc is None:
            raise DomainError(f"branch {self.profile.branch} has no x-period")
        return (0.5 * self.profile.p0 - 1.0) * self.x_period + 0.5 * f_inc

    def z(self, t: float) -> float:
        return self._state(t)[3]

    def point(self, t: float) -> HeisenbergPoint:
        x, _, y, z = self._state(t)
        return HeisenbergPoint(x, y, z)

    def velocity(self, t: float) -> tuple[float, float, float]:
        """(x', y', z') with y' = h(x) - 1 and z' from the level x + z0 of
        the centre component z' + (x'y - xy')/2."""
        x, xp, y, _ = self._state(t)
        return _velocity(self.data, x, xp, y)

    def sample(self, ts) -> list[tuple[float, float, float]]:
        """Curve points (x, y, z) at the times ts."""
        x, _, y, z = self.evaluate(ts)
        return list(zip(x.tolist(), y.tolist(), z.tolist()))


def _velocity(data: InitialData, x, xp, y) -> tuple[float, float, float]:
    yp = data.h(x) - 1.0
    return (xp, yp, x + data.z0 - 0.5 * (xp * y - x * yp))


def make_solution(data: InitialData) -> TrajectorySolution:
    """Build the closed-form trajectory for any finite initial data."""
    scale = data.scale()
    sigma = -1.0 if data.x0 < 0.0 else 1.0
    prof = build_profile(data)
    closed = _PROFILE_BUILDERS[prof.branch](data, prof, abs(data.x0) <= _VANISHING_BAND * scale)
    tol0 = _X0_BAND * scale
    for flipped, phase in ((False, closed.phase), (True, -closed.phase)):
        x_start, xp0, f0 = closed.state(phase)
        if abs(x_start) <= tol0 and xp0 * sigma * data.x0 >= -tol0:
            break
    else:
        raise BranchConsistencyError(
            f"branch {prof.branch}: x(0) = {closed.state(closed.phase)[0]} with principal "
            f"constant {closed.phase}; no sign correction restores x(0) = 0"
        )
    if not all(map(math.isfinite, (phase, x_start, xp0, f0))):
        raise BranchConsistencyError(
            f"branch {prof.branch}: the state (x, x', F) = ({x_start}, {xp0}, {f0}) at the "
            f"phase constant {phase} is not finite"
        )
    v = _velocity(data, x_start, sigma * xp0, 0.0)  # y(0) = 0
    err = max(abs(v[0] - data.x0), abs(v[1] - data.y0), abs(v[2] - data.z0))
    if err > _SLOPE_BAND * scale:
        raise BranchConsistencyError(
            f"branch {prof.branch}: sigma'(0) = {v} != ({data.x0}, {data.y0}, {data.z0})"
        )
    return TrajectorySolution(data, prof, phase, flipped, closed.period, sigma, closed, f0)


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
        return abs(self.turn_rate) <= _VANISHING_BAND * self.data.scale()

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


# --- Symmetry extensions -------------------------------------------------------


# perfbench calls this name and traces ReflectedTrajectory.sample; both
# aliases go with the benchmark retarget (ROADMAP item 3)
def reflect_for_negative_x0(data: InitialData) -> TrajectorySolution:
    return make_solution(data)


ReflectedTrajectory = TrajectorySolution


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
