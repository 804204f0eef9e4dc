"""Closed-form magnetic trajectories through the identity for F_{e1,rho}.

A trajectory exp(x(t) e1 + y(t) e2 + z(t) e3) through the identity is
determined by the scalar profile x(t), which solves

    x'' + h'(x) h(x) = rho,    h(x) = x^2/2 + (z0+rho) x + y0 + 1,

with x(0) = 0, x'(0) = x0.  Each discriminant stratum of the speed quartic
has its own closed form (Jacobi cn, sn^2, cosine, hyperbolic, or rational).
So has an antiderivative F of (x + z0 + rho)^2 (Jacobi's epsilon function
plus elementary terms), which gives y = (p0/2 - 1) t + (F(t) - F(0))/2, and
z follows from the algebraic relation z = -x y / 2 - (z0+rho) y - x' + x0.
Each branch is one module-level formula u -> (x, x', F), u = rate t + phase,
over a tuple of its constants: on the elliptic branches one Landen descent
gives sn, cn, dn and Jacobi's epsilon together, on an AGM scheme run once per
solution.  It takes a float (math), an array of u (numpy; `evaluate`), or B
solutions' constants as (B, 1) columns against (B, n) u (`evaluate_stacked`).

Negative x0 goes through the time-reversal symmetry
(x, y, z)(t) -> (x, -y, -z)(-t), which sends x0 to -x0: a solution with
time direction sigma = -1 evaluates the |x0| curve at -t and negates x',
y and z.  The inverse-function phase constants fix x(0) = 0 only up to
the branch of the inverse; construction corrects them by at most a sign
flip so that x'(0) = |x0| on the |x0| curve, and records the correction.
Arbitrary base points go through left translation, which composes its
source's unchecked state; every curve class states (x, y, z) or
(x', y', z') once, and its point and velocity check the float range once.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple

import numpy as np

from ._ops import ops
from .elliptic import AGM
from .errors import BranchConsistencyError, DomainError, HeisenmagError, check_finite
from .heisenberg import HeisenbergPoint, translate_velocity
from .quartic import Branch, InitialData, QuarticProfile, build_profile

__all__ = [
    "TrajectorySolution",
    "ExactTrajectory",
    "TranslatedTrajectory",
    "evaluate_stacked",
    "make_solution",
    "make_solutions",
]

# relative bands; each value scales with data.scale() where data is at hand
_CLAMP_BAND = 1e-10  # round-off admitted in inverse-function arguments
_X0_BAND = 1e-8  # |x(0)| a phase constant may leave
_SLOPE_BAND = 1e-7  # |sigma'(0) - (x0, y0, z0)|
_VANISHING_BAND = 1e-12  # x0 at a turning point, z0 + rho of a subgroup
_TURN_CUT = 1.0  # |tau t| below which 1 - cos and tau t - sin are formed without cancellation
# (u - sin u) / u^3 = sum_k (-1)^k u^2k / (2k + 3)!, within 6e-17 relative in 8 terms at |u| < 1
_SINE_TAIL = tuple((-1) ** k / math.factorial(2 * k + 3) for k in range(8))


quad = None  # perfbench's tracer patches this name; nothing calls it (ROADMAP item 7)


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
    # formula(u, params) -> (x, x', F) with F' = (x + z0 + rho)^2 in t, from
    # one evaluation; u is a float or an array, params the branch's constants
    formula: Callable
    params: tuple
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
    a = 0.5 * math.sqrt(d1 * d4)
    num0, num1 = r1 * d4 + r4 * d1, r1 * d4 - r4 * d1
    den0, den1 = d1 + d4, d4 - d1
    slope = 2.0 * d1 * d4 * (r1 - r4)  # N S - M D of the Moebius form
    c0 = -prof.p0 - 0.5 * ((r1 + r4) ** 2 + d1 * d4)
    params = (agm, a, num0, num1, den0, den1, slope, c0, d1, d4, zr)
    period, f_inc = 4.0 * agm.K / a, 4.0 * (c0 * agm.K + d1 * d4 * agm.E) / a
    return _ClosedForm(a, _neg_state, params, agm._F(math.acos(cn0)), period, f_inc)


def _neg_state(u, params):
    agm, a, num0, num1, den0, den1, slope, c0, d1, d4, zr = params
    am, _, zeta = agm._descend(u)
    sn, cn, dn = agm.sn_cn_dn(am)
    den = den1 * cn + den0
    epsilon = agm.E / agm.K * u + zeta  # Jacobi's epsilon E(am u, k)
    return (
        (num1 * cn + num0) / den - zr,
        -a * sn * dn * slope / den ** 2,
        (c0 * u + d1 * d4 * (epsilon - den1 * sn * dn / den)) / a,
    )


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
    a = 0.25 * math.sqrt((r4 - r2) * (r3 - r1))
    # no third-kind term: the quartic's missing cubic term cancels it
    c0 = base * base - span * span / (2.0 * (1.0 + kappa))
    c1 = span * span * kappa / (2.0 * (prof.k1 * prof.k1 + kappa) * (1.0 + kappa))
    params = (agm, a, kappa, base, span, sign, c0, c1, zr)
    period, f_inc = 2.0 * agm.K / a, 2.0 * (c0 * agm.K + c1 * agm.E) / a
    phase = -sign * agm._F(math.asin(math.sqrt(max(0.0, sn2))))
    return _ClosedForm(a, _pos_state, params, phase, period, f_inc)


def _pos_state(u, params):
    agm, a, kappa, base, span, sign, c0, c1, zr = params
    am, _, zeta = agm._descend(u)
    sn, cn, dn = agm.sn_cn_dn(am)
    q = 1.0 + kappa * sn * sn
    return (
        base + sign * span / q - zr,
        -sign * span * kappa * 2.0 * sn * cn * dn * a / q ** 2,
        (c0 * u + c1 * (agm.E / agm.K * u + zeta + kappa * sn * cn * dn / q)) / a,
    )


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
    omega = 2.0 * math.pi / b
    return _ClosedForm(b, _mu_pos_state, (r, mu, g_amp, b, data.zr), -math.acos(arg), omega,
                       r * r * omega)


def _mu_pos_state(u, params):
    r, mu, g_amp, b, zr = params
    m = ops(u)
    s = m.sin(u)
    g = r + g_amp * m.cos(u)
    g_dot = -g_amp * b * s
    return (
        -2.0 * mu / g + r - zr,
        2.0 * mu * g_dot / (g * g),
        (r * r * u - 4.0 * mu * g_amp * s / g) / b,
    )


def _profile_mu_neg(data: InitialData, prof: QuarticProfile, turning: bool) -> _ClosedForm:
    r, mu, g_amp, arg = _repeated_root(data, prof)
    # g = r + sa cosh u, the sign of sa picking the side of the saddle
    side = 1.0 if prof.branch is Branch.ZERO_MU_NEG_RIGHT else -1.0
    cosh0 = 1.0 if turning else _clamped_ge1(side * arg, "cosh constant argument")
    phase = side * math.acosh(cosh0)
    b = math.sqrt(-mu)
    return _ClosedForm(b, _mu_neg_state, (r, mu, g_amp * side, b, data.zr), phase)


def _mu_neg_state(u, params):
    r, mu, sa, b, zr = params
    # g = r + sa cosh u; in e = exp(-|u|) no term overflows at any u, and as
    # e underflows each one lands on its limit (x -> r - z0 - rho, x' -> 0)
    m = ops(u)
    e = m.exp(-abs(u))
    d = 2.0 * r * e + sa * (1.0 + e * e)  # 2 e g
    t = sa * m.tanh(u) * (1.0 + e * e) / d  # sa sinh u / g
    return (
        -4.0 * mu * e / d + r - zr,
        4.0 * mu * b * t * e / d,
        (r * r * u - 4.0 * mu * t) / b,
    )


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
    return _ClosedForm(1.0, _cusp_state, (r, r ** 3, zr), math.sqrt(max(0.0, arg)) / r)


def _cusp_state(s, params):
    r, r3, zr = params
    q = 1.0 + r * s * (r * s)  # products: a float's ** raises where an array's is inf
    return -4.0 * r / q + r - zr, 8.0 * r3 * s / (q * q), r * r * (s + 8.0 * s / q)


def _profile_trivial(data: InitialData, prof: QuarticProfile, turning: bool) -> _ClosedForm:
    return _ClosedForm(1.0, _trivial_state, (data.zr,), 0.0)  # x(t) = 0 has no phase


def _trivial_state(u, params):
    (zr,) = params
    zero = u * 0.0 + 0.0  # +0.0, shaped like u
    return zero, zero, zr * zr * u


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


def _in_float_range(state):
    """state(curve, t) at a finite t, run quietly; DomainError names a t past the float range."""
    def checked(curve, t, *args):
        check_finite(t=t)
        try:
            with np.errstate(all="ignore"):
                values = state(curve, t, *args)
        except (ArithmeticError, ValueError):
            if isinstance(t, np.ndarray):  # math raises past the float range, numpy does not
                raise
            values = (math.nan,)
        if type(t) is float and all(map(math.isfinite, values)):  # scalars: no array to build
            return values
        finite = np.isfinite(values)
        if not finite.all():
            at = np.broadcast_to(t, finite.shape)[~finite][0]
            raise DomainError(f"the curve leaves the float range at t = {at}")
        return values
    return functools.update_wrapper(checked, state)


class _StatedCurve:
    """point(t) and velocity(t), refused past the float range, from the unchecked
    _state(t, point) of a subclass: (x, y, z) if point, else (x', y', z')."""

    def point(self, t: float) -> HeisenbergPoint:
        return HeisenbergPoint(*self._checked(t, True))

    def velocity(self, t: float) -> tuple[float, float, float]:
        return self._checked(t, False)

    _checked = _in_float_range(lambda self, t, point: self._state(t, point))


@dataclass
class TrajectorySolution(_StatedCurve):
    """Evaluable magnetic trajectory through the identity, for any x0.

    The closed forms describe the curve with initial velocity
    (|x0|, y0, z0).  The time direction sigma is -1.0 for x0 < 0 and +1.0
    otherwise (x0 = -0.0 included): the accessors evaluate that curve at
    sigma t and return (x, sigma x', sigma y, sigma z), the time reversal
    (x, y, z)(t) -> (x, -y, -z)(-t) when sigma = -1.

    Immutable after construction: every coordinate at a time t comes from
    one closed-form state evaluation, and the branch's AGM scheme runs
    once, in make_solution, so evaluation is safe from concurrent threads.
    The accessors take a float time, or an array of times through the same
    formulas on numpy; a NaN or infinite time, or one past the float range, is refused.
    """

    data: InitialData
    profile: QuarticProfile
    phase: float
    phase_flipped: bool  # principal constant needed a sign flip for x'(0)
    x_period: float | None
    sigma: float  # time direction, sign(x0) with +1.0 at x0 = 0
    _f_over_period: float | None = field(repr=False)  # F(omega) - F(0)
    _curve: _Curve = field(repr=False)

    def evaluate(self, ts) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Arrays x, x', y, z at the times ts, in one pass over the array."""
        return _curve_state(self._curve, np.asarray(ts, dtype=float))

    def x(self, t: float) -> float:
        return _curve_state(self._curve, t)[0]

    def x_prime(self, t: float) -> float:
        return _curve_state(self._curve, t)[1]

    def y_over_period(self) -> float:
        """The increment y(omega), in closed form; constant across periods.

        Its sign decides whether the trajectory closes (periodic.psi).
        """
        if self._f_over_period is None:
            raise DomainError(f"branch {self.profile.branch} has no x-period")
        return (0.5 * self.profile.p0 - 1.0) * self.x_period + 0.5 * self._f_over_period

    def _state(self, t, point: bool) -> tuple:
        """(x, y, z), or (x', y', z') with y' = h(x) - 1 and z' from the level
        x + z0 of the centre component z' + (x'y - xy')/2."""
        x, xp, y, z = _curve_values(self._curve, t)
        if point:
            return x, y, z
        return translate_velocity(HeisenbergPoint(x, y, z), *self.data.body_velocity(x, xp))

    def sample(self, ts) -> list[tuple[float, float, float]]:
        """Curve points (x, y, z) at the times ts."""
        x, _, y, z = self.evaluate(ts)
        return list(zip(x.tolist(), y.tolist(), z.tolist()))


# one state evaluation's inputs (f0 = F(0)): floats, or (B, 1) columns (evaluate_stacked)
_Curve = namedtuple("_Curve", "formula params rate phase sigma p0 zr x0 f0")


def _curve_values(c: _Curve, t):
    """(x, x', y, z) at t: the closed form at u = rate sigma t + phase."""
    s = c.sigma
    t = s * t
    x, xp, f = c.formula(c.rate * t + c.phase, c.params)
    # y' = (x + z0 + rho)^2 / 2 + p0/2 - 1
    y = (0.5 * c.p0 - 1.0) * t + 0.5 * (f - c.f0)
    # negated at the end, not inside the formulas, to keep signed zeros
    z = -0.5 * x * y - c.zr * y - xp + s * c.x0
    return x, s * xp, s * y, s * z


_curve_state = _in_float_range(_curve_values)


def evaluate_stacked(solutions: list[TrajectorySolution], ts):
    """Arrays x, x', y, z at the (B, n) times ts, row b on solutions[b] and
    equal to solutions[b].evaluate(ts[b]) bit for bit, signed zeros included:
    one formula runs on (B, 1) columns of their curves (AGM.stack for the schemes)."""
    curves = [sol._curve for sol in solutions]
    if len({c.formula for c in curves}) != 1:
        raise DomainError("a stack takes one or more solutions of one closed-form formula")
    ts = np.asarray(ts, dtype=float)
    if ts.ndim > 1 and ts.shape[-2] not in (1, len(curves)):
        raise DomainError(f"times of shape {ts.shape} do not broadcast against the "
                          f"solutions' columns of shape ({len(curves)}, 1)")
    params = tuple(AGM.stack(v) if isinstance(v[0], AGM) else np.array(v)[:, None]
                   for v in zip(*(c.params for c in curves)))
    fields = (np.array(v)[:, None] for v in list(zip(*curves))[2:])
    return _curve_state(_Curve(curves[0].formula, params, *fields), ts)


def make_solution(data: InitialData) -> TrajectorySolution:
    """Build the closed-form trajectory for any finite initial data."""
    return _make(data, build_profile(data))


def make_solutions(data: list[InitialData]) -> Iterator[TrajectorySolution]:
    """make_solution of each datum in order, bit for bit, with one
    build_profile call on the data's columns.  Where that raises or
    overflows, and for a row tagged None, make_solution builds the datum,
    so a refused datum raises its own error after the solutions before it.
    """
    try:
        with np.errstate(all="ignore", over="raise"):  # as Python's ** raises on overflow
            columns = np.array([(d.x0, d.y0, d.z0, d.rho) for d in data], float).reshape(-1, 4)
            prof = build_profile(InitialData(*columns.T))
    except (HeisenmagError, ArithmeticError):  # a datum past the float range
        profiles = [None] * len(data)
    else:
        cols = (zip(*(c.tolist() for c in v)) if isinstance(v, tuple) else v.tolist()
                for v in vars(prof).values())
        profiles = [QuarticProfile(*row) for row in zip(*cols)]
    for datum, prof in zip(data, profiles):
        yield make_solution(datum) if prof is None or prof.branch is None else _make(datum, prof)


def _make(data: InitialData, prof: QuarticProfile) -> TrajectorySolution:
    """make_solution given the datum's profile."""
    scale = data.scale()
    sigma = -1.0 if data.x0 < 0.0 else 1.0
    closed = _PROFILE_BUILDERS[prof.branch](data, prof, abs(data.x0) <= _VANISHING_BAND * scale)
    tol0 = _X0_BAND * scale
    for flipped, phase in ((False, closed.phase), (True, -closed.phase)):
        x_start, xp0, f0 = closed.formula(phase, closed.params)
        if abs(x_start) <= tol0 and xp0 * sigma * data.x0 >= -tol0:
            break
    else:
        raise BranchConsistencyError(
            f"branch {prof.branch}: x(0) = {closed.formula(closed.phase, closed.params)[0]} "
            f"with principal constant {closed.phase}; no sign correction restores x(0) = 0"
        )
    if not all(map(math.isfinite, (phase, x_start, xp0, f0))):
        raise BranchConsistencyError(
            f"branch {prof.branch}: the state (x, x', F) = ({x_start}, {xp0}, {f0}) at the "
            f"phase constant {phase} is not finite"
        )
    v = translate_velocity(HeisenbergPoint(x_start, 0.0, 0.0),  # y(0) = z(0) = 0
                           *data.body_velocity(x_start, sigma * xp0))
    err = max(abs(v[0] - data.x0), abs(v[1] - data.y0), abs(v[2] - data.z0))
    if err > _SLOPE_BAND * scale:
        raise BranchConsistencyError(
            f"branch {prof.branch}: sigma'(0) = {v} != ({data.x0}, {data.y0}, {data.z0})"
        )
    curve = _Curve(closed.formula, closed.params, closed.rate, phase, sigma, prof.p0, data.zr,
                   data.x0, f0)
    return TrajectorySolution(data, prof, phase, flipped, closed.period, sigma,
                              closed.f_over_period, curve)


# --- Exact forces F_{0,rho} ---------------------------------------------------


@dataclass(frozen=True)
class ExactTrajectory(_StatedCurve):
    """Magnetic trajectory through the identity for the exact force F_{0,rho}.

    The horizontal part rotates at rate z0 + rho; for z0 = -rho the curve
    degenerates to the one-parameter subgroup exp(t(x0 e1 + y0 e2 + z0 e3)).
    """

    data: InitialData

    @property
    def is_subgroup(self) -> bool:
        return abs(self.data.zr) <= _VANISHING_BAND * self.data.scale()

    def _state(self, t, point: bool) -> tuple:
        """(x, y, z) if point, else (x', y', z'), at t; (x, y) turns at rate z0 + rho."""
        d, m = self.data, ops(t)
        if self.is_subgroup:
            one = 0.0 * t + 1.0  # 1.0, shaped like t
            return (d.x0 * t, d.y0 * t, d.z0 * t) if point else (d.x0 * one, d.y0 * one, d.z0 * one)
        tau, v0_sq, u = d.zr, d.x0 ** 2 + d.y0 ** 2, d.zr * t
        s, c = m.sin(u), m.cos(u)
        small = (abs(u) < _TURN_CUT,)
        one_c = m.select(small, (lambda: 2.0 * m.pow(m.sin(0.5 * u), 2), lambda: 1.0 - c))
        if not point:
            return c * d.x0 - s * d.y0, s * d.x0 + c * d.y0, d.z0 + v0_sq / (2.0 * tau) * one_c

        def series():  # z0 t + v0^2 (u - sin u) / (2 tau^2), the difference by its series
            tail = sum(coef * m.pow(u * u, k) for k, coef in enumerate(_SINE_TAIL))
            return d.z0 * t + v0_sq / (2.0 * tau) * t * (u * u * tail)

        z = m.select(small, (series, lambda: (d.z0 + v0_sq / (2.0 * tau)) * t
                             - v0_sq / (2.0 * tau ** 2) * s))
        return (s * d.x0 - one_c * d.y0) / tau, (one_c * d.x0 + s * d.y0) / tau, z

    def horizontal_period(self) -> float | None:
        """Time for (x, y) to return to the origin: 2 pi / |z0 + rho|."""
        if self.is_subgroup:
            return None
        return 2.0 * math.pi / abs(self.data.zr)


# --- Symmetry extensions -------------------------------------------------------


# perfbench calls this and traces ReflectedTrajectory.sample; both go in ROADMAP item 7's retarget
def reflect_for_negative_x0(data: InitialData) -> TrajectorySolution:
    return make_solution(data)


ReflectedTrajectory = TrajectorySolution


@dataclass(frozen=True)
class TranslatedTrajectory(_StatedCurve):
    """Left translate t -> p * sigma(t); magnetic for the same force."""

    base_point: HeisenbergPoint
    source: _StatedCurve  # a TrajectorySolution, an ExactTrajectory or a translate

    def _state(self, t, point: bool) -> tuple:
        """(x, y, z) of p * sigma(t) if point, else its (x', y', z'), from the source's state."""
        values = self.source._state(t, point)
        if point:
            p = self.base_point * HeisenbergPoint(*values)
            return p.x, p.y, p.z
        return translate_velocity(self.base_point, *values)
