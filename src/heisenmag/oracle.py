"""Independent numerical ground truth for the magnetic system on H3.

One Taylor method, with Jorba and Zou's order and step and dense output,
runs two oracles.  `integrate_general` integrates, in floats, the full
second-order system for any left-invariant Lorentz force F_{U,rho}
(U = beta e1 + alpha e2) as a first-order system in (x, y, z, x', y', z'):

    xi   = z' + (x' y - x y')/2
    x''  = rho beta  - (xi + rho)(y' + beta)
    y''  = rho alpha + (xi + rho)(x' - alpha)
    z''  = beta x' + alpha y' - (x'' y - x y'')/2

The centre equation is the exact time derivative of
xi - beta x - alpha y = z0, so that combination is conserved by the flow;
it is not enforced, and a test checks its drift along the rows.
They assume a start at the identity: a start p off it moves there by
L_p^-1, and the rows come back by `group_product` and by the differential
dL_p of left translation (`heisenberg.translate_velocity`).

Criterion 10 checks the Lagrangian on its rows.  `taylor_reduced` integrates
x'' = rho - h'(x) h(x), y' = h(x) - 1 to about 32 digits, one plain loop per
precision: orders 0-24 exact in 112-bit fixed point, 25-38 in floats whose
rounding stays below 2^-112.  Criterion 1 checks every branch against it, the
saddle branches too, where float64 loses e^{sqrt(-mu) t}.  The module also
evaluates the natural Lagrangian L = g(gamma', gamma')/2 - theta(gamma'), with
theta the primitive of omega_F (`heisenberg.potential_one_form`), and
finite-difference Euler-Lagrange residuals along sampled curves.
"""

from __future__ import annotations

import bisect
import itertools
import math
from operator import mul
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, check_finite
from .heisenberg import HeisenbergPoint, LorentzForce, potential_one_form, translate_velocity
from .quartic import InitialData

__all__ = [
    "StateVector",
    "integrate_general",
    "taylor_reduced",
    "lagrangian_value",
    "lagrangian_momenta",
    "lagrangian_gradients",
    "euler_lagrange_residual",
    "metric_speed_sq",
    "reduced_ode_residual",
    "fd_second_derivative",
]


@dataclass(frozen=True)
class StateVector:
    """A state (x, y, z, x', y', z'); the fields may be equal-length
    arrays, one state per entry, for the Lagrangian functions."""

    x: float
    y: float
    z: float
    xp: float
    yp: float
    zp: float

    @staticmethod
    def from_initial_data(data: InitialData) -> "StateVector":
        return StateVector(0.0, 0.0, 0.0, data.x0, data.y0, data.z0)


# --- Taylor integration, shared by both oracles -----------------------------------


def _jz_order(eps: float) -> int:
    """Jorba and Zou's order for the absolute tolerance eps of a step."""
    return math.ceil(math.log(1.0 / eps) / 2.0) + 1


def _jz_step(series, floor: float = 0.0) -> float:
    """Jorba and Zou's step r / e^2 for component series of order n: r is the
    smallest (1 / s)^(1/j) over j = n - 1, n with s > 0 the largest |c_j| over
    the components, raised to floor if below it; infinite when both vanish."""
    js = (len(series[0]) - 2, len(series[0]) - 1)
    sizes = (max(abs(cs[j]) for cs in series) for j in js)
    r = min(((1.0 / max(s, floor)) ** (1.0 / j) for j, s in zip(js, sizes) if s), default=math.inf)
    return r / math.e ** 2


_TAYLOR_STEP_CAP = 10_000  # a run's steps; tests take <= 95, criteria 57, verify --case 1,442


def _taylor_steps(start, times, series_at, values_at, unit=1) -> list:
    """Each step's values at the ascending times >= 0 of a Taylor run from start
    at 0: series_at(state) gives a series and its step, values_at(series,
    offsets) its values there.  The steps do not depend on the times; each
    time is read off the series of the step that holds it (dense output).
    A run past _TAYLOR_STEP_CAP steps raises, naming its span in times / unit."""
    now, i, chunks = 0, 0, []
    series, step = series_at(start)
    for _ in range(_TAYLOR_STEP_CAP):
        j = bisect.bisect_right(times, now + step, i)
        chunks.append(values_at(series, [t - now for t in times[i:j]]))
        if j == len(times):
            return chunks
        if not now < now + step:
            raise ConvergenceError(f"Taylor step {step} does not advance the time {now}")
        i, now = j, now + step
        series, step = series_at(values_at(series, [step])[0])
    raise ConvergenceError(f"a Taylor run passes {_TAYLOR_STEP_CAP} steps at time {now / unit} "
                           f"of [0, {times[-1] / unit}]")


_FLOAT_EPS = 1e-16  # absolute tolerance of a float Taylor step
_FLOAT_ORDER = _jz_order(_FLOAT_EPS)  # 20
_TAYLOR_EPS = 1e-32  # absolute tolerance of a fixed-point step
_TAYLOR_ORDER = _jz_order(_TAYLOR_EPS)  # 38


def _full_series(state, alpha: float, beta: float, rho: float) -> list[list[float]]:
    """Order-20 Taylor coefficients of (x, y, z, x', y', z') at a state, in
    Python floats: xi, x'', y'' and z'' by Cauchy products from the equations
    above, then n c_n = (c')_{n-1}.  Their order 0, where rho enters, is peeled off."""
    xs, ys, zs, us, vs, ws = ([c] for c in state)
    xi_rho = [ws[0] + 0.5 * (sum(map(mul, us, ys)) - sum(map(mul, xs, vs))) + rho]
    xpps = [rho * beta - sum(map(mul, xi_rho, vs)) - beta * xi_rho[0]]
    ypps = [rho * alpha + sum(map(mul, xi_rho, us)) - alpha * xi_rho[0]]
    zpp = beta * us[0] + alpha * vs[0] - 0.5 * (sum(map(mul, xpps, ys)) - sum(map(mul, xs, ypps)))
    xs.append(us[0]), ys.append(vs[0]), zs.append(ws[0])
    us.append(xpps[0]), vs.append(ypps[0]), ws.append(zpp)
    for n in range(2, _FLOAT_ORDER + 1):
        xi = ws[-1] + 0.5 * (sum(map(mul, us, reversed(ys))) - sum(map(mul, xs, reversed(vs))))
        xi_rho.append(xi)
        xpps.append(0.0 - sum(map(mul, xi_rho, reversed(vs))) - beta * xi)
        ypps.append(sum(map(mul, xi_rho, reversed(us))) - alpha * xi)
        zpp = beta * us[-1] + alpha * vs[-1] - 0.5 * (sum(map(mul, xpps, reversed(ys)))
                                                      - sum(map(mul, xs, reversed(ypps))))
        xs.append(us[-1] / n), ys.append(vs[-1] / n), zs.append(ws[-1] / n)
        us.append(xpps[-1] / n), vs.append(ypps[-1] / n), ws.append(zpp / n)
    return [xs, ys, zs, us, vs, ws]


def integrate_general(force: LorentzForce, s0: StateVector, ts) -> np.ndarray:
    """Rows (x, y, z, x', y', z') at the times ts of the full system from s0 at ts[0].

    Float Taylor steps of order 20 for _FLOAT_EPS; a step's rows are its
    coefficients times the powers of their offsets (dense output).  ts is a
    1-D array of two or more finite, strictly monotone times; descending
    times run backward.  A start off the identity is left-translated to it,
    and the rows back.
    """
    ts = np.asarray(ts, dtype=float)
    if not (ts.ndim == 1 and len(ts) >= 2 and np.all(np.isfinite(ts))
            and (np.all(ts[1:] > ts[:-1]) or np.all(ts[1:] < ts[:-1]))
            and math.isfinite(float(ts[-1]) - float(ts[0]))):
        raise DomainError("the Taylor oracle needs a 1-D array of 2 or more finite, monotone times")
    check_finite(x=s0.x, y=s0.y, z=s0.z, xp=s0.xp, yp=s0.yp, zp=s0.zp)
    alpha, beta, rho = map(float, (force.alpha, force.beta, force.rho))
    sigma = 1.0 if ts[-1] > ts[0] else -1.0

    def series_at(state):
        series = _full_series([float(v) for v in state], alpha, beta, rho)
        # Python floats overflow to inf quietly: refuse before any array arithmetic
        if not math.isfinite(sum(map(abs, itertools.chain.from_iterable(series)))):
            raise ConvergenceError(f"the Taylor series of the full system overflows from {s0}")
        matrix = np.array(series).T
        # orders that vanish are dropped: on a polynomial motion the step is infinite
        degree = max(np.flatnonzero(matrix.any(axis=1)), default=0)
        return matrix[:degree + 1], _jz_step(series)

    def values_at(matrix, offsets):
        return np.vander(sigma * np.array(offsets), len(matrix), increasing=True) @ matrix

    p = HeisenbergPoint(*map(float, (s0.x, s0.y, s0.z)))
    start = (0.0, 0.0, 0.0, *translate_velocity(p.inverse(), *map(float, (s0.xp, s0.yp, s0.zp))))
    taus = (sigma * (ts - ts[0])).tolist()
    gx, gy, gz, *velocity = np.concatenate(_taylor_steps(start, taus, series_at, values_at)).T
    q = p * HeisenbergPoint(gx, gy, gz)
    return np.column_stack((q.x, q.y, q.z, *translate_velocity(p, *velocity)))


# --- Taylor oracle for the reduced system ---------------------------------------

_FRAC_BITS = 112  # fixed-point fraction bits, about 33.7 decimal digits
_ONE = 1 << _FRAC_BITS
_UNIT = 2.0 ** -_FRAC_BITS  # one fixed-point unit, as a float
# Orders above this are floats: at the step r/e^2, order k adds about e^(-2k) of the state's
# scale, so their rounding 2^-53 adds e^-50 2^-53 ~ 2^-125, 2^13 below a fixed-point unit.
_EXACT_ORDER = 24


def _fixed(v: float) -> int:
    """v in fixed point; exact whenever v is a multiple of 2^-112."""
    num, den = float(v).as_integer_ratio()
    return (num << _FRAC_BITS) // den


def _taylor_series(x: int, u: int, y: int, zr: int, c: int, rho: int):
    """Taylor coefficients of order 38 of (x, u, y) at a state, and their step.

    Cauchy products, with w = x + zr: n x_n = u_{n-1}, g_k = (w*w)_k / 2
    (+ c at k = 0), n u_n = rho d_n1 - (w*g)_{n-1}, n y_n = g_{n-1} - d_n1.
    Order 0 of g is peeled off; one loop runs orders 2 to _EXACT_ORDER in fixed
    point, one the rest on w, u and g scaled to floats.  x and w share a list
    (x_n = w_n for n >= 1); w is also kept reversed and g only so.  The step is
    _jz_step's with sizes below one unit raised to one, as fixed point rounds
    them: h <= 2^(112/38)/e^2 ~ 1.04 keeps h^k times the exact orders' rounding
    near one unit.
    """
    w = x + zr
    g = (w * w >> _FRAC_BITS + 1) + c
    ws, rws, us, ys, rgs = [w, u], [u, w], [u, rho - (w * g >> _FRAC_BITS)], [y, g - _ONE], [g]
    for n in range(2, _EXACT_ORDER + 1):
        half = n >> 1  # (w*w)_{n-1} is twice the sum below, plus w_{half}^2 for n odd
        ww = 2 * sum(map(mul, ws[:half], rws))
        g = (ww + ws[half] * ws[half] if n % 2 else ww) >> _FRAC_BITS + 1
        rgs.insert(0, g)
        wg = sum(map(mul, ws, rgs)) >> _FRAC_BITS
        ws.append(us[-1] // n), rws.insert(0, ws[-1])
        us.append(-wg // n)
        ys.append(g // n)
    exact_ws, exact_us = ws, us
    try:
        us, ws, rgs = ([v * _UNIT for v in cs] for cs in (us, ws, rgs))
    except OverflowError as exc:
        raise ConvergenceError(f"a Taylor coefficient to order {_EXACT_ORDER} overflows") from exc
    rws = ws[::-1]
    for n in range(_EXACT_ORDER + 1, _TAYLOR_ORDER + 1):
        half = n >> 1
        ww = 2 * sum(map(mul, ws[:half], rws))
        g = (ww + ws[half] * ws[half] if n % 2 else ww) * 0.5
        rgs.insert(0, g)
        wg = sum(map(mul, ws, rgs))
        ws.append(us[-1] / n), rws.insert(0, ws[-1])
        us.append((0.0 - wg) / n)  # +0.0, not -0.0, where wg is 0.0
        ys.append(g / n)
    series = ([x, *exact_ws[1:], *ws[_EXACT_ORDER + 1:]], exact_us + us[_EXACT_ORDER + 1:], ys)
    if not math.isfinite(sum(sum(cs[_EXACT_ORDER + 1:]) for cs in series)):  # inf, or NaN
        raise ConvergenceError(f"a Taylor coefficient past order {_EXACT_ORDER} overflows")
    step = _jz_step(series, _UNIT)
    return series, (_fixed(step) if step < math.inf else step)


def _values(series, dts) -> list:
    """(x, x', y) at each fixed-point offset of dts from a series: Horner's rule
    on its float orders in floats, rounded once, then on the rest in fixed point."""
    cuts = [(cs[-1], cs[-2:_EXACT_ORDER:-1], cs[_EXACT_ORDER::-1]) for cs in series]
    rows = []
    for dt in dts:
        t, row = dt / _ONE, []  # int / int: finite for every float time
        for acc, floats, exact in cuts:
            for ck in floats:
                acc = ck + acc * t
            num, den = acc.as_integer_ratio()
            acc = (num << _FRAC_BITS) // den
            for ck in exact:
                acc = ck + (acc * dt >> _FRAC_BITS)
            row.append(acc)
        rows.append(row)
    return rows


def taylor_reduced(data: InitialData, ts) -> np.ndarray:
    """Rows (x, x', y, z) at the ascending times ts >= 0, integrated to ~32 digits.

    Integrates x' = u, u' = rho - w g, y' = g - 1 with w = x + z0 + rho and
    g = w^2/2 + y0 + 1 - (z0+rho)^2/2 = h(x) by Taylor steps of order 38 and
    length r/e^2 (Jorba & Zou, Exp. Math. 14(1), 2005): orders 0-24 in 112-bit
    Python-int fixed point, 25-38 in floats, which add about 2^-125 a step.
    The steps do not depend on ts: `_values` reads each time off the series of
    the step that holds it (dense output), so a row equals that time's row alone.
    z is the level -x y/2 - (z0+rho) y - x' + x0; each output is rounded once
    from the fixed point.  ConvergenceError where a float would overflow.
    """
    ts = np.asarray(ts, dtype=float)
    if ts.ndim != 1 or not np.all(np.isfinite(ts)) or np.any(ts < 0.0) or np.any(np.diff(ts) < 0):
        raise DomainError("the Taylor oracle needs a 1-D array of finite, ascending times >= 0")
    rho, x0 = _fixed(data.rho), _fixed(data.x0)
    zr = _fixed(data.z0) + rho
    c = _fixed(data.y0) + _ONE - (zr * zr >> (_FRAC_BITS + 1))

    chunks = _taylor_steps((0, x0, 0), [_fixed(t) for t in ts.tolist()],
                           lambda state: _taylor_series(*state, zr, c, rho),
                           _values, _ONE)
    out = np.empty((len(ts), 4))
    for i, (x, u, y) in enumerate(itertools.chain.from_iterable(chunks)):
        z = -(x * y >> (_FRAC_BITS + 1)) - (zr * y >> _FRAC_BITS) - u + x0
        out[i] = x / _ONE, u / _ONE, y / _ONE, z / _ONE
    return out


# --- Lagrangian of the magnetic system ---------------------------------------


def metric_speed_sq(s: StateVector) -> float:
    """g(gamma', gamma') = |dL_p^-1 gamma'|^2 at p = gamma; constant on trajectories."""
    _, _, body_z = translate_velocity(HeisenbergPoint(s.x, s.y, s.z).inverse(), s.xp, s.yp, s.zp)
    return s.xp ** 2 + s.yp ** 2 + body_z ** 2


def lagrangian_value(force: LorentzForce, s: StateVector) -> float:
    """Natural Lagrangian L = g(gamma', gamma')/2 - theta(gamma'), theta the
    primitive of omega_F (heisenberg.potential_one_form)."""
    f1, f2, f3 = potential_one_form(force, HeisenbergPoint(s.x, s.y, s.z))
    return 0.5 * metric_speed_sq(s) - (f1 * s.xp + f2 * s.yp + f3 * s.zp)


def lagrangian_momenta(force: LorentzForce, s: StateVector) -> tuple[float, float, float]:
    """(dL/dx', dL/dy', dL/dz')."""
    alpha, beta, rho = force.alpha, force.beta, force.rho
    _, _, body_z = translate_velocity(HeisenbergPoint(s.x, s.y, s.z).inverse(), s.xp, s.yp, s.zp)
    px = s.xp + 0.5 * body_z * s.y + 0.5 * rho * s.y - 0.5 * beta * s.x * s.y
    py = s.yp - 0.5 * body_z * s.x - 0.5 * rho * s.x + 0.5 * alpha * s.x * s.y
    pz = body_z - beta * s.x - alpha * s.y
    return (px, py, pz)


def lagrangian_gradients(force: LorentzForce, s: StateVector) -> tuple[float, float, float]:
    """(dL/dx, dL/dy, dL/dz)."""
    alpha, beta, rho = force.alpha, force.beta, force.rho
    _, _, body_z = translate_velocity(HeisenbergPoint(s.x, s.y, s.z).inverse(), s.xp, s.yp, s.zp)
    gx = (
        -0.5 * body_z * s.yp
        - 0.5 * beta * s.y * s.xp
        + (-0.5 * rho + 0.5 * alpha * s.y) * s.yp
        - beta * s.zp
    )
    gy = (
        0.5 * body_z * s.xp
        + (0.5 * rho - 0.5 * beta * s.x) * s.xp
        + 0.5 * alpha * s.x * s.yp
        - alpha * s.zp
    )
    return (gx, gy, 0.0)


_FD4_FIRST = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
_UNIFORM_BAND = 1e-9  # spacing mismatch, relative to the first step, of a uniform grid


def euler_lagrange_residual(
    force: LorentzForce, t: np.ndarray, states: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """d/dt(dL/dq') - dL/dq for q = x, y, z along a uniformly sampled curve.

    Momenta are differentiated with the 4th-order central stencil; the two
    boundary points on each side are dropped.  Vanishes along magnetic
    trajectories, stays away from zero on non-solutions.
    """
    t = np.asarray(t, dtype=float)
    if t.ndim != 1 or len(t) < 5:
        raise DomainError("need at least 5 uniform samples for 4th-order stencils")
    if not np.all(np.isfinite(t)):
        raise DomainError("euler_lagrange_residual requires finite times")
    # spacings may overflow to inf and their spread to NaN; the not-<= form refuses both
    with np.errstate(over="ignore", invalid="ignore"):
        dt = t[1] - t[0]
        uniform = dt != 0.0 and np.max(np.abs(np.diff(t) - dt)) <= _UNIFORM_BAND * abs(dt)
    if not uniform:
        raise DomainError("euler_lagrange_residual requires a uniform grid of distinct times")
    n = len(t)
    states = np.asarray(states, dtype=float)
    if states.shape != (n, 6):
        raise DomainError(
            f"states must hold one row (x, y, z, x', y', z') per time, of shape ({n}, 6), "
            f"got shape {states.shape}"
        )
    s = StateVector(*states.T)
    momenta = lagrangian_momenta(force, s)
    grads = np.broadcast_arrays(*lagrangian_gradients(force, s))
    res = []
    for q in range(3):
        dm = np.convolve(momenta[q], _FD4_FIRST[::-1], mode="valid") / dt
        res.append(dm - grads[q][2 : n - 2])
    return tuple(res)


_FD6_SECOND = np.array([2.0, -27.0, 270.0, -490.0, 270.0, -27.0, 2.0]) / 180.0
# The elliptic evaluations behind x carry ~1e-14 noise, which a second
# difference divides by the step squared; the 6th-order stencil at step
# 8e-3 keeps that amplification and the truncation both below ~4e-9, under
# the 1e-8 acceptance threshold (a 2nd-order stencil at 1e-4 would sit at
# ~3e-8 from round-off alone).
_FD_STEP = 8e-3


def fd_second_derivative(f, t):
    """6th-order central second difference of f at t with step _FD_STEP,
    t a float or an array of times that f accepts whole."""
    h = _FD_STEP
    vals = np.array([f(t + i * h) for i in range(-3, 4)])
    xpp = np.dot(_FD6_SECOND, vals) / (h * h)
    return float(xpp) if np.ndim(xpp) == 0 else xpp


def reduced_ode_residual(x_func, data: InitialData, ts) -> float:
    """max |x'' + h'(x) h(x) - rho| over ts, x'' by finite differences.

    x_func is called on arrays of times, seven of them for the stencil
    (fd_second_derivative; _FD_STEP says why its step is 8e-3).
    """
    ts = np.asarray(ts, dtype=float)
    if ts.size == 0:
        return 0.0
    xpp = fd_second_derivative(x_func, ts)
    x = x_func(ts)
    return float(np.max(np.abs(xpp + data.h_prime(x) * data.h(x) - data.rho)))
