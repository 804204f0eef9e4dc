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

Criterion 10 checks the Lagrangian on its rows.  `taylor_reduced`
integrates the reduced system x'' = rho - h'(x) h(x), y' = h(x) - 1 to
about 32 digits in fixed point; criterion 1 checks every branch against
it, the saddle branches included, where float64 loses e^{sqrt(-mu) t}.
The module also evaluates the natural Lagrangian
L = g(gamma', gamma')/2 - theta(gamma'), with theta the primitive of
omega_F (`heisenberg.potential_one_form`), and finite-difference
Euler-Lagrange residuals along sampled curves.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, check_finite
from .heisenberg import HeisenbergPoint, LorentzForce, potential_one_form
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


def _jz_step(series, one) -> float:
    """Jorba and Zou's step r / e^2 for component series of order n: r is the
    smallest (one / |c_j|)^(1/j) over j = n - 1, n with |c_j| > 0 the largest
    over the components, in units where one is 1; infinite when both vanish."""
    n = len(series[0]) - 1
    sizes = (max(abs(cs[j]) for cs in series) for j in (n - 1, n))
    r = min(((one / s) ** (1.0 / j) for j, s in zip((n - 1, n), sizes) if s), default=math.inf)
    return r / math.e ** 2


def _taylor_steps(start, times, series_at, values_at) -> list:
    """Each step's values at the ascending times >= 0 of a Taylor run from start
    at 0: series_at(state) gives a series and its step, values_at(series,
    offsets) its values there.  The steps do not depend on the times; each
    time is read off the series of the step that holds it (dense output)."""
    now, i, chunks = 0, 0, []
    series, step = series_at(start)
    while True:
        j = bisect.bisect_right(times, now + step, i)
        chunks.append(values_at(series, [t - now for t in times[i:j]]))
        if j == len(times):
            return chunks
        if not now < now + step:
            raise ConvergenceError(f"Taylor step {step} does not advance the time {now}")
        i, now = j, now + step
        series, step = series_at(values_at(series, [step])[0])


_FLOAT_EPS = 1e-16  # absolute tolerance of a float Taylor step
_FLOAT_ORDER = _jz_order(_FLOAT_EPS)  # 20
_TAYLOR_EPS = 1e-32  # absolute tolerance of a fixed-point step
_TAYLOR_ORDER = _jz_order(_TAYLOR_EPS)  # 38


def _cauchy(a: list, b: list) -> float:
    """The last coefficient of the product of two series of equal length."""
    return sum(map(operator.mul, a, reversed(b)))


def _full_series(state, alpha: float, beta: float, rho: float) -> list[list[float]]:
    """Order-20 Taylor coefficients of (x, y, z, x', y', z') at a state, in
    Python floats: xi, x'', y'' and z'' by Cauchy products from the equations
    above, then (k+1) c_{k+1} = (c')_k."""
    xs, ys, zs, us, vs, ws = ([c] for c in state)
    xi_rho, xpps, ypps = [], [], []
    for k in range(_FLOAT_ORDER):
        xi = ws[k] + 0.5 * (_cauchy(us, ys) - _cauchy(xs, vs))
        xi_rho.append(xi + rho if k == 0 else xi)
        xpps.append((rho * beta if k == 0 else 0.0) - _cauchy(xi_rho, vs) - beta * xi_rho[k])
        ypps.append((rho * alpha if k == 0 else 0.0) + _cauchy(xi_rho, us) - alpha * xi_rho[k])
        zpp = beta * us[k] + alpha * vs[k] - 0.5 * (_cauchy(xpps, ys) - _cauchy(xs, ypps))
        for cs, dc in zip((xs, ys, zs, us, vs, ws), (us[k], vs[k], ws[k], xpps[k], ypps[k], zpp)):
            cs.append(dc / (k + 1))
    return [xs, ys, zs, us, vs, ws]


def integrate_general(force: LorentzForce, s0: StateVector, ts) -> np.ndarray:
    """Rows (x, y, z, x', y', z') at the times ts of the full system from s0 at ts[0].

    Float Taylor steps of order 20 for _FLOAT_EPS; a step's rows are its
    coefficients times the powers of their offsets (dense output).  ts is a
    1-D array of two or more finite, strictly monotone times; descending
    times run backward.  A start off the identity is left-translated to it
    (the equations above assume that base point), and the rows back.
    """
    ts = np.asarray(ts, dtype=float)
    if not (ts.ndim == 1 and len(ts) >= 2 and np.all(np.isfinite(ts))
            and (np.all(ts[1:] > ts[:-1]) or np.all(ts[1:] < ts[:-1]))
            and math.isfinite(float(ts[-1]) - float(ts[0]))):
        raise DomainError("the Taylor oracle needs a 1-D array of 2 or more finite, monotone times")
    check_finite(x=s0.x, y=s0.y, z=s0.z, xp=s0.xp, yp=s0.yp, zp=s0.zp)
    x, y, z, xp, yp, zp = map(float, (s0.x, s0.y, s0.z, s0.xp, s0.yp, s0.zp))
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
        return matrix[:degree + 1], _jz_step(series, 1.0)

    def values_at(matrix, offsets):
        return np.vander(sigma * np.array(offsets), len(matrix), increasing=True) @ matrix

    # at the identity the centre velocity loses the (p, velocity) cross term,
    # and back at p * gamma it regains it
    start = (0.0, 0.0, 0.0, xp, yp, zp - 0.5 * (x * yp - y * xp))
    taus = (sigma * (ts - ts[0])).tolist()
    gx, gy, gz, u, v, w = np.concatenate(_taylor_steps(start, taus, series_at, values_at)).T
    return np.column_stack((x + gx, y + gy, z + gz + 0.5 * (x * gy - y * gx),
                            u, v, w + 0.5 * (x * v - y * u)))


# --- Taylor oracle for the reduced system ---------------------------------------

_FRAC_BITS = 112  # fixed-point fraction bits, about 33.7 decimal digits
_ONE = 1 << _FRAC_BITS


def _fixed(v: float) -> int:
    """v in fixed point; exact whenever v is a multiple of 2^-112."""
    num, den = float(v).as_integer_ratio()
    return (num << _FRAC_BITS) // den


def _taylor_series(x: int, u: int, y: int, zr: int, c: int, rho: int):
    """Taylor coefficients of order n = 38 of (x, u, y) at a state, and their step.

    Coefficients by Cauchy products, with w = x + zr: (k+1) x_{k+1} = u_k,
    g_k = (w*w)_k / 2 (+ c at k = 0), (k+1) u_{k+1} = rho d_k0 - (w*g)_k and
    (k+1) y_{k+1} = g_k - d_k0.  The step is _jz_step's, in fixed point.
    """
    n, f = _TAYLOR_ORDER, _FRAC_BITS
    xs, us, ys, ws, gs = [x], [u], [y], [x + zr], []
    for k in range(n):
        half = (k + 1) >> 1  # (w*w)_k is twice the sum below, plus w_{k/2}^2
        ww = sum(map(operator.mul, ws[:half], reversed(ws[k - half + 1:]))) << 1
        g = (ww + ws[half] * ws[half] if k % 2 == 0 else ww) >> (f + 1)
        gs.append(g + c if k == 0 else g)
        wg = _cauchy(ws, gs) >> f
        xs.append(us[k] // (k + 1))
        us.append(((rho if k == 0 else 0) - wg) // (k + 1))
        ys.append((gs[k] - (_ONE if k == 0 else 0)) // (k + 1))
        ws.append(xs[-1])
    step = _jz_step((xs, us, ys), _ONE)
    return (xs, us, ys), (_fixed(step) if step < math.inf else step)


def _horner(cs: list[int], dt: int) -> int:
    """The series cs at dt, both in fixed point."""
    acc = cs[-1]
    for ck in reversed(cs[:-1]):
        acc = ck + (acc * dt >> _FRAC_BITS)
    return acc


def taylor_reduced(data: InitialData, ts) -> np.ndarray:
    """Rows (x, x', y, z) at the ascending times ts >= 0, integrated to ~32 digits.

    Integrates x' = u, u' = rho - w g, y' = g - 1 with w = x + z0 + rho and
    g = w^2/2 + y0 + 1 - (z0+rho)^2/2 = h(x) by Taylor steps of order 38
    and length r/e^2 (Jorba & Zou, Exp. Math. 14(1), 2005), in Python-int
    fixed point with 112 fractional bits.  The steps do not depend on ts:
    each requested time is read off the series of the step that holds it
    (dense output), so a row equals the row of that time requested alone.
    z comes from the conserved level -x y/2 - (z0+rho) y - x' + x0.  Each
    output is rounded once from the fixed-point state.
    """
    ts = np.asarray(ts, dtype=float)
    if ts.ndim != 1 or not np.all(np.isfinite(ts)) or np.any(ts < 0.0) or np.any(np.diff(ts) < 0):
        raise DomainError("the Taylor oracle needs a 1-D array of finite, ascending times >= 0")
    rho, x0 = _fixed(data.rho), _fixed(data.x0)
    zr = _fixed(data.z0) + rho
    c = _fixed(data.y0) + _ONE - (zr * zr >> (_FRAC_BITS + 1))

    def values_at(series, offsets):
        return [[_horner(cs, dt) for cs in series] for dt in offsets]

    chunks = _taylor_steps((0, x0, 0), [_fixed(t) for t in ts.tolist()],
                           lambda state: _taylor_series(*state, zr, c, rho), values_at)
    out = np.empty((len(ts), 4))
    for i, (x, u, y) in enumerate(itertools.chain.from_iterable(chunks)):
        z = -(x * y >> (_FRAC_BITS + 1)) - (zr * y >> _FRAC_BITS) - u + x0
        out[i] = x / _ONE, u / _ONE, y / _ONE, z / _ONE
    return out


# --- Lagrangian of the magnetic system ---------------------------------------


def metric_speed_sq(s: StateVector) -> float:
    """g(gamma', gamma') in exponential coordinates; constant on trajectories."""
    body_z = s.zp + 0.5 * (s.xp * s.y - s.x * s.yp)
    return s.xp ** 2 + s.yp ** 2 + body_z ** 2


def lagrangian_value(force: LorentzForce, s: StateVector) -> float:
    """Natural Lagrangian L = g(gamma', gamma')/2 - theta(gamma'), theta the
    primitive of omega_F (heisenberg.potential_one_form)."""
    f1, f2, f3 = potential_one_form(force, HeisenbergPoint(s.x, s.y, s.z))
    return 0.5 * metric_speed_sq(s) - (f1 * s.xp + f2 * s.yp + f3 * s.zp)


def lagrangian_momenta(force: LorentzForce, s: StateVector) -> tuple[float, float, float]:
    """(dL/dx', dL/dy', dL/dz')."""
    alpha, beta, rho = force.alpha, force.beta, force.rho
    body_z = s.zp + 0.5 * (s.xp * s.y - s.x * s.yp)
    px = s.xp + 0.5 * body_z * s.y + 0.5 * rho * s.y - 0.5 * beta * s.x * s.y
    py = s.yp - 0.5 * body_z * s.x - 0.5 * rho * s.x + 0.5 * alpha * s.x * s.y
    pz = body_z - beta * s.x - alpha * s.y
    return (px, py, pz)


def lagrangian_gradients(force: LorentzForce, s: StateVector) -> tuple[float, float, float]:
    """(dL/dx, dL/dy, dL/dz)."""
    alpha, beta, rho = force.alpha, force.beta, force.rho
    body_z = s.zp + 0.5 * (s.xp * s.y - s.x * s.yp)
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
