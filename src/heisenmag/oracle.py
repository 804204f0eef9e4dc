"""Independent numerical ground truth for the magnetic system on H3.

Integrates the full second-order system for any left-invariant Lorentz
force F_{U,rho} (U = beta e1 + alpha e2) as a first-order system in
(x, y, z, x', y', z'):

    xi   = z' + (x' y - x y')/2
    x''  = rho beta  - (xi + rho)(y' + beta)
    y''  = rho alpha + (xi + rho)(x' - alpha)
    z''  = beta x' + alpha y' - (x'' y - x y'')/2

The centre equation is the exact time derivative of
xi - beta x - alpha y = z0, so that combination is conserved by the flow;
it is not enforced, and a test checks its drift along the rows.

`taylor_reduced` integrates the reduced system x'' = rho - h'(x) h(x),
y' = h(x) - 1 to about 32 digits with dense output; criterion 1 checks
every branch against it, the saddle branches included, where float64
loses e^{sqrt(-mu) t}.  The module also evaluates the natural Lagrangian
and finite-difference Euler-Lagrange residuals along sampled curves.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, check_finite
from .heisenberg import LorentzForce
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


def _rhs(force: LorentzForce):
    alpha, beta, rho = force.alpha, force.beta, force.rho

    def rhs(t, s):
        # Python floats: the same IEEE operations as on numpy scalars, without their overhead
        x, y, _, u, v, w = s.tolist()
        xi = w + 0.5 * (u * y - x * v)
        xpp = rho * beta - (xi + rho) * (v + beta)
        ypp = rho * alpha + (xi + rho) * (u - alpha)
        zpp = beta * u + alpha * v - 0.5 * (xpp * y - x * ypp)
        return (u, v, w, xpp, ypp, zpp)

    return rhs


_DOP853_RTOL = 1e-11  # DOP853's relative tolerance
_DOP853_ATOL = 1e-13  # ... and its absolute tolerance


def integrate_general(force: LorentzForce, s0: StateVector, ts) -> np.ndarray:
    """Rows (x, y, z, x', y', z') at the times ts of an adaptive DOP853 run
    of the full system that starts from s0 at ts[0].

    ts is a 1-D array of at least two finite, strictly monotone times; a
    descending ts integrates backward.  A start away from the identity is
    first left-translated to the identity (the equations above assume that
    base point) and the rows are translated back.
    """
    from scipy.integrate import solve_ivp  # here, so importing heisenmag loads no scipy

    ts = np.asarray(ts, dtype=float)
    monotone = ts.ndim == 1 and (np.all(np.diff(ts) > 0.0) or np.all(np.diff(ts) < 0.0))
    if not monotone or len(ts) < 2 or not np.all(np.isfinite(ts)):
        raise DomainError("the DOP853 oracle needs a 1-D array of 2 or more finite, monotone times")
    check_finite(x=s0.x, y=s0.y, z=s0.z, xp=s0.xp, yp=s0.yp, zp=s0.zp)
    # velocity of p^-1 * gamma at the identity: v-part unchanged,
    # centre part loses the (p, velocity) cross term
    zp0 = s0.zp - 0.5 * (s0.x * s0.yp - s0.y * s0.xp)
    sol = solve_ivp(
        _rhs(force),
        (ts[0], ts[-1]),
        [0.0, 0.0, 0.0, s0.xp, s0.yp, zp0],
        method="DOP853",
        rtol=_DOP853_RTOL,
        atol=_DOP853_ATOL,
        t_eval=ts,
    )
    if not sol.success:
        raise ConvergenceError(f"oracle integration failed: {sol.message}")
    x, y, z, u, v, w = sol.y
    if s0.x or s0.y or s0.z:  # back to p * gamma; its centre velocity regains the cross term
        z = s0.z + z + 0.5 * (s0.x * y - s0.y * x)
        w = w + 0.5 * (s0.x * v - s0.y * u)
        x, y = s0.x + x, s0.y + y
    return np.column_stack((x, y, z, u, v, w))


# --- Taylor oracle for the reduced system ---------------------------------------

_TAYLOR_EPS = 1e-32  # absolute tolerance of a step
_TAYLOR_ORDER = math.ceil(math.log(1.0 / _TAYLOR_EPS) / 2.0) + 1  # Jorba and Zou's 38
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
    (k+1) y_{k+1} = g_k - d_k0.  The step is Jorba and Zou's h = r / e^2 with
    r = min |c_j|^(-1/j) over j in {n-1, n}, |c_j| the largest of the three
    components; it is infinite when all of those vanish.
    """
    n, f = _TAYLOR_ORDER, _FRAC_BITS
    xs, us, ys, ws, gs = [x], [u], [y], [x + zr], []
    for k in range(n):
        half = (k + 1) >> 1  # (w*w)_k is twice the sum below, plus w_{k/2}^2
        ww = sum(map(operator.mul, ws[:half], reversed(ws[k - half + 1:]))) << 1
        g = (ww + ws[half] * ws[half] if k % 2 == 0 else ww) >> (f + 1)
        gs.append(g + c if k == 0 else g)
        wg = sum(map(operator.mul, ws, reversed(gs))) >> f
        xs.append(us[k] // (k + 1))
        us.append(((rho if k == 0 else 0) - wg) // (k + 1))
        ys.append((gs[k] - (_ONE if k == 0 else 0)) // (k + 1))
        ws.append(xs[-1])
    r = min(((_ONE / max(map(abs, (xs[j], us[j], ys[j])))) ** (1.0 / j)
             for j in (n - 1, n) if xs[j] or us[j] or ys[j]), default=math.inf)
    step = _fixed(r / math.e ** 2) if r < math.inf else r
    if step <= 0:
        raise ConvergenceError(f"Taylor step underflows: h = {r / math.e ** 2}")
    return (xs, us, ys), step


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
    now = 0
    series, step = _taylor_series(0, x0, 0, zr, c, rho)
    out = np.empty((len(ts), 4))
    for i, t in enumerate(ts):
        while now + step < _fixed(t):
            now += step
            series, step = _taylor_series(*(_horner(cs, step) for cs in series), zr, c, rho)
        x, u, y = (_horner(cs, _fixed(t) - now) for cs in series)
        z = -(x * y >> (_FRAC_BITS + 1)) - (zr * y >> _FRAC_BITS) - u + x0
        out[i] = x / _ONE, u / _ONE, y / _ONE, z / _ONE
    return out


# --- Lagrangian of the magnetic system ---------------------------------------


def metric_speed_sq(s: StateVector) -> float:
    """g(gamma', gamma') in exponential coordinates; constant on trajectories."""
    body_z = s.zp + 0.5 * (s.xp * s.y - s.x * s.yp)
    return s.xp ** 2 + s.yp ** 2 + body_z ** 2


def lagrangian_value(force: LorentzForce, s: StateVector) -> float:
    """Natural Lagrangian: kinetic term minus the magnetic potential term."""
    alpha, beta, rho = force.alpha, force.beta, force.rho
    kinetic = 0.5 * metric_speed_sq(s)
    potential = (
        (0.5 * rho * s.y - 0.5 * beta * s.x * s.y) * s.xp
        + (-0.5 * rho * s.x + 0.5 * alpha * s.x * s.y) * s.yp
        - (beta * s.x + alpha * s.y) * s.zp
    )
    return kinetic + potential


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
    if len(t) < 5:
        raise DomainError("need at least 5 uniform samples for 4th-order stencils")
    if not np.all(np.isfinite(t)):
        raise DomainError("euler_lagrange_residual requires finite times")
    dt = t[1] - t[0]
    # written as not-<= so that a NaN spread (from spacings that overflow) fails too
    if not (dt != 0.0 and np.max(np.abs(np.diff(t) - dt)) <= _UNIFORM_BAND * abs(dt)):
        raise DomainError("euler_lagrange_residual requires a uniform grid of distinct times")
    n = len(t)
    s = StateVector(*np.asarray(states, dtype=float).T)
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
