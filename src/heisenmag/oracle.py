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
it is monitored, never enforced, and its drift is reported.  The module
also evaluates the natural Lagrangian of the system and finite-difference
Euler-Lagrange residuals along sampled curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .errors import ConvergenceError, DomainError
from .heisenberg import HeisenbergPoint, LorentzForce
from .quartic import InitialData

__all__ = [
    "OracleConfig",
    "StateVector",
    "OracleTrajectory",
    "ReducedOracle",
    "integrate_general",
    "integrate_reduced",
    "lagrangian_value",
    "lagrangian_momenta",
    "lagrangian_gradients",
    "euler_lagrange_residual",
    "metric_speed_sq",
    "reduced_ode_residual",
    "fd_second_derivative",
]


@dataclass(frozen=True)
class OracleConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_step: float = math.inf
    t_span: tuple[float, float] = (0.0, 20.0)

    def __post_init__(self):
        if self.rel_tol <= 0.0 or self.abs_tol <= 0.0:
            raise DomainError("oracle tolerances must be positive")


@dataclass(frozen=True)
class StateVector:
    x: float
    y: float
    z: float
    xp: float
    yp: float
    zp: float

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z, self.xp, self.yp, self.zp])

    @staticmethod
    def from_array(a) -> "StateVector":
        return StateVector(*(float(v) for v in a))

    @staticmethod
    def from_initial_data(data: InitialData) -> "StateVector":
        return StateVector(0.0, 0.0, 0.0, data.x0, data.y0, data.z0)


def _rhs(force: LorentzForce):
    alpha, beta, rho = force.alpha, force.beta, force.rho

    def rhs(t, s):
        x, y, _, u, v, w = s
        xi = w + 0.5 * (u * y - x * v)
        xpp = rho * beta - (xi + rho) * (v + beta)
        ypp = rho * alpha + (xi + rho) * (u - alpha)
        zpp = beta * u + alpha * v - 0.5 * (xpp * y - x * ypp)
        return (u, v, w, xpp, ypp, zpp)

    return rhs


@dataclass
class OracleTrajectory:
    """Dense integrator output, translated back to the requested base point."""

    force: LorentzForce
    base: HeisenbergPoint
    t: np.ndarray
    states: np.ndarray  # shape (n, 6), already in the original frame
    constraint_drift: float  # max |xi - beta x - alpha y - z0| at the identity frame
    _dense: object

    def state(self, t: float) -> StateVector:
        s = self._dense(t)
        return StateVector.from_array(self._to_original(np.asarray(s)))

    def point(self, t: float) -> HeisenbergPoint:
        s = self.state(t)
        return HeisenbergPoint(s.x, s.y, s.z)

    def velocity(self, t: float) -> tuple[float, float, float]:
        s = self.state(t)
        return (s.xp, s.yp, s.zp)

    def _to_original(self, s: np.ndarray) -> np.ndarray:
        p = self.base
        if p.x == 0.0 and p.y == 0.0 and p.z == 0.0:
            return s
        out = np.array(s, dtype=float)
        x, y = s[0], s[1]
        out[0] = p.x + x
        out[1] = p.y + y
        out[2] = p.z + s[2] + 0.5 * (p.x * y - p.y * x)
        out[5] = s[5] + 0.5 * (p.x * s[4] - p.y * s[3])
        return out


def integrate_general(
    force: LorentzForce,
    s0: StateVector,
    cfg: OracleConfig = OracleConfig(),
    n_samples: int = 801,
) -> OracleTrajectory:
    """Adaptive DOP853 run of the full system from an arbitrary start.

    A start away from the identity is first left-translated to the
    identity (the equations above assume that base point) and the output is translated
    back.
    """
    base = HeisenbergPoint(s0.x, s0.y, s0.z)
    # velocity of p^-1 * gamma at the identity: v-part unchanged,
    # centre part loses the (p, velocity) cross term
    zp0 = s0.zp - 0.5 * (s0.x * s0.yp - s0.y * s0.xp)
    y0 = np.array([0.0, 0.0, 0.0, s0.xp, s0.yp, zp0])
    t_eval = np.linspace(cfg.t_span[0], cfg.t_span[1], n_samples)
    sol = solve_ivp(
        _rhs(force),
        cfg.t_span,
        y0,
        method="DOP853",
        rtol=cfg.rel_tol,
        atol=cfg.abs_tol,
        max_step=cfg.max_step,
        dense_output=True,
        t_eval=t_eval,
    )
    if not sol.success:
        raise ConvergenceError(f"oracle integration failed: {sol.message}")
    ys = sol.y.T
    xi = ys[:, 5] + 0.5 * (ys[:, 3] * ys[:, 1] - ys[:, 0] * ys[:, 4])
    conserved = xi - force.beta * ys[:, 0] - force.alpha * ys[:, 1]
    drift = float(np.max(np.abs(conserved - zp0)))
    traj = OracleTrajectory(force, base, sol.t, ys, drift, sol.sol)
    traj.states = np.array([traj._to_original(s) for s in ys])
    return traj


@dataclass
class ReducedOracle:
    """Samples of the scalar profile equation x'' = rho - h'(x) h(x)."""

    data: InitialData
    t: np.ndarray
    x: np.ndarray
    xp: np.ndarray
    first_integral_drift: float


def integrate_reduced(
    data: InitialData,
    cfg: OracleConfig = OracleConfig(),
    n_samples: int = 801,
) -> ReducedOracle:
    """Integrate the reduced x-equation and report first-integral drift.

    The conserved quantity is x'^2 + h(x)^2 - 2 rho x, equal to
    x0^2 + (y0+1)^2 at t = 0.
    """
    rho = data.rho

    def rhs(t, s):
        x, u = s
        return (u, rho - data.h_prime(x) * data.h(x))

    t_eval = np.linspace(cfg.t_span[0], cfg.t_span[1], n_samples)
    sol = solve_ivp(
        rhs,
        cfg.t_span,
        [0.0, data.x0],
        method="DOP853",
        rtol=cfg.rel_tol,
        atol=cfg.abs_tol,
        max_step=cfg.max_step,
        t_eval=t_eval,
    )
    if not sol.success:
        raise ConvergenceError(f"reduced oracle failed: {sol.message}")
    xs, us = sol.y
    level = np.array([u * u + data.h(x) ** 2 - 2.0 * rho * x for x, u in zip(xs, us)])
    drift = float(np.max(np.abs(level - data.norm_sq)))
    return ReducedOracle(data, sol.t, xs, us, drift)


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
    dt = t[1] - t[0]
    if np.max(np.abs(np.diff(t) - dt)) > 1e-9 * abs(dt):
        raise DomainError("euler_lagrange_residual requires a uniform grid")
    n = len(t)
    momenta = np.empty((n, 3))
    grads = np.empty((n, 3))
    for i in range(n):
        s = StateVector.from_array(states[i])
        momenta[i] = lagrangian_momenta(force, s)
        grads[i] = lagrangian_gradients(force, s)
    res = []
    for q in range(3):
        dm = np.convolve(momenta[:, q], _FD4_FIRST[::-1], mode="valid") / dt
        res.append(dm - grads[2 : n - 2, q])
    return tuple(res)


_FD6_SECOND = np.array([2.0, -27.0, 270.0, -490.0, 270.0, -27.0, 2.0]) / 180.0


def fd_second_derivative(f, t: float, h: float = 8e-3) -> float:
    """6th-order central second difference of a scalar callable."""
    vals = np.array([f(t + i * h) for i in range(-3, 4)])
    return float(np.dot(_FD6_SECOND, vals) / (h * h))


def reduced_ode_residual(
    x_func, data: InitialData, ts, h: float = 8e-3
) -> float:
    """max |x'' + h'(x) h(x) - rho| over ts, x'' by finite differences.

    The elliptic evaluations behind x carry ~1e-14 noise, which a second
    difference divides by h^2; the 6th-order stencil at step 8e-3 keeps
    that amplification and the truncation both below ~4e-9, under the
    1e-8 acceptance threshold (a 2nd-order stencil at 1e-4 would sit at
    ~3e-8 from round-off alone).
    """
    worst = 0.0
    for t in ts:
        xpp = fd_second_derivative(x_func, t, h)
        x = x_func(t)
        worst = max(worst, abs(xpp + data.h_prime(x) * data.h(x) - data.rho))
    return worst
