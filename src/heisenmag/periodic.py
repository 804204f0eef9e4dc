"""Periodic and lattice-periodic magnetic trajectories for F_{e1,rho}.

Only the two-real-root stratum carries periodic trajectories, and its
initial data (x0 >= 0) is reparametrized by triples (c, d, e) with c > 0,
0 < d < 1, -1 <= e <= 1:

    x0 = (2d/c) sqrt(1-e^2) sqrt((c^3 d e + rho)^2 + (1-d^2) c^6)
    y0 = c^2 (2 d^2 e^2 - 2 d^2 + 1) + 2 d e rho / c - 1
    z0 = rho / c^2 + 2 c d e - rho

In this chart the increment of y over one x-period is y(omega) =
Psi(c, d, e), independent of e, and the energy depends only on (c, d).
Closed trajectories answer Psi = 0: for every c > 1 there is a unique
root d_c, the energy map c -> En(c, d_c) is an increasing bijection of
(1, inf) onto (0, inf), and lattice-periodic curves come from tuning
Psi = y1/n on a fixed-energy surface and conjugating.

Each root, and the conjugacy shift, is found on a sign-changing bracket by
Brent's method (scipy.optimize.brentq); d_c must leave |psi_tilde| <= 1e-12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.optimize import brentq

from .elliptic import complete_K_and_E
from .errors import (
    ConvergenceError,
    DomainError,
    HeisenmagError,
    LambdaNotFoundError,
    check_finite,
)
from .heisenberg import HeisenbergPoint
from .quartic import Branch, InitialData, build_profile
from .trajectory import (
    ExactTrajectory,
    TrajectorySolution,
    TranslatedTrajectory,
    make_solution,
    translate,
)

__all__ = [
    "CdeCoordinates",
    "cde_from_initial",
    "initial_from_cde",
    "psi",
    "psi_tilde",
    "solve_dc",
    "energy_of_c",
    "energy_cde",
    "solve_c_for_energy",
    "build_periodic",
    "equienergy_conjugacy",
    "ExactPeriodicFamily",
    "exact_periodic_family",
    "LatticeElement",
    "GammaLattice",
    "lambda_periodic_residual",
    "lambda_periodic_test",
    "LambdaPeriodicResult",
    "find_lambda_periodic",
    "primitive_period",
    "lattice_obstruction_check",
]


# --- the (c, d, e) chart -------------------------------------------------------


@dataclass(frozen=True)
class CdeCoordinates:
    """Chart on the two-real-root initial data with x0 >= 0."""

    c: float
    d: float
    e: float
    rho: float

    def __post_init__(self):
        if self.c <= 0.0:
            raise DomainError(f"c must be positive, got {self.c}")
        if not 0.0 < self.d < 1.0:
            raise DomainError(f"d must lie in (0, 1), got {self.d}")
        if abs(self.e) > 1.0 + 1e-12:
            raise DomainError(f"e must lie in [-1, 1], got {self.e}")

    def initial_data(self) -> InitialData:
        return initial_from_cde(self.c, self.d, self.e, self.rho)

    def roots(self) -> tuple[float, float, complex, complex]:
        """(r1, r4, r2, r3) of the speed quartic in this chart."""
        c, d, rho = self.c, self.d, self.rho
        re = rho / (c * c)
        im = 2.0 * c * math.sqrt(1.0 - d * d)
        return (re - 2.0 * c * d, re + 2.0 * c * d, complex(-re, -im), complex(-re, im))

    def deltas(self) -> tuple[float, float]:
        c, d, rho = self.c, self.d, self.rho
        c6 = c ** 6
        return (
            2.0 / (c * c) * math.sqrt(rho * rho + c6 - 2.0 * rho * d * c ** 3),
            2.0 / (c * c) * math.sqrt(rho * rho + c6 + 2.0 * rho * d * c ** 3),
        )

    def energy(self) -> float:
        return energy_cde(self.c, self.d, self.rho)


def initial_from_cde(c: float, d: float, e: float, rho: float) -> InitialData:
    e = min(1.0, max(-1.0, e))
    c3 = c ** 3
    x0 = (
        2.0 * d / c
        * math.sqrt(max(0.0, 1.0 - e * e))
        * math.sqrt((c3 * d * e + rho) ** 2 + (1.0 - d * d) * c3 * c3)
    )
    y0 = c * c * (2.0 * d * d * e * e - 2.0 * d * d + 1.0) + 2.0 * d * e * rho / c - 1.0
    z0 = rho / (c * c) + 2.0 * c * d * e - rho
    return InitialData(x0, y0, z0, rho)


def cde_from_initial(data: InitialData) -> CdeCoordinates:
    """Chart coordinates of a two-real-root initial condition (x0 >= 0)."""
    if data.x0 < 0.0:
        raise DomainError("the (c, d, e) chart covers the x0 >= 0 half")
    profile = build_profile(data)
    if profile.branch is not Branch.NEG:
        raise DomainError(
            f"(c, d, e) chart needs a negative discriminant, got {profile.branch}"
        )
    r1, r4 = profile.r1, profile.r4
    base = 2.0 * profile.p0 + r1 * r1 + r4 * r4
    c = 0.5 * math.sqrt(base)
    d = (r4 - r1) / (2.0 * math.sqrt(base))
    e = (2.0 * data.zr - (r1 + r4)) / (r4 - r1)
    return CdeCoordinates(c, d, min(1.0, max(-1.0, e)), data.rho)


def energy_cde(c: float, d: float, rho: float) -> float:
    """Energy in the chart; does not involve e."""
    c4 = c ** 4
    return (c4 + rho * rho) * (c4 + 4.0 * c * c * d * d - 2.0 * c * c + 1.0) / (2.0 * c4)


# --- the periodicity function Psi ---------------------------------------------


def _psi_parts(c: float, d: float, rho: float) -> tuple[float, float]:
    """(S, k): S = sqrt((rho^2+c^6)^2 - 4 rho^2 d^2 c^6) and the modulus."""
    c6 = c ** 6
    inner = (rho * rho + c6) ** 2 - 4.0 * rho * rho * d * d * c6
    if inner < 0.0:
        raise DomainError("invalid (c, d) pair: negative inner square root")
    s = math.sqrt(inner)
    k_sq = (2.0 * c6 * d * d - rho * rho - c6) / (2.0 * s) + 0.5
    if k_sq < -1e-12 or k_sq > 1.0 + 1e-12:
        raise DomainError(f"modulus squared {k_sq} outside [0, 1]")
    k = math.sqrt(min(1.0 - 1e-16, max(0.0, k_sq)))
    return s, k


def psi_tilde(c: float, d: float, rho: float) -> float:
    """E(k) - ((rho^2+c^4)/(2S) + 1/2) K(k); same sign as y(omega)."""
    if c <= 0.0 or not 0.0 < d < 1.0:
        raise DomainError(f"psi_tilde needs c > 0 and d in (0, 1), got c={c}, d={d}")
    s, k = _psi_parts(c, d, rho)
    big_k, big_e = complete_K_and_E(k)
    return big_e - ((rho * rho + c ** 4) / (2.0 * s) + 0.5) * big_k


def psi(c: float, d: float, e: float, rho: float) -> float:
    """y over one x-period as a function of the chart; e does not enter."""
    s, _ = _psi_parts(c, d, rho)
    return 8.0 / (c * c) * math.sqrt(s) * psi_tilde(c, d, rho)


# --- unique root d_c and the energy bijection -----------------------------------


# rtol = 4 eps is the smallest scipy accepts and xtol (the smallest
# subnormal) is negligible, so every root is resolved to float precision.
_RTOL = 4.0 * np.finfo(float).eps
_XTOL = 5e-324
_DC_TOL = 1e-12
_C_FLOOR = 1.0 + 1e-11
_SWEEP_STEPS = 400


def _brent(f, lo: float, hi: float) -> float:
    """Root of f on [lo, hi], whose end values differ in sign."""
    try:
        return brentq(f, lo, hi, xtol=_XTOL, rtol=_RTOL)
    except HeisenmagError:
        raise
    except (ValueError, RuntimeError) as exc:
        raise ConvergenceError(f"Brent's method failed on [{lo}, {hi}]: {exc}") from exc


def solve_dc(c: float, rho: float) -> float:
    """The unique d in (0, 1) with psi_tilde(c, d) = 0; needs c > 1.

    psi_tilde is positive near d = 0 (limit c^4 (c^2-1) pi / (4(rho^2+c^6)))
    and negative near d = 1, so Brent's method applies on that bracket; the
    root must leave |psi_tilde| <= 1e-12.
    """
    if c <= 1.0:
        raise DomainError(f"no periodic trajectory for c <= 1 (got c = {c})")
    lo, hi = 1e-12, 1.0 - 1e-12
    f_lo = psi_tilde(c, lo, rho)
    f_hi = psi_tilde(c, hi, rho)
    if f_lo <= 0.0 or f_hi >= 0.0:
        raise ConvergenceError(
            f"d_c bracket failed at c={c}: psi({lo})={f_lo}, psi({hi})={f_hi}"
        )
    d = _brent(lambda d: psi_tilde(c, d, rho), lo, hi)
    f_d = psi_tilde(c, d, rho)
    if abs(f_d) > _DC_TOL:
        raise ConvergenceError(f"psi_tilde residual {f_d} at c={c} exceeds {_DC_TOL}")
    return d


def energy_of_c(c: float, rho: float) -> float:
    """Energy of the periodic trajectory family at parameter c > 1."""
    return energy_cde(c, solve_dc(c, rho), rho)


def solve_c_for_energy(energy: float, rho: float) -> float:
    """The unique c > 1 whose periodic family has the given energy."""
    check_finite(energy=energy, rho=rho)
    if energy <= 0.0:
        raise DomainError(f"energy must be positive, got {energy}")
    # closer to c = 1, psi_tilde is flat below the 1e-12 residual gate
    floor = energy_of_c(_C_FLOOR, rho)
    if not floor < energy:
        raise DomainError(
            f"energy {energy} is below {floor}, the smallest resolvable at rho = {rho}"
        )
    hi = 2.0
    while energy_of_c(hi, rho) < energy:
        hi *= 2.0
        if hi > 1e9:
            raise ConvergenceError("energy bracket blew up")
    return _brent(lambda c: energy_of_c(c, rho) - energy, _C_FLOOR, hi)


def build_periodic(
    energy: float, e: float, rho: float = 1.0
) -> tuple[TrajectorySolution, dict]:
    """Closed trajectory through the identity with the requested energy.

    Returns the solution and a closure report: the period omega and the
    end-point residuals |x(omega)|, |y(omega)|, |z(omega)|, plus the
    energy error of the constructed initial data.
    """
    check_finite(energy=energy, e=e, rho=rho)
    if rho < 0.0:
        raise DomainError("build_periodic assumes the canonical force with rho >= 0")
    if abs(e) > 1.0:
        raise DomainError(f"e must lie in [-1, 1], got {e}")
    c = solve_c_for_energy(energy, rho)
    d = solve_dc(c, rho)
    data = initial_from_cde(c, d, e, rho)
    sol = make_solution(data)
    omega = sol.x_period
    if omega is None:
        raise ConvergenceError("periodic construction produced a non-periodic branch")
    report = {
        "c": c,
        "d": d,
        "e": e,
        "rho": rho,
        "initial_data": data,
        "period": omega,
        "closure_x": abs(sol.x(omega)),
        "closure_y": abs(sol.y(omega)),
        "closure_z": abs(sol.z(omega)),
        "energy_error": abs(data.energy() - energy),
    }
    return sol, report


def equienergy_conjugacy(
    sol1: TrajectorySolution, sol2: TrajectorySolution, n_check: int = 25
) -> tuple[float, HeisenbergPoint, float]:
    """Exhibit sol2(t) = sigma1(C)^{-1} sigma1(t + C).

    Both inputs must be periodic trajectories of the same energy (same
    (c, d_c), different e).  Returns (C, p, residual) where p =
    sigma1(C)^{-1}, C solves x1(C) = z0_2 - z0_1 with matching slope
    sign, and residual is the worst coordinate mismatch on a grid.
    """
    omega = sol1.x_period
    if omega is None or sol2.x_period is None:
        raise DomainError("equienergy conjugacy needs periodic trajectories")
    target = sol2.data.z0 - sol1.data.z0
    shift = None
    grid = np.linspace(0.0, omega, 257)
    vals = [sol1.x(t) - target for t in grid]
    for i in range(len(grid) - 1):
        if vals[i] == 0.0 and sol1.x_prime(grid[i]) * sol2.data.x0 >= 0.0:
            shift = grid[i]
            break
        if vals[i] * vals[i + 1] < 0.0:
            cand = _brent(lambda t: sol1.x(t) - target, grid[i], grid[i + 1])
            # the crossing must also carry the right slope sign; if not,
            # the matching crossing is the other one in the period
            if sol1.x_prime(cand) * sol2.data.x0 >= -1e-9:
                shift = cand
                break
    if shift is None:
        raise ConvergenceError("no parameter shift C with x1(C) = z0_2 - z0_1")
    p = sol1.point(shift).inverse()
    moved = translate(sol1, p)
    residual = 0.0
    for t in np.linspace(0.0, omega, n_check):
        lhs = moved.point(t + shift)
        rhs = sol2.point(t)
        residual = max(
            residual, abs(lhs.x - rhs.x), abs(lhs.y - rhs.y), abs(lhs.z - rhs.z)
        )
    return shift, p, residual


# --- the exact-force periodic family --------------------------------------------


@dataclass(frozen=True)
class ExactPeriodicFamily:
    """Circle of periodic trajectories of F_{0,rho} below the energy cap."""

    rho: float
    energy: float
    z0: float
    radius_sq: float
    period: float

    def trajectory(self, angle: float = 0.0) -> ExactTrajectory:
        radius = math.sqrt(self.radius_sq)
        data = InitialData(
            radius * math.cos(angle), radius * math.sin(angle), self.z0, self.rho
        )
        return ExactTrajectory(data)


def exact_periodic_family(energy: float, rho: float) -> ExactPeriodicFamily | None:
    """Periodic family of the exact force; empty unless 0 < E < rho^2/2."""
    if rho == 0.0:
        raise DomainError("the exact family needs rho != 0")
    if not 0.0 < energy < 0.5 * rho * rho:
        return None
    z0 = -rho + math.copysign(math.sqrt(rho * rho - 2.0 * energy), rho)
    radius_sq = 2.0 * energy - z0 * z0
    period = 2.0 * math.pi / abs(z0 + rho)
    return ExactPeriodicFamily(rho, energy, z0, radius_sq, period)


# --- lattices and lambda-periodicity ---------------------------------------------


@dataclass(frozen=True)
class LatticeElement:
    """Group element exp(x1 e1 + y1 e2 + z1 e3), usually a lattice member."""

    x1: float
    y1: float
    z1: float

    def __post_init__(self):
        check_finite(x1=self.x1, y1=self.y1, z1=self.z1)

    def point(self) -> HeisenbergPoint:
        return HeisenbergPoint(self.x1, self.y1, self.z1)


@dataclass(frozen=True)
class GammaLattice:
    """The standard lattice Z x Z x (1/2k) Z inside H3."""

    k: int

    def __post_init__(self):
        if self.k < 1:
            raise DomainError("Gamma_k requires k >= 1")

    @property
    def center_step(self) -> float:
        return 0.5 / self.k

    def snap(self, p: HeisenbergPoint) -> LatticeElement:
        step = self.center_step
        return LatticeElement(round(p.x), round(p.y), round(p.z / step) * step)

    def distance(self, p: HeisenbergPoint) -> float:
        s = self.snap(p)
        return max(abs(p.x - s.x1), abs(p.y - s.y1), abs(p.z - s.z1))

    def is_member(self, p: HeisenbergPoint, tol: float = 1e-9) -> bool:
        return self.distance(p) <= tol

    def reduce(self, p: HeisenbergPoint) -> HeisenbergPoint:
        """Representative of the left coset in the fundamental domain.

        Reduction multiplies on the left by lattice generators (the group
        law mixes the centre coordinate, so this is not coordinate-wise
        modular arithmetic).
        """
        q = HeisenbergPoint(math.floor(p.x), 0.0, 0.0).inverse() * p
        q = HeisenbergPoint(0.0, math.floor(q.y), 0.0).inverse() * q
        step = self.center_step
        q = HeisenbergPoint(0.0, 0.0, math.floor(q.z / step) * step).inverse() * q
        return q


def lambda_periodic_residual(
    traj, lam: LatticeElement, omega: float, n_grid: int = 33
) -> float:
    """Worst violation of the three lattice-period conditions on a grid.

    The conditions are x(t) = x(t+omega), y(t) + y1 = y(t+omega) and
    z(t) + z1 - y1 x(t)/2 = z(t+omega), i.e. lam * sigma(t) = sigma(t+omega)
    in exponential coordinates.
    """
    worst = 0.0
    for t in np.linspace(0.0, omega, n_grid):
        p1 = traj.point(t)
        p2 = traj.point(t + omega)
        worst = max(
            worst,
            abs(p1.x - p2.x),
            abs(p1.y + lam.y1 - p2.y),
            abs(p1.z + lam.z1 - 0.5 * lam.y1 * p1.x - p2.z),
        )
    return worst


def lambda_periodic_test(
    traj, lam: LatticeElement, omega: float, tol: float = 1e-7, n_grid: int = 33
) -> bool:
    """Whether the trajectory is lam-periodic with the given period.

    A nonzero e1-component of lam fails immediately: the period element
    must lie in the kernel of the centre block of the force.
    """
    if abs(lam.x1) > tol:
        return False
    return lambda_periodic_residual(traj, lam, omega, n_grid) <= tol


@dataclass
class LambdaPeriodicResult:
    """Constructed lattice-periodic trajectory and its construction record."""

    trajectory: TranslatedTrajectory
    base_solution: TrajectorySolution
    lam: LatticeElement
    omega: float  # the lambda-period n * omega1
    base_period: float  # x-period omega1 of the underlying solution
    n: int  # power raised: the curve is lambda1^n-periodic
    conjugator: float  # a with p = exp(a e1) matching the centre component
    c: float
    d: float
    e: float
    residual: float


def _h_energy(c: float, energy: float, rho: float) -> float | None:
    """d with En(c, d) = energy, or None where the surface leaves (0,1)."""
    c4 = c ** 4
    num = 2.0 * c4 * energy - (c4 + rho * rho) * (c * c - 1.0) ** 2
    if num < 0.0:
        return None
    d = math.sqrt(num / (4.0 * c * c * (c4 + rho * rho)))
    if not 0.0 < d < 1.0:
        return None
    return d


def find_lambda_periodic(
    lam: LatticeElement, energy: float, rho: float, e: float = 0.0
) -> LambdaPeriodicResult:
    """Lattice-periodic trajectory with prescribed energy, or a refusal.

    Implements the constructive existence argument: on the energy surface,
    d = h_E(c) and Psi(c, h_E(c)) sweeps through a neighbourhood of zero
    around the closed-trajectory parameter c_E; choose the smallest n with
    y1/n inside the attainable window, solve Psi = y1/n, raise the
    resulting lambda1-periodic curve to the n-th power, and conjugate by
    exp(a e1) with a = (z1 - n z2)/y1 to match the centre component.
    """
    check_finite(energy=energy, rho=rho, e=e)
    if abs(lam.x1) > 1e-12 or abs(lam.y1) <= 1e-12:
        raise LambdaNotFoundError(
            "lambda-periodic trajectories exist only for exp(y1 e2 + z1 e3) with y1 != 0"
        )
    if energy <= 0.0:
        raise DomainError("energy must be positive")
    if rho < 0.0:
        raise DomainError("canonical force has rho >= 0")
    c0 = solve_c_for_energy(energy, rho)

    def psi_on_surface(c: float) -> float | None:
        d = _h_energy(c, energy, rho)
        if d is None:
            return None
        return psi(c, d, e, rho)

    # h_E decreases through d_{c0} at c0, so Psi > 0 for c > c0 and < 0 below
    direction = 1.0 if lam.y1 > 0.0 else -1.0
    step = direction * max(1e-4, 0.02 * c0)
    best_c, best_val = None, 0.0
    c = c0
    for _ in range(_SWEEP_STEPS):
        c = c + step
        if c <= 0.0:
            break
        val = psi_on_surface(c)
        if val is None:
            break
        if abs(val) > abs(best_val):
            best_c, best_val = c, val
    if best_c is None or best_val * lam.y1 <= 0.0:
        raise ConvergenceError("could not open a Psi window on the energy surface")
    n = max(1, math.ceil(abs(lam.y1) / (0.95 * abs(best_val))))
    target = lam.y1 / n

    lo_c, hi_c = (c0, best_c) if best_c > c0 else (best_c, c0)
    # Psi - target changes sign between c0 (Psi = 0) and the window edge
    f_lo = (psi_on_surface(lo_c) or 0.0) - target
    f_hi = (psi_on_surface(hi_c) or 0.0) - target
    if f_lo * f_hi > 0.0:
        raise ConvergenceError("Psi target not bracketed on the energy surface")

    def psi_minus_target(c: float) -> float:
        val = psi_on_surface(c)
        if val is None:
            raise ConvergenceError("energy surface left the chart while solving")
        return val - target

    c_star = _brent(psi_minus_target, lo_c, hi_c)
    d_star = _h_energy(c_star, energy, rho)
    if d_star is None:
        raise ConvergenceError("tuned parameter left the energy surface")
    data = initial_from_cde(c_star, d_star, e, rho)
    sol = make_solution(data)
    omega1 = sol.x_period
    if omega1 is None:
        raise ConvergenceError("tuned trajectory lost its x-period")
    z2 = -data.zr * target  # z(omega1) of the base curve
    a = (lam.z1 - n * z2) / lam.y1
    moved = translate(sol, HeisenbergPoint(a, 0.0, 0.0))
    omega = n * omega1
    residual = lambda_periodic_residual(moved, lam, omega)
    if residual > 1e-7:
        raise ConvergenceError(
            f"constructed trajectory misses lambda-periodicity: residual {residual}"
        )
    return LambdaPeriodicResult(
        moved, sol, lam, omega, omega1, n, a, c_star, d_star, e, residual
    )


def primitive_period(
    result: LambdaPeriodicResult,
    lattice: GammaLattice,
    tol: float = 1e-6,
    max_multiple: int | None = None,
) -> tuple[LatticeElement, float]:
    """Generator (lambda0, omega0) of the lattice periods of the trajectory.

    Scans multiples of the x-period, forms sigma(m w1) sigma(0)^{-1},
    verifies it acts as a period uniformly in t, and returns the first one
    landing on the lattice; every other lattice period is a power of it.
    """
    traj = result.trajectory
    omega1 = result.base_period
    if max_multiple is None:
        max_multiple = 2 * result.n + 4
    p0_inv = traj.point(0.0).inverse()
    for m in range(1, max_multiple + 1):
        g = traj.point(m * omega1) * p0_inv
        if not lattice.is_member(g, tol):
            continue
        lam0 = lattice.snap(g)
        ok = True
        for t in (0.37 * omega1, 1.13 * omega1):
            lhs = lam0.point() * traj.point(t)
            rhs = traj.point(t + m * omega1)
            if max(abs(lhs.x - rhs.x), abs(lhs.y - rhs.y), abs(lhs.z - rhs.z)) > tol:
                ok = False
                break
        if ok:
            return lam0, m * omega1
    raise ConvergenceError(
        f"no lattice recurrence within {max_multiple} x-periods"
    )


def lattice_obstruction_check(basis, radius: int = 64, tol: float = 1e-9) -> bool:
    """Whether some nonzero integer combination of the basis columns has
    zero first coordinate.

    That is the existence condition for candidate period elements
    exp(y1 e2 + z1 e3) in the lattice spanned by the columns (the centre
    step never obstructs).  A rational-dependence fast path uses the best
    rational approximation of the ratio of the first-row entries; an
    exhaustive search bounded by `radius` backs it up.
    """
    b = np.asarray(basis, dtype=float)
    if b.shape != (2, 2):
        raise DomainError("basis must be a 2x2 matrix with generator columns")
    if not np.all(np.isfinite(b)):
        raise DomainError("basis entries must be finite")
    a1, a2 = float(b[0, 0]), float(b[0, 1])
    scale = max(abs(a1), abs(a2), 1.0)
    if abs(a1) <= tol * scale or abs(a2) <= tol * scale:
        return True
    frac = Fraction(-a1 / a2).limit_denominator(radius)
    m, n = frac.denominator, frac.numerator
    if m != 0 and abs(m * a1 + n * a2) <= tol * scale * (abs(m) + abs(n)):
        return True
    for m in range(1, radius + 1):
        n = round(-a1 * m / a2)
        if n == 0 and m == 0:
            continue
        if abs(m * a1 + n * a2) <= tol * scale * (m + abs(n) + 1):
            return True
    return False
