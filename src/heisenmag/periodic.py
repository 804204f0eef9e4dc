"""Periodic and lattice-periodic magnetic trajectories for F_{e1,rho}.

Only the two-real-root stratum carries periodic trajectories, and its
initial data (x0 >= 0) is reparametrized by triples (c, d, e) with c > 0,
0 < d < 1, -1 <= e <= 1:

    x0 = (2d/c) sqrt(1-e^2) sqrt((c^3 d e + rho)^2 + (1-d^2) c^6)
    y0 = c^2 (2 d^2 e^2 - 2 d^2 + 1) + 2 d e rho / c - 1
    z0 = rho / c^2 + 2 c d e - rho

In this chart the increment of y over one x-period, y(omega) = Psi, and
the energy depend only on (c, d): `psi` takes no e, nor does the lattice
construction, which builds its curve at e = 0 and left-translates it.
Closed trajectories answer Psi = 0: for every c > 1 there is a unique
root d_c, the energy map c -> En(c, d_c) is an increasing bijection of
(1, inf) onto (0, inf), and lattice-periodic curves come from tuning
Psi = y1/n on a fixed-energy surface and conjugating.  The window of Psi
on that surface is swept in c steps, which stop at the first step that
settles n = 1.

The closed trajectory of energy E is one solve of psi_tilde along the
level set d = h_E(c), refused at the floor c = 1 + 1e-11 unless psi_tilde
changes sign in d there and the level set passes above d_c there.  Its d
is d_c at that c, which lies beside h_E(c): the sign of psi_tilde at the
level-set root picks the bracket from h_E(c) to h_E(c) (1 +- 1e-7), and
only where h_E(c) is clamped into the chart, or that bracket holds no
root within the residual gate, is d_c solved over the whole chart.

Each root (d_c, the energy's c, and the lattice-tuned c) is found on a
sign-changing bracket by Brent's method, step for step as
scipy.optimize.brentq but reusing the end values it is handed; d_c must
leave |psi_tilde| <= 1e-12 at the returned root.  A constructed
lattice-periodic curve must meet its lattice-period conditions within 1e-7
(`lambda_periodic_residual`), or the construction is refused.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .elliptic import complete_K_and_E
from .errors import (
    ConvergenceError,
    DomainError,
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
    "ExactPeriodicFamily",
    "exact_periodic_family",
    "LatticeElement",
    "GammaLattice",
    "lambda_periodic_residual",
    "LambdaPeriodicResult",
    "find_lambda_periodic",
    "primitive_period",
    "lattice_obstruction_check",
]

_CHART_BAND = 1e-12  # round-off admitted at the (c, d, e) chart edges and of k^2 in [0, 1]
_LATTICE_BAND = 1e-12  # |x1| or |y1| of a lattice element read as zero
_LAMBDA_RESIDUAL = 1e-7  # gate on a constructed curve's lambda-periodicity residual
_OBSTRUCTION_RADIUS = 64  # largest multiple m of a basis column tried
_OBSTRUCTION_BAND = 1e-9  # relative zero of a first coordinate, and of a basis determinant
_K_SQ_CEILING = 1.0 - 1e-16  # k^2 is clamped below this, so K(k) stays finite
_MEMBER_BAND = 1e-9  # default distance from Gamma_k read as membership
_RECURRENCE_BAND = 1e-6  # lattice distance and period mismatch of a recurrence in primitive_period
_LAMBDA_GRID = 33  # points on [0, omega] of the lambda-periodicity residual


# --- the (c, d, e) chart -------------------------------------------------------


@dataclass(frozen=True)
class CdeCoordinates:
    """Chart on the two-real-root initial data with x0 >= 0."""

    c: float
    d: float
    e: float
    rho: float

    def __post_init__(self):
        _check_cde("CdeCoordinates", self.c, self.d, self.e, self.rho)

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


def initial_from_cde(c: float, d: float, e: float, rho: float) -> InitialData:
    """The initial data at a chart point; DomainError, naming the point, off
    the chart or where a term leaves the float range."""
    _check_cde("initial_from_cde", c, d, e, rho)
    e = min(1.0, max(-1.0, e))
    try:  # Python's float ** raises on overflow, c^2 may underflow to 0, and * gives inf
        c3 = c ** 3
        x0 = (
            2.0 * d / c
            * math.sqrt(max(0.0, 1.0 - e * e))
            * math.sqrt((c3 * d * e + rho) ** 2 + (1.0 - d * d) * c3 * c3)
        )
        y0 = c * c * (2.0 * d * d * e * e - 2.0 * d * d + 1.0) + 2.0 * d * e * rho / c - 1.0
        z0 = rho / (c * c) + 2.0 * c * d * e - rho
        return InitialData(x0, y0, z0, rho)
    except (OverflowError, ZeroDivisionError, DomainError) as exc:
        raise DomainError(
            f"initial_from_cde at c={c}, d={d}, e={e}, rho={rho} leaves the float range"
        ) from exc


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


def _check_chart(name: str, c: float, d: float) -> None:
    if c <= 0.0 or not 0.0 < d < 1.0:
        raise DomainError(f"{name} needs c > 0 and d in (0, 1), got c={c}, d={d}")


def _check_e(name: str, e: float) -> None:
    if abs(e) > 1.0 + _CHART_BAND:
        raise DomainError(f"{name} needs e in [-1, 1], got {e}")


def _check_cde(name: str, c: float, d: float, e: float, rho: float) -> None:
    """A finite chart point: c > 0, d in (0, 1), |e| <= 1 up to _CHART_BAND (_check_e)."""
    check_finite(c=c, d=d, e=e, rho=rho)
    _check_chart(name, c, d)
    _check_e(name, e)


def energy_cde(c: float, d: float, rho: float) -> float:
    """Energy in the chart, free of cancellation as c -> 1; does not involve e.

    DomainError off the chart or when it does not come out a finite float.
    """
    _check_chart("energy_cde", c, d)
    try:  # Python's float ** raises on overflow, and c^4 may underflow to 0
        c4 = c ** 4
        square = ((c - 1.0) * (c + 1.0)) ** 2
        energy = (c4 + rho * rho) * (square + 4.0 * c * c * d * d) / (2.0 * c4)
    except (OverflowError, ZeroDivisionError):
        energy = math.inf
    if not energy < math.inf:  # the energy is >= 0, so this also catches NaN
        raise DomainError(f"the chart energy at c={c}, d={d}, rho={rho} is not a finite float")
    return energy


# --- the periodicity function Psi ---------------------------------------------


def _psi_parts(c: float, d: float, rho: float) -> tuple[float, float]:
    """(S, psi_tilde) with S = sqrt((rho^2+c^6)^2 - 4 rho^2 d^2 c^6).

    S^2 >= (1 - d^2)(rho^2 + c^6)^2 > 0 in exact arithmetic; a DomainError
    names the input where the float S^2 overflows, or rounds to zero or below.
    """
    _check_chart("psi_tilde", c, d)
    try:  # Python's float ** raises on overflow where * gives inf
        c6 = c ** 6
        inner = (rho * rho + c6) ** 2 - 4.0 * rho * rho * d * d * c6
    except OverflowError:
        inner = math.inf
    if not 0.0 < inner < math.inf:  # NaN too, from inf - inf
        raise DomainError(
            f"psi_tilde at c={c}, d={d}, rho={rho} is out of float range: "
            f"S^2 = (rho^2 + c^6)^2 - 4 rho^2 d^2 c^6 evaluates to {inner}"
        )
    s = math.sqrt(inner)
    k_sq = (2.0 * c6 * d * d - rho * rho - c6) / (2.0 * s) + 0.5
    if k_sq < -_CHART_BAND or k_sq > 1.0 + _CHART_BAND:
        raise DomainError(f"modulus squared {k_sq} outside [0, 1]")
    k = math.sqrt(min(_K_SQ_CEILING, max(0.0, k_sq)))
    big_k, big_e = complete_K_and_E(k)
    return s, big_e - ((rho * rho + c ** 4) / (2.0 * s) + 0.5) * big_k


def psi_tilde(c: float, d: float, rho: float) -> float:
    """E(k) - ((rho^2+c^4)/(2S) + 1/2) K(k); same sign as y(omega)."""
    return _psi_parts(c, d, rho)[1]


def psi(c: float, d: float, rho: float) -> float:
    """y over one x-period at the chart points (c, d, e, rho), the same for every e."""
    s, tilde = _psi_parts(c, d, rho)
    try:
        value = 8.0 / (c * c) * math.sqrt(s) * tilde
    except ZeroDivisionError:  # c^2 underflows to 0
        value = math.inf
    if not abs(value) < math.inf:  # NaN too, from inf * 0
        raise DomainError(f"psi at c={c}, d={d}, rho={rho} is not a finite float")
    return value


# --- unique root d_c and the energy bijection -----------------------------------


# rtol = 4 eps is the smallest brentq accepts and xtol (the smallest subnormal)
# is negligible; both are Python floats, so no numpy scalar enters a root.
_RTOL = 4.0 * sys.float_info.epsilon
_XTOL = 5e-324
_BRENT_ITER = 100  # brentq's default iteration cap
_DC_TOL = 1e-12
_POLISH_BAND = 1e-7  # relative width of build_periodic's d_c bracket beside h_E(c)
_C_FLOOR = 1.0 + 1e-11
_C_CEILING = 2.0 ** 29  # the last end of the energy's c bracket tried
_SWEEP_STEPS = 400  # c steps of the Psi window sweep
_SWEEP_STEP = 0.02  # a step of that sweep as a fraction of c0
_SWEEP_FLOOR = 1e-4  # smallest c step of that sweep
_WINDOW_MARGIN = 0.95  # share of the window's |Psi| that y1/n may take


def _brent(f, lo: float, hi: float, f_lo: float, f_hi: float) -> tuple[float, float]:
    """(x, f(x)) at a root of f on [lo, hi], given f_lo = f(lo) and f_hi = f(hi).

    Brent's method (Brent 1973, ch. 4) step for step as scipy.optimize.brentq
    runs it, so x is the same float.  NaN values, ends of one sign and runs
    past _BRENT_ITER steps raise ConvergenceError; errors from f pass through.
    """

    def failed(reason: str) -> ConvergenceError:
        return ConvergenceError(f"Brent's method failed on [{lo}, {hi}]: {reason}")

    def nan_at(x: float) -> ConvergenceError:
        return failed(f"The function value at x={x} is NaN; solver cannot continue.")

    for x, fx in ((lo, f_lo), (hi, f_hi)):
        if math.isnan(fx):
            raise nan_at(x)
    xpre, xcur, fpre, fcur = lo, hi, f_lo, f_hi
    if fpre == 0.0 or fcur == 0.0:
        return (xpre, fpre) if fpre == 0.0 else (xcur, fcur)
    if (fpre < 0.0) == (fcur < 0.0):
        raise failed("f(a) and f(b) must have different signs")
    for _ in range(_BRENT_ITER):  # the signs differ, so the first step sets xblk
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_XTOL + _RTOL * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur, fcur
        short = abs(spre) > delta and abs(fcur) < abs(fpre)
        if short:
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            short = 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta)
        spre, scur = (scur, stry) if short else (sbis, sbis)  # else bisect
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = f(xcur)
        if math.isnan(fcur):
            raise nan_at(xcur)
    raise failed(f"Failed to converge after {_BRENT_ITER} iterations.")


def solve_dc(c: float, rho: float) -> float:
    """The unique d in (0, 1) with psi_tilde(c, d) = 0; needs c > 1.

    psi_tilde is positive near d = 0 (limit c^4 (c^2-1) pi / (4(rho^2+c^6)))
    and negative near d = 1, so Brent's method applies on that bracket; the
    root must leave |psi_tilde| <= 1e-12.
    """
    if c <= 1.0:
        raise DomainError(f"no periodic trajectory for c <= 1 (got c = {c})")
    lo, hi = _CHART_BAND, 1.0 - _CHART_BAND
    return _dc_on(c, rho, lo, hi, psi_tilde(c, lo, rho), psi_tilde(c, hi, rho))


def _dc_on(c: float, rho: float, lo: float, hi: float, f_lo: float, f_hi: float) -> float:
    """The root d of psi_tilde(c, d) on [lo, hi], given its values at the ends.

    ConvergenceError unless psi_tilde falls from f_lo > 0 to f_hi < 0 and
    the root leaves |psi_tilde| <= _DC_TOL.
    """
    if f_lo <= 0.0 or f_hi >= 0.0:
        raise ConvergenceError(
            f"d_c bracket failed at c={c}: psi({lo})={f_lo}, psi({hi})={f_hi}"
        )
    d, f_d = _brent(lambda d: psi_tilde(c, d, rho), lo, hi, f_lo, f_hi)
    if abs(f_d) > _DC_TOL:
        raise ConvergenceError(f"psi_tilde residual {f_d} at c={c} exceeds {_DC_TOL}")
    return d


def energy_of_c(c: float, rho: float) -> float:
    """Energy of the periodic trajectory family at parameter c > 1."""
    return energy_cde(c, solve_dc(c, rho), rho)


def _h_energy(c: float, energy: float, rho: float) -> float:
    """d >= 0 with En(c, d) = energy, or 0.0; callers check 0 < d < 1."""
    c4 = c ** 4
    # (c - 1)(c + 1), not c^2 - 1: no cancellation as c -> 1
    num = 2.0 * c4 * energy - (c4 + rho * rho) * ((c - 1.0) * (c + 1.0)) ** 2
    return math.sqrt(max(0.0, num) / (4.0 * c * c * (c4 + rho * rho)))


def solve_c_for_energy(energy: float, rho: float) -> float:
    """The unique c > 1 whose periodic family has the given energy.

    psi_tilde falls as d rises, so along the level set d = h_E(c), clamped
    into the chart, it is negative below the root in c and positive above.
    """
    return _level_root(energy, rho)[0]


def _level_root(energy: float, rho: float) -> tuple[float, float]:
    """(c, psi_tilde(c, d)) at solve_c_for_energy's root, with d = h_E(c)
    clamped into the chart: the value Brent's method ended on."""
    check_finite(energy=energy, rho=rho)
    if energy <= 0.0:
        raise DomainError(f"energy must be positive, got {energy}")

    def psi_on_level(c: float) -> float:
        d = min(1.0 - _CHART_BAND, max(_CHART_BAND, _h_energy(c, energy, rho)))
        return psi_tilde(c, d, rho)

    # closer to c = 1, psi_tilde is flat below the 1e-12 residual gate
    f_band = psi_tilde(_C_FLOOR, _CHART_BAND, rho)
    if not f_band > 0.0:
        raise ConvergenceError(f"d_c bracket failed at c={_C_FLOOR}: psi={f_band}")
    f_floor = psi_on_level(_C_FLOOR)
    if not f_floor < 0.0:  # named by c, not by its energy: that takes a d_c solve
        raise DomainError(
            f"energy {energy} lies below the smallest resolvable at rho = {rho}, "
            f"the energy of the family at c = {_C_FLOOR}"
        )
    hi, f_hi = 2.0, psi_on_level(2.0)
    while f_hi < 0.0:
        hi *= 2.0
        if hi > _C_CEILING:
            raise DomainError(f"energy {energy} lies above the largest resolvable at rho = {rho}")
        f_hi = psi_on_level(hi)
    return _brent(psi_on_level, _C_FLOOR, hi, f_floor, f_hi)


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
    _check_e("build_periodic", e)
    c, f_h = _level_root(energy, rho)
    # d solves psi_tilde(c, d) = 0 at this c: d = h_E(c), off the energy level set,
    # misses that root by c's rounding times the two curves' slope gap (400 draws at
    # e = 0.3: 8 fewer curves built, and the worst closure 4.9e-8 against 6.9e-11),
    # so d is solved beside h_E(c), from the level-set solve's last value
    d = _polish_dc(c, _h_energy(c, energy, rho), f_h, rho)
    sol = _periodic_curve(c, d, e, rho)
    data, omega = sol.data, sol.x_period
    end = sol.point(omega)
    report = {
        "c": c,
        "d": d,
        "e": e,
        "rho": rho,
        "initial_data": data,
        "period": omega,
        "closure_x": abs(end.x),
        "closure_y": abs(end.y),
        "closure_z": abs(end.z),
        "energy_error": abs(data.energy() - energy),
    }
    return sol, report


def _periodic_curve(c: float, d: float, e: float, rho: float) -> TrajectorySolution:
    """The curve at a chart point; ConvergenceError where it has no x-period."""
    sol = make_solution(initial_from_cde(c, d, e, rho))
    if sol.x_period is None:
        raise ConvergenceError(f"the curve at c={c}, d={d} has no x-period")
    return sol


def _polish_dc(c: float, h: float, f_h: float, rho: float) -> float:
    """solve_dc(c, rho) up to round-off, given h = h_E(c) near d_c and
    f_h = psi_tilde(c, h), from one new value of psi_tilde where it can.

    psi_tilde falls as d rises, so f_h's sign says on which side of h d_c
    lies, and the bracket from h to h (1 +- _POLISH_BAND) needs only its
    other end.  A clamped h, a bracket without the sign change or a root
    that misses _DC_TOL takes solve_dc's bracket over the whole chart.
    """
    if not _CHART_BAND <= h <= 1.0 - _CHART_BAND:  # psi_on_level clamped it
        return solve_dc(c, rho)
    if f_h == 0.0:
        return h
    if f_h > 0.0:
        lo, hi = h, min(1.0 - _CHART_BAND, h * (1.0 + _POLISH_BAND))
        f_lo, f_hi = f_h, psi_tilde(c, hi, rho)
    else:
        lo, hi = max(_CHART_BAND, h * (1.0 - _POLISH_BAND)), h
        f_lo, f_hi = psi_tilde(c, lo, rho), f_h
    try:
        return _dc_on(c, rho, lo, hi, f_lo, f_hi)
    except ConvergenceError:
        return solve_dc(c, rho)


# --- the exact-force periodic family --------------------------------------------


@dataclass(frozen=True)
class ExactPeriodicFamily:
    """Circle of periodic trajectories of F_{0,rho} below the energy cap."""

    rho: float
    energy: float
    z0: float
    radius_sq: float

    def trajectory(self, angle: float = 0.0) -> ExactTrajectory:
        radius = math.sqrt(self.radius_sq)
        data = InitialData(
            radius * math.cos(angle), radius * math.sin(angle), self.z0, self.rho
        )
        return ExactTrajectory(data)


def exact_periodic_family(energy: float, rho: float) -> ExactPeriodicFamily | None:
    """Periodic family of the exact force; empty unless 0 < E < rho^2/2."""
    check_finite(energy=energy, rho=rho)
    if rho == 0.0:
        raise DomainError("the exact family needs rho != 0")
    if not math.isfinite(rho * rho):
        raise DomainError(f"the exact family at rho={rho} needs rho^2 inside the float range")
    if not 0.0 < energy < 0.5 * rho * rho:
        return None
    z0 = -rho + math.copysign(math.sqrt(rho * rho - 2.0 * energy), rho)
    return ExactPeriodicFamily(rho, energy, z0, 2.0 * energy - z0 * z0)


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
        if not 1 <= self.k <= sys.float_info.max:
            raise DomainError(f"Gamma_k requires 1 <= k <= {sys.float_info.max}, got {self.k}")
        if self.k % 1:  # Z x Z x (1/2k) Z is a subgroup only for an integer k
            raise DomainError(f"Gamma_k requires an integer k, got k = {self.k}")

    @property
    def center_step(self) -> float:
        return 0.5 / self.k

    def _turns(self, z: float) -> float:
        """z in centre steps; DomainError where that overflows."""
        turns = z / self.center_step
        if not math.isfinite(turns):
            raise DomainError(f"z = {z} is too large to place on Gamma_{self.k}")
        return turns

    def snap(self, p: HeisenbergPoint) -> LatticeElement:
        check_finite(x=p.x, y=p.y, z=p.z)
        return LatticeElement(round(p.x), round(p.y), round(self._turns(p.z)) * self.center_step)

    def distance(self, p: HeisenbergPoint) -> float:
        s = self.snap(p)
        return max(abs(p.x - s.x1), abs(p.y - s.y1), abs(p.z - s.z1))

    def is_member(self, p: HeisenbergPoint, tol: float = _MEMBER_BAND) -> bool:
        return self.distance(p) <= tol


def _period_defect(traj, g: HeisenbergPoint, ts, shift: float) -> float:
    """Worst coordinate gap between g * sigma(t) and sigma(t + shift) over
    the times ts, from one evaluation of the curve at ts and ts + shift."""
    p = traj.point(np.concatenate((ts, ts + shift)))
    (x1, x2), (y1, y2), (z1, z2) = (v.reshape(2, -1) for v in (p.x, p.y, p.z))
    moved = g * HeisenbergPoint(x1, y1, z1)
    return float(np.max(np.abs((moved.x - x2, moved.y - y2, moved.z - z2))))


def lambda_periodic_residual(traj, lam: LatticeElement, omega: float) -> float:
    """Worst violation of the lattice-period condition lam * sigma(t) =
    sigma(t + omega), through the group law, on _LAMBDA_GRID points of
    [0, omega].  traj.point must accept an array of times.
    """
    return _period_defect(traj, lam.point(), np.linspace(0.0, omega, _LAMBDA_GRID), omega)


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
    e: float  # 0.0: the chart's e does not change Psi
    residual: float


def find_lambda_periodic(lam: LatticeElement, energy: float, rho: float) -> LambdaPeriodicResult:
    """Lattice-periodic trajectory with prescribed energy, or a refusal.

    Implements the constructive existence argument: on the energy surface,
    d = h_E(c) and Psi(c, h_E(c)) sweeps through a neighbourhood of zero
    around the closed-trajectory parameter c_E; choose the smallest n with
    y1/n inside the attainable window, solve Psi = y1/n, raise the
    resulting lambda1-periodic curve to the n-th power, and conjugate by
    exp(a e1) with a = (z1 - n z2)/y1 to match the centre component.

    The window is swept in c from c_E toward y1's sign, and n is the least
    with |y1|/n <= _WINDOW_MARGIN |Psi| at the sweep's largest |Psi|.  The
    sweep stops at the first step that settles n = 1 (Psi of y1's sign and
    _WINDOW_MARGIN |Psi| >= |y1|), and Psi = y1 is solved between c_E and
    that step; otherwise it runs to the chart edge or _SWEEP_STEPS steps.
    """
    check_finite(energy=energy, rho=rho)
    if abs(lam.x1) > _LATTICE_BAND or abs(lam.y1) <= _LATTICE_BAND:
        raise LambdaNotFoundError(
            "lambda-periodic trajectories exist only for exp(y1 e2 + z1 e3) with y1 != 0"
        )
    if rho < 0.0:
        raise DomainError("canonical force has rho >= 0")
    # the residual gate is absolute: past it, y1 and z1 are not resolved
    if max(math.ulp(lam.y1), math.ulp(lam.z1)) > _LAMBDA_RESIDUAL:
        raise DomainError(
            f"lambda = (0, {lam.y1}, {lam.z1}) is too large: its float spacing "
            f"exceeds the lambda-periodicity gate {_LAMBDA_RESIDUAL}"
        )
    c0 = solve_c_for_energy(energy, rho)

    def psi_on_surface(c: float) -> float | None:
        d = _h_energy(c, energy, rho)
        return psi(c, d, rho) if 0.0 < d < 1.0 else None

    # h_E decreases through d_{c0} at c0, so Psi > 0 for c > c0 and < 0 below
    direction = 1.0 if lam.y1 > 0.0 else -1.0
    step = direction * max(_SWEEP_FLOOR, _SWEEP_STEP * c0)
    best_c, best_val = None, 0.0
    c = c0
    for _ in range(_SWEEP_STEPS):
        c = c + step
        if c <= 0.0:
            break
        val = psi_on_surface(c)
        if val is None:
            break
        # y1 fits this step's window whole: n = 1, the least n there is
        settled = val * lam.y1 > 0.0 and _WINDOW_MARGIN * abs(val) >= abs(lam.y1)
        if settled or abs(val) > abs(best_val):
            best_c, best_val = c, val
        if settled:
            break
    if best_c is None or best_val * lam.y1 <= 0.0:
        raise ConvergenceError("could not open a Psi window on the energy surface")
    n = max(1, math.ceil(abs(lam.y1) / (_WINDOW_MARGIN * abs(best_val))))
    target = lam.y1 / n

    def psi_minus_target(c: float) -> float:
        val = psi_on_surface(c)
        if val is None:
            raise ConvergenceError("energy surface left the chart while solving")
        return val - target

    # Psi - target changes sign between c0 (Psi = 0) and best_c, where
    # |Psi| >= |y1| / (n _WINDOW_MARGIN) > |target| with target's sign;
    # _brent returns a point it evaluated, so d_star lies in (0, 1)
    (lo, f_lo), (hi, f_hi) = sorted([(c0, psi_minus_target(c0)), (best_c, best_val - target)])
    c_star, _ = _brent(psi_minus_target, lo, hi, f_lo, f_hi)
    d_star = _h_energy(c_star, energy, rho)
    sol = _periodic_curve(c_star, d_star, 0.0, rho)
    omega1 = sol.x_period
    z2 = -sol.data.zr * target  # z(omega1) of the base curve
    a = (lam.z1 - n * z2) / lam.y1
    moved = TranslatedTrajectory(HeisenbergPoint(a, 0.0, 0.0), sol)
    omega = n * omega1
    residual = lambda_periodic_residual(moved, lam, omega)
    if not residual <= _LAMBDA_RESIDUAL:
        raise ConvergenceError(
            f"constructed trajectory misses lambda-periodicity: residual {residual}"
        )
    return LambdaPeriodicResult(
        moved, sol, lam, omega, omega1, n, a, c_star, d_star, 0.0, residual
    )


def primitive_period(
    result: LambdaPeriodicResult, lattice: GammaLattice
) -> tuple[LatticeElement, float]:
    """Generator (lambda0, omega0) of the lattice periods of the trajectory.

    Scans the multiples m <= 2 n + 4 of the x-period, forms
    sigma(m w1) sigma(0)^{-1}, verifies it acts as a period uniformly in t,
    and returns the first one landing on the lattice, both within
    _RECURRENCE_BAND; every other lattice period is a power of it.
    """
    traj = result.trajectory
    omega1 = result.base_period
    max_multiple = 2 * result.n + 4
    p0_inv = traj.point(0.0).inverse()
    ts = np.array([0.37, 1.13]) * omega1
    for m in range(1, max_multiple + 1):
        g = traj.point(m * omega1) * p0_inv
        if not lattice.is_member(g, _RECURRENCE_BAND):
            continue
        lam0 = lattice.snap(g)
        if _period_defect(traj, lam0.point(), ts, m * omega1) <= _RECURRENCE_BAND:
            return lam0, m * omega1
    raise ConvergenceError(f"no lattice recurrence within {max_multiple} x-periods")


def lattice_obstruction_check(basis) -> bool:
    """Whether some nonzero integer combination of the basis columns has
    zero first coordinate.

    That is the existence condition for candidate period elements
    exp(y1 e2 + z1 e3) in the lattice spanned by the columns (the centre
    step never obstructs).  An exhaustive search over
    1 <= m <= _OBSTRUCTION_RADIUS tries the integer n nearest to -m a1 / a2
    for each m.  Columns that are linearly dependent within
    _OBSTRUCTION_BAND (the determinant of the unit columns) span no
    lattice, and raise DomainError.
    """
    try:
        b = np.asarray(basis, dtype=float)
    except (TypeError, ValueError):  # entries that are no numbers, or ragged rows
        b = np.empty(0)
    if b.shape != (2, 2):
        raise DomainError("basis must be a 2x2 matrix with generator columns")
    if not np.all(np.isfinite(b)):
        raise DomainError("basis entries must be finite")
    lengths = (math.hypot(*b[:, 0]), math.hypot(*b[:, 1]))
    if min(lengths) == 0.0 or abs(np.linalg.det(b / lengths)) <= _OBSTRUCTION_BAND:
        raise DomainError(
            f"basis columns {b[:, 0].tolist()} and {b[:, 1].tolist()} are linearly "
            "dependent: they span no lattice"
        )
    a1, a2 = float(b[0, 0]), float(b[0, 1])
    scale = max(abs(a1), abs(a2), 1.0)
    if abs(a1) <= _OBSTRUCTION_BAND * scale or abs(a2) <= _OBSTRUCTION_BAND * scale:
        return True
    for m in range(1, _OBSTRUCTION_RADIUS + 1):
        n = round(-a1 * m / a2)
        if abs(m * a1 + n * a2) <= _OBSTRUCTION_BAND * scale * (m + abs(n) + 1):
            return True
    return False
