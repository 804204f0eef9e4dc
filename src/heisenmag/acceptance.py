"""Verification suites: every release gate as a callable check.

Each criterion runs a self-contained numerical experiment (closed form vs
independent integration, random-sample property checks, threshold cases)
and returns a CriterionResult with the measured worst values.  The CLI
`verify` subcommand and the pytest acceptance module both drive these
runners; HEISENMAG_TOL (a multiplier on every threshold) is honoured by
`tolerance_scale`.

Two of the repeated-root branches approach a saddle of the speed
polynomial, where any float64 integrator loses e^{sqrt(-mu) t} accuracy;
their cross-validation therefore runs against an arbitrary-precision
Taylor integration (mpmath) of the reduced system instead of the
double-precision Runge-Kutta oracle used for the periodic branches.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field

import mpmath as mp
import numpy as np
from scipy import special
from scipy.integrate import quad

from . import elliptic
from .errors import ConvergenceError, DomainError, LambdaNotFoundError
from .heisenberg import LorentzForce
from .oracle import (
    OracleConfig,
    StateVector,
    euler_lagrange_residual,
    integrate_general,
    reduced_ode_residual,
)
from .periodic import (
    LatticeElement,
    build_periodic,
    energy_of_c,
    exact_periodic_family,
    find_lambda_periodic,
    initial_from_cde,
    lambda_periodic_residual,
    lattice_obstruction_check,
    psi_tilde,
    solve_dc,
)
from .quartic import (
    Branch,
    InitialData,
    discriminant,
    monic_coefficients,
    quartic_roots,
)
from .trajectory import make_solution

__all__ = [
    "CriterionResult",
    "tolerance_scale",
    "representative_data",
    "check_branch",
    "run_criterion",
    "CRITERIA",
]


@dataclass
class CriterionResult:
    name: str
    passed: bool
    details: dict = field(default_factory=dict)
    elapsed: float = 0.0  # seconds, measured by run_criterion

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        keys = ", ".join(f"{k}={_fmt(v)}" for k, v in self.details.items())
        return f"[{status}] {self.name}: {keys}"


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.3g}"
    return str(v)


def tolerance_scale() -> float:
    """Multiplier applied to every acceptance threshold (HEISENMAG_TOL)."""
    raw = os.environ.get("HEISENMAG_TOL", "1")
    try:
        scale = float(raw)
    except ValueError as exc:
        raise DomainError(f"HEISENMAG_TOL must be a number, got {raw!r}") from exc
    if not 0.0 < scale < math.inf:
        raise DomainError(f"HEISENMAG_TOL must be finite and positive, got {raw!r}")
    return scale


# --- branch representatives ----------------------------------------------------

# The repeated-root tuples are one-parameter families lying exactly on the
# Delta = 0 stratum; the stated rho makes each representative exactly
# machine-representable there (the mu < 0 family needs (2 rho)^(1/3)
# dyadic, hence rho = 4).
_CBRT2 = 2.0 ** (1.0 / 3.0)


def representative_data(branch: Branch, rho: float | None = None) -> InitialData:
    """The anchored initial condition exercising one solution branch."""
    if branch is Branch.NEG:
        r = 1.0 if rho is None else rho
        return InitialData(0.0, 0.0, -r, r)
    if branch is Branch.POS_LOW:
        r = 1.0 if rho is None else rho
        return InitialData(0.0, -2.0 * r - 0.75, -r - 1.0, r)
    if branch is Branch.POS_HIGH:
        r = 1.0 if rho is None else rho
        return InitialData(0.0, -1.5 * _CBRT2 * r ** (2 / 3) - 2.0, -r, r)
    if branch is Branch.ZERO_MU_POS:
        r = 1.0 if rho is None else rho
        return InitialData(0.0, -1.5 * _CBRT2 * r ** (2 / 3) - 1.0, -r, r)
    if branch is Branch.ZERO_MU_NEG_RIGHT:
        if rho is None:
            # the family (0, 2(2r)^{2/3}-1, 5(2r)^{1/3}/2-r) at r = 4,
            # written out so the saddle datum is exactly on its stratum
            # (float powers would miss 7 by one ulp and the separatrix
            # amplifies that offset exponentially)
            return InitialData(0.0, 7.0, 1.0, 4.0)
        r = rho
        return InitialData(
            0.0, 2.0 * (2 * r) ** (2 / 3) - 1.0, 2.5 * (2 * r) ** (1 / 3) - r, r
        )
    if branch is Branch.ZERO_MU_NEG_LEFT:
        r = 1.0 if rho is None else rho
        return InitialData(0.0, 3.0 * r ** (2 / 3) - 1.0, -3.75 * r ** (1 / 3) - r, r)
    if branch is Branch.ZERO_CUSP:
        r = 1.0 if rho is None else rho
        return InitialData(0.0, 3.0 * r ** (2 / 3) - 1.0, 3.0 * r ** (1 / 3) - r, r)
    raise ValueError(f"no representative for branch {branch}")


_ALL_BRANCHES = (
    Branch.NEG,
    Branch.POS_LOW,
    Branch.POS_HIGH,
    Branch.ZERO_MU_POS,
    Branch.ZERO_MU_NEG_RIGHT,
    Branch.ZERO_MU_NEG_LEFT,
    Branch.ZERO_CUSP,
)


def _mpmath_reduced_distance(sol, data: InitialData, t_max: float, n_pts: int = 14) -> float:
    """Closed form vs 30-digit Taylor integration of the reduced system."""
    with mp.workdps(30):
        zr = mp.mpf(data.z0) + mp.mpf(data.rho)
        y0 = mp.mpf(data.y0)
        rho = mp.mpf(data.rho)
        x0 = mp.mpf(data.x0)

        def rhs(t, s):
            x, u, y = s[0], s[1], s[2]
            return [u, rho - (x + zr) * (x * x / 2 + zr * x + y0 + 1), x * x / 2 + zr * x + y0]

        f = mp.odefun(rhs, 0, [mp.mpf(0), x0, mp.mpf(0)], tol=mp.mpf(10) ** (-26))
        worst = 0.0
        for t in np.linspace(t_max / n_pts, t_max, n_pts):
            xs, us, ys = f(float(t))
            zs = -xs * ys / 2 - zr * ys - us + x0
            p = sol.point(float(t))
            worst = max(
                worst,
                abs(float(xs) - p.x),
                abs(float(ys) - p.y),
                abs(float(zs) - p.z),
            )
    return worst


def _window(sol) -> float:
    """Comparison horizon: two x-periods, or [0, 20] without a period."""
    return 2.0 * sol.x_period if sol.x_period is not None else 20.0


def _first_integral_drift(sol, data: InitialData) -> float:
    """Worst |x'^2 + h(x)^2 - 2 rho x - (x0^2 + (y0+1)^2)| on 257 points."""
    return max(
        abs(
            sol.x_prime(t) ** 2
            + data.h(sol.x(t)) ** 2
            - 2.0 * data.rho * sol.x(t)
            - data.norm_sq
        )
        for t in np.linspace(0.0, _window(sol), 257)
    )


def _y_over_period_by_quadrature(sol) -> float:
    """y(omega) by adaptive quadrature of y' = x^2/2 + (z0+rho) x + y0.

    Independent of the closed form that TrajectorySolution.y_over_period
    returns, which criterion 4 compares it against.
    """
    zr, y0, omega = sol.data.zr, sol.data.y0, sol.x_period

    def y_prime(s: float) -> float:
        x = sol.x(s)
        return 0.5 * x * x + zr * x + y0

    val, err = quad(y_prime, 0.0, omega, epsabs=1e-12, epsrel=1e-12, limit=400)
    if err > 1e-11 * max(1.0, omega):
        raise ConvergenceError(f"quadrature over [0, {omega}] reports error {err}")
    return val


def check_branch(branch: Branch, rho: float | None = None) -> dict:
    """Cross-validation record for one branch representative.

    Returns the finite-difference ODE residual on [0, 10], the first
    integral drift, the closed-form-vs-oracle coordinate distance (two
    periods, or [0, 20] for the non-periodic branches), and the relative
    period defect where a period exists.
    """
    data = representative_data(branch, rho)
    sol = make_solution(data)
    if sol.profile.branch is not branch:
        raise RuntimeError(
            f"representative for {branch} classified as {sol.profile.branch}"
        )
    record: dict = {"data": data, "branch": branch.value}
    record["ode_residual"] = reduced_ode_residual(
        sol.x, data, np.linspace(0.05, 10.0, 200)
    )
    omega = sol.x_period
    t_max = _window(sol)
    record["first_integral_drift"] = _first_integral_drift(sol, data)
    if omega is not None:
        cfg = OracleConfig(rel_tol=1e-11, abs_tol=1e-13, t_span=(0.0, t_max))
        orc = integrate_general(
            LorentzForce(0.0, 1.0, data.rho),
            StateVector.from_initial_data(data),
            cfg,
            n_samples=201,
        )
        dist = 0.0
        for (px, py, pz), s in zip(sol.sample(orc.t), orc.states):
            dist = max(dist, abs(px - s[0]), abs(py - s[1]), abs(pz - s[2]))
        record["oracle_distance"] = dist
        # the closed form must repeat with its stated period
        record["period"] = omega
        record["period_defect"] = abs(sol.x(omega) - sol.x(0.0)) + abs(
            sol.x_prime(omega) - sol.x_prime(0.0)
        )
    else:
        record["oracle_distance"] = _mpmath_reduced_distance(sol, data, 20.0)
    return record


# --- criterion runners -----------------------------------------------------------


def crit_closed_form(tol: float = 1.0) -> CriterionResult:
    """1: every branch solves its equation and tracks an independent oracle."""
    worst_res, worst_dist, worst_per = 0.0, 0.0, 0.0
    for branch in _ALL_BRANCHES:
        rec = check_branch(branch)
        worst_res = max(worst_res, rec["ode_residual"])
        worst_dist = max(worst_dist, rec["oracle_distance"])
        if "period_defect" in rec:
            worst_per = max(worst_per, rec["period_defect"])
    passed = worst_res < 1e-8 * tol and worst_dist < 1e-6 * tol
    return CriterionResult(
        "closed-form correctness (7 branches)",
        passed,
        {
            "max_ode_residual": worst_res,
            "max_oracle_distance": worst_dist,
            "max_period_defect": worst_per,
        },
    )


def crit_first_integral(tol: float = 1.0) -> CriterionResult:
    """2: x'^2 + h(x)^2 - 2 rho x is constant along every branch."""
    worst = 0.0
    for branch in _ALL_BRANCHES:
        data = representative_data(branch)
        worst = max(worst, _first_integral_drift(make_solution(data), data))
    return CriterionResult(
        "first integral drift",
        worst < 1e-9 * tol,
        {"max_drift": worst},
    )


def crit_discriminant(tol: float = 1.0, seed: int = 0) -> CriterionResult:
    """3: discriminant sign agrees with the real-root count; Viete holds."""
    rng = np.random.default_rng(seed)
    n, mismatches, boundary = 10_000, 0, 0
    worst_viete = 0.0
    for _ in range(n):
        x0, y0, z0, rho = rng.uniform(-3.0, 3.0, 4)
        data = InitialData(x0, y0, z0, rho)
        p0, q0 = monic_coefficients(data)
        delta = discriminant(p0, q0, rho)
        scale = max(1.0, abs(2 * p0), abs(8 * rho) ** (2 / 3), abs(q0) ** 0.5)
        roots = quartic_roots(p0, q0, rho)
        rscale = max(1.0, float(np.max(np.abs(roots))))
        r = roots
        e1 = np.sum(r)
        e2 = (e1 * e1 - np.sum(r * r)) / 2.0
        e3 = (
            r[0] * r[1] * r[2]
            + r[0] * r[1] * r[3]
            + r[0] * r[2] * r[3]
            + r[1] * r[2] * r[3]
        )
        e4 = np.prod(r)
        worst_viete = max(
            worst_viete,
            abs(e1) / rscale,
            abs(e2 - 2.0 * p0) / rscale ** 2,
            abs(e3 - 8.0 * rho) / rscale ** 3,
            abs(e4 - q0) / rscale ** 4,
        )
        if abs(delta) <= 1e-9 * scale ** 6:
            boundary += 1
            continue
        n_real = int(np.sum(np.abs(roots.imag) <= 1e-7 * rscale))
        if (delta > 0.0) != (n_real == 4):
            mismatches += 1
    passed = mismatches == 0 and worst_viete < 1e-9 * tol
    return CriterionResult(
        "discriminant classification (10^4 samples)",
        passed,
        {
            "mismatches": mismatches,
            "boundary_band": boundary,
            "worst_viete": float(worst_viete),
        },
    )


def crit_periodicity_criterion(tol: float = 1.0, seed: int = 0) -> CriterionResult:
    """4: y(omega) closed form matches quadrature below, negative above."""
    rng = np.random.default_rng(seed)
    worst_gap = 0.0
    # negative discriminant: the chart guarantees the stratum
    for _ in range(100):
        c = rng.uniform(0.4, 2.5)
        d = rng.uniform(0.05, 0.95)
        e = rng.uniform(-1.0, 1.0)
        rho = rng.uniform(0.0, 2.0)
        sol = make_solution(initial_from_cde(c, d, e, rho))
        gap = abs(_y_over_period_by_quadrature(sol) - sol.y_over_period())
        worst_gap = max(worst_gap, gap)
    # four real roots: sample root configurations directly
    pos_all_negative = True
    worst_pos = -math.inf
    count = 0
    while count < 100:
        roots = np.sort(rng.normal(0.0, 1.5, 4))
        roots -= roots.mean()
        gaps = np.diff(roots)
        if np.min(gaps) < 0.05:
            continue
        if (roots[0] + roots[3]) * (2.0 * _p0_of(roots) + roots[0] ** 2 + roots[3] ** 2) < 0:
            roots = -roots[::-1]  # flip to make rho >= 0
        p0 = _p0_of(roots)
        rho = float(np.sum(
            [roots[i] * roots[j] * roots[k]
             for i in range(4) for j in range(i + 1, 4) for k in range(j + 1, 4)]
        )) / 8.0
        if rho < 0.0:
            continue
        r1, r2, r3, r4 = (float(v) for v in roots)
        lo, hi = (r1, r2) if rng.uniform() < 0.5 else (r3, r4)
        zr = lo + (hi - lo) * rng.uniform(0.1, 0.9)
        data = _data_from_quartic(p0, rho, zr, roots)
        if data is None:
            continue
        sol = make_solution(data)
        if sol.profile.branch not in (Branch.POS_LOW, Branch.POS_HIGH):
            continue
        val = max(_y_over_period_by_quadrature(sol), sol.y_over_period())
        worst_pos = max(worst_pos, val)
        pos_all_negative = pos_all_negative and val < 0.0
        count += 1
    # repeated root with mu > 0
    mu_all_negative = True
    worst_mu = -math.inf
    worst_mu_gap = 0.0
    count = 0
    while count < 100:
        rr = -rng.uniform(0.2, 2.0)
        s = 2.0 * abs(rr) * rng.uniform(0.15, 0.9)
        p0 = -(2.0 * rr * rr + s * s) / 2.0
        rho = -s * s * rr / 4.0
        r2, r3 = -rr - s, -rr + s
        zr = r2 + (r3 - r2) * rng.uniform(0.1, 0.9)
        roots = np.array([rr, rr, r2, r3])
        data = _data_from_quartic(p0, rho, zr, roots)
        if data is None:
            continue
        sol = make_solution(data)
        if sol.profile.branch is not Branch.ZERO_MU_POS:
            continue
        quadrature, closed = _y_over_period_by_quadrature(sol), sol.y_over_period()
        worst_mu = max(worst_mu, quadrature, closed)
        worst_mu_gap = max(worst_mu_gap, abs(quadrature - closed))
        mu_all_negative = mu_all_negative and quadrature < 0.0 and closed < 0.0
        count += 1
    passed = worst_gap < 1e-8 * tol and pos_all_negative and mu_all_negative
    return CriterionResult(
        "periodicity criterion y(omega)",
        passed,
        {
            "neg_closed_vs_quad": worst_gap,
            "pos_max_y_over_period": worst_pos,
            "mu_pos_max_y_over_period": worst_mu,
            "mu_pos_closed_vs_quad": worst_mu_gap,
        },
    )


def _p0_of(roots) -> float:
    return float(sum(roots[i] * roots[j] for i in range(4) for j in range(i + 1, 4))) / 2.0


def _data_from_quartic(p0: float, rho: float, zr: float, roots) -> InitialData | None:
    """Initial data whose speed quartic has the given coefficients."""
    y0 = 0.5 * (p0 + zr * zr) - 1.0
    m = ((zr * zr + 2.0 * p0) * zr - 8.0 * rho) * zr + float(np.prod(roots))
    val = -0.25 * m
    if val <= 0.0:
        return None
    return InitialData(math.sqrt(val), y0, zr - rho, rho)


def crit_unique_dc(tol: float = 1.0) -> CriterionResult:
    """5: unique d_c with tiny residual; d_c and En(c) increase; En -> 0."""
    rho = 1.0
    cs = np.arange(1.1, 5.0 + 1e-9, 0.1)
    worst_resid = 0.0
    ds, es = [], []
    for c in cs:
        d = solve_dc(float(c), rho)
        worst_resid = max(worst_resid, abs(psi_tilde(float(c), d, rho)))
        ds.append(d)
        es.append(energy_of_c(float(c), rho))
    increasing_d = all(a < b for a, b in zip(ds, ds[1:]))
    increasing_e = all(a < b for a, b in zip(es, es[1:]))
    tail = energy_of_c(1.0 + 1e-4, rho)
    passed = (
        worst_resid < 1e-12 * tol and increasing_d and increasing_e and tail < 1e-3 * tol
    )
    return CriterionResult(
        "unique d_c and monotone energy",
        passed,
        {
            "max_psi_tilde_residual": worst_resid,
            "d_increasing": increasing_d,
            "energy_increasing": increasing_e,
            "energy_at_1p0001": tail,
        },
    )


def crit_closed_at_every_energy(tol: float = 1.0) -> CriterionResult:
    """6: build_periodic closes at E in {0.1, 1, 10} for e in {-1, 0, 1}."""
    worst_closure, worst_energy = 0.0, 0.0
    for energy in (0.1, 1.0, 10.0):
        for e in (-1.0, 0.0, 1.0):
            _, rep = build_periodic(energy, e, rho=1.0)
            worst_closure = max(
                worst_closure, rep["closure_x"], rep["closure_y"], rep["closure_z"]
            )
            worst_energy = max(worst_energy, rep["energy_error"])
    passed = worst_closure < 1e-7 * tol and worst_energy < 1e-9 * tol
    return CriterionResult(
        "closed trajectories at every energy",
        passed,
        {"max_closure": worst_closure, "max_energy_error": worst_energy},
    )


def crit_exact_threshold(tol: float = 1.0) -> CriterionResult:
    """7: exact-force family exists strictly below rho^2/2 and closes."""
    fam = exact_periodic_family(1.9, 2.0)
    below_exists = fam is not None
    closure = math.inf
    if below_exists:
        traj = fam.trajectory(angle=0.3)
        # the z-drift vanishes on the family, so one horizontal turn closes
        period = traj.horizontal_period()
        p = traj.point(period)
        closure = max(abs(p.x), abs(p.y), abs(p.z))
    at_threshold = exact_periodic_family(2.0, 2.0)
    passed = below_exists and closure < 1e-8 * tol and at_threshold is None
    return CriterionResult(
        "exact-force energy threshold",
        passed,
        {
            "family_below": below_exists,
            "closure": closure,
            "empty_at_threshold": at_threshold is None,
        },
    )


def crit_lambda_periodic(tol: float = 1.0) -> CriterionResult:
    """8: Gamma_1 element (0,1,1/2) admits a periodic lift; (1,0,0) refuses."""
    lam = LatticeElement(0.0, 1.0, 0.5)
    res = find_lambda_periodic(lam, 1.0, 1.0)
    residual = lambda_periodic_residual(res.trajectory, lam, res.omega)
    refused = False
    try:
        find_lambda_periodic(LatticeElement(1.0, 0.0, 0.0), 1.0, 1.0)
    except LambdaNotFoundError:
        refused = True
    passed = residual < 1e-7 * tol and refused
    return CriterionResult(
        "lambda-periodic construction on Gamma_1",
        passed,
        {"residual": residual, "x1_nonzero_refused": refused, "n": res.n},
    )


def crit_lattice_obstruction(tol: float = 1.0) -> CriterionResult:
    """9: rotated lattice admits no period candidates; standard ones do."""
    rotated = [[math.sqrt(3.0) / 2.0, 0.5], [-0.5, math.sqrt(3.0) / 2.0]]
    rot = lattice_obstruction_check(rotated)
    std = lattice_obstruction_check([[1.0, 0.0], [0.0, 1.0]])
    passed = (rot is False) and (std is True)
    return CriterionResult(
        "lattice obstruction",
        passed,
        {"rotated": rot, "standard": std},
    )


def crit_lagrangian(tol: float = 1.0) -> CriterionResult:
    """10: Euler-Lagrange residuals vanish on trajectories, not off them."""
    worst_true = 0.0
    for force, data in (
        (LorentzForce(0.0, 1.0, 1.0), InitialData(0.5, 0.3, -0.2, 1.0)),
        (LorentzForce(0.7, 1.2, 0.9), InitialData(0.4, -0.3, 0.6, 0.9)),
    ):
        cfg = OracleConfig(rel_tol=1e-11, abs_tol=1e-13, t_span=(0.0, 10.0))
        orc = integrate_general(
            force, StateVector(0, 0, 0, data.x0, data.y0, data.z0), cfg, n_samples=10001
        )
        rx, ry, rz = euler_lagrange_residual(force, orc.t, orc.states)
        worst_true = max(
            worst_true,
            float(np.max(np.abs(rx))),
            float(np.max(np.abs(ry))),
            float(np.max(np.abs(rz))),
        )
    ts = np.linspace(0.0, 10.0, 10001)
    ones = np.ones_like(ts)
    control = np.stack([ts, ts, 0 * ts, ones, ones, 0 * ts], axis=1)
    rx, ry, rz = euler_lagrange_residual(LorentzForce(0.0, 1.0, 1.0), ts, control)
    control_max = max(
        float(np.max(np.abs(rx))), float(np.max(np.abs(ry))), float(np.max(np.abs(rz)))
    )
    passed = worst_true < 1e-5 * tol and control_max > 1e-2
    return CriterionResult(
        "Lagrangian equivalence (Euler-Lagrange residuals)",
        passed,
        {"max_on_trajectories": worst_true, "negative_control": control_max},
    )


def crit_elliptic_kernel(tol: float = 1.0) -> CriterionResult:
    """11: Legendre relation and the appendix integral identities."""
    worst_leg = max(
        abs(elliptic.legendre_relation_defect(float(k)))
        for k in np.linspace(0.01, 0.99, 50)
    )
    worst_app = 0.0
    cases = [
        (a, b, k)
        for k in (0.0, 0.2, 0.5, 0.8, 0.95)
        for (a, b) in ((1.0, 2.0), (0.7, 1.3), (0.5, 3.0), (2.5, -3.0))
    ]
    for a, b, k in cases:
        vals = elliptic.appendix_integrals(a, b, k)
        period = 4.0 * elliptic.complete_K(k)
        m = k * k

        def cn(s):
            return special.ellipj(s, m)[1]

        i1, _ = quad(lambda s: 1.0 / (a * cn(s) + b), 0.0, period,
                     epsabs=1e-13, epsrel=1e-13, limit=400)
        i2, _ = quad(lambda s: 1.0 / (a * cn(s) + b) ** 2, 0.0, period,
                     epsabs=1e-13, epsrel=1e-13, limit=400)
        worst_app = max(worst_app, abs(vals["I1"] - i1), abs(vals["I2"] - i2))
    k0 = elliptic.appendix_integrals(1.0, 2.0, 0.0)
    worst_k0 = max(
        abs(k0["I1"] - 2.0 * math.pi / math.sqrt(3.0)),
        abs(k0["I2"] - 4.0 * math.pi / 3.0 ** 1.5),
    )
    passed = worst_leg < 1e-12 * tol and worst_app < 1e-10 * tol and worst_k0 < 1e-10 * tol
    return CriterionResult(
        "elliptic kernel (Legendre + integral identities)",
        passed,
        {
            "legendre_defect": worst_leg,
            "appendix_vs_quadrature": worst_app,
            "k0_closed_forms": worst_k0,
        },
    )


CRITERIA = {
    "closed-form": crit_closed_form,
    "first-integral": crit_first_integral,
    "discriminant": crit_discriminant,
    "periodicity": crit_periodicity_criterion,
    "unique-dc": crit_unique_dc,
    "energy-closure": crit_closed_at_every_energy,
    "exact-threshold": crit_exact_threshold,
    "lambda-periodic": crit_lambda_periodic,
    "lattice-obstruction": crit_lattice_obstruction,
    "lagrangian": crit_lagrangian,
    "elliptic": crit_elliptic_kernel,
}


def run_criterion(name: str, seed: int = 0) -> CriterionResult:
    tol = tolerance_scale()
    fn = CRITERIA[name]
    t0 = time.perf_counter()
    result = fn(tol, seed) if name in ("discriminant", "periodicity") else fn(tol)
    result.elapsed = time.perf_counter() - t0
    return result
