"""The eleven verification criteria, each a callable check.

`CRITERIA` maps a name to a runner that performs one self-contained
numerical experiment and returns a CriterionResult with its measured
worst values; `run_criterion` times it.  The CLI `verify` subcommand and
the pytest acceptance module both drive these runners.  Every pass gate is
a module constant; `check_branch` records criterion 1's verdict on one branch.

Criterion 1 checks every branch representative against one independent
integration, `oracle.taylor_reduced`: a Taylor run of the reduced system to
about 32 digits (orders 0-24 in 112-bit fixed point, 25-38 in floats whose
rounding stays below 2^-112), which also holds the saddle branches, where
any float64 integrator loses e^{sqrt(-mu) t}.  Criterion 10 runs
`oracle.integrate_general`, the same Taylor method on the full system in floats.

Criterion 3 computes the closed-form roots of its 10^4 samples in one
`quartic_roots` call on columns, and counts their real roots from the
signs of the quartic at its critical points (`_real_root_counts`), with no
eigensolve.  The references of criteria 4 (y over one x-period) and 11 (the
appendix integrals, over one amplitude period) are periodic trapezoid sums
(`_periodic_integral`), exponentially convergent on smooth periodic
integrands, evaluated on arrays: once for the first two levels, then once
per later level, on its midpoints.  Criterion 4 builds each family of 100
curves in batches (make_solutions), integrates it in one call on a column
of periods, its rows stopping on their own, and evaluates the rows still
refining as one stack (evaluate_stacked); criterion 11 integrates its 20
cases in one such call.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import elliptic
from .errors import (
    BranchConsistencyError,
    ConvergenceError,
    DomainError,
    LambdaNotFoundError,
)
from .heisenberg import LorentzForce
from .oracle import (
    StateVector,
    euler_lagrange_residual,
    integrate_general,
    reduced_ode_residual,
    taylor_reduced,
)
from .periodic import (
    LatticeElement,
    build_periodic,
    energy_cde,
    energy_of_c,
    exact_periodic_family,
    find_lambda_periodic,
    initial_from_cde,
    lattice_obstruction_check,
    psi_tilde,
    solve_dc,
)
from .quartic import (
    Branch,
    InitialData,
    delta_band,
    discriminant,
    monic_coefficients,
    quartic_roots,
    speed_quartic,
)
from .trajectory import evaluate_stacked, make_solution, make_solutions

__all__ = [
    "CriterionResult",
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


# Pass gates by criterion number.
_ODE_RESIDUAL_GATE = 1e-8  # 1: finite-difference x'' + h'(x) h(x) - rho
_ORACLE_GATE = 1e-6  # 1: closed-form coordinates against an independent oracle
_DRIFT_GATE = 1e-9  # 2, 6: first-integral drift, energy error
_VIETE_GATE = 1e-9  # 3: scaled Viete residuals of the closed-form roots
_Y_PERIOD_GATE = 1e-8  # 4: closed-form y(omega) against quadrature
_PSI_RESIDUAL_GATE = 1e-12  # 5: psi_tilde at the solved d_c
_ENERGY_TAIL_GATE = 1e-3  # 5: En(c) at c = _ENERGY_TAIL_C
_CLOSURE_GATE = 1e-7  # 6, 8: closure of periodic and lambda-periodic curves
_EXACT_CLOSURE_GATE = 1e-8  # 7: closure of the exact-force family
_EL_RESIDUAL_GATE = 1e-5  # 10: Euler-Lagrange residual on trajectories
_EL_CONTROL_FLOOR = 1e-2  # 10: ... and its floor off them
_LEGENDRE_GATE = 1e-12  # 11: Legendre relation defect
_IDENTITY_GATE = 1e-10  # 11: appendix integrals against quadrature and at k = 0
# 4, 11: two successive periodic trapezoid sums agree within this, times max(1, period)
_TRAPEZOID_BAND = 1e-13
_TRAPEZOID_START = 32  # points of the first trapezoid sum
_TRAPEZOID_CAP = 1 << 14  # points past which the sums count as not settling
_C_GRID_SLACK = 1e-9  # 5: keeps c = 5.0 inside the arange of the c grid
_ENERGY_TAIL_C = 1.0 + 1e-4  # 5: the c at which the energy tail is read


# --- branch representatives ----------------------------------------------------

# The repeated-root tuples are one-parameter families lying exactly on the
# Delta = 0 stratum; the stated rho makes each representative exactly
# machine-representable there (the mu < 0 family needs (2 rho)^(1/3)
# dyadic, hence rho = 4).
_CBRT2 = 2.0 ** (1.0 / 3.0)


def representative_data(branch: Branch, rho: float | None = None) -> InitialData:
    """The anchored initial condition exercising one solution branch."""
    if rho is not None and not rho > 0.0:
        raise DomainError(f"branch representatives need rho > 0, got {rho}")
    r = 1.0 if rho is None else rho
    if branch is Branch.NEG:
        return InitialData(0.0, 0.0, -r, r)
    if branch is Branch.POS_LOW:
        return InitialData(0.0, -2.0 * r - 0.75, -r - 1.0, r)
    if branch is Branch.POS_HIGH:
        return InitialData(0.0, -1.5 * _CBRT2 * r ** (2 / 3) - 2.0, -r, r)
    if branch is Branch.ZERO_MU_POS:
        return InitialData(0.0, -1.5 * _CBRT2 * r ** (2 / 3) - 1.0, -r, r)
    if branch is Branch.ZERO_MU_NEG_RIGHT:
        if rho is None:
            # the family (0, 2(2r)^{2/3}-1, 5(2r)^{1/3}/2-r) at r = 4,
            # written out so the saddle datum is exactly on its stratum
            # (float powers would miss 7 by one ulp and the separatrix
            # amplifies that offset exponentially)
            return InitialData(0.0, 7.0, 1.0, 4.0)
        return InitialData(
            0.0, 2.0 * (2 * r) ** (2 / 3) - 1.0, 2.5 * (2 * r) ** (1 / 3) - r, r
        )
    if branch is Branch.ZERO_MU_NEG_LEFT:
        return InitialData(0.0, 3.0 * r ** (2 / 3) - 1.0, -3.75 * r ** (1 / 3) - r, r)
    if branch is Branch.ZERO_CUSP:
        return InitialData(0.0, 3.0 * r ** (2 / 3) - 1.0, 3.0 * r ** (1 / 3) - r, r)
    raise DomainError(f"no representative for branch {branch}")


_ALL_BRANCHES = tuple(b for b in Branch if b is not Branch.TRIVIAL)


def _window(sol) -> float:
    """Comparison horizon: two x-periods, or [0, 20] without a period."""
    return 2.0 * sol.x_period if sol.x_period is not None else 20.0


def _first_integral_drift(sol, data: InitialData) -> float:
    """Worst |x'^2 + h(x)^2 - 2 rho x - (x0^2 + (y0+1)^2)| on 257 points."""
    x, xp, _, _ = sol.evaluate(np.linspace(0.0, _window(sol), 257))
    drift = xp ** 2 + data.h(x) ** 2 - 2.0 * data.rho * x - data.norm_sq
    return float(np.max(np.abs(drift)))


def _periodic_integral(f, period):
    """Integral over [0, period] of a smooth f of that period, per row of
    the (B, 1) column period.

    The equispaced trapezoid sum converges exponentially on such an
    integrand (Trefethen and Weideman, SIAM Review 56(3), 2014).  f takes
    the indices of the rows still refining and their (rows, n) times, and
    returns its values along the last axis, so one call may carry several
    integrands.  The first call carries the first level pair: the
    _TRAPEZOID_START points of the first sum, then their midpoints, which
    refine it.  Each later level doubles the points and evaluates f once,
    on the midpoints of the last level, until two successive sums agree
    within _TRAPEZOID_BAND * max(1, period).  Each row stops on its own
    gap, with the points, sums, order and band of its call alone; the
    first row that does not settle raises that call's ConvergenceError.
    """
    band = _TRAPEZOID_BAND * np.maximum(1.0, period[:, 0])
    rows, n = np.arange(len(period)), _TRAPEZOID_START
    h = period / n
    values = f(rows, h * np.concatenate((np.arange(n), np.arange(n) + 0.5)))
    total = h[:, 0] * values[..., :n].sum(axis=-1)
    midvalues, out = values[..., n:], np.empty_like(total)
    while True:
        refined = 0.5 * (total + period[:, 0] / n * midvalues.sum(axis=-1))
        n *= 2
        gap = np.abs(refined - total).reshape(-1, len(rows)).max(axis=0)
        done = gap <= band
        if done.all():
            out[..., rows] = refined
            return out
        if done.any():  # settled rows leave the later calls
            out[..., rows[done]] = refined[..., done]
            rows, period, band, gap = (v[~done] for v in (rows, period, band, gap))
            refined = refined[..., ~done]
        if n >= _TRAPEZOID_CAP:
            raise ConvergenceError(f"trapezoid sums over [0, {period[0, 0]}] "
                                   f"still differ by {float(gap[0])} at {n} points")
        total, midvalues = refined, f(rows, period / n * (np.arange(n) + 0.5))


def check_branch(branch: Branch, rho: float | None = None) -> dict:
    """Cross-validation record for one branch representative.

    Returns the finite-difference ODE residual on [0, 10], the first
    integral drift, the largest coordinate distance of x, y and z from
    `taylor_reduced` (at 201 times over two periods, or at 14 times on
    [0, 20] for the non-periodic branches), the period defect where a
    period exists, and last criterion 1's verdict on them, "passed".
    """
    data = representative_data(branch, rho)
    sol = make_solution(data)
    if sol.profile.branch is not branch:
        raise BranchConsistencyError(
            f"representative for {branch} classified as {sol.profile.branch}"
        )
    record: dict = {"branch": branch.value}
    record["ode_residual"] = reduced_ode_residual(
        sol.x, data, np.linspace(0.05, 10.0, 200)
    )
    omega = sol.x_period
    record["first_integral_drift"] = _first_integral_drift(sol, data)
    ts = (np.linspace(0.0, _window(sol), 201) if omega is not None
          else np.linspace(20.0 / 14, 20.0, 14))
    gap = np.stack(sol.evaluate(ts), axis=1) - taylor_reduced(data, ts)
    record["oracle_distance"] = float(np.max(np.abs(gap[:, [0, 2, 3]])))
    if omega is not None:
        # the closed form must repeat with its stated period
        record["period"] = omega
        record["period_defect"] = abs(sol.x(omega) - sol.x(0.0)) + abs(
            sol.x_prime(omega) - sol.x_prime(0.0)
        )
    record["passed"] = (record["ode_residual"] < _ODE_RESIDUAL_GATE
                        and record["oracle_distance"] < _ORACLE_GATE)
    return record


# --- criterion runners -----------------------------------------------------------


def crit_closed_form() -> CriterionResult:
    """1: every branch solves its equation and tracks an independent oracle."""
    records = [check_branch(branch) for branch in _ALL_BRANCHES]
    worst_res = max(rec["ode_residual"] for rec in records)
    worst_dist = max(rec["oracle_distance"] for rec in records)
    worst_per = max(rec.get("period_defect", 0.0) for rec in records)
    return CriterionResult(
        "closed-form correctness (7 branches)",
        all(rec["passed"] for rec in records),
        {
            "max_ode_residual": worst_res,
            "max_oracle_distance": worst_dist,
            "max_period_defect": worst_per,
        },
    )


def crit_first_integral() -> CriterionResult:
    """2: x'^2 + h(x)^2 - 2 rho x is constant along every branch."""
    worst = 0.0
    for branch in _ALL_BRANCHES:
        data = representative_data(branch)
        worst = max(worst, _first_integral_drift(make_solution(data), data))
    return CriterionResult(
        "first integral drift",
        worst < _DRIFT_GATE,
        {"max_drift": worst},
    )


def crit_discriminant(seed: int = 0) -> CriterionResult:
    """3: discriminant sign agrees with the real-root count; Viete holds.

    The closed-form roots come from one quartic_roots call on the columns,
    equal bit for bit to the roots of each row.  The count comes from an
    independent reference, the signs of m at its critical points
    (_real_root_counts), on the same columns; the Viete residuals are
    those of the closed-form roots.
    """
    rng = np.random.default_rng(seed)
    n = 10_000
    p0, q0, rho, delta, band = _discriminant_columns(rng.uniform(-3.0, 3.0, (n, 4)))
    roots = quartic_roots(p0, q0, rho)
    boundary = np.abs(delta) <= band
    rscale = np.maximum(1.0, np.abs(roots).max(axis=1))
    r0, r1, r2, r3 = roots.T
    e1 = r0 + r1 + r2 + r3
    e2 = r0 * (r1 + r2 + r3) + r1 * (r2 + r3) + r2 * r3
    e3 = r0 * r1 * (r2 + r3) + (r0 + r1) * r2 * r3
    e4 = r0 * r1 * r2 * r3
    worst_viete = max(
        float(np.max(np.abs(e1) / rscale)),
        float(np.max(np.abs(e2 - 2.0 * p0) / rscale ** 2)),
        float(np.max(np.abs(e3 - 8.0 * rho) / rscale ** 3)),
        float(np.max(np.abs(e4 - q0) / rscale ** 4)),
    )
    n_real = _real_root_counts(p0, q0, rho)
    mismatches = int(np.sum(~boundary & ((delta > 0.0) != (n_real == 4))))
    passed = mismatches == 0 and worst_viete < _VIETE_GATE
    return CriterionResult(
        "discriminant classification (10^4 samples)",
        passed,
        {
            "mismatches": mismatches,
            "boundary_band": int(boundary.sum()),
            "worst_viete": worst_viete,
        },
    )


def _real_root_counts(p0, q0, rho) -> np.ndarray:
    """Real-root counts of m(eta) = eta^4 + 2 p0 eta^2 - 8 rho eta + q0,
    one per entry of the equal-length arrays p0, q0 and rho.

    The critical points of m are the roots of eta^3 + p0 eta - 2 rho.
    Where p0^3 + 27 rho^2 < 0 there are three, from Viete's trigonometric
    form in ascending order; elsewhere there is one, from Cardano's
    cancellation-free form A = cbrt(rho + sign(rho) sqrt(rho^2 + p0^3/27)),
    eta = A - p0/(3A), and it fills all three slots.  m is monotone
    between its critical points and positive at both ends (Rolle and the
    intermediate value theorem), so the count is the number of sign
    changes in (+, m(c1), m(c2), m(c3), +).  It is exact off the Delta = 0
    band: Delta (scaled by 1/256) equals the product of m over all three
    critical points, complex ones included, so each |m(c_i)| is about
    1e-9 scale^2 or more there, while a critical point's rounding error
    enters m only at second order (m' = 0 there), about 1e-16 scale^2.
    Each formula runs on every row, hence the errstate.
    """
    with np.errstate(all="ignore"):
        s = np.sqrt(-p0 / 3.0)
        third = np.arccos(np.clip(rho / (s * s * s), -1.0, 1.0)) / 3.0
        viete = 2.0 * s * np.cos(third + np.array([[2.0], [-2.0], [0.0]]) * (np.pi / 3.0))
        a = np.cbrt(rho + np.copysign(np.sqrt(rho * rho + (p0 / 3.0) ** 3), rho))
        cardano = np.where(a == 0.0, 0.0, a - p0 / (3.0 * a))
    crit = np.where(p0 ** 3 + 27.0 * rho * rho < 0.0, viete, cardano)
    m = speed_quartic(crit, p0, q0, rho)
    return np.count_nonzero(np.diff(m < 0.0, axis=0, prepend=False, append=False), axis=0)


def _discriminant_columns(draws: np.ndarray):
    """(p0, q0, rho, Delta, band) as columns, one entry per row (x0, y0, z0,
    rho) of draws, from the library's own formulas: band is the half-width
    of build_profile's Delta = 0 band."""
    data = InitialData(*draws.T)
    p0, q0 = monic_coefficients(data)
    return p0, q0, data.rho, discriminant(p0, q0, data.rho), delta_band(p0, q0, data.rho)


def crit_periodicity_criterion(seed: int = 0) -> CriterionResult:
    """4: y(omega) closed form matches quadrature below, negative above.

    Each family (NEG; POS_LOW, POS_HIGH; ZERO_MU_POS) is built in batches
    (make_solutions), and its quadrature is the periodic trapezoid sum of
    y' over one x-period, in one stacked call.
    """
    rng = np.random.default_rng(seed)
    # negative discriminant: the (c, d, e) chart guarantees the stratum
    neg = make_solutions([initial_from_cde(rng.uniform(0.4, 2.5), rng.uniform(0.05, 0.95),
                                           rng.uniform(-1.0, 1.0), rng.uniform(0.0, 2.0))
                          for _ in range(100)])
    worst_gap = 0.0
    for sol, quadrature in _with_trapezoid(neg):
        worst_gap = max(worst_gap, abs(quadrature - sol.y_over_period()))
    pos_all_negative, worst_pos = True, -math.inf
    pos = _solutions(rng, _four_real_root_data, (Branch.POS_LOW, Branch.POS_HIGH))
    for sol, quadrature in _with_trapezoid(pos):
        val = max(quadrature, sol.y_over_period())
        worst_pos = max(worst_pos, val)
        pos_all_negative = pos_all_negative and val < 0.0
    mu_all_negative, worst_mu, worst_mu_gap = True, -math.inf, 0.0
    for sol, quadrature in _with_trapezoid(_solutions(rng, _mu_pos_data, (Branch.ZERO_MU_POS,))):
        closed = sol.y_over_period()
        worst_mu = max(worst_mu, quadrature, closed)
        worst_mu_gap = max(worst_mu_gap, abs(quadrature - closed))
        mu_all_negative = mu_all_negative and quadrature < 0.0 and closed < 0.0
    passed = worst_gap < _Y_PERIOD_GATE and pos_all_negative and mu_all_negative
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


def _with_trapezoid(solutions) -> list:
    """(solution, y(omega)) pairs of the solutions an iterable builds, y(omega) the
    trapezoid sum of y' = x^2/2 + (z0+rho) x + y0 on stacked arrays, not its closed
    form; a build that raises does so after the integrals of those built before it."""
    sols = []

    def y_prime(rows, ts):
        x = evaluate_stacked([sols[i] for i in rows], ts)[0]
        return 0.5 * x * x + zr[rows] * x + y0[rows]

    try:
        for sol in solutions:
            sols.append(sol)
    finally:
        columns = np.array([[s.data.zr, s.data.y0, s.x_period] for s in sols]).reshape(-1, 3)
        zr, y0, period = columns.T[..., None]
        quadratures = _periodic_integral(y_prime, period).tolist() if sols else []
    return list(zip(sols, quadratures))


def _solutions(rng, draw, branches):
    """The solutions, in draw order, of the first 100 data that draw(rng)
    proposes (None is a rejection) and that build on one of branches; each
    round draws and batch-builds as many proposals as curves are missing."""
    count = 0
    while count < 100:
        data = []
        while len(data) < 100 - count:
            if (datum := draw(rng)) is not None:
                data.append(datum)
        for sol in make_solutions(data):
            if sol.profile.branch in branches:
                count += 1
                yield sol


def _four_real_root_data(rng) -> InitialData | None:
    """Data on four sampled real roots with rho >= 0, or None; in Python floats,
    with sums and products left to right as numpy's run on four entries."""
    roots = sorted(rng.normal(0.0, 1.5, 4).tolist())
    mean = (roots[0] + roots[1] + roots[2] + roots[3]) / 4
    roots = [r - mean for r in roots]
    if min(b - a for a, b in zip(roots, roots[1:])) < 0.05:
        return None
    if (roots[0] + roots[3]) * (2.0 * _p0_of(roots) + roots[0] ** 2 + roots[3] ** 2) < 0:
        roots = [-r for r in reversed(roots)]  # flip to make rho >= 0
    r1, r2, r3, r4 = roots
    rho = (r1 * r2 * r3 + r1 * r2 * r4 + r1 * r3 * r4 + r2 * r3 * r4) / 8.0
    if rho < 0.0:
        return None
    lo, hi = (r1, r2) if rng.uniform() < 0.5 else (r3, r4)
    zr = lo + (hi - lo) * rng.uniform(0.1, 0.9)
    return _data_from_quartic(_p0_of(roots), r1 * r2 * r3 * r4, rho, zr)


def _mu_pos_data(rng) -> InitialData | None:
    """Data on a sampled repeated root with mu > 0, or None."""
    rr = -rng.uniform(0.2, 2.0)
    s = 2.0 * abs(rr) * rng.uniform(0.15, 0.9)
    p0 = -(2.0 * rr * rr + s * s) / 2.0
    rho = -s * s * rr / 4.0
    r2, r3 = -rr - s, -rr + s
    zr = r2 + (r3 - r2) * rng.uniform(0.1, 0.9)
    return _data_from_quartic(p0, rr * rr * r2 * r3, rho, zr)


def _p0_of(roots) -> float:
    r1, r2, r3, r4 = roots
    return (r1 * r2 + r1 * r3 + r1 * r4 + r2 * r3 + r2 * r4 + r3 * r4) / 2.0


def _data_from_quartic(p0: float, q0: float, rho: float, zr: float) -> InitialData | None:
    """Initial data whose speed quartic has the coefficients p0, q0 and rho."""
    y0 = 0.5 * (p0 + zr * zr) - 1.0
    val = -0.25 * speed_quartic(zr, p0, q0, rho)
    if val <= 0.0:
        return None
    return InitialData(math.sqrt(val), y0, zr - rho, rho)


def crit_unique_dc() -> CriterionResult:
    """5: unique d_c with tiny residual; d_c and En(c) increase; En -> 0."""
    rho = 1.0
    cs = np.arange(1.1, 5.0 + _C_GRID_SLACK, 0.1)
    worst_resid = 0.0
    ds, es = [], []
    for c in cs:
        d = solve_dc(float(c), rho)
        worst_resid = max(worst_resid, abs(psi_tilde(float(c), d, rho)))
        ds.append(d)
        es.append(energy_cde(float(c), d, rho))
    increasing_d = all(a < b for a, b in zip(ds, ds[1:]))
    increasing_e = all(a < b for a, b in zip(es, es[1:]))
    tail = energy_of_c(_ENERGY_TAIL_C, rho)
    passed = (
        worst_resid < _PSI_RESIDUAL_GATE
        and increasing_d
        and increasing_e
        and tail < _ENERGY_TAIL_GATE
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


def crit_closed_at_every_energy() -> CriterionResult:
    """6: build_periodic closes at E in {0.1, 1, 10} for e in {-1, 0, 1}."""
    worst_closure, worst_energy = 0.0, 0.0
    for energy in (0.1, 1.0, 10.0):
        for e in (-1.0, 0.0, 1.0):
            _, rep = build_periodic(energy, e, rho=1.0)
            worst_closure = max(
                worst_closure, rep["closure_x"], rep["closure_y"], rep["closure_z"]
            )
            worst_energy = max(worst_energy, rep["energy_error"])
    passed = worst_closure < _CLOSURE_GATE and worst_energy < _DRIFT_GATE
    return CriterionResult(
        "closed trajectories at every energy",
        passed,
        {"max_closure": worst_closure, "max_energy_error": worst_energy},
    )


def crit_exact_threshold() -> CriterionResult:
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
    passed = below_exists and closure < _EXACT_CLOSURE_GATE and at_threshold is None
    return CriterionResult(
        "exact-force energy threshold",
        passed,
        {
            "family_below": below_exists,
            "closure": closure,
            "empty_at_threshold": at_threshold is None,
        },
    )


def crit_lambda_periodic() -> CriterionResult:
    """8: Gamma_1 element (0,1,1/2) admits a periodic lift; (1,0,0) refuses."""
    lam = LatticeElement(0.0, 1.0, 0.5)
    res = find_lambda_periodic(lam, 1.0, 1.0)
    refused = False
    try:
        find_lambda_periodic(LatticeElement(1.0, 0.0, 0.0), 1.0, 1.0)
    except LambdaNotFoundError:
        refused = True
    passed = res.residual < _CLOSURE_GATE and refused
    return CriterionResult(
        "lambda-periodic construction on Gamma_1",
        passed,
        {"residual": res.residual, "x1_nonzero_refused": refused, "n": res.n},
    )


def crit_lattice_obstruction() -> CriterionResult:
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


def crit_lagrangian() -> CriterionResult:
    """10: Euler-Lagrange residuals vanish on trajectories, not off them."""
    worst_true = 0.0
    ts = np.linspace(0.0, 10.0, 10001)
    for force, data in (
        (LorentzForce(0.0, 1.0, 1.0), InitialData(0.5, 0.3, -0.2, 1.0)),
        (LorentzForce(0.7, 1.2, 0.9), InitialData(0.4, -0.3, 0.6, 0.9)),
    ):
        states = integrate_general(force, StateVector.from_initial_data(data), ts)
        residuals = euler_lagrange_residual(force, ts, states)
        worst_true = max(worst_true, *(float(np.max(np.abs(r))) for r in residuals))
    ones = np.ones_like(ts)
    control = np.stack([ts, ts, 0 * ts, ones, ones, 0 * ts], axis=1)
    residuals = euler_lagrange_residual(LorentzForce(0.0, 1.0, 1.0), ts, control)
    control_max = max(float(np.max(np.abs(r))) for r in residuals)
    passed = worst_true < _EL_RESIDUAL_GATE and control_max > _EL_CONTROL_FLOOR
    return CriterionResult(
        "Lagrangian equivalence (Euler-Lagrange residuals)",
        passed,
        {"max_on_trajectories": worst_true, "negative_control": control_max},
    )


# 11: the (A, B, k) at which the appendix integrals meet their quadrature
_APPENDIX_CASES = [(a, b, k) for k in (0.0, 0.2, 0.5, 0.8, 0.95)
                   for (a, b) in ((1.0, 2.0), (0.7, 1.3), (0.5, 3.0), (2.5, -3.0))]


def _appendix_by_trapezoid(a, b, k) -> np.ndarray:
    """The integrals over [0, 4K] of 1/(a cn + b) and its square, by quadrature.

    phi = am u (dphi = dn u du) makes them integrals of (a cos phi + b)^-j
    / sqrt(k'^2 + k^2 cos^2 phi) over [0, 2 pi]: periodic trapezoid sums
    that need neither cn nor K, so nothing of appendix_integrals.  Arrays
    a, b, k give the (2, B) integrals in one call, each case's as its own.
    """
    def powers(rows, phi):  # 1/(a cos + b) and its square, over dn
        cos = np.cos(phi)
        inv = 1.0 / (a[rows] * cos + b[rows])
        kr = k[rows]
        return np.stack([inv, inv * inv]) / np.sqrt((1.0 - kr) * (1.0 + kr) + (kr * cos) ** 2)

    shape = np.shape(a)
    a, b, k = (np.reshape(v, (-1, 1)) for v in (a, b, k))
    return _periodic_integral(powers, np.full(a.shape, 2.0 * math.pi)).reshape(2, *shape)


def crit_elliptic_kernel() -> CriterionResult:
    """11: Legendre relation and the appendix integral identities, the
    latter against _appendix_by_trapezoid."""
    worst_leg = max(
        abs(elliptic.legendre_relation_defect(float(k)))
        for k in np.linspace(0.01, 0.99, 50)
    )
    worst_app = 0.0
    quadratures = _appendix_by_trapezoid(*np.array(_APPENDIX_CASES).T).T.tolist()
    for (a, b, k), (i1, i2) in zip(_APPENDIX_CASES, quadratures):
        vals = elliptic.appendix_integrals(a, b, k)
        worst_app = max(worst_app, abs(vals["I1"] - i1), abs(vals["I2"] - i2))
    k0 = elliptic.appendix_integrals(1.0, 2.0, 0.0)
    worst_k0 = max(
        abs(k0["I1"] - 2.0 * math.pi / math.sqrt(3.0)),
        abs(k0["I2"] - 4.0 * math.pi / 3.0 ** 1.5),
    )
    passed = (
        worst_leg < _LEGENDRE_GATE
        and worst_app < _IDENTITY_GATE
        and worst_k0 < _IDENTITY_GATE
    )
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
SEEDED = ("discriminant", "periodicity")  # the criteria that draw from a seed


def run_criterion(name: str, seed: int = 0) -> CriterionResult:
    fn = CRITERIA[name]
    t0 = time.perf_counter()
    result = fn(seed) if name in SEEDED else fn()
    result.elapsed = time.perf_counter() - t0
    return result
