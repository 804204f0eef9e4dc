"""Which heisenmag boundaries the traced run wraps, and the per-layer
metrics computed from them.

Every name below follows ``<module>.<function>``.  Hot inner calls (called
thousands of times per op) are aggregated without spans.
"""

from __future__ import annotations

import mpmath

from heisenmag import (
    acceptance,
    cli,
    elliptic,
    heisenberg,
    oracle,
    periodic,
    quartic,
    trajectory,
)
from heisenmag.errors import HeisenmagError

BRANCHES = ("NEG", "POS_LOW", "POS_HIGH", "ZERO_MU_POS",
            "ZERO_MU_NEG_RIGHT", "ZERO_MU_NEG_LEFT", "ZERO_CUSP")
FAILURE_KINDS = ("DomainError", "BranchConsistencyError", "ConvergenceError",
                 "IntervalError", "HeisenmagError", "untyped")
CRITERIA = tuple(acceptance.CRITERIA)


def failure_kind(exc: BaseException) -> str:
    name = type(exc).__name__
    if isinstance(exc, HeisenmagError):
        return name if name in FAILURE_KINDS else "HeisenmagError"
    return "untyped"


def _on_solution(tracer, sol):
    tracer.counts["trajectory.built"] += 1
    tracer.counts["trajectory.flipped"] += int(sol.phase_flipped)
    tracer.counts[f"trajectory.branch.{sol.profile.branch.name}"] += 1
    return sol


def _on_trajectory_error(tracer, exc):
    # reflect_for_negative_x0 re-raises what its inner make_solution raised
    if not getattr(exc, "_perfbench_counted", False):
        exc._perfbench_counted = True
        tracer.counts[f"trajectory.failed.{failure_kind(exc)}"] += 1


def _on_sample(tracer, args, kwargs):
    if tracer.active("trajectory.sample") == 1:
        ts = args[1] if len(args) > 1 else kwargs["ts"]
        tracer.counts["trajectory.sample.points"] += len(ts)


def _within(outer: str, counter: str):
    def hook(tracer, args, kwargs):
        if tracer.active(outer):
            tracer.counts[counter] += 1
    return hook


def _on_odefun(tracer, solution):
    # evaluating the returned series integrates too, so it is timed as well
    return tracer.wrap("oracle.mpmath_odefun", solution)


def _criterion_wrapper(tracer, run_criterion):
    def traced(name, *args, **kwargs):
        frame = tracer.enter(f"acceptance.{name}")
        try:
            return run_criterion(name, *args, **kwargs)
        finally:
            tracer.exit(frame)
    return traced


def instrument(tracer) -> None:
    """Rebind every traced boundary; ``tracer.restore()`` undoes it."""
    p = tracer.patch
    p("heisenberg.classify_force", heisenberg, "classify_force")
    # HeisenbergPoint.__mul__ calls group_product through the module global
    p("heisenberg.group_product", heisenberg, "group_product", hot=True)
    p("quartic.build_profile", quartic, "build_profile")
    p("elliptic.jacobi_sn_cn_dn", elliptic, "jacobi_sn_cn_dn", hot=True)
    p("elliptic.complete_K", elliptic, "complete_K", hot=True)
    p("elliptic.complete_K_and_E", elliptic, "complete_K_and_E", hot=True)
    p("elliptic.ellip_f", elliptic, "ellip_f", hot=True)
    p("trajectory.make_solution", trajectory, "make_solution",
      on_result=_on_solution, on_error=_on_trajectory_error)
    p("trajectory.reflect_for_negative_x0", trajectory, "reflect_for_negative_x0",
      on_error=_on_trajectory_error)
    p("trajectory.quad", trajectory, "quad", hot=True, everywhere=False)
    for cls in (trajectory.TrajectorySolution, trajectory.ReflectedTrajectory):
        p("trajectory.sample", cls, "sample", everywhere=False, on_enter=_on_sample)
    p("periodic.solve_c_for_energy", periodic, "solve_c_for_energy")
    p("periodic.solve_dc", periodic, "solve_dc")
    p("periodic.psi_tilde", periodic, "psi_tilde", hot=True,
      on_enter=_within("periodic.solve_c_for_energy", "periodic.psi_tilde.in_solve_c"))
    p("periodic.psi", periodic, "psi", hot=True,
      on_enter=_within("periodic.find_lambda_periodic", "periodic.psi.in_lambda"))
    p("periodic.find_lambda_periodic", periodic, "find_lambda_periodic")
    p("periodic.lambda_periodic_residual", periodic, "lambda_periodic_residual")
    p("oracle.integrate_general", oracle, "integrate_general")
    p("oracle.euler_lagrange_residual", oracle, "euler_lagrange_residual")
    p("oracle.reduced_ode_residual", oracle, "reduced_ode_residual")
    p("oracle.mpmath_odefun", mpmath, "odefun", everywhere=False, on_result=_on_odefun)
    p("cli.main", cli, "main")
    tracer.rebind(acceptance, "run_criterion",
                  _criterion_wrapper(tracer, acceptance.run_criterion))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass: name -> (value, unit)."""
    m: dict[str, tuple[float, str]] = {}

    def calls_busy(name, *, calls=True, busy=True, self_s=False):
        n, b, s = tracer.stat(name)
        if calls:
            m[f"{name}.calls"] = (n, "count")
        if busy:
            m[f"{name}.busy_s"] = (b, "s")
        if self_s:
            m[f"{name}.self_s"] = (s, "s")

    c = tracer.counts
    calls_busy("heisenberg.classify_force")
    calls_busy("heisenberg.group_product")
    calls_busy("quartic.build_profile")
    calls_busy("elliptic.jacobi_sn_cn_dn")
    calls_busy("elliptic.complete_K", busy=False)
    m["elliptic.complete_K_per_jacobi"] = (
        _ratio(tracer.calls["elliptic.complete_K"], tracer.calls["elliptic.jacobi_sn_cn_dn"]), "1")
    calls_busy("elliptic.complete_K_and_E")
    calls_busy("elliptic.ellip_f")
    calls_busy("trajectory.make_solution", self_s=True)
    calls_busy("trajectory.quad")
    m["trajectory.sample.points"] = (c["trajectory.sample.points"], "count")
    sample_busy = tracer.busy_s["trajectory.sample"]
    m["trajectory.sample.busy_s"] = (sample_busy, "s")
    m["trajectory.points_per_s"] = (_ratio(c["trajectory.sample.points"], sample_busy), "1/s")
    m["trajectory.phase_flip_ratio"] = (_ratio(c["trajectory.flipped"], c["trajectory.built"]), "1")
    for b in BRANCHES:
        m[f"trajectory.branch_share.{b}"] = (
            _ratio(c[f"trajectory.branch.{b}"], c["trajectory.built"]), "1")
    for kind in FAILURE_KINDS:
        m[f"trajectory.failed.{kind}"] = (c[f"trajectory.failed.{kind}"], "count")
    calls_busy("periodic.solve_c_for_energy")
    calls_busy("periodic.solve_dc")
    calls_busy("periodic.psi_tilde", busy=False)
    m["periodic.psi_tilde_per_solve"] = (
        _ratio(c["periodic.psi_tilde.in_solve_c"], tracer.calls["periodic.solve_c_for_energy"]), "1")
    calls_busy("periodic.find_lambda_periodic")
    m["periodic.psi_per_lambda"] = (
        _ratio(c["periodic.psi.in_lambda"], tracer.calls["periodic.find_lambda_periodic"]), "1")
    calls_busy("periodic.lambda_periodic_residual", calls=False)
    calls_busy("oracle.integrate_general")
    calls_busy("oracle.euler_lagrange_residual", calls=False)
    calls_busy("oracle.reduced_ode_residual", calls=False)
    calls_busy("oracle.mpmath_odefun", calls=False)
    for name in CRITERIA:
        m[f"acceptance.{name}.busy_s"] = (tracer.busy_s[f"acceptance.{name}"], "s")
    m["cli.main.calls"] = (tracer.calls["cli.main"], "count")
    # main's self time excludes every traced library call under it, which
    # leaves argument parsing, float rendering and writing
    m["cli.self_s"] = (tracer.self_s["cli.main"], "s")
    return m

