"""Seeded workloads, their timed ops and their output checks.

Each workload turns a seed into a fixed op list (one round) and, where the
library has a known defect to show, an untimed probe list.  ``execute``
is the timed op; ``check`` runs afterwards, outside the timed interval,
against references computed here.  Check tolerances are the library's own
acceptance gates.

Why each workload exists is recorded in BENCHMARK.json; the comments at
each generator say how its inputs are drawn.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from heisenmag import acceptance, cli, heisenberg, quartic, trajectory
from heisenmag.quartic import Branch, InitialData

from layers import BRANCHES, failure_kind

ZERO_BRANCHES = tuple(b for b in BRANCHES if b.startswith("ZERO"))
TYPED_KINDS = ("DomainError", "BranchConsistencyError", "ConvergenceError",
               "IntervalError", "HeisenmagError", "exit1")

FIRST_INTEGRAL_TOL = 1e-9  # acceptance criterion 2
SAMPLE_TOL = 1e-8  # energy residual, x, first integral, y and z on `sample`
CLOSURE_TOL = 1e-7  # criterion 6, and the lambda-period residual gate
ENERGY_TOL = 1e-9
SAMPLE_STRIDE = 10  # rows between y/z reference points
SAMPLE_DTS = (0.05, 0.1, 0.2)


@dataclass
class Op:
    kind: str
    args: dict
    props: dict = field(default_factory=dict)


@dataclass
class Outcome:
    op: Op
    seconds: float
    output: object = None
    error: str | None = None  # failure kind, None on success
    raw_seconds: float = 0.0  # measured; ``seconds`` may be in reference seconds
    started: float = 0.0  # perf_counter at the start


def _strata(rng, n, lo, hi, log=False):
    """n draws on [lo, hi], one in each of n equal strata, in random order.

    Stratifying keeps the input mix, and so the cost of a round, nearly
    the same from seed to seed, while every value stays random.
    """
    a, b = (math.log(lo), math.log(hi)) if log else (lo, hi)
    u = (rng.permutation(n) + rng.uniform(size=n)) / n
    v = a + (b - a) * u
    return [float(x) for x in (np.exp(v) if log else v)]


def _force_for(rng, rho_canonical):
    """(alpha, beta, rho) of a random force whose canonical rho is given."""
    theta = rng.uniform(0.0, 2.0 * math.pi)
    norm = rng.uniform(0.75, 1.5)
    sign = 1.0 if rng.uniform() < 0.5 else -1.0
    return (norm * math.sin(theta), norm * math.cos(theta), sign * rho_canonical * norm)


def _is_branch(x0, y0, z0, rho, branch):
    data = InitialData(abs(x0), y0, z0, rho)
    p0, q0 = quartic.monic_coefficients(data)
    if branch != "NEG" and quartic.discriminant(p0, q0, rho) < 0.0:
        return False  # most box data: rejected without root finding
    return quartic.build_profile(data).branch.name == branch


def _build(data):
    if data.x0 >= 0.0:
        return trajectory.make_solution(data)
    return trajectory.reflect_for_negative_x0(data)


def _branch_name(traj):
    return getattr(traj, "source", traj).profile.branch.name


def first_integral(traj, data, t, x=None):
    """x'^2 + h(x)^2 - 2 rho x - (x0^2 + (y0+1)^2), which is constant zero."""
    if x is None:
        x = traj.x(t)
    xp = traj.x_prime(t)
    h = 0.5 * x * x + (data.z0 + data.rho) * x + data.y0 + 1.0
    return xp * xp + h * h - 2.0 * data.rho * x - (data.x0 ** 2 + (data.y0 + 1.0) ** 2)


def _y_increment(traj, data, a, b):
    """Integral of y' = x^2/2 + (z0+rho) x + y0 over [a, b]."""
    zr = data.z0 + data.rho

    def yp(s):
        x = traj.x(s)
        return 0.5 * x * x + zr * x + data.y0

    with warnings.catch_warnings():
        # judged by its error estimate below instead
        warnings.simplefilter("ignore", IntegrationWarning)
        val, err = quad(yp, a, b, epsabs=1e-12, epsrel=1e-12, limit=500)
    if err > 1e-10 * max(1.0, b - a):
        raise ArithmeticError(f"reference quadrature error {err} on [{a}, {b}]")
    return val


def _z_from(traj, data, t, x, y):
    return -0.5 * x * y - (data.z0 + data.rho) * y - traj.x_prime(t) + data.x0


class CliExit(Exception):
    """The CLI returned a non-zero exit code (1: it caught a HeisenmagError)."""

    def __init__(self, rc: int):
        super().__init__(f"exit code {rc}")
        self.rc = rc


def _cli(argv):
    """(exit code, standard output) of one in-process CLI call."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _run_cli(argv):
    rc, text = _cli(argv)
    if rc != 0:
        raise CliExit(rc)
    return text


class Workload:
    name = ""
    warmup_ops = 2
    gauge_kind = "quad"  # see gauge.py

    def __init__(self, seed: int, small: bool, out_dir: Path):
        self.seed = seed
        self.out_dir = out_dir
        rng = np.random.default_rng(seed)
        self.ops, self.probe = self.generate(rng, small)

    def digest(self) -> str:
        text = repr([(op.kind, op.args) for op in self.ops + self.probe])
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    def generate(self, rng, small):
        raise NotImplementedError

    def execute(self, op):
        raise NotImplementedError

    def check(self, op, output):
        """(reason for a miss or None, branch the output lies on or None)."""
        raise NotImplementedError

    def fingerprint(self, op, output):
        """What must repeat exactly when an op is run again; None: always check."""
        return None

    def between_rounds(self) -> list:
        """Ops of the list timed once more between two rounds; none by default."""
        return []

    def warm_up(self) -> None:
        for op in self.ops[: self.warmup_ops]:
            self._attempt(op)

    def _attempt(self, op) -> Outcome:
        t0 = time.perf_counter()
        try:
            output = self.execute(op)
        except CliExit as exc:
            out = Outcome(op, time.perf_counter() - t0, None, f"exit{exc.rc}")
        except Exception as exc:  # every failure is counted, none aborts the run
            out = Outcome(op, time.perf_counter() - t0, None, failure_kind(exc))
        else:
            out = Outcome(op, time.perf_counter() - t0, output)
        out.started = t0
        return out

    def run_round(self, ops, tracer=None, gauge=None):
        """Run ``ops`` once in a closed loop; returns (outcomes, wall seconds).

        Each op starts when the previous one has returned, apart from the
        gauge run between them.  The wall is the sum of the op intervals,
        without the gauge; with a ``gauge`` every interval is in reference
        seconds (see gauge.py) and ``raw_seconds`` keeps the measured one,
        less the gauge's in-op samples.
        """
        outcomes = []
        if gauge is not None:
            gauge.refresh()
        for i, op in enumerate(ops):
            with contextlib.ExitStack() as stack:
                interval = stack.enter_context(gauge.interval()) if gauge else None
                if tracer is not None:
                    stack.enter_context(tracer.op(i, op.kind))
                out = self._attempt(op)
            if interval is not None:
                out.seconds -= interval.paused(out.started, out.started + out.seconds)
                out.raw_seconds = out.seconds
                out.seconds = gauge.scale(interval, out.seconds)
            else:
                out.raw_seconds = out.seconds
            outcomes.append(out)
        return outcomes, math.fsum(o.seconds for o in outcomes)

    def run_probe(self):
        return self.run_round(self.probe)[0]


# --- construct -----------------------------------------------------------------


class Construct(Workload):
    """Library API: classify_force, then make_solution / reflect_for_negative_x0."""

    name = "construct"
    warmup_ops = 20

    def generate(self, rng, small):
        n_generic, n_anchor, n_probe = (40, 2, 3) if small else (480, 12, 30)
        ops = []
        # box-uniform data: mostly NEG, with POS_LOW/POS_HIGH at their
        # natural few-percent share
        box = [_strata(rng, n_generic, -3.0, 3.0) for _ in range(3)]
        for x0, y0, z0, rho in zip(*box, _strata(rng, n_generic, 0.0, 3.0)):
            ops.append(Op("generic", {"force": _force_for(rng, rho), "coords": (x0, y0, z0)},
                          {"x0_neg": x0 < 0.0}))
        # anchored families at random rho; below rho ~ 0.25 the POS_LOW
        # family itself meets Delta = 0, which is the probe's territory
        for branch in BRANCHES:
            for rho in _strata(rng, n_anchor, 0.5, 4.0, log=True):
                ops.append(Op("anchor", {"force": _force_for(rng, rho), "branch": branch},
                              {"branch": branch, "delta_zero": branch in ZERO_BRANCHES}))
        ops = [ops[i] for i in rng.permutation(len(ops))]
        # near-stratum probe: an anchor moved by +-eps in one coordinate
        probe = []
        for branch in BRANCHES:
            for rho, log_eps in zip(_strata(rng, n_probe, 0.5, 4.0, log=True),
                                    _strata(rng, n_probe, -13.0, -5.0)):
                eps = 10.0 ** log_eps if rng.uniform() < 0.5 else -(10.0 ** log_eps)
                probe.append(Op("near", {"force": _force_for(rng, rho), "branch": branch,
                                         "coord": int(rng.integers(3)), "eps": eps},
                                {"near_stratum": True}))
        return ops, probe

    def execute(self, op):
        a = op.args
        canon = heisenberg.classify_force(heisenberg.LorentzForce(*a["force"]))
        rho = canon.rho_canonical
        if op.kind == "generic":
            coords = list(a["coords"])
        else:
            d = acceptance.representative_data(Branch[a["branch"]], rho)
            coords = [d.x0, d.y0, d.z0]
            if op.kind == "near":
                coords[a["coord"]] += a["eps"]
        data = InitialData(coords[0], coords[1], coords[2], rho)
        return canon, data, _build(data)

    def fingerprint(self, op, output):
        canon, data, traj = output
        return (canon, data, _branch_name(traj), traj.x_period, traj.x(0.7), traj.x_prime(0.7))

    def check(self, op, output):
        canon, data, traj = output
        alpha, beta, rho_f = op.args["force"]
        expected = abs(rho_f) / math.hypot(alpha, beta)
        if abs(canon.rho_canonical - expected) > 1e-12 * max(1.0, expected):
            return f"canonical rho {canon.rho_canonical} != {expected}", None
        branch = _branch_name(traj)
        if op.kind == "anchor" and branch != op.args["branch"]:
            return f"anchor of {op.args['branch']} built as {branch}", branch
        omega = traj.x_period
        t_max = 2.0 * omega if omega is not None else 10.0
        for t in np.linspace(0.0, t_max, 9):
            fi = abs(first_integral(traj, data, float(t)))
            if not fi < FIRST_INTEGRAL_TOL:
                return f"first integral {fi:.3g} at t={t:.6g}", branch
        return None, branch


# --- sample --------------------------------------------------------------------


class Sample(Workload):
    """In-process `heisenmag sample` to a CSV file, all seven branches."""

    name = "sample"

    def generate(self, rng, small):
        per_branch, n_points = (1, 21) if small else (15, 51)
        ops = []
        for branch in BRANCHES:
            rhos = _strata(rng, per_branch, 0.5, 4.0, log=True)
            for j in range(per_branch):
                if branch in ZERO_BRANCHES:
                    # the Delta = 0 families exist only at x0 = 0
                    d = acceptance.representative_data(Branch[branch], rhos[j])
                    x0, y0, z0, rho = d.x0, d.y0, d.z0, d.rho
                else:
                    while True:
                        x0, y0, z0 = (float(v) for v in rng.uniform(-3.0, 3.0, 3))
                        rho = float(rng.uniform(0.0, 3.0))
                        if _is_branch(x0, y0, z0, rho, branch):
                            break
                    # half of each generic branch runs through the reflection
                    x0 = -abs(x0) if j % 2 else abs(x0)
                # grid spacing cycles so that every branch has the same mix
                dt = SAMPLE_DTS[j % len(SAMPLE_DTS)]
                ops.append(Op("sample", {"data": (x0, y0, z0, rho), "dt": dt,
                                         "t_max": (n_points - 1) * dt},
                              {"branch": branch, "x0_neg": x0 < 0.0,
                               "delta_zero": branch in ZERO_BRANCHES}))
        ops = [ops[i] for i in rng.permutation(len(ops))]
        for i, op in enumerate(ops):
            op.args["file"] = f"sample_{i}.csv"
        return ops, []

    def execute(self, op):
        x0, y0, z0, rho = op.args["data"]
        path = self.out_dir / op.args["file"]
        _run_cli(["sample", f"--x0={x0!r}", f"--y0={y0!r}", f"--z0={z0!r}",
                  f"--rho={rho!r}", f"--t-max={op.args['t_max']!r}",
                  f"--dt={op.args['dt']!r}", f"--output={path}"])
        return path

    def fingerprint(self, op, output):
        return output.read_text()

    def check(self, op, output):
        return check_sample_rows(op, output.read_text())


def check_sample_rows(op, text):
    """Check one `sample` CSV against references computed here."""
    lines = text.splitlines()
    if not lines or lines[0] != "t,x,y,z,energy_residual":
        return "bad CSV header", None
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    dt, t_max = op.args["dt"], op.args["t_max"]
    n = int(math.floor(t_max / dt + 1e-9)) + 1
    if len(rows) != n:
        return f"{len(rows)} rows, expected {n}", None
    data = InitialData(*op.args["data"])
    traj = _build(data)
    branch = _branch_name(traj)
    worst_res = max(abs(r[4]) for r in rows)
    if not worst_res < SAMPLE_TOL:
        return f"energy residual {worst_res:.3g}", branch
    y_ref, t_prev = 0.0, 0.0
    for i in list(range(0, n, SAMPLE_STRIDE)) + ([n - 1] if (n - 1) % SAMPLE_STRIDE else []):
        t, x, y, z, _ = rows[i]
        if abs(t - i * dt) > 1e-12 * max(1.0, t):
            return f"row {i} has t={t}, expected {i * dt}", branch
        y_ref += _y_increment(traj, data, t_prev, t)
        t_prev = t
        gaps = {
            "x": abs(x - traj.x(t)),
            "first integral": abs(first_integral(traj, data, t, x)),
            "y": abs(y - y_ref),
            "z": abs(z - _z_from(traj, data, t, x, y_ref)),
        }
        for what, gap in gaps.items():
            if not gap < SAMPLE_TOL:
                return f"{what} off by {gap:.3g} at t={t:.6g}", branch
    return None, branch


# --- periodic ------------------------------------------------------------------


class Periodic(Workload):
    """In-process `heisenmag periodic` and `heisenmag lattice`."""

    name = "periodic"
    warmup_ops = 4

    def generate(self, rng, small):
        n_periodic, n_lattice = (2, 1) if small else (48, 20)
        ops = []
        for energy, e, rho in zip(_strata(rng, n_periodic, 0.05, 20.0, log=True),
                                  _strata(rng, n_periodic, -1.0, 1.0),
                                  _strata(rng, n_periodic, 0.0, 3.0)):
            ops.append(Op("periodic", {"energy": energy, "e": e, "rho": rho}, {"branch": "NEG"}))
        # lambda = (0, y1, z1): y1 cycles through +-1, +-2, z1 through the
        # half-integers in [-2, 2]
        for j, (energy, rho) in enumerate(zip(_strata(rng, n_lattice, 0.3, 5.0, log=True),
                                              _strata(rng, n_lattice, 0.0, 2.0))):
            ops.append(Op("lattice", {"y1": (-2.0, -1.0, 1.0, 2.0)[j % 4],
                                      "z1": (j % 9 - 4) / 2.0,
                                      "energy": energy, "rho": rho},
                          {"branch": "NEG"}))
        return [ops[i] for i in rng.permutation(len(ops))], []

    def execute(self, op):
        a = op.args
        if op.kind == "periodic":
            argv = ["periodic", f"--rho={a['rho']!r}", f"--energy={a['energy']!r}",
                    f"--e={a['e']!r}"]
        else:
            argv = ["lattice", "--k=1", f"--lambda={a['y1']!r},{a['z1']!r}",
                    f"--energy={a['energy']!r}", f"--rho={a['rho']!r}"]
        return _run_cli(argv)

    def fingerprint(self, op, output):
        return output

    def check(self, op, output):
        return check_periodic_report(op, json.loads(output))


def check_periodic_report(op, rep):
    """Closure and energy (periodic) or lambda-periodicity (lattice), recomputed."""
    a = op.args
    data = InitialData(rep["x0"], rep["y0"], rep["z0"], a["rho"])
    sol = trajectory.make_solution(data)
    branch = sol.profile.branch.name
    energy = 0.5 * (data.x0 ** 2 + data.y0 ** 2 + data.z0 ** 2)
    if not abs(energy - a["energy"]) < ENERGY_TOL:
        return f"energy error {abs(energy - a['energy']):.3g}", branch
    if op.kind == "periodic":
        omega = rep["period"]
        x = sol.x(omega)
        y = _y_increment(sol, data, 0.0, omega)
        closure = max(abs(x), abs(y), abs(_z_from(sol, data, omega, x, y)))
        if not closure < CLOSURE_TOL:
            return f"closure {closure:.3g}", branch
        return None, branch
    # lattice: lam * sigma(t) = sigma(t + omega) for sigma = exp(a e1) * base
    shift, omega, y1, z1 = rep["conjugator"], rep["omega"], a["y1"], a["z1"]

    def point(t):
        p = sol.point(t)
        return p.x + shift, p.y, p.z + 0.5 * shift * p.y

    worst = 0.0
    for t in np.linspace(0.0, omega, 9):
        x1, y1_t, z1_t = point(float(t))
        x2, y2, z2 = point(float(t) + omega)
        worst = max(worst, abs(x1 - x2), abs(y1_t + y1 - y2),
                    abs(z1_t + z1 - 0.5 * y1 * x1 - z2))
    if not worst < CLOSURE_TOL:
        return f"lambda-period residual {worst:.3g}", branch
    return None, branch


# --- verify --------------------------------------------------------------------


class Verify(Workload):
    """In-process `heisenmag verify --suite <criterion>`, one op per criterion.

    A round runs the eleven criteria of `verify --suite all` one by one, so
    each criterion has its own latency and a round that passes is 11/11.
    """

    name = "verify"
    gauge_kind = "quad+mpmath"  # the oracle's DOP853 and 30-digit Taylor work
    SEEDED = ("discriminant", "periodicity")

    def generate(self, rng, small):
        ops = [Op("criterion", {"name": name}) for name in acceptance.CRITERIA]
        # the release gate runs at its default seed; the run's seed goes to
        # the two seeded criteria as an untimed probe, because at many seeds
        # the periodicity criterion draws Delta ~ 0 data that fail to build
        probe = [Op("seeded", {"name": name, "seed": self.seed}) for name in self.SEEDED]
        return ops, probe

    def warm_up(self) -> None:
        self._attempt(Op("criterion", {"name": "elliptic"}))

    def between_rounds(self):
        # closed-form takes most of a ~7-10 s round, so a run holds only two
        # or three; the other ten criteria, which set both percentiles, get
        # one more timing between rounds
        return [op for op in self.ops if op.args["name"] != "closed-form"]

    def execute(self, op):
        argv = ["verify", "--suite", op.args["name"]]
        if "seed" in op.args:
            argv.append(f"--seed={op.args['seed']}")
        rc, text = _cli(argv)
        if rc not in (0, cli.EXIT_VERIFY):  # a failed criterion is a check miss
            raise CliExit(rc)
        return rc, text

    def check(self, op, output):
        rc, text = output
        lines = text.splitlines()
        if rc != 0 or not lines or lines[-1] != "1/1 criteria passed":
            return f"criterion {op.args['name']} failed: {lines[:1]}", None
        return None, None


WORKLOADS = {w.name: w for w in (Construct, Sample, Periodic, Verify)}
