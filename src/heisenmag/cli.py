"""Command-line front end.

Subcommands: classify, classify-ic, sample, periodic, lattice,
lattice-obstruction, verify.  Output is JSON (default for the scalar
reports) or CSV (trajectory samples); floats are written in their
shortest repr (JSON) or with 17 significant digits (CSV), so files
round-trip bit-exactly.  Option values may be negative numbers in any
float form, e.g. --x0 -1e-3 or --lambda -1,0.5.

Exit codes: 0 success, 1 domain error, 2 verification failure, 64 usage
error.  HEISENMAG_TOL scales every verification threshold.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys

import numpy as np

from . import acceptance
from .errors import DomainError, HeisenmagError, check_finite
from .heisenberg import LorentzForce, canonical_to_json, classify_force
from .periodic import (
    GammaLattice,
    LatticeElement,
    build_periodic,
    find_lambda_periodic,
    lattice_obstruction_check,
)
from .quartic import Branch, InitialData, build_profile
from .trajectory import make_solution

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_VERIFY = 2
EXIT_USAGE = 64
_MAX_GRID_POINTS = 10 ** 7
_GRID_SLACK = 1e-9  # added to t_max / dt, so a t_max on the grid is not lost to rounding
_END_BAND = 1e-12  # last grid time read as t_max, relative to max(1, t_max)
_CSV_CHUNK_ROWS = 4096  # sample rows per formatted and written CSV chunk


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads only -1 and -1.5 as values; no option here starts
        # with a digit, inf or nan, so -1e-3, -1,0.5, -inf and -nan are too
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)

    def error(self, message):  # argparse default exits with code 2
        raise _UsageError(message)


def _emit_json(obj, out) -> None:
    out.write(json.dumps(obj, indent=2) + "\n")  # one write: json.dump writes each token


def export_samples(rows, header, path=None, fmt: str = "csv"):
    """Write sampled rows, a float table or a sequence of rows, as CSV (17
    significant digits, _CSV_CHUNK_ROWS rows formatted and written at once)
    or as JSON.  A failed open, write or close is a HeisenmagError."""
    table = np.asarray(rows, dtype=float).reshape(-1, len(header))
    try:
        out = sys.stdout if path is None else open(path, "w", encoding="utf-8")
        try:
            if fmt == "csv":
                out.write(",".join(header) + "\n")
                line = ",".join(["%.17g"] * len(header)) + "\n"  # format(v, ".17g") per value
                for i in range(0, len(table), _CSV_CHUNK_ROWS):
                    chunk = table[i:i + _CSV_CHUNK_ROWS]  # only the chunk becomes Python floats
                    out.write(line * len(chunk) % tuple(chunk.ravel().tolist()))
            else:
                _emit_json([dict(zip(header, row)) for row in table.tolist()], out)
        finally:
            if path is not None:
                out.close()
    except OSError as exc:
        where = "standard output" if path is None else path
        raise HeisenmagError(f"cannot write {where}: {exc}") from exc


def _time_grid(t_max: float, dt: float) -> np.ndarray:
    check_finite(t_max=t_max, dt=dt)
    if dt <= 0.0:
        raise HeisenmagError("--dt must be positive")
    if t_max < 0.0:
        return np.empty(0)
    steps = t_max / dt + _GRID_SLACK
    if steps >= _MAX_GRID_POINTS:
        raise DomainError(
            f"--t-max / --dt asks for {steps + 1:.3g} grid points, over {_MAX_GRID_POINTS}"
        )
    n = int(math.floor(steps))
    ts = np.arange(n + 1) * dt  # the products i * dt, bit for bit
    if abs(ts[-1] - t_max) > _END_BAND * max(1.0, t_max):
        ts = np.append(ts, t_max)
    return ts


def _profile_json(data: InitialData) -> dict:
    prof = build_profile(data)
    return {
        "x0": data.x0,
        "y0": data.y0,
        "z0": data.z0,
        "rho": data.rho,
        "p0": prof.p0,
        "q0": prof.q0,
        "delta": prof.delta,
        "delta_is_boundary": prof.delta_is_boundary,
        "branch": prof.branch.value,
        "roots": [[r.real, r.imag] for r in prof.roots],
        "r1": prof.r1,
        "r4": prof.r4,
        "delta1": prof.delta1,
        "delta4": prof.delta4,
        "k": prof.k,
        "k1": prof.k1,
        "mu": prof.mu,
        "r_double": prof.r_double,
    }


def _cmd_classify(args, out) -> int:
    force = LorentzForce(alpha=args.alpha, beta=args.beta, rho=args.rho)
    out.write(canonical_to_json(classify_force(force)) + "\n")
    return EXIT_OK


def _cmd_classify_ic(args, out) -> int:
    data = InitialData(args.x0, args.y0, args.z0, args.rho)
    _emit_json(_profile_json(data), out)
    return EXIT_OK


def _cmd_sample(args, out) -> int:
    data = InitialData(args.x0, args.y0, args.z0, args.rho)
    traj = make_solution(data)
    ts = _time_grid(args.t_max, args.dt)
    x, xp, y, z = traj.evaluate(ts)  # refused where the curve leaves the float range
    residual = 0.5 * sum(v ** 2 for v in data.body_velocity(x, xp)) - data.energy()
    table = np.column_stack((ts, x, y, z, residual))
    export_samples(table, ["t", "x", "y", "z", "energy_residual"], args.output, args.format)
    return EXIT_OK


def _cmd_periodic(args, out) -> int:
    _, report = build_periodic(args.energy, args.e, args.rho)
    data = report.pop("initial_data")
    report["x0"], report["y0"], report["z0"] = data.x0, data.y0, data.z0
    report["closure_residual"] = max(
        report["closure_x"], report["closure_y"], report["closure_z"]
    )
    _emit_json(report, out)
    return EXIT_OK


def _cmd_lattice(args, out) -> int:
    try:
        y1, z1 = (float(v) for v in args.lam.split(","))
    except ValueError as exc:
        raise _UsageError("--lambda expects 'y1,z1'") from exc
    lam = LatticeElement(0.0, y1, z1)
    if not GammaLattice(args.k).is_member(lam.point()):
        raise DomainError(f"lambda = (0, {y1}, {z1}) is not in Gamma_{args.k}")
    res = find_lambda_periodic(lam, args.energy, args.rho)
    _emit_json(
        {
            "lambda": {"x1": lam.x1, "y1": lam.y1, "z1": lam.z1},
            "k": args.k,
            "energy": args.energy,
            "rho": args.rho,
            "n": res.n,
            "c": res.c,
            "d": res.d,
            "e": res.e,
            "base_period": res.base_period,
            "omega": res.omega,
            "conjugator": res.conjugator,
            "x0": res.base_solution.data.x0,
            "y0": res.base_solution.data.y0,
            "z0": res.base_solution.data.z0,
            "residual": res.residual,
        },
        out,
    )
    return EXIT_OK


def _cmd_lattice_obstruction(args, out) -> int:
    try:
        a, b, c, d = (float(v) for v in args.basis.split(","))
    except ValueError as exc:
        raise _UsageError("--basis expects 'a,b,c,d' for [[a, b], [c, d]]") from exc
    basis = [[a, b], [c, d]]
    admits = lattice_obstruction_check(basis)
    _emit_json({"basis": basis, "admits_period_candidates": admits}, out)
    return EXIT_OK


def _cmd_verify(args, out) -> int:
    seeded = ("all", *acceptance.SEEDED)
    if args.seed is not None and (args.seed < 0 or args.case or args.suite not in seeded):
        raise _UsageError(f"--seed takes a non-negative integer, for --suite {'|'.join(seeded)}")
    if args.case is not None:
        record = acceptance.check_branch(Branch(args.case), args.rho)
        record.pop("data")
        record["passed"] = acceptance.closed_form_passed(record, acceptance.tolerance_scale())
        _emit_json(record, out)
        return EXIT_OK if record["passed"] else EXIT_VERIFY
    if args.rho is not None:
        raise _UsageError("--rho applies only to --case")
    names = list(acceptance.CRITERIA) if args.suite == "all" else [args.suite]
    failed = 0
    records = []
    for name in names:
        if name not in acceptance.CRITERIA:
            raise _UsageError(
                f"unknown suite '{name}'; choose from {', '.join(acceptance.CRITERIA)} or all"
            )
        result = acceptance.run_criterion(name, seed=args.seed or 0)
        if args.json:
            records.append({
                "name": name,
                "title": result.name,
                "passed": result.passed,
                "elapsed": result.elapsed,
                "details": result.details,
            })
        else:
            out.write(result.line() + "\n")
        if not result.passed:
            failed += 1
    if args.json:
        _emit_json(records, out)
    else:
        out.write(f"{len(names) - failed}/{len(names)} criteria passed\n")
    return EXIT_OK if failed == 0 else EXIT_VERIFY


@functools.cache
def build_parser() -> _Parser:
    """The argparse tree, built on first call and shared by every later one:
    it binds the _cmd_* handlers as they are at that first build, and
    callers must not mutate it (parse_args leaves it unchanged)."""
    parser = _Parser(prog="heisenmag", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="canonical form of a Lorentz force")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("classify-ic", help="quartic profile of an initial condition")
    for flag in ("--x0", "--y0", "--z0", "--rho"):
        p.add_argument(flag, type=float, required=True)
    p.set_defaults(fn=_cmd_classify_ic)

    p = sub.add_parser("sample", help="sample a trajectory on a time grid")
    for flag in ("--x0", "--y0", "--z0", "--rho"):
        p.add_argument(flag, type=float, required=True)
    p.add_argument("--t-max", type=float, required=True)
    p.add_argument("--dt", type=float, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", default=None)
    p.set_defaults(fn=_cmd_sample)

    p = sub.add_parser("periodic", help="closed trajectory at a given energy")
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--energy", type=float, required=True)
    p.add_argument("--e", type=float, default=0.0)
    p.set_defaults(fn=_cmd_periodic)

    p = sub.add_parser("lattice", help="lattice-periodic trajectory search")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--lambda", dest="lam", required=True, help="y1,z1")
    p.add_argument("--energy", type=float, required=True)
    p.add_argument("--rho", type=float, default=1.0)
    p.set_defaults(fn=_cmd_lattice)

    p = sub.add_parser("lattice-obstruction", help="period-candidate existence test")
    p.add_argument("--basis", required=True, help="a,b,c,d for [[a, b], [c, d]]")
    p.set_defaults(fn=_cmd_lattice_obstruction)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--suite", default="all")
    p.add_argument("--case", choices=[b.value for b in acceptance._ALL_BRANCHES],
                   default=None, help="cross-validate one branch representative")
    p.add_argument("--rho", type=float, default=None, help="force level of --case")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--json", action="store_true",
                   help="one JSON record per criterion: name, passed, elapsed, details")
    p.set_defaults(fn=_cmd_verify)

    parser.subcommands = sub.choices  # name -> subparser, for main's one-pass parse
    return parser


def main(argv=None) -> int:
    """Run one call: a known subcommand's arguments are parsed by its own
    parser alone, as the root parser would hand them on, and any other argv
    (--help, none or an unknown name) by the root parser; `sample` writes
    its CSV in chunks of _CSV_CHUNK_ROWS rows (export_samples)."""
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    sub = parser.subcommands.get(argv[0]) if argv else None
    try:
        args = parser.parse_args(argv) if sub is None else sub.parse_args(argv[1:])
        return args.fn(args, sys.stdout)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except HeisenmagError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
