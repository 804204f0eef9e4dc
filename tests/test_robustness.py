"""Randomized sweeps and edge cases beyond the anchored representatives."""

import contextlib
import dataclasses
import io
import json
import math
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from heisenmag import acceptance, cli
from heisenmag.elliptic import AGM, ellip_f, jacobi_sn_cn_dn, legendre_relation_defect
from heisenmag.errors import BranchConsistencyError, ConvergenceError, DomainError, HeisenmagError
from heisenmag.heisenberg import HeisenbergPoint, LorentzForce
from heisenmag.oracle import StateVector, euler_lagrange_residual, integrate_general, taylor_reduced
from heisenmag.periodic import (
    CdeCoordinates,
    GammaLattice,
    LatticeElement,
    build_periodic,
    cde_from_initial,
    energy_cde,
    energy_of_c,
    exact_periodic_family,
    find_lambda_periodic,
    initial_from_cde,
    lattice_obstruction_check,
    primitive_period,
    psi,
    psi_tilde,
    solve_c_for_energy,
    solve_dc,
)
from heisenmag.quartic import Branch, InitialData, build_profile, mu_r_closed_forms
from heisenmag.trajectory import (
    ExactTrajectory,
    TranslatedTrajectory,
    evaluate_stacked,
    make_solution,
)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)  # signed zeros and subnormals too


# a subnormal rho inside the Delta band: the saddle phase constant is infinite
_INFINITE_PHASE = (1.0, -1e7, 0.0, 2.2250738585072014e-308)


@settings(max_examples=1500, deadline=None)
@given(_FINITE, _FINITE, _FINITE, _FINITE)
@example(*_INFINITE_PHASE)
def test_every_finite_datum_builds_or_raises_typed(x0, y0, z0, rho):
    """Any finite data either build and evaluate, or raise a HeisenmagError."""
    try:
        make_solution(InitialData(x0, y0, z0, rho)).evaluate([0.0, 0.5, 3.0])
    except HeisenmagError:
        pass


@settings(max_examples=400, deadline=None)
@given(_FINITE, _FINITE, _FINITE, _FINITE)
@example(1e200, 0.0, 0.0, 1.0)
@example(0.0, 1e30, 0.0, 1.0)
@example(1e-300, 0.0, 0.0, 0.0)
# its coefficients fit a float, but not their fixed-point ints (past 2^1024)
@example(1e140, 0.0, 0.0, 1.0)
@example(0.0, 0.0, 1e10, 1.0)  # its float orders overflow to inf
def test_taylor_oracle_gives_finite_rows_or_raises_typed(x0, y0, z0, rho):
    """Any finite data give finite oracle rows or raise a HeisenmagError; the
    window shrinks with the data, as the oracle's steps do."""
    data = InitialData(x0, y0, z0, rho)
    try:
        rows = taylor_reduced(data, [0.0, 0.5 / data.scale()])
    except HeisenmagError:
        return
    assert np.all(np.isfinite(rows)), (data, rows)


def test_non_finite_phase_constant_is_refused():
    # tagged ZERO_MU_NEG_RIGHT, its phase constant is inf and F(0) NaN, while
    # the x'(0) check passes at err = 1.0 against its band of 1.0
    with pytest.raises(BranchConsistencyError, match="not finite"):
        make_solution(InitialData(*_INFINITE_PHASE))


# built curves of all eight branches, at x0 = 0 and on both sides of it, exact
# curves: rotating, rotating at a rate of 1e-10, and a subgroup, and a translate
# whose point leaves the float range at t = 1e10; the last POS_HIGH datum's z'
# overflows at t = _Z_PRIME_PAST_RANGE, where its point is finite
_ROTATING = [InitialData(1.0, 0.5, 0.2, 1.0), InitialData(0.2, -2.75, -2.0, 1.0),
             InitialData(0.3, -4.0, -1.0, 1.0), InitialData(2.0, -1.25, 1.5, 0.5),
             InitialData(2.0, -2.0, 0.0, 1.0),
             InitialData(0.19004926625394314, -5.974533109570107, -0.03369281277027535,
                         0.13637317963733048)]
_Z_PRIME_PAST_RANGE = 1.9705520343267315e307
_CURVES = [make_solution(d) for d in (
    *(acceptance.representative_data(b) for b in Branch if b is not Branch.TRIVIAL),
    InitialData(0.0, 0.0, 0.0, 1.0), *_ROTATING,
    *(InitialData(-d.x0, d.y0, d.z0, d.rho) for d in _ROTATING))]
_OTHER = [ExactTrajectory(InitialData(0.5, 0.3, 0.2, 1.0)),
          ExactTrajectory(InitialData(1e-3, 2.0, 1e-10, 0.0)),
          ExactTrajectory(InitialData(0.5, 0.3, -1.0, 1.0)),
          TranslatedTrajectory(HeisenbergPoint(1e300, 1e300, 0.0),
                               make_solution(InitialData(1.0, 0.5, 0.2, 1.0)))]
_TOP = 1.7976931348623157e308


@settings(max_examples=600, deadline=None)
@given(st.integers(0, len(_CURVES) + len(_OTHER) - 1),
       st.one_of(_FINITE, st.sampled_from([_TOP, -_TOP, 1.7e308, -1.7e308, 1e300, -1e300])))
@example(0, 1.7e308)
@example(len(_CURVES), 1.7e308)
@example(len(_CURVES) + 2, 1.7e308)  # the subgroup: its velocity is constant
@example(len(_CURVES) + 3, 1e10)
@example(len(_CURVES) - len(_ROTATING) - 1, _Z_PRIME_PAST_RANGE)
def test_curve_at_any_finite_time_is_finite_or_typed(which, t):
    """x, point, velocity and evaluate at a finite t, the float range's ends
    included, give finite values or raise a HeisenmagError."""
    curve = (_CURVES + _OTHER)[which]
    calls = [curve.point, curve.velocity]
    if which < len(_CURVES):
        calls += [curve.x, lambda t: curve.evaluate([0.0, t])]
    for call in calls:
        try:
            values = call(t)
        except HeisenmagError:
            continue
        assert np.isfinite(np.array(dataclasses.astuple(values) if dataclasses.is_dataclass(values)
                                    else values, dtype=float)).all(), (which, t, call, values)


@pytest.mark.parametrize("t", [_TOP, -_TOP, 1e300, -1e300, 1e200, 3.3])
def test_float_and_array_times_refuse_alike(t):
    """A float time is refused exactly where the same time in an array is:
    math raising on a float where numpy's row stays finite is no refusal."""
    def refused(call):
        try:
            call(t)
        except HeisenmagError:
            return True
        return False

    for i, curve in enumerate(_CURVES):
        assert refused(curve.point) == refused(lambda t: curve.evaluate([t])), (i, t)


# wide draws and the float range's ends, mixed with moderate non-negative
# values so that the builds are reached too
_EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
_VALUE = st.one_of(_FINITE, st.sampled_from(_EXTREMES), st.floats(0.0, 4.0))


def _numbers(report):
    """Every number in a report: its values, items and public dataclass fields."""
    if isinstance(report, (int, float)):
        yield report
    elif isinstance(report, dict):
        for v in report.values():
            yield from _numbers(v)
    elif isinstance(report, (list, tuple)):
        for v in report:
            yield from _numbers(v)
    elif hasattr(report, "__dataclass_fields__"):
        for name in report.__dataclass_fields__:
            yield from _numbers(getattr(report, name))


def _run_cli(*argv):
    """The report of one in-process CLI call, or None when it refuses."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([str(a) for a in argv])  # str of a float is its repr
    assert code in (cli.EXIT_OK, cli.EXIT_DOMAIN, cli.EXIT_USAGE), (argv, code)
    if code != cli.EXIT_OK:
        return None
    if argv[0] == "sample":  # CSV
        return [float(v) for row in out.getvalue().splitlines()[1:] for v in row.split(",")]
    return json.loads(out.getvalue())


def _member(k, y, z):
    """The element of Gamma_k nearest to exp(y e2 + z e3)."""
    return GammaLattice(k).snap(HeisenbergPoint(0.0, y, z))


def _sample(x0, y0, z0, rho, t_max, dt):
    if dt > 0.0 and not t_max / dt <= 64.0:  # a small grid: at most 65 points
        dt = t_max / 64.0
    return _run_cli("sample", "--x0", x0, "--y0", y0, "--z0", z0, "--rho", rho,
                    "--t-max", t_max, "--dt", dt)


def _lattice(k, y, z, energy, rho):
    lam = _member(k, y, z)
    return _run_cli("lattice", "--k", k, "--lambda", f"{float(lam.y1)!r},{float(lam.z1)!r}",
                    "--energy", energy, "--rho", rho)


_ENTRY_POINTS = {
    "psi_tilde": lambda v, k: psi_tilde(*v[:3]),
    "psi": lambda v, k: psi(*v[:3]),
    "solve_dc": lambda v, k: solve_dc(*v[:2]),
    "energy_of_c": lambda v, k: energy_of_c(*v[:2]),
    "energy_cde": lambda v, k: energy_cde(*v[:3]),
    "solve_c_for_energy": lambda v, k: solve_c_for_energy(v[0], v[1]),
    "build_periodic": lambda v, k: build_periodic(v[0], v[1], v[2])[1],
    "find_lambda_periodic": lambda v, k: {
        key: val for key, val in vars(find_lambda_periodic(_member(k, v[0], v[1]), *v[2:4])).items()
        if key not in ("trajectory", "base_solution")
    },
    "cde_from_initial": lambda v, k: cde_from_initial(InitialData(*v[:4])),
    "initial_from_cde": lambda v, k: initial_from_cde(*v[:4]),
    "exact_periodic_family": lambda v, k: exact_periodic_family(*v[:2]),
    "classify-ic": lambda v, k: _run_cli(
        "classify-ic", "--x0", v[0], "--y0", v[1], "--z0", v[2], "--rho", v[3]),
    "sample": lambda v, k: _sample(*v),
    "periodic": lambda v, k: _run_cli("periodic", "--rho", v[0], "--energy", v[1], "--e", v[2]),
    "lattice": lambda v, k: _lattice(k, *v[:4]),
    "lattice-obstruction": lambda v, k: _run_cli(
        "lattice-obstruction", "--basis", ",".join(map(repr, v[:4]))),
}


@settings(max_examples=900, deadline=None)
@given(st.sampled_from(sorted(_ENTRY_POINTS)), st.tuples(*[_VALUE] * 6), st.integers(1, 8))
def test_periodic_lattice_and_cli_entry_points_return_or_raise_typed(entry, values, k):
    """Any finite input to the periodic, lattice and CLI entry points either
    returns a finite report or raises a HeisenmagError (CLI exit 1 or 64)."""
    try:
        report = _ENTRY_POINTS[entry](values, k)
    except HeisenmagError:
        return
    assert all(math.isfinite(v) for v in _numbers(report)), (entry, values, k, report)


@pytest.mark.parametrize("fn, args, named", [
    # Python's float ** raises OverflowError on (rho^2 + c^6)^2
    (psi_tilde, (1e26, 0.5, 1.0), "c=1e+26"),
    (psi, (1e26, 0.5, 1.0), "c=1e+26"),
    (solve_dc, (1e26, 1.0), "c=1e+26"),
    (energy_of_c, (1e26, 1.0), "c=1e+26"),
    (psi_tilde, (2.0, 0.5, 1e154), "rho=1e+154"),
    (psi, (2.0, 0.5, 1e154), "rho=1e+154"),
    (solve_dc, (2.0, 1e154), "rho=1e+154"),
    (energy_of_c, (2.0, 1e154), "rho=1e+154"),
    # rho^2 overflows to inf, so S^2 evaluates inf - inf to NaN
    (psi_tilde, (2.0, 0.5, 1.5e154), "rho=1.5e+154"),
    (solve_dc, (2.0, 1e160), "rho=1e+160"),
    # S^2 underflows to 0, and c^2 in psi to 0
    (psi_tilde, (1e-60, 0.5, 0.0), "c=1e-60"),
    (psi, (1e-170, 0.5, 1.0), "c=1e-170"),
    # the chart energy: NaN, OverflowError, inf and a division by zero
    (energy_cde, (1e77, 0.5, 1.0), "c=1e+77"),
    (energy_cde, (1.2e77, 0.5, 1.0), "c=1.2e+77"),
    (energy_cde, (2.0, 0.5, 1.4e154), "rho=1.4e+154"),
    (energy_cde, (0.0, 0.5, 1.0), "c=0.0"),
    # off the chart: c <= 0, d outside (0, 1)
    (energy_cde, (-2.0, 0.5, 1.0), "c=-2.0"),
    (energy_cde, (2.0, 0.0, 1.0), "d=0.0"),
    (energy_cde, (2.0, 1.5, 1.0), "d=1.5"),
], ids=lambda v: getattr(v, "__name__", None))
def test_chart_functions_name_out_of_range_input(fn, args, named):
    with pytest.raises(DomainError) as info:
        fn(*args)
    assert named in str(info.value)


_REFUSALS = {
    # non-finite input reaches no formula
    "chart-nan-c": (lambda: CdeCoordinates(math.nan, 0.5, 0.0, 1.0), "c must be finite"),
    "chart-inf-rho": (lambda: CdeCoordinates(2.0, 0.5, 0.0, math.inf), "rho must be finite"),
    "exact-nan-energy": (lambda: exact_periodic_family(math.nan, 2.0), "energy must be finite"),
    "exact-inf-rho": (lambda: exact_periodic_family(1.0, math.inf), "rho must be finite"),
    "snap-nan-x": (lambda: GammaLattice(1).snap(HeisenbergPoint(math.nan, 0.0, 0.0)),
                   "x must be finite"),
    "snap-nan-z": (lambda: GammaLattice(1).snap(HeisenbergPoint(0.0, 0.0, math.nan)),
                   "z must be finite"),
    "member-inf-y": (lambda: GammaLattice(1).is_member(HeisenbergPoint(0.0, math.inf, 0.0)),
                     "y must be finite"),
    "states-shape": (lambda: euler_lagrange_residual(
        LorentzForce(0, 1, 1), np.linspace(0.0, 1.0, 6), np.zeros((6, 5))), "shape (6, 5)"),
    # off the chart, and a basis that is no 2x2 matrix
    "chart-c": (lambda: CdeCoordinates(0.0, 0.5, 0.0, 1.0), "c=0.0"),
    "chart-d": (lambda: CdeCoordinates(2.0, 1.0, 0.0, 1.0), "d=1.0"),
    "chart-e": (lambda: CdeCoordinates(2.0, 0.5, -1.5, 1.0), "got -1.5"),
    "basis-shape": (lambda: lattice_obstruction_check([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), "2x2"),
    # the chart's data: off the chart, a clamped e, and terms that divide by
    # zero (c, or c^2 underflowing) or overflow (c^3)
    "cde-c-zero": (lambda: initial_from_cde(0.0, 0.5, 0.0, 1.0), "c=0.0"),
    "cde-c-underflow": (lambda: initial_from_cde(1e-200, 0.5, 0.0, 1.0), "c=1e-200"),
    "cde-c-overflow": (lambda: initial_from_cde(1e103, 0.5, 0.0, 1.0), "c=1e+103"),
    "cde-d-above": (lambda: initial_from_cde(2.0, 2.0, 0.0, 1.0), "d=2.0"),
    "cde-d-negative": (lambda: initial_from_cde(2.0, -0.5, 0.0, 1.0), "d=-0.5"),
    "cde-e": (lambda: initial_from_cde(2.0, 0.5, 5.0, 1.0), "got 5.0"),
    # a time that is no number, or infinite, reaches no closed form
    "neg-nan-t": (lambda: make_solution(InitialData(1.0, 0.5, 0.2, 1.0)).x(math.nan),
                  "t must be finite, got nan"),
    "neg-inf-t": (lambda: make_solution(InitialData(1.0, 0.5, 0.2, 1.0)).x(math.inf),
                  "t must be finite, got inf"),
    "pos-low-inf-t": (lambda: make_solution(InitialData(0.2, -2.75, -2, 1)).x(-math.inf),
                      "t must be finite, got -inf"),
    "pos-high-nan-t": (lambda: make_solution(InitialData(0.3, -4, -1, 1)).point(math.nan),
                       "t must be finite"),
    "mu-pos-inf-t": (lambda: make_solution(InitialData(2.0, -1.25, 1.5, 0.5)).x(math.inf),
                     "t must be finite"),
    "saddle-inf-t": (lambda: make_solution(InitialData(0, 7, 1, 4)).x(math.inf),
                     "t must be finite"),
    "cusp-nan-t": (lambda: make_solution(InitialData(2.0, -2.0, 0.0, 1.0)).velocity(math.nan),
                   "t must be finite"),
    "trivial-inf-t": (lambda: make_solution(InitialData(0, 0, 0, 1)).point(math.inf),
                      "t must be finite"),
    "evaluate-nan-t": (lambda: make_solution(InitialData(-1.0, 0.5, 0.2, 1.0)).evaluate(
        [0.0, math.nan]), "t must be finite"),
    "exact-point-inf-t": (lambda: ExactTrajectory(InitialData(0.5, 0.3, 0.2, 1.0)).point(math.inf),
                          "t must be finite"),
    "exact-subgroup-nan-t": (
        lambda: ExactTrajectory(InitialData(0.5, 0.3, -1.0, 1.0)).velocity(math.nan),
        "t must be finite"),
    # rho^2 overflows: z0, radius_sq and the period come out inf, -inf and 0
    "exact-rho-overflow": (lambda: exact_periodic_family(1.0, 1e200), "rho=1e+200"),
    "exact-negative-rho-overflow": (lambda: exact_periodic_family(1.0, -1e200), "rho=-1e+200"),
    # refusals no other test reaches: a branch with no representative, k = 0
    # for Legendre's relation, a stencil short of samples, the chart's x0 < 0
    # half and the Delta = 0 closed forms off that stratum
    "representative-trivial": (lambda: acceptance.representative_data(Branch.TRIVIAL),
                               "no representative"),
    "legendre-k-zero": (lambda: legendre_relation_defect(0.0), "0 < k < 1"),
    "stencil-four-samples": (lambda: euler_lagrange_residual(
        LorentzForce(0, 1, 1), np.linspace(0.0, 1.0, 4), np.zeros((4, 6))), "at least 5"),
    "chart-negative-x0": (lambda: cde_from_initial(InitialData(-1.0, 0.5, 0.2, 1.0)), "x0 >= 0"),
    "mu-r-off-stratum": (lambda: mu_r_closed_forms(build_profile(InitialData(1.0, 0.5, 0.2, 1.0))),
                         "Delta = 0"),
    # a non-finite argument to the AGM kernel, and a basis that is no numeric matrix
    "descend-nan": (lambda: AGM(0.5).descend(math.nan), "u must be finite, got nan"),
    "agm-f-inf": (lambda: AGM(0.5).F(math.inf), "phi must be finite, got inf"),
    "jacobi-inf": (lambda: jacobi_sn_cn_dn(math.inf, 0.5), "u must be finite, got inf"),
    "ellip-f-nan": (lambda: ellip_f(math.nan, 0.5), "phi must be finite, got nan"),
    "basis-not-numeric": (lambda: lattice_obstruction_check([["a", 1], [0, 1]]), "2x2"),
    "basis-ragged": (lambda: lattice_obstruction_check([[1, 2], [3]]), "2x2"),
    # a finite time past the float range: each branch's own failure before the
    # curve refused it (a raw OverflowError or ValueError, or NaN rows)
    "neg-floor-overflow": (lambda: make_solution(InitialData(1.0, 0.5, 0.2, 1.0)).x(1.7e308),
                           "float range at t = 1.7e+308"),
    "mu-pos-past-range": (lambda: make_solution(InitialData(2.0, -1.25, 1.5, 0.5)).x(1.7e308),
                          "float range at t = 1.7e+308"),
    "cusp-power-overflow": (lambda: make_solution(InitialData(2.0, -2.0, 0.0, 1.0)).x(1.7e308),
                            "float range at t = 1.7e+308"),
    "pos-nan-rows": (lambda: make_solution(InitialData(0.2, -2.75, -2.0, 1.0)).point(-1.7e308),
                     "float range at t = -1.7e+308"),
    "saddle-nan-rows": (lambda: make_solution(InitialData(0, 7, 1, 4)).point(-1.7e308),
                        "float range at t = -1.7e+308"),
    "evaluate-past-range": (lambda: make_solution(InitialData(1.0, 0.5, 0.2, 1.0)).evaluate(
        [0.0, 1.0, 1.7e308, -1.7e308]), "float range at t = 1.7e+308"),
    "exact-angle-overflow": (lambda: ExactTrajectory(InitialData(0.5, 0.3, 0.2, 1.0)).point(
        1.7e308), "float range at t = 1.7e+308"),
    "exact-subgroup-overflow": (lambda: ExactTrajectory(InitialData(0.5, 2.0, -1.0, 1.0)).point(
        1.7e308), "float range at t = 1.7e+308"),
    "translate-overflow": (lambda: TranslatedTrajectory(
        HeisenbergPoint(1e300, 1e300, 0.0), make_solution(InitialData(1.0, 0.5, 0.2, 1.0))).point(
        1e10), "float range at t = 10000000000.0"),
    # times that do not broadcast against a stack's (B, 1) columns
    "stack-shape": (lambda: evaluate_stacked([make_solution(InitialData(1.0, 0.5, 0.2, 1.0))] * 2,
                                             np.zeros((3, 4))), "(3, 4)"),
    # an int that no float holds is refused as not finite, by its field's name
    "lattice-int-past-float-range": (lambda: LatticeElement(10**400, 0, 0), "x1 must be finite"),
    "data-int-past-float-range": (lambda: InitialData(10**400, 0, 0, 1), "x0 must be finite"),
    # np.isfinite(1j) holds: a complex value is refused by name, not by a later TypeError
    "data-complex": (lambda: InitialData(1j, 0, 0, 1), "x0 must be real, got 1j"),
    "force-complex": (lambda: LorentzForce(1j, 0, 1), "alpha must be real, got 1j"),
    # Delta = 0 band data whose closed-form constant misses its range by more than the clamp band
    "saddle-cosh-below-one": (lambda: make_solution(InitialData(
        1.6601860885180734e-10, 7.000000013924143, 1.000000000078854, 4.0)), "falls below 1"),
    "cusp-negative-argument": (lambda: make_solution(InitialData(
        2.898146891953675e-10, 2.0000000014505255, 2.0000000011522077, 1.0)), "is negative"),
    # x0 = 1e-8 is past is_trivial's band, and x0^2 too small to move the quartic off the cusp
    "cusp-on-triple-root": (lambda: make_solution(InitialData(1e-8, -2, -2, 1)),
                            "sits on the triple root"),
    # S^2 = c^12 is subnormal, so S keeps few digits
    "psi-modulus": (lambda: psi_tilde(4.6e-27, 1e-10, 0.0), "modulus squared"),
    "lambda-negative-rho": (lambda: find_lambda_periodic(LatticeElement(0.0, 1.0, 0.5), 1.0, -1.0),
                            "rho >= 0"),
}


@pytest.mark.parametrize("case", sorted(_REFUSALS))
def test_bad_input_is_refused_by_name(case):
    call, named = _REFUSALS[case]
    with pytest.raises(DomainError) as info:
        call()
    assert named in str(info.value)


_UNCONVERGED = {
    "lambda-no-window": (lambda: find_lambda_periodic(LatticeElement(0.0, 1.0, 0.5), 1e3, 1.0),
                         "could not open a Psi window"),
    "lambda-residual": (lambda: find_lambda_periodic(LatticeElement(0.0, 1e5, 0.5), 1.0, 1.0),
                        "misses lambda-periodicity"),
    # lambda^2 = (0, 1, 0.6) is no member of Gamma_1 either
    "no-lattice-recurrence": (lambda: primitive_period(find_lambda_periodic(
        LatticeElement(0.0, 0.5, 0.3), 1.0, 1.0), GammaLattice(1)), "no lattice recurrence"),
}


@pytest.mark.parametrize("case", sorted(_UNCONVERGED))
def test_failed_construction_is_refused_by_name(case):
    call, named = _UNCONVERGED[case]
    with pytest.raises(ConvergenceError) as info:
        call()
    assert named in str(info.value)


class TestRandomCrossValidation:
    def test_random_periodic_branches_track_oracle(self):
        rng = np.random.default_rng(99)
        counts = {Branch.NEG: 0, Branch.POS_LOW: 0, Branch.POS_HIGH: 0}
        tries = 0
        while min(counts.values()) < 8 and tries < 2000:
            tries += 1
            data = InitialData(
                abs(rng.normal(0, 1.2)),
                rng.normal(0, 1.5),
                rng.normal(0, 1.5),
                abs(rng.normal(0, 1.2)),
            )
            branch = build_profile(data).branch
            if branch not in counts or counts[branch] >= 8:
                continue
            sol = make_solution(data)
            omega = sol.x_period
            if omega is None or omega > 60.0:
                continue
            ts = np.linspace(0.0, 2 * omega, 41)
            rows = integrate_general(
                LorentzForce(0, 1, data.rho), StateVector.from_initial_data(data), ts
            )
            for (px, py, pz), s in zip(sol.sample(ts), rows):
                assert max(abs(px - s[0]), abs(py - s[1]), abs(pz - s[2])) < 1e-6
            counts[branch] += 1
        assert min(counts.values()) >= 8

    def test_random_reflections_track_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(6):
            data = InitialData(
                -abs(rng.normal(0, 1.0)) - 0.1,
                rng.normal(0, 1.0),
                rng.normal(0, 1.0),
                abs(rng.normal(0, 1.0)),
            )
            refl = make_solution(data)
            ts = np.linspace(0.0, 8.0, 17)
            rows = integrate_general(
                LorentzForce(0, 1, data.rho), StateVector(0, 0, 0, data.x0, data.y0, data.z0), ts
            )
            for t, s in zip(ts, rows):
                p = refl.point(t)
                assert max(abs(p.x - s[0]), abs(p.y - s[1]), abs(p.z - s[2])) < 1e-7


class TestHarmonicBand:
    def test_rho_zero_sweep_builds_or_raises_typed(self):
        # at rho = 0 and large |z0| the Delta = 0 band holds genuine Delta > 0
        # data; each input must build or raise a HeisenmagError
        rng = np.random.default_rng(2000)
        built = 0
        for _ in range(1000):
            data = InitialData(
                rng.uniform(0.0, 3.0), rng.uniform(-3.0, 3.0), rng.uniform(-60.0, 60.0), 0.0
            )
            try:
                sol = make_solution(data)
            except HeisenmagError:
                continue
            assert abs(sol.x(0.0)) <= 1e-8 * data.scale()
            built += 1
        assert built > 0


class TestYFolding:
    @pytest.mark.parametrize(
        "branch", [b for b in Branch if b is not Branch.TRIVIAL], ids=lambda b: b.value
    )
    def test_negative_and_large_times(self, branch):
        data = acceptance.representative_data(branch)
        sol = make_solution(data)
        assert sol.profile.branch is branch

        def y_prime(s):
            x = sol.x(s)
            return 0.5 * x * x + data.zr * x + data.y0

        for t in (-7.3, -50.0, 123.456):
            direct, _ = quad(y_prime, 0.0, t, epsabs=1e-12, epsrel=1e-12, limit=2000)
            assert abs(sol.point(t).y - direct) < 1e-7 * max(1.0, abs(t))


class TestHarmonicForce:
    # rho = 0 (harmonic class) runs through the whole periodicity lab
    def test_build_periodic(self):
        _, rep = build_periodic(2.0, 0.3, rho=0.0)
        assert max(rep["closure_x"], rep["closure_y"], rep["closure_z"]) < 1e-7
        assert rep["energy_error"] < 1e-9

    def test_lambda_search(self):
        res = find_lambda_periodic(LatticeElement(0, 1.0, 0.5), 1.0, 0.0)
        assert res.residual < 1e-7

    def test_solve_dc_near_one(self):
        d = solve_dc(1.0 + 1e-6, 0.7)
        assert 0.0 < d < 0.01


class TestPowerConstruction:
    def test_large_y1_uses_higher_power(self):
        res = find_lambda_periodic(LatticeElement(0, 50.0, 0.5), 1.0, 1.0)
        assert res.n > 1
        assert res.residual < 1e-7
        lam0, omega0 = primitive_period(res, GammaLattice(1))
        assert (lam0.y1, lam0.z1) == (50.0, 0.5)
        assert abs(omega0 - res.n * res.base_period) < 1e-9


class TestJacobiAmplitude:
    def test_am_quasi_periodicity(self):
        agm = AGM(0.6)
        period = 4.0 * agm.K

        def am(u):
            phi, turns, _ = agm.descend(u)
            return phi + 2 * np.pi * turns

        for u in (-3.0, 0.7, 11.0):
            assert abs(am(u + period) - am(u) - 2 * np.pi) < 1e-11


class TestCLIOutputFile:
    def test_sample_writes_file(self, tmp_path):
        from heisenmag.cli import main

        path = tmp_path / "curve.csv"
        code = main(
            [
                "sample", "--x0", "1", "--y0", "0", "--z0", "0", "--rho", "1",
                "--t-max", "1", "--dt", "0.5", "--output", str(path),
            ]
        )
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "t,x,y,z,energy_residual"
        assert len(lines) == 4

    def test_unwritable_path_is_domain_error(self):
        from heisenmag.cli import main

        code = main(
            [
                "sample", "--x0", "1", "--y0", "0", "--z0", "0", "--rho", "1",
                "--t-max", "1", "--dt", "0.5",
                "--output", "/nonexistent-dir/curve.csv",
            ]
        )
        assert code == 1
