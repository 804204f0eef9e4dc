"""Every tolerance band in the library is a named module constant, and the
keyword knobs that no caller set and the aliases of a surviving path stay
retired."""

import ast
import inspect
from pathlib import Path

import pytest

from heisenmag import _ops, acceptance, cli, heisenberg, oracle, periodic, quartic
from heisenmag.quartic import InitialData
from heisenmag.trajectory import ExactTrajectory, make_solution

_SRC = Path(__file__).resolve().parents[1] / "src" / "heisenmag"


def _bare_tolerances(source: str) -> list[tuple[int, float]]:
    """(line, value) of each float constant with 0 < |v| < 1e-3 that is not
    part of a module-level or class-level assignment."""
    tree = ast.parse(source)
    named = set()
    for node in tree.body:
        for stmt in node.body if isinstance(node, ast.ClassDef) else [node]:
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                named.update(map(id, ast.walk(stmt)))
    return sorted(
        (n.lineno, n.value)
        for n in ast.walk(tree)
        if isinstance(n, ast.Constant) and isinstance(n.value, float)
        and 0.0 < abs(n.value) < 1e-3 and id(n) not in named
    )


def test_every_tolerance_is_a_named_constant():
    modules = sorted(_SRC.glob("*.py"))
    assert len(modules) > 5
    bare = {p.name: _bare_tolerances(p.read_text(encoding="utf-8")) for p in modules}
    assert {name: lits for name, lits in bare.items() if lits} == {}


def test_bare_tolerance_lint_sees_literals():
    # a default and a negative literal in a body are bare; 2e-3 is above
    # the cut, and module-level and class-level assignments are named
    source = (
        "A = 1e-9\n"
        "class C:\n    b: float = 1e-12\n"
        "def f(x, tol=1e-6):\n    return x > -1e-4 and x < 2e-3\n"
    )
    assert _bare_tolerances(source) == [(4, 1e-6), (5, 1e-4)]


_RETIRED_KEYWORDS = [
    (heisenberg.classify_force, "tol"),
    (oracle.fd_second_derivative, "h"),
    (oracle.reduced_ode_residual, "h"),
    (periodic.lambda_periodic_residual, "n_grid"),
    (periodic.primitive_period, "tol"),
    (periodic.primitive_period, "max_multiple"),
    (periodic.psi, "e"),
    (periodic.find_lambda_periodic, "e"),
]


@pytest.mark.parametrize(
    ("fn", "name"), _RETIRED_KEYWORDS, ids=[f"{f.__name__}-{n}" for f, n in _RETIRED_KEYWORDS]
)
def test_retired_keyword_is_gone(fn, name):
    assert name not in inspect.signature(fn).parameters


def test_retired_functions_are_gone():
    # they carried retired keywords, and had no caller outside their tests
    for name in ("lambda_periodic_test", "equienergy_conjugacy"):
        assert not hasattr(periodic, name)


def test_acceptance_gates_are_constants():
    # no multiplier scales a gate, and check_branch's record carries criterion 1's verdict
    for name in ("tolerance_scale", "closed_form_passed"):
        assert not hasattr(acceptance, name) and name not in acceptance.__all__
    assert [n for n, fn in acceptance.CRITERIA.items()
            if "tol" in inspect.signature(fn).parameters] == []


def test_retired_aliases_are_gone(capsys):
    # each did a job that a surviving path does: point and evaluate, the
    # solution's f_over_period, initial_from_cde and energy_cde, data.zr,
    # verify --suite elliptic, select with one condition and (the exact
    # family's period) horizontal_period; and GammaLattice.reduce had no caller
    data = InitialData(1.0, 0.5, 0.2, 1.0)
    retired = [
        (make_solution(data), ("y", "z", "_closed")),
        (periodic.cde_from_initial(data), ("initial_data", "energy")),
        (ExactTrajectory(data), ("turn_rate",)),
        (_ops.SCALAR, ("branch",)),
        (_ops.ARRAY, ("branch",)),
        (periodic.exact_periodic_family(1.0, 2.0), ("period",)),
        (periodic.GammaLattice(1), ("reduce",)),
    ]
    assert [(type(o).__name__, n) for o, names in retired for n in names if hasattr(o, n)] == []
    assert cli.main(["elliptic", "--check"]) == cli.EXIT_USAGE == 64
    assert "invalid choice: 'elliptic'" in capsys.readouterr().err
    # quartic_roots passes _coefficient_scale itself, as build_profile does
    scale = inspect.signature(quartic._descartes_factors).parameters["scale"]
    assert scale.default is inspect.Parameter.empty


def test_full_system_oracle_takes_only_the_times():
    # its step tolerance is a module constant; no config object or sample count
    assert list(inspect.signature(oracle.integrate_general).parameters) == ["force", "s0", "ts"]


def test_csv_chunk_size_is_a_named_constant():
    # export_samples reads its chunk size off the module, with no bare count
    assert isinstance(cli._CSV_CHUNK_ROWS, int) and cli._CSV_CHUNK_ROWS > 1
    tree = ast.parse(inspect.getsource(cli.export_samples))
    counts = [n.value for n in ast.walk(tree) if isinstance(n, ast.Constant)
              and type(n.value) is int and n.value > 1]
    assert counts == []
    assert "_CSV_CHUNK_ROWS" in {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
