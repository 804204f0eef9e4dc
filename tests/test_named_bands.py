"""Every tolerance band in the library is a named module constant, and the
keyword knobs that no caller set stay retired."""

import ast
import inspect
from pathlib import Path

import pytest

from heisenmag import heisenberg, oracle, periodic

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


def test_full_system_oracle_takes_only_the_times():
    # its step tolerance is a module constant; no config object or sample count
    assert list(inspect.signature(oracle.integrate_general).parameters) == ["force", "s0", "ts"]
