"""The library imports no root finder: scipy.optimize is a test-time
reference only."""

import ast
from pathlib import Path

_SRC = Path(__file__).resolve().parents[1] / "src" / "heisenmag"


def _imported(source: str) -> set[str]:
    """Absolute module names an import statement in the source can bind."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


def _imports_optimize(source: str) -> bool:
    return any(n == "scipy.optimize" or n.startswith("scipy.optimize.") for n in _imported(source))


def test_no_module_imports_scipy_optimize():
    modules = sorted(_SRC.glob("*.py"))
    assert len(modules) > 5
    assert [p.name for p in modules if _imports_optimize(p.read_text(encoding="utf-8"))] == []


def test_optimize_lint_sees_every_import_form():
    for source in (
        "from scipy.optimize import brentq\n",
        "import scipy.optimize as so\n",
        "from scipy import optimize\n",
        "def f():\n    from scipy.optimize._zeros_py import brentq\n",
    ):
        assert _imports_optimize(source), source
    assert not _imports_optimize("from scipy.special import elliprf\nfrom . import optimize\n")
