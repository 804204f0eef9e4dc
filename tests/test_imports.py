"""numpy is the library's only runtime dependency: scipy is a test-time
reference.  No module imports scipy.optimize, only the `trajectory.quad`
shim that perfbench reads imports scipy at all, and the user paths
(construction, evaluation, the periodic solvers, complete Pi and the CLI's
sample, periodic, lattice, verify and elliptic) load no scipy module."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_SRC = _ROOT / "src" / "heisenmag"


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


def test_only_the_perfbench_shim_imports_scipy():
    scipy_users = {
        p.name: sorted(n for n in _imported(p.read_text(encoding="utf-8"))
                       if n == "scipy" or n.startswith("scipy."))
        for p in sorted(_SRC.glob("*.py"))
    }
    assert {name: ns for name, ns in scipy_users.items() if ns} == {
        "trajectory.py": ["scipy.integrate", "scipy.integrate.quad"]
    }


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    project = tomllib.loads((_ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert project["dependencies"] == ["numpy>=1.24"]
    assert "scipy>=1.10" in project["optional-dependencies"]["test"]


# Runs in a fresh interpreter and prints the scipy modules loaded after the
# user paths, complete Pi and the CLI's verify and elliptic, then after an
# explicit scipy import, which the probe must see.
_USER_PATHS = """
import contextlib, io, json, sys
import numpy as np
import heisenmag
from heisenmag import cli, elliptic
from heisenmag.acceptance import representative_data
from heisenmag.errors import HeisenmagError
from heisenmag.periodic import LatticeElement, build_periodic, find_lambda_periodic
from heisenmag.quartic import Branch, InitialData
from heisenmag.trajectory import make_solution

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

ts = np.linspace(0.0, 10.0, 11)
for branch in Branch:
    if branch is not Branch.TRIVIAL:
        make_solution(representative_data(branch)).evaluate(ts)
# each coordinate 0 with probability 0.1, else +-10^U[-6, 6]; rho >= 0
rng = np.random.default_rng(0)
built = 0
for _ in range(400):
    v = [0.0 if rng.uniform() < 0.1 else 10.0 ** rng.uniform(-6.0, 6.0) for _ in range(4)]
    s = rng.choice([-1.0, 1.0], 3)
    try:
        make_solution(InitialData(v[0] * s[0], v[1] * s[1], v[2] * s[2], v[3])).evaluate(ts)
    except HeisenmagError:
        continue
    built += 1
build_periodic(1.0, 0.5, 1.0)
find_lambda_periodic(LatticeElement(0.0, 1.0, 0.5), 1.0, 1.0)
elliptic.complete_Pi(-0.5, 0.5)
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (
        ["sample", "--x0", "1", "--y0", "0.5", "--z0", "0.2", "--rho", "1",
         "--t-max", "2", "--dt", "0.5"],
        ["periodic", "--rho", "1", "--energy", "1", "--e", "0.5"],
        ["lattice", "--k", "1", "--lambda", "1,0.5", "--energy", "1"],
        ["verify", "--suite", "all"],
    ):
        codes.append(cli.main(argv))
user = scipy_modules()
import scipy.integrate
print(json.dumps({"built": built, "codes": codes, "user": user, "control": scipy_modules()}))
"""


def test_user_paths_load_no_scipy():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(_SRC.parent), os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", _USER_PATHS], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    out = json.loads(run.stdout)
    assert out["built"] > 100
    assert out["codes"] == [0, 0, 0, 0]
    assert out["user"] == []
    # the probe sees scipy once something imports it
    assert "scipy.integrate" in out["control"]
