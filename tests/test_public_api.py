"""The public API holds only what the library uses or the paper names: every
`__all__` entry resolves, `heisenmag/__init__` re-exports only `__all__`
names, and every `__all__` name is referenced outside its own definition in
src/ or perfbench/, or is a paper object on the keep-list below."""

import ast
import importlib
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_SRC = _ROOT / "src" / "heisenmag"
_USERS = sorted(_SRC.glob("*.py")) + sorted((_ROOT / "perfbench").glob("*.py"))

# paper objects exported for readers that no library code calls, each with its reason
_KEEP = {
    "IDENTITY": "the identity of H3, through which the paper computes every trajectory",
    "act_on_force": "the action (B, r) . F of the isometries on forces; "
                    "the reference that classify_force's witnesses are checked against",
    "isotropy_member": "the isotropy of a force under that action",
    "j_map": "the map j with <j(Z)U, V> = <Z, [U, V]> that the Lorentz force is built on",
    "coordinate_two_form": "omega_F in coordinates; the reference d(potential_one_form) "
                           "is checked against",
    "lagrangian_value": "the natural Lagrangian that solves the inverse problem on H3",
    "mu_r_closed_forms": "the closed forms of the repeated root r and of mu on Delta = 0",
    "cde_from_initial": "the inverse of the (c, d, e) chart of periodic initial data",
    "primitive_period": "the primitive lattice period (lambda0, omega0) of a closed curve "
                        "on Gamma_k\\H3, its free homotopy class",
}


def _all_of(source: str) -> list[str] | None:
    """The literal `__all__` of a module's source, or None without one."""
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
        ):
            return ast.literal_eval(stmt.value)
    return None


_EXPORTS = {
    p.stem: names
    for p in sorted(_SRC.glob("*.py"))
    if (names := _all_of(p.read_text(encoding="utf-8"))) is not None
}


def _defines(stmt: ast.stmt) -> set[str]:
    """Names a top-level statement binds by def, class or assignment."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return {t.id for t in targets if isinstance(t, ast.Name)}


def _references(source: str) -> set[str]:
    """Names the source reads, each outside the top-level statement that
    defines it: loads of an ast.Name or ast.Attribute, and string constants
    passed to a call, since perfbench's tracer patches functions by attribute
    name.  Comments and docstrings count for nothing."""
    refs = set()
    for stmt in ast.parse(source).body:
        found = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                found.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                found.add(node.attr)
            elif isinstance(node, ast.Call):
                found.update(
                    a.value for a in node.args
                    if isinstance(a, ast.Constant) and isinstance(a.value, str)
                )
        refs |= found - _defines(stmt)
    return refs


def _unreferenced(exports, sources, keep) -> list[str]:
    refs = set().union(*map(_references, sources))
    return sorted(name for name in exports if name not in refs and name not in keep)


def test_every_export_resolves():
    assert len(_EXPORTS) > 5
    missing = [
        f"{mod}.{name}"
        for mod, names in _EXPORTS.items()
        for name in names
        if not hasattr(importlib.import_module(f"heisenmag.{mod}"), name)
    ]
    assert missing == []


def test_package_reexports_only_exports():
    tree = ast.parse((_SRC / "__init__.py").read_text(encoding="utf-8"))
    imported = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert len(imported) > 30
    assert [f"{m}.{n}" for m, n in imported if n not in _EXPORTS.get(m, [])] == []


def test_every_export_has_a_caller_or_a_reason():
    exported = [name for names in _EXPORTS.values() for name in names]
    sources = [p.read_text(encoding="utf-8") for p in _USERS]
    assert _unreferenced(exported, sources, _KEEP) == []
    # the keep-list holds only exports that no code references
    stale = set(_KEEP) - set(_unreferenced(exported, sources, {}))
    assert sorted(stale) == []


def test_reference_lint_flags_an_unreferenced_name():
    # recursion, __all__, a docstring and a comment are no callers; a call,
    # an attribute read and a name patched by string are
    source = (
        '"""Mentions unused and its comment below."""\n'
        "def unused(n):\n    return unused(n - 1)  # unused\n"
        "def called():\n    pass\n"
        "def caller(m):\n    return called() + m.read + patch(m, 'patched')\n"
        "__all__ = ['unused', 'called', 'read', 'patched', 'kept']\n"
    )
    exports = ["unused", "called", "read", "patched", "kept"]
    assert _unreferenced(exports, [source], {"kept": "a paper object"}) == ["unused"]
