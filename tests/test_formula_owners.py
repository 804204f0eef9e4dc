"""The differential of left translation, dL_p v = (vx, vy, vz + (px vy - py vx)/2),
is written out only in `heisenberg` (`translate_velocity`); every other module
calls it there."""

import ast
from pathlib import Path

_SRC = Path(__file__).resolve().parents[1] / "src" / "heisenmag"


def _is_product_of_names(node: ast.AST) -> bool:
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
            and all(isinstance(v, (ast.Name, ast.Attribute)) for v in (node.left, node.right)))


def _hand_written_cross_terms(source: str) -> list[int]:
    """Lines of each 0.5 * (a * b - c * d) with a, b, c, d names or attributes."""
    return sorted(
        n.lineno
        for n in ast.walk(ast.parse(source))
        if isinstance(n, ast.BinOp) and isinstance(n.op, ast.Mult)
        and isinstance(n.left, ast.Constant) and n.left.value == 0.5
        and isinstance(n.right, ast.BinOp) and isinstance(n.right.op, ast.Sub)
        and _is_product_of_names(n.right.left) and _is_product_of_names(n.right.right)
    )


def test_left_translation_is_written_only_in_heisenberg():
    modules = [p for p in sorted(_SRC.glob("*.py")) if p.name != "heisenberg.py"]
    assert len(modules) > 5
    found = {p.name: _hand_written_cross_terms(p.read_text(encoding="utf-8")) for p in modules}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_cross_term_lint_sees_hand_written_copies():
    # names and attributes are flagged; a difference of calls (a Cauchy
    # product's), a bare difference and another factor are not
    source = (
        "w = zp + 0.5 * (x * yp - y * xp)\n"
        "w = zp + 0.5 * (p.x * s.yp - p.y * s.xp)\n"
        "xi = w + 0.5 * (_cauchy(us, ys) - _cauchy(xs, vs))\n"
        "h = 0.5 * (a - b) + 0.25 * (a * b - c * d)\n"
    )
    assert _hand_written_cross_terms(source) == [1, 2]
