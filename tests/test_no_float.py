"""The package's numeric paths stay exact: no floating point in its source."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).parent.parent / "src" / "bettistab").glob("*.py"))


def _float_uses(source: str) -> list:
    """(line, what) for every float constant and every call to `float`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append((node.lineno, f"float constant {node.value!r}"))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "float"
        ):
            found.append((node.lineno, "call to float"))
    return found


def test_guard_detects_floats():
    assert _float_uses("x = 0.5\ny = float(x)\nz = 1e3\n") == [
        (1, "float constant 0.5"),
        (2, "call to float"),
        (3, "float constant 1000.0"),
    ]
    assert _float_uses("from fractions import Fraction\nx = Fraction(1, 2)\n") == []


def test_package_source_has_no_floats():
    assert SOURCES, "package source not found"
    found = [
        f"{path.name}:{line}: {what}"
        for path in SOURCES
        for line, what in _float_uses(path.read_text())
    ]
    assert found == []
