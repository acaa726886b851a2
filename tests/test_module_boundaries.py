"""Modules of the package use only each other's public names.

A private name (leading underscore) stays behind the module that defines
it: the echelon format, for one, is known only to `exact_arith`.
"""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).parent.parent / "src" / "bettistab").glob("*.py"))


def _private_imports(source: str) -> list:
    """(line, name) for every underscore name imported from a sibling module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        sibling = node.level > 0 or (node.module or "").split(".")[0] == "bettistab"
        if sibling:
            found += [(node.lineno, a.name) for a in node.names if a.name.startswith("_")]
    return found


def test_guard_detects_private_imports():
    source = (
        "from __future__ import annotations\n"
        "from .exact_arith import _pivot_rows, matrix_rank\n"
        "from bettistab.diagram import _parse_label\n"
        "from fractions import _gcd\n"
    )
    assert _private_imports(source) == [(2, "_pivot_rows"), (3, "_parse_label")]


def test_no_module_imports_a_private_sibling_name():
    assert SOURCES, "package source not found"
    found = [
        f"{path.name}:{line}: {name}"
        for path in SOURCES
        for line, name in _private_imports(path.read_text())
    ]
    assert found == []
