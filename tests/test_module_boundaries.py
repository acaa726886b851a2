"""Modules of the package use only each other's public names.

A private name (leading underscore) stays behind the module that defines
it: the echelon format, for one, is known only to `exact_arith`.  And the
package, imported in a fresh interpreter, loads no standard-library module
that it does not need at run time.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).parent.parent / "src"
SOURCES = sorted((SRC / "bettistab").glob("*.py"))


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


# Import each stdlib module the package uses, then the package: whatever the
# package adds beyond that baseline is its own doing, on any Python version.
IMPORT_PROBE = """
import sys
import argparse, fractions, functools, itertools, json, math, operator, re
before = set(sys.modules)
import bettistab, bettistab.cli
print(bettistab.__file__)
print(" ".join(sorted({"dataclasses", "typing"} & (set(sys.modules) - before))))
"""


def test_importing_the_package_loads_neither_dataclasses_nor_typing():
    # each costs every betti-stab process milliseconds before it does any work
    probe = subprocess.run(
        [sys.executable, "-S", "-c", IMPORT_PROBE],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )
    location, added = probe.stdout.split("\n")[:2]
    assert Path(location).resolve().parent == (SRC / "bettistab").resolve()
    assert added == ""
