"""Checks on the library source itself."""

from __future__ import annotations

import ast
from pathlib import Path

import splicerank

PACKAGE = Path(splicerank.__file__).parent


def test_library_has_no_assert_statements():
    # python -O strips assert, so a check made with one vanishes in that mode
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(list(PACKAGE.glob("*.py"))) > 5
    assert found == []


def test_library_imports_only_at_module_top():
    # an import inside a function hides a dependency (or an import cycle)
    # from the module header
    found = [
        f"{path.name}:{inner.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for inner in ast.walk(node)
        if isinstance(inner, (ast.Import, ast.ImportFrom))
    ]
    assert found == []


def test_trusted_constructor_is_private_to_gf2():
    # Gf2Matrix._trusted skips the range check; only gf2's own operations,
    # whose results are in range by construction, may build with it
    assert "_trusted" in (PACKAGE / "gf2.py").read_text()
    found = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "gf2.py" and "_trusted" in path.read_text()
    ]
    assert found == []
