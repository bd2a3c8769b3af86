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


def _names_used(tree: ast.AST) -> set[str]:
    """Every name a module mentions outside a def: identifiers, attributes,
    imported names and string constants (a lookup by name, as in getattr)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def test_every_library_definition_has_a_caller():
    # a function, class or method nothing names is dead code; dunder methods
    # are called by the language
    root = PACKAGE.parent.parent
    used = set()
    for folder in ("src", "tests", "bench"):
        for path in sorted((root / folder).rglob("*.py")):
            used |= _names_used(ast.parse(path.read_text(), str(path)))
    defined = [
        f"{path.name}:{node.lineno} {node.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]
    assert len(defined) > 100
    assert [d for d in defined if d.rpartition(" ")[2] not in used] == []


def test_no_unused_module_imports():
    # a module-level import that nothing in the module names is dead weight
    # in its header; __future__ imports switch behaviour and name nothing
    paths = sorted(PACKAGE.glob("*.py")) + sorted(Path(__file__).parent.glob("*.py"))
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).partition(".")[0]
                    if name not in used:
                        found.append(f"{path.name}:{node.lineno} {name}")
    assert len(paths) > 15
    assert found == []


def test_a_complex_is_validated_only_when_it_is_built():
    # model._violations is named once, in BifilteredComplex.__post_init__:
    # a complex is valid by construction, so no later stage validates
    model = ast.parse((PACKAGE / "model.py").read_text())
    cls = next(n for n in model.body if isinstance(n, ast.ClassDef) and n.name == "BifilteredComplex")
    post_init = next(n for n in cls.body if isinstance(n, ast.FunctionDef) and n.name == "__post_init__")
    assert any(isinstance(n, ast.FunctionDef) and n.name == "_violations" for n in model.body)
    mentions = [
        (path.name, node.lineno)
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if "_violations" in (getattr(node, "id", None), getattr(node, "attr", None))
    ]
    assert len(mentions) == 1
    (name, line), = mentions
    assert name == "model.py" and post_init.lineno <= line <= post_init.end_lineno
    # nor does the library keep any of the checks that ran after construction
    used = set().union(*(_names_used(ast.parse(p.read_text())) for p in PACKAGE.glob("*.py")))
    assert used.isdisjoint({"validate", "require_valid", "valid_lookup", "ValidationReport"})
