"""Checks on the library source itself."""

from __future__ import annotations

import ast
import re
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


def test_every_dataclass_has_a_docstring():
    # dataclasses writes the docstring of a class without one when the class
    # is made, from inspect.signature, which costs time at every import
    decorated = [
        (f"{path.name}:{node.lineno} {node.name}", ast.get_docstring(node))
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ClassDef)
        and any(
            isinstance(d, ast.Name) and d.id == "dataclass"
            or isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "dataclass"
            for d in node.decorator_list
        )
    ]
    assert len(decorated) > 5
    assert [label for label, doc in decorated if not doc] == []


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


def _names_used(tree: ast.AST, skip: frozenset[ast.AST] = frozenset(), members: bool = False) -> set[str]:
    """Every name a module mentions: identifiers, attributes, imported names
    and string constants (a lookup by name, as in getattr); with
    ``members``, only attributes and string constants, the ways a method is
    named.  The nodes in ``skip``, and everything inside them, are not
    read."""
    out = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node in skip:
            continue
        if isinstance(node, ast.Name) and not members:
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias) and not members:
            out.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return out


# Library definitions kept with no caller in src/ or bench/, each for a reason.
PUBLIC_API = {
    "dump_complex": "writes a knot to its JSON file, the inverse of load_complex",
    "mirror": "the mirror knot, the model a user builds to test mirror invariance",
}


def dead_definitions(root: Path, public: set[str]) -> list[str]:
    """The functions, classes and methods of src/splicerank that nothing in
    src/ or bench/ names, but for the names in ``public``; dunder methods are
    called by the language.  A method counts as named only by an attribute
    access or a string, so a local variable of the same name does not keep
    it.  A definition named only inside dead ones is dead too: each round
    drops the bodies of those found so far and looks again, until no more
    are found.  Tests are not callers, so a fixture that only tests use
    shows up here and belongs in tests/."""
    trees = {
        path: ast.parse(path.read_text(), str(path))
        for folder in ("src", "bench")
        for path in sorted((root / folder).rglob("*.py"))
    }
    package = root / "src" / "splicerank"
    defined = [
        (f"{path.name}:{node.lineno} {node.name}", node)
        for path, tree in trees.items()
        if path.parent == package
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]
    methods = {item for tree in trees.values() for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) for item in cls.body}
    dead: dict[str, ast.AST] = {}
    while True:
        skip = frozenset(dead.values())
        used = set(public).union(*(_names_used(tree, skip) for tree in trees.values()))
        members = set(public).union(*(_names_used(tree, skip, members=True) for tree in trees.values()))
        found = {
            label: node
            for label, node in defined
            if node.name not in (members if node in methods else used) and label not in dead
        }
        if not found:
            return sorted(dead)
        dead.update(found)


def test_every_library_definition_has_a_caller():
    root = PACKAGE.parent.parent
    assert dead_definitions(root, set(PUBLIC_API)) == []
    # the list stays short, every entry has a reason, and an entry that has
    # gained a caller leaves it
    assert len(PUBLIC_API) <= 4 and all(PUBLIC_API.values())
    uncalled = {label.rpartition(" ")[2] for label in dead_definitions(root, set())}
    assert set(PUBLIC_API) <= uncalled
    defined = [
        node
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    ]
    assert len(defined) > 100


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


def test_no_module_keeps_a_bounded_memo():
    # a package keeps what is read from it in its own store, and a knot's
    # package lives as long as its complex: no module uses lru_cache, so no
    # memo is keyed on a package's value, and none names a bound for one
    pattern = re.compile(r"lru_cache|PACKAGE_MEMO_SIZE")
    named = [path.name for path in sorted(PACKAGE.glob("*.py")) if pattern.search(path.read_text())]
    assert named == []


def test_the_package_and_splice_modules_read_per_index_values_by_position():
    # a triple's groups, maps and totals and a package's dims, taus, blocks,
    # X products and f maps are tuples in CYCLE order, from the cones to the
    # lemmas; an attribute name built from a string ("blocks" + suffix)
    # hides the read from a search and from the dead-definition check
    found = [
        f"{name}:{node.lineno}"
        for name in ("surgery.py", "duality.py", "filtration.py", "splice.py")
        for node in ast.walk(ast.parse((PACKAGE / name).read_text(), name))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in ("getattr", "attrgetter")
    ]
    assert found == []
