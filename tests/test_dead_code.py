"""Nothing is kept in ``src/tautilt`` that nothing calls: every module-level
function or class is referenced from package code other than its own
definition, or is exported in ``tautilt.__all__``; every method is
referenced by name from package code other than its own body, or is in
PUBLIC_METHODS.  Docstrings and imports are not references; dunders are
exempt.  Every memo table that ``ModuleRegistry.__init__`` declares is
named by a ``memo("...")`` call or a ``_tables["..."]`` read."""

import ast
from pathlib import Path

import tautilt

SRC = Path(tautilt.__file__).parent
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

# Methods that no package code calls but that are public API: the order
# helpers of the poset, which README and the acceptance tests read.
PUBLIC_METHODS = {
    "HassePoset.successors",
    "HassePoset.covering_edges_from_order",
    "HassePoset.is_connected_from_top",
    "HassePoset.maxima",
    "HassePoset.minima",
}


def _references(node) -> set[str]:
    """Names and attribute names that ``node`` reads."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def _parts(stmt) -> list:
    """(method name or None, node) pairs that cover a top-level statement:
    each method of a class on its own, everything else as it is."""
    if not isinstance(stmt, ast.ClassDef):
        return [(None, stmt)]
    methods = [s for s in stmt.body if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef))]
    rest = [n for n in [*stmt.decorator_list, *stmt.bases, *stmt.keywords, *stmt.body]
            if not any(n is m for m in methods)]
    return [(m.name, m) for m in methods] + [(None, n) for n in rest]


def unreferenced_definitions() -> list[str]:
    defined = []  # (module, top-level name, method name or None)
    readers = {}  # name -> the (module, top-level name, method) parts that read it
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        for stmt in ast.parse(path.read_text()).body:
            top = stmt.name if isinstance(stmt, DEFINITIONS) else None
            if top is not None:
                defined.append((module, top, None))
            for method, node in _parts(stmt):
                if method is not None:
                    defined.append((module, top, method))
                for name in _references(node):
                    readers.setdefault(name, set()).add((module, top, method))

    def is_own(reader, module, top, method):
        return reader[:2] == (module, top) and method in (None, reader[2])

    exported = set(tautilt.__all__)
    unused = []
    for module, top, method in defined:
        name = method or top
        if name.startswith("__") and name.endswith("__"):
            continue
        if (name in exported) if method is None else (f"{top}.{method}" in PUBLIC_METHODS):
            continue
        if all(is_own(r, module, top, method) for r in readers.get(name, ())):
            unused.append(".".join(filter(None, (module, top, method))))
    return sorted(unused)


def test_every_definition_is_used_or_exported():
    assert unreferenced_definitions() == []



def declared_tables() -> set[str]:
    """The table names in the tuple that ``ModuleRegistry.__init__`` builds
    its ``_tables`` from."""
    tree = ast.parse((SRC / "modules.py").read_text())
    (registry,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "ModuleRegistry"]
    (init,) = [n for n in registry.body if isinstance(n, ast.FunctionDef) and n.name == "__init__"]
    (tables,) = [
        n.value for n in ast.walk(init)
        if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Attribute)
        and n.target.attr == "_tables"
    ]
    (names,) = [g.iter for g in tables.generators]
    return {c.value for c in names.elts}


def named_tables() -> set[str]:
    """The table names that a ``memo`` call passes first or a ``_tables``
    subscript reads, anywhere in the package."""
    out = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and node.args and (
                isinstance(node.func, ast.Attribute) and node.func.attr == "memo"
            ):
                name = node.args[0]
            elif isinstance(node, ast.Subscript) and (
                isinstance(node.value, ast.Attribute) and node.value.attr == "_tables"
            ):
                name = node.slice
            else:
                continue
            if isinstance(name, ast.Constant) and isinstance(name.value, str):
                out.add(name.value)
    return out


def test_every_declared_table_is_used():
    declared = declared_tables()
    assert "syzygy" in declared
    assert sorted(declared - named_tables()) == []
