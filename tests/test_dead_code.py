"""Nothing is kept in ``src/tautilt`` that nothing calls: every module-level
function or class is referenced from package code other than its own
definition, or is exported in ``tautilt.__all__``.  Docstrings and imports
are not references; dunders are exempt."""

import ast
from pathlib import Path

import tautilt

SRC = Path(tautilt.__file__).parent


def _references(node) -> set[str]:
    """Names and attribute names that ``node`` reads."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def unreferenced_definitions() -> list[str]:
    defined = []  # (module, name)
    used_outside = {}  # name -> modules/definitions that read it
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        for stmt in ast.parse(path.read_text()).body:
            owner = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owner = stmt.name
                defined.append((module, owner))
            for name in _references(stmt):
                used_outside.setdefault(name, set()).add((module, owner))
    exported = set(tautilt.__all__)
    return sorted(
        f"{module}.{name}"
        for module, name in defined
        if not (name.startswith("__") and name.endswith("__"))
        and name not in exported
        and not used_outside.get(name, set()) - {(module, name)}
    )


def test_every_definition_is_used_or_exported():
    assert unreferenced_definitions() == []
