"""Only ``tautilt.ff`` does coefficient-plane arithmetic: no other module
of the package reads the digit planes of a field, its place values or its
fold matrix.  Everything else multiplies through ``ff._matmul``, which
keeps the float64 exactness check in one place."""

import ast
from pathlib import Path

import tautilt

SRC = Path(tautilt.__file__).parent
PLANE_ATTRIBUTES = {"digit_planes", "places", "fold"}


def test_only_ff_reads_the_planes():
    readers = {
        (path.name, node.attr)
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in PLANE_ATTRIBUTES
    }
    assert readers and {name for name, _ in readers} == {"ff.py"}
