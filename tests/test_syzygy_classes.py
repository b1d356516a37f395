"""L3.1 decided by class, and the syzygies of registered classes.

* ``verify_syzygy_commutation`` builds every side of L3.1 as a direct sum
  of registered classes, from per-class facts of the registries.  Its
  report matches ``ff_oracles.whole_module_l31``, which splits the whole
  syzygy, induction and translate modules, clause for clause: name,
  verdict and dimensions.  This is checked on every node of A4 in S4 and
  C3 in S3 at p = 2 and 3, on the trivial and regular modules, and on
  node modules in a random basis.  Every witness it stores intertwines
  the two modules it compares and is invertible.
* Group algebras are symmetric, so by Heller's theorem the syzygy of a
  non-projective indecomposable is one non-projective indecomposable, and
  that of a projective indecomposable is 0.  This is checked on the
  classes of the fixture groups over GF(2), GF(3) and GF(4), S5 apart:
  its registry alone took 24-92 s to build over these fields on a 2-core
  x86 box.
* ``homalg.syzygy`` runs at most once per module content in a whole
  ``verify``."""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import EmbeddedPair
from corpus import fixture_groups, in_random_basis
from ff_oracles import whole_module_l31
from tautilt import homalg
from tautilt.algebra import GroupAlgebra, inertial_group
from tautilt.cli import main
from tautilt.engine import TiltingContext, enumerate_poset
from tautilt.ff import FFMatrix, field_create
from tautilt.functors import _check_intertwines, _l31_sides, twist, verify_syzygy_commutation
from tautilt.modules import ModuleRegistry, _content_key, regular_module, trivial_module
from tautilt.rings import FieldNotSplittingError

EMBEDDINGS = [(sub, amb, p) for sub, amb in (("A4", "S4"), ("C3", "S3")) for p in (2, 3)]


@pytest.fixture(scope="module")
def embeddings():
    """Per embedding of EMBEDDINGS: the pair and (inertial group, node)
    for every node of every block of the subgroup."""
    out = {}
    for sub, amb, p in EMBEDDINGS:
        pc = EmbeddedPair(fixture_groups()[sub], fixture_groups()[amb], p)
        nodes = []
        for B in pc.sub_algebra.blocks():
            inert = inertial_group(B, pc.emb)
            poset = enumerate_poset(TiltingContext(pc.sub_algebra, B))
            nodes.extend((inert, node) for node in poset.nodes)
        out[sub, amb, p] = pc, nodes
    return out


def summary(report):
    """What the class-level and whole-module reports must share."""
    return report.inputs, [
        (c.name, c.passed, *(c.details.get(k) for k in ("dim", "left_dim", "right_dim")))
        for c in report.clauses
    ]


def as_matrix(field, entries, n) -> FFMatrix:
    return FFMatrix(field, np.array(entries, dtype=np.int64).reshape(n, n))


def check_by_class(pc, M, inertial=None):
    """The class-level report of M equals the whole-module one, and every
    witness it stores intertwines its two modules and is invertible."""
    report = verify_syzygy_commutation(pc.ictx, M, inertial)
    assert summary(report) == summary(whole_module_l31(pc.ictx, M, inertial))
    cover, om, *iso_pairs = _l31_sides(pc.ictx, M)
    field = pc.sub_algebra.field
    for clause, side in zip(report.clauses[:2], (cover, om)):
        for rep, w in clause.details["witnesses"].items():
            tw = twist(pc.ictx, int(rep), side)
            _check_intertwines(as_matrix(field, w, side.dim), tw, side)
    for clause, (left, right) in zip(report.clauses[2:], iso_pairs):
        assert (left.dim, right.dim) == (clause.details["left_dim"], clause.details["right_dim"])
        if clause.passed:
            _check_intertwines(as_matrix(field, clause.details["witness"], left.dim), left, right)
    return report


@pytest.mark.parametrize("case", EMBEDDINGS, ids=lambda c: f"{c[0]}<{c[1]}-p{c[2]}")
def test_class_level_l31_matches_whole_modules_on_every_node(embeddings, case):
    pc, nodes = embeddings[case]
    assert nodes
    for inert, node in nodes:
        check_by_class(pc, node.module(), inert)
    for M in (trivial_module(pc.sub_algebra), regular_module(pc.sub_algebra)):
        assert check_by_class(pc, M).passed


@settings(max_examples=10, deadline=None)
@given(case=st.sampled_from(EMBEDDINGS), pick=st.integers(0, 2**16), seed=st.integers(0, 2**32 - 1))
def test_class_level_l31_matches_whole_modules_in_a_random_basis(embeddings, case, pick, seed):
    pc, nodes = embeddings[case]
    inert, node = nodes[pick % len(nodes)]
    check_by_class(pc, in_random_basis(node.module(), seed), inert)


# -- Heller: the syzygy of a class ---------------------------------------------------

HELLER_GROUPS = [name for name in fixture_groups() if name != "S5"]
FIELDS = {"GF(2)": (2, 1), "GF(3)": (3, 1), "GF(4)": (2, 2)}


def check_heller(reg, pims, pos):
    X = reg.module(pos)
    om, cover = homalg.syzygy_cached(reg, X)
    assert om.dim == sum(reg.module(i).dim for i in cover) - X.dim
    if pos in pims:
        assert om.dim == 0 and cover == (pos,)
    else:
        (j,) = homalg.syzygy_ids(reg, pos)
        assert j not in pims


@pytest.mark.parametrize("field_name", sorted(FIELDS))
def test_syzygy_of_a_class_is_one_class_or_zero(field_name):
    """Over each field, on every fixture group whose algebra splits: the
    classes its registry holds once built (the PIMs, the simples and the
    pieces of the split), then the classes their syzygies register.
    Algebras that do not split raise while the registry is built; they are
    counted and must not be all."""
    checked = 0
    for name in HELLER_GROUPS:
        reg = ModuleRegistry(GroupAlgebra(fixture_groups()[name], field_create(*FIELDS[field_name])))
        with contextlib.suppress(FieldNotSplittingError):
            pims = set(reg.pim_ids())
            built = len(reg.entries)
            for pos in range(built):
                check_heller(reg, pims, pos)
            for pos in range(built, len(reg.entries)):
                check_heller(reg, pims, pos)
            checked += 1
    assert checked >= len(HELLER_GROUPS) // 2


# -- one syzygy per content ----------------------------------------------------------


def test_syzygy_runs_once_per_content_in_verify(monkeypatch, tmp_path):
    """The translates of the posets and the sides of L3.1 read one
    content-keyed table, so a whole ``verify A4 S4 --p 2`` computes the
    syzygy of each module content once."""
    keys = []
    real = homalg.syzygy
    monkeypatch.setattr(homalg, "syzygy", lambda M: keys.append(_content_key(M)) or real(M))
    files = []
    for name, gens in (("A4", [[2, 3, 1, 4], [2, 1, 4, 3]]), ("S4", [[2, 3, 4, 1], [2, 1, 3, 4]])):
        files.append(tmp_path / f"{name}.json")
        files[-1].write_text(json.dumps({"degree": 4, "generators": gens}))
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(["verify", *map(str, files), "--p", "2", "--no-cache"])
    assert code == 0 and json.loads(out.getvalue())["passed"]
    assert keys
    assert len(keys) == len(set(keys))
