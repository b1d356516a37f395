"""Projective covers and dual-transposes against the constructions they
replaced, on every class of the fixture groups over GF(2), GF(3) and
GF(4), S5 apart: the classes a registry holds once built, then those
their syzygies register.

* ``homalg.projective_cover`` keeps, for each PIM P_S, the maps
  P_S -> M whose composites with the projection onto top(M) are
  independent.  ``ff_oracles.split_top_cover`` splits top(M) into simples
  and lifts the top of each PIM through two isomorphism witnesses.  Both
  give the same PIMs with multiplicity, both maps are onto, and their
  syzygies are isomorphic.
* Over a splitting field the number of copies of P_S in the cover of X is
  dim Hom(X, S), the multiplicity of S in top(X).  That dimension is
  solved by the intertwiner solver, apart from Hom(P_S, X).
* ``homalg.transpose_dual_indec`` is D(tau X); the oracle
  ``presentation_transpose_dual`` is the cokernel of the dualized minimal
  presentation of X.  They are isomorphic on every non-projective class.
"""

import contextlib

import pytest

from corpus import fixture_groups, registry_with_syzygies
from ff_oracles import presentation_transpose_dual, split_top_syzygy
from tautilt import homalg
from tautilt.ff import field_create, solve_intertwiner_system
from tautilt.modules import is_isomorphic
from tautilt.rings import FieldNotSplittingError

GROUPS = [name for name in fixture_groups() if name != "S5"]
FIELDS = {"GF(2)": (2, 1), "GF(3)": (3, 1), "GF(4)": (2, 2)}


@pytest.fixture(scope="module", params=sorted(FIELDS))
def classes(request):
    """(registry, class id) for every class of the fixture groups whose
    algebras the field splits, fixed before any test registers more.  The
    others raise while the registry is built, and must not be all."""
    registries = []
    for name in GROUPS:
        with contextlib.suppress(FieldNotSplittingError):
            field = field_create(*FIELDS[request.param])
            registries.append(registry_with_syzygies(fixture_groups()[name], field))
    assert len(registries) >= len(GROUPS) // 2
    return [(reg, pos) for reg in registries for pos in range(len(reg.entries))]


def test_cover_matches_the_split_top_cover(classes):
    for reg, pos in classes:
        X = reg.module(pos)
        om, _, P, pi = homalg.syzygy(X)
        om_q, _, Q, rho = split_top_syzygy(X)
        assert sorted(reg.ids_of(P)) == sorted(reg.ids_of(Q))
        assert pi.rank() == rho.rank() == X.dim
        assert is_isomorphic(om, om_q)[0]


def test_cover_multiplicity_is_dim_hom_to_the_simple(classes):
    for reg, pos in classes:
        X = reg.module(pos)
        cover = reg.ids_of(homalg.projective_cover(X)[0])
        for sid, pid in zip(reg.simple_ids(), reg.pim_ids()):
            S = reg.module(sid)
            hom = solve_intertwiner_system(X.field, list(zip(X.gen_mats, S.gen_mats)), (S.dim, X.dim))
            assert cover.count(pid) == len(hom)


def test_transpose_dual_matches_the_dualized_presentation(classes):
    checked = 0
    for reg, pos in classes:
        if reg.is_projective_id(pos):
            continue
        td = homalg.transpose_dual_indec(reg, pos)
        assert is_isomorphic(td, presentation_transpose_dual(reg.module(pos)))[0]
        checked += 1
    assert checked
