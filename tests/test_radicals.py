"""The two radicals the splitting of kG reads off facts it already holds.

* rad kG from the PIMs: ``GroupAlgebra.radical_vectors`` is the sum of the
  images, through the inclusions of the PIM parts of kG, of rad End(P_j)
  and of Hom(P_i, P_j) for the other classes.  It spans the radical that
  Ronyai's chain finds on the |G| regular matrices
  (``ff_oracles.ronyai_radical_vectors``) on every splitting fixture, and
  no ``rings.algebra_radical`` call on the way has a |G|-dimensional basis.
* rad E of a local ring from its eigenvalues: when no basis element of E
  splits and each has one eigenvalue lam_x in the field, J = span{x -
  lam_x 1} is rad E if it has codimension 1 and its powers stay inside it
  and reach 0.  On every ring the splitting search meets while the fixture
  posets are enumerated, that J equals Ronyai's radical, and it is missing
  exactly on the rings that are not local; the pinned fallback counts say
  how many.  The non-local End(P + P) piece of kS4 over GF(2) falls back,
  and M_2(k) in a basis of elements with one eigenvalue each, where J has
  codimension 1 but J J does not stay inside it, is no local ring.
"""

import pytest

from corpus import POSET_FIXTURES, fixture_algebra, fixture_groups
from ff_oracles import ronyai_radical_vectors
from tautilt import rings
from tautilt.algebra import GroupAlgebra
from tautilt.engine import TiltingContext, enumerate_poset
from tautilt.ff import FFMatrix, field_create
from tautilt.modules import regular_module

# (group, p, m): fields that split kG
SPLITTING = [
    ("S4", 2, 1), ("S4", 3, 1), ("S4", 2, 2), ("SL23", 3, 1), ("A4", 2, 2),
    ("S3xC3", 2, 2), ("C3", 2, 2), ("S3", 2, 2), ("S5", 3, 1), ("S5", 5, 1),
]

# rings met while enumerating each fixture poset that are not local, and
# so take the fallback to Ronyai's chain
FALLBACKS = {"A4 GF(4)": 0, "S3xC3 GF(4)": 0, "S4 p2": 0, "S4 p3 m1": 0, "SL23 p3 m1": 1}


def _searched(monkeypatch) -> list:
    """Record (field, basis, J) for every ring the splitting search stops
    at stage 2 on, J the radical it read off the eigenvalues or None."""
    rings_met = []
    search = rings.find_splitting_idempotent

    def recording(field, basis, radical):
        def rad(J):
            rings_met.append((field, basis, J))
            return radical(J)

        return search(field, basis, rad)

    monkeypatch.setattr(rings, "find_splitting_idempotent", recording)
    return rings_met


@pytest.mark.parametrize("name,p,m", SPLITTING, ids=[f"{g} GF({p}^{m})" for g, p, m in SPLITTING])
def test_radical_of_kg_from_the_pims_is_ronyais(name, p, m, monkeypatch):
    alg = GroupAlgebra(fixture_groups()[name], field_create(p, m))
    dims = []
    ronyai = rings.algebra_radical
    monkeypatch.setattr(rings, "algebra_radical", lambda f, b: dims.append(len(b)) or ronyai(f, b))
    got = alg.radical_vectors()
    alg.blocks()
    assert all(d < alg.dim for d in dims), dims
    monkeypatch.undo()
    assert got == ronyai_radical_vectors(alg)


@pytest.mark.parametrize("name", sorted(POSET_FIXTURES))
def test_eigenvalue_radical_is_ronyais_on_every_ring_met(name, monkeypatch):
    rings_met = _searched(monkeypatch)
    enumerate_poset(TiltingContext(fixture_algebra(name)))
    monkeypatch.undo()
    assert rings_met
    fallbacks = 0
    for field, basis, J in rings_met:
        rad = rings.algebra_radical(field, basis)
        local = len(rings.reduce_span(field, basis)) - len(rad) == 1
        # over a splitting field the eigenvalues show every local ring
        assert (J is not None) == local
        if J is None:
            fallbacks += 1
        else:
            assert J == rad
    assert fallbacks == FALLBACKS[name]


def test_the_sum_of_two_copies_of_a_pim_of_ks4_over_gf2_falls_back(monkeypatch):
    """kS4 = P1 + P2 + P2 over GF(2), End(P2) of dimension 3: End(P2 + P2)
    is M_2(End P2), of dimension 12 with a radical of dimension 8."""
    rings_met = _searched(monkeypatch)
    alg = GroupAlgebra(fixture_groups()["S4"], field_create(2, 1))
    alg.registry.decompose(regular_module(alg))
    monkeypatch.undo()
    fallen = [(f, b) for f, b, J in rings_met if J is None]
    assert len(fallen) == 1
    field, basis = fallen[0]
    assert (len(basis), basis[0].rows, len(rings.algebra_radical(field, basis))) == (12, 16, 8)
    for f, b, J in rings_met:
        if J is not None:
            assert J == rings.algebra_radical(f, b)


@pytest.mark.parametrize("p", [2, 3])
def test_codimension_one_is_not_enough(p):
    """M_2(k) spanned by 1, E12, E21 and the nilpotent E11 + E12 - E21 -
    E22: each has one eigenvalue, and J = span{x - lam_x 1} is the
    trace-zero matrices, of codimension 1.  J J is all of M_2(k), so J is
    no radical.  k[x]/x^3, spanned by 1 + x, x and x^2, is local: J is
    (x, x^2)."""
    field = field_create(p, 1)
    minus = p - 1
    matrix_ring = [FFMatrix(field, m) for m in ([[1, 0], [0, 1]], [[0, 1], [0, 0]],
                                                [[0, 0], [1, 0]], [[1, 1], [minus, minus]])]
    assert rings._local_radical(field, matrix_ring, [1, 0, 0, 0]) is None
    x = FFMatrix(field, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    one = FFMatrix.identity(field, 3)
    truncated = [one + x, x, x @ x]
    J = rings._local_radical(field, truncated, [1, 0, 0])
    assert J == rings.reduce_span(field, [x, x @ x]) == rings.algebra_radical(field, truncated)
