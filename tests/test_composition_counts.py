"""Composition factors counted by Hom spaces out of projectives, against
the module surgery they replaced.

Hom(P, -) is exact for a projective P, and over a splitting field
dim Hom(P_S, N) is the multiplicity of the simple S in N.

* ``homalg.loewy_label`` reads the multiplicity of S in the i-th radical
  layer of M as the drop of dim Hom(P_S, rad^i M) from i to i + 1.  On
  every class registered while the tier-1 fixture posets are enumerated,
  it equals the label whose layers are formed as quotient modules and
  split by ``decompose`` (``ff_oracles.split_layer_loewy_label``), and
  neither route registers a class.
* The P3.5 clause of ``functors.verify_main_theorems`` sums
  dim Hom(Res P_q, M_m) over the support PIM classes q and the summand
  classes m of a node.  For every PIM class q of the overgroup and every
  class m of each block B of the normal subgroup, in the corpus
  embeddings, that count equals dim Hom(e_B Res P_q, M_m), the
  restriction cut down to its block component; so does the count for the
  sum of all PIM classes at once.  Some of these spaces are non-zero, so
  the comparison is not vacuous.
"""

import pytest

from conftest import EmbeddedPair
from corpus import POSET_FIXTURES, alternating_group, fixture_algebra, symmetric_group
from ff_oracles import block_restricted_hom_dim, split_layer_loewy_label
from tautilt import homalg
from tautilt.engine import TiltingContext, enumerate_poset
from tautilt.functors import _restricted_hom_dim
from tautilt.groups import group_from_generators, perm_from_cycles


@pytest.mark.parametrize("name", sorted(POSET_FIXTURES))
def test_labels_match_the_split_layers(name):
    algebra = fixture_algebra(name)
    enumerate_poset(TiltingContext(algebra))
    reg = algebra.registry
    n = len(reg.entries)
    for i in range(n):
        M = reg.module(i)
        assert homalg.loewy_label(reg, M) == split_layer_loewy_label(reg, M), i
    assert len(reg.entries) == n


def _c3_in_s3():
    c3 = group_from_generators([perm_from_cycles([[1, 2, 3]], 3)], name="C3")
    return EmbeddedPair(c3, symmetric_group(3), 2)


EMBEDDINGS = {
    "A4<S4 p2": lambda: EmbeddedPair(alternating_group(4), symmetric_group(4), 2),
    "A4<S4 p3": lambda: EmbeddedPair(alternating_group(4), symmetric_group(4), 3),
    "C3<S3 p2": _c3_in_s3,
}


@pytest.mark.parametrize("name", sorted(EMBEDDINGS))
def test_restricted_pims_count_maps_as_their_block_components(name):
    pc = EMBEDDINGS[name]()
    reg = pc.sub_algebra.registry
    pims = pc.amb_algebra.registry.pim_ids()
    nonzero = 0
    for B in pc.sub_algebra.blocks():
        enumerate_poset(TiltingContext(pc.sub_algebra, B))
        classes = [i for i in range(len(reg.entries)) if reg.block_of(i) == B.index]
        for m in classes:
            for q in pims:
                want = block_restricted_hom_dim(pc.ictx, B, [q], m)
                assert _restricted_hom_dim(pc.ictx, [q], [m]) == want, (B.index, q, m)
                nonzero += want > 0
            want = block_restricted_hom_dim(pc.ictx, B, pims, m)
            assert _restricted_hom_dim(pc.ictx, pims, [m]) == want, (B.index, m)
    assert nonzero
