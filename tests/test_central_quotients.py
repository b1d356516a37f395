"""Known answers from central p-subgroups.  For a central p-subgroup Z of
G, the kernel of kG -> k[G/Z] is generated by the central elements z - 1,
which lie in the radical, so the two algebras have the same support
tau-tilting posets, block by block (Eisele, Janssens and Raedschelders):

* GL(2,3) has the center {1, -1} and the quotient S4, at p = 2;
* C5 x A4 has the center C5 and the quotient A4, at p = 5;
* SL(2,5) has the center {1, -1} and the quotient A5, at p = 2;
* C2 x A5 has the center C2 and the quotient A5, at p = 2.

Each pair is computed over one field, the splitting field of both groups:
GF(4), GF(25) and GF(16).  The counts are also pinned, and a wrong
quotient gives other counts: A4 for GL(2,3), and S5, of the same order
and over the same field, for SL(2,5)."""

import functools

import pytest

from corpus import alternating_group, c2_x_a5, c5_x_a4, fixture_groups, gl23, sl25
from tautilt.algebra import GroupAlgebra, splitting_field
from tautilt.engine import TiltingContext, enumerate_poset

GROUPS = {"GL23": gl23, "C5xA4": c5_x_a4, "SL25": sl25, "C2xA5": c2_x_a5,
          "A4": lambda: alternating_group(4), "A5": lambda: alternating_group(5),
          "S4": lambda: fixture_groups()["S4"], "S5": lambda: fixture_groups()["S5"]}

# (group, its quotient by a central p-subgroup, p, the field's order, the
# (nodes, edges) of each block, in block order)
CASES = [
    ("GL23", "S4", 2, 4, [(8, 8)]),
    ("C5xA4", "A4", 5, 25, [(2, 1)] * 4),
    ("SL25", "A5", 2, 16, [(32, 48), (2, 1)]),
    ("C2xA5", "A5", 2, 16, [(32, 48), (2, 1)]),
]


@functools.cache
def counts(name: str, p: int) -> tuple[int, list, tuple]:
    """(field order, (nodes, edges) per block, (nodes, edges) in total) of
    the group algebra over the splitting field."""
    group = GROUPS[name]()
    alg = GroupAlgebra(group, splitting_field(p, [group]))
    whole = enumerate_poset(TiltingContext(alg))
    blocks = [enumerate_poset(TiltingContext(alg, b)) for b in alg.blocks()]
    return alg.field.q, [(q.n_nodes, q.n_edges) for q in blocks], (whole.n_nodes, whole.n_edges)


def assert_same_counts(name: str, quotient: str, p: int):
    assert counts(name, p) == counts(quotient, p), (name, quotient, p)


@pytest.mark.parametrize("name,quotient,p,q,per_block", CASES, ids=[c[0] for c in CASES])
def test_counts_are_those_of_the_central_quotient(name, quotient, p, q, per_block):
    assert_same_counts(name, quotient, p)
    # the product of the block posets: each block's edges times the nodes
    # of the others
    nodes, edges = 1, 0
    for n, e in per_block:
        nodes, edges = nodes * n, edges * n + e * nodes
    assert counts(name, p) == (q, per_block, (nodes, edges))


def test_a_wrong_quotient_fails():
    with pytest.raises(AssertionError):
        assert_same_counts("GL23", "A4", 2)


def test_a_wrong_quotient_of_the_same_order_fails():
    with pytest.raises(AssertionError):
        assert_same_counts("SL25", "S5", 2)
