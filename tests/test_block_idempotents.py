"""The block idempotents of ``block_decomposition``, found by the splitting
search on the regular representation of the center, are those of the
earlier splitter, which took the separable part of the center (the stable
image of the p-th power map) and split it through the minimal polynomials
of its elements (``ff_oracles.commutative_primitive_idempotents``).

Central primitive idempotents are unique, so the two agree as sets on
every group and field that splits the center, and both raise
FieldNotSplittingError on every other.  C3 over GF(4) has three blocks,
so a splitter that stops after its first split fails here."""

import functools

import pytest

from corpus import (
    alternating_group,
    cyclic_group,
    fixture_groups,
    klein_four_group,
    quaternion_group,
)
from ff_oracles import commutative_primitive_idempotents, frobenius_stable_part
from tautilt.algebra import GroupAlgebra, block_decomposition
from tautilt.ff import field_create
from tautilt.rings import FieldNotSplittingError

FIELDS = [(2, 1), (2, 2), (2, 4), (3, 1), (3, 2), (5, 1), (5, 2), (7, 1)]


@functools.cache
def _groups():
    extra = [alternating_group(5), cyclic_group(2), cyclic_group(6),
             quaternion_group(), klein_four_group()]
    return {**fixture_groups(), **{g.name: g for g in extra}}


def _idempotents(split):
    """The idempotents as a sorted list of code tuples, or None when the
    field does not split the center."""
    try:
        return sorted(tuple(e) for e in split())
    except FieldNotSplittingError:
        return None


@functools.cache
def _outcomes(name: str, p: int, m: int):
    """(block_decomposition's idempotents, the oracle's) on a fresh algebra."""
    alg = GroupAlgebra(_groups()[name], field_create(p, m))
    got = _idempotents(lambda: [b.idempotent for b in block_decomposition(alg)])
    separable = frobenius_stable_part(alg.field, alg.center_basis(), alg.mul_vec)
    want = _idempotents(
        lambda: commutative_primitive_idempotents(alg.field, alg.unit(), separable, alg.mul_vec)
    )
    return got, want


@pytest.mark.parametrize("name", sorted(_groups()))
def test_block_idempotents_are_those_of_the_separable_part(name):
    for p, m in FIELDS:
        got, want = _outcomes(name, p, m)
        assert got == want, (name, p, m)


def test_split_and_unsplit_pairs():
    """92 of the 104 pairs split; C3 has three blocks over GF(4), and GF(2)
    does not split it."""
    assert sorted(_groups()) == ["A4", "A5", "C2", "C3", "C4", "C6", "Q8", "S3",
                                 "S3xC3", "S4", "S5", "SL23", "V4"]
    outcomes = {(name, p, m): _outcomes(name, p, m)[0] for name in _groups() for p, m in FIELDS}
    assert sum(v is not None for v in outcomes.values()) == 92
    assert len(outcomes[("C3", 2, 2)]) == 3
    assert outcomes[("C3", 2, 1)] is None
