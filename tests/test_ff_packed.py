"""Differential tests: the table elimination of FFMatrix.rref against the
bit-sliced GF(2^m) elimination of ``ff_oracles``, which serves as the
oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ff_oracles import rref_packed
from tautilt.ff import FFError, FFMatrix, field_create

FIELDS = [field_create(2, m) for m in (1, 2, 3, 4)]

# Shapes up to 150 x 150, with column counts on either side of the 64-bit
# word boundaries of the oracle.
shapes = st.tuples(st.integers(0, 150), st.integers(0, 150))


def draw_matrix(field, shape, seed, rank=None):
    """Random matrix with a random share of zeros; with ``rank``, a product
    of two thin factors, so that it is singular and has a nullspace."""
    rng = np.random.default_rng(seed)
    rows, cols = shape
    if rank is not None:
        left = FFMatrix(field, rng.integers(0, field.q, size=(rows, rank)))
        right = FFMatrix(field, rng.integers(0, field.q, size=(rank, cols)))
        return left @ right
    data = rng.integers(0, field.q, size=shape)
    data[rng.random(shape) < rng.random()] = 0
    return FFMatrix(field, data)


def packed_rref(self):
    R, pivots = rref_packed(self.field, self.data)
    return FFMatrix._trusted(self.field, R), pivots


def on_both_paths(compute):
    """The result of ``compute``, and its result with FFMatrix.rref
    replaced by the packed oracle."""
    results = [compute()]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(FFMatrix, "rref", packed_rref)
        results.append(compute())
    return results


@settings(max_examples=60, deadline=None)
@given(field=st.sampled_from(FIELDS), shape=shapes, seed=st.integers(0, 2**32 - 1))
def test_rref_matches_table(field, shape, seed):
    A = draw_matrix(field, shape, seed)
    R, pivots = A.rref()
    R_packed, piv_packed = rref_packed(field, A.data)
    assert pivots == piv_packed
    assert R.data.dtype == R_packed.dtype
    assert np.array_equal(R.data, R_packed)


@settings(max_examples=25, deadline=None)
@given(
    field=st.sampled_from(FIELDS),
    shape=shapes,
    rank=st.integers(0, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_nullspace_and_solve_match_table(field, shape, rank, seed):
    A = draw_matrix(field, shape, seed, rank=min(rank, *shape))
    rng = np.random.default_rng(seed)
    x = FFMatrix(field, rng.integers(0, field.q, size=(A.cols, 2)))
    consistent = A @ x
    arbitrary = FFMatrix(field, rng.integers(0, field.q, size=(A.rows, 2)))
    table, packed = on_both_paths(
        lambda: (A.nullspace(), A.solve(consistent), A.solve(arbitrary), A.rref())
    )
    assert table == packed
    null, sol, _, _ = table
    assert (A @ null).is_zero()
    assert A @ sol == consistent


@settings(max_examples=20, deadline=None)
@given(field=st.sampled_from(FIELDS), n=st.integers(0, 140), seed=st.integers(0, 2**32 - 1))
def test_inverse_matches_table(field, n, seed):
    A = draw_matrix(field, (n, n), seed)

    def inverse():
        try:
            return A.inverse()
        except FFError:
            return None

    table, packed = on_both_paths(inverse)
    assert table == packed
    if table is not None:
        assert A @ table == FFMatrix.identity(field, n)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("shape", [(0, 0), (0, 200), (200, 0), (1, 1), (1, 64), (3, 65), (200, 63)])
def test_edge_shapes_match_table(field, shape):
    # empty matrices, and rows that end on, just past or just short of a word
    A = draw_matrix(field, shape, seed=sum(shape) + field.m)
    R, pivots = A.rref()
    R_packed, piv_packed = rref_packed(field, A.data)
    assert pivots == piv_packed
    assert np.array_equal(R.data, R_packed)
