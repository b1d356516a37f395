"""Differential tests: bit-sliced elimination over GF(2^m) against the
table elimination, which serves as the oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tautilt import ff
from tautilt.ff import FFError, FFMatrix, field_create

FIELDS = [field_create(2, m) for m in (1, 2, 3, 4)]

# Shapes up to 150 x 150 reach both sides of the crossover and column
# counts on either side of the 64-bit word boundaries.
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


def on_both_paths(compute):
    """The result of ``compute`` with FFMatrix.rref forced onto the packed
    path, and with it forced onto the table path."""
    saved = ff._PACKED_MIN_CELLS
    results = []
    try:
        for threshold in (0, float("inf")):
            ff._PACKED_MIN_CELLS = threshold
            results.append(compute())
    finally:
        ff._PACKED_MIN_CELLS = saved
    return results


@settings(max_examples=60, deadline=None)
@given(field=st.sampled_from(FIELDS), shape=shapes, seed=st.integers(0, 2**32 - 1))
def test_rref_matches_table(field, shape, seed):
    A = draw_matrix(field, shape, seed)
    R_packed, piv_packed = ff._rref_packed(field, A.data)
    R_table, piv_table = ff._rref_table(field, A.data)
    assert piv_packed == piv_table
    assert R_packed.dtype == R_table.dtype
    assert np.array_equal(R_packed, R_table)


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
    packed, table = on_both_paths(
        lambda: (A.nullspace(), A.solve(consistent), A.solve(arbitrary), A.rref())
    )
    assert packed == table
    null, sol, _, _ = packed
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

    packed, table = on_both_paths(inverse)
    assert packed == table
    if packed is not None:
        assert A @ packed == FFMatrix.identity(field, n)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("shape", [(0, 0), (0, 200), (200, 0), (1, 1), (1, 64), (3, 65), (200, 63)])
def test_edge_shapes_match_table(field, shape):
    # empty matrices, and rows that end on, just past or just short of a word
    A = draw_matrix(field, shape, seed=sum(shape) + field.m)
    R_packed, piv_packed = ff._rref_packed(field, A.data)
    R_table, piv_table = ff._rref_table(field, A.data)
    assert piv_packed == piv_table
    assert np.array_equal(R_packed, R_table)


def test_rref_dispatch_by_size(monkeypatch):
    packed_shapes = []

    def spy(field, data):
        packed_shapes.append(data.shape)
        return ff._rref_table(field, data)

    monkeypatch.setattr(ff, "_rref_packed", spy)
    side = int(np.sqrt(ff._PACKED_MIN_CELLS))
    for field in (field_create(2, 2), field_create(3, 1)):
        FFMatrix.zeros(field, side - 1, side).rref()
        FFMatrix.zeros(field, side, side).rref()
    # only characteristic 2, and only from the crossover on
    assert packed_shapes == [(side, side)]
