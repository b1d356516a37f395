"""Differential tests of the span helpers ``rings.extend_basis`` and
``rings.combine`` against the per-candidate loops of ``ff_oracles``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ff_oracles import greedy_extend_basis, scale_add_combine
from tautilt import rings
from tautilt.ff import FFMatrix, field_create

FIELDS = [field_create(p, m) for p, m in ((2, 1), (3, 1), (2, 2), (3, 2), (251, 1))]
seeds = st.integers(0, 2**32 - 1)


def random_mats(field, rng, count, shape):
    data = rng.integers(0, field.q, size=(count, *shape)).astype(np.int16)
    data[rng.random(data.shape) < rng.random()] = 0
    return [FFMatrix(field, d) for d in data]


def mixed_span(field, rng, pool, count, shape):
    """Matrices of the given shape, each zero, a combination of the pool and
    of those drawn before it, or random: dependent and independent ones."""
    out = []
    for _ in range(count):
        kind = rng.integers(3)
        earlier = pool + out
        if kind == 0 or (kind == 1 and not earlier):
            out.append(FFMatrix.zeros(field, *shape))
        elif kind == 1:
            coeffs = [int(c) for c in rng.integers(0, field.q, size=len(earlier))]
            if any(coeffs):
                out.append(scale_add_combine(field, coeffs, earlier))
            else:
                out.append(FFMatrix.zeros(field, *shape))
        else:
            out += random_mats(field, rng, 1, shape)
    return out


@settings(max_examples=150, deadline=None)
@given(
    field=st.sampled_from(FIELDS),
    shape=st.sampled_from([(0, 0), (1, 1), (1, 3), (2, 2), (3, 2), (3, 3)]),
    n_basis=st.integers(0, 6),
    n_cand=st.integers(0, 10),
    seed=seeds,
)
def test_extend_basis_matches_greedy_loop(field, shape, n_basis, n_cand, seed):
    rng = np.random.default_rng(seed)
    basis = mixed_span(field, rng, [], n_basis, shape)  # may be dependent
    candidates = mixed_span(field, rng, basis, n_cand, shape)
    got = rings.extend_basis(field, basis, candidates)
    assert got == greedy_extend_basis(field, basis, candidates)
    kept = [candidates[i] for i in got]
    rank = len(rings.reduce_span(field, basis + candidates))
    assert len(rings.reduce_span(field, basis + kept)) == rank


def test_extend_basis_edge_cases():
    F = field_create(3, 1)
    e = [FFMatrix(F, [[1, 0]]), FFMatrix(F, [[0, 1]])]
    zero = FFMatrix.zeros(F, 1, 2)
    assert rings.extend_basis(F, [], []) == []
    assert rings.extend_basis(F, e, []) == []
    assert rings.extend_basis(F, [], [zero, e[0], e[0].scale(2), zero, e[1]]) == [1, 4]
    assert rings.extend_basis(F, [e[0], e[0]], [e[0], e[1], e[1]]) == [1]
    assert rings.extend_basis(F, e, [e[1], zero]) == []
    empty = FFMatrix.zeros(F, 0, 0)
    assert rings.extend_basis(F, [empty], [empty, empty]) == []


@settings(max_examples=150, deadline=None)
@given(
    field=st.sampled_from(FIELDS),
    shape=st.sampled_from([(0, 0), (1, 1), (2, 3), (4, 4), (7, 5)]),
    n_terms=st.integers(1, 12),
    seed=seeds,
)
def test_combine_matches_scale_and_add(field, shape, n_terms, seed):
    rng = np.random.default_rng(seed)
    mats = random_mats(field, rng, n_terms, shape)
    coeffs = [int(c) for c in rng.integers(0, field.q, size=n_terms)]
    coeffs = [c if rng.random() < 0.7 else 0 for c in coeffs]
    got = rings.combine(field, coeffs, mats)
    want = scale_add_combine(field, coeffs, mats)
    assert got.shape == shape
    assert got == want


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_combine_many_full_terms(field):
    # 500 terms with every digit p - 1: the digit sums run far past p
    top = field.q - 1
    mats = [FFMatrix(field, np.full((3, 4), top, dtype=np.int16))] * 500
    got = rings.combine(field, [top] * 500, mats)
    assert got == scale_add_combine(field, [top] * 500, mats)
    assert rings.combine(field, [0] * 500, mats).is_zero()
