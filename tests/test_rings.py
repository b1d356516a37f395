"""Differential tests of the span helpers ``rings.extend_basis`` and
``rings.combine`` against the per-candidate loops of ``ff_oracles``, and of
``rings.algebra_radical`` against its per-entry oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import fixture_groups, random_invertible
from ff_oracles import entrywise_radical, greedy_extend_basis, scale_add_combine
from tautilt import rings
from tautilt.algebra import GroupAlgebra
from tautilt.ff import FFMatrix, block_diag, field_create, solve_intertwiner_system

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


# -- the radical ----------------------------------------------------------------

RADICAL_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1)]
REGULAR_CASES = [
    (name, p, m)
    for name in ("C3", "S3", "A4", "S4", "SL23", "S3xC3")
    for p, m in RADICAL_FIELDS
    if fixture_groups()[name].order % p == 0
]


def regular_matrices(name, p, m):
    alg = GroupAlgebra(fixture_groups()[name], field_create(p, m))
    return alg.field, [FFMatrix(alg.field, a) for a in alg.regular_actions]


@pytest.mark.parametrize("name,p,m", REGULAR_CASES)
def test_radical_of_group_algebra_matches_entrywise_oracle(name, p, m):
    field, mats = regular_matrices(name, p, m)
    assert rings.algebra_radical(field, mats) == entrywise_radical(field, mats)


@st.composite
def end_algebras(draw):
    """A field and a basis of End(M), for M a random base change of a
    direct sum, with repeats, of modules for two generators: Jordan blocks
    acting with the identity (End k[x]/x^s, local with a radical), or
    random matrices."""
    p, m = draw(st.sampled_from(RADICAL_FIELDS))
    field = field_create(p, m)
    rng = np.random.default_rng(draw(seeds))
    parts = []
    for _ in range(draw(st.integers(1, 3))):
        size = draw(st.integers(1, 4))
        if draw(st.booleans()):
            lam = int(rng.integers(field.q))
            jordan = np.eye(size, dtype=np.int16) * lam + np.eye(size, k=1, dtype=np.int16)
            gens = (FFMatrix(field, jordan), FFMatrix.identity(field, size))
        else:
            gens = tuple(FFMatrix(field, rng.integers(0, field.q, size=(size, size))) for _ in "ab")
        parts += [gens] * draw(st.integers(1, 2))
    while sum(g[0].rows for g in parts) > 6:
        parts.pop()
    n = sum(g[0].rows for g in parts)
    T = random_invertible(field, rng, n)
    T_inv = T.inverse()
    gens = [T_inv @ block_diag(field, [g[i] for g in parts]) @ T for i in range(2)]
    return field, solve_intertwiner_system(field, [(g, g) for g in gens], (n, n))


@settings(max_examples=60, deadline=None)
@given(end_algebras())
def test_radical_of_end_algebra_matches_entrywise_oracle(case):
    field, basis = case
    assert rings.algebra_radical(field, basis) == entrywise_radical(field, basis)


@pytest.mark.parametrize("m", [1, 2])
def test_radical_reads_each_stage_coefficient_off_shared_charpolys(m):
    """End of one Jordan block of size 4 in characteristic 2 is k[x]/x^4.
    e_1(1) = 4 and e_2(1) = 6 vanish, so the stages for e_1 and e_2 keep J
    and the stage for e_4 (e_4(1) = 1) sees the same products again: it
    must read e_4, not e_2, off their charpolys."""
    field = field_create(2, m)
    x = FFMatrix(field, np.eye(4, dtype=np.int16) + np.eye(4, k=1, dtype=np.int16))
    basis = solve_intertwiner_system(field, [(x, x)], (4, 4))
    rad = rings.algebra_radical(field, basis)
    assert len(rad) == 3
    assert rad == entrywise_radical(field, basis)


def test_radical_takes_one_charpoly_per_distinct_product(monkeypatch):
    """kS4 over GF(2): the first charpoly stage keeps J = kG, whose 576
    products are the 24 matrices L_g; 2,089 charpolys were taken when each
    entry of each stage matrix had its own."""
    field, mats = regular_matrices("S4", 2, 1)
    calls = []
    real = FFMatrix.charpoly
    monkeypatch.setattr(FFMatrix, "charpoly", lambda A: calls.append(1) or real(A))
    rad = rings.algebra_radical(field, mats)
    assert len(rad) == 19
    assert 0 < len(calls) <= 66
