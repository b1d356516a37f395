"""Differential test of ``ff.solve_intertwiner_system`` (spinning) against
the Kronecker nullspace of ``ff_oracles``: the same matrices in the same
order, on pairs of small modules given by their generator matrices."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import random_invertible
from ff_oracles import kronecker_intertwiners
from tautilt.ff import FFMatrix, block_diag, field_create, solve_intertwiner_system

FIELDS = [field_create(p, m) for p, m in ((2, 1), (3, 1), (2, 2), (3, 2))]


def random_piece(field, rng, k, n):
    """k generator matrices of size n: random with a random share of zeros,
    strictly upper triangular (singular and nilpotent), or scalar."""
    kind = rng.integers(3)
    out = []
    for _ in range(k):
        data = rng.integers(0, field.q, size=(n, n))
        if kind == 0:
            data[rng.random((n, n)) < rng.random()] = 0
        elif kind == 1:
            data = np.triu(data, 1)
        else:
            data = int(rng.integers(field.q)) * np.eye(n, dtype=int)
        out.append(FFMatrix(field, data))
    return out


def direct_sum(field, rng, pieces, picks, conjugate):
    """Generator matrices of the direct sum of the picked pieces, in a
    random basis if asked, and its dimension."""
    gens = [block_diag(field, [pieces[p][i] for p in picks]) for i in range(len(pieces[0]))]
    n = gens[0].rows
    if conjugate and n:
        T = random_invertible(field, rng, n)
        Tinv = T.inverse()
        gens = [Tinv @ g @ T for g in gens]
    return gens, n


@st.composite
def systems(draw):
    """(field, constraints, dims) for X @ L_i = R_i @ X: two direct sums of
    shared pieces, so that Hom is often nonzero and the source often needs
    several seeds; or no constraints at all."""
    field = draw(st.sampled_from(FIELDS))
    k = draw(st.integers(0, 3))
    if not k:
        return field, [], (draw(st.integers(0, 4)), draw(st.integers(0, 4)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    pieces = [random_piece(field, rng, k, n) for n in sizes]

    def picks():
        count = draw(st.sampled_from([1, 2, 3, 0]))
        return [draw(st.integers(0, len(pieces) - 1)) for _ in range(count)]

    L, c = direct_sum(field, rng, pieces, picks(), draw(st.booleans()))
    R, r = direct_sum(field, rng, pieces, picks(), draw(st.booleans()))
    return field, list(zip(L, R)), (r, c)


@settings(max_examples=300, deadline=None)
@given(systems())
def test_spinning_matches_kronecker(system):
    field, constraints, dims = system
    basis = solve_intertwiner_system(field, constraints, dims)
    assert basis == kronecker_intertwiners(field, constraints, dims)
    for X in basis:
        for L, R in constraints:
            assert X @ L == R @ X
