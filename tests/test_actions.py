"""The action stack of a module against the per-element word products, the
support-and-combine loop and the column-at-a-time regular hom it replaced
(``ff_oracles.py``), over modules in random bases."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import block_regular_module, fixture_groups, group_element, random_invertible
from ff_oracles import column_regular_hom, support_combine_action, word_actions
from tautilt.algebra import GroupAlgebra
from tautilt.ff import FFMatrix, block_diag, field_create
from tautilt.modules import (
    ModuleError,
    RepModule,
    _hom_from_regular_summand,
    regular_module,
)
from tautilt.rings import FieldNotSplittingError

GROUPS = ("C3", "S3", "A4", "S4", "SL23", "S3xC3")
FIELDS = ((2, 1), (3, 1), (2, 2))
KINDS = ("points", "points + trivial", "regular", "zero")


@functools.cache
def algebra(name, p, m):
    return GroupAlgebra(fixture_groups()[name], field_create(p, m))


def generator_matrices(alg, kind):
    """Generator matrices of a module in the standard basis: the group
    acting on its points (g e_x = e_g(x)), that plus the trivial module,
    the regular module, or the zero module."""
    G, F = alg.group, alg.field
    points = []
    for perm in G.generators:
        P = np.zeros((G.degree, G.degree), dtype=np.int16)
        P[list(perm), range(G.degree)] = 1
        points.append(FFMatrix(F, P))
    return {
        "points": points,
        "points + trivial": [block_diag(F, [P, FFMatrix.identity(F, 1)]) for P in points],
        "regular": list(regular_module(alg).gen_mats),
        "zero": [FFMatrix.zeros(F, 0, 0) for _ in G.generators],
    }[kind]


@st.composite
def modules(draw):
    """A module over kG in a random basis, with a random number generator
    for the test to draw from."""
    name = draw(st.sampled_from(GROUPS))
    alg = algebra(name, *draw(st.sampled_from(FIELDS)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mats = generator_matrices(alg, draw(st.sampled_from(KINDS)))
    n = mats[0].rows
    T = random_invertible(alg.field, rng, n)
    T_inv = T.inverse()
    return RepModule(alg, [T_inv @ A @ T for A in mats]), rng


@functools.cache
def regular_summands(alg):
    """The regular module and, where the field splits the center, its
    blocks as modules."""
    try:
        blocks = alg.blocks()
    except FieldNotSplittingError:
        blocks = []
    return [regular_module(alg)] + [block_regular_module(b) for b in blocks]


def random_vectors(alg, rng):
    """The zero vector, the unit, a dense and a sparse random vector."""
    q, n = alg.field.q, alg.dim
    sparse = rng.integers(0, q, size=n) * (rng.random(n) < 0.2)
    return [alg.zero(), alg.unit(), rng.integers(0, q, size=n).tolist(), sparse.tolist()]


@settings(max_examples=60, deadline=None)
@given(modules())
def test_stack_and_algebra_action_match_word_products(case):
    M, rng = case
    alg = M.algebra
    oracle = word_actions(M)
    assert M.actions.shape == (alg.dim, M.dim, M.dim)
    assert [M.action_of(g) for g in range(alg.dim)] == oracle
    vecs = random_vectors(alg, rng)
    expected = [support_combine_action(M, oracle, v) for v in vecs]
    assert [M.apply_algebra_vector(v) for v in vecs] == expected
    assert np.array_equal(M.apply_algebra_vectors(vecs), np.array([e.data for e in expected]))
    M.verify_action()


@settings(max_examples=40, deadline=None)
@given(modules(), st.data())
def test_regular_hom_matches_column_loop(case, data):
    N, _ = case
    alg = N.algebra
    M = data.draw(st.sampled_from(regular_summands(alg)))
    assert _hom_from_regular_summand(M, N) == column_regular_hom(M, N, word_actions(N))


@settings(max_examples=40, deadline=None)
@given(modules(), st.data())
def test_verify_action_rejects_a_singular_generator(case, data):
    """No group element acts by a singular matrix, so a module whose
    generator loses a column breaks a relation, whichever it is."""
    M, _ = case
    if M.dim == 0:
        return
    pos = data.draw(st.integers(0, len(M.gen_mats) - 1))
    broken = [A.data.copy() for A in M.gen_mats]
    broken[pos][:, 0] = 0
    with pytest.raises(ModuleError):
        RepModule(M.algebra, [FFMatrix(M.field, A) for A in broken]).verify_action()


@pytest.mark.parametrize("name", GROUPS)
def test_regular_modules_share_the_permutation_stack(name):
    alg = algebra(name, 2, 1)
    M = regular_module(alg)
    assert M.actions is alg.regular_actions
    assert not M.actions.flags.writeable
    G = alg.group
    for g in range(G.order):
        for j in range(G.order):
            assert M.actions[g, :, j].tolist() == group_element(alg, G.mul(g, j))
    assert [M.action_of(g) for g in range(G.order)] == word_actions(M)
