import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import (
    alternating_group,
    cyclic_group,
    fixture_groups,
    group_element,
    inertial_embeddings,
    symmetric_group,
)
from ff_oracles import loop_mul_vec, ronyai_radical_vectors
from tautilt import rings
from tautilt.algebra import (
    AlgebraError,
    GroupAlgebra,
    block_decomposition,
    covers,
    inertial_group,
    principal_block,
    splitting_field,
    splitting_field_degree,
)
from tautilt.ff import FFMatrix, field_create
from tautilt.groups import SubgroupEmbedding, group_from_generators, perm_from_cycles


def algebra_of(group, p, m=None):
    field = splitting_field(p, [group]) if m is None else field_create(p, m)
    return GroupAlgebra(group, field)


# -- products -----------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(
    name=st.sampled_from(sorted(fixture_groups())),
    pm=st.sampled_from([(2, 1), (2, 2), (3, 2), (5, 1)]),
    density=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_mul_vec_matches_loop(name, pm, density, seed):
    alg = GroupAlgebra(fixture_groups()[name], field_create(*pm))
    rng = np.random.default_rng(seed)

    def vector():
        v = rng.integers(0, alg.field.q, size=alg.dim)
        v[rng.random(alg.dim) >= density] = 0
        return [int(c) for c in v]

    a, b = vector(), vector()
    got = alg.mul_vec(a, b)
    assert got == loop_mul_vec(alg, a, b)
    assert all(type(c) is int for c in got)
    # rows: the product of each row of the first with each row of the second
    rows_a, rows_b = [a, vector(), vector()], [b, vector()]
    assert alg.mul_vec(rows_a, rows_b) == [
        [loop_mul_vec(alg, x, y) for y in rows_b] for x in rows_a
    ]


def test_mul_vec_full_vectors_over_gf5():
    # every coefficient 4 on S5: 14,400 terms land on 120 elements
    alg = GroupAlgebra(fixture_groups()["S5"], field_create(5, 1))
    full = [4] * alg.dim
    assert alg.mul_vec(full, full) == loop_mul_vec(alg, full, full)


# -- radical ----------------------------------------------------------------


def spans_same(field, vecs_a, vecs_b):
    def rank_of(vecs):
        vecs = [v for v in vecs if any(v)]
        if not vecs:
            return 0
        return FFMatrix(field, np.array(vecs, dtype=np.int16)).rank()

    ra, rb = rank_of(vecs_a), rank_of(vecs_b)
    return ra == rb == rank_of(vecs_a + vecs_b)


RADICAL_DIMS = [
    # (group builder, p, m, expected radical dimension)
    (lambda: cyclic_group(2), 2, 1, 1),
    (lambda: cyclic_group(4), 2, 1, 3),
    (lambda: cyclic_group(3), 3, 1, 2),
    (lambda: cyclic_group(3), 2, 2, 0),
    (lambda: symmetric_group(3), 2, 1, 1),
    (lambda: symmetric_group(3), 3, 1, 4),
    (lambda: alternating_group(4), 2, 2, 9),
    (lambda: alternating_group(4), 2, 1, 9),
    (lambda: symmetric_group(4), 2, 2, 19),
    (lambda: cyclic_group(6), 3, 1, 4),
    (lambda: group_from_generators([(1, 0, 2, 3), (0, 1, 3, 2)], name="V4"), 2, 1, 3),
]


@pytest.mark.parametrize("builder,p,m,expected", RADICAL_DIMS)
def test_group_algebra_radical_dimensions(builder, p, m, expected):
    """The radical read off the PIMs, and Ronyai's chain on the regular
    matrices as the oracle.  GF(2) does not split kA4, so there the PIMs,
    and with them ``radical_vectors``, are refused, as every command
    refuses that field; the oracle still gives the dimension."""
    alg = algebra_of(builder(), p, m)
    assert len(ronyai_radical_vectors(alg)) == expected
    if (alg.group.order, p, m) == (12, 2, 1):
        with pytest.raises(rings.FieldNotSplittingError):
            alg.radical_vectors()
        return
    assert alg.radical_vectors() == ronyai_radical_vectors(alg)


def test_radical_is_nilpotent_ideal():
    for builder, p, m, expected in RADICAL_DIMS[:6]:
        alg = algebra_of(builder(), p, m)
        rad = alg.radical_vectors()
        if not rad:
            continue
        # two-sided ideal: products with all basis elements stay inside
        for i in range(alg.dim):
            e = group_element(alg, i)
            for r in rad:
                assert spans_same(alg.field, rad, rad + [alg.mul_vec(e, r)])
                assert spans_same(alg.field, rad, rad + [alg.mul_vec(r, e)])
        # nilpotency: iterated products die
        layer = rad
        for _ in range(alg.dim):
            layer = [alg.mul_vec(a, b) for a in layer for b in rad]
            layer = [v for v in layer if any(v)]
            if not layer:
                break
        assert not layer


def test_radical_matrix_algebra_cases():
    F = field_create(2, 2)
    # full matrix algebra: semisimple
    basis = []
    for i in range(2):
        for j in range(2):
            m = np.zeros((2, 2), dtype=np.int16)
            m[i, j] = 1
            basis.append(FFMatrix(F, m))
    assert rings.algebra_radical(F, basis) == []
    # upper triangular 2x2: radical is the strict upper part
    upper = [b for k, b in enumerate(basis) if k != 2]
    rad = rings.algebra_radical(F, upper)
    assert len(rad) == 1
    assert rad[0].data[0, 1] != 0


# -- blocks -------------------------------------------------------------------


def brute_force_central_idempotent_count(alg):
    """Oracle: enumerate the center span and count idempotents; a split
    algebra with l blocks has exactly 2^l central idempotents."""
    F = alg.field
    center = alg.center_basis()
    count = 0
    for coeffs in itertools.product(range(F.q), repeat=len(center)):
        v = alg.zero()
        for c, basis_vec in zip(coeffs, center):
            if c:
                v = [F.add(x, F.mul(c, y)) for x, y in zip(v, basis_vec)]
        if alg.mul_vec(v, v) == v:
            count += 1
    return count


BLOCK_COUNTS = [
    (lambda: alternating_group(4), 2, 2, 1),
    (lambda: symmetric_group(4), 2, 1, 1),
    (lambda: symmetric_group(4), 2, 2, 1),
    (lambda: cyclic_group(2), 2, 1, 1),
    (lambda: symmetric_group(3), 3, 1, 1),
    (lambda: cyclic_group(6), 3, 1, 2),
    (lambda: alternating_group(4), 3, 1, 2),
    (lambda: symmetric_group(3), 2, 2, 2),
    (lambda: cyclic_group(3), 2, 2, 3),
]


@pytest.mark.parametrize("builder,p,m,expected", BLOCK_COUNTS)
def test_block_counts(builder, p, m, expected):
    alg = algebra_of(builder(), p, m)
    blocks = alg.blocks()
    assert len(blocks) == expected
    assert brute_force_central_idempotent_count(alg) == 2**expected


def test_block_invariants():
    for builder, p, m, _ in BLOCK_COUNTS:
        alg = algebra_of(builder(), p, m)
        blocks = alg.blocks()
        F = alg.field
        # idempotents: orthogonal, central, sum to 1
        total = alg.zero()
        for b in blocks:
            assert alg.mul_vec(b.idempotent, b.idempotent) == b.idempotent
            for i in alg.group.gen_indices:
                g = group_element(alg, i)
                assert alg.mul_vec(g, b.idempotent) == alg.mul_vec(b.idempotent, g)
            total = [F.add(x, y) for x, y in zip(total, b.idempotent)]
        assert total == alg.unit()
        for a, b in itertools.combinations(blocks, 2):
            assert not any(alg.mul_vec(a.idempotent, b.idempotent))
        # dimensions partition |G|
        assert sum(b.dim for b in blocks) == alg.dim
        # exactly one principal block, listed first
        assert [b.is_principal for b in blocks].count(True) == 1
        assert blocks[0].is_principal


def test_principal_block_examples():
    a4 = algebra_of(alternating_group(4), 2)
    assert principal_block(a4).dim == 12
    s3 = algebra_of(symmetric_group(3), 3)
    assert principal_block(s3).dim == 6
    c2 = algebra_of(cyclic_group(2), 2)
    assert principal_block(c2).dim == 2


def test_block_determinism():
    g = symmetric_group(3)
    alg1 = algebra_of(g, 2, 2)
    alg2 = GroupAlgebra(symmetric_group(3), field_create(2, 2))
    b1 = [b.idempotent for b in alg1.blocks()]
    b2 = [b.idempotent for b in alg2.blocks()]
    assert b1 == b2


# -- covering and inertia ----------------------------------------------------


def test_covers_principal_chain():
    field = field_create(2, 2)
    a4, s4 = alternating_group(4), symmetric_group(4)
    emb = SubgroupEmbedding(a4, s4)
    alg_sub, alg_amb = GroupAlgebra(a4, field), GroupAlgebra(s4, field)
    assert covers(principal_block(alg_amb), principal_block(alg_sub), emb)


def test_covers_positive_and_negative_s3():
    field = field_create(2, 2)
    s3 = symmetric_group(3)
    c3 = group_from_generators([perm_from_cycles([[1, 2, 3]], 3)], name="C3")
    emb = SubgroupEmbedding(c3, s3)
    alg_c3, alg_s3 = GroupAlgebra(c3, field), GroupAlgebra(s3, field)
    blocks_c3 = alg_c3.blocks()
    assert len(blocks_c3) == 3
    b0_s3 = principal_block(alg_s3)
    defect0 = [b for b in alg_s3.blocks() if not b.is_principal][0]
    assert covers(b0_s3, principal_block(alg_c3), emb)
    # the 4-dimensional matrix block restricts to the nontrivial characters
    nontrivial = [b for b in blocks_c3 if not b.is_principal]
    assert all(covers(defect0, b, emb) for b in nontrivial)
    assert not covers(defect0, principal_block(alg_c3), emb)
    assert not any(covers(b0_s3, b, emb) for b in nontrivial)


def test_covers_negative_a4_s4_p3():
    field = field_create(3, 1)
    a4, s4 = alternating_group(4), symmetric_group(4)
    emb = SubgroupEmbedding(a4, s4)
    alg_sub, alg_amb = GroupAlgebra(a4, field), GroupAlgebra(s4, field)
    defect0_sub = [b for b in alg_sub.blocks() if not b.is_principal][0]
    assert covers(principal_block(alg_amb), principal_block(alg_sub), emb)
    assert not covers(principal_block(alg_amb), defect0_sub, emb)


def test_covers_requires_normal():
    field = field_create(2, 1)
    s3 = symmetric_group(3)
    c2 = group_from_generators([perm_from_cycles([[1, 2]], 3)], name="C2")
    emb = SubgroupEmbedding(c2, s3)
    with pytest.raises(AlgebraError):
        covers(
            principal_block(GroupAlgebra(s3, field)),
            principal_block(GroupAlgebra(c2, field)),
            emb,
        )


def test_inertial_group_principal_is_whole():
    field = field_create(2, 2)
    a4, s4 = alternating_group(4), symmetric_group(4)
    emb = SubgroupEmbedding(a4, s4)
    inert = inertial_group(principal_block(GroupAlgebra(a4, field)), emb)
    assert inert.order == 24
    assert inertial_embeddings(inert, emb)[0].order == 24


def test_inertial_group_nontrivial():
    field = field_create(2, 2)
    s3 = symmetric_group(3)
    c3 = group_from_generators([perm_from_cycles([[1, 2, 3]], 3)], name="C3")
    emb = SubgroupEmbedding(c3, s3)
    alg = GroupAlgebra(c3, field)
    b0 = principal_block(alg)
    assert inertial_group(b0, emb).order == 6
    omega = [b for b in alg.blocks() if not b.is_principal][0]
    inert = inertial_group(omega, emb)
    assert inert.order == 3  # transpositions swap the two nontrivial characters
    # contains the normal subgroup and is closed
    group, sub_in_inertial, _ = inertial_embeddings(inert, emb)
    assert group.order == inert.order
    assert set(sub_in_inertial.element_map) <= set(range(inert.order))


def test_inertial_same_group():
    field = field_create(2, 1)
    c2 = cyclic_group(2)
    emb = SubgroupEmbedding(c2, c2)
    inert = inertial_group(principal_block(GroupAlgebra(c2, field)), emb)
    assert inert.order == 2
    assert inertial_embeddings(inert, emb)[0].order == 2


# -- splitting field heuristic ------------------------------------------------


def test_splitting_field_degree():
    assert splitting_field_degree(2, [symmetric_group(4)]) == 2
    assert splitting_field_degree(2, [alternating_group(4)]) == 2
    assert splitting_field_degree(3, [symmetric_group(3)]) == 1
    assert splitting_field_degree(2, [cyclic_group(4)]) == 1
    assert splitting_field_degree(2, [cyclic_group(7)]) == 3


def test_block_simple_counts():
    from tautilt.engine import TiltingContext

    alg = algebra_of(symmetric_group(3), 2, 2)
    counts = {b.index: TiltingContext(alg, b).n_simples for b in alg.blocks()}
    # principal block holds the trivial simple, the matrix block the 2-dim one
    assert sorted(counts.values()) == [1, 1]
    alg2 = algebra_of(alternating_group(4), 2, 2)
    assert TiltingContext(alg2, alg2.blocks()[0]).n_simples == 3
