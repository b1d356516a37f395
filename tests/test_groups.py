import pytest

from corpus import alternating_group, cyclic_group, direct_product, fixture_groups, symmetric_group
from tautilt.groups import (
    FiniteGroup,
    GroupError,
    SubgroupEmbedding,
    group_from_generators,
    group_from_json,
    group_to_json,
    perm_compose,
    perm_from_cycles,
    perm_identity,
    perm_inverse,
)


def brute_force_conjugacy_classes(group):
    """Independent oracle: naive double loop."""
    classes = []
    seen = set()
    for i in range(group.order):
        if i in seen:
            continue
        orbit = set()
        for x in range(group.order):
            orbit.add(group.mul(group.mul(x, i), group.inv(x)))
        seen |= orbit
        classes.append(frozenset(orbit))
    return set(classes)


def test_perm_basics():
    a = perm_from_cycles([[1, 2, 3]], 4)
    assert a == (1, 2, 0, 3)
    assert perm_compose(a, perm_inverse(a)) == perm_identity(4)


def test_c2():
    g = group_from_generators([(1, 0)])
    assert g.order == 2


def test_a4_order_and_classes():
    g = alternating_group(4)
    assert g.order == 12
    classes = g.conjugacy_classes()
    assert len(classes) == 4
    oracle = brute_force_conjugacy_classes(g)
    assert {frozenset(c) for c in classes} == oracle
    # classes partition the group
    assert sorted(i for c in classes for i in c) == list(range(12))


def wide_group():
    """An elementary abelian group of order 64 moving only the last 12 of
    40 points, so that its image tuples are long and share a long prefix."""
    gens = []
    for k in range(6):
        images = list(range(40))
        images[28 + 2 * k], images[29 + 2 * k] = 29 + 2 * k, 28 + 2 * k
        gens.append(images)
    return group_from_generators(gens, name="E64")


@pytest.mark.parametrize("name", [*fixture_groups(), "E64"])
def test_multiplication_table_composes_permutations(name):
    g = fixture_groups()[name] if name != "E64" else wide_group()
    table = g.table
    assert table.shape == (g.order, g.order)
    assert not table.flags.writeable
    for i, a in enumerate(g.elements):
        for j, b in enumerate(g.elements):
            assert table[i, j] == g.index[perm_compose(a, b)]
    assert g.mul(g.order - 1, 0) == g.index[perm_compose(g.elements[-1], g.elements[0])]


def test_s4_order_by_brute_force_closure():
    g = symmetric_group(4)
    assert g.order == 24
    # oracle: closure under composition computed naively from scratch
    gens = list(g.generators)
    seen = set(gens) | {perm_identity(4)}
    changed = True
    while changed:
        changed = False
        for a in list(seen):
            for b in gens:
                c = perm_compose(a, b)
                if c not in seen:
                    seen.add(c)
                    changed = True
    assert len(seen) == 24
    assert set(g.elements) == seen


def test_closure_and_identity_invariants():
    for g in [cyclic_group(6), symmetric_group(3), alternating_group(4)]:
        assert g.elements[g.identity] == perm_identity(g.degree)
        for i in range(g.order):
            for s in g.gen_indices:
                assert 0 <= g.mul(i, s) < g.order
            assert g.mul(i, g.inv(i)) == g.identity


def test_order_cap():
    with pytest.raises(GroupError):
        group_from_generators(symmetric_group(5).generators, order_cap=100)


def test_embedding_a4_in_s4():
    a4, s4 = alternating_group(4), symmetric_group(4)
    emb = SubgroupEmbedding(a4, s4)
    assert emb.normal
    assert emb.n_cosets == 2
    assert len(emb.coset_reps) == 2
    assert emb.coset_reps[0] == s4.identity
    # element map is a homomorphism
    for i in range(a4.order):
        for j in range(a4.order):
            assert emb.element_map[a4.mul(i, j)] == s4.mul(
                emb.element_map[i], emb.element_map[j]
            )


def test_embedding_non_normal():
    s3 = symmetric_group(3)
    c2 = group_from_generators([perm_from_cycles([[1, 2]], 3)], name="C2")
    emb = SubgroupEmbedding(c2, s3)
    assert not emb.normal
    assert emb.n_cosets == 3


def test_coset_decompose():
    c3 = group_from_generators([perm_from_cycles([[1, 2, 3]], 3)], name="C3")
    s3 = symmetric_group(3)
    emb = SubgroupEmbedding(c3, s3)
    assert emb.normal
    for x in range(s3.order):
        pos, h = emb.coset_decompose(x)
        rep = emb.coset_reps[pos]
        assert s3.mul(rep, emb.element_map[h]) == x


def test_direct_product():
    s3 = symmetric_group(3)
    c3 = cyclic_group(3)
    prod, e1, e2 = direct_product(s3, c3)
    assert prod.order == 18
    assert e1.normal and e2.normal
    # factors commute
    for i in e1.sub.gen_indices:
        a = e1.element_map[i]
        for j in e2.sub.gen_indices:
            b = e2.element_map[j]
            assert prod.mul(a, b) == prod.mul(b, a)


def test_json_roundtrip():
    g = alternating_group(4)
    back = group_from_json(group_to_json(g))
    assert back.elements == g.elements
    # cycle notation accepted too
    h = group_from_json({"degree": 4, "generators": [[[1, 2, 3]], [[1, 2], [3, 4]]]})
    assert h.order == 12


def test_json_errors():
    with pytest.raises(GroupError):
        group_from_json({"degree": 3})
    with pytest.raises(GroupError):
        group_from_json({"degree": 3, "generators": [[1, 1, 2]]})
