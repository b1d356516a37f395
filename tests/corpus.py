"""Deterministic groups, module corpus and random base changes shared by
the suites: the standard permutation groups, direct products, and the
submodule, radical and block builders the suites make test modules with."""

import functools

import numpy as np

from tautilt import homalg
from tautilt.algebra import Block, GroupAlgebra, splitting_field
from tautilt.ff import FFMatrix, field_create
from tautilt.groups import (
    FiniteGroup,
    GroupError,
    Perm,
    SubgroupEmbedding,
    group_from_generators,
    perm_compose,
    perm_from_cycles,
    perm_identity,
)
from tautilt.modules import (
    ModuleRegistry,
    RepModule,
    direct_sum,
    regular_module,
    submodule,
    trivial_module,
)


# -- standard constructions ------------------------------------------------


def cyclic_group(n: int, degree: int | None = None) -> FiniteGroup:
    degree = degree or n
    gen = perm_from_cycles([[i + 1 for i in range(n)]], degree)
    return FiniteGroup.from_generators([gen], name=f"C{n}")


def symmetric_group(n: int) -> FiniteGroup:
    gens = [perm_from_cycles([[1, 2]], n)]
    if n > 2:
        gens.append(perm_from_cycles([list(range(1, n + 1))], n))
    return FiniteGroup.from_generators(gens, name=f"S{n}")


def alternating_group(n: int) -> FiniteGroup:
    if n < 3:
        raise GroupError("alternating group needs degree >= 3")
    gens = [perm_from_cycles([[1, 2, 3]], n)]
    if n > 3:
        if n % 2:
            gens.append(perm_from_cycles([list(range(1, n + 1))], n))
        else:
            gens.append(perm_from_cycles([list(range(2, n + 1))], n))
    return FiniteGroup.from_generators(gens, name=f"A{n}")


def direct_product(g1: FiniteGroup, g2: FiniteGroup) -> tuple[FiniteGroup, SubgroupEmbedding, SubgroupEmbedding]:
    """G1 x G2 acting on the disjoint union of points, with the two factor
    embeddings."""
    d1, d2 = g1.degree, g2.degree

    def lift1(p: Perm) -> Perm:
        return tuple(p) + tuple(d1 + i for i in range(d2))

    def lift2(p: Perm) -> Perm:
        return tuple(range(d1)) + tuple(d1 + x for x in p)

    gens = [lift1(g) for g in g1.generators] + [lift2(g) for g in g2.generators]
    prod = FiniteGroup.from_generators(
        gens, name=f"{g1.name}x{g2.name}", order_cap=max(10000, g1.order * g2.order)
    )
    sub1 = FiniteGroup.from_generators([lift1(g) for g in g1.generators], name=g1.name)
    sub2 = FiniteGroup.from_generators([lift2(g) for g in g2.generators], name=g2.name)
    return prod, SubgroupEmbedding(sub1, prod), SubgroupEmbedding(sub2, prod)


# -- submodules --------------------------------------------------------------


def group_element(algebra, i: int) -> list[int]:
    """The coefficient vector of the i-th group element in kG."""
    v = algebra.zero()
    v[i] = 1
    return v


def spanned_submodule(M: RepModule, vectors: FFMatrix) -> tuple[RepModule, FFMatrix]:
    """Submodule generated by arbitrary column vectors: close under the
    generator actions, then reduce to a basis."""
    span = vectors
    while True:
        reduced = span.hstack(*[g @ span for g in M.gen_mats]).column_space_basis()
        if reduced.cols == span.cols:
            return submodule(M, reduced)
        span = reduced


def radical(M: RepModule) -> tuple[RepModule, FFMatrix]:
    """(rad M, inclusion)."""
    return submodule(M, homalg.radical_submodule_basis(M))


def block_component(M: RepModule, block: Block) -> tuple[RepModule, FFMatrix]:
    """The direct summand e_B * M with its inclusion."""
    e = M.apply_algebra_vector(block.idempotent)
    return submodule(M, e.column_space_basis())


def block_regular_module(block: Block) -> RepModule:
    """The block B as a left module over kG (a summand of the regular
    module, so the fast hom path applies)."""
    reg = regular_module(block.parent)
    mod, inc = block_component(reg, block)
    mod.lambda_inclusion = inc
    return mod.relabel(f"B{block.index}")


def _on_vectors(M, p: int) -> list[int]:
    """The permutation of a 2 x 2 matrix over GF(p) on the p^2 - 1 nonzero
    vectors of GF(p)^2, in lexicographic order."""
    vecs = [(a, b) for a in range(p) for b in range(p) if (a, b) != (0, 0)]
    return [
        vecs.index(((M[0][0] * x + M[0][1] * y) % p, (M[1][0] * x + M[1][1] * y) % p))
        for x, y in vecs
    ]


def sl23():
    """SL(2,3) acting on the 8 nonzero vectors of GF(3)^2."""
    gens = [_on_vectors([[1, 1], [0, 1]], 3), _on_vectors([[0, 2], [1, 0]], 3)]
    return group_from_generators(gens, name="SL23")


def gl23():
    """GL(2,3) on the same points: the generators of ``sl23()`` and
    diag(2, 1).  Its center {1, -1} is a 2-group, and the quotient by it
    is S4."""
    gens = [_on_vectors(M, 3) for M in ([[1, 1], [0, 1]], [[0, 2], [1, 0]], [[2, 0], [0, 1]])]
    return group_from_generators(gens, name="GL23")


def c5_x_a4():
    """C5 x A4 on 9 points, with its central C5 on the first five."""
    return direct_product(cyclic_group(5), alternating_group(4))[0]


def sl25():
    """SL(2,5), of order 120, on the 24 nonzero vectors of GF(5)^2.  Its
    center {1, -1} is a 2-group, and the quotient by it is A5."""
    gens = [_on_vectors([[1, 1], [0, 1]], 5), _on_vectors([[0, 4], [1, 0]], 5)]
    return group_from_generators(gens, name="SL25")


def c2_x_a5():
    """C2 x A5 on 7 points, with its central C2 on the first two."""
    return direct_product(cyclic_group(2), alternating_group(5))[0]


def quaternion_group():
    """Q8, the normal Sylow 2-subgroup of ``sl23()``, on the same points."""
    gens = [_on_vectors([[0, 2], [1, 0]], 3), _on_vectors([[1, 1], [1, 2]], 3)]
    return group_from_generators(gens, name="Q8")


def klein_four_group():
    """V4 = <(12)(34), (13)(24)>, normal in A4 and S4."""
    gens = [perm_from_cycles([[1, 2], [3, 4]], 4), perm_from_cycles([[1, 3], [2, 4]], 4)]
    return group_from_generators(gens, name="V4")


def random_invertible(field, rng, n):
    """A uniformly random invertible n x n matrix over field."""
    while True:
        T = FFMatrix(field, rng.integers(0, field.q, size=(n, n)))
        if T.is_invertible():
            return T


def in_random_basis(M: RepModule, seed: int) -> RepModule:
    """M with every generator conjugated by one random invertible matrix:
    the same module, neither registered nor a direct sum."""
    if M.dim == 0:
        return M
    T = random_invertible(M.field, np.random.default_rng(seed), M.dim)
    T_inv = T.inverse()
    return RepModule(M.algebra, [T_inv @ g @ T for g in M.gen_mats])


@functools.cache
def fixture_groups():
    """The groups the suites and the benchmark work with, by name; built
    once, so read-only to callers."""
    groups = [
        cyclic_group(3),
        symmetric_group(3),
        alternating_group(4),
        symmetric_group(4),
        sl23(),
        direct_product(symmetric_group(3), cyclic_group(3))[0],
        cyclic_group(4),
        symmetric_group(5),
    ]
    return {g.name: g for g in groups}


# The tier-1 fixture posets: name -> (group, p, m, simples, defect-zero
# blocks), m None for the splitting field.  Over a splitting field the
# simples are counted by the p-regular conjugacy classes, and the
# defect-zero blocks by the ordinary characters whose degree has the full
# p-part of |G|:
#   A4 (degrees 1,1,1,3), p = 2: classes 1, (123), (132); none of |G|_2 = 4.
#   S3xC3 (degrees (1,1,2) x (1,1,1)), p = 2: 2 x 3 classes; the three of
#     degree 2 = |G|_2.
#   S4 (degrees 1,1,2,3,3), p = 2: classes 1, (123); none of |G|_2 = 8.
#   S4, p = 3: classes 1, (12), (12)(34), (1234); the two of degree 3.
#   SL(2,3) (degrees 1,1,1,2,2,2,3), p = 3: classes 1, -1, those of order
#     4; the one of degree 3.
POSET_FIXTURES = {
    "A4 GF(4)": ("A4", 2, 2, 3, 0),
    "S3xC3 GF(4)": ("S3xC3", 2, 2, 6, 3),
    "S4 p2": ("S4", 2, None, 2, 0),
    "S4 p3 m1": ("S4", 3, 1, 4, 2),
    "SL23 p3 m1": ("SL23", 3, 1, 3, 1),
}


def fixture_algebra(name: str) -> GroupAlgebra:
    """A new algebra, with a new registry, of one of POSET_FIXTURES."""
    group_name, p, m, *_ = POSET_FIXTURES[name]
    group = fixture_groups()[group_name]
    return GroupAlgebra(group, splitting_field(p, [group]) if m is None else field_create(p, m))


def inertial_embeddings(inert, emb: SubgroupEmbedding):
    """The inertial group ``inert`` of a block of the normal subgroup of
    ``emb``, as a closure-checked subgroup of the overgroup: (the group,
    the normal subgroup in it, it in the overgroup)."""
    amb = emb.amb
    indices = {amb.mul(rep, h) for rep in inert.stable_coset_reps for h in emb.element_map}
    elems = sorted(amb.elements[i] for i in indices)
    elem_set = set(elems)
    for a in elems:
        for b in elems:
            if perm_compose(a, b) not in elem_set:
                raise GroupError("element set is not closed under composition")
    gens = [e for e in elems if e != perm_identity(amb.degree)] or [perm_identity(amb.degree)]
    group = FiniteGroup(amb.degree, gens, elems, name=f"I({inert.block.label()})")
    return group, SubgroupEmbedding(emb.sub, group), SubgroupEmbedding(group, amb)


def registry_with_syzygies(group: FiniteGroup, field):
    """A fresh registry of the group algebra over ``field``, holding the
    classes it holds once built (the PIMs, the simples and the pieces of
    the split) and then the classes their syzygies register.  Raises
    FieldNotSplittingError when the field does not split the algebra."""
    reg = ModuleRegistry(GroupAlgebra(group, field))
    reg.pim_ids()
    for pos in range(len(reg.entries)):
        homalg.syzygy_ids(reg, pos)
    return reg


def corpus_of(pair_ctx, max_modules=10):
    """Module corpus over the subgroup algebra: simples, projectives,
    radicals, syzygies and a few direct sums."""
    alg = pair_ctx.sub_algebra
    reg = alg.registry
    out = [trivial_module(alg), regular_module(alg)]
    for sid in reg.simple_ids():
        S = reg.module(sid)
        out.append(S)
        om = homalg.syzygy(S)[0]
        if om.dim:
            out.append(om)
            out.append(homalg.syzygy(om)[0])
    for pid in reg.pim_ids():
        P = reg.module(pid)
        out.append(P)
        r, _ = radical(P)
        if r.dim:
            out.append(r)
            t, _ = homalg.top(r)
            out.append(direct_sum(t, P))
    out.append(direct_sum(trivial_module(alg), trivial_module(alg)))
    out.append(direct_sum(trivial_module(alg), regular_module(alg)))
    simples = [reg.module(s) for s in reg.simple_ids()]
    if len(simples) > 1:
        out.append(direct_sum(*simples))
    out.append(
        direct_sum(trivial_module(alg), trivial_module(alg), trivial_module(alg))
    )
    # dedupe by a cheap signature
    seen = set()
    corpus = []
    for m in out:
        if m.dim == 0:
            continue
        key = (m.dim, tuple(sorted(g.charpoly() for g in m.gen_mats)))
        if key not in seen:
            seen.add(key)
            corpus.append(m)
    return corpus[:max_modules]
