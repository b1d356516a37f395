import pytest

from conftest import EmbeddedPair
from corpus import corpus_of, inertial_embeddings, symmetric_group
from ff_oracles import hom_dim, pair_from_modules, verify_covering_block_sum

from tautilt import homalg
from tautilt.algebra import inertial_group, principal_block
from tautilt.engine import certify_support_tau_tilting, enumerate_poset
from tautilt.functors import (
    FunctorError,
    InductionContext,
    induce,
    is_invariant,
    mackey_decomposition,
    restrict,
    twist,
    verify_main_theorems,
    verify_syzygy_commutation,
)
from tautilt.groups import SubgroupEmbedding
from tautilt.modules import (
    direct_sum,
    is_isomorphic,
    regular_module,
    trivial_module,
    zero_module,
)


# -- induce / restrict basics ---------------------------------------------------


def test_induce_dimension(a4_in_s4):
    k = trivial_module(a4_in_s4.sub_algebra)
    ind = induce(a4_in_s4.ictx, k)
    assert ind.dim == 2
    ind.verify_action()


def test_identity_embedding_induction(c2_in_c4):
    alg = c2_in_c4.sub_algebra
    emb = SubgroupEmbedding(alg.group, alg.group)
    ctx = InductionContext(emb, alg, alg)
    M = regular_module(alg)
    ind = induce(ctx, M)
    ok, _ = is_isomorphic(ind, M)
    assert ok


def test_induction_of_free_is_free(a4_in_s4):
    pc = a4_in_s4
    ind = induce(pc.ictx, regular_module(pc.sub_algebra))
    ok, _ = is_isomorphic(ind, regular_module(pc.amb_algebra))
    assert ok


def test_restrict_trivial(a4_in_s4):
    t = trivial_module(a4_in_s4.amb_algebra)
    res = restrict(a4_in_s4.ictx, t)
    ok, _ = is_isomorphic(res, trivial_module(a4_in_s4.sub_algebra))
    assert ok


def test_restrict_preserves_projectivity(a4_in_s4):
    pc = a4_in_s4
    reg = pc.sub_algebra.registry
    for pid in pc.amb_algebra.registry.pim_ids():
        P = pc.amb_algebra.registry.module(pid)
        res = restrict(pc.ictx, P)
        assert all(reg.is_projective_id(i) for i in reg.ids_of(res))


def test_induce_preserves_projectivity(a4_in_s4):
    pc = a4_in_s4
    amb_reg = pc.amb_algebra.registry
    for pid in pc.sub_algebra.registry.pim_ids():
        P = pc.sub_algebra.registry.module(pid)
        ind = induce(pc.ictx, P)
        assert all(amb_reg.is_projective_id(i) for i in amb_reg.ids_of(ind))


def test_induce_wrong_algebra(a4_in_s4):
    with pytest.raises(FunctorError):
        induce(a4_in_s4.ictx, trivial_module(a4_in_s4.amb_algebra))


# -- twists -----------------------------------------------------------------------


def test_twist_by_identity(a4_in_s4):
    pc = a4_in_s4
    M = pc.sub_algebra.registry.module(pc.sub_algebra.registry.pim_ids()[0])
    tw = twist(pc.ictx, pc.emb.amb.identity, M)
    assert tw.gen_mats == M.gen_mats


def test_twist_preserves_projective_and_indecomposable(a4_in_s4):
    pc = a4_in_s4
    reg = pc.sub_algebra.registry
    rep = [r for r in pc.emb.coset_reps if r != pc.emb.amb.identity][0]
    for pid in reg.pim_ids():
        tw = twist(pc.ictx, rep, reg.module(pid))
        ids = reg.ids_of(tw)
        assert len(ids) == 1
        assert reg.is_projective_id(ids[0])


def test_twist_well_defined_on_cosets(a4_in_s4):
    """Twisting by g*x for g in the subgroup gives an isomorphic module."""
    pc = a4_in_s4
    amb = pc.emb.amb
    rep = [r for r in pc.emb.coset_reps if r != amb.identity][0]
    inner = amb.mul(pc.emb.element_map[3], rep)
    reg = pc.sub_algebra.registry
    for sid in reg.simple_ids():
        M = reg.module(sid)
        a = twist(pc.ictx, rep, M)
        b = twist(pc.ictx, inner, M)
        ok, _ = is_isomorphic(a, b)
        assert ok


def test_twist_permutes_nontrivial_simples_a4(a4_in_s4):
    """An odd permutation swaps the two nontrivial characters of A4."""
    pc = a4_in_s4
    reg = pc.sub_algebra.registry
    s1, s2, s3 = reg.simple_ids()
    rep = [r for r in pc.emb.coset_reps if r != pc.emb.amb.identity][0]
    tw2 = twist(pc.ictx, rep, reg.module(s2))
    ok23, _ = is_isomorphic(tw2, reg.module(s3))
    ok22, _ = is_isomorphic(tw2, reg.module(s2))
    assert ok23 and not ok22


# -- Mackey and adjunction ----------------------------------------------------------


def test_mackey_across_embeddings(a4_in_s4, c3_in_s3, c2_in_c4):
    total = 0
    for pc in (c2_in_c4, c3_in_s3, a4_in_s4):
        for M in corpus_of(pc):
            w = mackey_decomposition(pc.ictx, M)
            assert w.ok, f"Mackey failed for dim {M.dim} over {pc.sub_algebra}"
            total += 1
    assert total >= 20


def test_adjunction_dimensions(a4_in_s4):
    pc = a4_in_s4
    sub_reg = pc.sub_algebra.registry
    amb_reg = pc.amb_algebra.registry
    ms = [sub_reg.module(i) for i in sub_reg.simple_ids()]
    ns = [amb_reg.module(i) for i in amb_reg.simple_ids()]
    ns.append(amb_reg.module(amb_reg.pim_ids()[0]))
    for M in ms:
        for N in ns:
            ind = induce(pc.ictx, M)
            res = restrict(pc.ictx, N)
            d1 = hom_dim(ind, N)
            d2 = hom_dim(M, res)
            d3 = hom_dim(N, ind)
            assert d1 == d2 == d3


def test_induction_transitivity_via_inertial(c3_in_s3):
    """Ind_G^A composed with Ind_A^S agrees with Ind_G^S through any
    intermediate subgroup (here: the inertial group of a character)."""
    pc = c3_in_s3
    alg = pc.sub_algebra
    blocks = alg.blocks()
    omega = [b for b in blocks if not b.is_principal][0]
    mid_alg_group, sub_in_inertial, into_amb = inertial_embeddings(inertial_group(omega, pc.emb), pc.emb)
    from tautilt.algebra import GroupAlgebra
    from tautilt.modules import ModuleRegistry

    mid_alg = GroupAlgebra(mid_alg_group, alg.field)
    ModuleRegistry(mid_alg)
    low = InductionContext(sub_in_inertial, alg, mid_alg)
    high = InductionContext(into_amb, mid_alg, pc.amb_algebra, require_normal=False)
    for M in corpus_of(pc, max_modules=4):
        two_step = induce(high, induce(low, M))
        one_step = induce(pc.ictx, M)
        ok, _ = is_isomorphic(two_step, one_step)
        assert ok


# -- invariance -----------------------------------------------------------------------


def test_trivial_embedding_invariance(c2_in_c4):
    alg = c2_in_c4.sub_algebra
    emb = SubgroupEmbedding(alg.group, alg.group)
    ctx = InductionContext(emb, alg, alg)
    ok, _ = is_invariant(ctx, regular_module(alg))
    assert ok


def test_olive_node_invariant_a4(a4_in_s4, a4_poset):
    """The node [3/2] + [2/3] is fixed by the overgroup twists; the bare
    simple 3 is not."""
    pc = a4_in_s4
    reg = pc.sub_algebra.registry
    s1, s2, s3 = reg.simple_ids()
    two_dim_nodes = [
        n
        for n in a4_poset.nodes
        if len(n.m_ids) == 2
        and all(reg.module(i).dim == 2 for i in n.m_ids)
        and not n.p_ids == ()
    ]
    # the olive node: both summands 2-dimensional, supported away from P1
    olive = None
    for n in a4_poset.nodes:
        if len(n.m_ids) != 2:
            continue
        mods = [reg.module(i) for i in n.m_ids]
        if sorted(m.dim for m in mods) != [2, 2]:
            continue
        tops = set()
        for m in mods:
            t, _ = homalg.top(m)
            tops.update(reg.ids_of(t))
        if tops == {s2, s3}:
            olive = n
    assert olive is not None
    ok, witnesses = is_invariant(pc.ictx, olive.module())
    assert ok and witnesses
    ok3, _ = is_invariant(pc.ictx, reg.module(s3))
    assert not ok3


def test_invariant_node_count_a4(a4_in_s4, a4_poset):
    pc = a4_in_s4
    count = sum(
        1 for n in a4_poset.nodes if is_invariant(pc.ictx, n.module())[0]
    )
    assert count == 8


def test_main_theorems_need_the_poset_of_one_block():
    """The whole-algebra poset of kS4 at p = 3, an algebra of three blocks,
    names no block B: one line says so."""
    pc = EmbeddedPair(symmetric_group(4), symmetric_group(4), 3)
    poset = enumerate_poset(pc.sub_tctx)
    with pytest.raises(FunctorError) as err:
        verify_main_theorems(pc.ictx, poset, enumerate_poset(pc.amb_tctx))
    assert "3 blocks" in str(err.value) and "\n" not in str(err.value)


# -- syzygy/translate commutation (L3.1) -------------------------------------------------


def test_l31_trivial_module(a4_in_s4):
    rep = verify_syzygy_commutation(a4_in_s4.ictx, trivial_module(a4_in_s4.sub_algebra))
    assert rep.passed, rep.to_json()


def test_l31_olive_module(a4_in_s4, a4_poset):
    pc = a4_in_s4
    reg = pc.sub_algebra.registry
    invariants = [
        n for n in a4_poset.nodes if is_invariant(pc.ictx, n.module())[0]
    ]
    olive = [
        n
        for n in invariants
        if len(n.m_ids) == 2 and all(reg.module(i).dim == 2 for i in n.m_ids)
    ]
    assert olive
    rep = verify_syzygy_commutation(pc.ictx, olive[0].module())
    assert rep.passed


def test_l31_projective(a4_in_s4):
    pc = a4_in_s4
    rep = verify_syzygy_commutation(pc.ictx, regular_module(pc.sub_algebra))
    assert rep.passed
    # the translate clause degenerates to 0 vs 0
    tau_clause = [c for c in rep.clauses if "translate" in c.name][0]
    assert tau_clause.details["left_dim"] == 0


# -- covering block sums (P2.11.1) --------------------------------------------------------


def test_covering_block_sum_principal(c3_in_s3):
    pc = c3_in_s3
    B = principal_block(pc.sub_algebra)
    mid_group, sub_in_inertial, _ = inertial_embeddings(inertial_group(B, pc.emb), pc.emb)
    from tautilt.algebra import GroupAlgebra
    from tautilt.modules import ModuleRegistry

    mid_alg = GroupAlgebra(mid_group, pc.sub_algebra.field)
    ModuleRegistry(mid_alg)
    ctx = InductionContext(sub_in_inertial, pc.sub_algebra, mid_alg)
    k = trivial_module(pc.sub_algebra)
    rep = verify_covering_block_sum(ctx, B, k)
    assert rep.passed


def test_covering_block_sum_zero_module(a4_in_s4):
    pc = a4_in_s4
    B = principal_block(pc.sub_algebra)
    mid_group, sub_in_inertial, _ = inertial_embeddings(inertial_group(B, pc.emb), pc.emb)
    from tautilt.algebra import GroupAlgebra
    from tautilt.modules import ModuleRegistry

    mid_alg = GroupAlgebra(mid_group, pc.sub_algebra.field)
    ModuleRegistry(mid_alg)
    ctx = InductionContext(sub_in_inertial, pc.sub_algebra, mid_alg)
    rep = verify_covering_block_sum(ctx, B, zero_module(pc.sub_algebra))
    assert rep.passed


# -- the non-basic induction fixture -------------------------------------------------------


def test_induction_can_be_non_basic(a4_in_s4, a4_poset):
    """Basic module, non-basic induction: the node 1 + [1/2] + [1/3]."""
    pc = a4_in_s4
    reg = pc.sub_algebra.registry
    amb_reg = pc.amb_algebra.registry
    trivial_id = reg.ids_of(trivial_module(pc.sub_algebra))[0]
    node = None
    for n in a4_poset.nodes:
        if len(n.m_ids) == 3 and trivial_id in n.m_ids:
            dims = sorted(reg.module(i).dim for i in n.m_ids)
            if dims == [1, 2, 2]:
                node = n
    assert node is not None
    ind = induce(pc.ictx, node.module())
    dec = amb_reg.decompose(ind)
    mults = dec.multiplicities()
    assert sorted(mults.values()) == [1, 2]
    dims = sorted(amb_reg.module(i).dim for i in mults)
    assert dims == [2, 4]


# -- covering vs restriction equivalence -----------------------------------------


def test_covers_iff_simple_restriction_summand(c3_in_s3, a4_in_s4):
    """Whenever an overgroup block covers a subgroup block, the restriction
    of every simple of the overgroup block has a summand in the subgroup
    block, and conversely."""
    for pc in (c3_in_s3, a4_in_s4):
        sub_reg = pc.sub_algebra.registry
        amb_reg = pc.amb_algebra.registry
        from tautilt.algebra import covers
        from tautilt.modules import lies_in_block

        for bt in pc.amb_algebra.blocks():
            bt_simples = [
                amb_reg.module(s)
                for s in amb_reg.simple_ids()
                if lies_in_block(amb_reg.module(s), bt)
            ]
            for b in pc.sub_algebra.blocks():
                cov = covers(bt, b, pc.emb)
                for S in bt_simples:
                    res = restrict(pc.ictx, S)
                    parts = sub_reg.decompose(res)
                    has_summand = any(
                        lies_in_block(sub_reg.module(pid), b)
                        for pid in parts.part_ids
                    )
                    assert has_summand == cov


def test_twist_block_membership_iff_inertial(c3_in_s3):
    """A twisted block module stays in the block exactly when the twisting
    element stabilizes the block."""
    pc = c3_in_s3
    from tautilt.algebra import inertial_group
    from tautilt.modules import lies_in_block

    alg = pc.sub_algebra
    omega = [b for b in alg.blocks() if not b.is_principal][0]
    inert = inertial_group(omega, pc.emb)
    reg = alg.registry
    omega_simple = [
        reg.module(s)
        for s in reg.simple_ids()
        if lies_in_block(reg.module(s), omega)
    ][0]
    for rep in pc.emb.coset_reps:
        tw = twist(pc.ictx, rep, omega_simple)
        inside = lies_in_block(tw, omega)
        assert inside == (rep in inert.stable_coset_reps)


def test_direct_product_induction_is_tensor():
    """Induction from a direct factor agrees with tensoring by the regular
    module of the other factor."""
    from conftest import make_context
    from corpus import cyclic_group, direct_product, symmetric_group
    from ff_oracles import tensor_with_regular
    from tautilt.algebra import GroupAlgebra, splitting_field
    from tautilt.engine import TiltingContext
    from tautilt.modules import ModuleRegistry

    prod, e1, e2 = direct_product(symmetric_group(3), cyclic_group(2))
    field = splitting_field(2, [prod])
    sub_alg = GroupAlgebra(e1.sub, field)
    amb_alg = GroupAlgebra(prod, field)
    ModuleRegistry(sub_alg)
    ModuleRegistry(amb_alg)
    ictx = InductionContext(e1, sub_alg, amb_alg)
    second = [
        pos
        for pos, g in enumerate(prod.generators)
        if g in set(e2.sub.generators)
    ]
    reg = sub_alg.registry
    for sid in reg.simple_ids():
        M = reg.module(sid)
        ind = induce(ictx, M)
        tens = tensor_with_regular(ictx, second, M)
        assert ind.dim == tens.dim == 2 * M.dim
        ok, _ = is_isomorphic(ind, tens)
        assert ok


def test_covering_block_sum_a4_in_s4(a4_in_s4):
    """Single-block case: the induction of any block module lands entirely
    in the unique covering block."""
    pc = a4_in_s4
    B = principal_block(pc.sub_algebra)
    from tautilt.algebra import GroupAlgebra, inertial_group
    from tautilt.modules import ModuleRegistry

    mid_group, sub_in_inertial, _ = inertial_embeddings(inertial_group(B, pc.emb), pc.emb)
    mid_alg = GroupAlgebra(mid_group, pc.sub_algebra.field)
    ModuleRegistry(mid_alg)
    ctx = InductionContext(sub_in_inertial, pc.sub_algebra, mid_alg)
    rep = verify_covering_block_sum(ctx, B, trivial_module(pc.sub_algebra))
    assert rep.passed
    assert len(rep.clauses) == 1  # one block, whole module inside it
