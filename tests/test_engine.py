import pytest

from ff_oracles import pair_from_modules
from tautilt import homalg
from tautilt.engine import (
    CriteriaDisagree,
    MutationDirectionError,
    PosetCapExceeded,
    STauTiltPair,
    TiltingContext,
    certify_support_tau_tilting,
    delta_pair,
    enumerate_poset,
    geq,
    is_tau_rigid,
    mutate,
)
from tautilt.modules import direct_sum, regular_module, trivial_module


@pytest.fixture(scope="session")
def ctx_c2(c2_gf2):
    return TiltingContext(c2_gf2)


@pytest.fixture(scope="session")
def ctx_s3(s3_gf3):
    return TiltingContext(s3_gf3)


@pytest.fixture(scope="session")
def ctx_s4(s4_gf4):
    return TiltingContext(s4_gf4)


@pytest.fixture(scope="session")
def poset_c2(ctx_c2):
    return enumerate_poset(ctx_c2)


@pytest.fixture(scope="session")
def poset_s3(ctx_s3):
    return enumerate_poset(ctx_s3)


@pytest.fixture(scope="session")
def poset_s4(ctx_s4):
    return enumerate_poset(ctx_s4)


# -- tau-rigidity ----------------------------------------------------------------


def test_projectives_are_tau_rigid(ctx_s4, s4_gf4):
    assert is_tau_rigid(ctx_s4, regular_module(s4_gf4))


def test_simple3_of_a4_tau_rigid(a4_gf4):
    ctx = TiltingContext(a4_gf4)
    S3 = ctx.registry.module(ctx.registry.simple_ids()[2])
    assert is_tau_rigid(ctx, S3)


def test_trivial_of_c2_not_tau_rigid(ctx_c2, c2_gf2):
    assert not is_tau_rigid(ctx_c2, trivial_module(c2_gf2))


# -- certification ----------------------------------------------------------------


def test_top_pair_certifies(ctx_s4):
    top = STauTiltPair(ctx_s4, tuple(sorted(ctx_s4.pim_ids())), ())
    cert = certify_support_tau_tilting(top)
    assert cert.valid
    assert cert.counting_ok and cert.approx_ok


def test_bottom_pair_certifies(ctx_s4):
    bottom = STauTiltPair(ctx_s4, (), tuple(sorted(ctx_s4.pim_ids())))
    cert = certify_support_tau_tilting(bottom)
    assert cert.valid


def test_wrong_support_fails(ctx_s4):
    # top module with a projective declared in the support part
    bad = STauTiltPair(ctx_s4, tuple(sorted(ctx_s4.pim_ids())), (ctx_s4.pim_ids()[0],))
    cert = certify_support_tau_tilting(bad)
    assert not cert.valid
    assert not cert.hom_pm_zero or not cert.pair_counting_ok


def test_non_rigid_module_fails(ctx_c2, c2_gf2):
    pair = pair_from_modules(ctx_c2, trivial_module(c2_gf2))
    cert = certify_support_tau_tilting(pair)
    assert not cert.tau_rigid and not cert.valid


# -- small posets ------------------------------------------------------------------


def test_poset_c2(poset_c2):
    assert poset_c2.n_nodes == 2
    assert poset_c2.n_edges == 1
    assert poset_c2.top_index != poset_c2.bottom_index


def test_poset_c3_p3():
    from conftest import make_context
    from corpus import cyclic_group

    ctx = TiltingContext(make_context(cyclic_group(3), 3, 1))
    poset = enumerate_poset(ctx)
    assert poset.n_nodes == 2
    assert poset.n_edges == 1


def test_poset_c4_p2(c4_gf2):
    poset = enumerate_poset(TiltingContext(c4_gf2))
    assert poset.n_nodes == 2


def test_poset_s3_p3(poset_s3):
    """Two chains of length 3 from top to bottom: six nodes, six arrows."""
    assert poset_s3.n_nodes == 6
    assert poset_s3.n_edges == 6
    # structure: top and bottom plus two 3-element chains
    tops = poset_s3.maxima()
    bottoms = poset_s3.minima()
    assert tops == [poset_s3.top_index]
    assert bottoms == [poset_s3.bottom_index]
    assert len(poset_s3.successors(poset_s3.top_index)) == 2


def test_poset_s3_expected_nodes(ctx_s3, poset_s3):
    """Independent hand enumeration: the certified pairs are exactly
    (L, 0), (P(1)+1, 0), (P(2)+2, 0), (1, P(2)), (2, P(1)), (0, L)."""
    reg = ctx_s3.registry
    s1, s2 = ctx_s3.simple_ids()
    p1, p2 = ctx_s3.pim_ids()
    expected = {
        (tuple(sorted((p1, p2))), ()),
        (tuple(sorted((p1, s1))), ()),
        (tuple(sorted((p2, s2))), ()),
        ((s1,), (p2,)),
        ((s2,), (p1,)),
        ((), tuple(sorted((p1, p2)))),
    }
    assert {p.key for p in poset_s3.nodes} == expected


def test_poset_covering_relations_match(poset_s3, poset_c2):
    for poset in (poset_s3, poset_c2):
        assert poset.covering_edges_from_order() == poset.edges


def test_poset_s4_matches_figure(poset_s4):
    assert poset_s4.n_nodes == 8
    assert poset_s4.n_edges == 8
    assert poset_s4.covering_edges_from_order() == poset_s4.edges
    assert poset_s4.is_connected_from_top()
    assert poset_s4.maxima() == [poset_s4.top_index]
    assert poset_s4.minima() == [poset_s4.bottom_index]


def test_poset_node_cap():
    from conftest import make_context
    from corpus import symmetric_group

    ctx = TiltingContext(make_context(symmetric_group(3), 3, 1))
    with pytest.raises(PosetCapExceeded):
        enumerate_poset(ctx, node_cap=3)


# -- order --------------------------------------------------------------------------


def test_top_geq_everything(poset_s4):
    top = poset_s4.nodes[poset_s4.top_index]
    for node in poset_s4.nodes:
        assert geq(top, node)


def test_everything_geq_bottom(poset_s4):
    bottom = poset_s4.nodes[poset_s4.bottom_index]
    for node in poset_s4.nodes:
        assert geq(node, bottom)


def test_geq_partial_order_axioms(poset_s3, poset_s4):
    for poset in (poset_s3, poset_s4):
        ge = poset.order_matrix()
        n = len(poset.nodes)
        for i in range(n):
            assert ge[i][i]
            for j in range(n):
                if ge[i][j] and ge[j][i]:
                    assert i == j
                for k in range(n):
                    if ge[i][j] and ge[j][k]:
                        assert ge[i][k]


def test_geq_path_example_s4(poset_s4):
    """Following any directed path yields comparability."""
    for a, b in poset_s4.edges:
        assert geq(poset_s4.nodes[a], poset_s4.nodes[b])
        assert not geq(poset_s4.nodes[b], poset_s4.nodes[a])


# -- mutation --------------------------------------------------------------------------


def test_mutation_involution_everywhere(poset_s3):
    for node in poset_s3.nodes:
        n_summands = len(node.m_ids) + len(node.p_ids)
        for pos in range(n_summands):
            res = mutate(node, pos)
            assert res.pair.key != node.key
            # mutate back at the exchanged-in summand
            part, new_id = res.exchanged_in
            ids = list(res.pair.m_ids) + list(res.pair.p_ids)
            back_pos = (
                res.pair.m_ids.index(new_id)
                if part == "m"
                else len(res.pair.m_ids) + res.pair.p_ids.index(new_id)
            )
            back = mutate(res.pair, back_pos)
            assert back.pair.key == node.key
            # the two results are comparable in opposite directions
            if res.direction == "down":
                assert geq(node, res.pair)
            else:
                assert geq(res.pair, node)


def test_mutation_top_neighbors_count(poset_s4):
    top = poset_s4.nodes[poset_s4.top_index]
    neighbors = set()
    for pos in range(len(top.m_ids)):
        res = mutate(top, pos, direction="down")
        neighbors.add(res.pair.key)
    assert len(neighbors) == len(top.m_ids)
    assert neighbors == {
        poset_s4.nodes[b].key for a, b in poset_s4.edges if a == poset_s4.top_index
    }


def test_mutation_direction_error(poset_c2):
    bottom = poset_c2.nodes[poset_c2.bottom_index]
    with pytest.raises(MutationDirectionError):
        mutate(bottom, 0, direction="down")
    res = mutate(bottom, 0, direction="up")
    assert res.pair.key == poset_c2.nodes[poset_c2.top_index].key


# -- duality ----------------------------------------------------------------------------


def test_delta_is_anti_automorphism(poset_s3):
    nodes = poset_s3.nodes
    images = {}
    for node in nodes:
        img = delta_pair(node)
        assert certify_support_tau_tilting(img).valid
        assert delta_pair(img).key == node.key
        images[node.key] = img
    keys = {p.key for p in nodes}
    assert {img.key for img in images.values()} == keys
    for a in nodes:
        for b in nodes:
            if geq(a, b):
                assert geq(images[b.key], images[a.key])


def test_delta_swaps_top_bottom(poset_s4):
    top = poset_s4.nodes[poset_s4.top_index]
    bottom = poset_s4.nodes[poset_s4.bottom_index]
    assert delta_pair(top).key == bottom.key
    assert delta_pair(bottom).key == top.key


# -- dual certification on every node (spec-level invariant) ------------------------------


def test_both_criteria_agree_everywhere(poset_s3, poset_s4, poset_c2):
    # certification raises CriteriaDisagree on mismatch, so a clean pass of
    # the full certificate set is the assertion
    for poset in (poset_s3, poset_s4, poset_c2):
        for node in poset.nodes:
            cert = certify_support_tau_tilting(node)
            assert cert.valid
            assert cert.counting_ok == cert.approx_ok


def test_figure_node_a4(a4_gf4):
    """The pair [3/1] + [3/2] + P3 over kA4 certifies (a figure node)."""
    from corpus import radical, spanned_submodule
    from tautilt.modules import quotient_module

    ctx = TiltingContext(a4_gf4)
    reg = ctx.registry
    p3 = ctx.pim_ids()[2]
    P3 = reg.module(p3)
    rad, rad_inc = radical(P3)
    t, q_r = homalg.top(rad)
    dec = reg.decompose(t)
    assert len(dec.parts) == 2
    quots = []
    for part, inc in dec.parts:
        sol = q_r.solve(inc)  # a radical vector lying over this top component
        assert sol is not None
        _, basis = spanned_submodule(P3, rad_inc @ sol)
        q, _ = quotient_module(P3, basis)
        quots.append(q)
    assert sorted(q.dim for q in quots) == [2, 2]
    M = direct_sum(quots[0], quots[1], P3)
    pair = pair_from_modules(ctx, M)
    assert len(pair.m_ids) == 3
    cert = certify_support_tau_tilting(pair)
    assert cert.valid


def test_contexts_of_one_block_share_certificates(s4_gf4):
    block = s4_gf4.blocks()[0]
    first, second = TiltingContext(s4_gf4, block), TiltingContext(s4_gf4, block)
    top = STauTiltPair(first, tuple(first.pim_ids()), ())
    cert = certify_support_tau_tilting(top)
    assert certify_support_tau_tilting(STauTiltPair(second, top.m_ids, ())) is cert
    assert geq(top, STauTiltPair(second, top.m_ids, ()))
