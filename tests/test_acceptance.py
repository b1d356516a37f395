"""Acceptance suite: every criterion runs at its stated tolerance and
prints one PASS/FAIL line (visible with `pytest -s tests/test_acceptance.py`).
"""

import json
import time

import pytest

from conftest import EmbeddedPair, make_context
from corpus import (
    alternating_group,
    corpus_of,
    cyclic_group,
    direct_product,
    radical,
    spanned_submodule,
    symmetric_group,
)
from ff_oracles import certified_pair, nakayama_tau, pair_from_modules, radical_series, tau
from tautilt import homalg
from tautilt.algebra import GroupAlgebra
from tautilt.engine import (
    TiltingContext,
    certify_support_tau_tilting,
    enumerate_poset,
    geq,
)
from tautilt.functors import (
    InductionContext,
    induce,
    is_invariant,
    mackey_decomposition,
    verify_main_theorems,
    verify_syzygy_commutation,
)
from tautilt.groups import group_from_generators, perm_from_cycles
from tautilt.modules import (
    ModuleRegistry,
    direct_sum,
    is_isomorphic,
    quotient_module,
    trivial_module,
)


def report(n, ok, detail):
    line = f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def two_dim_quotients_of_pim(registry, pim_id):
    """The uniserial length-2 quotients of a PIM whose heart has two
    distinct simple components (radical-layer pullbacks)."""
    P = registry.module(pim_id)
    rad, rad_inc = radical(P)
    t, q_r = homalg.top(rad)
    dec = registry.decompose(t)
    out = []
    for part, inc in dec.parts:
        sol = q_r.solve(inc)
        assert sol is not None
        _, basis = spanned_submodule(P, rad_inc @ sol)
        q, _ = quotient_module(P, basis)
        out.append(q)
    return out


def test_acceptance_1_s4_poset_matches_figure(capsys):
    """sTau-tilt of kS4 at p=2: 8 nodes, 8 edges, the two-chain Hasse
    diagram, within 10 seconds."""
    t0 = time.time()
    algebra = make_context(symmetric_group(4), 2)
    ctx = TiltingContext(algebra)
    poset = enumerate_poset(ctx)
    elapsed = time.time() - t0
    reg = ctx.registry
    ok = poset.n_nodes == 8 and poset.n_edges == 8
    # node identification: a = top; b, c its covers with c containing the
    # projective cover of the trivial module; chains b->d->e->0, c->f->g->0
    a = poset.top_index
    zero = poset.bottom_index
    p1 = reg.pim_of_simple(reg.simple_ids()[0])
    covers_of_a = poset.successors(a)
    ok = ok and len(covers_of_a) == 2
    c = next(i for i in covers_of_a if p1 in poset.nodes[i].m_ids)
    b = next(i for i in covers_of_a if i != c)
    (d,) = poset.successors(b)
    (e,) = poset.successors(d)
    (f,) = poset.successors(c)
    (g,) = poset.successors(f)
    expected = sorted(
        [(a, b), (a, c), (b, d), (d, e), (e, zero), (c, f), (f, g), (g, zero)]
    )
    ok = ok and poset.edges == expected
    # figure-level structure of the chain nodes
    node_e, node_g = poset.nodes[e], poset.nodes[g]
    ok = ok and len(node_e.m_ids) == 1 and node_e.p_ids == (p1,)
    layers_e = [
        x.dim for x in radical_series(reg.module(node_e.m_ids[0]))
    ]
    ok = ok and layers_e == [2, 2]  # the module 2'/2'
    layers_g = [
        x.dim for x in radical_series(reg.module(node_g.m_ids[0]))
    ]
    ok = ok and layers_g == [1, 1]  # the module 1'/1'
    ok = ok and set(poset.nodes[d].m_ids) > set(node_e.m_ids)
    ok = ok and set(poset.nodes[f].m_ids) > set(node_g.m_ids)
    ok = ok and elapsed < 10.0
    report(1, ok, f"kS4 poset: {poset.n_nodes} nodes, {poset.n_edges} edges, "
                  f"figure-3 shape matched, {elapsed:.2f}s")


def test_acceptance_2_a4_poset(capsys):
    """sTau-tilt of kA4 at p=2 over GF(4): 32 nodes, 3 arrows out of the
    top, recomputed covering relations connected with unique extremes,
    within 10 minutes."""
    t0 = time.time()
    algebra = make_context(alternating_group(4), 2)
    assert algebra.field.q == 4
    ctx = TiltingContext(algebra)
    poset = enumerate_poset(ctx)
    covering = poset.covering_edges_from_order()
    elapsed = time.time() - t0
    ok = poset.n_nodes == 32
    ok = ok and len(poset.successors(poset.top_index)) == 3
    ok = ok and covering == poset.edges
    ok = ok and poset.is_connected_from_top()
    ok = ok and poset.maxima() == [poset.top_index]
    ok = ok and poset.minima() == [poset.bottom_index]
    ok = ok and elapsed < 600.0
    report(2, ok, f"kA4 poset: {poset.n_nodes} nodes, {poset.n_edges} covering "
                  f"relations (recomputation agrees), {elapsed:.1f}s")


def test_acceptance_3_invariant_bijection(a4_in_s4, a4_poset, s4_poset):
    """Exactly 8 invariant nodes, mapped bijectively and order-isomorphically
    onto sTau-tilt kS4 (both order directions on all 28 pairs)."""
    pc = a4_in_s4
    rep = verify_main_theorems(pc.ictx, a4_poset, s4_poset)
    clauses = {c.name: c for c in rep.clauses}
    n_inv = clauses["invariant_nodes_found"].details["count"]
    ok = n_inv == 8
    ok = ok and clauses["inductions_certify"].passed
    ok = ok and clauses["order_preserved_and_reflected"].passed
    ok = ok and clauses["induced_map_injective"].passed
    ok = ok and clauses["induced_map_image"].details.get("onto_target_poset") is True
    # recount the two-directional order checks pairwise, on each invariant
    # node and the pair of its induction
    nodes = rep.invariant_nodes
    imgs = [certified_pair(pc.amb_tctx, induce(pc.ictx, n.module())) for n in nodes]
    pairs = 0
    order_ok = True
    for i in range(len(imgs)):
        for j in range(i + 1, len(imgs)):
            fwd = geq(nodes[i], nodes[j]) == geq(imgs[i], imgs[j])
            bwd = geq(nodes[j], nodes[i]) == geq(imgs[j], imgs[i])
            order_ok = order_ok and fwd and bwd
            pairs += 1
    ok = ok and order_ok and pairs == 28
    report(3, ok, f"{n_inv} invariant nodes map bijectively onto sTau-tilt kS4; "
                  f"order preserved+reflected on {pairs} pairs")


def test_acceptance_4_non_basic_induction(a4_in_s4):
    """Ind of (trivial + both length-2 tops-of-P(trivial)) decomposes with
    one summand of multiplicity two: dims 2 + 4 + 4."""
    pc = a4_in_s4
    reg = pc.sub_algebra.registry
    amb_reg = pc.amb_algebra.registry
    p1 = reg.pim_of_simple(reg.simple_ids()[0])
    quots = two_dim_quotients_of_pim(reg, p1)
    ok = sorted(q.dim for q in quots) == [2, 2]
    M = direct_sum(trivial_module(pc.sub_algebra), *quots)
    # sanity: this is a poset node (a valid support pair)
    pair = pair_from_modules(TiltingContext(pc.sub_algebra), M)
    ok = ok and len(pair.m_ids) == 3 and certify_support_tau_tilting(pair).valid
    ind = induce(pc.ictx, M)
    dec = amb_reg.decompose(ind)
    mults = dec.multiplicities()
    dims = sorted((amb_reg.module(i).dim, mult) for i, mult in mults.items())
    ok = ok and dims == [(2, 1), (4, 2)]
    report(4, ok, f"Ind(1 + [1/2] + [1/3]) = {dims}: one class with multiplicity 2")


def test_acceptance_5_mackey_suite(a4_in_s4, c3_in_s3, c2_in_c4):
    """Restriction of induction equals the twist sum, with verified
    isomorphism witnesses, for at least 20 corpus modules."""
    total = 0
    failures = 0
    for pc in (c2_in_c4, c3_in_s3, a4_in_s4):
        for M in corpus_of(pc):
            w = mackey_decomposition(pc.ictx, M)
            total += 1
            if not (w.ok and w.left_dim == w.right_dim):
                failures += 1
    ok = total >= 20 and failures == 0
    report(5, ok, f"Mackey witnesses verified for {total} modules, {failures} failures")


def test_acceptance_6_translate_consistency(a4_in_s4, c3_in_s3, c2_in_c4, s3_gf3):
    """Double-syzygy translate agrees with the Nakayama-presentation
    translate on every corpus module of dim <= 24; translate of any
    projective is zero."""
    checked = 0
    for pc in (c2_in_c4, c3_in_s3, a4_in_s4):
        for M in corpus_of(pc):
            if M.dim <= 24:
                t1 = tau(M)
                t2 = nakayama_tau(M)
                ok, _ = is_isomorphic(t1, t2)
                assert ok, f"translate mismatch at dim {M.dim}"
                checked += 1
    for alg in (a4_in_s4.sub_algebra, a4_in_s4.amb_algebra, s3_gf3):
        reg = alg.registry
        for pid in reg.pim_ids():
            assert tau(reg.module(pid)).dim == 0
        from tautilt.modules import regular_module

        assert tau(regular_module(alg)).dim == 0
    report(6, True, f"translate pipelines agree on {checked} corpus modules; "
                    f"translate of projectives is zero")


def test_acceptance_7_syzygy_commutation_suite(a4_in_s4, a4_poset):
    """All four commutation clauses hold with witnesses for every
    overgroup-invariant node of the kA4 poset."""
    pc = a4_in_s4
    invariant = [
        n for n in a4_poset.nodes if is_invariant(pc.ictx, n.module())[0]
    ]
    ok = len(invariant) == 8
    clause_count = 0
    witness_count = 0
    for node in invariant:
        rep = verify_syzygy_commutation(pc.ictx, node.module())
        ok = ok and rep.passed and len(rep.clauses) == 4
        clause_count += sum(1 for c in rep.clauses if c.passed)
        for c in rep.clauses:
            if "witness" in c.details:
                assert c.details["witness"] is not None
                witness_count += 1
            if "witnesses" in c.details:
                witness_count += len(c.details["witnesses"])
                # nonzero modules must carry one witness per nontrivial coset
                if c.details["dim"]:
                    assert len(c.details["witnesses"]) == 1
    report(7, ok, f"{clause_count} clauses verified across {len(invariant)} "
                  f"invariant nodes ({witness_count} stored witnesses)")


def test_acceptance_8_dual_certification(a4_poset, s4_poset, c2_gf2, s3_gf3, c4_gf2):
    """Counting and approximation criteria agree on every node of every
    fixture poset (certification raises on disagreement)."""
    posets = [a4_poset, s4_poset]
    for alg in (c2_gf2, s3_gf3, c4_gf2):
        posets.append(enumerate_poset(TiltingContext(alg)))
    c3 = make_context(cyclic_group(3), 3)
    posets.append(enumerate_poset(TiltingContext(c3)))
    nodes = 0
    for poset in posets:
        for node in poset.nodes:
            cert = certify_support_tau_tilting(node)
            assert cert.valid and cert.counting_ok == cert.approx_ok
            nodes += 1
    report(8, True, f"criteria agree on all {nodes} nodes across {len(posets)} posets")


def test_acceptance_9_direct_product(s3xc3):
    """Every node of sTau-tilt kS3 at p=3 induces to a certified pair over
    the product with C3."""
    from tautilt.engine import STauTiltPair

    pc = s3xc3
    poset = enumerate_poset(pc.sub_tctx)
    assert poset.n_nodes == 6
    certified = 0
    for node in poset.nodes:
        M = node.module()
        inv, _ = is_invariant(pc.ictx, M)
        assert inv  # conjugation is inner on the first factor
        ind = induce(pc.ictx, M)
        sketch = pair_from_modules(pc.amb_tctx, ind)
        support = certify_support_tau_tilting(sketch).support_pims
        cert = certify_support_tau_tilting(
            STauTiltPair(pc.amb_tctx, sketch.m_ids, support)
        )
        assert cert.valid
        certified += 1
    report(9, True, f"all {certified} nodes of sTau-tilt kS3 induce to certified "
                    f"pairs over k[S3xC3]")


@pytest.fixture(scope="session")
def s3xc3():
    prod, e1, e2 = direct_product(symmetric_group(3), cyclic_group(3))

    class ProductPair:
        pass

    pc = ProductPair()
    field_p = 3
    from tautilt.algebra import splitting_field

    field = splitting_field(field_p, [prod])
    pc.emb = e1
    pc.sub_algebra = GroupAlgebra(e1.sub, field)
    pc.amb_algebra = GroupAlgebra(prod, field)
    ModuleRegistry(pc.sub_algebra)
    ModuleRegistry(pc.amb_algebra)
    pc.ictx = InductionContext(pc.emb, pc.sub_algebra, pc.amb_algebra)
    pc.sub_tctx = TiltingContext(pc.sub_algebra)
    pc.amb_tctx = TiltingContext(pc.amb_algebra)
    return pc


def test_acceptance_10_cli_determinism(tmp_path, monkeypatch, capsys):
    """Two consecutive stt runs on A4 produce byte-identical DOT and JSON."""
    from tautilt.cli import main

    a4 = tmp_path / "A4.json"
    a4.write_text(json.dumps({"degree": 4, "generators": [[[1, 2, 3]], [[1, 2], [3, 4]]]}))
    monkeypatch.setenv("TAUTILT_CACHE", str(tmp_path / "cache"))
    blobs = []
    for i in range(2):
        dot = tmp_path / f"run{i}.dot"
        js = tmp_path / f"run{i}.json"
        code = main(
            ["stt", str(a4), "--p", "2", "--dot", str(dot), "--json", str(js)]
        )
        capsys.readouterr()
        assert code == 0
        blobs.append((dot.read_bytes(), js.read_bytes()))
    ok = blobs[0] == blobs[1]
    report(10, ok, f"byte-identical artifacts across runs "
                   f"({len(blobs[0][0])} DOT bytes, {len(blobs[0][1])} JSON bytes)")
