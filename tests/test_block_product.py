"""The poset of a group algebra is the product of its block posets, one
factor for an algebra of one block, and the engine computes it as one.

* Every certificate of a whole-algebra pair, combined from its block
  components, equals the one ``engine._certify`` computes on the whole
  algebra, field by field: on every enumerated node, on every candidate
  that a block exchange certified, with the other blocks' summands put
  back, and on every node with one more registered class.
* The node count is the product of the block counts n_b, and the edge
  count is the sum over b of e_b times the product of the other n_c, with
  n_b and e_b read from ``stt --block b``.
* The exchanges computed are those of the block posets, one per (block
  node, module summand); S3xC3 over GF(4) has 6 blocks of 2 nodes and 6.
* Mutating back at the exchanged summand returns the node, in the other
  direction.
"""

import collections
import contextlib
import dataclasses
import io
import json
import math

import pytest

from corpus import cyclic_group, direct_product, fixture_groups, symmetric_group
from tautilt import engine
from tautilt.algebra import GroupAlgebra, splitting_field
from tautilt.cli import main
from tautilt.engine import STauTiltPair, TiltingContext, enumerate_poset, mutate
from tautilt.ff import field_create
from tautilt.groups import group_to_json

# name -> (group, p, m), m None for the splitting field.  kS3xC2 over GF(3)
# is two blocks like kS3, so one block's component can fail to be
# tau-rigid while the other's approximation has a cokernel.  kS4 over
# GF(2) is one block, whose context certifies for the whole algebra.
FIXTURES = {
    "S3xC3 p2": ("S3xC3", 2, None),
    "S4 p3 m1": ("S4", 3, 1),
    "SL23 p3 m1": ("SL23", 3, 1),
    "S3 GF(4)": ("S3", 2, 2),
    "C3 GF(4)": ("C3", 2, 2),
    "S3xC2 p3 m1": ("S3xC2", 3, 1),
    "S4 p2 m1": ("S4", 2, 1),
}


def _group(name: str):
    if name == "S3xC2":
        return direct_product(symmetric_group(3), cyclic_group(2))[0]
    return fixture_groups()[name]


def _context(name: str) -> TiltingContext:
    group, p, m = FIXTURES[name]
    group = _group(group)
    field = splitting_field(p, [group]) if m is None else field_create(p, m)
    return TiltingContext(GroupAlgebra(group, field))


@pytest.fixture(scope="module", params=sorted(FIXTURES))
def enumerated(request):
    """(name, poset, certified candidates) of a fresh whole algebra: the
    candidates are the block pairs that the exchanges certified, each with
    the rest of the node it was mutated from put back."""
    ctx = _context(request.param)
    blocks = ctx.algebra.blocks()
    assert [b.key for b in ctx.factors()] == [b.index for b in blocks]
    # kS4 over GF(2) is one block: its product has one factor
    assert (len(blocks) == 1) == (request.param == "S4 p2 m1")
    candidates = []
    node = []
    real_down, real_certify = engine._down_mutation, engine.certify_support_tau_tilting

    def down(pair, removed):
        node.append(pair)
        try:
            return real_down(pair, removed)
        finally:
            node.pop()

    def certify(pair):
        if node and pair.ctx.key is not None:
            rest = _restrict_out(node[-1], pair.ctx.key)
            candidates.append(
                STauTiltPair(ctx, pair.m_ids + rest.m_ids, pair.p_ids + rest.p_ids)
            )
        return real_certify(pair)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_down_mutation", down)
        mp.setattr(engine, "certify_support_tau_tilting", certify)
        poset = enumerate_poset(ctx)
    return request.param, poset, candidates


def _restrict_out(pair, block_index):
    """The summands of a whole-algebra pair outside one block."""
    def keep(ids):
        return tuple(i for i in ids if pair.ctx.registry.block_of(i) != block_index)

    return STauTiltPair(pair.ctx, keep(pair.m_ids), keep(pair.p_ids))


def _fields(cert):
    out = dataclasses.asdict(cert)
    out["approx_coker_ids"] = collections.Counter(out["approx_coker_ids"])
    return out


def test_product_certificates_equal_the_whole_algebra_oracle(enumerated):
    name, poset, candidates = enumerated
    assert candidates
    # a block of two simples has candidates that fail; a block of one
    # simple has one candidate per exchange
    if name in ("S4 p3 m1", "S3xC2 p3 m1", "S4 p2 m1"):
        assert any(not engine.certify_support_tau_tilting(c).valid for c in candidates)
    # and every node with one more class: some of these are not tau-rigid in
    # one block while another block has a cokernel, or have homs from the
    # support to the module
    reg = poset.ctx.registry
    grown = [
        STauTiltPair(poset.ctx, node.m_ids + (x,), node.p_ids)
        for node in poset.nodes
        for x in range(len(reg.entries))
    ]
    for pair in poset.nodes + candidates + grown:
        combined = engine.certify_support_tau_tilting(pair)
        assert _fields(combined) == _fields(engine._certify(pair)), pair


def _block_run(name: str, block: int, tmp_path) -> dict:
    """The JSON of ``stt --block block`` on the fixture: a fresh algebra,
    without the cache."""
    group, p, m = FIXTURES[name]
    group_file = tmp_path / f"{group}.json"
    group_file.write_text(json.dumps(group_to_json(_group(group))))
    out = tmp_path / f"block{block}.json"
    argv = ["stt", str(group_file), "--p", str(p), "--block", str(block),
            "--json", str(out), "--no-cache"]
    if m is not None:
        argv += ["--m", str(m)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    return json.loads(out.read_text())


def test_counts_are_those_of_the_product_of_the_block_posets(enumerated, tmp_path):
    name, poset, _ = enumerated
    ctx = poset.ctx
    runs = [_block_run(name, b, tmp_path) for b in range(len(ctx.factors()))]
    n = [r["n_nodes"] for r in runs]
    e = [r["n_edges"] for r in runs]
    assert poset.n_nodes == math.prod(n)
    assert poset.n_edges == sum(
        e[b] * math.prod(n[c] for c in range(len(n)) if c != b) for b in range(len(n))
    )
    exchanges = [k for k in ctx.registry._tables["exchange"] if k[0] is not None]
    assert len(exchanges) == sum(len(node["m_ids"]) for r in runs for node in r["nodes"])
    if name == "S3xC3 p2":
        assert len(exchanges) == 6


@pytest.mark.parametrize("name", ["S3xC3 p2", "S4 p3 m1"])
def test_mutating_back_at_the_exchanged_summand_returns_the_node(name):
    poset = enumerate_poset(_context(name))
    flip = {"down": "up", "up": "down"}
    for node in poset.nodes:
        for i in range(len(node.m_ids) + len(node.p_ids)):
            there = mutate(node, i)
            part, idx = there.exchanged_in
            new = there.pair
            j = new.m_ids.index(idx) if part == "m" else len(new.m_ids) + new.p_ids.index(idx)
            back = mutate(new, j)
            assert back.pair.key == node.key
            assert back.direction == flip[there.direction]
            assert back.exchanged_in == there.exchanged_out
