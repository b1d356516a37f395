"""The approximation criterion read PIM by PIM, and the exchange theorem.

* ``engine._certify`` splits the cokernel of the minimal left
  add(M)-approximation of each PIM P_S and counts its classes dim S times.
  Over a splitting field the (block) regular module is the sum of dim S
  copies of each P_S, and minimal approximations and their cokernels are
  additive, so this is the multiset of classes of the one cokernel of the
  whole regular module (``ff_oracles.whole_lambda_approximation``).  The
  two are compared, verdict and multiset, on every tau-rigid pair that
  enumerating the fixture posets certifies: the nodes, the exchange
  candidates and the block components, and on every pair (P_q, 0) of the
  whole algebra and of each block.  In a block of two or more simples
  those pairs fail the criterion, with cokernel classes outside add(P_q).
* ``engine._exchange`` checks the exchange theorem (Adachi-Iyama-Reiten,
  Thm 2.30) on every exchange: with the test of X in Fac U negated,
  enumeration raises an ``EngineError`` that names the pair, the removed
  summand and the cokernel classes.
* A disagreement of the two criteria names the pair, the cokernel classes
  and the support, with the message text unchanged.
"""

import collections

import pytest

from corpus import POSET_FIXTURES, fixture_algebra
from ff_oracles import whole_lambda_approximation
from tautilt import engine
from tautilt.engine import (
    CriteriaDisagree,
    EngineError,
    STauTiltPair,
    TiltingContext,
    enumerate_poset,
)


def _certified_pairs(name: str) -> tuple[TiltingContext, list[STauTiltPair]]:
    """The whole-algebra context of a fresh fixture algebra, and every pair
    that enumerating its poset certified, in every context, followed by the
    pairs (P_q, 0) of the whole algebra and of each block."""
    ctx = TiltingContext(fixture_algebra(name))
    seen = []
    real = engine.certify_support_tau_tilting

    def recording(pair):
        seen.append(pair)
        return real(pair)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "certify_support_tau_tilting", recording)
        enumerate_poset(ctx)
    for c in [ctx, *(TiltingContext(ctx.algebra, b) for b in ctx.algebra.blocks())]:
        seen.extend(STauTiltPair(c, (q,), ()) for q in c.pim_ids())
    unique = {(p.ctx.key, p.key): p for p in seen}
    return ctx, list(unique.values())


@pytest.mark.parametrize("name", sorted(POSET_FIXTURES))
def test_pim_by_pim_cokernel_equals_the_whole_regular_module_oracle(name):
    ctx, pairs = _certified_pairs(name)
    compared = 0
    for pair in pairs:
        if not engine._ids_tau_rigid(pair.ctx, pair.m_ids):
            continue
        cert = engine._certify(pair)
        ok, coker_ids = whole_lambda_approximation(pair)
        assert cert.approx_ok == ok, pair
        assert collections.Counter(cert.approx_coker_ids) == collections.Counter(coker_ids), pair
        compared += 1
    assert compared
    # in a block of two or more simples every single-PIM pair fails
    for block in ctx.algebra.blocks():
        bctx = TiltingContext(ctx.algebra, block)
        if bctx.n_simples < 2:
            continue
        for q in bctx.pim_ids():
            cert = engine._certify(STauTiltPair(bctx, (q,), ()))
            assert not cert.approx_ok and not cert.counting_ok
            assert set(cert.approx_coker_ids) - {q}


@pytest.mark.parametrize("name", sorted(POSET_FIXTURES))
def test_exchanges_against_a_negated_fac_test_raise(name, monkeypatch):
    real = engine._generates
    monkeypatch.setattr(engine, "_generates", lambda *args: not real(*args))
    with pytest.raises(EngineError) as info:
        enumerate_poset(TiltingContext(fixture_algebra(name)))
    err = info.value
    assert err.removed in err.pair_key[0]
    assert f"after removing {err.removed} from {err.pair_key}" in str(err)
    assert f"(coker classes {err.coker_ids})" in str(err)


def test_criteria_disagreement_names_pair_cokernel_and_support():
    ctx = TiltingContext(fixture_algebra("S4 p2"))
    top = STauTiltPair(ctx, tuple(ctx.pim_ids()), ())
    with pytest.raises(CriteriaDisagree) as info:
        engine._certificate(top, True, True, (), False, (5, 5))
    err = info.value
    assert (err.pair_key, err.coker_ids, err.support) == (top.key, (5, 5), ())
    assert str(err) == (
        "counting=True vs approximation=False for Pair(P1 + P2) "
        "(coker classes (5, 5), support ())"
    )
