"""Deterministic groups, module corpus and random base changes shared by
the suites."""

import functools

from tautilt import homalg
from tautilt.ff import FFMatrix
from tautilt.groups import (
    alternating_group,
    cyclic_group,
    direct_product,
    group_from_generators,
    symmetric_group,
)
from tautilt.modules import direct_sum, regular_module, trivial_module


def sl23():
    """SL(2,3) acting on the 8 nonzero vectors of GF(3)^2."""
    vecs = [(a, b) for a in range(3) for b in range(3) if (a, b) != (0, 0)]

    def perm(M):
        return [
            vecs.index(((M[0][0] * x + M[0][1] * y) % 3, (M[1][0] * x + M[1][1] * y) % 3))
            for x, y in vecs
        ]

    return group_from_generators([perm([[1, 1], [0, 1]]), perm([[0, 2], [1, 0]])], name="SL23")


def random_invertible(field, rng, n):
    """A uniformly random invertible n x n matrix over field."""
    while True:
        T = FFMatrix(field, rng.integers(0, field.q, size=(n, n)))
        if T.is_invertible():
            return T


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


def corpus_of(pair_ctx, max_modules=10):
    """Module corpus over the subgroup algebra: simples, projectives,
    radicals, syzygies and a few direct sums."""
    alg = pair_ctx.sub_algebra
    reg = alg.registry
    out = [trivial_module(alg), regular_module(alg)]
    for sid in reg.simple_ids():
        S = reg.module(sid)
        out.append(S)
        om = homalg.syzygy_module(S)
        if om.dim:
            out.append(om)
            out.append(homalg.syzygy_module(om))
    for pid in reg.pim_ids():
        P = reg.module(pid)
        out.append(P)
        r, _ = homalg.radical(P)
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
