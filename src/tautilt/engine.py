"""Support tau-tilting pairs: certification, order, mutation, enumeration.

A pair is stored as sorted tuples of registry ids (basic by construction).
Certification runs two independent checks and insists they agree:

* counting: a tau-rigid module M is support tau-tilting iff the number of
  its summand classes plus the number of projective classes with no homs
  into M equals the number of simples;
* approximation: iff the cokernel of a minimal left add(M)-approximation
  of the (block) regular module lies in add(M).  That module is the sum of
  dim S copies of each PIM P_S, and approximations are additive, so the
  cokernel of each P_S is split on its own and counted dim S times.

Enumeration is the downward mutation closure from the top pair; upward
mutation goes through the order-reversing dual-pair construction, making
mutation at a fixed summand an involution.  That construction sends a
non-projective summand X to Tr X = D(tau X), so it reads the translates
that tau-rigidity reads.  The Hasse diagram is cross-checkable against
the covering relations recomputed from the order.

There are no homs between blocks, so the poset of an algebra is the
product of its block posets, one factor for an algebra of one block.  A
down mutation of a whole-algebra pair runs the exchange on its component
in the block of the removed summand, and the certificate of a
whole-algebra pair combines the certificates of its block components
(``_certify`` on the whole algebra is the tests' oracle).  The registry
holds the block of each class in its ``block_of`` table and each block
exchange in its ``exchange`` table.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from . import homalg
from .algebra import Block, GroupAlgebra
from .ff import FFMatrix
from .modules import RepModule


class EngineError(RuntimeError):
    """An internal inconsistency.  Keyword arguments name what it concerns
    (a pair key, a removed summand, classes) and are kept as attributes."""

    def __init__(self, message: str, **context):
        super().__init__(message)
        self.__dict__.update(context)


class CriteriaDisagree(EngineError):
    """The counting and approximation criteria returned different verdicts;
    this signals an engine bug, never a property of the input.  It carries
    the pair_key, the coker_ids and the support."""


class MutationDirectionError(EngineError):
    """The requested mutation direction does not exist at this summand."""


class PosetCapExceeded(EngineError):
    pass


class TiltingContext:
    """A group algebra or one of its blocks, viewed through the algebra's
    registry: the facts the engine memoises (simples, projectives, hom
    data, certificates) live there, keyed by ``key``, the block index (None
    for the whole algebra).  Building a context is cheap."""

    def __init__(self, algebra: GroupAlgebra, block: Block | None = None):
        self.algebra = algebra
        self.block = block
        self.registry = algebra.registry
        self.key = None if block is None else block.index

    # ---- bookkeeping

    def _classes(self) -> tuple[list[int], list[int]]:
        """(simple ids, PIM ids) of the context, in the registry's order."""

        def compute():
            reg = self.registry
            ids = reg.simple_ids()
            if self.block is not None:
                ids = [s for s in ids if reg.block_of(s) == self.key]
            return ids, [reg.pim_of_simple(s) for s in ids]

        return self.registry.memo("block_classes", self.key, compute)

    def factors(self) -> list[TiltingContext]:
        """The block contexts whose product this context is: one per block
        for the whole algebra, one block included, and none for a block.
        So every certificate and exchange is computed over a block."""
        if self.block is not None:
            return []
        return [TiltingContext(self.algebra, b) for b in self.algebra.blocks()]

    def simple_ids(self) -> list[int]:
        return self._classes()[0]

    def pim_ids(self) -> list[int]:
        return self._classes()[1]

    @property
    def n_simples(self) -> int:
        return len(self.simple_ids())

    def hom_to_tau_dim(self, a: int, b: int) -> int:
        """dim Hom(M_a, tau M_b), summed over the summands of tau M_b."""
        return sum(self.registry.hom_dim_ids(a, t) for t in homalg.tau_ids(self.registry, b))

    def dims_of(self, ids) -> int:
        return sum(self.registry.module(i).dim for i in ids)

    def describe(self) -> str:
        name = self.algebra.group.name
        if self.block is not None:
            return f"{name}:{self.block.label()}"
        return name


@dataclass(frozen=True)
class STauTiltPair:
    """A support pair: sorted registry ids of the module and projective
    parts.  Built basic (each class once)."""

    ctx: TiltingContext = dc_field(compare=False, repr=False)
    m_ids: tuple[int, ...] = ()
    p_ids: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "m_ids", tuple(sorted(set(self.m_ids))))
        object.__setattr__(self, "p_ids", tuple(sorted(set(self.p_ids))))

    @property
    def key(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return (self.m_ids, self.p_ids)

    def module(self) -> RepModule:
        return self.ctx.registry.direct_sum_of_ids(self.m_ids)

    def label(self) -> str:
        reg = self.ctx.registry
        if not self.m_ids:
            return "0"
        return " + ".join(sorted(reg.label(i) for i in self.m_ids))

    def support_label(self) -> str:
        reg = self.ctx.registry
        if not self.p_ids:
            return ""
        return " + ".join(sorted(reg.label(i) for i in self.p_ids))

    def __repr__(self):
        sup = self.support_label()
        return f"Pair({self.label()}" + (f" | {sup})" if sup else ")")


@dataclass
class Certificate:
    tau_rigid: bool
    hom_pm_zero: bool
    support_pims: tuple[int, ...]
    counting_ok: bool
    approx_ok: bool
    approx_coker_ids: tuple[int, ...]
    pair_counting_ok: bool
    p_is_full_support: bool
    n_simples: int

    @property
    def valid(self) -> bool:
        return (
            self.tau_rigid
            and self.hom_pm_zero
            and self.counting_ok
            and self.approx_ok
            and self.pair_counting_ok
        )

    def to_json(self) -> dict:
        return {
            "tau_rigid": self.tau_rigid,
            "hom_pm_zero": self.hom_pm_zero,
            "counting_ok": self.counting_ok,
            "approx_ok": self.approx_ok,
            "pair_counting_ok": self.pair_counting_ok,
            "p_is_full_support": self.p_is_full_support,
            "n_simples": self.n_simples,
            "valid": self.valid,
        }


def is_tau_rigid(ctx: TiltingContext, M: RepModule) -> bool:
    if M.dim == 0:
        return True
    ids = ctx.registry.ids_of(M)
    return _ids_tau_rigid(ctx, ids)


def _ids_tau_rigid(ctx: TiltingContext, ids) -> bool:
    for a in ids:
        for b in ids:
            if ctx.hom_to_tau_dim(a, b):
                return False
    return True


def _support_pims(ctx: TiltingContext, m_ids) -> tuple[int, ...]:
    """The PIM classes of ctx, in order, with no maps into the classes m_ids."""
    out = []
    for q in ctx.pim_ids():
        if all(ctx.registry.hom_dim_ids(q, m) == 0 for m in m_ids):
            out.append(q)
    return tuple(out)


def certify_support_tau_tilting(pair: STauTiltPair) -> Certificate:
    """The certificate of a pair, once per context and pair.  Over the
    whole algebra it combines the certificates of the pair's block
    components: there are no homs between blocks."""
    ctx = pair.ctx

    def compute():
        factors = ctx.factors()
        if not factors:
            return _certify(pair)
        return _product_certificate(
            pair, [certify_support_tau_tilting(_restrict(pair, b)) for b in factors]
        )

    return ctx.registry.memo("certificate", (ctx.key, pair.key), compute)


def _certify(pair: STauTiltPair) -> Certificate:
    ctx = pair.ctx
    reg = ctx.registry
    m_ids = list(pair.m_ids)
    tau_rigid = _ids_tau_rigid(ctx, m_ids)
    support = _support_pims(ctx, m_ids)
    hom_pm_zero = set(pair.p_ids) <= set(support)
    # approximation criterion (independent of the counting data), one PIM
    # class at a time: Lambda (the block, or kG) is dim S_q copies of each P_q
    approx_ok = False
    coker_ids: tuple[int, ...] = ()
    if tau_rigid:
        dims, pims = [reg.module(s).dim for s in ctx.simple_ids()], ctx.pim_ids()
        if sum(d * reg.module(q).dim for d, q in zip(dims, pims)) != (ctx.block or ctx.algebra).dim:
            raise AssertionError("dim S copies of each PIM P_S do not add up to the algebra")
        found = []
        for d, q in zip(dims, pims):
            f, target, _ = homalg.minimal_left_approximation(reg.module(q), m_ids, reg)
            found += reg.ids_of(homalg.cokernel(f, target)[0]) * d
        coker_ids = tuple(sorted(found))
        approx_ok = set(coker_ids) <= set(m_ids)
    return _certificate(pair, tau_rigid, hom_pm_zero, support, approx_ok, coker_ids)


def _product_certificate(pair: STauTiltPair, certs: list[Certificate]) -> Certificate:
    """The certificate of a pair from those of its block components: the
    minimal approximation of the algebra is the sum of the blocks' ones."""
    tau_rigid = all(c.tau_rigid for c in certs)
    support = set().union(*(c.support_pims for c in certs))
    return _certificate(
        pair,
        tau_rigid,
        all(c.hom_pm_zero for c in certs),
        tuple(q for q in pair.ctx.pim_ids() if q in support),
        all(c.approx_ok for c in certs),
        tuple(sorted(i for c in certs for i in c.approx_coker_ids)) if tau_rigid else (),
    )


def _certificate(pair, tau_rigid, hom_pm_zero, support, approx_ok, coker_ids) -> Certificate:
    """Complete the checks with the counting data, which must agree with
    the approximation criterion on a tau-rigid pair."""
    n = pair.ctx.n_simples
    counting_ok = tau_rigid and (len(pair.m_ids) + len(support) == n)
    if tau_rigid and approx_ok != counting_ok:
        raise CriteriaDisagree(
            f"counting={counting_ok} vs approximation={approx_ok} "
            f"for {pair!r} (coker classes {coker_ids}, support {support})",
            pair_key=pair.key, coker_ids=coker_ids, support=support,
        )
    return Certificate(
        tau_rigid=tau_rigid,
        hom_pm_zero=hom_pm_zero,
        support_pims=support,
        counting_ok=counting_ok,
        approx_ok=approx_ok,
        approx_coker_ids=coker_ids,
        pair_counting_ok=len(pair.m_ids) + len(pair.p_ids) == n,
        p_is_full_support=set(pair.p_ids) == set(support),
        n_simples=n,
    )


def _restrict(pair: STauTiltPair, block_ctx: TiltingContext) -> STauTiltPair:
    """The component of a pair of the whole algebra in one block."""
    def keep(ids):
        return tuple(i for i in ids if pair.ctx.registry.block_of(i) == block_ctx.key)

    return STauTiltPair(block_ctx, keep(pair.m_ids), keep(pair.p_ids))


# -- the order ---------------------------------------------------------------


def _generates(ctx: TiltingContext, source_ids: tuple[int, ...], target_id: int) -> bool:
    """Whether the target class lies in Gen(sum of source classes): the
    trace of the sources fills the target."""
    reg = ctx.registry

    def compute():
        target = reg.module(target_id)
        images = []
        for s in source_ids:
            images.extend(reg.hom_basis_ids(s, target_id))
        if not images:
            return target.dim == 0
        return FFMatrix.hstack(*images).rank() == target.dim

    return reg.memo("generates", (source_ids, target_id), compute)


def geq(x: STauTiltPair, y: STauTiltPair) -> bool:
    """x >= y in the support tau-tilting order: every summand of y.M is a
    quotient of a finite direct sum of copies of x.M."""
    if (x.ctx.registry, x.ctx.key) != (y.ctx.registry, y.ctx.key):
        raise EngineError("pairs live over different contexts")
    return all(_generates(x.ctx, x.m_ids, t) for t in y.m_ids)


# -- mutation ------------------------------------------------------------------


@dataclass
class MutationResult:
    pair: STauTiltPair
    direction: str  # "down" or "up"
    exchanged_out: tuple[str, int]
    exchanged_in: tuple[str, int]


def _down_mutation(pair: STauTiltPair, removed: int) -> STauTiltPair | None:
    """The lower completion after removing a module summand, or None when
    the exchange at this summand goes upward.  Over the whole algebra only
    the block of the removed summand changes: the removed summand has no
    homs to the other blocks, and their PIMs cannot join the support of a
    completed pair.  Each exchange is computed once per
    (block, component, removed summand)."""
    ctx = pair.ctx
    factors = ctx.factors()
    local = _restrict(pair, factors[ctx.registry.block_of(removed)]) if factors else pair
    key = ctx.registry.memo(
        "exchange", (local.ctx.key, local.key, removed), lambda: _exchange(local, removed)
    )
    if key is None:
        return None
    return STauTiltPair(
        ctx,
        key[0] + tuple(set(pair.m_ids) - set(local.m_ids)),
        key[1] + tuple(set(pair.p_ids) - set(local.p_ids)),
    )


def _exchange(pair: STauTiltPair, removed: int) -> tuple | None:
    """Key of the lower completion of a pair over its context, or None.
    By the exchange theorem (Adachi-Iyama-Reiten, Thm 2.30) it exists
    exactly when the removed X is not in Fac U, U the other summands, and
    then the cokernel of the approximation of X adds at most one class."""
    ctx = pair.ctx
    reg = ctx.registry
    u_ids = tuple(sorted(set(pair.m_ids) - {removed}))
    z_mod = reg.module(removed)
    f, target, _ = homalg.minimal_left_approximation(z_mod, list(u_ids), reg)
    coker, _ = homalg.cokernel(f, target)
    coker_ids = tuple(sorted(reg.ids_of(coker))) if coker.dim else ()
    new = sorted(set(coker_ids) - set(u_ids))
    candidates = [STauTiltPair(ctx, tuple(sorted(u_ids + (y,))), pair.p_ids) for y in new]
    candidates += [
        STauTiltPair(ctx, u_ids, tuple(sorted(pair.p_ids + (q,))))
        for q in _support_pims(ctx, u_ids) if q not in pair.p_ids
    ]
    keys = sorted({
        cand.key for cand in candidates
        if cand.key != pair.key and certify_support_tau_tilting(cand).valid
    })
    where = f"after removing {removed} from {pair.key} (coker classes {coker_ids})"
    fault = None
    if len(keys) > 1:
        fault = f"multiple certified completions after removing {removed}: {keys}"
    elif _generates(ctx, u_ids, removed):
        if keys:
            fault = f"a summand in Fac of the rest has a lower completion {where}"
    elif len(new) > 1:
        fault = f"more than one new class {where}"
    elif not keys:
        fault = f"no lower completion of a summand outside Fac of the rest {where}"
    if fault:
        raise EngineError(fault, pair_key=pair.key, removed=removed, coker_ids=coker_ids)
    return keys[0] if keys else None


def _delta_indec(ctx: TiltingContext, idx: int, part: str) -> tuple[str, int]:
    """Image of one summand class under the dual-pair construction.

    part is 'm' or 'p'; returns (new part, new id).  Non-projective module
    summands go to their transpose-dual; projective module summands move to
    the support side as duals; support summands come back as dual
    projectives."""
    reg = ctx.registry

    def compute():
        if part == "m" and not reg.is_projective_id(idx):
            return ("m", reg.find_or_register(homalg.transpose_dual_indec(reg, idx)))
        did = reg.find_or_register(homalg.dual_module(reg.module(idx)))
        if not reg.is_projective_id(did):
            raise EngineError("dual of a projective failed to be projective")
        return ("p", did) if part == "m" else ("m", did)

    return reg.memo("delta", (idx, part), compute)


def delta_pair(pair: STauTiltPair) -> STauTiltPair:
    """The order-reversing involution on pairs (dual of a minimal
    presentation, support and projective module parts swapping roles)."""
    ctx = pair.ctx
    new_m, new_p = [], []
    for i in pair.m_ids:
        part, j = _delta_indec(ctx, i, "m")
        (new_m if part == "m" else new_p).append(j)
    for q in pair.p_ids:
        part, j = _delta_indec(ctx, q, "p")
        (new_m if part == "m" else new_p).append(j)
    return STauTiltPair(ctx, tuple(sorted(new_m)), tuple(sorted(new_p)))


def mutate(pair: STauTiltPair, summand_index: int, direction: str = "auto") -> MutationResult:
    """Exchange the chosen indecomposable summand for the unique other
    completion of the remaining almost-complete pair.

    summand_index indexes the concatenation m_ids + p_ids.  direction
    'down'/'up' demands that direction and raises MutationDirectionError if
    the exchange goes the other way; 'auto' follows the exchange."""
    all_ids = list(pair.m_ids) + list(pair.p_ids)
    if not 0 <= summand_index < len(all_ids):
        raise EngineError(f"summand index {summand_index} out of range")
    in_m = summand_index < len(pair.m_ids)
    removed = all_ids[summand_index]
    ctx = pair.ctx
    if in_m:
        down = _down_mutation(pair, removed)
        if down is not None:
            if direction == "up":
                raise MutationDirectionError(
                    f"exchange at summand {removed} goes down, not up"
                )
            return MutationResult(
                down, "down", ("m", removed), _exchanged_summand(pair, down)
            )
    if direction == "down":
        raise MutationDirectionError(
            f"exchange at summand {removed} goes up, not down"
        )
    # upward: run the downward exchange in the dual poset
    dpair = delta_pair(pair)
    dpart, dremoved = _delta_indec(ctx, removed, "m" if in_m else "p")
    if dpart != "m":
        raise EngineError("dual image of the removed summand left the module part")
    ddown = _down_mutation(dpair, dremoved)
    if ddown is None:
        raise EngineError(
            f"no exchange found at summand {removed} in either direction"
        )
    up = delta_pair(ddown)
    if not certify_support_tau_tilting(up).valid:
        raise EngineError("dual route produced an uncertified pair")
    if up.key == pair.key:
        raise EngineError("dual route returned the original pair")
    return MutationResult(
        up, "up", ("m" if in_m else "p", removed), _exchanged_summand(pair, up)
    )


def _exchanged_summand(old: STauTiltPair, new: STauTiltPair) -> tuple[str, int]:
    dm = set(new.m_ids) - set(old.m_ids)
    if dm:
        return ("m", sorted(dm)[0])
    dp = set(new.p_ids) - set(old.p_ids)
    if dp:
        return ("p", sorted(dp)[0])
    return ("none", -1)


# -- enumeration -----------------------------------------------------------------


class HassePoset:
    """Enumerated poset with mutation edges, top-first node order."""

    def __init__(self, ctx: TiltingContext, pairs: list[STauTiltPair], edges: set):
        def sort_key(p: STauTiltPair):
            return (-len(p.m_ids), -ctx.dims_of(p.m_ids), p.m_ids, p.p_ids)

        self.ctx = ctx
        self.nodes = sorted(pairs, key=sort_key)
        index = {p.key: i for i, p in enumerate(self.nodes)}
        self.edges = sorted((index[a], index[b]) for a, b in edges)
        self.top_index = index[
            (tuple(sorted(ctx.pim_ids())), ())
        ]
        self.bottom_index = index[((), tuple(sorted(ctx.pim_ids())))]

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def successors(self, i: int) -> list[int]:
        return [b for a, b in self.edges if a == i]

    def order_matrix(self) -> list[list[bool]]:
        n = len(self.nodes)
        return [
            [geq(self.nodes[i], self.nodes[j]) for j in range(n)] for i in range(n)
        ]

    def covering_edges_from_order(self) -> list[tuple[int, int]]:
        """Hasse arrows recomputed independently from the order relation by
        transitive reduction."""
        ge = self.order_matrix()
        n = len(self.nodes)
        strict = [[ge[i][j] and i != j and not ge[j][i] for j in range(n)] for i in range(n)]
        out = []
        for i in range(n):
            for j in range(n):
                if not strict[i][j]:
                    continue
                if any(strict[i][k] and strict[k][j] for k in range(n)):
                    continue
                out.append((i, j))
        return sorted(out)

    def is_connected_from_top(self) -> bool:
        seen = {self.top_index}
        frontier = [self.top_index]
        while frontier:
            nxt = []
            for a, b in self.edges:
                if a in seen and b not in seen:
                    seen.add(b)
                    nxt.append(b)
            if not nxt:
                break
            frontier = nxt
        return len(seen) == len(self.nodes)

    def maxima(self) -> list[int]:
        ge = self.order_matrix()
        n = len(self.nodes)
        return [
            i
            for i in range(n)
            if all(not (ge[j][i] and not ge[i][j]) for j in range(n))
        ]

    def minima(self) -> list[int]:
        ge = self.order_matrix()
        n = len(self.nodes)
        return [
            i
            for i in range(n)
            if all(not (ge[i][j] and not ge[j][i]) for j in range(n))
        ]

    # ---- export

    def to_json(self) -> dict:
        ctx = self.ctx
        nodes = []
        for p in self.nodes:
            cert = certify_support_tau_tilting(p)
            nodes.append(
                {
                    "m_classes": sorted(ctx.registry.label(i) for i in p.m_ids),
                    "p_classes": sorted(ctx.registry.label(i) for i in p.p_ids),
                    "m_ids": list(p.m_ids),
                    "p_ids": list(p.p_ids),
                    "dim": ctx.dims_of(p.m_ids),
                    "certificate": cert.to_json(),
                }
            )
        return {
            "context": ctx.describe(),
            "field": ctx.algebra.field.to_json(),
            "n_nodes": self.n_nodes,
            "n_edges": self.n_edges,
            "top": self.top_index,
            "bottom": self.bottom_index,
            "nodes": nodes,
            "edges": [list(e) for e in self.edges],
        }

    def to_dot(self) -> str:
        lines = ["digraph stt {", '  rankdir="TB";']
        for i, p in enumerate(self.nodes):
            label = p.label()
            sup = p.support_label()
            if sup:
                label += f" | {sup}"
            lines.append(f'  n{i} [label="{label}"];')
        for a, b in self.edges:
            lines.append(f"  n{a} -> n{b};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def enumerate_poset(ctx: TiltingContext, node_cap: int = 512) -> HassePoset:
    """Breadth-first downward mutation closure from the top pair.  Every
    node found is certified before the poset is returned."""
    top = STauTiltPair(ctx, tuple(sorted(ctx.pim_ids())), ())
    if not certify_support_tau_tilting(top).valid:
        raise EngineError("the regular pair failed certification")
    seen: dict = {top.key: top}
    edges = set()
    frontier = [top]
    while frontier:
        frontier.sort(key=lambda p: (p.m_ids, p.p_ids))
        nxt = []
        for node in frontier:
            for removed in node.m_ids:
                down = _down_mutation(node, removed)
                if down is None:
                    continue
                edges.add((node.key, down.key))
                if down.key not in seen:
                    if len(seen) >= node_cap:
                        raise PosetCapExceeded(
                            f"poset exceeds the configured cap of {node_cap} nodes"
                        )
                    seen[down.key] = down
                    nxt.append(down)
        frontier = nxt
    pairs = list(seen.values())
    for p in pairs:
        if not certify_support_tau_tilting(p).valid:
            raise EngineError(f"enumerated node fails certification: {p!r}")
    return HassePoset(ctx, pairs, edges)

