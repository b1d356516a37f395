"""Induction, restriction, conjugation twists, Mackey decomposition,
invariance testing, and the verification pipelines tying invariant support
tau-tilting pairs over a normal subgroup's block to pairs over the
overgroup.

Verification results are TheoremReports: named clause verdicts with stored
witnesses (isomorphism matrices, certificates), serializable for replay.
Check identifiers: L3.1 (syzygy/translate commutation with induction),
T3.2/T3.3 (induced pairs certify, globally and per covering block), C3.4
(order preservation), P3.5 (descent back to the subgroup), T3.6 (the full
two-way equivalence).

Induction, the syzygy and the translate are additive, so the checks are
decided class by class from facts the registries hold per class: the
twists of a class, the classes of its induction (the ``induced`` table),
its syzygy with the PIMs of its cover (the ``syzygy`` table) and its
translate.  T3.2 reads the classes of an induced node as the union of
those of its summands, and the support of the induced pair from the engine
(``engine._support_pims``); T3.3 certifies the components of that pair in
the covering blocks (``engine._restrict``), from which the T3.2
certificate of a pair over several blocks is combined; every side of L3.1
is the direct sum, with multiplicity, of such classes; P3.5 restricts one
support PIM class of the T3.2 certificate at a time.  No induced module,
syzygy, translate or restricted support is decomposed.  The block B and
the overgroup's context are those of the posets that the pipeline is
given.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from . import homalg
from .algebra import GroupAlgebra, InertialGroup, covers, inertial_group
from .engine import (
    STauTiltPair,
    TiltingContext,
    _restrict,
    _support_pims,
    certify_support_tau_tilting,
    geq,
)
from .ff import _CODE_DTYPE, FFMatrix
from .groups import SubgroupEmbedding
from .modules import (
    RepModule,
    _content_key,
    direct_sum,
    hom_basis,
    is_isomorphic,
    zero_module,
)


class FunctorError(ValueError):
    pass


class InductionContext:
    """A normal embedding with matched group algebras over one field."""

    def __init__(
        self,
        emb: SubgroupEmbedding,
        source_algebra: GroupAlgebra,
        target_algebra: GroupAlgebra,
        require_normal: bool = True,
    ):
        if source_algebra.group is not emb.sub or target_algebra.group is not emb.amb:
            raise FunctorError("algebras do not match the embedding")
        if source_algebra.field is not target_algebra.field:
            raise FunctorError("induction needs a single shared field")
        if require_normal and not emb.normal:
            raise FunctorError("this context requires a normal embedding")
        self.emb = emb
        self.source = source_algebra
        self.target = target_algebra
        amb = emb.amb
        # per overgroup generator g, per coset position i: (sigma(i), h)
        # with g * rep_i = rep_sigma(i) * h
        self.coset_actions = tuple(
            tuple(emb.coset_decompose(amb.mul(g, rep)) for rep in emb.coset_reps)
            for g in amb.gen_indices
        )


def induce(ctx: InductionContext, M: RepModule) -> RepModule:
    """kG~ tensor_kG M on the basis {rep_i (x) m_j}, coset-major."""
    if M.algebra is not ctx.source:
        raise FunctorError("module is not over the context's source algebra")
    emb = ctx.emb
    n = emb.n_cosets
    d = M.dim
    field = ctx.target.field
    mats = []
    for action in ctx.coset_actions:
        big = np.zeros((n * d, n * d), dtype=_CODE_DTYPE)
        for i, (sigma_i, h) in enumerate(action):
            big[sigma_i * d : (sigma_i + 1) * d, i * d : (i + 1) * d] = M.actions[h]
        mats.append(FFMatrix._trusted(field, big))
    return RepModule(ctx.target, mats, label=f"Ind({M.label})" if M.label else "")


def restrict(ctx: InductionContext, N: RepModule) -> RepModule:
    """The same space with the action pulled back along the embedding."""
    if N.algebra is not ctx.target:
        raise FunctorError("module is not over the context's target algebra")
    emb = ctx.emb
    mats = [
        N.action_of(emb.element_map[gi]) for gi in emb.sub.gen_indices
    ]
    return RepModule(ctx.source, mats, label=f"Res({N.label})" if N.label else "")


def twist(ctx: InductionContext, amb_idx: int, M: RepModule) -> RepModule:
    """The conjugate module: the subgroup acts through conjugation by the
    chosen overgroup element."""
    if M.algebra is not ctx.source:
        raise FunctorError("module is not over the context's source algebra")
    emb = ctx.emb
    amb = emb.amb
    x_inv = amb.inv(amb_idx)
    indices = []
    for gi in emb.sub.gen_indices:
        conj = amb.mul(amb.mul(x_inv, emb.element_map[gi]), amb_idx)
        if not emb.contains(conj):
            raise FunctorError("conjugation left the subgroup (non-normal embedding)")
        indices.append(emb.to_sub(conj))
    return _twisted(M, tuple(indices))


def _twisted(M: RepModule, indices: tuple[int, ...]) -> RepModule:
    """M with the generators acting as the elements ``indices`` of the
    group.  The twist of a registered class is registered, once per
    content; the twist of a direct sum of registered parts is the direct
    sum of their twists, the same matrices, and keeps its parts."""
    label = f"tw({M.label})" if M.label else ""
    if M._registry_id is not None:
        reg = M.algebra.registry

        def compute():
            tw = RepModule(M.algebra, [M.action_of(h) for h in indices], label=label)
            reg.find_or_register(tw)
            return tw

        return reg.memo("twist", (indices, _content_key(M)), compute)
    if M.sum_parts is not None and all(p._registry_id is not None for p, _ in M.sum_parts):
        return direct_sum(*[_twisted(p, indices) for p, _ in M.sum_parts]).relabel(label)
    return RepModule(M.algebra, [M.action_of(h) for h in indices], label=label)


@dataclass
class MackeyWitness:
    ok: bool
    left_dim: int
    right_dim: int
    witness: FFMatrix | None

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "left_dim": self.left_dim,
            "right_dim": self.right_dim,
            "witness": self.witness.entries() if self.witness is not None else None,
        }


def mackey_decomposition(ctx: InductionContext, M: RepModule) -> MackeyWitness:
    """Res Ind M against the direct sum of coset-representative twists,
    with an explicit isomorphism witness."""
    lhs = restrict(ctx, induce(ctx, M))
    pieces = [twist(ctx, rep, M) for rep in ctx.emb.coset_reps]
    rhs = direct_sum(*pieces) if pieces else zero_module(ctx.source)
    if lhs.dim == 0 and rhs.dim == 0:
        return MackeyWitness(True, 0, 0, FFMatrix.zeros(ctx.source.field, 0, 0))
    ok, witness = is_isomorphic(lhs, rhs)
    if ok:
        _check_intertwines(witness, lhs, rhs)
    return MackeyWitness(ok, lhs.dim, rhs.dim, witness)


def _check_intertwines(w: FFMatrix, src: RepModule, dst: RepModule):
    for gs, gd in zip(src.gen_mats, dst.gen_mats):
        if (w @ gs) != (gd @ w):
            raise AssertionError("stored witness fails to intertwine")
    if not w.is_invertible():
        raise AssertionError("stored witness is not invertible")


def is_invariant(
    ctx: InductionContext, M: RepModule, inertial: InertialGroup | None = None
) -> tuple[bool, dict[int, FFMatrix]]:
    """Whether every conjugation twist over the (inertial) coset
    representatives fixes M up to isomorphism; returns witnesses per rep."""
    reps = (
        inertial.stable_coset_reps if inertial is not None else ctx.emb.coset_reps
    )
    witnesses = {}
    for rep in reps:
        if rep == ctx.emb.amb.identity:
            continue
        tw = twist(ctx, rep, M)
        ok, w = is_isomorphic(tw, M)
        if not ok:
            return False, {}
        witnesses[rep] = w
    return True, witnesses


# -- reports ---------------------------------------------------------------------


@dataclass
class ClauseResult:
    name: str
    passed: bool
    details: dict = dc_field(default_factory=dict)

    def to_json(self) -> dict:
        return {"name": self.name, "passed": self.passed, "details": self.details}


@dataclass
class TheoremReport:
    check_id: str
    inputs: dict
    clauses: list[ClauseResult]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.clauses)

    def to_json(self) -> dict:
        return {
            "check": self.check_id,
            "inputs": self.inputs,
            "passed": self.passed,
            "clauses": [c.to_json() for c in self.clauses],
        }

    def __repr__(self):
        flag = "PASS" if self.passed else "FAIL"
        return f"TheoremReport({self.check_id}: {flag}, {len(self.clauses)} clauses)"


def _iso_clause(name: str, A: RepModule, B: RepModule) -> ClauseResult:
    ok, w = is_isomorphic(A, B)
    details = {"left_dim": A.dim, "right_dim": B.dim}
    if ok and w is not None:
        details["witness"] = w.entries()
    return ClauseResult(name, ok, details)


def _twist_clause(
    ctx, name: str, M: RepModule, inertial: InertialGroup | None
) -> ClauseResult:
    """``is_invariant`` as a clause, with its witness per representative."""
    ok, witnesses = is_invariant(ctx, M, inertial)
    details = {"dim": M.dim, "witnesses": {str(r): w.entries() for r, w in witnesses.items()}}
    return ClauseResult(name, ok, details)


def verify_syzygy_commutation(
    ctx: InductionContext, M: RepModule, inertial: InertialGroup | None = None
) -> TheoremReport:
    """Check L3.1 for an invariant module: twists fix the projective cover
    and the syzygy, and induction commutes with the syzygy and the
    translate.  Every clause stores its isomorphism witnesses, between the
    sums of registered classes that ``_l31_sides`` builds.

    With ``inertial``, the module is taken to be invariant under the
    inertial group of its block, and the twists range over that group's
    coset representatives, as in ``is_invariant``; otherwise over all of
    the overgroup's."""
    if M.algebra is not ctx.source:
        raise FunctorError("module is not over the context's source algebra")
    P, om, (ind_om, om_ind), (tau_ind, ind_tau) = _l31_sides(ctx, M)
    clauses = [
        _twist_clause(ctx, "cover_twist_invariant", P, inertial),
        _twist_clause(ctx, "syzygy_twist_invariant", om, inertial),
        _iso_clause("induction_commutes_with_syzygy", ind_om, om_ind),
        _iso_clause("induction_commutes_with_translate", tau_ind, ind_tau),
    ]
    return TheoremReport(
        "L3.1",
        {"module_dim": M.dim, "module": M.label or None},
        clauses,
    )


def _l31_sides(ctx: InductionContext, M: RepModule):
    """(P M, Omega M, (Ind Omega M, Omega Ind M), (tau Ind M, Ind tau M)).

    Induction, Omega and tau are additive, so for M the sum of the classes
    X_i each side is the sum of the classes that the registries hold for
    the X_i: their cover and syzygy ids, their induced ids, the syzygy and
    translate ids of those, and the induced ids of their syzygy and
    translate ids.  Each side is the direct sum of its ids in sorted order,
    with multiplicity, so no side is split whole."""
    src, tgt = ctx.source.registry, ctx.target.registry
    ids = src.ids_of(M)
    om_ids = [j for i in ids for j in homalg.syzygy_ids(src, i)]
    ind_ids = [j for i in ids for j in _induced_ids(ctx, i)]

    def total(reg, id_lists):
        return reg.direct_sum_of_ids(sorted(j for part in id_lists for j in part))

    return (
        total(src, (homalg.syzygy_cached(src, src.module(i))[1] for i in ids)),
        total(src, [om_ids]),
        (
            total(tgt, (_induced_ids(ctx, j) for j in om_ids)),
            total(tgt, (homalg.syzygy_ids(tgt, j) for j in ind_ids)),
        ),
        (
            total(tgt, (homalg.tau_ids(tgt, j) for j in ind_ids)),
            total(tgt, (_induced_ids(ctx, t) for i in ids for t in homalg.tau_ids(src, i))),
        ),
    )


def _image_ids(ctx: InductionContext, m_ids) -> list[int]:
    """Sorted target ids of the classes of the induction of the sum of the
    source classes m_ids: the union of the classes' induced ids."""
    return sorted(set().union(*(_induced_ids(ctx, i) for i in m_ids)))


def _induced_ids(ctx: InductionContext, idx: int) -> tuple[int, ...]:
    """Target registry ids of the summands of the induction of the source
    class idx, once per content of the class and coset action."""
    M = ctx.source.registry.module(idx)
    reg = ctx.target.registry
    return reg.memo(
        "induced",
        (_content_key(M), ctx.coset_actions),
        lambda: tuple(reg.ids_of(induce(ctx, M))),
    )


def _restricted_hom_dim(ctx: InductionContext, q_ids, m_ids) -> int:
    """dim Hom(Res P, M) for P and M the sums of the target classes q_ids
    and of the source classes m_ids, summed over the pairs of classes."""
    src, tgt = ctx.source.registry, ctx.target.registry
    restricted = (restrict(ctx, tgt.module(q)) for q in q_ids)
    return sum(len(hom_basis(res, src.module(m))) for res in restricted for m in m_ids)


def verify_main_theorems(ctx: InductionContext, poset, target_poset) -> TheoremReport:
    """The full pipeline over an enumerated poset of a block B of the
    subgroup's algebra, B the poset's block or the only block of its
    algebra, into ``target_poset``, a poset of the overgroup's algebra:

    (i) filter nodes by inertial invariance; (ii) certify the induced pair
    of every invariant node over the overgroup (T3.2) and its components in
    the blocks that cover B (T3.3); (iii) check order preservation and
    reflection on all invariant pairs (C3.4, T3.6); (iv) re-derive each
    node's certification from its induction through the restriction side
    (P3.5); (v) report injectivity of the induced map and its
    surjectivity onto ``target_poset``.

    The report also carries the block's ``inertial`` group and its
    ``invariant_nodes``.

    Induction commutes with direct sums, so the classes of the induction of
    a node are the union of those of its summands' inductions, and the
    induced pair's support is the PIM classes with no maps into them: no
    induced module is decomposed whole.  T3.3 certifies
    ``engine._restrict`` of the induced pair to each covering block, the
    components that the T3.2 certificate of a pair over several blocks
    combines.  A class of B has no maps from other blocks, so P3.5 sums
    dim Hom(Res P_q, M_m) over the support PIM classes q of the T3.2
    certificate and the node's classes m."""
    source_ctx, target = poset.ctx, target_poset.ctx
    blocks = source_ctx.algebra.blocks()
    if source_ctx.block is None and len(blocks) > 1:
        raise FunctorError(
            f"the poset of {source_ctx.describe()} spans {len(blocks)} blocks; "
            "verify the poset of one block"
        )
    B = blocks[0] if source_ctx.block is None else source_ctx.block
    inert = inertial_group(B, ctx.emb)
    clauses = []
    invariant_nodes = []
    for node in poset.nodes:
        mod = node.module()
        ok, _ = is_invariant(ctx, mod, inert)
        if ok:
            invariant_nodes.append(node)
    clauses.append(
        ClauseResult(
            "invariant_nodes_found",
            True,
            {"count": len(invariant_nodes), "total": poset.n_nodes},
        )
    )
    covering = [
        TiltingContext(target.algebra, bt)
        for bt in target.algebra.blocks() if covers(bt, B, ctx.emb)
    ]
    # per invariant node: the node, its induced pair and that pair's
    # certificate; T3.3 is checked node by node after T3.2
    images = []
    block_certified_all = True
    for node in invariant_nodes:
        ids = _image_ids(ctx, node.m_ids)
        image = STauTiltPair(target, ids, _support_pims(target, ids))
        images.append((node, image, certify_support_tau_tilting(image)))
        for bctx in covering:
            bcert = certify_support_tau_tilting(_restrict(image, bctx))
            block_certified_all = block_certified_all and bcert.valid
    clauses.append(
        ClauseResult(
            "inductions_certify",
            all(cert.valid for _, _, cert in images),
            {"checked": len(images)},
        )
    )
    clauses.append(
        ClauseResult(
            "covering_block_components_certify",
            block_certified_all,
            {"covering_blocks": [bctx.key for bctx in covering]},
        )
    )
    # order preservation and reflection
    order_ok = True
    for i, (x, x_image, _) in enumerate(images):
        for j, (y, y_image, _) in enumerate(images):
            if i != j and geq(x, y) != geq(x_image, y_image):
                order_ok = False
    clauses.append(
        ClauseResult(
            "order_preserved_and_reflected",
            order_ok,
            {"ordered_pairs_checked": len(images) * (len(images) - 1)},
        )
    )
    # descent: the subgroup-side certification re-derived from the image
    descent_ok = True
    for node, _, cert in images:
        if certify_support_tau_tilting(node).valid != cert.valid:
            descent_ok = False
        if _restricted_hom_dim(ctx, cert.support_pims, node.m_ids):
            descent_ok = False
    clauses.append(
        ClauseResult("descent_matches", descent_ok, {"checked": len(images)})
    )
    # injectivity is forced by order reflection; surjectivity onto the
    # enumerated target poset is a reported flag, not a requirement
    keys = [image.key for _, image, _ in images]
    injective = len(set(keys)) == len(keys)
    clauses.append(ClauseResult("induced_map_injective", injective, {}))
    target_keys = {p.key for p in target_poset.nodes}
    image_info = {
        "image_size": len(set(keys)),
        "target_size": len(target_keys),
        "onto_target_poset": set(keys) == target_keys,
    }
    clauses.append(ClauseResult("induced_map_image", True, image_info))
    report = TheoremReport(
        "T3.2+T3.3+C3.4+P3.5+T3.6",
        {
            "source": source_ctx.describe(),
            "target": target.describe(),
            "inertial_order": inert.order,
        },
        clauses,
    )
    report.inertial = inert
    report.invariant_nodes = invariant_nodes
    return report
