"""Homological operations: radicals, projective covers, syzygies, the AR
translate, duals and minimal approximations.

Group algebras are symmetric, so the translate of a non-projective
indecomposable is its double syzygy; the tests compare it, up to
isomorphism, with the Nakayama functor (dual of the hom-into-the-algebra
functor) run on a minimal presentation.  The syzygy of a module is
computed once per content, in the registry's ``syzygy`` table, where the
translate and the L3.1 check of ``functors`` both read it.
"""

from __future__ import annotations

from . import rings
from .ff import FFMatrix
from .modules import (
    ModuleRegistry,
    RepModule,
    _content_key,
    _indec_iso_witness,
    direct_sum,
    hom_basis,
    quotient_module,
    submodule,
    zero_module,
)


# -- radical series ------------------------------------------------------------


def radical_submodule_basis(M: RepModule) -> FFMatrix:
    """Basis of rad(Lambda) * M as columns: the pivot columns of
    [r_1 M | r_2 M | ...] over the radical basis r_i, whose action matrices
    come from one product with the action stack."""
    mats = M.apply_algebra_vectors(M.algebra.radical_vectors())
    columns = mats.transpose(1, 0, 2).reshape(M.dim, len(mats) * M.dim)
    return FFMatrix._trusted(M.field, columns).column_space_basis()


def top(M: RepModule) -> tuple[RepModule, FFMatrix]:
    """(M / rad M, projection)."""
    return quotient_module(M, radical_submodule_basis(M))


def radical_series(M: RepModule) -> list[RepModule]:
    """Successive radical layers (semisimple), top first."""
    layers = []
    current = M
    while current.dim > 0:
        rad_basis = radical_submodule_basis(current)
        layer, _ = quotient_module(current, rad_basis)
        layers.append(layer)
        current, _ = submodule(current, rad_basis)
    return layers


def loewy_label(registry: ModuleRegistry, M: RepModule) -> str:
    """Radical-filtration label: layers joined by '/', simples of one layer
    joined by ','."""
    if M.dim == 0:
        return "0"
    parts = []
    for layer in radical_series(M):
        ids = registry.decompose(layer).part_ids
        names = sorted(registry.label(i) for i in ids)
        parts.append(",".join(names))
    return "/".join(parts)


# -- projective covers and syzygies --------------------------------------------


def projective_cover(M: RepModule) -> tuple[RepModule, FFMatrix]:
    """(P, pi) with pi: P -> M an essential epimorphism from a direct sum
    of projective indecomposables matching top(M)."""
    registry = M.algebra.registry
    if M.dim == 0:
        return zero_module(M.algebra), FFMatrix.zeros(M.field, 0, 0)
    T, q = top(M)
    dec = registry.decompose(T)
    pim_mods = []
    pi_columns = []
    for (part_mod, inc), sid in zip(dec.parts, dec.part_ids):
        pim = registry.module(registry.pim_of_simple(sid))
        pim_top, pim_q = top(pim)
        w = _iso_witness_strict(pim_top, registry.module(sid))
        w2 = _iso_witness_strict(registry.module(sid), part_mod)
        rho = inc @ w2 @ w @ pim_q  # PIM -> T hitting this summand
        # lift along q: find pi_c in Hom(pim, M) with q . pi_c = rho
        span = hom_basis(pim, M)
        if not span:
            raise AssertionError("no homomorphisms from the covering projective")
        sol = rings.in_span(M.field, [q @ h for h in span], [rho])
        if sol is None:
            raise AssertionError("projective cover lift is infeasible")
        pim_mods.append(pim)
        pi_columns.append(rings.combine(M.field, sol.entries(), span))
    P = direct_sum(*pim_mods)
    pi = FFMatrix.hstack(*pi_columns)
    if pi.rank() != M.dim:
        raise AssertionError("projective cover map is not surjective")
    return P, pi


def syzygy(M: RepModule) -> tuple[RepModule, FFMatrix, RepModule, FFMatrix]:
    """(Omega M, inclusion into P, P, pi)."""
    P, pi = projective_cover(M)
    if P.dim == 0:
        return zero_module(M.algebra), FFMatrix.zeros(M.field, 0, 0), P, pi
    K = pi.nullspace()
    om, inc = submodule(P, K)
    return om, inc, P, pi


def minimal_presentation(M: RepModule) -> tuple[RepModule, RepModule, FFMatrix]:
    """(P1, P0, d) with P1 -> P0 -> M -> 0 minimal."""
    om, inc, P0, _ = syzygy(M)
    om1, inc1, P1, pi1 = syzygy(om)
    d = inc @ pi1
    return P1, P0, d


def syzygy_cached(registry: ModuleRegistry, M: RepModule) -> tuple[RepModule, tuple[int, ...]]:
    """(Omega M, ids of the PIMs of the projective cover of M, with
    multiplicity), computed once per content of M."""

    def compute():
        om, _, P, _ = syzygy(M)
        return om, tuple(registry.ids_of(P))

    return registry.memo("syzygy", _content_key(M), compute)


def syzygy_ids(registry: ModuleRegistry, pid: int) -> list[int]:
    """Ids of the summands of the syzygy of one registered class."""
    return registry.ids_of(syzygy_cached(registry, registry.module(pid))[0])


def tau_indec_cached(registry: ModuleRegistry, pid: int) -> RepModule:
    """The translate of one registered indecomposable, memoised by id: the
    syzygy of its syzygy, both read from the ``syzygy`` table."""

    def compute():
        if registry.is_projective_id(pid):
            return zero_module(registry.algebra)
        om, _ = syzygy_cached(registry, registry.module(pid))
        return syzygy_cached(registry, om)[0]

    return registry.memo("tau", pid, compute)


def tau_ids(registry: ModuleRegistry, pid: int) -> list[int]:
    """Ids of the summands of the translate of one registered class."""

    def compute():
        t = tau_indec_cached(registry, pid)
        return registry.ids_of(t) if t.dim else []

    return registry.memo("tau_ids", pid, compute)


# -- duals ----------------------------------------------------------------------


def dual_module(M: RepModule) -> RepModule:
    """k-dual as a left module: g acts by the transpose of the inverse."""
    g = M.algebra.group
    mats = []
    for pos, gi in enumerate(g.gen_indices):
        inv_mat = M.action_of(g.inv(gi))
        mats.append(inv_mat.transpose())
    return RepModule(M.algebra, mats)


def transpose_dual_indec(registry: ModuleRegistry, pid: int) -> RepModule:
    """The dual-transpose of a non-projective indecomposable: the cokernel
    of the dualized minimal presentation."""
    M = registry.module(pid)
    P1, P0, d = minimal_presentation(M)
    dd = d.transpose()  # the dual map D(P0) -> D(P1), in dual coordinates
    DP1 = dual_module(P1)
    cok, _ = quotient_module(DP1, dd.column_space_basis())
    return cok


# -- approximations --------------------------------------------------------------


def minimal_left_approximation(
    X: RepModule, target_ids: list[int], registry: ModuleRegistry
) -> tuple[FFMatrix, RepModule, list[int]]:
    """Minimal left add(T)-approximation of X, T = sum of the registry
    classes in target_ids.  Returns (f, target module, component ids).

    Components into each class are coset representatives of Hom(X, T_i)
    modulo maps that factor through the radical of add(T); the approximation
    property is verified before returning."""
    field = X.field
    ids = sorted(set(target_ids))
    chosen: list[tuple[int, FFMatrix]] = []
    hom_to = {i: hom_basis(X, registry.module(i)) for i in ids}
    for ti in ids:
        rad_span: list[FFMatrix] = []
        for ui in ids:
            hs = hom_to[ui]
            if not hs:
                continue
            if ui == ti:
                connecting = registry.rad_end_basis(ti)
            else:
                connecting = registry.hom_basis_ids(ui, ti)
            for g in connecting:
                for h in hs:
                    rad_span.append(g @ h)
        # complete rad_span to the full hom space with members of hom_to[ti]
        kept = rings.extend_basis(field, rad_span, hom_to[ti])
        chosen.extend((ti, hom_to[ti][i]) for i in kept)
    if not chosen:
        target = zero_module(X.algebra)
        f = FFMatrix.zeros(field, 0, X.dim)
        _assert_left_approximation(X, f, [], ids, registry)
        return f, target, []
    comp_ids = [t for t, _ in chosen]
    target = direct_sum(*[registry.module(t) for t in comp_ids])
    f = FFMatrix.vstack(*[h for _, h in chosen])
    _assert_left_approximation(X, f, comp_ids, ids, registry)
    return f, target, comp_ids


def _assert_left_approximation(X, f, comp_ids, ids, registry):
    """Hom(f, T): Hom(target, T) -> Hom(X, T) must be onto for all T."""
    field = X.field
    offsets = []
    pos = 0
    for t in comp_ids:
        d = registry.module(t).dim
        offsets.append((pos, pos + d, t))
        pos += d
    for ti in ids:
        full = hom_basis(X, registry.module(ti))
        if not full:
            continue
        images = []
        for start, end, t in offsets:
            comp_f = f.take_rows(range(start, end))  # X -> T_t component
            for g in registry.hom_basis_ids(t, ti):
                images.append(g @ comp_f)
        got = len(rings.reduce_span(field, images))
        want = len(rings.reduce_span(field, full))
        if got != want:
            raise AssertionError(
                f"left approximation not surjective onto Hom(X, class {ti})"
            )


def cokernel(f: FFMatrix, target: RepModule) -> tuple[RepModule, FFMatrix]:
    """(coker f, projection) for a module map into target."""
    img = f.column_space_basis()
    return quotient_module(target, img)


def _iso_witness_strict(A: RepModule, B: RepModule) -> FFMatrix:
    if A.dim == 0 and B.dim == 0:
        return FFMatrix.zeros(A.field, 0, 0)
    w = _indec_iso_witness(A, B)
    if w is None:
        raise AssertionError("expected isomorphic indecomposables")
    return w
