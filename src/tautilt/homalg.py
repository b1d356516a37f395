"""Homological operations: radicals, Loewy labels, projective covers,
syzygies, the AR translate, duals and minimal approximations.

Labels and covers are read off the Hom spaces out of the projective
indecomposables.  Group algebras are symmetric, so the translate of a
non-projective indecomposable is its double syzygy, and its dual-transpose
is the dual of that; the tests compare them, up to isomorphism, with the
Nakayama functor (dual of the hom-into-the-algebra functor) and the
dualized cokernel, both run on a minimal presentation.  The syzygy of a
module is computed once per content, in the registry's ``syzygy`` table,
where the translate, the dual-transpose and the L3.1 check of
``functors`` all read it.
"""

from __future__ import annotations

from . import rings
from .ff import FFMatrix
from .modules import (
    ModuleRegistry,
    RepModule,
    _content_key,
    direct_sum,
    hom_basis,
    quotient_module,
    submodule,
    zero_module,
)


# -- radicals and labels ------------------------------------------------------


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


def loewy_label(registry: ModuleRegistry, M: RepModule) -> str:
    """Radical-filtration label: layers joined by '/', simples of one layer
    joined by ','.  S occurs dim Hom(P_S, rad^i M) - dim Hom(P_S,
    rad^(i+1) M) times in layer i (see ``projective_cover``)."""
    if M.dim == 0:
        return "0"
    sids = registry.simple_ids()
    pims = [registry.module(p) for p in registry.pim_ids()]
    parts = []
    upper, above = M, [len(hom_basis(P, M)) for P in pims]
    while upper.dim > 0:
        lower, _ = submodule(upper, radical_submodule_basis(upper))
        below = [len(hom_basis(P, lower)) for P in pims]
        drops = [a - b for a, b in zip(above, below)]
        if sum(d * registry.module(s).dim for s, d in zip(sids, drops)) != upper.dim - lower.dim:
            raise AssertionError("radical layer is not the sum of its composition factors")
        names = (registry.label(s) for s, d in zip(sids, drops) for _ in range(d))
        parts.append(",".join(sorted(names)))
        upper, above = lower, below
    return "/".join(parts)


# -- projective covers and syzygies --------------------------------------------


def projective_cover(M: RepModule) -> tuple[RepModule, FFMatrix]:
    """(P, pi) with pi: P -> M an essential epimorphism from a direct sum
    of projective indecomposables matching top(M).

    Hom(P_S, -) is exact, and over a splitting field dim Hom(P_S, T) is the
    multiplicity of the simple S in T.  So for each PIM P_S the basis maps
    h: P_S -> M whose composites with the projection q onto top(M) are
    independent give one copy of P_S per copy of S in the top."""
    registry = M.algebra.registry
    if M.dim == 0:
        return zero_module(M.algebra), FFMatrix.zeros(M.field, 0, 0)
    T, q = top(M)
    pim_mods = []
    pi_columns = []
    top_dim = 0
    for sid, pid in zip(registry.simple_ids(), registry.pim_ids()):
        pim = registry.module(pid)
        span = hom_basis(pim, M)
        kept = rings.extend_basis(M.field, [], [q @ h for h in span])
        pim_mods.extend(pim for _ in kept)
        pi_columns.extend(span[i] for i in kept)
        top_dim += len(kept) * registry.module(sid).dim
    if top_dim != T.dim:
        raise AssertionError("projective cover is not essential")
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
    return (*submodule(P, pi.nullspace()), P, pi)


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
    """The translate of one registered indecomposable: the syzygy of its
    syzygy, both read from the ``syzygy`` table."""
    if registry.is_projective_id(pid):
        return zero_module(registry.algebra)
    om, _ = syzygy_cached(registry, registry.module(pid))
    return syzygy_cached(registry, om)[0]


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
    return RepModule(M.algebra, [M.action_of(g.inv(gi)).transpose() for gi in g.gen_indices])


def transpose_dual_indec(registry: ModuleRegistry, pid: int) -> RepModule:
    """The dual-transpose of a non-projective indecomposable X.  Group
    algebras are symmetric, so Tr X, the cokernel of the dualized minimal
    presentation, is D(Omega^2 X) = D(tau X)."""
    return dual_module(tau_indec_cached(registry, pid))


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
    comp_ids = [t for t, _ in chosen]
    target = registry.direct_sum_of_ids(comp_ids)
    f = FFMatrix.vstack(*[h for _, h in chosen]) if chosen else FFMatrix.zeros(field, 0, X.dim)
    _assert_left_approximation(X, f, comp_ids, ids, registry)
    return f, target, comp_ids


def _assert_left_approximation(X, f, comp_ids, ids, registry):
    """Hom(f, T): Hom(target, T) -> Hom(X, T) must be onto for all T."""
    components = []  # (class t, the component X -> T_t of f)
    start = 0
    for t in comp_ids:
        end = start + registry.module(t).dim
        components.append((t, f.take_rows(range(start, end))))
        start = end
    for ti in ids:
        full = hom_basis(X, registry.module(ti))
        if not full:
            continue
        images = [g @ comp_f for t, comp_f in components for g in registry.hom_basis_ids(t, ti)]
        got = len(rings.reduce_span(X.field, images))
        if got != len(full):
            raise AssertionError(
                f"left approximation not surjective onto Hom(X, class {ti})"
            )


def cokernel(f: FFMatrix, target: RepModule) -> tuple[RepModule, FFMatrix]:
    """(coker f, projection) for a module map into target."""
    return quotient_module(target, f)
