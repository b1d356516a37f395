import numpy as np
import pytest

from corpus import alternating_group, fixture_groups, radical, registry_with_syzygies
from ff_oracles import cartan_matrix, hom_dim, nakayama_tau, radical_series, tau
from tautilt import homalg
from tautilt.algebra import GroupAlgebra
from tautilt.ff import FFMatrix, field_create
from tautilt.modules import (
    ModuleError,
    ModuleRegistry,
    RepModule,
    direct_sum,
    hom_basis,
    is_isomorphic,
    module_from_json,
    module_to_json,
    regular_module,
    submodule,
    trivial_module,
    zero_module,
)


def reg_of(algebra):
    return algebra.registry


# -- construction and actions --------------------------------------------------


def test_regular_module_verifies(a4_gf4):
    M = regular_module(a4_gf4)
    M.verify_action()
    assert M.dim == 12


def test_action_of_elements_multiplicative(s4_gf4):
    M = regular_module(s4_gf4)
    g = s4_gf4.group
    for i in [0, 3, 7, 11, 23]:
        for j in [1, 5, 19]:
            assert M.action_of(g.mul(i, j)) == M.action_of(i) @ M.action_of(j)


def test_bad_action_rejected(c2_gf2):
    F = c2_gf2.field
    # order-3 matrix cannot represent the order-2 generator
    bad = RepModule(c2_gf2, [FFMatrix(F, [[0, 1], [1, 1]])])
    with pytest.raises(Exception):
        bad.verify_action()


# -- hom spaces -----------------------------------------------------------------


def test_hom_trivial_trivial(a4_gf4):
    k = trivial_module(a4_gf4)
    assert hom_dim(k, k) == 1


def test_hom_free_module_identity(a4_gf4):
    """dim Hom(kG, M) = dim M for every module."""
    reg = regular_module(a4_gf4)
    k = trivial_module(a4_gf4)
    assert hom_dim(reg, k) == 1
    assert hom_dim(reg, reg) == 12
    registry = reg_of(a4_gf4)
    for sid in registry.simple_ids():
        assert hom_dim(reg, registry.module(sid)) == registry.module(sid).dim


def test_hom_fast_path_matches_solver(a4_gf4):
    """The free-module shortcut agrees with the intertwiner solver."""
    registry = reg_of(a4_gf4)
    reg = regular_module(a4_gf4)
    k = trivial_module(a4_gf4)
    fast = hom_basis(reg, k)
    slow_dim = len(
        __import__("tautilt.ff", fromlist=["solve_intertwiner_system"]).solve_intertwiner_system(
            a4_gf4.field, list(zip(reg.gen_mats, k.gen_mats)), (k.dim, reg.dim)
        )
    )
    assert len(fast) == slow_dim
    for h in fast:
        for gm, gk in zip(reg.gen_mats, k.gen_mats):
            assert (h @ gm) == (gk @ h)


def test_hom_generator_order_independence():
    """Hom dimensions are intrinsic: reversing the generator list of the
    group leaves every pairwise hom dimension unchanged."""
    a4a = alternating_group(4)
    gens = list(a4a.generators)
    from tautilt.groups import FiniteGroup

    a4b = FiniteGroup.from_generators(gens[::-1], name="A4r")
    field = field_create(2, 2)
    alg_a, alg_b = GroupAlgebra(a4a, field), GroupAlgebra(a4b, field)
    ModuleRegistry(alg_a), ModuleRegistry(alg_b)

    def sample(alg):
        reg_mod = regular_module(alg)
        registry = alg.registry
        mods = [trivial_module(alg), reg_mod]
        mods += [registry.module(s) for s in registry.simple_ids()]
        mods += [registry.module(q) for q in registry.pim_ids()]
        return mods

    ms_a, ms_b = sample(alg_a), sample(alg_b)
    dims_a = sorted(hom_dim(x, y) for x in ms_a for y in ms_a)
    dims_b = sorted(hom_dim(x, y) for x in ms_b for y in ms_b)
    assert dims_a == dims_b


# -- decomposition ---------------------------------------------------------------


def test_decompose_regular_a4(a4_gf4):
    registry = reg_of(a4_gf4)
    dec = registry.decompose(regular_module(a4_gf4))
    assert len(set(dec.part_ids)) == 3
    assert sorted(p.dim for p, _ in dec.parts) == [4, 4, 4]
    assert sum(p.dim for p, _ in dec.parts) == 12
    # re-decomposing a summand yields itself
    for part, _ in dec.parts:
        sub_dec = registry.decompose(part)
        assert sub_dec.part_ids == [part._registry_id]


def test_decompose_regular_s4(s4_gf4):
    registry = reg_of(s4_gf4)
    dec = registry.decompose(regular_module(s4_gf4))
    assert len(set(dec.part_ids)) == 2
    mults = dec.multiplicities()
    assert all(registry.module(pid).dim == 8 for pid in mults)
    assert sorted(mults.values()) == [1, 2]


def test_simples_a4(a4_gf4):
    registry = reg_of(a4_gf4)
    simples = registry.simple_ids()
    assert len(simples) == 3
    assert all(registry.module(s).dim == 1 for s in simples)
    assert registry.label(simples[0]) == "1"  # trivial first


def test_simples_s4(s4_gf4):
    registry = reg_of(s4_gf4)
    assert [registry.module(s).dim for s in registry.simple_ids()] == [1, 2]


def test_decompose_square_of_simple(a4_gf4):
    registry = reg_of(a4_gf4)
    S = registry.module(registry.simple_ids()[2])
    M = direct_sum(S, S)
    M.sum_parts = None  # force the idempotent-splitting path
    dec = registry.decompose(M)
    assert len(set(dec.part_ids)) == 1
    assert list(dec.multiplicities().values()) == [2]


def test_decompose_inclusions_are_invariant(s4_gf4):
    registry = reg_of(s4_gf4)
    dec = registry.decompose(regular_module(s4_gf4))
    M = dec.module
    for part, inc in dec.parts:
        for gm, gp in zip(M.gen_mats, part.gen_mats):
            assert (gm @ inc) == (inc @ gp)
    T = dec.change_of_basis()
    assert T.is_invertible()


# -- isomorphism -----------------------------------------------------------------


def test_iso_self(a4_gf4):
    M = regular_module(a4_gf4)
    ok, w = is_isomorphic(M, M)
    assert ok
    assert w.is_invertible()
    for g in M.gen_mats:
        assert (w @ g) == (g @ w)


def test_one_dim_a4_modules_not_isomorphic(a4_gf4):
    registry = reg_of(a4_gf4)
    s = registry.simple_ids()
    a, b = registry.module(s[0]), registry.module(s[1])
    ok, _ = is_isomorphic(a, b)
    assert not ok


def test_iso_after_base_change(s4_gf4):
    registry = reg_of(s4_gf4)
    P = registry.module(registry.pim_ids()[0])
    rng = np.random.default_rng(9)
    F = s4_gf4.field
    while True:
        T = FFMatrix(F, rng.integers(0, F.q, size=(P.dim, P.dim)))
        if T.is_invertible():
            break
    conj = RepModule(s4_gf4, [T @ g @ T.inverse() for g in P.gen_mats])
    ok, w = is_isomorphic(P, conj)
    assert ok
    for ga, gb in zip(P.gen_mats, conj.gen_mats):
        assert (w @ ga) == (gb @ w)


# -- radical, top, socle -----------------------------------------------------------


def test_top_of_local_algebra(c2_gf2):
    reg = regular_module(c2_gf2)
    t, _ = homalg.top(reg)
    assert t.dim == 1
    ok, _ = is_isomorphic(t, trivial_module(c2_gf2))
    assert ok


def test_radical_of_simple_is_zero(a4_gf4):
    registry = reg_of(a4_gf4)
    S = registry.module(registry.simple_ids()[0])
    r, _ = radical(S)
    assert r.dim == 0


def test_radical_of_pim_s4(s4_gf4):
    registry = reg_of(s4_gf4)
    for pid in registry.pim_ids():
        P = registry.module(pid)
        r, _ = radical(P)
        t, _ = homalg.top(P)
        assert r.dim == P.dim - t.dim
        sid = registry.decompose(t).part_ids[0]
        assert r.dim == P.dim - registry.module(sid).dim


def test_loewy_series_of_pims_a4(a4_gf4):
    registry = reg_of(a4_gf4)
    # each PIM of kA4 at p=2 has Loewy length 3 with middle layer of dim 2
    for pid in registry.pim_ids():
        layers = radical_series(registry.module(pid))
        assert [x.dim for x in layers] == [1, 2, 1]


# -- Cartan matrix ------------------------------------------------------------------


def test_cartan_s4(s4_gf4):
    registry = reg_of(s4_gf4)
    C = cartan_matrix(registry)
    assert C == [[4, 2], [2, 3]]
    # oracle: structural count through radical filtrations
    for j, pid in enumerate(registry.pim_ids()):
        counts = [0] * len(registry.simple_ids())
        for layer in radical_series(registry.module(pid)):
            for sid in registry.decompose(layer).part_ids:
                counts[registry.simple_ids().index(sid)] += 1
        assert counts == [C[i][j] for i in range(2)]


def test_cartan_a4(a4_gf4):
    registry = reg_of(a4_gf4)
    C = cartan_matrix(registry)
    assert all(C[i][i] == 2 for i in range(3))
    assert all(C[i][j] == 1 for i in range(3) for j in range(3) if i != j)


# -- projective covers, syzygies -----------------------------------------------------


def test_cover_of_projective_is_iso(s4_gf4):
    registry = reg_of(s4_gf4)
    P = registry.module(registry.pim_ids()[1])
    cover, pi = homalg.projective_cover(P)
    assert cover.dim == P.dim
    assert pi.is_invertible()


def test_cover_of_trivial_s4(s4_gf4):
    registry = reg_of(s4_gf4)
    k = trivial_module(s4_gf4)
    cover, pi = homalg.projective_cover(k)
    assert cover.dim == 8  # P(1')
    assert pi.rank() == 1


def test_cover_of_top_of_regular(a4_gf4):
    reg = regular_module(a4_gf4)
    t, _ = homalg.top(reg)
    cover, _ = homalg.projective_cover(t)
    ok, _ = is_isomorphic(cover, reg)
    assert ok


def test_cover_essential(s4_gf4):
    """Kernel of the cover map lies in the radical of the cover."""
    k = trivial_module(s4_gf4)
    P, pi = homalg.projective_cover(k)
    ker = pi.nullspace()
    rad_basis = homalg.radical_submodule_basis(P)
    stacked = rad_basis.hstack(ker)
    assert stacked.rank() == rad_basis.rank()


def test_syzygy_of_projective(a4_gf4):
    registry = reg_of(a4_gf4)
    P = registry.module(registry.pim_ids()[0])
    om = homalg.syzygy(P)[0]
    assert om.dim == 0


def test_syzygy_of_trivial_c2(c2_gf2):
    k = trivial_module(c2_gf2)
    om = homalg.syzygy(k)[0]
    assert om.dim == 1
    ok, _ = is_isomorphic(om, k)
    assert ok


def test_syzygy_dimension_formula(s4_gf4):
    registry = reg_of(s4_gf4)
    k = trivial_module(s4_gf4)
    om, _, P, _ = homalg.syzygy(k)
    assert om.dim == P.dim - k.dim
    # no projective summands in a syzygy over a self-injective algebra
    for pid in registry.ids_of(om):
        assert not registry.is_projective_id(pid)


# -- tau -------------------------------------------------------------------------------


def test_tau_projective_is_zero(a4_gf4):
    registry = reg_of(a4_gf4)
    for pid in registry.pim_ids():
        assert tau(registry.module(pid)).dim == 0


def test_tau_trivial_c2(c2_gf2):
    k = trivial_module(c2_gf2)
    t = tau(k)
    assert is_isomorphic(t, nakayama_tau(k))[0]
    assert t.dim == 1
    ok, _ = is_isomorphic(t, k)
    assert ok


def test_tau_simple3_a4(a4_gf4):
    registry = reg_of(a4_gf4)
    S3 = registry.module(registry.simple_ids()[2])
    t = tau(S3)
    assert is_isomorphic(t, nakayama_tau(S3))[0]
    assert t.dim > 0
    assert hom_dim(S3, t) == 0  # tau-rigid


def test_tau_strips_projectives(s4_gf4):
    registry = reg_of(s4_gf4)
    k = trivial_module(s4_gf4)
    P = registry.module(registry.pim_ids()[0])
    t1 = tau(k)
    t2 = tau(direct_sum(k, P))
    ok, _ = is_isomorphic(t1, t2)
    assert ok


def test_tau_nakayama_cross_check_s4(s4_gf4):
    registry = reg_of(s4_gf4)
    k = trivial_module(s4_gf4)
    rad_p, _ = radical(registry.module(registry.pim_ids()[0]))
    for M in (k, rad_p):
        assert is_isomorphic(tau(M), nakayama_tau(M))[0]


# -- duals ------------------------------------------------------------------------------


def test_double_dual(s4_gf4):
    registry = reg_of(s4_gf4)
    for pid in registry.pim_ids():
        M = registry.module(pid)
        DD = homalg.dual_module(homalg.dual_module(M))
        ok, _ = is_isomorphic(M, DD)
        assert ok


def test_dual_of_pim_is_pim(s4_gf4):
    """Group algebras are self-injective: duals of projectives are projective."""
    registry = reg_of(s4_gf4)
    for pid in registry.pim_ids():
        D = homalg.dual_module(registry.module(pid))
        assert all(registry.is_projective_id(i) for i in registry.ids_of(D))


def test_transpose_dual_involution():
    """Tr Tr X = X on every non-projective class of kA4 and kS4 over GF(4)
    that a registry holds once built or that their syzygies register."""
    for name in ("A4", "S4"):
        registry = registry_with_syzygies(fixture_groups()[name], field_create(2, 2))
        nonprojective = [i for i in range(len(registry.entries)) if not registry.is_projective_id(i)]
        assert nonprojective
        for kid in nonprojective:
            td = homalg.transpose_dual_indec(registry, kid)
            assert td.dim > 0
            (td_id,) = registry.ids_of(td)
            back = homalg.transpose_dual_indec(registry, td_id)
            ok, _ = is_isomorphic(back, registry.module(kid))
            assert ok


# -- approximations ----------------------------------------------------------------------


def test_left_approximation_identity(s4_gf4):
    """The minimal left add(Lambda)-approximation of Lambda is invertible
    with zero cokernel."""
    registry = reg_of(s4_gf4)
    reg = regular_module(s4_gf4)
    f, target, comp = homalg.minimal_left_approximation(
        reg, registry.pim_ids(), registry
    )
    cok, _ = homalg.cokernel(f, target)
    assert cok.dim == 0
    assert target.dim == reg.dim


def test_left_approximation_into_zero(a4_gf4):
    registry = reg_of(a4_gf4)
    reg = regular_module(a4_gf4)
    f, target, comp = homalg.minimal_left_approximation(reg, [], registry)
    assert target.dim == 0
    cok, _ = homalg.cokernel(f, target)
    assert cok.dim == 0


def test_left_approximation_simple_target(a4_gf4):
    registry = reg_of(a4_gf4)
    reg = regular_module(a4_gf4)
    sid = registry.simple_ids()[0]
    f, target, comp = homalg.minimal_left_approximation(reg, [sid], registry)
    assert comp == [sid]
    cok, _ = homalg.cokernel(f, target)
    assert cok.dim == 0  # Lambda surjects onto each simple


# -- serialization ------------------------------------------------------------------------


def test_module_json_roundtrip(a4_gf4):
    registry = reg_of(a4_gf4)
    M = registry.module(registry.pim_ids()[1])
    blob = module_to_json(M)
    back = module_from_json(blob)
    assert module_to_json(back) == blob
    # generator matrices with a zero first row act singularly: no representation
    broken = dict(blob, generator_matrices=[[0] * M.dim + g[M.dim:] for g in blob["generator_matrices"]])
    with pytest.raises(ModuleError, match="violate"):
        module_from_json(broken)


def test_zero_module_ops(a4_gf4):
    z = zero_module(a4_gf4)
    assert tau(z).dim == 0
    assert homalg.syzygy(z)[0].dim == 0
    assert hom_dim(z, trivial_module(a4_gf4)) == 0


def test_field_not_splitting_detected():
    """Over GF(2) one simple of the alternating-group algebra has a proper
    extension field as endomorphisms; decomposition refuses to certify."""
    from conftest import make_context
    from tautilt.rings import FieldNotSplittingError

    algebra = make_context(alternating_group(4), 2, 1)
    with pytest.raises(FieldNotSplittingError):
        algebra.registry.simple_ids()


# -- the registry memo -----------------------------------------------------------


def test_copy_with_equal_matrices_decomposes_without_end_basis(monkeypatch):
    from tautilt import modules

    alg = GroupAlgebra(alternating_group(4), field_create(2, 2))
    M = regular_module(alg)
    first = alg.registry.decompose(M)
    calls = []
    real = modules.end_basis
    monkeypatch.setattr(modules, "end_basis", lambda X: calls.append(X) or real(X))
    again = alg.registry.decompose(RepModule(alg, M.gen_mats))
    assert calls == []
    assert again.part_ids == first.part_ids


def test_copy_of_indecomposable_takes_its_class():
    alg = GroupAlgebra(alternating_group(4), field_create(2, 2))
    reg = alg.registry
    P = reg.module(reg.pim_ids()[0])
    copy = RepModule(alg, P.gen_mats)
    assert reg.ids_of(copy) == [reg.pim_ids()[0]]
    assert copy._registry_id == reg.pim_ids()[0]


def test_decomposing_copies_keeps_one_memo_entry():
    alg = GroupAlgebra(alternating_group(4), field_create(2, 2))
    M = regular_module(alg)
    for _ in range(50):
        alg.registry.decompose(RepModule(alg, M.gen_mats))
    assert len(alg.registry._tables["decompose"]) == 1


def test_end_basis_solved_once_per_content(monkeypatch):
    """Splitting and rad End read one content-keyed End table, so a whole
    poset enumeration solves End of each module content once."""
    from tautilt import modules
    from tautilt.engine import TiltingContext, enumerate_poset

    alg = GroupAlgebra(alternating_group(4), field_create(2, 2))
    keys = []
    real = modules.end_basis
    monkeypatch.setattr(
        modules, "end_basis", lambda X: keys.append(modules._content_key(X)) or real(X)
    )
    enumerate_poset(TiltingContext(alg))
    assert keys
    assert len(keys) == len(set(keys))


def test_hom_spaces_solved_once_per_content(monkeypatch):
    """The solver branch of hom_basis and the End bases share one
    content-keyed table, so a whole poset enumeration solves each pair of
    module contents once."""
    from tautilt import modules
    from tautilt.engine import TiltingContext, enumerate_poset

    alg = GroupAlgebra(alternating_group(4), field_create(2, 2))
    keys = []
    real = modules.solve_intertwiner_system

    def recording(field, constraints, dims):
        keys.append((dims, b"".join(L.data.tobytes() + R.data.tobytes() for L, R in constraints)))
        return real(field, constraints, dims)

    monkeypatch.setattr(modules, "solve_intertwiner_system", recording)
    enumerate_poset(TiltingContext(alg))
    assert keys
    assert len(keys) == len(set(keys))


def test_hom_basis_returns_a_fresh_list(a4_gf4):
    reg = a4_gf4.registry
    M = reg.module(reg.simple_ids()[0])
    assert M.sum_parts is None and M.lambda_inclusion is None  # the solver branch
    first = hom_basis(M, M)
    first.append(None)
    assert None not in hom_basis(M, M)
