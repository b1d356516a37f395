"""Every Hom basis is the solver's canonical form, so one registry table
keyed by the two modules' contents holds them all.

* For each PIM P and each class X of the fixture registries (A4, S4, C3
  and S3 over GF(2), GF(3) and GF(4), with the classes their syzygies
  register), ``hom_basis(P, X)`` through the free-module shortcut equals
  the intertwiner solver's list, and so does ``hom_basis`` of a copy of P
  that is not known as a summand of the regular module, whichever of the
  two fills the table first.
* The Hom space out of a direct sum is the one its parts' bases, lifted
  (``ff_oracles.lifted_sum_hom``), span.
* End of the regular module, the right multiplications read off the group
  table (``modules.regular_end_basis``), is the solver's basis on every
  fixture group over GF(2), GF(3), GF(4) and GF(5); the bootstrap stores
  it before it splits kG.
* A poset enumeration runs the downward mutation at each (node, module
  summand) once, with no table in between.
"""

import contextlib
import io
import json

import pytest

from corpus import fixture_groups, registry_with_syzygies
from ff_oracles import lifted_sum_hom
from tautilt import engine, rings
from tautilt.cli import main
from tautilt.ff import field_create, solve_intertwiner_system
from tautilt.algebra import GroupAlgebra
from tautilt.modules import (
    RepModule,
    _content_key,
    direct_sum,
    end_basis,
    hom_basis,
    regular_end_basis,
    regular_module,
)
from tautilt.rings import FieldNotSplittingError

GROUPS = ("A4", "S4", "C3", "S3")
FIELDS = {"GF(2)": (2, 1), "GF(3)": (3, 1), "GF(4)": (2, 2)}


@pytest.fixture(scope="module", params=sorted(FIELDS))
def registries(request):
    """A fresh registry with its syzygy classes per fixture group whose
    algebra the field splits; the others raise while the registry is
    built, and must not be all."""
    out = []
    for name in GROUPS:
        with contextlib.suppress(FieldNotSplittingError):
            out.append(registry_with_syzygies(fixture_groups()[name], field_create(*FIELDS[request.param])))
    assert len(out) >= len(GROUPS) // 2
    return out


def solved(M, N):
    return solve_intertwiner_system(M.field, list(zip(M.gen_mats, N.gen_mats)), (N.dim, M.dim))


def asked_first(reg, M, N):
    """hom_basis(M, N) with an empty Hom table, so that M's path fills it."""
    reg._tables["hom"].clear()
    return hom_basis(M, N)


def test_shortcut_and_solver_give_the_same_basis(registries):
    for reg in registries:
        for pid in reg.pim_ids():
            P = reg.module(pid)
            assert P.lambda_inclusion is not None
            plain = RepModule(P.algebra, P.gen_mats)
            for pos in range(len(reg.entries)):
                X = reg.module(pos)
                want = solved(P, X)
                assert asked_first(reg, P, X) == want
                assert hom_basis(plain, X) == want
                assert asked_first(reg, plain, X) == want
                assert hom_basis(P, X) == want


def test_direct_sum_hom_spans_the_lifted_bases(registries):
    for reg in registries:
        F = reg.algebra.field
        n = len(reg.entries)
        for pos, other in ((a, b) for a in range(n) for b in range(a, n)):
            S = direct_sum(reg.module(pos), reg.module(other))
            for npos in range(n):
                N = reg.module(npos)
                basis = hom_basis(S, N)
                assert basis == solved(S, N)
                assert rings.reduce_span(F, basis) == rings.reduce_span(F, lifted_sum_hom(S, N))


@pytest.mark.parametrize("field", [(2, 1), (3, 1), (2, 2), (5, 1)], ids=str)
def test_end_of_the_regular_module_is_read_off_the_group_table(field):
    for group in fixture_groups().values():
        alg = GroupAlgebra(group, field_create(*field))
        reg = regular_module(alg)
        assert regular_end_basis(alg) == end_basis(reg)
        if group.name == "S4":  # what the bootstrap finds in the table
            alg.registry.pim_ids()
            key = _content_key(reg)
            assert alg.registry._tables["hom"][key, key] == end_basis(reg)


# Generators as image lists on 1-based points, as in the pinned digests.
STT_GROUPS = {
    "A4": (4, [[2, 3, 1, 4], [2, 1, 4, 3]]),
    "S3xC3": (6, [[2, 3, 1, 4, 5, 6], [2, 1, 3, 4, 5, 6], [1, 2, 3, 5, 6, 4]]),
}


@pytest.mark.parametrize("name", sorted(STT_GROUPS))
def test_enumeration_mutates_each_node_summand_once(name, tmp_path, monkeypatch):
    degree, gens = STT_GROUPS[name]
    group_file = tmp_path / f"{name}.json"
    group_file.write_text(json.dumps({"degree": degree, "generators": gens}))
    calls = []
    real = engine._down_mutation

    def recording(pair, removed):
        calls.append((pair.m_ids, pair.p_ids, removed))
        return real(pair, removed)

    monkeypatch.setattr(engine, "_down_mutation", recording)
    poset_file = tmp_path / "poset.json"
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["stt", str(group_file), "--p", "2", "--json", str(poset_file), "--no-cache"])
    assert code == 0
    nodes = json.loads(poset_file.read_text())["nodes"]
    want = [(tuple(n["m_ids"]), tuple(n["p_ids"]), r) for n in nodes for r in n["m_ids"]]
    assert sorted(calls) == sorted(want)
