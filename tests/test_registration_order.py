"""What the order in which a registry meets its classes decides.

Registry ids are registration indices.  A second ``ModuleRegistry`` on the
same algebra, fed copies of the first one's PIMs in reverse before its
bootstrap, meets the classes in another order, and the whole-algebra
poset is enumerated again.  On A4 and S3xC3 over GF(4) and S4 over GF(3):

* what stays: the node and edge counts, the multiset of the nodes'
  (label, support label) pairs, and the edges as pairs of those;
* what moves: the registry ids of the simples and PIMs, and with them the
  numbering of the nodes (they are sorted by ids after summands and
  dimension) and the bytes of the DOT output.

Output that depends on the ids is what a canonical numbering of classes
would have to fix.

A PIM class met before the bootstrap gets an inclusion into the regular
module from the bootstrap (its part's inclusion composed with an
isomorphism), so the Hom spaces out of it take the free-module shortcut:
enumerating needs no more solver calls than on a fresh registry, give or
take the one isomorphism solve per PIM class.
"""

import pytest

from corpus import fixture_algebra
from tautilt import modules
from tautilt.engine import TiltingContext, enumerate_poset
from tautilt.modules import ModuleRegistry, RepModule


def _answer(algebra) -> dict:
    poset = enumerate_poset(TiltingContext(algebra))
    reg = algebra.registry
    names = [(node.label(), node.support_label()) for node in poset.nodes]
    return {
        "counts": (poset.n_nodes, poset.n_edges),
        "labels": sorted(names),
        "edges": {(names[a], names[b]) for a, b in poset.edges},
        "ids": (reg.simple_ids(), reg.pim_ids()),
        "numbering": names,
        "dot": poset.to_dot(),
    }


def _reversed_registry(algebra) -> ModuleRegistry:
    """A second registry on the algebra, fed copies of the first one's PIMs
    in reverse before its bootstrap."""
    first = algebra.registry
    second = ModuleRegistry(algebra)
    for pid in reversed(first.pim_ids()):
        second.find_or_register(RepModule(algebra, first.module(pid).gen_mats))
    return second


@pytest.mark.parametrize("name", ["A4 GF(4)", "S3xC3 GF(4)", "S4 p3 m1"])
def test_pims_registered_in_reverse(name):
    algebra = fixture_algebra(name)
    before = _answer(algebra)
    second = _reversed_registry(algebra)
    assert algebra.registry is second
    after = _answer(algebra)
    for key in ("counts", "labels", "edges"):
        assert after[key] == before[key], key
    for key in ("ids", "numbering", "dot"):
        assert after[key] != before[key], key


@pytest.mark.parametrize("name", ["A4 GF(4)", "S3xC3 GF(4)", "S4 p3 m1"])
def test_pims_registered_first_get_an_inclusion(name, monkeypatch):
    calls = []
    real = modules.solve_intertwiner_system

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(modules, "solve_intertwiner_system", counting)
    fresh = fixture_algebra(name)
    enumerate_poset(TiltingContext(fresh))
    on_fresh = len(calls)
    algebra = fixture_algebra(name)
    reg = _reversed_registry(algebra)
    assert all(P.lambda_inclusion is None for P in reg.entries)
    del calls[:]
    enumerate_poset(TiltingContext(algebra))
    assert all(reg.module(q).lambda_inclusion is not None for q in reg.pim_ids())
    assert len(calls) <= on_fresh + len(reg.pim_ids())
