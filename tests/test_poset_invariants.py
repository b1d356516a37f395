"""Theory-backed invariants of the support tau-tilting poset, on every
poset the tier-1 fixtures enumerate.  The expected values come from group
data alone.

* The Hasse quiver is n-regular, n the number of simple modules: every
  node has n arrows in and out together (Adachi–Iyama–Reiten 2014,
  Cor. 2.38).
* The order that the arrows generate is a lattice: every two nodes have a
  least upper and a greatest lower bound (Demonet–Iyama–Reading–Reiten–
  Thomas; the posets here are finite).
* A block with one simple S and dim B = (dim S)^2 is a matrix algebra
  (defect zero), and its poset has 2 nodes and 1 edge.

Each check reads the node count and the arrows alone, and each fails on a
copy of a poset with one arrow dropped.
"""

import pytest

from corpus import POSET_FIXTURES, fixture_algebra
from tautilt.engine import TiltingContext, enumerate_poset


@pytest.fixture(scope="module", params=sorted(POSET_FIXTURES))
def fixture(request):
    """(expected simples, expected defect-zero blocks, whole-algebra
    context, its poset, the posets of its defect-zero blocks)."""
    *_, simples, defect_zero = POSET_FIXTURES[request.param]
    algebra = fixture_algebra(request.param)
    ctx = TiltingContext(algebra)
    blocks = []
    for block in algebra.blocks():
        block_ctx = TiltingContext(algebra, block)
        if block_ctx.n_simples != 1:
            continue
        simple = algebra.registry.module(block_ctx.simple_ids()[0])
        if block.dim == simple.dim**2:
            blocks.append(enumerate_poset(block_ctx))
    return simples, defect_zero, ctx, enumerate_poset(ctx), blocks


def is_regular(n_nodes: int, arrows, degree: int) -> bool:
    """Whether every node has ``degree`` arrows, in and out together."""
    count = [0] * n_nodes
    for a, b in arrows:
        count[a] += 1
        count[b] += 1
    return all(c == degree for c in count)


def _reach(n_nodes: int, arrows) -> list[int]:
    """For each node, the bit set of the nodes reached from it along
    ``arrows``, itself included."""
    reach = [1 << i for i in range(n_nodes)]
    changed = True
    while changed:
        changed = False
        for a, b in arrows:
            if reach[b] & ~reach[a]:
                reach[a] |= reach[b]
                changed = True
    return reach


def _has_least(bounds: int, reach: list[int]) -> bool:
    """Whether the bit set ``bounds`` holds a node whose reach is all of
    it; the reach of a bound lies inside ``bounds`` already."""
    rest = bounds
    while rest:
        node = (rest & -rest).bit_length() - 1
        if reach[node] == bounds:
            return True
        rest &= rest - 1
    return False


def is_lattice(n_nodes: int, arrows) -> bool:
    """Whether the order generated by ``arrows`` (a above b) is a lattice."""
    up = _reach(n_nodes, [(b, a) for a, b in arrows])
    down = _reach(n_nodes, arrows)
    return all(
        _has_least(up[i] & up[j], up) and _has_least(down[i] & down[j], down)
        for i in range(n_nodes)
        for j in range(i + 1, n_nodes)
    )


def is_matrix_block_poset(n_nodes: int, arrows) -> bool:
    return n_nodes == 2 and len(arrows) == 1


def test_simples_and_matrix_blocks_are_those_of_the_group_data(fixture):
    simples, defect_zero, ctx, _, blocks = fixture
    assert ctx.n_simples == simples
    assert len(blocks) == defect_zero


def test_hasse_quiver_is_n_regular(fixture):
    simples, _, _, poset, _ = fixture
    assert is_regular(poset.n_nodes, poset.edges, simples)
    assert not is_regular(poset.n_nodes, poset.edges[1:], simples)


def test_order_is_a_lattice(fixture):
    """Dropping an arrow out of the top leaves its head and the top both
    maximal, so they have no upper bound in common."""
    _, _, _, poset, _ = fixture
    assert is_lattice(poset.n_nodes, poset.edges)
    dropped = next(e for e in poset.edges if e[0] == poset.top_index)
    assert not is_lattice(poset.n_nodes, [e for e in poset.edges if e != dropped])


def test_a_matrix_block_gives_two_nodes_and_one_edge(fixture):
    *_, blocks = fixture
    for poset in blocks:
        assert is_matrix_block_poset(poset.n_nodes, poset.edges)
        assert not is_matrix_block_poset(poset.n_nodes, poset.edges[1:])
