"""Result checks made apart from the program.

Each check takes the bytes an operation wrote and returns a list of
problems; an empty list means the output is correct.  Nothing here imports
the program: group orders, class counts, block counts and matrix ranks are
computed from the benchmark's own inputs and arithmetic.
"""

from __future__ import annotations

import json

import numpy as np

import inputs
from fieldmath import Field


# -- stt ---------------------------------------------------------------------------


def _reachability(n_nodes: int, edges) -> list[int]:
    """below[i]: bitset of nodes j <= i in the order generated by the
    edges, each edge (a, b) reading a > b."""
    succ = [[] for _ in range(n_nodes)]
    for a, b in edges:
        succ[a].append(b)
    below = [0] * n_nodes
    state = [0] * n_nodes  # 0 new, 1 on stack, 2 done
    for root in range(n_nodes):
        if state[root]:
            continue
        stack = [(root, 0)]
        state[root] = 1
        while stack:
            node, k = stack.pop()
            if k < len(succ[node]):
                stack.append((node, k + 1))
                child = succ[node][k]
                if state[child] == 1:
                    raise ValueError("the edges contain a cycle")
                if state[child] == 0:
                    state[child] = 1
                    stack.append((child, 0))
            else:
                acc = 1 << node
                for child in succ[node]:
                    acc |= below[child]
                below[node] = acc
                state[node] = 2
    return below


def is_lattice(n_nodes: int, edges) -> bool:
    """Every pair has a least upper and a greatest lower bound."""
    below = _reachability(n_nodes, edges)
    above = [0] * n_nodes
    for i in range(n_nodes):
        bits = below[i]
        while bits:
            low = bits & -bits
            above[low.bit_length() - 1] |= 1 << i
            bits ^= low
    nodes = range(n_nodes)
    for x in nodes:
        for y in range(x + 1, n_nodes):
            uppers = above[x] & above[y]
            if not any(uppers >> j & 1 and uppers & ~above[j] == 0 for j in nodes):
                return False
            lowers = below[x] & below[y]
            if not any(lowers >> j & 1 and lowers & ~below[j] == 0 for j in nodes):
                return False
    return True


def check_stt(poset_bytes: bytes, stdout: bytes, group: str, p: int) -> list[str]:
    n = inputs.p_regular_class_count(group, p)
    data = json.loads(poset_bytes)
    nodes, edges = data["nodes"], data["edges"]
    problems = []
    if data["n_nodes"] != len(nodes) or data["n_edges"] != len(edges):
        problems.append("node or edge count disagrees with the lists")
    word = "edge" if len(edges) == 1 else "edges"
    if stdout != f"{len(nodes)} nodes, {len(edges)} {word}\n".encode():
        problems.append(f"stdout {stdout!r} disagrees with the JSON")
    degree = [0] * len(nodes)
    for a, b in edges:
        degree[a] += 1
        degree[b] += 1
    for i, node in enumerate(nodes):
        if len(node["m_ids"]) + len(node["p_ids"]) != n:
            problems.append(f"node {i} has |M| + |P| != {n}")
        if degree[i] != n:
            problems.append(f"node {i} has {degree[i]} arrows, not {n}")
    has_in = {b for _, b in edges}
    has_out = {a for a, _ in edges}
    sources = [i for i in range(len(nodes)) if i not in has_in]
    sinks = [i for i in range(len(nodes)) if i not in has_out]
    if len(sources) != 1 or len(sinks) != 1:
        problems.append(f"{len(sources)} tops and {len(sinks)} bottoms")
    else:
        top, bottom = nodes[sources[0]], nodes[sinks[0]]
        if top["p_ids"] or bottom["m_ids"] or sorted(top["m_ids"]) != sorted(bottom["p_ids"]):
            problems.append("top is not (Lambda, 0) or bottom is not (0, Lambda)")
    if not problems and not is_lattice(len(nodes), edges):
        problems.append("the order is not a lattice")
    return problems


# -- blocks ------------------------------------------------------------------------


def _p_core(partition, p: int) -> tuple[int, ...]:
    """p-core by sliding beads up the runners of a p-abacus."""
    k = len(partition)
    beta = [partition[i] + (k - 1 - i) for i in range(k)]
    runners = [sorted(b // p for b in beta if b % p == r) for r in range(p)]
    slid = sorted(
        (level * p + r for r in range(p) for level in range(len(runners[r]))),
        reverse=True,
    )
    core = [b - (k - 1 - i) for i, b in enumerate(slid)]
    return tuple(x for x in core if x > 0)


def _partitions(n: int, largest: int | None = None):
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def symmetric_block_count(n: int, p: int) -> int:
    """Blocks of GF(p)S_n: one per p-core (Nakayama's conjecture)."""
    return len({_p_core(lam, p) for lam in _partitions(n)})


def check_blocks(stdout: bytes, group: str, p: int) -> list[str]:
    data = json.loads(stdout)
    order = len(inputs.elements(group))
    dims = [b["dim"] for b in data["blocks"]]
    problems = []
    if sum(dims) != order:
        problems.append(f"block dimensions sum to {sum(dims)}, not |G| = {order}")
    if sum(1 for b in data["blocks"] if b["principal"]) != 1:
        problems.append("not exactly one principal block")
    expected = symmetric_block_count(inputs.GROUPS[group][0], p)
    if data["count"] != len(dims) or len(dims) != expected:
        problems.append(f"{len(dims)} blocks, expected {expected} from the {p}-cores")
    return problems


# -- induce and mackey -------------------------------------------------------------


def check_induce(stdout: bytes, sub: str, amb: str, module: dict) -> list[str]:
    """The output is a representation of the overgroup of dimension
    [G:H] dim M: walking the Cayley graph of the overgroup from the identity,
    every edge g -> s g agrees with rho(s) rho(g)."""
    data = json.loads(stdout)
    field = Field(data["field"]["p"], data["field"]["modulus"])
    index = len(inputs.elements(amb)) // len(inputs.elements(sub))
    dim = data["dim"]
    problems = []
    if dim != index * module["dim"]:
        problems.append(f"dimension {dim}, expected {index} * {module['dim']}")
        return problems
    degree, gens = inputs.GROUPS[amb]
    gens0 = [tuple(x - 1 for x in g) for g in gens]
    if [[x + 1 for x in g] for g in gens0] != data["group"]["generators"]:
        problems.append("output group generators differ from the overgroup's")
        return problems
    mats = [np.array(m, dtype=np.int16).reshape(dim, dim) for m in data["generator_matrices"]]
    ident = tuple(range(degree))
    rho = {ident: np.eye(dim, dtype=np.int16)}
    frontier = [ident]
    while frontier:
        nxt = []
        for g in frontier:
            for s, S in zip(gens0, mats):
                h = inputs.compose(s, g)
                image = field.matmul(S, rho[g])
                if h not in rho:
                    rho[h] = image
                    nxt.append(h)
                elif not np.array_equal(rho[h], image):
                    problems.append(f"Cayley edge into {h} is inconsistent")
                    return problems
        frontier = nxt
    if len(rho) != len(inputs.elements(amb)):
        problems.append("the walk did not reach every element of the overgroup")
    return problems


def check_mackey(stdout: bytes, sub: str, amb: str, module: dict) -> list[str]:
    data = json.loads(stdout)
    index = len(inputs.elements(amb)) // len(inputs.elements(sub))
    want = index * module["dim"]
    problems = []
    if data["ok"] is not True:
        problems.append("mackey reports not ok")
    if not data["left_dim"] == data["right_dim"] == want:
        problems.append(f"dimensions {data['left_dim']}, {data['right_dim']}, expected {want}")
    witness = data["witness"] or []
    if len(witness) != want * want:
        problems.append("the witness is not square of the expected size")
        return problems
    field = Field(module["field"]["p"], module["field"]["modulus"])
    W = np.array(witness, dtype=np.int16).reshape(want, want)
    if field.rank(W) != want:
        problems.append("the witness is not invertible")
    return problems


# -- verify ------------------------------------------------------------------------


def check_verify(stdout: bytes, sub: str, amb: str) -> list[str]:
    data = json.loads(stdout)
    index = len(inputs.elements(amb)) // len(inputs.elements(sub))
    problems = []
    if data["passed"] is not True:
        problems.append("verify reports not passed")
    if data["index"] != index:
        problems.append(f"index {data['index']}, expected {index}")
    for block in data["blocks"]:
        clauses = {c["name"]: c for c in block["pipeline"]["clauses"]}
        invariant = clauses["invariant_nodes_found"]["details"]["count"]
        image = clauses["induced_map_image"]["details"]["image_size"]
        if image != invariant:
            problems.append(f"block {block['block']}: image {image} != {invariant} invariant nodes")
        if not all(c["passed"] for c in clauses.values()):
            problems.append(f"block {block['block']}: a pipeline clause failed")
        reports = block["L3.1"]["reports"]
        if len(reports) != invariant:
            problems.append(f"block {block['block']}: {len(reports)} L3.1 reports for {invariant} nodes")
        for r in reports:
            if not (r["passed"] and all(c["passed"] for c in r["clauses"])):
                problems.append(f"block {block['block']}: an L3.1 verdict failed")
    return problems
