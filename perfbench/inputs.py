"""Inputs of the workloads: permutation groups, written as the program's
group JSON, and the seeded module for ``mackey`` and ``induce``.

Groups are given by generators on 1-based points.  Their elements and
conjugacy classes are computed here, apart from the program, for the
result checks.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from fieldmath import Field


def _sl23_generators():
    """SL(2,3) acting on the 8 non-zero vectors of GF(3)^2."""
    vecs = [(a, b) for a in range(3) for b in range(3) if (a, b) != (0, 0)]

    def perm(M):
        return [
            vecs.index(((M[0][0] * x + M[0][1] * y) % 3, (M[1][0] * x + M[1][1] * y) % 3)) + 1
            for x, y in vecs
        ]

    return [perm([[1, 1], [0, 1]]), perm([[0, 2], [1, 0]])]


# name -> (degree, generators as 1-based image lists)
GROUPS = {
    "S3": (3, [[2, 3, 1], [2, 1, 3]]),
    "C3": (3, [[2, 3, 1]]),
    "A4": (4, [[2, 3, 1, 4], [2, 1, 4, 3]]),
    "S4": (4, [[2, 3, 4, 1], [2, 1, 3, 4]]),
    "S5": (5, [[2, 3, 4, 5, 1], [2, 1, 3, 4, 5]]),
    "SL23": (8, _sl23_generators()),
    "S3xC3": (6, [[2, 3, 1, 4, 5, 6], [2, 1, 3, 4, 5, 6], [1, 2, 3, 5, 6, 4]]),
}

# The only monic irreducible quadratic over GF(2): x^2 + x + 1.
GF4_MODULUS = (1, 1, 1)


def compose(a, b):
    """(a * b)(x) = a(b(x)) on 0-based image tuples."""
    return tuple(a[x] for x in b)


def elements(name: str) -> list[tuple[int, ...]]:
    degree, gens = GROUPS[name]
    gens0 = [tuple(x - 1 for x in g) for g in gens]
    ident = tuple(range(degree))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for g in frontier:
            for s in gens0:
                h = compose(s, g)
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        frontier = nxt
    return sorted(seen)


def element_order(g) -> int:
    ident = tuple(range(len(g)))
    k, x = 1, g
    while x != ident:
        x = compose(g, x)
        k += 1
    return k


def p_regular_class_count(name: str, p: int) -> int:
    """Number of conjugacy classes of elements of order prime to p: the
    number of simple modules over a splitting field (Brauer)."""
    elts = elements(name)
    inverse = {g: tuple(sorted(range(len(g)), key=lambda i: g[i])) for g in elts}
    seen = set()
    count = 0
    for g in elts:
        if g in seen:
            continue
        cls = {compose(compose(x, g), inverse[x]) for x in elts}
        seen |= cls
        if element_order(g) % p:
            count += 1
    return count


def write_group(directory: Path, name: str) -> Path:
    degree, gens = GROUPS[name]
    path = directory / f"{name}.json"
    path.write_text(json.dumps({"degree": degree, "generators": gens}))
    return path


def pair_permutation_module(name: str):
    """Permutation matrices (column convention, g e_x = e_{g(x)}) of the
    action of the group's generators on ordered pairs of points."""
    degree, gens = GROUPS[name]
    pairs = [(i, j) for i in range(degree) for j in range(degree)]
    index = {pr: k for k, pr in enumerate(pairs)}
    mats = []
    for g in gens:
        g0 = [x - 1 for x in g]
        P = np.zeros((len(pairs), len(pairs)), dtype=np.int16)
        for k, (i, j) in enumerate(pairs):
            P[index[(g0[i], g0[j])], k] = 1
        mats.append(P)
    return mats


def write_seeded_module(directory: Path, seed: int) -> tuple[Path, dict]:
    """A4's 16-dimensional permutation module on ordered pairs of points,
    over GF(4), in a random basis drawn from ``seed``."""
    field = Field(2, GF4_MODULUS)
    rng = np.random.default_rng(seed)
    mats = pair_permutation_module("A4")
    dim = mats[0].shape[0]
    T = field.random_invertible(dim, rng)
    Tinv = field.inverse(T)
    conj = [field.matmul(field.matmul(Tinv, P), T) for P in mats]
    degree, gens = GROUPS["A4"]
    data = {
        "field": {"p": 2, "m": 2, "modulus": list(GF4_MODULUS)},
        "group": {"degree": degree, "generators": gens},
        "dim": dim,
        "generator_matrices": [[int(x) for x in M.ravel()] for M in conj],
        "label": f"perm(A4 on pairs) seed {seed}",
    }
    path = directory / "module.json"
    path.write_text(json.dumps(data))
    return path, data
