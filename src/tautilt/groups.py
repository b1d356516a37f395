"""Finite permutation groups, subgroup embeddings and their JSON format.

Permutations are tuples of images on 0-based points; composition is
``(a * b)(x) = a(b(x))``.  Elements of a group are enumerated in canonical
order (sorted image tuples), which makes every downstream basis and every
coset-representative choice reproducible.

The JSON schema for a group is ``{"degree": n, "generators": [...]}`` where
each generator is either a list of n 1-based images or a list of cycles
(lists of 1-based points).
"""

from __future__ import annotations

import json
from math import lcm

import numpy as np

Perm = tuple[int, ...]


class GroupError(ValueError):
    pass


def perm_identity(degree: int) -> Perm:
    return tuple(range(degree))


def perm_compose(a: Perm, b: Perm) -> Perm:
    """(a * b)(x) = a(b(x))."""
    return tuple(a[b[x]] for x in range(len(a)))


def perm_inverse(a: Perm) -> Perm:
    out = [0] * len(a)
    for i, img in enumerate(a):
        out[img] = i
    return tuple(out)


def perm_from_cycles(cycles, degree: int) -> Perm:
    """Cycles given in 1-based points."""
    images = list(range(degree))
    for cyc in cycles:
        if not cyc:
            continue
        pts = [c - 1 for c in cyc]
        if any(x < 0 or x >= degree for x in pts):
            raise GroupError(f"cycle point out of range for degree {degree}")
        if len(set(pts)) != len(pts):
            raise GroupError("repeated point in cycle")
        for i, x in enumerate(pts):
            images[x] = pts[(i + 1) % len(pts)]
    return tuple(images)


def perm_cycles(a: Perm) -> list[list[int]]:
    """Nontrivial cycles, 1-based, each starting at its least point."""
    seen = [False] * len(a)
    out = []
    for start in range(len(a)):
        if seen[start] or a[start] == start:
            seen[start] = True
            continue
        cyc = []
        x = start
        while not seen[x]:
            seen[x] = True
            cyc.append(x + 1)
            x = a[x]
        out.append(cyc)
    return out


def perm_order(a: Perm) -> int:
    return lcm(*[len(c) for c in perm_cycles(a)]) if perm_cycles(a) else 1


class FiniteGroup:
    """A finite group of permutations, closed and canonically ordered."""

    def __init__(self, degree: int, generators, elements, name: str = ""):
        self.degree = degree
        self.generators = tuple(generators)
        self.elements = tuple(elements)
        self.index = {g: i for i, g in enumerate(self.elements)}
        self.name = name or f"group<{degree},{len(self.elements)}>"
        self.identity = self.index[perm_identity(degree)]
        self.gen_indices = tuple(self.index[g] for g in self.generators)
        self._inv = tuple(self.index[perm_inverse(g)] for g in self.elements)
        self._table = None
        self._classes = None

    @classmethod
    def from_generators(cls, perms, name: str = "", order_cap: int = 10000) -> "FiniteGroup":
        perms = [tuple(p) for p in perms]
        if not perms:
            raise GroupError("at least one generator is required")
        degree = len(perms[0])
        for p in perms:
            if len(p) != degree:
                raise GroupError("generators have mixed degrees")
            if sorted(p) != list(range(degree)):
                raise GroupError(f"not a permutation of range({degree}): {p}")
        ident = perm_identity(degree)
        seen = {ident}
        frontier = [ident]
        while frontier:
            nxt = []
            for g in frontier:
                for s in perms:
                    h = perm_compose(s, g)
                    if h not in seen:
                        if len(seen) >= order_cap:
                            raise GroupError(
                                f"generated group order exceeds cap {order_cap}"
                            )
                        seen.add(h)
                        nxt.append(h)
            frontier = nxt
        return cls(degree, perms, sorted(seen), name=name)

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def table(self) -> np.ndarray:
        """The multiplication table, read-only: ``table[i, j]`` is the index
        of ``elements[i] * elements[j]``.  Built on first use by array
        operations, a block of rows at a time."""
        if self._table is None:
            E = np.array(self.elements, dtype=np.intp)
            n, degree = E.shape
            # The rank of an element's first x + 1 images among those of all
            # elements follows from the rank of its first x: rank * degree +
            # image x, looked up among the values of that key.  The rows are
            # sorted, so each key is too, and a whole row's rank is its index.
            levels, rank = [], np.zeros(n, dtype=np.intp)
            for x in range(degree):
                key = rank * degree + E[:, x]
                new = np.ones(n, dtype=bool)
                new[1:] = key[1:] != key[:-1]
                levels.append(key[new])
                rank = np.cumsum(new) - 1
            table = np.empty((n, n), dtype=np.int16 if n <= 1 << 15 else np.int32)
            # blocks of rows keep the (rows, n, degree) image array near 2^16
            step = max(1, (1 << 16) // (n * degree))
            for start in range(0, n, step):
                prod = E[start : start + step][:, E]  # [a, b, x] = a(b(x))
                rank = np.zeros(prod.shape[:2], dtype=np.intp)
                for x, values in enumerate(levels):
                    rank = values.searchsorted(rank * degree + prod[:, :, x])
                table[start : start + step] = rank
            table.flags.writeable = False
            self._table = table
        return self._table

    def mul(self, i: int, j: int) -> int:
        return int(self.table[i, j])

    def inv(self, i: int) -> int:
        return self._inv[i]

    def conjugate(self, x: int, g: int) -> int:
        """x * g * x^-1 as element indices."""
        return self.mul(self.mul(x, g), self.inv(x))

    def element_order(self, i: int) -> int:
        return perm_order(self.elements[i])

    def exponent(self) -> int:
        return lcm(*[self.element_order(i) for i in range(self.order)])

    def conjugacy_classes(self) -> tuple[tuple[int, ...], ...]:
        """Partition of element indices, each class sorted, classes ordered
        by least member."""
        if self._classes is None:
            seen = set()
            classes = []
            for i in range(self.order):
                if i in seen:
                    continue
                orbit = set(self.table[self.table[:, i], self._inv].tolist())
                seen |= orbit
                classes.append(tuple(sorted(orbit)))
            self._classes = tuple(sorted(classes, key=lambda c: c[0]))
        return self._classes

    def __repr__(self):
        return f"FiniteGroup({self.name}, order={self.order})"


def group_from_generators(perms, name: str = "", order_cap: int = 10000) -> FiniteGroup:
    return FiniteGroup.from_generators(perms, name=name, order_cap=order_cap)


class SubgroupEmbedding:
    """An inclusion of finite groups acting on the same points.

    Every element of ``sub`` must literally be an element of ``amb`` (same
    degree).  Left coset representatives are canonical: the least element of
    each coset in the ambient element order, listed by ascending index, so
    the identity coset always comes first.
    """

    def __init__(self, sub: FiniteGroup, amb: FiniteGroup):
        if sub.degree != amb.degree:
            raise GroupError("subgroup embedding needs matching permutation degree")
        try:
            self.element_map = tuple(amb.index[g] for g in sub.elements)
        except KeyError as e:
            raise GroupError(f"subgroup element not in ambient group: {e}") from e
        if amb.order % sub.order != 0:
            raise GroupError("order of subgroup does not divide ambient order")
        self.sub = sub
        self.amb = amb
        self.sub_index_of = {a: i for i, a in enumerate(self.element_map)}
        image = set(self.element_map)
        reps = []
        seen = set()
        for x in range(amb.order):
            if x in seen:
                continue
            coset = {amb.mul(x, h) for h in image}
            seen |= coset
            reps.append(min(coset))
        self.coset_reps = tuple(sorted(reps))
        self.normal = all(
            amb.conjugate(x, h) in image
            for x in amb.gen_indices
            for h in (self.element_map[i] for i in sub.gen_indices)
        )

    @property
    def n_cosets(self) -> int:
        return self.amb.order // self.sub.order

    def to_sub(self, amb_idx: int) -> int:
        """Subgroup index of an ambient element, or raise if outside."""
        try:
            return self.sub_index_of[amb_idx]
        except KeyError:
            raise GroupError("element does not lie in the subgroup") from None

    def contains(self, amb_idx: int) -> bool:
        return amb_idx in self.sub_index_of

    def coset_decompose(self, amb_idx: int) -> tuple[int, int]:
        """(position of coset rep, subgroup index h) with g = rep * h."""
        amb = self.amb
        for pos, r in enumerate(self.coset_reps):
            h = amb.mul(amb.inv(r), amb_idx)
            if self.contains(h):
                return pos, self.to_sub(h)
        raise AssertionError("coset decomposition failed")

    def __repr__(self):
        flag = "normal" if self.normal else "non-normal"
        return f"SubgroupEmbedding({self.sub.name} <= {self.amb.name}, {flag})"


# -- JSON I/O ----------------------------------------------------------------


def group_from_json(data, name: str = "", order_cap: int = 10000) -> FiniteGroup:
    if isinstance(data, str):
        data = json.loads(data)
    if not isinstance(data, dict) or "degree" not in data or not isinstance(
        data.get("generators"), list
    ):
        raise GroupError('group JSON must be {"degree": n, "generators": [...]}')
    degree = data["degree"]
    if type(degree) is not int or degree < 1:
        raise GroupError("degree must be a positive integer")
    perms = []
    for gen in data["generators"]:
        if not isinstance(gen, list) or not gen:
            raise GroupError("each generator must be a non-empty list")
        lists = gen if isinstance(gen[0], list) else [gen]  # cycles, or the image list
        if not all(isinstance(c, list) and all(type(x) is int for x in c) for c in lists):
            raise GroupError(f"not a list of integer points: {gen}")
        if isinstance(gen[0], list):
            perms.append(perm_from_cycles(gen, degree))
        else:
            if len(gen) != degree:
                raise GroupError(f"image list has length {len(gen)}, expected {degree}")
            imgs = [x - 1 for x in gen]
            if sorted(imgs) != list(range(degree)):
                raise GroupError(f"not a permutation (1-based images): {gen}")
            perms.append(tuple(imgs))
    return FiniteGroup.from_generators(
        perms, name=name or data.get("name", ""), order_cap=order_cap
    )


def group_to_json(group: FiniteGroup) -> dict:
    return {
        "degree": group.degree,
        "generators": [[x + 1 for x in g] for g in group.generators],
    }
