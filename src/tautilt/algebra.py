"""Group algebras kG over GF(p^m), their centers and block decompositions.

A group algebra element is a coefficient vector indexed by the canonical
element order of the group; products and sums of such vectors are
products through ``ff._matmul``.  Blocks are central primitive idempotents,
found by the splitting search of ``rings.find_splitting_idempotent`` on the
regular representation of the center (spanned by the conjugacy-class sums)
and of its pieces, and ordered deterministically: principal block first,
then by dimension, then by idempotent coefficient vector.
"""

from __future__ import annotations

from math import lcm

import numpy as np

from . import rings
from .ff import _CODE_DTYPE, FFMatrix, FieldSpec, _matmul, field_create
from .groups import FiniteGroup, SubgroupEmbedding


class AlgebraError(ValueError):
    pass


def splitting_field_degree(p: int, groups) -> int:
    """Degree m such that GF(p^m) contains the e-th roots of unity for e the
    p'-part of the largest exponent among the given groups."""
    from .ff import FFError, _is_prime

    if not _is_prime(p):
        raise FFError(f"characteristic {p} is not prime")
    e = 1
    for g in groups:
        e = lcm(e, g.exponent())
    while e % p == 0:
        e //= p
    if e == 1:
        return 1
    m = 1
    while pow(p, m, e) != 1:
        m += 1
    return m


def splitting_field(p: int, groups) -> FieldSpec:
    return field_create(p, splitting_field_degree(p, groups))


class GroupAlgebra:
    """kG with vector arithmetic on coefficient lists."""

    def __init__(self, group: FiniteGroup, field: FieldSpec):
        self.group = group
        self.field = field
        self.dim = group.order
        self._blocks = None
        self._regular_actions = None
        self._radical = None  # set by the bootstrap of its registry
        self._registry = None  # set by the ModuleRegistry of this algebra

    @property
    def registry(self):
        """The ModuleRegistry of this algebra, which owns every memoised
        fact about its modules, built on first use."""
        if self._registry is None:
            from .modules import ModuleRegistry

            ModuleRegistry(self)
        return self._registry

    def zero(self) -> list[int]:
        return [0] * self.dim

    def unit(self) -> list[int]:
        v = self.zero()
        v[self.group.identity] = 1
        return v

    def mul_vec(self, a, b) -> list:
        """The product of two coefficient vectors, or the products of each
        row of a with each row of b: the coefficient at g_k of ab is
        sum_i a_i b_(g_i^-1 g_k).  One product of the columns i where some
        row of a is nonzero with the rows b[table[inv(g_i)]], so nnz(a) |G|
        multiply-adds per pair of rows."""
        a, b = np.asarray(a, dtype=_CODE_DTYPE), np.asarray(b, dtype=_CODE_DTYPE)
        a_rows = a.reshape(-1, self.dim)
        i = np.flatnonzero(a_rows.any(axis=0))
        rows = b[..., self.group.table[[self.group.inv(x) for x in i]]]
        rows = np.moveaxis(rows, -2, 0).reshape(len(i), b.size)
        prod = _matmul(self.field, a_rows[:, i], rows)
        return prod.reshape(a.shape[:-1] + b.shape).tolist()

    @property
    def regular_actions(self) -> np.ndarray:
        """The read-only (|G|, |G|, |G|) stack of the permutation matrices of
        left multiplication on the element basis, g e_j = e_(gj): the action
        stack every regular module of this algebra shares.  Built on first
        use from the multiplication table in one fancy-index step."""
        if self._regular_actions is None:
            n = self.dim
            stack = np.zeros((n, n, n), dtype=_CODE_DTYPE)
            stack[np.arange(n)[:, None], self.group.table, np.arange(n)] = 1
            stack.flags.writeable = False
            self._regular_actions = stack
        return self._regular_actions

    def center_basis(self) -> list[list[int]]:
        """Conjugacy class sums."""
        out = []
        for cls in self.group.conjugacy_classes():
            v = self.zero()
            for i in cls:
                v[i] = 1
            out.append(v)
        return out

    def radical_vectors(self) -> list[list[int]]:
        """Basis of the Jacobson radical of kG as coefficient vectors, in
        reduced echelon form.  The bootstrap of the registry reads it off the
        split of kG into PIMs (``ModuleRegistry._radical_of_parts``), so over
        a field that does not split kG this raises FieldNotSplittingError."""
        if self._radical is None:
            self.registry.simple_ids()
        return self._radical

    def blocks(self) -> list["Block"]:
        if self._blocks is None:
            self._blocks = block_decomposition(self)
        return self._blocks

    def __repr__(self):
        return f"GroupAlgebra({self.group.name}, {self.field})"


class Block:
    """A block of kG: a central primitive idempotent with bookkeeping."""

    def __init__(self, parent: GroupAlgebra, idempotent):
        self.parent = parent
        self.idempotent = list(idempotent)
        self.index = -1  # set by block_decomposition
        # left multiplication by e has entry (i, j) = e_(i j^-1); taking its
        # columns in the order of the inverses leaves e_(ij), and the rank
        e = np.asarray(self.idempotent, dtype=_CODE_DTYPE)
        self.dim = FFMatrix._trusted(parent.field, e[parent.group.table]).rank()
        # nonzero action on the trivial module: the sum of the coefficients
        ones = np.ones((parent.dim, 1), dtype=_CODE_DTYPE)
        self.is_principal = bool(_matmul(parent.field, e[None, :], ones)[0, 0])

    @property
    def field(self) -> FieldSpec:
        return self.parent.field

    @property
    def group(self) -> FiniteGroup:
        return self.parent.group

    def label(self) -> str:
        return f"B{self.index}" + ("*" if self.is_principal else "")

    def __repr__(self):
        kind = "principal, " if self.is_principal else ""
        return f"Block({self.parent.group.name}, {kind}dim={self.dim})"


def block_decomposition(algebra: GroupAlgebra) -> list[Block]:
    """Central primitive idempotents, deterministically ordered: principal
    first, then ascending dimension, then idempotent coefficient codes."""
    field = algebra.field
    idems = _primitive_idempotents(algebra, algebra.unit())
    blocks = [Block(algebra, e) for e in idems]
    # sanity: orthogonal decomposition of 1
    ones = np.ones((1, len(idems)), dtype=_CODE_DTYPE)
    if _matmul(field, ones, np.array(idems, dtype=_CODE_DTYPE))[0].tolist() != algebra.unit():
        raise AssertionError("block idempotents do not sum to 1")
    blocks.sort(key=lambda b: (not b.is_principal, b.dim, tuple(b.idempotent)))
    for i, b in enumerate(blocks):
        b.index = i
    return blocks


def _primitive_idempotents(algebra: GroupAlgebra, e) -> list[list[int]]:
    """The primitive idempotents of the center Z of kG that lie in eZ, for a
    central idempotent e.  The splitting search runs on the regular
    representation of eZ, with the radical of those matrices, and a local
    eZ gives e alone.  Else it gives multiplication by some f, and eZ is
    fZ x (e - f)Z.  The basis of eZ is in reduced echelon form, so the
    coordinates of an element are its entries at the pivots: E^T times the
    basis is the f b_j, which the coordinates of e combine into f."""
    field = algebra.field
    e = np.array(e)
    eZ = np.array(algebra.mul_vec(e, algebra.center_basis()))
    R, pivots = FFMatrix._trusted(field, eZ).rref()
    basis = R.data[: len(pivots)]
    # row j of the i-th entry: the coordinates of b_i b_j
    prods = np.array(algebra.mul_vec(basis, basis))[:, :, pivots]
    regular = [FFMatrix._trusted(field, L.T) for L in prods]
    E = rings.find_splitting_idempotent(
        field, regular, lambda J: rings.algebra_radical(field, regular) if J is None else J
    )
    if E is None:
        return [e.tolist()]
    f = _matmul(field, e[None, pivots], _matmul(field, E.data.T, basis))[0]
    rest = field.add_table[e, field.neg_table[f]]
    return _primitive_idempotents(algebra, f) + _primitive_idempotents(algebra, rest)


def principal_block(algebra: GroupAlgebra) -> Block:
    for b in algebra.blocks():
        if b.is_principal:
            return b
    raise AssertionError("no principal block found")


def covers(btilde: Block, b: Block, emb: SubgroupEmbedding) -> bool:
    """Whether the overgroup block covers the subgroup block: the product
    of the two idempotents inside the overgroup algebra is nonzero."""
    if not emb.normal:
        raise AlgebraError("covering is defined along a normal embedding")
    amb_alg = btilde.parent
    if amb_alg.group is not emb.amb or b.parent.group is not emb.sub:
        raise AlgebraError("blocks do not match the embedding")
    prod = amb_alg.mul_vec(_lift(b.idempotent, emb), btilde.idempotent)
    return any(prod)


def _lift(vec, emb: SubgroupEmbedding) -> list[int]:
    """An element of the subgroup algebra as one of the overgroup algebra."""
    out = [0] * emb.amb.order
    for i, c in enumerate(vec):
        out[emb.element_map[i]] = c
    return out


class InertialGroup:
    """The stabilizer of a block of the normal subgroup N inside the
    overgroup, given by the coset representatives of N that it contains."""

    def __init__(self, block: Block, emb: SubgroupEmbedding):
        if not emb.normal:
            raise AlgebraError("inertial groups need a normal embedding")
        amb = emb.amb
        lifted = _lift(block.idempotent, emb)
        support = [i for i, c in enumerate(lifted) if c]
        # x e x^-1 = e when conjugation by x keeps every coefficient of the support
        stable_reps = [rep for rep in emb.coset_reps
                       if all(lifted[amb.conjugate(rep, i)] == lifted[i] for i in support)]
        self.block = block
        self.stable_coset_reps = tuple(stable_reps)
        self.order = emb.sub.order * len(stable_reps)  # |N| elements per coset

    def __repr__(self):
        return f"InertialGroup({self.block!r}, order={self.order})"


def inertial_group(block: Block, emb: SubgroupEmbedding) -> InertialGroup:
    return InertialGroup(block, emb)
