"""Modules over group algebras as matrix representations.

A RepModule stores one action matrix per group generator.  The matrices of
all group elements form one read-only stack, built on first use level by
level of the Cayley graph; an element of kG acts through one product of its
coefficients with that stack, and every regular module shares the
permutation stack of its algebra.  Submodules, quotients, direct sums, hom
spaces, isomorphism testing and the splitting into indecomposable summands
all live here, together with the per-algebra registry of isomorphism
classes that the tilting engine keys everything on.
"""

from __future__ import annotations

import json

import numpy as np

from . import rings
from .algebra import Block, GroupAlgebra
from .ff import (
    _CODE_DTYPE,
    FFMatrix,
    FieldSpec,
    _matmul,
    block_diag,
    reversed_echelon_basis,
    solve_intertwiner_system,
)
from .groups import group_from_json, group_to_json


class ModuleError(ValueError):
    pass


class RepModule:
    """A finitely generated left module given by generator action matrices."""

    def __init__(self, algebra: GroupAlgebra, gen_mats, label: str = ""):
        self.algebra = algebra
        self.gen_mats = tuple(gen_mats)
        if len(self.gen_mats) != len(algebra.group.generators):
            raise ModuleError("one action matrix per group generator is required")
        dims = {m.rows for m in self.gen_mats} | {m.cols for m in self.gen_mats}
        if len(dims) > 1:
            raise ModuleError("action matrices must be square of equal size")
        self.dim = dims.pop() if dims else 0
        for m in self.gen_mats:
            if m.field is not algebra.field:
                raise ModuleError("action matrices live over the wrong field")
        self.label = label
        self.lambda_inclusion = None  # set for direct summands of the regular module
        self.sum_parts = None  # set by direct_sum: list of (part, offset)
        self._actions = None
        self._registry_id = None
        self._content = None  # the content key, joined on first use

    @property
    def field(self) -> FieldSpec:
        return self.algebra.field

    def is_zero(self) -> bool:
        return self.dim == 0

    @property
    def actions(self) -> np.ndarray:
        """The read-only (|G|, dim, dim) stack of the action matrices of all
        group elements, in element order.  Built on first use, level by level
        of the Cayley graph: the elements s g first reached from the level
        of g through the generator s get A_s A_g, one product per generator
        and level."""
        if self._actions is None:
            group, d = self.algebra.group, self.dim
            stack = np.zeros((group.order, d, d), dtype=_CODE_DTYPE)
            stack[group.identity] = np.eye(d, dtype=_CODE_DTYPE)
            reached = np.zeros(group.order, dtype=bool)
            reached[group.identity] = True
            level = np.array([group.identity])
            while level.size:
                found = []
                for A_s, s in zip(self.gen_mats, group.gen_indices):
                    targets = group.table[s, level]
                    new = ~reached[targets]
                    targets, sources = targets[new], level[new]
                    reached[targets] = True
                    k = targets.size
                    spread = stack[sources].transpose(1, 0, 2).reshape(d, k * d)
                    prod = _matmul(self.field, A_s.data, spread)
                    stack[targets] = prod.reshape(d, k, d).transpose(1, 0, 2)
                    found.append(targets)
                level = np.concatenate(found)
            stack.flags.writeable = False
            self._actions = stack
        return self._actions

    def action_of(self, elt_idx: int) -> FFMatrix:
        return FFMatrix._trusted(self.field, self.actions[elt_idx])

    def apply_algebra_vectors(self, vecs) -> np.ndarray:
        """The action matrices sum_g c_g A_g of the algebra elements given
        as coefficient rows c, shape (len(vecs), dim, dim): one product of
        the rows with the stack flattened to (|G|, dim^2)."""
        n, d = self.algebra.dim, self.dim
        rows = np.array(vecs, dtype=_CODE_DTYPE).reshape(-1, n)
        prod = _matmul(self.field, rows, self.actions.reshape(n, d * d))
        return prod.reshape(len(rows), d, d)

    def apply_algebra_vector(self, vec) -> FFMatrix:
        """Action matrix of an algebra element (coefficient vector)."""
        return FFMatrix._trusted(self.field, self.apply_algebra_vectors([vec])[0])

    def verify_action(self):
        """Check the matrices define a representation: A_s A_g = A_(sg) for
        every generator s and element g, one product per generator, which
        propagates to all products."""
        group, A, d = self.algebra.group, self.actions, self.dim
        spread = A.transpose(1, 0, 2).reshape(d, group.order * d)  # [A_0 | A_1 | ...]
        for A_s, s in zip(self.gen_mats, group.gen_indices):
            left = _matmul(self.field, A_s.data, spread).reshape(d, group.order, d)
            wrong = (left.transpose(1, 0, 2) != A[group.table[s]]).any(axis=(1, 2))
            if wrong.any():
                raise ModuleError(
                    f"action matrices violate the relation gen*{wrong.argmax()} in {group.name}"
                )

    def relabel(self, label: str) -> "RepModule":
        self.label = label
        return self

    def __repr__(self):
        tag = self.label or f"dim {self.dim}"
        return f"RepModule({self.algebra.group.name}, {tag})"


def zero_module(algebra: GroupAlgebra) -> RepModule:
    mats = [FFMatrix.zeros(algebra.field, 0, 0) for _ in algebra.group.generators]
    return RepModule(algebra, mats, label="0")


def trivial_module(algebra: GroupAlgebra) -> RepModule:
    mats = [FFMatrix.identity(algebra.field, 1) for _ in algebra.group.generators]
    return RepModule(algebra, mats, label="k")


def regular_module(algebra: GroupAlgebra) -> RepModule:
    stack = algebra.regular_actions
    mats = [FFMatrix._trusted(algebra.field, stack[i]) for i in algebra.group.gen_indices]
    mod = RepModule(algebra, mats, label="regular")
    mod._actions = stack
    mod.lambda_inclusion = FFMatrix.identity(algebra.field, algebra.dim)
    return mod


def direct_sum(*mods: RepModule) -> RepModule:
    if not mods:
        raise ModuleError("direct sum of nothing (pass the algebra's zero module)")
    algebra = mods[0].algebra
    for m in mods:
        if m.algebra is not algebra:
            raise ModuleError("direct sum across different algebras")
    mats = []
    for pos in range(len(algebra.group.generators)):
        mats.append(block_diag(algebra.field, [m.gen_mats[pos] for m in mods]))
    label = " + ".join(m.label for m in mods if m.label)
    out = RepModule(algebra, mats, label=label)
    parts = []
    offset = 0
    for m in mods:
        parts.append((m, offset))
        offset += m.dim
    out.sum_parts = parts
    return out


def submodule(M: RepModule, basis: FFMatrix) -> tuple[RepModule, FFMatrix]:
    """The submodule spanned by the (independent, invariant) columns of
    ``basis``; returns (module, inclusion matrix)."""
    d = basis.cols
    if d == 0:
        return zero_module(M.algebra), FFMatrix.zeros(M.field, M.dim, 0)
    sol = basis.solve(FFMatrix.hstack(*[g @ basis for g in M.gen_mats]))
    if sol is None:
        raise ModuleError("spanning columns are not invariant under the action")
    mats = [sol.take_columns(range(k * d, (k + 1) * d)) for k in range(len(M.gen_mats))]
    sub = RepModule(M.algebra, mats)
    return sub, basis


def quotient_module(M: RepModule, span: FFMatrix) -> tuple[RepModule, FFMatrix]:
    """The quotient by the invariant subspace U spanned by the columns of
    ``span``; returns (module, projection).  Read from the last coordinate
    back, the reduced echelon rows u_i of span^T have pivots c_i, and e_k
    lies in U + <e_j : j < k> iff k is a pivot: the e_k at the free k span
    the complement that greedy basis extension picks.  As v = sum v[c_i] u_i
    + sum b_k e_k, the projection along U is 1 on free k, -u_i[free] at c_i."""
    field, n = M.field, M.dim
    R, rev_pivots = FFMatrix._trusted(field, span.data.T[:, ::-1]).rref()
    pivots = [n - 1 - c for c in rev_pivots]
    free = sorted(set(range(n)).difference(pivots))
    if not free:
        return zero_module(M.algebra), FFMatrix.zeros(field, 0, n)
    proj = np.eye(n, dtype=_CODE_DTYPE)[free]
    proj[:, pivots] = field.neg_table[R.data[: len(pivots), ::-1][:, free]].T
    proj = FFMatrix._trusted(field, proj)
    return RepModule(M.algebra, [proj @ g.take_columns(free) for g in M.gen_mats]), proj


def lies_in_block(M: RepModule, block: Block) -> bool:
    if M.is_zero():
        return True
    e = M.apply_algebra_vector(block.idempotent)
    return e == FFMatrix.identity(M.field, M.dim)


# -- hom spaces ---------------------------------------------------------------


def hom_basis(M: RepModule, N: RepModule) -> list[FFMatrix]:
    """Basis of Hom(M, N) as matrices of shape (N.dim, M.dim), in the form
    of ``ff.reversed_echelon_basis``.  That form depends on the space alone,
    so on the two generator tuples: the registry holds it once per pair of
    contents.  A summand of the regular module spans the space by the
    free-module shortcut (columns are orbit images); any other module is
    solved by the intertwiner solver."""
    if M.algebra is not N.algebra:
        raise ModuleError("hom space across different algebras")
    if M.dim == 0 or N.dim == 0:
        return []

    def compute():
        if M.lambda_inclusion is None:
            return solve_intertwiner_system(
                M.field, list(zip(M.gen_mats, N.gen_mats)), (N.dim, M.dim)
            )
        maps = np.array([h.data.ravel() for h in _hom_from_regular_summand(M, N)])
        return reversed_echelon_basis(M.field, maps, (N.dim, M.dim))

    key = (_content_key(M), _content_key(N))
    return list(M.algebra.registry.memo("hom", key, compute))


def _hom_from_regular_summand(M: RepModule, N: RepModule) -> list[FFMatrix]:
    """Spanning set of Hom(M, N) for M a summand of the regular module with
    inclusion iota: the maps (a |-> a . v) restricted along iota, for v the
    standard basis vectors of N.  The map of v = e_j sends the element g to
    column j of A_g, so one product of the transposed stack with iota gives
    them all."""
    d, n = N.dim, N.algebra.dim
    columns = N.actions.transpose(2, 1, 0).reshape(d * d, n)  # [j d + a, g] = A_g[a, j]
    maps = _matmul(N.field, columns, M.lambda_inclusion.data).reshape(d, d, M.dim)
    return [FFMatrix._trusted(N.field, h) for h in maps]


def end_basis(M: RepModule) -> list[FFMatrix]:
    if M.dim == 0:
        return []
    constraints = list(zip(M.gen_mats, M.gen_mats))
    return solve_intertwiner_system(M.field, constraints, (M.dim, M.dim))


def regular_end_basis(algebra: GroupAlgebra) -> list[FFMatrix]:
    """End of the regular module, in the form ``end_basis`` gives it: the
    right multiplications e_h |-> e_(hg), one permutation matrix per g read
    off the group table, put by one elimination into reversed echelon form."""
    n, table = algebra.dim, algebra.group.table
    vecs = np.zeros((n, n * n), dtype=_CODE_DTYPE)
    # row g holds entry (hg, h) of its matrix, row-major, for every h
    vecs[np.arange(n)[:, None], table.T * n + np.arange(n)] = 1
    return reversed_echelon_basis(algebra.field, vecs, (n, n))


# -- isomorphism --------------------------------------------------------------


def _indec_iso_witness(M: RepModule, N: RepModule):
    """Witness isomorphism between two indecomposables, or None: the first
    invertible element of the basis of Hom(M, N).

    Complete because End(M) of an indecomposable is local.  If phi: M -> N
    is an isomorphism, Hom(M, N) = phi End(M) and its non-isomorphisms
    phi rad End(M) form a proper subspace, which cannot contain a whole
    basis.  It is also the element a search over composites would pick:
    g f is invertible for some g: N -> M exactly when f is."""
    if M.dim != N.dim:
        return None
    if M.dim == 0:
        return FFMatrix.zeros(M.field, 0, 0)
    for f in hom_basis(M, N):
        if f.is_invertible():
            return f
    return None


def is_isomorphic(M: RepModule, N: RepModule):
    """(bool, witness matrix or None).  For general modules the witness is
    assembled from matched indecomposable summands."""
    if M.algebra is not N.algebra:
        return False, None
    if M.dim != N.dim:
        return False, None
    if M.dim == 0:
        return True, FFMatrix.zeros(M.field, 0, 0)
    reg = M.algebra.registry
    dm = reg.decompose(M)
    dn = reg.decompose(N)
    # both are sorted by (dimension, id), so matching parts share positions
    if dm.part_ids != dn.part_ids:
        return False, None
    blocks = []
    for (pm, _), (pn, _) in zip(dm.parts, dn.parts):
        w = _indec_iso_witness(pm, pn)
        if w is None:
            raise AssertionError("registry matched parts that fail to be isomorphic")
        blocks.append(w)
    W = block_diag(M.field, blocks)
    witness = dn.change_of_basis() @ W @ dm.change_of_basis().inverse()
    for gm, gn in zip(M.gen_mats, N.gen_mats):
        if (witness @ gm) != (gn @ witness):
            raise AssertionError("assembled isomorphism witness fails to intertwine")
    return True, witness


# -- decomposition and registry ----------------------------------------------


class Decomposition:
    """Indecomposable summands with inclusions and registry identities."""

    def __init__(self, module: RepModule, parts, part_ids):
        self.module = module
        self.parts = parts  # list of (RepModule, inclusion FFMatrix)
        self.part_ids = list(part_ids)

    def multiplicities(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for pid in self.part_ids:
            out[pid] = out.get(pid, 0) + 1
        return out

    def change_of_basis(self) -> FFMatrix:
        if not self.parts:
            return FFMatrix.zeros(self.module.field, 0, 0)
        return FFMatrix.hstack(*[inc for _, inc in self.parts])

    def __repr__(self):
        return f"Decomposition({self.multiplicities()})"


def _content_key(M: RepModule) -> tuple[int, bytes]:
    """What a decomposition depends on: the generator matrices.  They are
    frozen, so the key is joined once per module."""
    if M._content is None:
        M._content = (M.dim, b"".join(g.data.tobytes() for g in M.gen_mats))
    return M._content


class ModuleRegistry:
    """Per-algebra registry of indecomposable isomorphism classes, and the
    one owner of memoised facts about modules, classes and pairs.

    Fingerprints prune candidate classes; a hom-witness search decides.
    Every memo table is declared here and read through ``memo``.  Keys are
    module content, registry ids, pair keys and block indices (None for
    the whole algebra), never object identities.  Hom and End bases of
    modules and of classes alike live in the one ``hom`` table, keyed by
    the two contents."""

    def __init__(self, algebra: GroupAlgebra):
        self.algebra = algebra
        self.entries: list[RepModule] = []
        self._fingerprints: list[tuple] = []
        self._by_fingerprint: dict[tuple, list[int]] = {}
        self._tables: dict[str, dict] = {
            name: {}
            for name in (
                "decompose",  # content key -> Decomposition
                "hom",  # (content key, content key) -> basis of Hom in the canonical form
                "idempotent",  # content key -> splitting idempotent or None
                "semisimple",  # None -> (simple ids, PIM id of each simple)
                "label",  # id -> label
                "rad_end",  # content key -> basis of rad End
                "syzygy",  # content key -> (syzygy module, PIM ids of the projective cover)
                "tau_ids",  # id -> ids of the translate's summands
                "generates",  # (source ids, target id) -> bool
                "delta",  # (id, part) -> image under the dual-pair map
                "block_of",  # id -> index of the block the class lies in
                "block_classes",  # block index -> (simple ids, PIM ids)
                "certificate",  # (block index, pair key) -> Certificate
                "exchange",  # (block index, pair key, removed id) -> key of the lower pair or None
                "twist",  # (group indices, content key) -> registered twist
                "induced",  # (source content key, coset actions) -> ids of the induction
            )
        }
        algebra._registry = self

    def memo(self, table: str, key, compute):
        """The value stored under key in the named table, computed once."""
        entries = self._tables[table]
        if key not in entries:
            entries[key] = compute()
        return entries[key]

    # ---- identification

    def fingerprint(self, M: RepModule) -> tuple:
        cps = tuple(sorted(g.charpoly() for g in M.gen_mats))
        word = None
        if M.gen_mats:
            prod = M.gen_mats[0]
            for g in M.gen_mats[1:]:
                prod = prod @ g
            word = prod.charpoly()
        return (M.dim, cps, word)

    def find_or_register(self, M: RepModule) -> int:
        """Registry id of the indecomposable M (inserting if new)."""
        if M._registry_id is not None:
            return M._registry_id
        fp = self.fingerprint(M)
        for idx in self._by_fingerprint.get(fp, []):
            if _indec_iso_witness(self.entries[idx], M) is not None:
                M._registry_id = idx
                return idx
        idx = len(self.entries)
        self.entries.append(M)
        self._fingerprints.append(fp)
        self._by_fingerprint.setdefault(fp, []).append(idx)
        M._registry_id = idx
        return idx

    def module(self, idx: int) -> RepModule:
        return self.entries[idx]

    # ---- decomposition

    def decompose(self, M: RepModule) -> Decomposition:
        """Indecomposable summands of M.  A registered module and a direct
        sum of registered parts split along their construction; these
        inclusions depend on how M was built, so they are not memoised.
        Any other module is split once per content."""
        if M._registry_id is None:
            if M.sum_parts is not None and all(
                p._registry_id is not None for p, _ in M.sum_parts
            ):
                parts = []
                ids = []
                for p, offset in M.sum_parts:
                    inc = np.zeros((M.dim, p.dim), dtype=_CODE_DTYPE)
                    inc[offset : offset + p.dim, :] = np.eye(p.dim, dtype=_CODE_DTYPE)
                    parts.append((p, FFMatrix._trusted(M.field, inc)))
                    ids.append(p._registry_id)
                order = sorted(
                    range(len(parts)), key=lambda i: (parts[i][0].dim, ids[i])
                )
                return Decomposition(
                    M, [parts[i] for i in order], [ids[i] for i in order]
                )
            dec = self.memo("decompose", _content_key(M), lambda: self._split(M))
            if len(dec.part_ids) != 1:
                return dec
            # an indecomposable: M itself is the summand, as when it is split
            M._registry_id = dec.part_ids[0]
        return Decomposition(
            M, [(M, FFMatrix.identity(M.field, M.dim))], [M._registry_id]
        )

    def _split(self, M: RepModule) -> Decomposition:
        """Split by idempotents of endomorphism rings until every piece is
        local, then register the pieces.  End(M) is solved; each piece
        inherits its End from the module it was cut from.  As e = e[:, pivots] R
        for its echelon form R, R's nonzero rows project onto the image along
        the kernel; the free rows of 1 - e project onto the kernel along the
        image, since the basis from ``nullspace`` is the identity there."""
        parts = []
        stack = [(M, FFMatrix.identity(M.field, M.dim))]
        while stack:
            X, inc = stack.pop()
            if X.dim == 0:
                continue
            e = self.memo(
                "idempotent",
                _content_key(X),
                lambda: rings.find_splitting_idempotent(
                    X.field, self._end(X), lambda J: self._rad_end(X, J)
                ),
            )
            if e is None:
                parts.append((X, inc))
                continue
            R, pivots = e.rref()
            free = sorted(set(range(X.dim)).difference(pivots))
            img_proj = (e.take_columns(pivots), R.take_rows(range(len(pivots))))
            ker_proj = (e.nullspace(), (FFMatrix.identity(X.field, X.dim) - e).take_rows(free))
            pieces = []
            for basis, proj in (img_proj, ker_proj):
                piece, piece_inc = submodule(X, basis)
                if piece.dim == 0:
                    raise AssertionError("idempotent splitting produced a trivial piece")
                self._inherit_end(X, piece, basis, proj)
                pieces.append((piece, inc @ piece_inc))
            stack.extend(pieces)
        keyed = []
        for part, inc in parts:
            pid = self.find_or_register(part)
            keyed.append((pid, part, inc))
        keyed.sort(key=lambda t: (self.entries[t[0]].dim, t[0]))
        return Decomposition(
            M, [(p, i) for _, p, i in keyed], [pid for pid, _, _ in keyed]
        )

    def ids_of(self, M: RepModule) -> list[int]:
        return self.decompose(M).part_ids

    # ---- cached hom data

    def hom_dim_ids(self, a: int, b: int) -> int:
        return len(self.hom_basis_ids(a, b))

    def hom_basis_ids(self, a: int, b: int) -> list[FFMatrix]:
        return hom_basis(self.entries[a], self.entries[b])

    def _end(self, M: RepModule) -> list[FFMatrix]:
        """Basis of End(M), solved once per content, in the table where
        hom_basis(M, M) finds it too."""
        key = _content_key(M)
        return self.memo("hom", (key, key), lambda: end_basis(M))

    def _inherit_end(self, X: RepModule, piece: RepModule, inc: FFMatrix, proj: FFMatrix):
        """Store End(piece) for a direct summand of X with inclusion inc and
        projection proj (proj inc = 1): the span of the maps proj phi inc
        for phi in End(X), put by one elimination into the form that
        end_basis(piece) has."""
        key = _content_key(piece)

        def compute():
            ends = self._end(X)
            k, n, d = len(ends), X.dim, piece.dim
            # phi inc for every phi, side by side, then proj times all of them
            right = _matmul(X.field, np.vstack([phi.data for phi in ends]), inc.data)
            right = right.reshape(k, n, d).transpose(1, 0, 2).reshape(n, k * d)
            maps = _matmul(X.field, proj.data, right).reshape(d, k, d).transpose(1, 0, 2)
            return reversed_echelon_basis(X.field, maps.reshape(k, d * d), (d, d))

        self.memo("hom", (key, key), compute)

    def _rad_end(self, M: RepModule, local=None) -> list[FFMatrix]:
        """Basis of rad End(M), once per content: ``local`` when the
        splitting search read it off the eigenvalues of a local End(M), else
        from ``rings.algebra_radical``."""

        def compute():
            if local is not None:
                return local
            return rings.algebra_radical(self.algebra.field, self._end(M))

        return self.memo("rad_end", _content_key(M), compute)

    def rad_end_basis(self, idx: int) -> list[FFMatrix]:
        return self._rad_end(self.entries[idx])

    def block_of(self, idx: int) -> int:
        """Index of the block of the algebra that the class idx lies in."""
        return self.memo("block_of", idx, lambda: next(
            b.index for b in self.algebra.blocks() if lies_in_block(self.entries[idx], b)
        ))

    # ---- semisimple bookkeeping

    def _semisimple(self) -> tuple[list[int], dict[int, int]]:
        return self.memo("semisimple", None, self._bootstrap)

    def _bootstrap(self) -> tuple[list[int], dict[int, int]]:
        from . import homalg  # cycle: top() needs the algebra radical helpers

        reg_mod = regular_module(self.algebra)
        key = _content_key(reg_mod)
        self.memo("hom", (key, key), lambda: regular_end_basis(self.algebra))
        pim_dec = self.decompose(reg_mod)
        # summands of the regular module keep their inclusion: the free-hom
        # shortcut applies to them.  A class registered before the bootstrap
        # gets the inclusion of its part composed with an isomorphism onto it.
        for (part, inc), pid in zip(pim_dec.parts, pim_dec.part_ids):
            if part.lambda_inclusion is None:
                part.lambda_inclusion = inc
            entry = self.entries[pid]
            if entry.lambda_inclusion is None:
                entry.lambda_inclusion = inc @ _indec_iso_witness(entry, part)
        if self.algebra._radical is None:
            self.algebra._radical = self._radical_of_parts(pim_dec)
        top_mod, _ = homalg.top(reg_mod)
        simple_ids = sorted(set(self.decompose(top_mod).part_ids), key=self._simple_sort_key)
        # match each PIM to its top: the one simple it maps onto
        pim_of_simple = {}
        for pid in set(pim_dec.part_ids):
            tops = [s for s in simple_ids if self.hom_dim_ids(pid, s)]
            if len(tops) != 1:
                raise AssertionError("projective indecomposable with decomposable top")
            pim_of_simple[tops[0]] = pid
        labels = self._tables["label"]
        for pos, sid in enumerate(simple_ids):
            labels[sid] = str(pos + 1)
            labels[pim_of_simple[sid]] = f"P{pos + 1}"
        return simple_ids, pim_of_simple

    def _radical_of_parts(self, pim_dec: Decomposition) -> list[list[int]]:
        """rad kG as coefficient vectors in reduced echelon form, from the
        split of kG into PIM parts P_j with inclusions iota_j.  kG is the
        direct sum of the P_j, J e_j = sum_i e_i J e_j, and right
        multiplication by an element of e_i J e_j is a radical map
        P_i -> P_j (e_i kG e_j = Hom(P_i, P_j); Benson, Representations and
        Cohomology I, 1.6).  So J is the sum of the iota_j h for h in
        rad End(P_j) and in Hom(P_i, P_j), P_i one part of each other
        class, whose maps the free-module shortcut gives."""
        first: dict[int, RepModule] = {}
        for (part, _), pid in zip(pim_dec.parts, pim_dec.part_ids):
            first.setdefault(pid, part)
        rows = []
        for (part, inc), pid in zip(pim_dec.parts, pim_dec.part_ids):
            maps = self._rad_end(part) + [
                h for qid, P in first.items() if qid != pid for h in hom_basis(P, part)
            ]
            if maps:
                # rad P_j in the coordinates of P_j, then in those of kG
                rows.append((inc @ FFMatrix.hstack(*maps).column_space_basis()).data.T)
        if not rows:
            return []
        J = FFMatrix._trusted(self.algebra.field, np.vstack(rows)).row_space_basis()
        return J.data.tolist()

    def _simple_sort_key(self, sid: int):
        mod = self.entries[sid]
        is_trivial = mod.dim == 1 and all(
            g == FFMatrix.identity(mod.field, 1) for g in mod.gen_mats
        )
        return (not is_trivial, mod.dim, self._fingerprints[sid])

    def simple_ids(self) -> list[int]:
        return list(self._semisimple()[0])

    def pim_ids(self) -> list[int]:
        simple_ids, pim_of_simple = self._semisimple()
        return [pim_of_simple[s] for s in simple_ids]

    def pim_of_simple(self, sid: int) -> int:
        return self._semisimple()[1][sid]

    def is_projective_id(self, idx: int) -> bool:
        return idx in set(self.pim_ids())

    def label(self, idx: int) -> str:
        from . import homalg

        self._semisimple()
        return self.memo(
            "label", idx, lambda: homalg.loewy_label(self, self.entries[idx])
        )

    def direct_sum_of_ids(self, ids) -> RepModule:
        if not ids:
            return zero_module(self.algebra)
        return direct_sum(*[self.entries[i] for i in ids])


# -- serialization -------------------------------------------------------------


def module_to_json(M: RepModule) -> dict:
    return {
        "field": M.field.to_json(),
        "group": group_to_json(M.algebra.group),
        "dim": M.dim,
        "generator_matrices": [g.entries() for g in M.gen_mats],
        "label": M.label,
    }


def module_from_json(data, algebra: GroupAlgebra | None = None) -> RepModule:
    if isinstance(data, str):
        data = json.loads(data)
    fld = data["field"]
    field = FieldSpec(fld["p"], fld["m"], tuple(fld["modulus"]))
    if algebra is None:
        group = group_from_json(data["group"])
        algebra = GroupAlgebra(group, field)
    else:
        if algebra.field is not field:
            raise ModuleError("module JSON field differs from the session field")
    dim = data["dim"]
    mats = []
    for k, entries in enumerate(data["generator_matrices"]):
        bad = [x for x in entries if type(x) is not int or not 0 <= x < field.q]
        if bad:
            raise ModuleError(f"generator matrix {k}: entry {bad[0]!r} is not a field code "
                              f"in range({field.q})")
        arr = np.array(entries, dtype=_CODE_DTYPE).reshape(dim, dim)
        mats.append(FFMatrix._trusted(field, arr))
    M = RepModule(algebra, mats, label=data.get("label", ""))
    M.verify_action()
    return M
