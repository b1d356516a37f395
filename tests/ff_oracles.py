"""Reference implementations that ``tautilt`` replaced with faster or
shorter code.  They are slow and obviously exact, and serve as oracles:

* the table kernels ``tautilt.ff`` used before its coefficient-plane
  product, one field-table gather per multiply and per add, and the field
  table builder that multiplied every pair of polynomials
  (``test_ff_kernels.py``);
* the per-candidate span loops that ``rings.extend_basis`` and
  ``rings.combine`` replaced (``test_rings.py``);
* the Kronecker intertwiner solver that spinning replaced, and the
  bit-sliced GF(2^m) elimination that ran its large systems
  (``test_ff_packed.py``);
* an elimination through the scalar field helpers, one entry at a time,
  for every field, and the minimal polynomial that solved a growing system
  once per degree (``test_ff_small.py``);
* the radical that took one charpoly per entry of every stage matrix
  (``test_rings.py``), and the group algebra product that composed the
  permutations of every pair of group elements (``test_algebra.py``);
* the splitting search that tried the products of basis elements before
  it took the radical (``test_inherited.py``);
* the per-element word products, the support-and-scale-add loop and the
  column-at-a-time regular hom that the action stack of a module replaced
  (``test_actions.py``);
* the irreducibility test over GF(p) by a root test and trial division
  that ``polys.is_irreducible`` replaced (``test_ff.py``);
* the Hom space of a direct sum lifted from the Hom spaces of its parts,
  which ``modules.hom_basis`` solved in place of the sum
  (``test_hom_canonical.py``);
* the radical series as quotient modules, and the Loewy label that split
  each of its layers, which ``homalg.loewy_label`` replaced with Hom
  counts out of the PIMs; the P3.5 test that restricted the whole support
  projective and took its block component (``test_composition_counts.py``,
  ``test_modules.py``, ``test_acceptance.py``);
* the approximation criterion on the whole (block) regular module, one
  cokernel split into classes, which the engine reads PIM by PIM
  (``test_approximation_criterion.py``);
* the block idempotents found by splitting the separable part of the
  center, the stable image of the p-th power map, through the minimal
  polynomials of its elements, which the splitting search on the regular
  representation of the center replaced (``test_block_idempotents.py``);
* the quotient that completed a basis of the subspace with the standard
  vectors ``rings.extend_basis`` picks and inverted [basis | complement],
  and the split of a module by an idempotent through the rows of
  [image | kernel]^-1, which ``quotient_module`` and
  ``ModuleRegistry._split`` read off one reduced echelon form
  (``test_projections.py``);
* the radical of kG by Ronyai's chain on its |G| regular matrices, which
  the bootstrap replaced by the radical maps between the PIM parts of the
  split of kG; it also works over fields that do not split kG
  (``test_radicals.py``, ``test_algebra.py``).

It also holds the independent constructions that the tests check the
program against, and that the program itself does not run:

* the Kronecker product, and the outer tensor with a regular module that
  induction along a direct factor must agree with (``test_functors.py``);
* Hom dimensions, the Cartan matrix, and the translate through the
  Nakayama functor on a minimal presentation (``test_modules.py``,
  ``test_acceptance.py``);
* the projective cover that split top(M) into simples and lifted the map
  from the top of each PIM through two isomorphism witnesses, the minimal
  presentation built from two of its syzygies, and the dual-transpose as
  the cokernel of the dualized presentation (``test_covers.py``);
* the check that induction up to the inertial group lands in covering
  blocks (P2.11.1, ``test_functors.py``);
* the pair of a module, and the pair with its certified support, their
  classes read off the decomposition of the whole module, against which
  the class-level ids of ``verify_main_theorems`` are checked
  (``test_engine.py``, ``test_acceptance.py``, ``test_inherited.py``);
* the block component of an induced pair by the route T3.3 took before
  it read ``engine._restrict``: the induced classes filtered by their
  block, with the support read off a certificate (``test_inherited.py``);
* the translate of a whole module, split into its projective-free part
  and then class by class (``test_modules.py``, ``test_acceptance.py``),
  and the L3.1 check run on whole modules, which splits the syzygy, the
  inductions and the translates of the module it is given, against which
  the class-level L3.1 of ``verify_syzygy_commutation`` is checked
  (``test_syzygy_classes.py``)."""

import numpy as np

from corpus import block_component, block_regular_module
from tautilt import homalg, polys, rings
from tautilt.algebra import Block, covers
from tautilt.engine import STauTiltPair, TiltingContext, certify_support_tau_tilting
from tautilt.ff import _CODE_DTYPE, FFMatrix, FieldSpec
from tautilt.functors import (
    ClauseResult,
    FunctorError,
    InductionContext,
    TheoremReport,
    _image_ids,
    _iso_clause,
    _twist_clause,
    induce,
    restrict,
)
from tautilt.groups import perm_compose
from tautilt.modules import (
    ModuleRegistry,
    RepModule,
    _indec_iso_witness,
    direct_sum,
    hom_basis,
    lies_in_block,
    quotient_module,
    regular_module,
    submodule,
    zero_module,
)
from tautilt.rings import FieldNotSplittingError, _idempotent_coeffs, combine, in_span, reduce_span


def _poly_mul_mod(a, b, modulus, p):
    """Multiply coefficient tuples mod (p, modulus).  Little-endian coeffs."""
    m = len(modulus) - 1
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % p
    # reduce degrees >= m using x^m = -(modulus[:-1])
    for d in range(len(out) - 1, m - 1, -1):
        c = out[d]
        if c:
            out[d] = 0
            for j in range(m):
                out[d - m + j] = (out[d - m + j] - c * modulus[j]) % p
    out = out[:m] + [0] * max(0, m - len(out))
    return tuple(out[:m])


def polynomial_field_tables(p: int, m: int, modulus) -> dict:
    """The add, mul, neg, inv and frob tables of GF(p^m), one polynomial
    product per pair of elements; ValueError for a reducible modulus."""
    q = p**m

    def decode(code):
        c = []
        for _ in range(m):
            c.append(code % p)
            code //= p
        return tuple(c)

    def encode(coeffs):
        code = 0
        for c in reversed(coeffs):
            code = code * p + (c % p)
        return code

    add = np.zeros((q, q), dtype=_CODE_DTYPE)
    mul = np.zeros((q, q), dtype=_CODE_DTYPE)
    neg = np.zeros(q, dtype=_CODE_DTYPE)
    coeffs = [decode(i) for i in range(q)]
    for a in range(q):
        ca = coeffs[a]
        neg[a] = encode(tuple((-c) % p for c in ca))
        for b in range(a, q):
            cb = coeffs[b]
            s = encode(tuple((x + y) % p for x, y in zip(ca, cb)))
            add[a, b] = add[b, a] = s
            pr = encode(_poly_mul_mod(ca, cb, modulus, p))
            mul[a, b] = mul[b, a] = pr
    inv = np.zeros(q, dtype=_CODE_DTYPE)
    for a in range(1, q):
        hits = np.nonzero(mul[a] == 1)[0]
        if hits.size == 0:
            raise ValueError("modulus is not irreducible: element without inverse")
        inv[a] = hits[0]
    frob = np.zeros(q, dtype=_CODE_DTYPE)
    for a in range(q):
        acc = a
        for _ in range(p - 1):
            acc = int(mul[acc, a])
        frob[a] = acc
    return {"add": add, "mul": mul, "neg": neg, "inv": inv, "frob": frob}


def greedy_extend_basis(field: FieldSpec, basis, candidates) -> list[int]:
    """Positions of the candidates outside the span of basis and of the
    candidates kept before them: one span solve per candidate."""
    current = list(basis)
    kept = []
    for i, c in enumerate(candidates):
        if rings.in_span(field, current, [c]) is None:
            kept.append(i)
            current.append(c)
    return kept


def scale_add_combine(field: FieldSpec, coeffs, mats) -> FFMatrix:
    """sum c_i M_i, one scale and one add per nonzero term."""
    out = FFMatrix.zeros(field, *mats[0].shape)
    for c, M in zip(coeffs, mats):
        if c:
            out = out + M.scale(c)
    return out


def table_matmul(f: FieldSpec, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A @ B over f, one column of A (and row of B) at a time."""
    r, s = A.shape
    c = B.shape[1]
    out = np.zeros((r, c), dtype=_CODE_DTYPE)
    for k in range(s):
        col = A[:, k]
        if not col.any():
            continue
        out = f.add_table[out, f.mul_table[col[:, None], B[k, :][None, :]]]
    return out


def scalar_rref(f: FieldSpec, data: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    """Gauss-Jordan elimination one entry at a time through the scalar
    helpers of FieldSpec: scale the pivot row, then subtract its multiple
    from every other row, entry by entry."""
    A = [[int(x) for x in row] for row in data]
    nrows, ncols = data.shape
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        rows = [i for i in range(r, nrows) if A[i][c]]
        if not rows:
            continue
        A[r], A[rows[0]] = A[rows[0]], A[r]
        pv_inv = f.inv(A[r][c])
        A[r] = [f.mul(pv_inv, x) for x in A[r]]
        for i in range(nrows):
            if i != r and A[i][c]:
                factor = A[i][c]
                A[i] = [f.sub(x, f.mul(factor, y)) for x, y in zip(A[i], A[r])]
        pivots.append(c)
    return np.array(A, dtype=_CODE_DTYPE).reshape(nrows, ncols), tuple(pivots)


def solve_minimal_polynomial(A: FFMatrix) -> tuple[int, ...]:
    """Monic minimal polynomial, little-endian: for k = 1, 2, ..., one solve
    of the system whose columns are vec(A^j), j < k, against vec(A^k)."""
    f, n = A.field, A.rows
    if n == 0:
        return (1,)
    flat = [FFMatrix.identity(f, n).data.ravel()]
    power = FFMatrix.identity(f, n)
    for k in range(1, n + 1):
        power = power @ A
        flat.append(power.data.ravel())
        M = FFMatrix._trusted(f, np.array(flat[:k], dtype=_CODE_DTYPE).T)
        sol = M.solve(FFMatrix._trusted(f, flat[k].reshape(-1, 1)))
        if sol is not None:
            return tuple([f.neg(int(c)) for c in sol.data.ravel()] + [1])
    raise AssertionError("minimal polynomial of degree > n")


def table_charpoly(f: FieldSpec, data: np.ndarray) -> tuple[int, ...]:
    """det(xI - A), little-endian, by Hessenberg reduction through the
    tables, updating the pivot column once per eliminated row."""
    n = data.shape[0]
    if n == 0:
        return (1,)
    H = data.copy()
    addt, mult, negt, invt = f.add_table, f.mul_table, f.neg_table, f.inv_table
    for k in range(n - 2):
        nz = np.nonzero(H[k + 1 :, k])[0]
        if nz.size == 0:
            continue
        i = k + 1 + int(nz[0])
        if i != k + 1:
            H[[k + 1, i]] = H[[i, k + 1]]
            H[:, [k + 1, i]] = H[:, [i, k + 1]]
        pv = H[k + 1, k]
        pv_inv = invt[pv]
        rows = np.nonzero(H[k + 2 :, k])[0] + k + 2
        if rows.size:
            factors = mult[pv_inv, H[rows, k]]
            # row_r -= factor * row_{k+1}
            H[rows] = addt[H[rows], mult[negt[factors][:, None], H[k + 1][None, :]]]
            # col_{k+1} += factor * col_r  (inverse similarity op)
            for r, fac in zip(rows, factors):
                H[:, k + 1] = addt[H[:, k + 1], mult[fac, H[:, r]]]
    # charpoly recurrence on Hessenberg matrix
    polys = [np.array([1], dtype=_CODE_DTYPE)]  # p_0 = 1
    for k in range(1, n + 1):
        hkk = H[k - 1, k - 1]
        prev = polys[k - 1]
        cur = np.zeros(k + 1, dtype=_CODE_DTYPE)
        cur[1:] = prev  # x * p_{k-1}
        cur[:-1] = addt[cur[:-1], mult[negt[hkk], prev]]
        run = 1
        for i in range(k - 1, 0, -1):
            run = mult[run, H[i, i - 1]]
            if run == 0:
                break
            coeff = mult[run, H[i - 1, k - 1]]
            if coeff:
                contrib = mult[negt[coeff], polys[i - 1]]
                cur[: len(contrib)] = addt[cur[: len(contrib)], contrib]
        polys.append(cur)
    return tuple(int(c) for c in polys[n])


def kronecker_intertwiners(field: FieldSpec, constraints, dims) -> list[FFMatrix]:
    """Basis of {X : X L_i = R_i X} as the nullspace of the vectorized
    system: (I_r kron L_i^T - R_i kron I_c) vec(X) = 0 for row-major vec,
    one (k r c) x (r c) elimination; free coordinates in ascending order."""
    r, c = dims
    blocks = []
    for L, R in constraints:
        I_r = FFMatrix.identity(field, r)
        I_c = FFMatrix.identity(field, c)
        blocks.append(kron(I_r, L.transpose()) - kron(R, I_c))
    if not blocks:
        ns = FFMatrix.identity(field, r * c)
    else:
        ns = FFMatrix.vstack(*blocks).nullspace()
    return [FFMatrix._trusted(field, ns.data[:, j].reshape(r, c)) for j in range(ns.cols)]


CONVERT_CELLS = 1 << 16  # bit-plane conversion works on row blocks this big


def rref_packed(f: FieldSpec, data: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    """Gauss-Jordan elimination over GF(2^m) on bit planes.

    Plane k holds bit k of every code, i.e. the coefficient of x^k, with
    column c at bit c % 64 of word c // 64 of its row.  Addition is XOR of
    planes.  Multiplying a row by a scalar s is the GF(2)-linear map whose
    m x m bit matrix has column l = s * x^l; a row is updated by the
    multiples x^j * (pivot row) picked out by the bits j of its factor."""
    m = f.m
    nrows, ncols = data.shape
    planes = pack_planes(data, m, -(-ncols // 64))
    xpow = np.array([1 << j for j in range(m)], dtype=np.intp)
    shifts = np.arange(m, dtype=np.uint64)
    # scalar_bits[s, k, l]: bit k of s * x^l, the matrix of multiplication by s
    scalar_bits = f.mul_table[:, xpow].astype(np.uint64)[:, None, :] >> shifts[:, None] & 1
    division_bits = {}  # pivot value -> scalar_bits of x^j / pivot, j < m
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        w, bit = divmod(c, 64)
        bit = np.uint64(bit)
        if not bit:
            # nonzero[row] has bit b set where the row has an entry in
            # column 64 w + b; kept up to date for the rows that change.
            nonzero = np.bitwise_or.reduce(planes[:, :, w], axis=1)
        nz = (nonzero >> bit & 1).nonzero()[0]
        first = nz.searchsorted(r)
        if first == nz.size:
            continue
        i = int(nz[first])
        col = planes[nz, :, w] >> bit & 1  # (len(nz), m) bits of column c
        pv = sum(int(b) << k for k, b in enumerate(col[first]))
        if i != r:
            pivot_row = planes[i].copy()
            planes[i] = planes[r]
            planes[r] = pivot_row
            nonzero[r], nonzero[i] = nonzero[i], nonzero[r]
        # Columns left of c are zero in the pivot row, so words below w stay.
        # multiples[j] = (x^j / pv) * (pivot row); multiples[0] is the new row.
        bitmat = division_bits.get(pv)
        if bitmat is None:
            bitmat = division_bits[pv] = scalar_bits[f.mul_table[f.inv_table[pv], xpow]]
        multiples = np.bitwise_xor.reduce(bitmat[..., None] * planes[r, None, None, :, w:], axis=2)
        planes[r, :, w:] = multiples[0]
        # Every other row with an entry in column c.  Rows r and i are not
        # among them, so the swap leaves their indices and bits valid.
        others = nz != i
        rows = nz[others]
        if rows.size:
            masks = np.negative(col[others])  # all-ones words where the bit is set
            block = planes[rows, :, w:]
            for j in range(m):
                block ^= masks[:, j, None, None] & multiples[j]
            planes[rows, :, w:] = block
            nonzero[rows] = np.bitwise_or.reduce(block[:, :, 0], axis=1)
        pivots.append(c)
        r += 1
    return unpack_planes(planes, ncols), tuple(pivots)


def row_blocks(nrows: int, ncols: int):
    """Slices of about CONVERT_CELLS cells each, covering the rows."""
    step = max(1, CONVERT_CELLS // max(ncols, 1))
    return [slice(start, start + step) for start in range(0, nrows, step)]


def pack_planes(data: np.ndarray, m: int, nwords: int) -> np.ndarray:
    """The m bit planes of a code array, shape (rows, m, nwords), as
    little-endian uint64 words.  Converts a block of rows at a time, so its
    temporaries stay small next to the input."""
    nrows, ncols = data.shape
    out = np.zeros((nrows, m, nwords * 8), dtype=np.uint8)
    for rows in row_blocks(nrows, ncols):
        codes = data[rows].copy()
        for k in range(m):
            out[rows, k, : -(-ncols // 8)] = np.packbits(codes & 1, axis=1, bitorder="little")
            codes >>= 1
    return out.view("<u8")


def unpack_planes(planes: np.ndarray, ncols: int) -> np.ndarray:
    """Inverse of ``pack_planes``: the code array of the first ncols
    columns, assembled in place block by block."""
    nrows, m, _ = planes.shape
    raw = planes.view(np.uint8)
    out = np.empty((nrows, ncols), dtype=_CODE_DTYPE)
    for rows in row_blocks(nrows, ncols):
        block = out[rows]
        block[...] = np.unpackbits(raw[rows, m - 1], axis=1, count=ncols, bitorder="little")
        for k in reversed(range(m - 1)):
            block <<= 1
            block |= np.unpackbits(raw[rows, k], axis=1, count=ncols, bitorder="little")
    return out


def esym(A: FFMatrix, i: int) -> int:
    """e_i of the eigenvalues of A, the trace of its i-th exterior power:
    the trace for i = 1, else (-1)^i times the coefficient of x^(n-i) of
    det(xI - A)."""
    f, n = A.field, A.rows
    if i == 1:
        t = 0
        for k in range(n):
            t = f.add(t, int(A.data[k, k]))
        return t
    c = A.charpoly()[n - i]
    return f.neg(c) if i % 2 else c


def entrywise_radical(field: FieldSpec, basis) -> list[FFMatrix]:
    """Jacobson radical by the descending chain of ``rings.algebra_radical``,
    with every entry e_pk(u b) of every stage matrix computed on its own."""
    J = rings.reduce_span(field, basis)
    if not J:
        return []
    n = J[0].rows
    k, pk = 0, 1
    while pk <= n and J:
        C = FFMatrix._trusted(field, np.array([[esym(u @ b, pk) for u in J] for b in J]))
        sol = C.nullspace()
        J = rings.reduce_span(
            field,
            [
                scale_add_combine(field, [field.frobenius_inv(int(s), k) for s in sol.data[:, j]], J)
                for j in range(sol.cols)
            ],
        )
        k += 1
        pk *= field.p
    for x in J:
        if not rings.matrix_power(x, n).is_zero():
            raise AssertionError("radical computation produced a non-nilpotent element")
    return J


def ronyai_radical_vectors(algebra) -> list[list[int]]:
    """rad kG by ``rings.algebra_radical`` on the regular matrices L_g, as
    coefficient vectors in reduced echelon form: L_r is recovered as the
    vector r by its action on the identity."""
    mats = [FFMatrix._trusted(algebra.field, a) for a in algebra.regular_actions]
    rad = rings.algebra_radical(algebra.field, mats)
    if not rad:
        return []
    vecs = np.array([m.data[:, algebra.group.identity] for m in rad])
    return FFMatrix._trusted(algebra.field, vecs).row_space_basis().data.tolist()


def loop_mul_vec(algebra, a, b) -> list[int]:
    """The product of two coefficient vectors of kG, one composition of
    permutations and one field multiply-add per pair of nonzero
    coefficients."""
    F, G = algebra.field, algebra.group
    out = [0] * algebra.dim
    for i, ca in enumerate(a):
        if not ca:
            continue
        for j, cb in enumerate(b):
            if not cb:
                continue
            k = G.index[perm_compose(G.elements[i], G.elements[j])]
            out[k] = F.add(out[k], F.mul(ca, cb))
    return out


def word_actions(M) -> list[FFMatrix]:
    """The action matrix of every group element: the product of the
    generator matrices along a word for it, the words found by a
    breadth-first search that composes the permutations."""
    G = M.algebra.group
    words = {G.identity: ()}
    frontier = [G.identity]
    while frontier:
        nxt = []
        for gi in frontier:
            for pos, s in enumerate(G.generators):
                hi = G.index[perm_compose(s, G.elements[gi])]
                if hi not in words:
                    words[hi] = (pos,) + words[gi]  # gen_pos * g
                    nxt.append(hi)
        frontier = nxt
    out = []
    for i in range(G.order):
        acc = FFMatrix.identity(M.field, M.dim)
        for pos in words[i]:
            acc = acc @ M.gen_mats[pos]
        out.append(acc)
    return out


def support_combine_action(M, mats, vec) -> FFMatrix:
    """sum_g c_g A_g over the support of vec, given the matrices A_g."""
    support = [i for i, c in enumerate(vec) if c]
    if not support:
        return FFMatrix.zeros(M.field, M.dim, M.dim)
    return scale_add_combine(M.field, [vec[i] for i in support], [mats[i] for i in support])


def column_regular_hom(M, N, mats) -> list[FFMatrix]:
    """The spanning set of Hom(M, N) for M a summand of the regular module,
    given the matrices A_g of N: for each j, the matrix whose column g is
    column j of A_g, restricted along the inclusion of M."""
    out = []
    for j in range(N.dim):
        cols = np.zeros((N.dim, len(mats)), dtype=_CODE_DTYPE)
        for g, A in enumerate(mats):
            cols[:, g] = A.data[:, j]
        out.append(FFMatrix._trusted(N.field, cols) @ M.lambda_inclusion)
    return out


def kron(A: FFMatrix, B: FFMatrix) -> FFMatrix:
    """Kronecker product (A tensor B)."""
    f = A.field
    a, b = A.data, B.data
    out = f.mul_table[a[:, None, :, None], b[None, :, None, :]]
    out = out.reshape(A.rows * B.rows, A.cols * B.cols)
    return FFMatrix._trusted(f, out)


def trial_division_irreducible(coeffs, p: int) -> bool:
    """Irreducibility over GF(p) of a monic poly (little-endian coeffs): no
    root, and no monic factor of degree 2 .. deg // 2."""
    deg = len(coeffs) - 1
    if deg == 1:
        return True
    for x in range(p):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % p
        if acc == 0:
            return False
    if deg <= 3:
        return True

    def polys_of_degree(d):
        for code in range(p**d):
            body = []
            c = code
            for _ in range(d):
                body.append(c % p)
                c //= p
            yield body + [1]

    def divides(g, f):
        f = list(f)
        dg = len(g) - 1
        while len(f) - 1 >= dg and any(f):
            if f[-1] == 0:
                f.pop()
                continue
            lead = f[-1]
            shift = len(f) - 1 - dg
            for i, gc in enumerate(g):
                f[shift + i] = (f[shift + i] - lead * gc) % p
            while f and f[-1] == 0:
                f.pop()
        return not any(f)

    for d in range(2, deg // 2 + 1):
        for g in polys_of_degree(d):
            if divides(g, coeffs):
                return False
    return True


def lifted_sum_hom(M: RepModule, N: RepModule) -> list[FFMatrix]:
    """Basis of Hom(M, N) for a direct sum M: each basis map of a part,
    placed in the columns of that part."""
    out = []
    for part, offset in M.sum_parts:
        for h in (lifted_sum_hom if part.sum_parts is not None else hom_basis)(part, N):
            lifted = np.zeros((N.dim, M.dim), dtype=_CODE_DTYPE)
            lifted[:, offset : offset + part.dim] = h.data
            out.append(FFMatrix._trusted(M.field, lifted))
    return out


def hom_dim(M: RepModule, N: RepModule) -> int:
    return len(hom_basis(M, N))


def cartan_matrix(registry: ModuleRegistry) -> list[list[int]]:
    """C[i][j] = multiplicity of simple i in PIM j = dim Hom(P_i, P_j)."""
    pims = registry.pim_ids()
    return [
        [registry.hom_dim_ids(pi, pj) for pj in pims]
        for pi in pims
    ]


# -- the translate of a whole module ------------------------------------------------


def strip_projectives(M: RepModule) -> tuple[RepModule, RepModule]:
    """(non-projective part, projective part), both basic-free direct sums
    of the decomposition parts."""
    registry = M.algebra.registry
    if M.dim == 0:
        z = zero_module(M.algebra)
        return z, z
    dec = registry.decompose(M)
    nonproj = [p for (p, _), pid in zip(dec.parts, dec.part_ids)
               if not registry.is_projective_id(pid)]
    proj = [p for (p, _), pid in zip(dec.parts, dec.part_ids)
            if registry.is_projective_id(pid)]
    np_mod = direct_sum(*nonproj) if nonproj else zero_module(M.algebra)
    pr_mod = direct_sum(*proj) if proj else zero_module(M.algebra)
    return np_mod, pr_mod


def tau(M: RepModule) -> RepModule:
    """Auslander-Reiten translate: double syzygy of the projective-free
    part."""
    registry = M.algebra.registry
    core, _ = strip_projectives(M)
    if core.dim == 0:
        return zero_module(M.algebra)
    pieces = [homalg.tau_indec_cached(registry, pid) for pid in registry.ids_of(core)]
    pieces = [p for p in pieces if p.dim > 0]
    return direct_sum(*pieces) if pieces else zero_module(M.algebra)


def whole_module_l31(
    ctx: InductionContext, M: RepModule, inertial=None
) -> TheoremReport:
    """L3.1 on whole modules: the syzygy of M with its projective cover,
    the induction of M and of its syzygy, the syzygy of the induction, and
    the translates on both sides, each split whole by the clauses."""
    clauses = []
    om, _, P, _ = homalg.syzygy(M)
    clauses.append(_twist_clause(ctx, "cover_twist_invariant", P, inertial))
    clauses.append(_twist_clause(ctx, "syzygy_twist_invariant", om, inertial))
    ind_M = induce(ctx, M)
    ind_om = induce(ctx, om)
    om_ind = homalg.syzygy(ind_M)[0]
    clauses.append(_iso_clause("induction_commutes_with_syzygy", ind_om, om_ind))
    tau_ind = tau(ind_M)
    ind_tau = induce(ctx, tau(M))
    clauses.append(_iso_clause("induction_commutes_with_translate", tau_ind, ind_tau))
    return TheoremReport(
        "L3.1",
        {"module_dim": M.dim, "module": M.label or None},
        clauses,
    )


# -- covers and presentations from the split top ---------------------------------


def _iso_witness_strict(A: RepModule, B: RepModule) -> FFMatrix:
    if A.dim == 0 and B.dim == 0:
        return FFMatrix.zeros(A.field, 0, 0)
    w = _indec_iso_witness(A, B)
    if w is None:
        raise AssertionError("expected isomorphic indecomposables")
    return w


def split_top_cover(M: RepModule) -> tuple[RepModule, FFMatrix]:
    """(P, pi) with pi: P -> M an essential epimorphism: top(M) split into
    simples, each hit by the top of its PIM through two isomorphism
    witnesses, and the map lifted along the projection onto the top."""
    registry = M.algebra.registry
    if M.dim == 0:
        return zero_module(M.algebra), FFMatrix.zeros(M.field, 0, 0)
    T, q = homalg.top(M)
    dec = registry.decompose(T)
    pim_mods = []
    pi_columns = []
    for (part_mod, inc), sid in zip(dec.parts, dec.part_ids):
        pim = registry.module(registry.pim_of_simple(sid))
        pim_top, pim_q = homalg.top(pim)
        w = _iso_witness_strict(pim_top, registry.module(sid))
        w2 = _iso_witness_strict(registry.module(sid), part_mod)
        rho = inc @ w2 @ w @ pim_q  # PIM -> T hitting this summand
        # lift along q: find pi_c in Hom(pim, M) with q . pi_c = rho
        span = hom_basis(pim, M)
        if not span:
            raise AssertionError("no homomorphisms from the covering projective")
        sol = rings.in_span(M.field, [q @ h for h in span], [rho])
        if sol is None:
            raise AssertionError("projective cover lift is infeasible")
        pim_mods.append(pim)
        pi_columns.append(rings.combine(M.field, sol.entries(), span))
    P = direct_sum(*pim_mods)
    pi = FFMatrix.hstack(*pi_columns)
    if pi.rank() != M.dim:
        raise AssertionError("projective cover map is not surjective")
    return P, pi


def split_top_syzygy(M: RepModule) -> tuple[RepModule, FFMatrix, RepModule, FFMatrix]:
    """(Omega M, inclusion into P, P, pi) for the split-top cover."""
    P, pi = split_top_cover(M)
    if P.dim == 0:
        return zero_module(M.algebra), FFMatrix.zeros(M.field, 0, 0), P, pi
    om, inc = submodule(P, pi.nullspace())
    return om, inc, P, pi


def minimal_presentation(M: RepModule) -> tuple[RepModule, RepModule, FFMatrix]:
    """(P1, P0, d) with P1 -> P0 -> M -> 0 minimal, from split-top covers."""
    om, inc, P0, _ = split_top_syzygy(M)
    _, _, P1, pi1 = split_top_syzygy(om)
    return P1, P0, inc @ pi1


def presentation_transpose_dual(M: RepModule) -> RepModule:
    """The dual-transpose of a non-projective indecomposable: the cokernel
    of the dualized minimal presentation D(P0) -> D(P1)."""
    P1, P0, d = minimal_presentation(M)
    dd = d.transpose()  # the dual map D(P0) -> D(P1), in dual coordinates
    DP1 = homalg.dual_module(P1)
    cok, _ = quotient_module(DP1, dd.column_space_basis())
    return cok


# -- Nakayama construction ------------------------------------------------------


def _right_mult_matrix(algebra, elt_idx: int) -> FFMatrix:
    mat = np.zeros((algebra.dim, algebra.dim), dtype=_CODE_DTYPE)
    mat[algebra.group.table[:, elt_idx], np.arange(algebra.dim)] = 1
    return FFMatrix._trusted(algebra.field, mat)


def nu_of_projective(P: RepModule) -> tuple[RepModule, list[FFMatrix]]:
    """Nakayama image of a projective: the dual of Hom(P, Lambda).

    Returns (nu P, hom basis of Hom(P, Lambda) fixing the coordinates)."""
    algebra = P.algebra
    reg = regular_module(algebra)
    basis = rings.reduce_span(P.field, hom_basis(P, reg))
    if not basis:
        return zero_module(algebra), []
    # right action of a generator g on Hom(P, Lambda): f |-> (x -> f(x) g)
    gen_mats = []
    for gi in algebra.group.gen_indices:
        Rg = _right_mult_matrix(algebra, gi)
        C = rings.in_span(P.field, basis, [Rg @ f for f in basis])
        if C is None:
            raise AssertionError("right action left the hom space")
        gen_mats.append(C.transpose())  # dual of a right module is a left module
    return RepModule(algebra, gen_mats), basis


def nakayama_tau(M: RepModule) -> RepModule:
    """The translate as the kernel of nu(d) for a minimal presentation
    P1 -d-> P0 of the projective-free part of M."""
    core, _ = strip_projectives(M)
    if core.dim == 0:
        return zero_module(M.algebra)
    P1, P0, d = minimal_presentation(core)
    nu1, basis1 = nu_of_projective(P1)
    nu0, basis0 = nu_of_projective(P0)
    # Hom(d, Lambda): Hom(P0, L) -> Hom(P1, L), f -> f d; nu(d) is its dual
    H = rings.in_span(M.field, basis1, [f @ d for f in basis0])  # (s1, s0)
    if H is None:
        raise AssertionError("hom functor image left the hom space")
    nud = H.transpose()  # nu P1 -> nu P0
    ker = nud.nullspace()
    out, _ = submodule(nu1, ker)
    return out


# -- induction checks -------------------------------------------------------------


def verify_covering_block_sum(
    ctx_to_inertial: InductionContext, B: Block, M: RepModule
) -> TheoremReport:
    """Check that the induction of a block module up to the inertial group
    splits into pieces lying in blocks covering the original one."""
    if M.dim and not lies_in_block(M, B):
        raise FunctorError("module does not lie in the stated block")
    ind = induce(ctx_to_inertial, M)
    clauses = []
    for bi in ctx_to_inertial.target.blocks():
        comp, _ = block_component(ind, bi)
        if comp.dim == 0:
            continue
        cov = covers(bi, B, ctx_to_inertial.emb)
        clauses.append(
            ClauseResult(
                f"component_in_covering_block_{bi.index}",
                cov,
                {"component_dim": comp.dim, "block_dim": bi.dim},
            )
        )
    if not clauses:
        clauses.append(ClauseResult("vacuous_zero_module", True, {}))
    return TheoremReport("P2.11.1", {"module_dim": M.dim}, clauses)


def tensor_with_regular(
    ctx: InductionContext, second_factor_gens: list[int], M: RepModule
) -> RepModule:
    """The outer tensor of M with the regular module of the second direct
    factor, as a module over the product group.

    second_factor_gens: generator positions of the product group that come
    from the second factor (the rest must come from the first, matching
    M's algebra generators in order)."""
    target = ctx.target
    field = target.field
    emb = ctx.emb
    n = emb.n_cosets
    mats = []
    first_pos = 0
    for pos in range(len(target.group.gen_indices)):
        if pos in second_factor_gens:
            # permutation of cosets tensor identity on M
            action = ctx.coset_actions[pos]
            perm = np.zeros((n, n), dtype=_CODE_DTYPE)
            for i, (sigma_i, h) in enumerate(action):
                perm[sigma_i, i] = 1
            mats.append(kron(FFMatrix._trusted(field, perm), FFMatrix.identity(field, M.dim)))
        else:
            mats.append(
                kron(FFMatrix.identity(field, n), M.gen_mats[first_pos])
            )
            first_pos += 1
    return RepModule(target, mats)


def pair_from_modules(ctx: TiltingContext, M: RepModule) -> STauTiltPair:
    """The pair of M over ctx, basic and with no projective part."""
    return STauTiltPair(ctx, tuple(ctx.registry.ids_of(M)) if M.dim else ())


def certified_pair(ctx: TiltingContext, M: RepModule) -> STauTiltPair:
    """The pair of M over ctx, with the support its certificate finds: the
    classes of M from the decomposition of the whole module."""
    pair = pair_from_modules(ctx, M)
    return STauTiltPair(ctx, pair.m_ids, certify_support_tau_tilting(pair).support_pims)


def filtered_block_pair(ictx: InductionContext, m_ids, block_ctx: TiltingContext) -> STauTiltPair:
    """The component in a block of the pair induced from the source classes
    m_ids, by the route T3.3 took before it read ``engine._restrict``: the
    induced classes that ``block_of`` puts in the block, with the support
    that the certificate of their pair with no projective part finds."""
    reg = ictx.target.registry
    ids = [i for i in _image_ids(ictx, m_ids) if reg.block_of(i) == block_ctx.block.index]
    pair = STauTiltPair(block_ctx, tuple(ids))
    return STauTiltPair(block_ctx, pair.m_ids, certify_support_tau_tilting(pair).support_pims)


# -- splitting search ------------------------------------------------------------


def find_splitting_idempotent_products_first(field: FieldSpec, end_basis: list[FFMatrix]):
    """``rings.find_splitting_idempotent`` in its earlier stage order: the
    basis elements, then the products of the first 8 of them, and only then
    the radical, taken here from the algebra itself."""
    basis = rings.reduce_span(field, end_basis)
    if len(basis) <= 1:
        return None
    n = basis[0].rows

    def scalar(m):
        d = m.data
        return bool((d == d[0, 0] * np.eye(n, dtype=_CODE_DTYPE)).all())

    candidates = [b for b in basis if not scalar(b)]
    for i in range(min(len(basis), 8)):
        for j in range(min(len(basis), 8)):
            prod = basis[i] @ basis[j]
            if not scalar(prod) and not prod.is_zero():
                candidates.append(prod)
    for x in candidates:
        e = rings._coprime_split_idempotent(x)
        if e is not None:
            return e
    rad = rings.algebra_radical(field, basis)
    if len(basis) - len(rad) == 1:
        return None
    Q = rings.QuotientAlgebra(field, basis, rad)
    rng = np.random.default_rng(rings.SPLITTING_SEED)
    pool = [list(c) for c in np.eye(Q.dim, dtype=int).tolist()] + [
        [int(a) for a in rng.integers(0, field.q, size=Q.dim)]
        for _ in range(rings.SPLITTING_TRIES)
    ]
    for coords in pool:
        R = Q.regular_matrix(coords)
        mu = R.minimal_polynomial()
        ecoeffs = rings._idempotent_coeffs(field, mu)
        if ecoeffs is not None:
            return rings.lift_idempotent(field, Q.lift((R.apply_poly(ecoeffs) @ Q.unit).entries()))
        if polys.degree(mu) == Q.dim:
            raise rings.FieldNotSplittingError("the residue ring is a proper field extension")
    raise rings.DecompositionError("no splitting idempotent found")


# -- composition factors by module surgery ----------------------------------------


def radical_series(M: RepModule) -> list[RepModule]:
    """Successive radical layers (semisimple), top first."""
    layers = []
    current = M
    while current.dim > 0:
        rad_basis = homalg.radical_submodule_basis(current)
        layer, _ = quotient_module(current, rad_basis)
        layers.append(layer)
        current, _ = submodule(current, rad_basis)
    return layers


def split_layer_loewy_label(registry: ModuleRegistry, M: RepModule) -> str:
    """The Loewy label with every radical layer split by ``decompose``."""
    if M.dim == 0:
        return "0"
    parts = []
    for layer in radical_series(M):
        names = sorted(registry.label(i) for i in registry.decompose(layer).part_ids)
        parts.append(",".join(names))
    return "/".join(parts)


def block_restricted_hom_dim(ctx: InductionContext, B: Block, q_ids, m: int) -> int:
    """dim Hom(e_B Res P, M_m) for P the sum of the target classes q_ids:
    the restriction of the whole sum, and its component in the block B."""
    P = ctx.target.registry.direct_sum_of_ids(list(q_ids))
    if P.dim == 0:
        return 0
    part, _ = block_component(restrict(ctx, P), B)
    return hom_dim(part, ctx.source.registry.module(m)) if part.dim else 0


def whole_lambda_approximation(pair: STauTiltPair) -> tuple[bool, tuple[int, ...]]:
    """(approx_ok, cokernel classes) of a tau-rigid pair: the classes of
    the cokernel of the minimal left add(M)-approximation of the whole
    regular module of the pair's context (the algebra, or its block), and
    whether they all lie in add(M)."""
    ctx, reg = pair.ctx, pair.ctx.registry
    lam = regular_module(ctx.algebra) if ctx.block is None else block_regular_module(ctx.block)
    f, target, _ = homalg.minimal_left_approximation(lam, list(pair.m_ids), reg)
    coker, _ = homalg.cokernel(f, target)
    coker_ids = tuple(sorted(reg.ids_of(coker))) if coker.dim else ()
    return set(coker_ids) <= set(pair.m_ids), coker_ids


# -- the center split through its separable part ------------------------------


def _row(field: FieldSpec, v) -> FFMatrix:
    """The vector v of codes as a 1 x n matrix."""
    return FFMatrix._trusted(field, np.array([v]))


def frobenius_stable_part(field: FieldSpec, vectors, mul_vec):
    """Basis of the maximal separable (etale) subalgebra of a commutative
    algebra: the stable image of the p-th power map.  ``mul_vec`` multiplies
    two coefficient vectors."""

    def pth_power(v):
        out = v
        for _ in range(field.p - 1):
            out = mul_vec(out, v)
        return out

    basis = reduce_span(field, [_row(field, v) for v in vectors])
    while True:
        powered = reduce_span(field, [_row(field, pth_power(v.entries())) for v in basis])
        if len(powered) == len(basis):
            # the p-power map is now bijective on the span, hence stable
            return [v.entries() for v in powered]
        basis = powered


def commutative_primitive_idempotents(field: FieldSpec, unit, basis, mul_vec):
    """Primitive idempotents of a split etale commutative algebra.

    ``basis`` spans the algebra, ``unit`` is its identity, ``mul_vec``
    multiplies two vectors.  Splitting is by minimal polynomials of basis
    elements; over a splitting field this terminates without search."""

    def mult_matrix(v, sub_basis):
        sol = in_span(
            field, sub_basis, [_row(field, mul_vec(v.entries(), b.entries())) for b in sub_basis]
        )
        if sol is None:
            raise AssertionError("multiplication left the subalgebra")
        return sol

    def eval_poly(coeffs, v, local_unit):
        """sum_k c_k v^k with v^0 the local unit: one product of the
        coefficients with the stacked powers."""
        powers = [_row(field, local_unit)]
        for _ in coeffs[1:]:
            powers.append(_row(field, mul_vec(powers[-1].entries(), v)))
        return combine(field, coeffs, powers).entries()

    def split(local_unit, sub_basis):
        if len(sub_basis) == 1:
            return [local_unit]
        for b in sub_basis:
            ecoeffs = _idempotent_coeffs(field, mult_matrix(b, sub_basis).minimal_polynomial())
            if ecoeffs is None:
                continue
            e = eval_poly(ecoeffs, b.entries(), local_unit)
            if not any(e):
                continue
            rest = (_row(field, local_unit) - _row(field, e)).entries()
            left = reduce_span(field, [_row(field, mul_vec(e, v.entries())) for v in sub_basis])
            right = reduce_span(field, [_row(field, mul_vec(rest, v.entries())) for v in sub_basis])
            return split(e, left) + split(rest, right)
        raise FieldNotSplittingError(
            "commutative algebra does not split over the ground field"
        )

    return split(list(unit), reduce_span(field, [_row(field, v) for v in basis]))


# -- quotients and splits by basis completion and inversion ---------------------


def completed_basis_quotient(M: RepModule, sub_basis: FFMatrix) -> tuple[RepModule, FFMatrix]:
    """The quotient by the invariant subspace spanned by the independent
    columns ``sub_basis``: the standard vectors that extend them to a basis,
    taken greedily in order, and the last rows of the inverse of
    [sub_basis | those vectors] as the projection."""
    d = sub_basis.cols
    q_dim = M.dim - d
    if q_dim == 0:
        return zero_module(M.algebra), FFMatrix.zeros(M.field, 0, M.dim)
    ident = FFMatrix.identity(M.field, M.dim)
    complement = rings.extend_basis(
        M.field,
        [sub_basis.take_columns([j]) for j in range(d)],
        [ident.take_columns([k]) for k in range(M.dim)],
    )
    T = sub_basis.hstack(ident.take_columns(complement))
    T_inv = T.inverse()
    proj = T_inv.take_rows(range(d, M.dim))
    lift = T.take_columns(range(d, M.dim))
    mats = [proj @ g @ lift for g in M.gen_mats]
    return RepModule(M.algebra, mats), proj


def inverse_split_projections(e: FFMatrix) -> list[tuple[FFMatrix, FFMatrix]]:
    """(basis, projection) of the image and of the kernel of an idempotent:
    the pivot columns of e and its nullspace, each with its rows of the
    inverse of [image | kernel]."""
    img = e.column_space_basis()
    ker = e.nullspace()
    proj = img.hstack(ker).inverse()
    return [(img, proj.take_rows(range(img.cols))), (ker, proj.take_rows(range(img.cols, e.rows)))]
