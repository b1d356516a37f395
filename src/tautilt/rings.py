"""Structure computations for small matrix algebras over GF(p^m).

The two workhorses:

* ``algebra_radical``: the Jacobson radical of a unital algebra A given by a
  matrix basis, via the characteristic-p descending chain
  ``J_0 = A``, ``J_{k+1} = {x in J_k : e_{p^k}(x b) = 0 for all b in J_k}``
  where ``e_i`` is the i-th elementary symmetric function of eigenvalues
  (trace of the i-th exterior power).  On each stage the map is additive and
  p^k-semilinear, so the solve happens in Frobenius-twisted coordinates.
  It runs only on rings that may be non-local: pieces of the center, and
  endomorphism rings such as End(P + P) that no basis element splits.

* ``find_splitting_idempotent``: either certifies that a matrix algebra
  is local or produces a proper idempotent, by coprime splits of
  minimal polynomials, passing to the semisimple quotient when needed, and
  lifting idempotents along the radical by p-th powering.  Its stages, in
  order: (1) coprime splits of the basis elements, whose factored minimal
  polynomials also give each element its eigenvalue lam_x when it has one
  in the field; (2) the radical, and None when the quotient by it is
  one-dimensional, as no element of a local ring has a coprime split: the
  radical is span{x - lam_x 1} when that is a nilpotent ideal of
  codimension 1 (``_local_radical``), else the caller's, from
  ``algebra_radical``; (3) coprime splits of the products of the first 8
  basis elements, pairwise; (4) the semisimple quotient, its unit vectors
  first, then seeded random elements.  It splits the endomorphism rings of
  modules, and the center of a group algebra into its blocks through the
  center's regular representation (``algebra.block_decomposition``).

Every subspace question over the field goes through the span helpers,
each one elimination or one pass over the terms:

* ``reduce_span``: the canonical basis of a span;
* ``in_span``: coordinates of targets in a span, or None;
* ``extend_basis``: which candidates, taken in order, enlarge a span (the
  pivot columns of one elimination of ``[basis | candidates]``);
* ``combine``: the linear combination sum c_i M_i, one product of the
  coefficient row with the stacked matrices.

Every sum of products of codes here is a product through ``ff._matmul``,
which owns the coefficient planes and their float64 exactness check.
"""

from __future__ import annotations

import numpy as np

from . import polys
from .ff import _CODE_DTYPE, FFMatrix, FieldSpec, _matmul, stack_columns


class DecompositionError(RuntimeError):
    """Splitting search hit its iteration cap."""


class FieldNotSplittingError(RuntimeError):
    """A local algebra (an endomorphism ring, or a piece of the center) has
    a residue field bigger than the ground field, so the ground field does
    not split the algebra."""


def matrix_power(A: FFMatrix, e: int) -> FFMatrix:
    out = FFMatrix.identity(A.field, A.rows)
    base = A
    while e:
        if e & 1:
            out = out @ base
        base = base @ base
        e >>= 1
    return out


def reduce_span(field: FieldSpec, mats: list[FFMatrix]) -> list[FFMatrix]:
    """Canonical basis (reduced row echelon vectors) of the span of the
    given matrices, each reshaped back to the common shape."""
    mats = [m for m in mats if not m.is_zero()]
    if not mats:
        return []
    shape = mats[0].shape
    basis = FFMatrix._trusted(field, _stacked(mats)).row_space_basis()
    return [FFMatrix._trusted(field, row.reshape(shape)) for row in basis.data]


def in_span(field: FieldSpec, basis: list[FFMatrix], targets: list[FFMatrix]):
    """Coordinates of the targets in the span of basis, one column per
    target (shape len(basis) x len(targets)), or None if some target lies
    outside the span."""
    if all(t.is_zero() for t in targets):
        return FFMatrix.zeros(field, len(basis), len(targets))
    if not basis:
        return None
    return stack_columns(field, basis).solve(stack_columns(field, targets))


def extend_basis(field: FieldSpec, basis: list[FFMatrix], candidates: list[FFMatrix]) -> list[int]:
    """Positions of the candidates that lie outside the span of ``basis``
    and of the candidates before them.  A column of ``[basis | candidates]``
    is a pivot of its reduced echelon form exactly when it is not in the
    span of the columns before it, so one elimination answers for all."""
    if not candidates:
        return []
    _, pivots = stack_columns(field, list(basis) + list(candidates)).rref()
    return [c - len(basis) for c in pivots if c >= len(basis)]


def _stacked(mats: list[FFMatrix]) -> np.ndarray:
    """The matrices flattened, one per row."""
    return np.array([m.data.ravel() for m in mats])


def combine(field: FieldSpec, coeffs, mats: list[FFMatrix]) -> FFMatrix:
    """sum c_i M_i for one field code c_i per matrix, at least one matrix,
    all of one shape: one product of the coefficient row with the matrices
    stacked as rows."""
    row = np.array([coeffs], dtype=_CODE_DTYPE)
    return FFMatrix._trusted(field, _matmul(field, row, _stacked(mats)).reshape(mats[0].shape))


def _trace_form(field: FieldSpec, J: list[FFMatrix]) -> FFMatrix:
    """The matrix with entry (b, u) = e_1(u b) = tr(u b) = sum_ij u_ij b_ji,
    for u and b running over J: one product of the flattened b^T and u."""
    B = np.array([b.data.T.ravel() for b in J])
    return FFMatrix._trusted(field, _matmul(field, B, _stacked(J).T))


def _stage_matrix(field: FieldSpec, J: list[FFMatrix], pk: int, charpolys: dict) -> FFMatrix:
    """The matrix with entry (b, u) = e_pk(u b) for u and b running over J,
    for pk >= 2, filled from its upper triangle: for each b, one product of
    the elements of J from b on, stacked, with b gives the u b of its row.
    The charpoly of each distinct product is taken once and kept in
    ``charpolys``, keyed by its codes, across the stages of a call."""
    d, n = len(J), J[0].rows
    stacked = np.vstack([u.data for u in J])
    C = np.zeros((d, d), dtype=_CODE_DTYPE)
    for i, b in enumerate(J):
        prods = _matmul(field, stacked[i * n :], b.data).reshape(d - i, n, n)
        for j, prod in enumerate(prods, i):
            key = prod.tobytes()
            cp = charpolys.get(key)
            if cp is None:
                cp = charpolys[key] = FFMatrix._trusted(field, prod).charpoly()
            # det(xI - A) = sum_i (-1)^i e_i x^(n-i)
            e = cp[n - pk] if pk % 2 == 0 else field.neg(cp[n - pk])
            C[i, j] = C[j, i] = e
    return FFMatrix._trusted(field, C)


def algebra_radical(field: FieldSpec, basis: list[FFMatrix]) -> list[FFMatrix]:
    """Jacobson radical of the matrix algebra spanned by ``basis``.

    The basis must span an algebra (closed under products).  Returns a
    canonical basis of the radical.  Every returned element is checked to be
    nilpotent as a matrix; the full ideal property is exercised in tests.

    Each stage solves C s = 0 for the matrix C[b, u] = e_pk(u b) over the
    current basis J.  C is symmetric: XY and YX have the same
    characteristic polynomial, so e_pk(u b) = e_pk(b u), and only its upper
    triangle is computed.  Its entries come from the charpolys of the
    products, one charpoly per distinct product matrix: equal matrices have
    equal charpolys, and each stage reads its own coefficient e_pk off the
    shared charpoly.  So a stage that keeps the J of the stage before takes
    no charpoly, and a stage on J = kG, where every product is some L_g,
    takes |G|.  On End(P + P) of kS4 over GF(2), of dimension 12, a call
    takes 81 charpolys instead of 384.  Sharing changes no entry of C,
    hence no byte of the result."""
    J = reduce_span(field, basis)
    if not J:
        return []
    n = J[0].rows
    p = field.p
    k = 0
    pk = 1
    charpolys: dict[bytes, tuple[int, ...]] = {}
    while pk <= n and J:
        # e_{pk}(x b) = 0 for x = sum t_i u_i, all b in J; unknowns s_i = t_i^{pk}
        if pk == 1:
            C = _trace_form(field, J)
        else:
            C = _stage_matrix(field, J, pk, charpolys)
        # rows: the solutions s, then t_i = s_i^(1/pk), and all the new
        # elements sum t_i u_i in one product with the stacked J
        t = C.nullspace().data.T
        for _ in range(-k % field.m):
            t = field.frob_table[t]
        newJ = _matmul(field, t, _stacked(J)).reshape(-1, n, n)
        J = reduce_span(field, [FFMatrix._trusted(field, x) for x in newJ])
        k += 1
        pk *= p
    for x in J:  # the nilpotency index is at most n: x^(2^k) = 0 for 2^k >= n
        for _ in range((n - 1).bit_length()):
            x = x @ x
        if not x.is_zero():
            raise AssertionError("radical computation produced a non-nilpotent element")
    return J


def lift_idempotent(field: FieldSpec, e0: FFMatrix) -> FFMatrix:
    """Given e0 whose image in the semisimple quotient is idempotent,
    produce an idempotent of the algebra congruent to it mod the radical
    (p-th power iteration inside the commutative subalgebra k[e0])."""
    n = e0.rows
    pK = 1
    while pK < max(n, 2):
        pK *= field.p
    e = matrix_power(e0, pK)
    if not ((e @ e) == e):
        # one more round covers nilpotency index up to pK^2
        e = matrix_power(e, pK)
    if not ((e @ e) == e):
        raise AssertionError("idempotent lifting failed to stabilize")
    return e


def _idempotent_coeffs(field: FieldSpec, mu, facs=None) -> tuple[int, ...] | None:
    """For a minimal polynomial mu = g^mult * rest, g its first irreducible
    factor: e with e = 0 mod g^mult and e = 1 mod rest, so e(x) is a proper
    idempotent for x of minimal polynomial mu; None if rest = 1.  ``facs``
    is the factorization of mu, when the caller has it."""
    facs = polys.factor(field, mu) if facs is None else facs
    if len(facs) < 2:
        return None
    g, mult = facs[0]
    part = g
    for _ in range(mult - 1):
        part = polys.mul(field, part, g)
    return polys.crt_idempotent_coeffs(field, mu, part)


def _split_or_eigenvalue(x: FFMatrix):
    """(e, None) for e a proper idempotent polynomial in x, if its minimal
    polynomial has at least two distinct irreducible factors; else (None,
    lam) if it is a power of t - lam, and (None, None) if a power of an
    irreducible of higher degree.  One factorization answers both."""
    F = x.field
    mu = x.minimal_polynomial()
    facs = polys.factor(F, mu)
    ecoeffs = _idempotent_coeffs(F, mu, facs)
    if ecoeffs is None:
        g, _ = facs[0]
        return None, (F.neg(g[0]) if polys.degree(g) == 1 else None)
    e = x.apply_poly(ecoeffs)
    if e.is_zero() or e == FFMatrix.identity(F, x.rows):
        raise AssertionError("CRT idempotent degenerated")
    return e, None


def _coprime_split_idempotent(x: FFMatrix):
    """A proper idempotent polynomial in x, if its minimal polynomial has
    at least two distinct irreducible factors; None otherwise."""
    return _split_or_eigenvalue(x)[0]


def _local_radical(field: FieldSpec, basis: list[FFMatrix], eigenvalues) -> list[FFMatrix] | None:
    """rad E for the algebra E spanned by ``basis``, read off one eigenvalue
    lam_x per basis element x (None where x has none in the field), when
    they show E local with residue field the ground field; None otherwise.

    J = span{x - lam_x 1} is rad E exactly when dim J = dim E - 1 and the
    chain J, J J, J J J, ... stays inside J and reaches 0: then E = k 1 + J,
    so E J = J + J J lies in J and J is a nilpotent two-sided ideal with
    E / J = k.  Each power is one product of the stacked basis of the power
    before with the basis of J side by side."""
    if None in eigenvalues:
        return None
    n = basis[0].rows
    ident = FFMatrix.identity(field, n)
    J = reduce_span(field, [x - ident.scale(lam) for x, lam in zip(basis, eigenvalues)])
    if len(J) != len(basis) - 1:
        return None
    power = J
    while power:
        prods = _matmul(field, np.vstack([a.data for a in power]), np.hstack([b.data for b in J]))
        prods = prods.reshape(len(power), n, len(J), n).transpose(0, 2, 1, 3)
        lower = reduce_span(field, [FFMatrix._trusted(field, m) for m in prods.reshape(-1, n, n)])
        if len(lower) == len(power) or len(reduce_span(field, power + lower)) != len(power):
            return None
        power = lower
    return J


class QuotientAlgebra:
    """E / rad(E) presented by structure constants, with its left regular
    representation for minimal-polynomial work."""

    def __init__(self, field: FieldSpec, alg_basis: list[FFMatrix], rad_basis: list[FFMatrix]):
        self.field = field
        # complement representatives: extend the radical basis to the full
        # algebra; quotient coordinates are read off via the combined solve
        self.rad = reduce_span(field, rad_basis)
        lifts = [alg_basis[i] for i in extend_basis(field, self.rad, alg_basis)]
        self.lifts = lifts
        self.dim = len(lifts)
        self._solver_basis = self.rad + lifts
        # a column: the quotient coordinates of the identity
        self.unit = self._coords([FFMatrix.identity(field, alg_basis[0].rows)])
        # left regular representation: columns are coords of lift_i * lift_j
        self._regular = [self._coords([u @ v for v in lifts]) for u in lifts]

    def _coords(self, mats: list[FFMatrix]) -> FFMatrix:
        """Quotient coordinates (w.r.t. lifts) of algebra elements, one
        column each."""
        sol = in_span(self.field, self._solver_basis, mats)
        if sol is None:
            raise AssertionError("element not in the algebra span")
        return sol.take_rows(range(len(self.rad), sol.rows))

    def regular_matrix(self, coords) -> FFMatrix:
        return combine(self.field, coords, self._regular)

    def lift(self, coords) -> FFMatrix:
        return combine(self.field, coords, self.lifts)


# The random elements that stage 4 of ``find_splitting_idempotent`` tries
# after the unit vectors of the quotient: their generator's seed, and how
# many.  They are reached only on quotients that no unit vector splits
# (some 4-dimensional quotients over GF(2)); there the seed picks the
# idempotent, and so the bases that results are computed in.
SPLITTING_SEED = 20240801
SPLITTING_TRIES = 400


def find_splitting_idempotent(field: FieldSpec, end_basis: list[FFMatrix], radical):
    """Either a proper idempotent of the algebra spanned by ``end_basis``
    (a matrix algebra that contains the identity, such as an endomorphism
    ring or a regular representation), or None if the algebra is
    local.  ``radical(J)`` returns a basis of its radical; it is called only
    when no basis element splits, with J the radical that the eigenvalues
    of the basis elements show (``_local_radical``), or None when they show
    none and the caller has to compute it.  Raises FieldNotSplittingError
    when the residue division ring is a proper field extension of the
    ground field.

    The stages run in the order of the module docstring.  Stopping at a
    local ring before the products changes no result: no element of a
    local ring has a coprime split, so no product would give one."""
    basis = reduce_span(field, end_basis)
    n = basis[0].rows
    ident = FFMatrix.identity(field, n)

    def scalar(m):
        d = m.data
        return bool((d == d[0, 0] * np.eye(n, dtype=_CODE_DTYPE)).all())

    # stage 1: the basis elements, which usually split
    eigenvalues = []
    for x in basis:
        e, lam = (None, int(x.data[0, 0])) if scalar(x) else _split_or_eigenvalue(x)
        if e is not None:
            return e
        eigenvalues.append(lam)
    # stage 2: a local ring stops here
    rad = radical(_local_radical(field, basis, eigenvalues))
    if len(basis) - len(rad) == 1:
        return None
    # stage 3: products, made one at a time
    for i in range(min(len(basis), 8)):
        for j in range(min(len(basis), 8)):
            x = basis[i] @ basis[j]
            e = None if scalar(x) or x.is_zero() else _coprime_split_idempotent(x)
            if e is not None:
                return e
    # stage 4: decide via the semisimple quotient
    Q = QuotientAlgebra(field, basis, rad)
    rng = np.random.default_rng(SPLITTING_SEED)

    def try_coords(coords):
        R = Q.regular_matrix(coords)
        mu = R.minimal_polynomial()
        ecoeffs = _idempotent_coeffs(field, mu)
        if ecoeffs is not None:
            # the idempotent polynomial at the element, inside the quotient:
            # R is left multiplication by it, and R . unit is the element
            ebar = R.apply_poly(ecoeffs) @ Q.unit
            e0 = Q.lift(ebar.entries())
            e = lift_idempotent(field, e0)
            if e.is_zero() or e == ident:
                raise AssertionError("lifted idempotent degenerated")
            return e
        # mu is a power of one irreducible; in the semisimple quotient its
        # degree is dim Q only if the quotient is a field and mu irreducible
        if polys.degree(mu) == Q.dim:
            raise FieldNotSplittingError(
                f"a residue field has degree {Q.dim} over the ground field"
            )
        return None

    unit_basis = [list(c) for c in np.eye(Q.dim, dtype=int).tolist()]
    pool = unit_basis + [
        [int(a) for a in rng.integers(0, field.q, size=Q.dim)] for _ in range(SPLITTING_TRIES)
    ]
    for coords in pool:
        out = try_coords(coords)
        if out is not None:
            return out
    raise DecompositionError(
        f"no splitting idempotent found in {SPLITTING_TRIES} tries (dim quotient {Q.dim})"
    )
