"""Exact arithmetic in GF(p^m) and the dense matrix kernel.

Field elements are stored as integer codes in ``range(q)`` with ``q = p**m``:
the code of an element with polynomial coordinates ``(c_0, ..., c_{m-1})``
is ``sum(c_i * p**i)``.  Elementwise arithmetic goes through precomputed
lookup tables over numpy integer arrays.

Matrix products, also inside ``charpoly``, run on coefficient planes
(``_matmul``): one float64 BLAS product (m r x s) @ (s x m c) of the digit
planes of A = sum A_i x^i and B gives every A_i B_j, a fixed (m^2 x m) matrix
folds them into the coordinates of sum A_i B_j x^(i+j), and these are reduced
mod p and encoded.  The table loops this replaced are the test oracles in
tests/ff_oracles.py.  Results built here skip the range check of FFMatrix().

Small operands skip numpy's per-call cost, which there outweighs the
arithmetic; both paths are exact table arithmetic, so they give the same
codes.  The cutoffs are where the two paths took equal time on the
operands that ``verify A4 S4 --p 2``, ``stt A4 --p 2``, ``stt S4 --p 2
--m 1`` and ``verify A4 S4 --p 3`` pass to the kernel (one 2-core x86 box,
best of 3 per operand, summed over operands of about the same size):

* ``FFMatrix.rref`` runs the same Gauss-Jordan loop on a Python list per
  row up to _LIST_RREF_CELLS = 512 cells: 2-2.5x faster below 256 cells,
  1.1-1.4x at 256-512, from 0.6x to 1.3x at 512-1024 and 1.6-4x slower
  from 8192 cells on.  The field's add, mul, neg and inv tables are copied to
  nested lists (FieldSpec.list_tables) on the first such call, and only for
  q <= _LIST_TABLE_CAP = 256: every code is then one of CPython's cached
  small ints, so a q x q list is q^2 pointers, 0.5 MB at q = 256.  Larger
  fields stay on the numpy loop.
* ``_matmul`` over GF(2^m), m > 1, with r s c <= _GATHER_MATMUL_MACS = 4096
  multiply-adds, reads every product A[i, k] B[k, j] from the mul table and
  XORs them over k, as codes of GF(2^m) add bitwise: 2-2.5x faster below
  512, 1.1-1.2x at 2048-4096, 0.6-1x from 4096 to 32768 over GF(4).  Over
  GF(p) the float product is already one call.  Over GF(p^m) for odd p,
  summing the products' base-p digits was at most 1.3x faster below about
  200 multiply-adds, 1.15-1.4x slower at 512 and 4-11x slower at 32768
  (random n x n products over GF(9), GF(25), GF(49), GF(81) and GF(729)),
  so those fields keep the coefficient planes at every size.

A product whose float64 temporaries would pass _MATMUL_BLOCK_BYTES = 1 MiB
runs in blocks.  Each row of A (column of B) takes 8 m s bytes of planes,
and each output entry 16 m^2 bytes: the plane product and its copy in fold
order (over GF(p), the float product and its int64 copy).  ``_matmul``
splits the longer side of the output, the rows of A when r >= c and else
the columns of B, into blocks of as many lines as the budget holds (at
least one).  It converts the other operand to planes once and writes every
block into one int16 output.  Each entry is the same exact sum over the
same inner dimension, so no code changes.  The budget is a memory bound,
not a speed knob.  At 1 MiB the benchmark's structure operations split no
product, ``stt S3xC3 --p 2`` splits 1, ``mackey A4 S4 --p 2`` 9 and
``verify A4 S4 --p 2`` 18 of about 20,000.  Peak RSS of the process, whole
products against blocks, on one 2-core x86 box with identical output bytes:

  ``mackey A4 S4 --p 2`` (seeded 16-dim module)   49.9 MB  ->  40.0 MB
  ``stt A5 --p 3`` (GF(81))                       164 MB   ->  46.5 MB
  ``stt A5 --p 2`` (GF(16))                       164 MB   ->  50.7 MB
  ``stt S5 --p 5`` (GF(25))                       312 MB   ->  115 MB

When the planes of the side that is not split, 8 m s bytes per line of
that side, would pass the budget alone, the inner dimension is split too:
each output block sums the float64 plane products of blocks of inner
indices, as many as the budget holds for that side, before the fold.  The
2^53 bound covers the whole sum, so every partial sum is exact as well.
The (120 x 14400) @ (14400 x 120) trace form of kS5 over GF(25) held 27.7 MiB
of planes at once when that side stayed whole.

Everything here is immutable after construction; operations are pure
functions and safe to share across workers.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

_CODE_DTYPE = np.int16
_TABLE_CAP = 4096  # largest q for which we build q*q tables
_LIST_TABLE_CAP = 256  # largest q whose tables FieldSpec.list_tables copies
# Operands up to these sizes take the small paths (module docstring).
_LIST_RREF_CELLS = 512  # rows * cols, for FFMatrix.rref
_GATHER_MATMUL_MACS = 4096  # r * s * c, for _matmul over GF(2^m), m > 1
# Temporaries of one _matmul past this many bytes: blocks (module docstring).
_MATMUL_BLOCK_BYTES = 1 << 20


class FFError(ValueError):
    pass


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class FieldSpec:
    """The field GF(p^m) with a fixed monic irreducible modulus over GF(p).

    Instances are immutable and interned per (p, m, modulus); one FieldSpec
    is shared by every object of a computation session.
    """

    _cache: dict = {}

    def __new__(cls, p: int, m: int, modulus: tuple[int, ...]):
        key = (p, m, tuple(modulus))
        inst = cls._cache.get(key)
        if inst is not None:
            return inst
        inst = super().__new__(cls)
        inst._init(p, m, tuple(modulus))
        cls._cache[key] = inst
        return inst

    def _init(self, p: int, m: int, modulus: tuple[int, ...]):
        if not _is_prime(p):
            raise FFError(f"characteristic {p} is not prime")
        if m < 1:
            raise FFError(f"extension degree {m} must be >= 1")
        q = p**m
        if q > _TABLE_CAP:
            raise FFError(f"field size {q} exceeds table cap {_TABLE_CAP}")
        if len(modulus) != m + 1 or modulus[m] != 1:
            raise FFError("modulus must be monic of degree m")
        for c in modulus:
            if type(c) is not int or not 0 <= c < p:
                raise FFError(f"modulus coefficient {c!r} is not in range({p})")
        self.p = p
        self.m = m
        self.q = q
        self.modulus = modulus
        self._build_tables()

    def _build_tables(self):
        """Every table from array operations: sums add base-p digits mod p,
        products add the logarithms to the base of the least primitive
        code (the first whose powers walk through all q - 1 units)."""
        from . import polys  # cycle: polys computes over FieldSpec

        p, m, q = self.p, self.m, self.q
        if m > 1 and not polys.is_irreducible(field_create(p, 1), self.modulus):
            raise FFError("modulus is not irreducible: element without inverse")
        places = p ** np.arange(m, dtype=np.int64)
        digits = np.arange(q)[:, None] // places % p  # (q, m): digits[a, i] = c_i of a
        # xpow[j, a] = digits of a x^j.  Times x shifts the digits up and
        # folds the top one back through x^m = -(modulus[:m]).
        low = np.array(self.modulus[:m], dtype=np.int64)
        xpow = [digits]
        for _ in range(m - 1):
            d = xpow[-1]
            xpow.append((np.hstack([np.zeros_like(d[:, :1]), d[:, :-1]]) - d[:, -1:] * low) % p)
        xpow = np.array(xpow)
        for g in range(1, q):
            times_g = (np.tensordot(digits[g], xpow, 1) % p @ places).tolist()
            exp = [1]
            while len(exp) < q - 1 and times_g[exp[-1]] != 1:
                exp.append(times_g[exp[-1]])
            if len(exp) == q - 1:
                break
        exp = np.array(exp + exp, dtype=_CODE_DTYPE)  # exp[k] = g^k, k < 2(q - 1)
        log = np.zeros(q, dtype=np.int64)
        log[exp[: q - 1]] = np.arange(q - 1)
        mul = np.zeros((q, q), dtype=_CODE_DTYPE)
        for a in range(1, q):  # row by row: the q x q index array would be int64
            mul[a, 1:] = exp[log[a] + log[1:]]
        inv = np.zeros(q, dtype=_CODE_DTYPE)
        inv[1:] = exp[q - 1 - log[1:]]
        frob = np.zeros(q, dtype=_CODE_DTYPE)
        frob[1:] = exp[p * log[1:] % (q - 1)]
        neg = (-digits % p @ places).astype(_CODE_DTYPE)
        add = np.zeros((q, q), dtype=_CODE_DTYPE)
        for i in range(m):
            d = digits[:, i].astype(_CODE_DTYPE)
            digit_sum = d[:, None] + d[None, :]
            digit_sum %= p
            digit_sum *= int(places[i])
            add += digit_sum
        digits = digits.astype(np.float64)
        planes = np.ascontiguousarray(digits.T)
        fold = digits[mul[places[:, None], places[None, :]]].reshape(m * m, m)
        for t in (add, mul, neg, inv, frob, planes, fold, places):
            t.flags.writeable = False
        self.add_table = add
        self.mul_table = mul
        self.neg_table = neg
        self.inv_table = inv
        self.frob_table = frob  # x -> x^p
        self.digit_planes = planes  # (m, q): digit_planes[i, a] = c_i of a
        self.fold = fold  # (m*m, m): fold[i*m + j, l] = coordinate l of x^(i+j)
        self.places = places  # (m,): p^l

    # -- scalar helpers -------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return int(self.add_table[a, b])

    def sub(self, a: int, b: int) -> int:
        return int(self.add_table[a, self.neg_table[b]])

    def mul(self, a: int, b: int) -> int:
        return int(self.mul_table[a, b])

    def neg(self, a: int) -> int:
        return int(self.neg_table[a])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero field element")
        return int(self.inv_table[a])

    def frobenius(self, a: int, k: int = 1) -> int:
        """a^(p^k); k may be reduced mod m since Frobenius has order m."""
        out = a
        for _ in range(k % self.m):
            out = int(self.frob_table[out])
        return out

    def frobenius_inv(self, a: int, k: int = 1) -> int:
        return self.frobenius(a, (-k) % self.m)

    def to_json(self) -> dict:
        """The field record of every JSON output and module file."""
        return {"p": self.p, "m": self.m, "modulus": list(self.modulus)}

    def element_from_int(self, n: int) -> int:
        """The image of the integer n under Z -> GF(p^m)."""
        return n % self.p

    @functools.cached_property
    def list_tables(self) -> tuple[list, list, list, list]:
        """(add, mul, neg, inv) as nested Python lists, for the list
        elimination; built on first use, for q <= _LIST_TABLE_CAP only."""
        return tuple(t.tolist() for t in (self.add_table, self.mul_table, self.neg_table, self.inv_table))

    def __repr__(self):
        return f"GF({self.p}^{self.m})" if self.m > 1 else f"GF({self.p})"

    def __reduce__(self):
        return (FieldSpec, (self.p, self.m, self.modulus))


def _least_primitive_root(p: int) -> int:
    if p == 2:
        return 1
    for g in range(2, p):
        seen = set()
        x = 1
        for _ in range(p - 1):
            x = (x * g) % p
            seen.add(x)
        if len(seen) == p - 1:
            return g
    raise AssertionError("no primitive root found")


@functools.lru_cache(maxsize=None)
def canonical_modulus(p: int, m: int) -> tuple[int, ...]:
    """Deterministic irreducible modulus of degree m over GF(p).

    For m >= 2: the monic irreducible whose coefficient tuple
    (c_{m-1}, ..., c_0) is lexicographically least.  For m == 1: x - g with
    g the least primitive root (so GF(2) gets x + 1)."""
    from . import polys  # cycle: polys computes over FieldSpec

    if m == 1:
        g = _least_primitive_root(p)
        return ((-g) % p, 1)
    prime_field = field_create(p, 1)
    for code in range(p**m):
        c = code
        digits = []
        for _ in range(m):
            digits.append(c % p)
            c //= p
        # code = sum(c_{m-1-i} p^(m-1-i)): the base-p digits of code, least
        # significant first, are exactly the little-endian coefficients, and
        # ascending code order is lex order on (c_{m-1}, ..., c_0).
        le = tuple(digits) + (1,)
        if polys.is_irreducible(prime_field, le):
            return le
    raise FFError(f"no irreducible polynomial of degree {m} over GF({p})")


def field_create(p: int, m: int) -> FieldSpec:
    """GF(p^m) with the canonical modulus.  Raises FFError on bad input."""
    if not _is_prime(p):
        raise FFError(f"characteristic {p} is not prime")
    if m < 1:
        raise FFError(f"extension degree {m} must be >= 1")
    return FieldSpec(p, m, canonical_modulus(p, m))


class FFMatrix:
    """Dense matrix over a FieldSpec.  Entries are field codes in an int16
    numpy array of shape (rows, cols); the array is frozen at construction."""

    __slots__ = ("field", "data")

    def __init__(self, field: FieldSpec, data):
        arr = np.asarray(data)
        if arr.ndim != 2:
            raise FFError(f"matrix data must be 2-dimensional, got shape {arr.shape}")
        if arr.size and arr.dtype.kind not in "biu":
            raise FFError(f"matrix entries must be integers, got {arr.dtype}")
        if arr.size and (arr.min() < 0 or arr.max() >= field.q):
            raise FFError("entry out of range for field")
        self._freeze(field, arr)

    @classmethod
    def _trusted(cls, field: FieldSpec, arr: np.ndarray) -> "FFMatrix":
        """Wrap codes computed here from valid codes: no range check."""
        self = cls.__new__(cls)
        self._freeze(field, arr)
        return self

    def _freeze(self, field: FieldSpec, arr: np.ndarray):
        arr = np.ascontiguousarray(arr, dtype=_CODE_DTYPE)
        arr.flags.writeable = False
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "data", arr)

    def __setattr__(self, name, value):
        raise AttributeError("FFMatrix is immutable")

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zeros(field: FieldSpec, rows: int, cols: int) -> "FFMatrix":
        return FFMatrix._trusted(field, np.zeros((rows, cols), dtype=_CODE_DTYPE))

    @staticmethod
    def identity(field: FieldSpec, n: int) -> "FFMatrix":
        return FFMatrix._trusted(field, np.eye(n, dtype=_CODE_DTYPE))

    # -- basics ----------------------------------------------------------

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def is_zero(self) -> bool:
        return not self.data.any()

    def __eq__(self, other):
        return (
            isinstance(other, FFMatrix)
            and self.field is other.field
            and self.shape == other.shape
            and bool(np.array_equal(self.data, other.data))
        )

    def __hash__(self):
        return hash((self.field.p, self.field.m, self.shape, self.data.tobytes()))

    def __repr__(self):
        return f"FFMatrix({self.field}, {self.data.tolist()})"

    def entries(self) -> list[int]:
        """Row-major entry codes."""
        return [int(x) for x in self.data.ravel()]

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "FFMatrix") -> "FFMatrix":
        self._check_same(other)
        return FFMatrix._trusted(self.field, self.field.add_table[self.data, other.data])

    def __sub__(self, other: "FFMatrix") -> "FFMatrix":
        self._check_same(other)
        f = self.field
        return FFMatrix._trusted(f, f.add_table[self.data, f.neg_table[other.data]])

    def __neg__(self) -> "FFMatrix":
        return FFMatrix._trusted(self.field, self.field.neg_table[self.data])

    def scale(self, c: int) -> "FFMatrix":
        return FFMatrix._trusted(self.field, self.field.mul_table[c, self.data])

    def __matmul__(self, other: "FFMatrix") -> "FFMatrix":
        if self.field is not other.field:
            raise FFError("field mismatch in matrix product")
        if self.cols != other.rows:
            raise FFError(f"shape mismatch {self.shape} @ {other.shape}")
        return FFMatrix._trusted(self.field, _matmul(self.field, self.data, other.data))

    def transpose(self) -> "FFMatrix":
        return FFMatrix._trusted(self.field, self.data.T)

    def hstack(self, *others: "FFMatrix") -> "FFMatrix":
        """Self and the others side by side, copied once."""
        return FFMatrix._trusted(self.field, np.hstack([self.data, *(o.data for o in others)]))

    def vstack(self, *others: "FFMatrix") -> "FFMatrix":
        """Self above the others, copied once."""
        return FFMatrix._trusted(self.field, np.vstack([self.data, *(o.data for o in others)]))

    def take_columns(self, col_idx) -> "FFMatrix":
        return FFMatrix._trusted(self.field, self.data[:, list(col_idx)])

    def take_rows(self, row_idx) -> "FFMatrix":
        return FFMatrix._trusted(self.field, self.data[list(row_idx), :])

    def _check_same(self, other):
        if self.field is not other.field or self.shape != other.shape:
            raise FFError("incompatible matrices")

    # -- elimination -------------------------------------------------------

    def rref(self) -> tuple["FFMatrix", tuple[int, ...]]:
        """Reduced row echelon form by Gauss-Jordan elimination through the
        field tables, one pivot at a time over whole rows, taking the first
        nonzero entry of each column as its pivot: on Python lists up to
        _LIST_RREF_CELLS cells over a field of at most _LIST_TABLE_CAP
        elements, else on the numpy array.

        Returns (R, pivot_columns)."""
        f = self.field
        if self.data.size <= _LIST_RREF_CELLS and f.q <= _LIST_TABLE_CAP:
            R, pivots = _rref_lists(f, self.data)
            return FFMatrix._trusted(f, R), pivots
        A = self.data.copy()
        nrows, ncols = A.shape
        pivots = []
        r = 0
        for c in range(ncols):
            if r == nrows:
                break
            nz = np.nonzero(A[r:, c])[0]
            if nz.size == 0:
                continue
            i = r + int(nz[0])
            if i != r:
                A[[r, i]] = A[[i, r]]
            pv = A[r, c]
            if pv != 1:
                A[r] = f.mul_table[f.inv_table[pv], A[r]]
            rows_nz = np.nonzero(A[:, c])[0]
            rows_nz = rows_nz[rows_nz != r]
            if rows_nz.size:
                factors = f.neg_table[A[rows_nz, c]]
                A[rows_nz] = f.add_table[
                    A[rows_nz], f.mul_table[factors[:, None], A[r][None, :]]
                ]
            pivots.append(c)
            r += 1
        return FFMatrix._trusted(f, A), tuple(pivots)

    def rank(self) -> int:
        _, pivots = self.rref()
        return len(pivots)

    def nullspace(self) -> "FFMatrix":
        """Basis of {v : self @ v = 0}, one basis vector per column.

        Deterministic: free columns in ascending order, each basis vector has
        a 1 in its own free coordinate."""
        f = self.field
        R, pivots = self.rref()
        ncols = self.cols
        pivset = set(pivots)
        free = [c for c in range(ncols) if c not in pivset]
        basis = np.zeros((ncols, len(free)), dtype=_CODE_DTYPE)
        basis[free, range(len(free))] = 1
        basis[list(pivots)] = f.neg_table[R.data[: len(pivots), free]]
        return FFMatrix._trusted(f, basis)

    def column_space_basis(self) -> "FFMatrix":
        """Columns of self restricted to a basis of the column space (the
        pivot columns, in ascending order)."""
        _, pivots = self.rref()
        return self.take_columns(pivots)

    def row_space_basis(self) -> "FFMatrix":
        R, pivots = self.rref()
        return R.take_rows(range(len(pivots)))

    def inverse(self) -> "FFMatrix":
        if self.rows != self.cols:
            raise FFError("only square matrices are invertible")
        n = self.rows
        aug = self.hstack(FFMatrix.identity(self.field, n))
        R, pivots = aug.rref()
        if pivots[:n] != tuple(range(n)):
            raise FFError("matrix is singular")
        return FFMatrix._trusted(self.field, R.data[:, n:])

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows

    def solve(self, rhs: "FFMatrix"):
        """One solution X of self @ X = rhs, or None if inconsistent."""
        f = self.field
        aug = self.hstack(rhs)
        R, pivots = aug.rref()
        n = self.cols
        if any(p >= n for p in pivots):
            return None
        X = np.zeros((n, rhs.cols), dtype=_CODE_DTYPE)
        X[list(pivots)] = R.data[: len(pivots), n:]
        return FFMatrix._trusted(f, X)

    # -- polynomial data ---------------------------------------------------

    def apply_poly(self, coeffs: Sequence[int]) -> "FFMatrix":
        """Evaluate a polynomial (little-endian field-code coeffs) at self."""
        n = self.rows
        f = self.field
        out = FFMatrix.zeros(f, n, n)
        for c in reversed(list(coeffs)):
            out = out @ self
            if c:
                out = out + FFMatrix.identity(f, n).scale(c)
        return out

    def minimal_polynomial(self) -> tuple[int, ...]:
        """Monic minimal polynomial, little-endian codes.

        Each power A^k, as the row [vec(A^k) | e_k], is reduced against the
        rows kept for I, A, ..., A^(k-1): reduced echelon in their vec part,
        each with the combination of powers it stands for.  The first power
        whose vec part reduces to zero gives the relation; its coefficient
        of A^k is still 1."""
        if self.rows != self.cols:
            raise FFError("minimal polynomial needs a square matrix")
        n = self.rows
        f = self.field
        if n == 0:
            return (1,)  # unit polynomial for the empty matrix
        nn = n * n
        kept = np.zeros((0, nn + n + 1), dtype=_CODE_DTYPE)
        pivots: list[int] = []
        power = FFMatrix.identity(f, n)
        for k in range(n + 1):
            if k:
                power = power @ self
            row = np.zeros(nn + n + 1, dtype=_CODE_DTYPE)
            row[:nn] = power.data.ravel()
            row[nn + k] = 1
            row = f.add_table[row, f.neg_table[_matmul(f, row[None, pivots], kept)[0]]]
            nz = np.flatnonzero(row[:nn])
            if not nz.size:
                return tuple(int(c) for c in row[nn : nn + k + 1])
            col = int(nz[0])
            row = f.mul_table[f.inv_table[row[col]], row]
            kept = f.add_table[kept, f.mul_table[f.neg_table[kept[:, col]][:, None], row[None, :]]]
            kept = np.vstack([kept, row])
            pivots.append(col)
        raise AssertionError("minimal polynomial of degree > n")

    def charpoly(self) -> tuple[int, ...]:
        """Characteristic polynomial det(xI - A), little-endian, via
        Hessenberg reduction (exact, any field)."""
        if self.rows != self.cols:
            raise FFError("characteristic polynomial needs a square matrix")
        n = self.rows
        f = self.field
        H = self.data.copy()
        addt, mult, negt, invt = f.add_table, f.mul_table, f.neg_table, f.inv_table
        for k in range(n - 2):
            nz = H[k + 1 :, k].nonzero()[0] + k + 1
            if nz.size == 0:
                continue
            i, j = int(nz[0]), k + 1
            if i != j:
                H[j], H[i] = H[i].copy(), H[j].copy()
                H[:, j], H[:, i] = H[:, i].copy(), H[:, j].copy()
            # Row i now holds the old row j, which is zero in column k.
            rows = nz[1:]
            if rows.size:
                factors = mult[invt[H[j, k]], H[rows, k]]
                # row_r -= factor_r * row_j
                H[rows] = addt[H[rows], mult[negt[factors][:, None], H[j][None, :]]]
                # col_j += sum_r factor_r * col_r  (inverse similarity op)
                H[:, j] = addt[H[:, j], _matmul(f, H[:, rows], factors[:, None])[:, 0]]
        # p_k = x p_{k-1} - sum_{i<=k} h_{k-1,k-2} ... h_{i,i-1} h_{i-1,k-1} p_{i-1}
        # on Python ints; a zero subdiagonal entry ends the sum.
        h = H.tolist()
        add, mul, neg = addt.item, mult.item, negt.item
        polys = [[1]]
        for k in range(1, n + 1):
            cur = [0] + polys[k - 1]
            run = 1
            for i in range(k, 0, -1):
                if i < k:
                    run = mul(run, h[i][i - 1])
                    if run == 0:
                        break
                c = neg(mul(run, h[i - 1][k - 1]))
                for d, a in enumerate(polys[i - 1] if c else ()):
                    if a:
                        cur[d] = add(cur[d], mul(c, a))
            polys.append(cur)
        return tuple(polys[n])


def _rref_lists(f: FieldSpec, data: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    """The Gauss-Jordan loop of FFMatrix.rref on a list per row, through
    f.list_tables; over GF(2^m) codes add by XOR."""
    add, mul, neg, inv = f.list_tables
    xor = f.p == 2
    A = data.tolist()
    nrows = len(A)
    pivots = []
    r = 0
    for c in range(data.shape[1]):
        if r == nrows:
            break
        i = next((i for i in range(r, nrows) if A[i][c]), None)
        if i is None:
            continue
        row = A[i]
        A[i] = A[r]
        if row[c] != 1:
            scale = mul[inv[row[c]]]
            row = [scale[x] for x in row]
        A[r] = row
        for j, other in enumerate(A):
            if other[c] and j != r:
                times = mul[neg[other[c]]]
                if xor:
                    A[j] = [x ^ times[y] for x, y in zip(other, row)]
                else:
                    A[j] = [add[x][times[y]] for x, y in zip(other, row)]
        pivots.append(c)
        r += 1
    return np.array(A, dtype=_CODE_DTYPE).reshape(data.shape), tuple(pivots)


def _matmul(f: FieldSpec, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A @ B for code arrays over f: one float64 BLAS product on coefficient
    planes (module docstring), exact while its intermediates, at most
    m^2 s (p-1)^3 for inner dimension s, stay below 2^53; else FFError.  The
    mod-p step runs on int64, where numpy's % is several times faster than fmod.
    Over GF(2^m), m > 1, up to _GATHER_MATMUL_MACS multiply-adds: table products.
    Temporaries past _MATMUL_BLOCK_BYTES: blocks of output rows or columns,
    and of the inner dimension when the planes of the other side pass it."""
    (r, s), c, p, m = A.shape, B.shape[1], f.p, f.m
    if m * m * s * (p - 1) ** 3 >= 2**53:
        raise FFError(f"inner dimension {s} is too long for an exact product over {f}")
    if m > 1 and p == 2 and r * s * c <= _GATHER_MATMUL_MACS:
        # codes of GF(2^m) add bitwise: XOR the products A[i, k] B[k, j] over k
        return np.bitwise_xor.reduce(f.mul_table[A[:, :, None], B[None, :, :]], axis=1)
    # Split the longer side of the output: a row of A (column of B) takes
    # 8 m t bytes of planes for t inner indices, and each output entry
    # 16 m^2 bytes for the plane product and its copy in fold order.  The
    # planes of the other side take 8 m t bytes per line of it: when they
    # would pass the budget for t = s, the inner indices go in blocks of t.
    lines, other = (r, c) if r >= c else (c, r)
    side_bytes = 8 * m * other  # the planes of one inner index of the other side
    t = s if side_bytes * s <= _MATMUL_BLOCK_BYTES else max(1, _MATMUL_BLOCK_BYTES // side_bytes)
    line_bytes = 8 * m * (t + 2 * m * other)
    if t >= s and lines * line_bytes <= _MATMUL_BLOCK_BYTES:
        return _plane_product(f, A, B, t)
    step = max(1, _MATMUL_BLOCK_BYTES // line_bytes)
    out = np.empty((r, c), dtype=_CODE_DTYPE)
    if r >= c:
        right = _right_planes(f, B) if t >= s else None
        for a in range(0, r, step):
            out[a : a + step] = _plane_product(f, A[a : a + step], B, t, right=right)
    else:
        left = _left_planes(f, A) if t >= s else None
        for a in range(0, c, step):
            out[:, a : a + step] = _plane_product(f, A, B[:, a : a + step], t, left=left)
    return out


def _left_planes(f: FieldSpec, A: np.ndarray) -> np.ndarray:
    """The (m r x s) float64 planes of A: row block i is A_i."""
    if f.m == 1:
        return A.astype(np.float64)
    return np.take(f.digit_planes, A, axis=1).reshape(f.m * A.shape[0], A.shape[1])


def _right_planes(f: FieldSpec, B: np.ndarray) -> np.ndarray:
    """The (s x m c) float64 planes of B: column k m + j is column k of B_j."""
    if f.m == 1:
        return B.astype(np.float64)
    return f.digit_planes.T[B].reshape(B.shape[0], B.shape[1] * f.m)


def _plane_product(
    f: FieldSpec, A: np.ndarray, B: np.ndarray, t: int, left=None, right=None
) -> np.ndarray:
    """The codes of A @ B from the planes of A and B: the float64 products of
    the planes of blocks of t inner indices, summed, then folded.  ``left``
    and ``right`` are the planes of A and B when they are already made."""
    p, m = f.p, f.m
    (r, s), c = A.shape, B.shape[1]
    if t >= s:
        left = _left_planes(f, A) if left is None else left
        prod = left @ (_right_planes(f, B) if right is None else right)
    else:
        prod = _left_planes(f, A[:, :t]) @ _right_planes(f, B[:t])
        for k in range(t, s, t):
            prod += _left_planes(f, A[:, k : k + t]) @ _right_planes(f, B[k : k + t])
    if m == 1:
        coords = prod.astype(np.int64)
        coords %= p
        return coords.astype(_CODE_DTYPE)
    # (i, row, col, j) -> (row, col, i m + j), the rows the fold reads
    prod = prod.reshape(m, r, c, m).transpose(1, 2, 0, 3).reshape(r * c, m * m)
    coords = (prod @ f.fold).astype(np.int64)
    coords %= p
    return (coords @ f.places).astype(_CODE_DTYPE).reshape(r, c)


def rank_and_nullspace(A: FFMatrix) -> tuple[int, FFMatrix]:
    """Rank and a nullspace basis (columns).  rank + nullity == cols."""
    ns = A.nullspace()
    return A.cols - ns.cols, ns


def solve_intertwiner_system(
    field: FieldSpec,
    constraints: Sequence[tuple[FFMatrix, FFMatrix]],
    dims: tuple[int, int],
) -> list[FFMatrix]:
    """Basis of {X (r x c) : X @ L_i == R_i @ X for all i}.

    Each constraint pair is (L_i, R_i) with L_i square of size c and R_i
    square of size r.  Solved by spinning, as for the standard bases of the
    MeatAxe: a basis W of F^c grows from standard-vector seeds, each level
    taking the L_i w of the last level that leave the span (one elimination
    per level); once the span is closed under the L_i, the first standard
    vector outside it is the next seed.  As X L_i w = R_i X w, X is fixed by
    its images of the s seeds, the only s*r unknowns; where L_i w was not
    taken into W, that relation is an equation.  One nullspace of the
    equations, mapped back through W^-1, is the space of solutions.

    The basis returned depends only on that space: its reduced echelon form
    with the coordinates of row-major vec(X) read from the last one
    backwards.  So each X has a 1 in its own free coordinate and 0 in the
    others, in ascending order of that coordinate: the nullspace basis of
    the Kronecker system (I kron L_i^T - R_i kron I) vec(X) = 0.  An empty
    constraint list yields the full r*c-dimensional space."""
    r, c = dims
    for L, R in constraints:
        if L.rows != c or L.cols != c or R.rows != r or R.cols != r:
            raise FFError(
                f"constraint dimensions {L.shape}, {R.shape} do not match X of shape {(r, c)}"
            )
        if L.field is not field or R.field is not field:
            raise FFError("field mismatch among constraints")
    if not r or not c:
        return []
    f, k = field, len(constraints)
    if k:
        Ls = np.vstack([L.data for L, _ in constraints])
        Rs = np.vstack([R.data for _, R in constraints])
    W = np.zeros((c, 0), dtype=_CODE_DTYPE)  # the spun basis, one vector per column
    Winv = np.eye(c, dtype=_CODE_DTYPE)  # W itself when there are no constraints
    # X W[:, j] = images[j] @ y, for y the image of the seed W[:, j] was spun from
    images = np.zeros((0, r, r), dtype=_CODE_DTYPE)
    # X L_i w = lhs[t] @ y = sum_j coords[t, j] X W[:, j] for each L_i w left out of W
    lhs, coords = images, np.zeros((0, c), dtype=_CODE_DTYPE)
    # where the vectors of each seed begin in W, and its equations in lhs
    starts, lhs_starts = [], []
    level = 0  # W[:, level:] is the newest level, spun from the last seed
    while True:
        n = W.shape[1]
        m = n - level
        if k and m:
            # the candidates L_i w and their images R_i X w, i-major, one product each
            cand = _matmul(f, Ls, W[:, level:]).reshape(k, c, m).transpose(1, 0, 2).reshape(c, k * m)
            spun = _matmul(f, Rs, images[level:].transpose(1, 0, 2).reshape(r, m * r))
            spun = spun.reshape(k, r, m, r).transpose(0, 2, 1, 3).reshape(k * m, r, r)
            # once W is a basis, nothing is taken, and the same elimination inverts W
            full = [np.eye(c, dtype=_CODE_DTYPE)] if n == c else []
            R, pivots = FFMatrix._trusted(f, np.hstack([W, cand, *full])).rref()
            Winv = R.data[:, n + k * m :] if full else Winv
            taken = np.array(pivots[n:], dtype=np.intp) - n
            rest = np.ones(k * m, dtype=bool)
            rest[taken] = False
            # a candidate left out is a combination of the pivot columns before
            # it, which are W's first len(pivots) columns from here on
            left_out = np.zeros((k * m - taken.size, c), dtype=_CODE_DTYPE)
            left_out[:, : len(pivots)] = R.data[: len(pivots), n : n + k * m][:, rest].T
            coords = np.vstack([coords, left_out])
            lhs = np.concatenate([lhs, spun[rest]])
            images = np.concatenate([images, spun[taken]])
            W = np.hstack([W, cand[:, taken]])
            level = n
        elif n < c:
            # the span is closed under the L_i: the first standard vector
            # outside it is a new seed, with r new unknowns
            new = 0
            if n:
                _, pivots = FFMatrix._trusted(f, np.hstack([W, np.eye(c, dtype=_CODE_DTYPE)])).rref()
                new = pivots[n] - n
            W = np.hstack([W, np.eye(c, 1, -new, dtype=_CODE_DTYPE)])
            images = np.concatenate([images, np.eye(r, dtype=_CODE_DTYPE)[None]])
            starts.append(n)
            lhs_starts.append(len(lhs))
        else:
            break
    # One product per seed gives the right-hand sides sum_j coords[t, j] X W[:, j]
    # of the equations, and X = (X W) W^-1: X[a, l] = sum_j (X W)[a, j] Winv[j, l].
    N, s = len(lhs), len(starts)
    rows = np.vstack([coords, Winv.T])
    G = np.zeros((N + c, r, s, r), dtype=_CODE_DTYPE)
    eqs = np.zeros((N, r, s, r), dtype=_CODE_DTYPE)
    bounds = zip(starts, starts[1:] + [c], lhs_starts, lhs_starts[1:] + [N])
    for t, (a, b, lhs_a, lhs_b) in enumerate(bounds):
        G[:, :, t] = _matmul(f, rows[:, a:b], images[a:b].reshape(-1, r * r)).reshape(N + c, r, r)
        eqs[lhs_a:lhs_b, :, t] = lhs[lhs_a:lhs_b]
    eqs = f.add_table[eqs, f.neg_table[G[:N]]].reshape(N * r, s * r)
    Y = FFMatrix._trusted(f, eqs).nullspace().data
    if not Y.shape[1]:
        return []
    vec_X = G[N:].transpose(1, 0, 2, 3).reshape(r * c, s * r)
    return reversed_echelon_basis(f, _matmul(f, vec_X, Y).T, (r, c))


def reversed_echelon_basis(
    field: FieldSpec, vecs: np.ndarray, shape: tuple[int, int]
) -> list[FFMatrix]:
    """The basis of the span of the rows of ``vecs``, each the row-major
    vec(X) of an X of the given shape, that ``solve_intertwiner_system``
    returns: the reduced echelon form with the coordinates read from the
    last one backwards, in ascending order of each X's free coordinate."""
    R, pivots = FFMatrix._trusted(field, vecs[:, ::-1]).rref()
    rows = R.data[: len(pivots)][::-1]
    return [FFMatrix._trusted(field, row[::-1].reshape(shape)) for row in rows]


def stack_columns(field: FieldSpec, mats: Sequence[FFMatrix]) -> FFMatrix:
    """Vectorize matrices (row-major) into the columns of one matrix."""
    if not mats:
        return FFMatrix.zeros(field, 0, 0)
    cols = [m.data.ravel() for m in mats]
    return FFMatrix._trusted(field, np.array(cols, dtype=_CODE_DTYPE).T)


def block_diag(field: FieldSpec, mats: Sequence[FFMatrix]) -> FFMatrix:
    rows = sum(m.rows for m in mats)
    cols = sum(m.cols for m in mats)
    out = np.zeros((rows, cols), dtype=_CODE_DTYPE)
    r = c = 0
    for m in mats:
        out[r : r + m.rows, c : c + m.cols] = m.data
        r += m.rows
        c += m.cols
    return FFMatrix._trusted(field, out)
