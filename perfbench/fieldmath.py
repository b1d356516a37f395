"""The benchmark's own GF(p^m) arithmetic, kept apart from the program's.

Field elements are codes: the little-endian base-p digits of a code are
the coefficients of a polynomial of degree < m, reduced by the modulus.
This is the same encoding the program writes to its JSON outputs, so its
matrices can be read directly, but no table or routine is shared with it.
"""

from __future__ import annotations

import numpy as np


class Field:
    def __init__(self, p: int, modulus):
        self.p = p
        self.m = len(modulus) - 1
        self.q = p**self.m
        self.modulus = tuple(modulus)
        digits = [self._digits(a) for a in range(self.q)]
        add = np.zeros((self.q, self.q), dtype=np.int16)
        mul = np.zeros((self.q, self.q), dtype=np.int16)
        for a in range(self.q):
            for b in range(self.q):
                add[a, b] = self._code([(x + y) % p for x, y in zip(digits[a], digits[b])])
                mul[a, b] = self._code(self._polymulmod(digits[a], digits[b]))
        self.add = add
        self.mul = mul
        self.neg = np.array(
            [self._code([(-x) % p for x in digits[a]]) for a in range(self.q)],
            dtype=np.int16,
        )
        inv = np.zeros(self.q, dtype=np.int16)
        for a in range(1, self.q):
            hits = np.nonzero(mul[a] == 1)[0]
            if hits.size != 1:
                raise ValueError(f"modulus {modulus} is not irreducible over GF({p})")
            inv[a] = hits[0]
        self.inv = inv

    def _digits(self, code: int) -> list[int]:
        out = []
        for _ in range(self.m):
            out.append(code % self.p)
            code //= self.p
        return out

    def _code(self, coeffs) -> int:
        code = 0
        for c in reversed(coeffs):
            code = code * self.p + c
        return code

    def _polymulmod(self, a, b) -> list[int]:
        p, m, mod = self.p, self.m, self.modulus
        prod = [0] * (2 * m)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] = (prod[i + j] + x * y) % p
        for k in range(2 * m - 1, m - 1, -1):
            c = prod[k]
            if c:
                for i in range(m + 1):
                    prod[k - m + i] = (prod[k - m + i] - c * mod[i]) % p
        return prod[:m]

    # -- matrices: int16 arrays of codes ---------------------------------------

    def matmul(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        out = np.zeros((A.shape[0], B.shape[1]), dtype=np.int16)
        for k in range(A.shape[1]):
            out = self.add[out, self.mul[A[:, k][:, None], B[k][None, :]]]
        return out

    def rank(self, A: np.ndarray) -> int:
        A = A.copy()
        rows, cols = A.shape
        r = 0
        for c in range(cols):
            if r == rows:
                break
            nz = np.nonzero(A[r:, c])[0]
            if nz.size == 0:
                continue
            i = r + int(nz[0])
            A[[r, i]] = A[[i, r]]
            A[r] = self.mul[self.inv[A[r, c]], A[r]]
            others = np.nonzero(A[:, c])[0]
            others = others[others != r]
            if others.size:
                f = self.neg[A[others, c]]
                A[others] = self.add[A[others], self.mul[f[:, None], A[r][None, :]]]
            r += 1
        return r

    def random_invertible(self, n: int, rng) -> np.ndarray:
        while True:
            T = rng.integers(0, self.q, size=(n, n)).astype(np.int16)
            if self.rank(T) == n:
                return T

    def inverse(self, A: np.ndarray) -> np.ndarray:
        n = A.shape[0]
        aug = np.hstack([A, np.eye(n, dtype=np.int16)])
        rows = aug.copy()
        for c in range(n):
            nz = np.nonzero(rows[c:, c])[0]
            if nz.size == 0:
                raise ValueError("singular matrix")
            i = c + int(nz[0])
            rows[[c, i]] = rows[[i, c]]
            rows[c] = self.mul[self.inv[rows[c, c]], rows[c]]
            others = np.nonzero(rows[:, c])[0]
            others = others[others != c]
            if others.size:
                f = self.neg[rows[others, c]]
                rows[others] = self.add[rows[others], self.mul[f[:, None], rows[c][None, :]]]
        return rows[:, n:]
