"""Table kernels that ``tautilt.ff`` used before its coefficient-plane
product: one field-table gather per multiply and per add.  They are slow
and obviously exact, and serve as the oracles of ``test_ff_kernels.py``."""

import numpy as np

from tautilt.ff import _CODE_DTYPE, FieldSpec


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
