"""Differential tests of the two paths of the ff kernel.

``FFMatrix.rref`` runs on Python lists up to ``ff._LIST_RREF_CELLS`` cells
and on numpy arrays above; ``ff._matmul`` over GF(2^m), m > 1, XORs table
products up to ``ff._GATHER_MATMUL_MACS`` multiply-adds and takes the
coefficient planes above.  On shapes just below, at and just above each
cutoff, and on empty and all-zero matrices, every result is the same on
both paths, forced by patching the cutoff, and matches the oracles of
``ff_oracles``.  Also: the minimal polynomial against the per-degree solve
it replaced, and small operands over a field too large for list tables."""

import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ff_oracles import scalar_rref, solve_minimal_polynomial, table_matmul
from tautilt import ff
from tautilt.ff import FFError, FFMatrix, field_create

FIELDS = [field_create(p, m) for p, m in ((2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2), (5, 2))]
seeds = st.integers(0, 2**32 - 1)
kinds = st.sampled_from(["dense", "sparse", "low rank", "zero"])


@st.composite
def shapes_around(draw, cutoff, ndim):
    """ndim dimensions whose product is cutoff - 1, cutoff or cutoff + 1
    rounded to a multiple of the other dimensions, or has a zero factor."""
    dims = [draw(st.sampled_from([1, 2, 3, 8, 16])) for _ in range(ndim - 1)]
    dims.append(cutoff // math.prod(dims) + draw(st.sampled_from([-1, 0, 1])))
    dims = list(draw(st.permutations(dims)))
    zero = draw(st.sampled_from([None] * 3 + list(range(ndim))))
    if zero is not None:
        dims[zero] = 0
    return tuple(dims)


def draw_codes(field, shape, seed, kind):
    rng = np.random.default_rng(seed)
    if kind == "zero":
        return np.zeros(shape, dtype=np.int16)
    if kind == "low rank" and len(shape) == 2:
        rank = int(rng.integers(1, 3))
        left = rng.integers(0, field.q, size=(shape[0], rank)).astype(np.int16)
        right = rng.integers(0, field.q, size=(rank, shape[1])).astype(np.int16)
        return table_matmul(field, left, right)
    data = rng.integers(0, field.q, size=shape).astype(np.int16)
    if kind == "sparse":
        data[rng.random(shape) < 0.8] = 0
    return data


def on_each_path(name, compute):
    """compute() as the cutoffs stand, then with ff.<name> set so that
    every operand takes the large path, then the small path."""
    results = [compute()]
    for cutoff in (-1, 10**9):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ff, name, cutoff)
            results.append(compute())
    return results


@settings(max_examples=80, deadline=None)
@given(field=st.sampled_from(FIELDS), shape=shapes_around(ff._LIST_RREF_CELLS, 2), kind=kinds, seed=seeds)
def test_rref_paths_match_the_scalar_elimination(field, shape, kind, seed):
    A = FFMatrix(field, draw_codes(field, shape, seed, kind))
    results = on_each_path("_LIST_RREF_CELLS", A.rref)
    R, pivots = results[0]
    assert results[1] == results[2] == (R, pivots)
    R_scalar, piv_scalar = scalar_rref(field, A.data)
    assert pivots == piv_scalar
    assert R.shape == shape and np.array_equal(R.data, R_scalar)


@settings(max_examples=40, deadline=None)
@given(field=st.sampled_from(FIELDS), shape=shapes_around(ff._LIST_RREF_CELLS, 2), kind=kinds, seed=seeds)
def test_nullspace_and_solve_paths_agree(field, shape, kind, seed):
    A = FFMatrix(field, draw_codes(field, shape, seed, kind))
    rng = np.random.default_rng(seed)
    consistent = A @ FFMatrix(field, rng.integers(0, field.q, size=(A.cols, 1)))
    arbitrary = FFMatrix(field, rng.integers(0, field.q, size=(A.rows, 1)))
    results = on_each_path(
        "_LIST_RREF_CELLS", lambda: (A.nullspace(), A.solve(consistent), A.solve(arbitrary))
    )
    assert results[0] == results[1] == results[2]
    null, sol, _ = results[0]
    assert null.cols == A.cols - len(scalar_rref(field, A.data)[1])
    assert (A @ null).is_zero()
    assert A @ sol == consistent


# inverse() eliminates the n x 2n matrix [A | I]: n = 16 is at the cutoff.
@settings(max_examples=40, deadline=None)
@given(field=st.sampled_from(FIELDS), n=st.sampled_from([0, 1, 15, 16, 17]), kind=kinds, seed=seeds)
def test_inverse_paths_agree(field, n, kind, seed):
    A = FFMatrix(field, draw_codes(field, (n, n), seed, kind))

    def inverse():
        try:
            return A.inverse()
        except FFError:
            return None

    results = on_each_path("_LIST_RREF_CELLS", inverse)
    assert results[0] == results[1] == results[2]
    if results[0] is not None:
        assert A @ results[0] == FFMatrix.identity(field, n)
    else:
        assert len(scalar_rref(field, A.data)[1]) < n


@settings(max_examples=80, deadline=None)
@given(field=st.sampled_from(FIELDS), shape=shapes_around(ff._GATHER_MATMUL_MACS, 3), kind=kinds, seed=seeds)
def test_matmul_paths_match_the_table_product(field, shape, kind, seed):
    r, s, c = shape
    A = draw_codes(field, (r, s), seed, kind)
    B = draw_codes(field, (s, c), seed + 1, kind)
    results = on_each_path("_GATHER_MATMUL_MACS", lambda: ff._matmul(field, A, B))
    want = table_matmul(field, A, B)
    for got in results:
        assert got.dtype == want.dtype and got.shape == (r, c)
        assert np.array_equal(got, want)


MINPOLY_FIELDS = [field_create(p, m) for p, m in ((2, 1), (3, 1), (2, 2), (3, 2))]


@settings(max_examples=120, deadline=None)
@given(
    field=st.sampled_from(MINPOLY_FIELDS),
    n=st.integers(0, 9),
    kind=st.sampled_from(["dense", "scalar", "nilpotent", "block"]),
    seed=seeds,
)
@example(field=MINPOLY_FIELDS[0], n=0, kind="dense", seed=0)
def test_minimal_polynomial_matches_the_per_degree_solve(field, n, kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "scalar":
        data = np.eye(n, dtype=np.int16) * int(rng.integers(0, field.q))
    elif kind == "nilpotent":
        data = np.triu(rng.integers(0, field.q, size=(n, n)), 1).astype(np.int16)
    elif kind == "block":
        # a repeated block: the degree stays below n
        half = rng.integers(0, field.q, size=(n // 2, n // 2))
        data = np.zeros((n, n), dtype=np.int16)
        data[: n // 2, : n // 2] = data[n // 2 : 2 * (n // 2), n // 2 : 2 * (n // 2)] = half
    else:
        data = rng.integers(0, field.q, size=(n, n)).astype(np.int16)
    A = FFMatrix(field, data)
    mu = A.minimal_polynomial()
    assert mu == solve_minimal_polynomial(A)
    assert mu[-1] == 1 and len(mu) <= n + 1
    assert A.apply_poly(mu).is_zero()


@pytest.mark.skipif(not Path("/proc/self/statm").exists(), reason="reads the address space size from /proc")
def test_small_operands_over_the_largest_field_build_no_list_tables():
    """Over GF(4096) the q x q tables as Python lists would take about
    1 GB: a small elimination and a small product stay within 64 MB more
    address space than the field itself took."""
    child = textwrap.dedent(
        """
        import resource
        import numpy as np
        from tautilt.ff import FFMatrix, field_create

        F = field_create(2, 12)
        with open("/proc/self/statm") as fh:
            size = int(fh.read().split()[0]) * resource.getpagesize()
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        resource.setrlimit(resource.RLIMIT_AS, (size + (64 << 20), hard))
        rng = np.random.default_rng(5)
        A = FFMatrix(F, rng.integers(0, F.q, size=(5, 6)))
        B = FFMatrix(F, rng.integers(0, F.q, size=(6, 4)))
        R, pivots = A.rref()
        assert pivots == (0, 1, 2, 3, 4), pivots
        assert (A @ A.nullspace()).is_zero()
        assert (A @ B).shape == (5, 4)
        assert "list_tables" not in vars(F)
        print("ok")
        """
    )
    src = str(Path(ff.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"
