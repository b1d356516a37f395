"""Products in blocks under ``ff._MATMUL_BLOCK_BYTES``.

``ff._matmul`` splits the longer side of the output into blocks of rows of
A or columns of B when the temporaries of one product would pass the
budget, and the inner dimension into blocks when the planes of the other
side would pass it alone.  Forced by patching the budget, blocked products
match the table product of ``ff_oracles`` and the unblocked product on
every field and shape, and the blocks tile the split side: equal blocks,
the last one ragged.  ``tracemalloc`` bounds the memory of single products
shaped like those of ``mackey``, of a wide plane product, of the algebra
vectors of kS5 and of the trace form of kS5 over GF(25).  A Linux child
runs ``stt A5 --p 3`` within 80 MB."""

import json
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ff_oracles import table_matmul
from tautilt import ff
from tautilt.ff import field_create

GF2, GF3, GF4, GF5, GF9, GF16, GF25 = (
    field_create(p, m) for p, m in ((2, 1), (3, 1), (2, 2), (5, 1), (3, 2), (2, 4), (5, 2))
)
FIELDS = [GF2, GF3, GF4, GF5, GF9, GF16, GF25]
dims = st.integers(0, 24)


def codes(field, shape, seed):
    return np.random.default_rng(seed).integers(0, field.q, size=shape).astype(np.int16)


def blocked(field, A, B, budget):
    """A @ B with the budget patched, and the (rows, columns, inner block
    length) of the output block of each plane product it made."""
    blocks = []
    plane_product = ff._plane_product

    def record(f, A, B, t, left=None, right=None):
        blocks.append((A.shape[0], B.shape[1], t))
        return plane_product(f, A, B, t, left=left, right=right)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ff, "_MATMUL_BLOCK_BYTES", budget)
        patch.setattr(ff, "_plane_product", record)
        return ff._matmul(field, A, B), blocks


@settings(max_examples=150, deadline=None)
@given(
    field=st.sampled_from(FIELDS),
    r=dims,
    s=dims,
    c=dims,
    budget=st.one_of(st.just(1), st.integers(1, 1 << 14)),
    seed=st.integers(0, 2**32 - 1),
)
@example(field=GF3, r=23, s=5, c=3, budget=300, seed=0)  # row blocks
@example(field=GF25, r=3, s=5, c=23, budget=3000, seed=1)  # column blocks
@example(field=GF9, r=11, s=4, c=5, budget=1, seed=2)  # blocks of one row
@example(field=GF3, r=7, s=5, c=3, budget=200, seed=3)  # 2 + 2 + 2 + 1 rows
@example(field=GF4, r=0, s=6, c=9, budget=1, seed=4)  # 0 rows
@example(field=GF5, r=9, s=6, c=0, budget=1, seed=5)  # 0 columns
@example(field=GF16, r=16, s=16, c=16, budget=1, seed=6)  # gather path, 4096 multiply-adds
@example(field=GF25, r=3, s=24, c=5, budget=200, seed=7)  # inner blocks of 4, 4 + ... + 4
@example(field=GF5, r=9, s=23, c=4, budget=100, seed=8)  # inner blocks of 3, the last of 2
@example(field=GF9, r=2, s=0, c=2, budget=1, seed=9)  # no inner index
def test_blocked_products_match_the_table_product(field, r, s, c, budget, seed):
    A, B = codes(field, (r, s), seed), codes(field, (s, c), seed + 1)
    got, blocks = blocked(field, A, B, budget)
    want = table_matmul(field, A, B)
    assert got.dtype == want.dtype and got.shape == (r, c)
    assert np.array_equal(got, want)
    assert np.array_equal(ff._matmul(field, A, B), want)
    if field.m > 1 and field.p == 2 and r * s * c <= ff._GATHER_MATMUL_MACS:
        assert blocks == []  # the gather path is never split
        return
    # the longer side of the output is split into equal blocks and a ragged last one
    lines = [(rows, cols) if r >= c else (cols, rows) for rows, cols, _ in blocks]
    sizes, whole = zip(*lines)
    assert set(whole) == {min(r, c)} and sum(sizes) == max(r, c)
    assert all(size == sizes[0] for size in sizes[:-1]) and sizes[-1] <= sizes[0]
    if budget == 1 and len(sizes) > 1:
        assert set(sizes) == {1}
    # the inner dimension is split only when the planes of the side that is
    # not split pass the budget, and then into blocks whose planes do not
    (t,) = {t for _, _, t in blocks}
    plane_bytes = 8 * field.m * min(r, c)
    if plane_bytes * s <= budget:
        assert t >= s
    else:
        # as many inner indices as the budget holds, at least one
        assert t == max(1, budget // plane_bytes) and t <= max(1, s - 1)


@pytest.mark.parametrize(
    "field, a_shape, b_shape",
    [
        (GF4, (1024, 192), (192, 88)),  # the End solve of mackey's 32-dimensional module
        (GF4, (70, 10), (10, 1024)),  # a wide plane product
        (GF5, (24, 120), (120, 14400)),  # apply_algebra_vectors on the regular kS5 module
    ],
    ids=["mackey", "wide planes", "kS5 algebra vectors"],
)
def test_one_product_stays_within_twice_the_budget(field, a_shape, b_shape):
    """Beyond its output and the planes of the side that is not split, one
    product holds at most twice the budget (the mackey product held 8.8 MB
    in one piece)."""
    (r, s), c = a_shape, b_shape[1]
    A, B = codes(field, a_shape, 7), codes(field, b_shape, 8)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        got = ff._matmul(field, A, B)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    copies = 8 * field.m * s * min(r, c)
    assert peak <= 2 * ff._MATMUL_BLOCK_BYTES + got.nbytes + copies
    assert np.array_equal(got, table_matmul(field, A, B))


def test_long_inner_dimension_holds_inner_blocks_only():
    """The (120 x 14400) @ (14400 x 120) trace form of kS5 over GF(25) held
    the 27.7 MiB planes of its unsplit side at once; in inner blocks the
    product holds at most twice the budget beyond its output."""
    A, B = codes(GF25, (120, 14400), 9), codes(GF25, (14400, 120), 10)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        got = ff._matmul(GF25, A, B)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 2 * ff._MATMUL_BLOCK_BYTES + got.nbytes
    assert np.array_equal(got, table_matmul(GF25, A, B))


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in kB on Linux only")
def test_stt_a5_p3_peaks_under_80_mb(tmp_path):
    """``stt A5 --p 3`` (GF(81), about 5 s) peaked at 164 MB when its products
    were made in one piece; in blocks it stays under 80 MB."""
    group = tmp_path / "A5.json"
    group.write_text(json.dumps({"degree": 5, "generators": [[[1, 2, 3, 4, 5]], [[1, 2, 3]]]}))
    env = dict(
        os.environ,
        PYTHONPATH=str(Path(ff.__file__).resolve().parents[1]),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
    )
    # the rusage of this one child, not of every child of the test process
    runner = textwrap.dedent(
        """
        import os, subprocess, sys
        child = subprocess.Popen(sys.argv[1:])
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
        print(child.returncode, usage.ru_maxrss, file=sys.stderr)
        """
    )
    argv = [sys.executable, "-m", "tautilt.cli", "stt", str(group), "--p", "3", "--no-cache"]
    done = subprocess.run(
        [sys.executable, "-c", runner, *argv], env=env, capture_output=True, text=True, timeout=300
    )
    code, maxrss_kb = map(int, done.stderr.split()[-2:])
    assert code == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "24 nodes, 48 edges"
    assert maxrss_kb < 80 * 1024
