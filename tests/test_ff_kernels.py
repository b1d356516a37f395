"""Differential tests: the coefficient-plane matrix product and the
charpoly built on it, against the table kernels of ``ff_oracles``; the
field tables, against the builder that multiplied every pair of
polynomials."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ff_oracles import _poly_mul_mod, kron, polynomial_field_tables, table_charpoly, table_matmul
from tautilt import ff
from tautilt.ff import FFError, FFMatrix, FieldSpec, _is_prime, canonical_modulus, field_create

FIELDS = [field_create(p, m) for p, m in ((2, 1), (3, 1), (5, 1), (2, 2), (2, 3), (3, 2), (2, 4), (251, 1))]
sides = st.integers(0, 60)
seeds = st.integers(0, 2**32 - 1)


def draw_codes(field, shape, seed, kind="dense"):
    """Random codes with a random share of zeros; "permutation" draws a
    monomial matrix, whose Hessenberg reduction swaps rows and columns and
    whose recurrence meets zero subdiagonal entries."""
    rng = np.random.default_rng(seed)
    if kind == "permutation":
        n = shape[0]
        data = np.zeros((n, n), dtype=np.int16)
        data[np.arange(n), rng.permutation(n)] = rng.integers(1, field.q, size=n)
        return data
    data = rng.integers(0, field.q, size=shape).astype(np.int16)
    data[rng.random(shape) < rng.random()] = 0
    return data


@settings(max_examples=80, deadline=None)
@given(field=st.sampled_from(FIELDS), r=sides, s=sides, c=sides, seed=seeds)
def test_matmul_matches_table(field, r, s, c, seed):
    A = draw_codes(field, (r, s), seed)
    B = draw_codes(field, (s, c), seed + 1)
    got = (FFMatrix(field, A) @ FFMatrix(field, B)).data
    want = table_matmul(field, A, B)
    assert got.dtype == want.dtype
    assert got.shape == (r, c)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("s", [1, 60, 3000])
def test_dense_prime_field_products_near_the_largest_sums(s):
    # every product (p-1)^2 and every sum s (p-1)^2, the largest over GF(p)
    field = field_create(251, 1)
    A = np.full((3, s), 250, dtype=np.int16)
    B = np.full((s, 4), 250, dtype=np.int16)
    got = ff._matmul(field, A, B)
    assert np.array_equal(got, table_matmul(field, A, B))
    assert np.all(got == s * 250 * 250 % 251)


@pytest.mark.parametrize("field", [field_create(2, 2), field_create(3, 2)], ids=repr)
def test_dense_extension_field_products_near_the_largest_sums(field):
    top = field.q - 1  # every digit p - 1
    for rows in (5, 40):  # over GF(4): table products, then coefficient planes
        A = np.full((rows, 60), top, dtype=np.int16)
        B = np.full((60, 5), top, dtype=np.int16)
        assert np.array_equal(ff._matmul(field, A, B), table_matmul(field, A, B))


def test_inner_dimension_beyond_the_exactness_bound_raises():
    # m^2 s (p-1)^3 >= 2^53 over GF(251) from s = 2^53 / 250^3 on; the
    # matrices are empty, so nothing is allocated.
    field = field_create(251, 1)
    s = 2**53 // 250**3 + 1
    with pytest.raises(FFError, match="too long"):
        ff._matmul(field, np.zeros((0, s), np.int16), np.zeros((s, 0), np.int16))
    assert ff._matmul(field, np.zeros((0, s - 1), np.int16), np.zeros((s - 1, 0), np.int16)).shape == (0, 0)


@settings(max_examples=80, deadline=None)
@given(
    field=st.sampled_from(FIELDS),
    n=sides,
    kind=st.sampled_from(["dense", "permutation"]),
    seed=seeds,
)
def test_charpoly_matches_table(field, n, kind, seed):
    data = draw_codes(field, (n, n), seed, kind)
    assert FFMatrix(field, data).charpoly() == table_charpoly(field, data)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_charpoly_of_a_nilpotent_jordan_block_sum(field):
    # zero subdiagonal entries between the blocks end the recurrence's sums
    n = 12
    data = np.zeros((n, n), dtype=np.int16)
    for i in range(n - 1):
        if i % 4 != 3:
            data[i, i + 1] = 1
    cp = FFMatrix(field, data).charpoly()
    assert cp == table_charpoly(field, data)
    assert cp == (0,) * n + (1,)


def test_public_constructor_checks_ranges_and_results_are_frozen():
    field = field_create(2, 2)
    with pytest.raises(FFError, match="out of range"):
        FFMatrix(field, [[4]])
    with pytest.raises(FFError, match="out of range"):
        FFMatrix(field, [[-1]])
    with pytest.raises(FFError, match="out of range"):
        FFMatrix(field, [[65537]])  # beyond int16: no OverflowError
    for bad in ([[1.5, 2.9]], [[1.0]], [["1"]], [[2**70]]):
        with pytest.raises(FFError, match="must be integers"):
            FFMatrix(field, bad)
    A = FFMatrix(field, [[1, 2], [3, 0]])
    for result in (A @ A, A + A, A - A, -A, A.scale(2), kron(A, A), A.hstack(A),
                   A.vstack(A), A.take_rows([1]), A.take_columns([0]), A.rref()[0],
                   A.nullspace(), A.inverse(), A.transpose()):
        assert result.data.dtype == np.int16
        assert not result.data.flags.writeable


TABLES = ("add", "mul", "neg", "inv", "frob")
SMALL_FIELDS = [(p, m) for p in range(2, 730) if _is_prime(p) for m in range(1, 10) if p**m <= 729]


@pytest.mark.parametrize("p, m", SMALL_FIELDS, ids=lambda v: str(v))
def test_field_tables_match_the_definition(p, m):
    """Every field up to q = 729: a prime field against the integers mod p,
    an extension field against one polynomial product per pair."""
    F = field_create(p, m)
    if m == 1:
        a = np.arange(p)
        want = {
            "add": np.add.outer(a, a) % p,
            "mul": np.multiply.outer(a, a) % p,
            "neg": -a % p,
            "inv": np.array([0] + [pow(int(x), p - 2, p) for x in a[1:]]),
            "frob": a,
        }
    else:
        want = polynomial_field_tables(p, m, F.modulus)
    for name in TABLES:
        assert np.array_equal(getattr(F, f"{name}_table"), want[name]), name


def test_reducible_modulus_is_rejected():
    # x^2 + 1 over GF(2), x^2 - 1 over GF(3), (x^2 + x + 1)^2 without roots
    for p, modulus in ((2, (1, 0, 1)), (3, (2, 0, 1)), (2, (1, 0, 1, 0, 1))):
        with pytest.raises(FFError, match="modulus is not irreducible: element without inverse"):
            FieldSpec(p, len(modulus) - 1, modulus)
        with pytest.raises(ValueError, match="modulus is not irreducible"):
            polynomial_field_tables(p, len(modulus) - 1, modulus)


def test_largest_table_field_builds():
    """GF(4096), the table cap: spot products against the polynomial
    product, and every inverse and p-th power checked through the tables."""
    modulus = canonical_modulus(2, 12)
    F = FieldSpec(2, 12, modulus)
    try:
        codes = np.arange(4096)
        digits = [tuple(int(c) >> i & 1 for i in range(12)) for c in range(4096)]
        rng = np.random.default_rng(7)
        for a, b in rng.integers(0, 4096, size=(300, 2)):
            prod = _poly_mul_mod(digits[a], digits[b], modulus, 2)
            assert F.mul(int(a), int(b)) == sum(c << i for i, c in enumerate(prod))
            assert F.add(int(a), int(b)) == int(a) ^ int(b)
        assert np.all(F.mul_table[codes[1:], F.inv_table[1:]] == 1)
        assert np.array_equal(F.frob_table, F.mul_table[codes, codes])
    finally:
        del FieldSpec._cache[(2, 12, modulus)]
