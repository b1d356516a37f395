import numpy as np
import pytest

from ff_oracles import kron, trial_division_irreducible
from tautilt import polys
from tautilt.ff import (
    FFError,
    FFMatrix,
    FieldSpec,
    block_diag,
    canonical_modulus,
    field_create,
    rank_and_nullspace,
    solve_intertwiner_system,
    stack_columns,
)


def gf(p, m=1):
    return field_create(p, m)


def random_matrix(field, rows, cols, rng):
    return FFMatrix(field, rng.integers(0, field.q, size=(rows, cols)))


class TestFieldCreate:
    def test_gf2(self):
        F = gf(2)
        assert (F.p, F.m, F.q) == (2, 1, 2)
        assert F.modulus == (1, 1)  # x + 1

    def test_gf4_modulus(self):
        F = gf(2, 2)
        assert F.q == 4
        assert F.modulus == (1, 1, 1)  # x^2 + x + 1, the unique irreducible

    def test_gf9_modulus_irreducible_by_root_check(self):
        F = gf(3, 2)
        assert F.q == 9
        c0, c1, c2 = F.modulus
        assert c2 == 1
        # exhaustive root check over GF(3)
        for x in range(3):
            assert (c0 + c1 * x + c2 * x * x) % 3 != 0

    def test_rejects_bad_input(self):
        with pytest.raises(FFError):
            field_create(4, 1)
        with pytest.raises(FFError):
            field_create(2, 0)

    def test_field_interning(self):
        assert gf(2, 2) is gf(2, 2)

    @pytest.mark.parametrize("modulus", [(3, 1, 1), (-1, 1, 1), (1.5, 1, 1)])
    def test_rejects_modulus_coefficients_outside_the_prime_field(self, modulus):
        """(3, 1, 1) and (-1, 1, 1) reduce to x^2 + x + 1 and used to build
        a second GF(4), apart from gf(2, 2), whose field record printed the
        coefficient as given."""
        with pytest.raises(FFError, match=rf"modulus coefficient {modulus[0]!r} is not in range\(2\)"):
            FieldSpec(2, 2, modulus)
        assert FieldSpec(2, 2, (1, 1, 1)) is gf(2, 2)

    def test_field_axioms_random(self):
        # 1000 random triples per field: associativity, distributivity, inverses
        for p, m in [(2, 1), (2, 2), (3, 1), (3, 2)]:
            F = gf(p, m)
            rng = np.random.default_rng(12345)
            abc = rng.integers(0, F.q, size=(1000, 3))
            for a, b, c in abc:
                a, b, c = int(a), int(b), int(c)
                assert F.mul(a, F.mul(b, c)) == F.mul(F.mul(a, b), c)
                assert F.add(a, F.add(b, c)) == F.add(F.add(a, b), c)
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
                if a != 0:
                    assert F.mul(a, F.inv(a)) == 1
                assert F.add(a, F.neg(a)) == 0

    def test_frobenius(self):
        F = gf(2, 2)
        for a in range(4):
            assert F.frobenius(a) == F.mul(a, a)
            assert F.frobenius_inv(F.frobenius(a)) == a


def monic_polys(p, deg):
    """The monic polynomials of degree deg over GF(p), little-endian, in
    the order of (c_{deg-1}, ..., c_0)."""
    for code in range(p**deg):
        yield tuple(code // p**i % p for i in range(deg)) + (1,)


@pytest.mark.parametrize("p, top", [(2, 6), (3, 6), (5, 6), (7, 4)])
def test_is_irreducible_matches_trial_division(p, top):
    """Every monic polynomial of degree 1 .. top over GF(p)."""
    F = gf(p)
    for deg in range(1, top + 1):
        for f in monic_polys(p, deg):
            assert polys.is_irreducible(F, f) == trial_division_irreducible(f, p), f


def test_canonical_modulus_is_the_least_irreducible():
    """For every table field GF(p^m), m >= 2: the first monic irreducible
    in the order of (c_{m-1}, ..., c_0), found by trial division."""
    primes = [n for n in range(2, 65) if all(n % d for d in range(2, n))]
    for p, m in ((p, m) for p in primes for m in range(2, 13) if p**m <= 4096):
        least = next(f for f in monic_polys(p, m) if trial_division_irreducible(f, p))
        assert canonical_modulus(p, m) == least, (p, m)


class TestElimination:
    def test_identity_rank(self):
        F = gf(2, 2)
        for n in [1, 3, 5]:
            I = FFMatrix.identity(F, n)
            rank, ns = rank_and_nullspace(I)
            assert rank == n
            assert ns.cols == 0

    def test_zero_matrix(self):
        F = gf(3)
        Z = FFMatrix.zeros(F, 2, 3)
        rank, ns = rank_and_nullspace(Z)
        assert rank == 0
        assert ns.cols == 3

    def test_gf2_hand_example(self):
        F = gf(2)
        A = FFMatrix(F, [[1, 1], [1, 1]])
        rank, ns = rank_and_nullspace(A)
        assert rank == 1
        assert ns.cols == 1
        assert ns.entries() == [1, 1]

    def test_rank_transpose_random_gf4(self):
        F = gf(2, 2)
        rng = np.random.default_rng(7)
        for _ in range(50):
            r, c = rng.integers(1, 9, size=2)
            A = random_matrix(F, int(r), int(c), rng)
            assert A.rank() == A.transpose().rank()

    def test_nullspace_vectors_are_exact(self):
        rng = np.random.default_rng(11)
        for p, m in [(2, 1), (2, 2), (3, 1)]:
            F = gf(p, m)
            for _ in range(25):
                r, c = rng.integers(1, 8, size=2)
                A = random_matrix(F, int(r), int(c), rng)
                ns = A.nullspace()
                assert (A @ ns).is_zero()
                assert A.rank() + ns.cols == A.cols

    def test_inverse(self):
        F = gf(3, 2)
        rng = np.random.default_rng(3)
        found = 0
        while found < 10:
            A = random_matrix(F, 4, 4, rng)
            if not A.is_invertible():
                continue
            found += 1
            assert (A @ A.inverse()) == FFMatrix.identity(F, 4)

    def test_solve(self):
        F = gf(2, 2)
        rng = np.random.default_rng(5)
        A = random_matrix(F, 5, 3, rng)
        X = random_matrix(F, 3, 2, rng)
        B = A @ X
        sol = A.solve(B)
        assert sol is not None
        assert (A @ sol) == B

    def test_solve_inconsistent(self):
        F = gf(2)
        A = FFMatrix(F, [[1, 0], [1, 0]])
        B = FFMatrix(F, [[1], [0]])
        assert A.solve(B) is None


class TestPolynomialData:
    def test_minimal_polynomial_companion(self):
        F = gf(2)
        # companion matrix of x^2 + x + 1
        C = FFMatrix(F, [[0, 1], [1, 1]])
        assert C.minimal_polynomial() == (1, 1, 1)

    def test_charpoly_matches_minpoly_on_companion(self):
        F = gf(3)
        C = FFMatrix(F, [[0, 0, 1], [1, 0, 0], [0, 1, 2]])
        assert C.charpoly() == C.minimal_polynomial()

    def test_charpoly_brute_force_2x2(self):
        # det(xI - A) = x^2 - tr(A) x + det(A)
        F = gf(3)
        rng = np.random.default_rng(17)
        for _ in range(30):
            A = random_matrix(F, 2, 2, rng)
            a, b, c, d = A.entries()
            tr = F.add(a, d)
            det = F.sub(F.mul(a, d), F.mul(b, c))
            assert A.charpoly() == tuple(
                x % F.q for x in (det, F.neg(tr), 1)
            ) or A.charpoly() == (det, F.neg(tr), 1)

    def test_apply_poly(self):
        F = gf(2, 2)
        A = FFMatrix(F, [[2, 0], [0, 3]])
        mp = A.minimal_polynomial()
        assert A.apply_poly(mp).is_zero()


class TestIntertwiner:
    def test_no_constraints(self):
        F = gf(2)
        basis = solve_intertwiner_system(F, [], (2, 3))
        assert len(basis) == 6

    def test_identity_constraints(self):
        F = gf(2, 2)
        I2, I3 = FFMatrix.identity(F, 2), FFMatrix.identity(F, 3)
        basis = solve_intertwiner_system(F, [(I2, I3)], (3, 2))
        assert len(basis) == 6

    def test_commutant_of_companion_brute_force(self):
        F = gf(2)
        C = FFMatrix(F, [[0, 1], [1, 1]])
        basis = solve_intertwiner_system(F, [(C, C)], (2, 2))
        # oracle: brute force over all 16 GF(2) matrices
        count = 0
        for bits in range(16):
            e = [(bits >> k) & 1 for k in range(4)]
            X = FFMatrix(F, [[e[0], e[1]], [e[2], e[3]]])
            if (X @ C) == (C @ X):
                count += 1
        assert count == 4  # 2-dimensional commutant over GF(2)
        assert len(basis) == 2
        for X in basis:
            assert (X @ C) == (C @ X)

    def test_solutions_satisfy_constraints(self):
        F = gf(3)
        rng = np.random.default_rng(31)
        L = random_matrix(F, 3, 3, rng)
        R = random_matrix(F, 2, 2, rng)
        for X in solve_intertwiner_system(F, [(L, R)], (2, 3)):
            assert (X @ L) == (R @ X)

    def test_dimension_mismatch(self):
        F = gf(2)
        I2 = FFMatrix.identity(F, 2)
        with pytest.raises(FFError):
            solve_intertwiner_system(F, [(I2, I2)], (3, 2))


class TestHelpers:
    def test_kron_shape_and_values(self):
        F = gf(3)
        A = FFMatrix(F, [[1, 2]])
        B = FFMatrix(F, [[2], [1]])
        K = kron(A, B)
        assert K.shape == (2, 2)
        assert K.entries() == [2, 4 % 3, 1, 2]

    def test_block_diag(self):
        F = gf(2)
        A = FFMatrix.identity(F, 2)
        B = FFMatrix(F, [[1]])
        D = block_diag(F, [A, B])
        assert D.shape == (3, 3)
        assert D == FFMatrix.identity(F, 3)

    def test_stack_columns_roundtrip(self):
        F = gf(2, 2)
        rng = np.random.default_rng(2)
        mats = [random_matrix(F, 2, 3, rng) for _ in range(4)]
        S = stack_columns(F, mats)
        assert S.shape == (6, 4)
        for j, m in enumerate(mats):
            assert list(S.data[:, j]) == m.entries()

    def test_immutability(self):
        F = gf(2)
        A = FFMatrix.identity(F, 2)
        with pytest.raises(ValueError):
            A.data[0, 0] = 0
