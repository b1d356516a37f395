import numpy as np

from ff_oracles import trial_division_irreducible
from tautilt import polys
from tautilt.ff import field_create


def gf(p, m=1):
    return field_create(p, m)


def random_poly(F, deg, rng, monic=True):
    c = [int(x) for x in rng.integers(0, F.q, size=deg + 1)]
    if monic:
        c[-1] = 1
    return polys.normalize(c)


def test_divmod_roundtrip():
    rng = np.random.default_rng(1)
    for p, m in [(2, 1), (2, 2), (3, 1), (3, 2)]:
        F = gf(p, m)
        for _ in range(40):
            f = random_poly(F, int(rng.integers(1, 8)), rng, monic=False)
            g = random_poly(F, int(rng.integers(1, 5)), rng)
            if not f or not g:
                continue
            q, r = polys.divmod_poly(F, f, g)
            assert polys.add(F, polys.mul(F, q, g), r) == f
            assert polys.degree(r) < polys.degree(g)


def test_xgcd():
    rng = np.random.default_rng(2)
    F = gf(2, 2)
    for _ in range(40):
        f = random_poly(F, int(rng.integers(1, 6)), rng)
        g = random_poly(F, int(rng.integers(1, 6)), rng)
        d, u, v = polys.xgcd(F, f, g)
        assert polys.add(F, polys.mul(F, u, f), polys.mul(F, v, g)) == d
        assert polys.mod(F, f, d) == polys.ZERO
        assert polys.mod(F, g, d) == polys.ZERO


def test_factor_reassembles():
    rng = np.random.default_rng(3)
    for p, m in [(2, 1), (3, 1), (2, 2)]:
        F = gf(p, m)
        for _ in range(30):
            f = random_poly(F, int(rng.integers(1, 9)), rng)
            fs = polys.factor(F, f)
            prod = polys.ONE
            for g, mult in fs:
                for _ in range(mult):
                    prod = polys.mul(F, prod, g)
            assert prod == f
            for g, _ in fs:
                assert polys.is_irreducible(F, g)
                assert m > 1 or trial_division_irreducible(g, p)


def test_factor_known():
    F = gf(2)
    # x^2 + 1 = (x+1)^2 over GF(2)
    assert polys.factor(F, (1, 0, 1)) == [((1, 1), 2)]
    # x^2 + x + 1 irreducible
    assert polys.factor(F, (1, 1, 1)) == [((1, 1, 1), 1)]
    # x^2 + x = x(x+1)
    assert polys.factor(F, (0, 1, 1)) == [((0, 1), 1), ((1, 1), 1)]


def test_factor_frobenius_twisted():
    # polynomial in x^p with non-prime-field coefficients
    F = gf(2, 2)
    # (x + w)^2 = x^2 + w^2 where w = code 2, w^2 = code 3
    f = polys.mul(F, (2, 1), (2, 1))
    assert polys.factor(F, f) == [((2, 1), 2)]


def test_crt_idempotent():
    F = gf(3)
    part = (0, 1)  # x
    f = polys.mul(F, part, (1, 1))  # x(x+1)
    e = polys.crt_idempotent_coeffs(F, f, part)
    # e = 0 mod x, e = 1 mod (x+1)
    assert polys.mod(F, e, part) == polys.ZERO
    assert polys.mod(F, polys.sub(F, e, polys.ONE), (1, 1)) == polys.ZERO
    assert polys.mod(F, polys.sub(F, polys.mul(F, e, e), e), f) == polys.ZERO


def test_squarefree_decomposition_char_p():
    F = gf(3)
    # f = x^3 - x = x(x-1)(x+1): squarefree
    f = (0, 2, 0, 1)
    dec = polys.squarefree_decomposition(F, f)
    assert len(dec) == 1 and dec[0][1] == 1
    # g = (x+1)^3 has derivative zero
    g = polys.mul(F, polys.mul(F, (1, 1), (1, 1)), (1, 1))
    dec = polys.squarefree_decomposition(F, g)
    assert dec == [((1, 1), 3)]
