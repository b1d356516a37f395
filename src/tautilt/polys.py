"""Univariate polynomial arithmetic over GF(p^m).

Polynomials are tuples of field codes, little-endian, with no trailing
zeros; the zero polynomial is the empty tuple.  Only desk-scale degrees
occur here (minimal polynomials of endomorphisms), so everything is plain
quadratic-time arithmetic plus deterministic small-field Berlekamp
factorization.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .ff import FFMatrix, FieldSpec

Poly = tuple[int, ...]

ZERO: Poly = ()
ONE: Poly = (1,)


def normalize(coeffs: Sequence[int]) -> Poly:
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def degree(f: Poly) -> int:
    return len(f) - 1  # degree of the zero polynomial is -1


def add(F: FieldSpec, f: Poly, g: Poly) -> Poly:
    n = max(len(f), len(g))
    out = []
    for i in range(n):
        a = f[i] if i < len(f) else 0
        b = g[i] if i < len(g) else 0
        out.append(F.add(a, b))
    return normalize(out)


def neg(F: FieldSpec, f: Poly) -> Poly:
    return tuple(F.neg(c) for c in f)


def sub(F: FieldSpec, f: Poly, g: Poly) -> Poly:
    return add(F, f, neg(F, g))


def scale(F: FieldSpec, c: int, f: Poly) -> Poly:
    if c == 0:
        return ZERO
    return normalize([F.mul(c, a) for a in f])


def mul(F: FieldSpec, f: Poly, g: Poly) -> Poly:
    if not f or not g:
        return ZERO
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                if b:
                    out[i + j] = F.add(out[i + j], F.mul(a, b))
    return normalize(out)


def divmod_poly(F: FieldSpec, f: Poly, g: Poly) -> tuple[Poly, Poly]:
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(f)
    q = [0] * max(0, len(f) - len(g) + 1)
    inv_lead = F.inv(g[-1])
    while len(r) >= len(g) and any(r):
        if r[-1] == 0:
            r.pop()
            continue
        c = F.mul(r[-1], inv_lead)
        shift = len(r) - len(g)
        q[shift] = c
        for i, gc in enumerate(g):
            r[shift + i] = F.sub(r[shift + i], F.mul(c, gc))
        while r and r[-1] == 0:
            r.pop()
    return normalize(q), normalize(r)


def mod(F: FieldSpec, f: Poly, g: Poly) -> Poly:
    return divmod_poly(F, f, g)[1]


def monic(F: FieldSpec, f: Poly) -> Poly:
    if not f:
        return f
    return scale(F, F.inv(f[-1]), f)


def gcd(F: FieldSpec, f: Poly, g: Poly) -> Poly:
    while g:
        f, g = g, mod(F, f, g)
    return monic(F, f)


def xgcd(F: FieldSpec, f: Poly, g: Poly) -> tuple[Poly, Poly, Poly]:
    """(d, u, v) with u*f + v*g = d = monic gcd."""
    r0, r1 = f, g
    u0, u1 = ONE, ZERO
    v0, v1 = ZERO, ONE
    while r1:
        q, r = divmod_poly(F, r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, sub(F, u0, mul(F, q, u1))
        v0, v1 = v1, sub(F, v0, mul(F, q, v1))
    if r0:
        lead = F.inv(r0[-1])
        r0, u0, v0 = scale(F, lead, r0), scale(F, lead, u0), scale(F, lead, v0)
    return r0, u0, v0


def pow_mod(F: FieldSpec, base: Poly, e: int, modpoly: Poly) -> Poly:
    acc = mod(F, ONE, modpoly)
    b = mod(F, base, modpoly)
    while e:
        if e & 1:
            acc = mod(F, mul(F, acc, b), modpoly)
        b = mod(F, mul(F, b, b), modpoly)
        e >>= 1
    return acc


def derivative(F: FieldSpec, f: Poly) -> Poly:
    out = []
    for i in range(1, len(f)):
        out.append(F.mul(F.element_from_int(i), f[i]))
    return normalize(out)


def _pth_root(F: FieldSpec, f: Poly) -> Poly:
    """g with g(x)^p = f(x), for f a polynomial in x^p."""
    p = F.p
    out = []
    for i in range(0, len(f), p):
        out.append(F.frobenius_inv(f[i]))
    return normalize(out)


def squarefree_decomposition(F: FieldSpec, f: Poly) -> list[tuple[Poly, int]]:
    """Yun-style decomposition valid in characteristic p: list of
    (squarefree monic factor, multiplicity), multiplicities distinct."""
    f = monic(F, f)
    out: dict[int, Poly] = {}

    def accumulate(g: Poly, mult: int):
        if degree(g) < 1:
            return
        if mult in out:
            out[mult] = mul(F, out[mult], g)
        else:
            out[mult] = g

    def recurse(f: Poly, outer: int):
        if degree(f) < 1:
            return
        df = derivative(F, f)
        if not df:
            # f is a polynomial in x^p
            recurse(_pth_root(F, f), outer * F.p)
            return
        c = gcd(F, f, df)
        w = divmod_poly(F, f, c)[0]
        i = 1
        while degree(w) >= 1:
            y = gcd(F, w, c)
            accumulate(divmod_poly(F, w, y)[0], i * outer)
            w = y
            c = divmod_poly(F, c, y)[0]
            i += 1
        if degree(c) >= 1:
            recurse(_pth_root(F, c), outer * F.p)

    recurse(f, 1)
    return [(g, m) for m, g in sorted(out.items())]


def _frobenius_kernel(F: FieldSpec, f: Poly) -> FFMatrix:
    """Kernel, as columns, of a -> a^q - a on F[x]/(f): column i of the
    matrix of a -> a^q is x^(iq) mod f, the i-th power of x^q mod f."""
    n = degree(f)
    xq = pow_mod(F, (0, 1), F.q, f)
    cols = []
    power = ONE
    for _ in range(n):
        cols.append(list(power) + [0] * (n - len(power)))
        power = mod(F, mul(F, power, xq), f)
    Q = FFMatrix._trusted(F, np.array(cols, dtype=np.int16).T)
    return (Q - FFMatrix.identity(F, n)).nullspace()


def _berlekamp_split(F: FieldSpec, f: Poly) -> list[Poly]:
    """Irreducible factors of a squarefree monic f (deterministic small-q
    Berlekamp: kernel of the Frobenius map, then gcd splits over all field
    constants)."""
    n = degree(f)
    if n <= 1:
        return [f]
    q = F.q
    ker = _frobenius_kernel(F, f)
    r = ker.cols  # number of irreducible factors
    if r == 1:
        return [f]
    factors = [f]
    for j in range(ker.cols):
        if len(factors) == r:
            break
        v = normalize([int(c) for c in ker.data[:, j]])
        if degree(v) < 1:
            continue
        new_factors = []
        for h in factors:
            if degree(h) <= 1:
                new_factors.append(h)
                continue
            pieces = []
            rest = h
            for c in range(q):
                g = gcd(F, rest, sub(F, v, (c,) if c else ZERO))
                if 0 < degree(g) < degree(rest):
                    pieces.append(g)
                    rest = divmod_poly(F, rest, g)[0]
                if degree(rest) == 0:
                    break
            if degree(rest) >= 1:
                pieces.append(rest)
            new_factors.extend(pieces)
        factors = new_factors
    return [monic(F, h) for h in factors]


def factor(F: FieldSpec, f: Poly) -> list[tuple[Poly, int]]:
    """Full factorization into monic irreducibles with multiplicities,
    sorted by (degree, coefficient tuple) for determinism."""
    if degree(f) < 1:
        raise ValueError("cannot factor a constant polynomial")
    out: list[tuple[Poly, int]] = []
    for sqfree, m in squarefree_decomposition(F, f):
        for irr in _berlekamp_split(F, sqfree):
            out.append((irr, m))
    merged: dict[Poly, int] = {}
    for g, m in out:
        merged[g] = merged.get(g, 0) + m
    return sorted(merged.items(), key=lambda km: (degree(km[0]), km[0]))


def is_irreducible(F: FieldSpec, f: Poly) -> bool:
    """Whether the monic f of degree >= 1 is irreducible over F: squarefree,
    with a Berlekamp kernel of dimension 1 (one irreducible factor)."""
    return degree(gcd(F, f, derivative(F, f))) == 0 and _frobenius_kernel(F, f).cols == 1


def crt_idempotent_coeffs(F: FieldSpec, f: Poly, part: Poly) -> Poly:
    """For a monic f = part * rest with gcd(part, rest) = 1: the polynomial
    e of degree < deg f with e = 0 mod part and e = 1 mod rest."""
    rest = divmod_poly(F, f, part)[0]
    d, u, v = xgcd(F, part, rest)
    if degree(d) != 0:
        raise ValueError("factors are not coprime")
    # u*part + v*rest = 1; e = u*part is 0 mod part and 1 mod rest
    return mod(F, mul(F, u, part), f)
