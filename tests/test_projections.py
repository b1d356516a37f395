"""Quotients and idempotent splits read off one reduced echelon form.

``modules.quotient_module`` takes the complement of the subspace U from the
free coordinates of the echelon form of its spanning columns, read from the
last coordinate back, and the projection along U from the same form;
``ModuleRegistry._split`` takes the projections onto the image and the
kernel of an idempotent e from the echelon form of e.  They must give, byte
for byte, the module matrices and projections of the constructions they
replaced: the basis completed greedily with standard vectors and inverted
(``ff_oracles.completed_basis_quotient``) and the rows of
[image | kernel]^-1 (``ff_oracles.inverse_split_projections``).

The subspaces are images of random endomorphisms, the radical powers, the
same subspaces given by dependent spanning columns, the zero subspace and
the whole module, in fixture modules over GF(2), GF(3), GF(4) and GF(5).
The trivial submodule of a regular module, spanned by the all-ones vector,
has the greedy complement {e_0, ..., e_(n-2)}, where forward pivots would
give {e_1, ..., e_(n-1)}; over odd p a dropped sign in a projection shows.
"""

import numpy as np
import pytest

from corpus import fixture_groups, in_random_basis
from ff_oracles import completed_basis_quotient, inverse_split_projections
from tautilt import homalg
from tautilt.algebra import GroupAlgebra
from tautilt.ff import FFMatrix, field_create
from tautilt.modules import (
    ModuleRegistry,
    _content_key,
    direct_sum,
    end_basis,
    quotient_module,
    regular_module,
    submodule,
    trivial_module,
)
from tautilt.rings import combine

# (group, p, m): fixture modules over GF(2), GF(3), GF(4) and GF(5)
QUOTIENT_ALGEBRAS = [
    ("S4", 2, 1),
    ("C4", 2, 1),
    ("S3", 3, 1),
    ("A4", 3, 1),
    ("A4", 2, 2),
    ("S3", 5, 1),
    ("C4", 5, 1),
]

# (group, p, m): fields that split kG, with more than one block or PIM
SPLIT_ALGEBRAS = [
    ("C3", 2, 2),
    ("S3", 2, 2),
    ("A4", 2, 2),
    ("S4", 2, 2),
    ("S3xC3", 2, 2),
    ("S3", 3, 1),
    ("A4", 3, 1),
    ("SL23", 3, 1),
    ("S4", 3, 2),
    ("C4", 5, 1),
]


def _algebra(name, p, m):
    return GroupAlgebra(fixture_groups()[name], field_create(p, m))


def _same(A: FFMatrix, B: FFMatrix) -> bool:
    return A.shape == B.shape and A.data.tobytes() == B.data.tobytes()


def _fixture_modules(alg):
    reg = regular_module(alg)
    return [reg, in_random_basis(reg, 7), direct_sum(trivial_module(alg), in_random_basis(reg, 8))]


def _radical_powers(M):
    """Bases of rad^i M for i >= 1, as columns in the coordinates of M; the
    last one is the zero subspace."""
    out, inc, current = [], FFMatrix.identity(M.field, M.dim), M
    while current.dim:
        basis = homalg.radical_submodule_basis(current)
        inc = inc @ basis
        out.append(inc)
        current, _ = submodule(current, basis)
    return out


def _dependent(span: FFMatrix, rng) -> FFMatrix:
    """Columns spanning what span spans: span, random combinations of its
    columns and a zero column, shuffled."""
    field = span.field
    mixes = FFMatrix(field, rng.integers(0, field.q, size=(span.cols, 2)))
    cols = span.hstack(span @ mixes, FFMatrix.zeros(field, span.rows, 1))
    return cols.take_columns(rng.permutation(cols.cols))


def _assert_matches_oracle(M, span):
    quot, proj = quotient_module(M, span)
    want, want_proj = completed_basis_quotient(M, span.column_space_basis())
    assert _same(proj, want_proj)
    assert quot.dim == want.dim and quot.label == want.label
    assert all(_same(g, h) for g, h in zip(quot.gen_mats, want.gen_mats))
    # a module map onto the quotient that kills U
    assert (proj @ span).is_zero()
    assert all(proj @ g == q @ proj for g, q in zip(M.gen_mats, quot.gen_mats))


def _subspaces(M, rng):
    """Spanning columns of invariant subspaces of M."""
    field, n = M.field, M.dim
    spans = [FFMatrix.zeros(field, n, 0), FFMatrix.zeros(field, n, 2)]
    spans += [FFMatrix.identity(field, n), _dependent(FFMatrix.identity(field, n), rng)]
    for basis in _radical_powers(M):
        spans += [basis, _dependent(basis, rng)]
    ends = end_basis(M)
    for _ in range(3):
        spans.append(combine(field, rng.integers(0, field.q, size=len(ends)).tolist(), ends))
    return spans


@pytest.mark.parametrize("name, p, m", QUOTIENT_ALGEBRAS)
def test_quotient_matches_completed_basis_oracle(name, p, m):
    alg = _algebra(name, p, m)
    rng = np.random.default_rng(p * 100 + m * 10 + len(name))
    for M in _fixture_modules(alg):
        for span in _subspaces(M, rng):
            _assert_matches_oracle(M, span)


@pytest.mark.parametrize("p, m", [(2, 1), (3, 1), (2, 2), (5, 1)])
def test_trivial_submodule_keeps_the_greedy_complement(p, m):
    alg = _algebra("S3", p, m)
    reg = regular_module(alg)
    n = reg.dim
    ones = FFMatrix(alg.field, np.ones((n, 1), dtype=np.int64))
    _, proj = quotient_module(reg, ones)
    # e_k lies in <1> + <e_j : j < k> only for k = n - 1
    assert proj.take_columns(range(n - 1)) == FFMatrix.identity(alg.field, n - 1)
    assert proj.take_columns([n - 1]) == -ones.take_rows(range(n - 1))
    _assert_matches_oracle(reg, ones)


@pytest.mark.parametrize("name, p, m", SPLIT_ALGEBRAS)
def test_split_projections_match_inverse_of_image_and_kernel(monkeypatch, name, p, m):
    """Every idempotent that splits the regular module, and the pieces it
    cuts off, as ``_split`` hands them to ``_inherit_end``."""
    calls = []
    inherit = ModuleRegistry._inherit_end

    def recording(self, X, piece, basis, proj):
        calls.append((self, X, basis, proj))
        return inherit(self, X, piece, basis, proj)

    monkeypatch.setattr(ModuleRegistry, "_inherit_end", recording)
    alg = _algebra(name, p, m)
    alg.registry.decompose(regular_module(alg))
    assert calls and len(calls) % 2 == 0
    for (reg, X, img, img_proj), (_, kX, ker, ker_proj) in zip(calls[::2], calls[1::2]):
        assert kX is X
        e = reg._tables["idempotent"][_content_key(X)]
        (want_img, want_img_proj), (want_ker, want_ker_proj) = inverse_split_projections(e)
        assert _same(img, want_img) and _same(img_proj, want_img_proj)
        assert _same(ker, want_ker) and _same(ker_proj, want_ker_proj)
