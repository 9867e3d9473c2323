"""Differential tests: the sparse elimination kernel of `slred.lie` against
the dense reference routines in `dense_oracle` and against sympy."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

import dense_oracle
from slred.lie import (
    ExactMatrix,
    ad_rows,
    all_roots,
    bracket,
    inverse,
    nullspace_of_rows,
    rank_of_rows,
)
from slred.star import kernel_on_basis

F = Fraction

# Half the entries are zero: sparse rows, zero rows and rank drops are common.
_entries = st.one_of(
    st.just(F(0)),
    st.fractions(min_value=-4, max_value=4, max_denominator=5),
)


@st.composite
def _dense_matrices(draw, square=False):
    nrows = draw(st.integers(min_value=1 if square else 0, max_value=5))
    ncols = nrows if square else draw(st.integers(min_value=0, max_value=5))
    return [[draw(_entries) for _ in range(ncols)] for _ in range(nrows)], ncols


def _sparse(dense, keep_zeros):
    """Sparse rows of a dense matrix; with `keep_zeros` the zeros stay in."""
    return [{c: v for c, v in enumerate(row) if keep_zeros or v} for row in dense]


def _densify(vec, ncols):
    return [vec.get(c, F(0)) for c in range(ncols)]


def _sympy_rank(dense, ncols):
    entries = [sympy.Rational(v.numerator, v.denominator) for row in dense for v in row]
    return sympy.Matrix(len(dense), ncols, entries).rank()


@settings(max_examples=150, deadline=None)
@given(_dense_matrices(), st.booleans())
def test_rank_matches_bareiss_and_sympy(matrix, keep_zeros):
    dense, ncols = matrix
    rank = rank_of_rows(_sparse(dense, keep_zeros))
    assert rank == dense_oracle.rank_of_rows(dense)
    assert rank == _sympy_rank(dense, ncols)


@settings(max_examples=150, deadline=None)
@given(_dense_matrices(), st.booleans())
def test_nullspace_matches_dense_rref(matrix, keep_zeros):
    dense, ncols = matrix
    basis, free = nullspace_of_rows(_sparse(dense, keep_zeros), ncols)
    oracle_basis, oracle_free = dense_oracle.nullspace_of_rows(dense, ncols)
    assert free == oracle_free
    assert [_densify(vec, ncols) for vec in basis] == oracle_basis
    assert all(0 not in vec.values() for vec in basis)


@settings(max_examples=150, deadline=None)
@given(_dense_matrices(square=True))
def test_inverse_matches_dense_rref(matrix):
    dense, n = matrix
    m = ExactMatrix(
        n, {(i + 1, j + 1): v for i, row in enumerate(dense) for j, v in enumerate(row)}
    )
    try:
        expected = dense_oracle.inverse(m)
    except ValueError:
        with pytest.raises(ValueError, match="singular"):
            inverse(m)
        assert m.rank() < n
        return
    assert inverse(m) == expected
    assert m * inverse(m) == ExactMatrix.identity(n)
    assert m.rank() == n


def test_singular_matrices_raise():
    for m in (
        ExactMatrix.zero(3),
        ExactMatrix(2, {(1, 1): F(1, 2), (1, 2): 1, (2, 1): 1, (2, 2): 2}),
        ExactMatrix(3, {(1, 1): 1, (2, 2): 1}),
    ):
        with pytest.raises(ValueError, match="singular"):
            dense_oracle.inverse(m)
        with pytest.raises(ValueError, match="singular"):
            inverse(m)


def test_nullspace_back_substitutes_into_earlier_pivot_rows():
    # echelon rows (1, 1, 1) and (0, 1, 1); the RREF clears column 1 of row 0
    basis, free = nullspace_of_rows([{0: 1, 1: 1, 2: 1}, {1: 1, 2: 1}], 3)
    assert free == [2]
    assert basis == [{1: F(-1), 2: F(1)}]


def test_empty_input():
    assert rank_of_rows([]) == 0
    assert rank_of_rows([{}, {}]) == 0
    assert nullspace_of_rows([], 0) == ([], [])
    assert nullspace_of_rows([], 2) == ([{0: F(1)}, {1: F(1)}], [0, 1])


@st.composite
def _sparse_matrices(draw, min_n=1):
    n = draw(st.integers(min_value=min_n, max_value=5))
    positions = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    chosen = draw(st.lists(st.sampled_from(positions), max_size=6, unique=True))
    return ExactMatrix(n, {pos: draw(_entries) for pos in chosen})


@settings(max_examples=60, deadline=None)
@given(_sparse_matrices())
def test_ad_rows_are_brackets_with_matrix_units(f):
    n = f.n
    units = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    assert ad_rows(f, units) == [
        dict(bracket(f, ExactMatrix.unit(n, i, j)).items()) for i, j in units
    ]


@settings(max_examples=60, deadline=None)
@given(_sparse_matrices(min_n=2), st.data())
def test_kernel_on_basis_matches_dense_nullspace(f, data):
    n = f.n
    roots = sorted(data.draw(st.lists(st.sampled_from(all_roots(n)), unique=True)))
    kernel, pivots = kernel_on_basis(f, roots)
    # the map from root coordinates to gl_N, one dense row per matrix position
    images = [bracket(f, ExactMatrix.unit(n, r.i, r.j)) for r in roots]
    dense = [
        [img.entry(i, j) for img in images] for i in range(1, n + 1) for j in range(1, n + 1)
    ]
    vectors, free = dense_oracle.nullspace_of_rows(dense if roots else [], len(roots))
    expected = [
        ExactMatrix(n, {(r.i, r.j): c for r, c in zip(roots, vec)}) for vec in vectors
    ]
    assert kernel == expected
    assert sorted(pivots + free) == list(range(len(roots)))
    assert all(bracket(f, u).is_zero() for u in kernel)
