"""Differential tests of the sparse matrix core against sympy (tests only).

`PolyMatrix` reuses `SparseMatrix`'s arithmetic, written for any ring whose
zero is falsy, and `trace_pair` sums tr(a·m) into one `Poly`.  Here both are compared
with `sympy.Matrix` over polynomials in chart variables, and `jordan_type`
on nilpotents that are not 0/1 partial permutations (so its rank route
runs) is compared with sympy's Jordan form.
"""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from slred.lie import ExactMatrix, inverse, jordan_type
from slred.orbits import partitions_of
from slred.screening import Poly, PolyMatrix, trace_pair, var_name

_N = st.integers(min_value=1, max_value=3)
_COEFF = st.builds(
    Fraction, st.integers(min_value=-3, max_value=3), st.integers(min_value=1, max_value=3)
)


def _variables(n):
    return [("z", (i, j)) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


@st.composite
def _polys(draw, n):
    """A polynomial in the chart variables of sl_n, zero included."""
    out = Poly()
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        term = Poly.const(draw(_COEFF))
        for var in _variables(n):
            term = term * Poly.variable(*var) ** draw(st.integers(min_value=0, max_value=2))
        out = out + term
    return out


@st.composite
def _poly_matrices(draw, n):
    positions = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    chosen = draw(st.lists(st.sampled_from(positions), max_size=len(positions), unique=True))
    return PolyMatrix(n, {pos: draw(_polys(n)) for pos in chosen})


def _sym_poly(p: Poly):
    total = sympy.Integer(0)
    for mono, c in p.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for var, e in mono:
            term *= sympy.Symbol(var_name(var)) ** e
        total += term
    return total


def _sym_matrix(m):
    return sympy.Matrix(m.n, m.n, lambda i, j: _sym_poly(Poly() + m.entry(i + 1, j + 1)))


def _same(m: PolyMatrix, expected: sympy.Matrix) -> bool:
    stores_no_zero = all(not p.is_zero() for _pos, p in m.items())
    return stores_no_zero and (_sym_matrix(m) - expected).expand() == sympy.zeros(m.n, m.n)


@st.composite
def _pair(draw):
    n = draw(_N)
    return draw(_poly_matrices(n)), draw(_poly_matrices(n))


@given(pair=_pair())
@settings(max_examples=40, deadline=None)
def test_ring_operations_match_sympy(pair):
    a, b = pair
    sa, sb = _sym_matrix(a), _sym_matrix(b)
    assert _same(a + b, sa + sb)
    assert _same(a - b, sa - sb)
    assert _same(-a, -sa)
    assert _same(a * b, sa * sb)
    assert _same(a + (-a), sympy.zeros(a.n, a.n)) and (a + (-a)).is_zero()


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_scaling_and_trace_pair_match_sympy(data):
    n = data.draw(_N)
    m = data.draw(_poly_matrices(n))
    p = data.draw(_polys(n))
    expected = _sym_matrix(m) * _sym_poly(p)
    assert _same(m.scale(p), expected)
    assert m * p == p * m == m.scale(p)
    c = data.draw(_COEFF)
    assert _same(c * m, _sym_matrix(m) * sympy.Rational(c.numerator, c.denominator))
    positions = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    a = ExactMatrix(n, {pos: data.draw(_COEFF) for pos in positions})
    pairing = trace_pair(a, m)
    assert isinstance(pairing, Poly)
    assert sympy.expand(_sym_poly(pairing) - (_sym_matrix(a) * _sym_matrix(m)).trace()) == 0


def _standard_nilpotent(parts):
    """Jordan blocks E_{k,k+1} on consecutive labels, one chain per part."""
    n, entries, start = sum(parts), {}, 1
    for part in parts:
        for k in range(start, start + part - 1):
            entries[(k, k + 1)] = 1
        start += part
    return ExactMatrix(n, entries)


@st.composite
def _unimodular(draw, n):
    """A product of elementary row operations, so det = 1."""
    g = ExactMatrix.identity(n)
    if n == 1:
        return g
    for _ in range(draw(st.integers(min_value=0, max_value=2 * n))):
        i, j = draw(st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True))
        c = draw(st.integers(min_value=-2, max_value=2))
        g = (ExactMatrix.identity(n) + ExactMatrix.unit(n, i, j) * c) * g
    return g


def _sympy_jordan_type(m: ExactMatrix) -> tuple:
    j = sympy.Matrix(m.n, m.n, lambda a, b: sympy.Rational(str(m.entry(a + 1, b + 1))))
    form = j.jordan_form(calc_transform=False)
    sizes, run = [], 1
    for k in range(m.n - 1):
        if form[k, k + 1] == 1:
            run += 1
        else:
            sizes.append(run)
            run = 1
    sizes.append(run)
    return tuple(sorted(sizes, reverse=True))


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_jordan_type_matches_sympy_off_the_permutation_route(data):
    n = data.draw(st.integers(min_value=1, max_value=6))
    lam = data.draw(st.sampled_from(partitions_of(n)))
    g = data.draw(_unimodular(n))
    # 2·f is never a 0/1 partial permutation, so the rank route runs.
    f = inverse(g) * (_standard_nilpotent(lam.parts) * 2) * g
    assert jordan_type(f) == lam.parts == _sympy_jordan_type(f)


def test_exact_and_poly_matrices_do_not_mix():
    e = ExactMatrix.unit(2, 1, 2)
    p = PolyMatrix(2, {(1, 2): Poly.variable("z", (1, 2))})
    for op in (
        lambda: e + p,
        lambda: p + e,
        lambda: e - p,
        lambda: p - e,
        lambda: e * p,
        lambda: p * e,
    ):
        with pytest.raises(TypeError):
            op()
    assert ExactMatrix.identity(2) != PolyMatrix.identity(2)
    assert not (PolyMatrix.identity(2) == ExactMatrix.identity(2))
    assert PolyMatrix.from_exact(ExactMatrix.identity(2)) == PolyMatrix.identity(2)
