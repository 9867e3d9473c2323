"""Tests for exact matrices, brackets, ranks, Jordan types and gradings."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from slred.lie import (
    ExactMatrix,
    GradingElement,
    Root,
    all_roots,
    bracket,
    inverse,
    jordan_type,
    nullspace_of_rows,
    rank_of_rows,
    root_decomposition,
    trace_form,
)

E = ExactMatrix.unit
F = Fraction


# ----------------------------------------------------------------------
# bracket / trace form
# ----------------------------------------------------------------------


def test_bracket_sl2_relation():
    h = bracket(E(2, 1, 2), E(2, 2, 1))
    assert h == E(2, 1, 1) - E(2, 2, 2)


def test_bracket_self_is_zero():
    assert bracket(E(2, 1, 2), E(2, 1, 2)).is_zero()


def test_bracket_root_addition():
    assert bracket(E(3, 1, 2), E(3, 2, 3)) == E(3, 1, 3)


def test_bracket_size_mismatch():
    try:
        bracket(E(2, 1, 2), E(3, 1, 2))
    except ValueError:
        pass
    else:
        raise AssertionError("expected a size-mismatch error")


def test_trace_form_dual_root_vectors():
    assert trace_form(E(2, 1, 2), E(2, 2, 1)) == 1


def test_trace_form_nilpotent_square():
    assert trace_form(E(2, 1, 2), E(2, 1, 2)) == 0


def test_trace_form_coroot():
    h = E(2, 1, 1) - E(2, 2, 2)
    assert trace_form(h, h) == 2


# ----------------------------------------------------------------------
# rank / inverse / kernels
# ----------------------------------------------------------------------


def test_rank_with_fractional_entries():
    m = ExactMatrix(3, {(1, 1): F(1, 2), (1, 2): F(1, 3), (2, 1): F(3, 2), (2, 2): 1})
    assert m.rank() == 1
    m2 = m + E(3, 3, 3)
    assert m2.rank() == 2


def test_rank_of_rows_zero_matrix():
    assert rank_of_rows([dict.fromkeys(range(3), F(0)) for _ in range(3)]) == 0


def test_inverse_roundtrip():
    g = ExactMatrix(3, {(1, 1): 1, (1, 2): F(1, 2), (2, 2): 2, (2, 3): -1, (3, 1): 3, (3, 3): 1})
    assert g * inverse(g) == ExactMatrix.identity(3)
    assert inverse(g) * g == ExactMatrix.identity(3)


def test_inverse_singular_raises():
    try:
        inverse(ExactMatrix(2, {(1, 1): 1, (2, 1): 1}))
    except ValueError:
        pass
    else:
        raise AssertionError("expected singular-matrix error")


def test_nullspace_echelonized():
    # x1 - x3 = 0, x2 - x4 = 0 on 4 coordinates
    rows = [{0: F(1), 2: F(-1)}, {1: F(1), 3: F(-1)}]
    basis, free = nullspace_of_rows(rows, 4)
    assert free == [2, 3]
    assert basis == [{0: F(1), 2: F(1)}, {1: F(1), 3: F(1)}]


def test_rref_pivots():
    # the one reduced row is (0, 1, 1/2): pivot column 1, free columns 0 and 2
    rows = [{1: F(2), 2: F(1)}, {1: F(4), 2: F(2)}]
    basis, free = nullspace_of_rows(rows, 3)
    assert free == [0, 2]
    assert basis == [{0: F(1)}, {2: F(1), 1: F(-1, 2)}]


# ----------------------------------------------------------------------
# jordan_type
# ----------------------------------------------------------------------


def test_jordan_type_zero_matrix():
    assert jordan_type(ExactMatrix.zero(3)) == (1, 1, 1)


def test_jordan_type_regular_nilpotent():
    assert jordan_type(E(3, 1, 2) + E(3, 2, 3)) == (3,)


def test_jordan_type_three_two():
    m = E(5, 2, 1) + E(5, 4, 2) + E(5, 5, 3)
    assert jordan_type(m) == (3, 2)


def test_jordan_type_rejects_non_nilpotent():
    try:
        jordan_type(ExactMatrix.identity(2))
    except ValueError:
        pass
    else:
        raise AssertionError("expected non-nilpotent error")


def test_jordan_type_rank_drop_conjugacy():
    # the conjugate of the output must reproduce the rank-drop sequence
    m = E(6, 2, 1) + E(6, 3, 2) + E(6, 5, 4)
    parts = jordan_type(m)
    assert sum(parts) == 6
    drops = []
    power = ExactMatrix.identity(6)
    prev = 6
    while True:
        power = power * m
        r = power.rank()
        drops.append(prev - r)
        prev = r
        if r == 0:
            break
    for k, d in enumerate(drops, start=1):
        assert d == sum(1 for p in parts if p >= k)


# ----------------------------------------------------------------------
# gradings
# ----------------------------------------------------------------------


def test_grading_principal_sl2():
    x = GradingElement([F(1, 2), F(-1, 2)])
    assert x.of_root(Root(1, 2)) == 1
    assert x.of_root(Root(2, 1)) == -1


def test_grading_zero_element():
    x = GradingElement.zero(4)
    assert all(x.of_root(r) == 0 for r in all_roots(4))


def test_grading_from_three_two_pyramid():
    x = GradingElement([F(6, 5), F(1, 5), F(1, 5), F(-4, 5), F(-4, 5)])
    assert x.of_root(Root(2, 3)) == 0
    assert x.of_root(Root(1, 2)) == 1
    assert x.of_root(Root(2, 1)) == -1


def test_grading_element_must_be_traceless():
    try:
        GradingElement([1, 1])
    except ValueError:
        pass
    else:
        raise AssertionError("expected traceless check to fire")


def test_root_decomposition_zero_sl2():
    x = GradingElement.zero(2)
    assert root_decomposition(x) == {F(0): [Root(1, 2), Root(2, 1)]}


def test_root_decomposition_principal_sl2():
    x = GradingElement([F(1, 2), F(-1, 2)])
    assert root_decomposition(x) == {F(-1): [Root(2, 1)], F(1): [Root(1, 2)]}


def test_root_decomposition_three_two_pyramid():
    # independent oracle: filter all 20 roots of sl_5 by the diagonal values
    diag = [F(6, 5), F(1, 5), F(1, 5), F(-4, 5), F(-4, 5)]
    x = GradingElement(diag)
    dec = root_decomposition(x)
    for grade, roots in dec.items():
        for r in roots:
            assert diag[r.i - 1] - diag[r.j - 1] == grade
    assert sum(len(roots) for roots in dec.values()) == 20
    grade0_positive = [r for r in dec[F(0)] if r.is_positive]
    assert grade0_positive == [Root(2, 3), Root(4, 5)]


def test_even_flag():
    assert GradingElement([F(1, 2), F(-1, 2)]).is_even()
    assert not GradingElement([F(1, 3), F(-1, 3)]).is_even()


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------


def test_json_roundtrip_sorted():
    m = ExactMatrix(3, {(3, 1): F(-1, 2), (1, 2): 2, (1, 1): F(7, 3)})
    doc = m.to_json()
    assert doc == {"n": 3, "entries": [[1, 1, "7/3"], [1, 2, "2"], [3, 1, "-1/2"]]}
    assert ExactMatrix(doc["n"], [((i, j), F(v)) for i, j, v in doc["entries"]]) == m


# ----------------------------------------------------------------------
# properties
# ----------------------------------------------------------------------

_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def _matrix_triples(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    mats = []
    positions = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    for _ in range(3):
        entries = {}
        for pos in draw(st.lists(st.sampled_from(positions), max_size=5, unique=True)):
            entries[pos] = draw(_fractions)
        mats.append(ExactMatrix(n, entries))
    return tuple(mats)


@settings(max_examples=60, deadline=None)
@given(_matrix_triples())
def test_bracket_antisymmetry_and_jacobi(mats):
    a, b, c = mats
    assert bracket(a, b) == -bracket(b, a)
    jac = bracket(a, bracket(b, c)) + bracket(b, bracket(c, a)) + bracket(c, bracket(a, b))
    assert jac.is_zero()


@settings(max_examples=60, deadline=None)
@given(_matrix_triples())
def test_trace_form_invariance(mats):
    a, b, c = mats
    assert trace_form(bracket(a, b), c) == trace_form(a, bracket(b, c))


@st.composite
def _nilpotent_with_conjugator(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    upper = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    lower = [(j, i) for (i, j) in upper]
    m_entries = {}
    for pos in draw(st.lists(st.sampled_from(upper), max_size=4, unique=True)):
        m_entries[pos] = draw(_fractions)
    m = ExactMatrix(n, m_entries)
    g = ExactMatrix.identity(n)
    for pool in (lower, upper):
        u_entries = {}
        for pos in draw(st.lists(st.sampled_from(pool), max_size=3, unique=True)):
            u_entries[pos] = draw(_fractions)
        g = g * (ExactMatrix.identity(n) + ExactMatrix(n, u_entries))
    return m, g


@settings(max_examples=60, deadline=None)
@given(_nilpotent_with_conjugator())
def test_jordan_type_conjugation_invariant(data):
    m, g = data
    conjugated = g * m * inverse(g)
    assert jordan_type(conjugated) == jordan_type(m)
    assert sum(jordan_type(m)) == m.n
