"""Differential tests for the structural fast paths.

A 0/1 partial permutation takes the union-find rank in `ad_rank` and the
chain lengths in `jordan_type`; scaling it by 2 keeps every verdict but
sends it down the elimination route, which serves as the oracle.  The
injective-only goodness check is held against the two-sided one kept in
`dense_oracle`, on the pyramid census and on non-even gradings.  Integer
root degrees are checked against `Fraction` `of_root`, the closed-form omega
pairing against `trace_form(f1, bracket(u, v))`, and the certificate's
abelian flags against pairwise brackets.
"""

from fractions import Fraction

import pytest
from hypothesis import event, given, settings, strategies as st

import dense_oracle
from slred.lie import (
    ExactMatrix,
    GradingElement,
    Root,
    ad_rank,
    ad_rows,
    all_roots,
    bracket,
    inverse,
    jordan_type,
    rank_of_rows,
    root_decomposition,
    trace_form,
)
from slred.orbits import partitions_of
from slred.pyramids import (
    Pyramid,
    grading_element_of,
    is_good_grading,
    nilpotent_from_pyramid,
)
from slred.star import (
    BiGrading,
    bigrade,
    check_star,
    compute_omega,
    kernel_on_basis,
)

F = Fraction


@st.composite
def _chains(draw, min_n=1, max_n=7):
    """A random nilpotent 0/1 partial permutation f = sum of E_{c[k], c[k+1]}
    over chains c, with its chain lengths and the chains."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    labels = draw(st.permutations(range(1, n + 1)))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=n - 1))) if n > 1 else []
    bounds = [0, *cuts, n]
    chains = [labels[a:b] for a, b in zip(bounds, bounds[1:])]
    entries = {(c[k], c[k + 1]): F(1) for c in chains for k in range(len(c) - 1)}
    lengths = sorted((len(c) for c in chains), reverse=True)
    return ExactMatrix(n, entries), lengths, chains


def _units(n):
    return st.lists(
        st.tuples(st.integers(1, n), st.integers(1, n)), unique=True, max_size=n * n
    )


def _xcoords(n):
    return st.lists(st.integers(-3, 3), min_size=n, max_size=n)


@settings(max_examples=300, deadline=None)
@given(_chains(), st.data())
def test_union_find_rank_matches_elimination(chain, data):
    f, _lengths, _chains = chain
    units = data.draw(_units(f.n))
    # diagonal units always take part in at least half the draws
    if data.draw(st.booleans()):
        units = list(dict.fromkeys(units + [(k, k) for k in range(1, f.n + 1)]))
    expected = rank_of_rows(ad_rows(f, units))
    assert ad_rank(f, units) == expected
    assert ad_rank(2 * f, units) == expected


@settings(max_examples=400, deadline=None)
@given(_chains(), st.data())
def test_goodness_fast_path_matches_elimination(chain, data):
    f, _lengths, chains = chain
    xs = data.draw(_xcoords(f.n))
    if data.draw(st.booleans()):
        # shift each chain so that f has degree -1, as a pyramid would
        for c in chains:
            for k, label in enumerate(c):
                xs[label - 1] = xs[c[0] - 1] + k
    x = GradingElement.from_xcoords(xs)
    assert is_good_grading(f, x) == is_good_grading(2 * f, x)


@settings(max_examples=200, deadline=None)
@given(_chains())
def test_jordan_type_is_the_chain_lengths(chain):
    f, lengths, _chains = chain
    assert jordan_type(f) == tuple(lengths)
    assert jordan_type(2 * f) == tuple(lengths)
    assert dense_oracle.jordan_type(f) == tuple(lengths)


@settings(max_examples=100, deadline=None)
@given(_chains(max_n=6), st.integers(1, 3), st.data())
def test_cyclic_partial_permutation_is_not_nilpotent(chain, length, data):
    f, _lengths, _chains = chain
    n = f.n + length
    cycle = data.draw(st.permutations(range(f.n + 1, n + 1)))
    entries = dict(f.items())
    entries.update({(cycle[k], cycle[(k + 1) % length]): F(1) for k in range(length)})
    g = ExactMatrix(n, entries)
    for m in (g, 2 * g):
        with pytest.raises(ValueError):
            jordan_type(m)
    with pytest.raises(ValueError):
        is_good_grading(g, GradingElement.zero(n))


_coordinate = st.one_of(
    st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=4)
)


@settings(max_examples=400, deadline=None)
@given(_chains(), st.data())
def test_injective_half_matches_the_two_sided_check(chain, data):
    # fractional coordinates give non-even gradings; 2 * f takes elimination
    f, _lengths, chains = chain
    xs = data.draw(st.lists(_coordinate, min_size=f.n, max_size=f.n))
    if data.draw(st.booleans()):
        for c in chains:
            for k, label in enumerate(c):
                xs[label - 1] = xs[c[0] - 1] + k
    x = GradingElement.from_xcoords(xs)
    verdict = dense_oracle.is_good_grading(f, x)
    event(f"good={verdict} even={x.is_even()}")
    assert is_good_grading(f, x) == verdict
    assert is_good_grading(2 * f, x) == dense_oracle.is_good_grading(2 * f, x) == verdict


@settings(max_examples=200, deadline=None)
@given(st.lists(_coordinate, min_size=1, max_size=7))
def test_integer_root_degrees_match_fraction_of_root(xs):
    x = GradingElement.from_xcoords(xs)
    values = [F(v) for v in xs]
    mean = sum(values, F(0)) / len(values)
    assert x == GradingElement([v - mean for v in values])
    assert x.is_even() == all((v - values[0]).denominator == 1 for v in values)
    if x.levels is not None:
        assert x.levels == tuple(v - x.diag[0] for v in x.diag)
    decomposition = root_decomposition(x)
    expected: dict = {}
    for root in all_roots(x.n):
        expected.setdefault(x.of_root(root), []).append(root)
    assert decomposition == expected
    assert list(decomposition) == sorted(expected)
    assert all(type(grade) is Fraction for grade in decomposition)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 7), st.data())
def test_bidegrees_match_fraction_of_root(n, data):
    x1 = GradingElement.from_xcoords(data.draw(_xcoords(n)))
    x2 = GradingElement.from_xcoords(data.draw(_xcoords(n)))
    bi = BiGrading(x1, x2)
    for root in all_roots(n):
        assert bi.degree_of(root) == (x1.of_root(root), x2.of_root(root))
    for degree, roots in bigrade(bi).items():
        assert all(bi.degree_of(root) == degree for root in roots)
        assert list(roots) == sorted(roots)


_entries = st.one_of(st.just(F(0)), st.fractions(min_value=-3, max_value=3, max_denominator=3))


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 5), st.data())
def test_closed_form_omega_matches_trace_form(n, data):
    positions = st.tuples(st.integers(1, n), st.integers(1, n))
    f1 = ExactMatrix(n, data.draw(st.dictionaries(positions, _entries, max_size=n * n)))
    roots = all_roots(n)
    roots01 = sorted(data.draw(st.sets(st.sampled_from(roots), max_size=6)))
    roots10 = sorted(data.draw(st.sets(st.sampled_from(roots), max_size=6)))
    _kernel, pivots = kernel_on_basis(f1, roots01)
    rows, nondegenerate = compute_omega(f1, [roots01[k] for k in pivots], tuple(roots10))
    basis01 = [ExactMatrix.unit(n, *root) for root in roots01]
    basis10 = [ExactMatrix.unit(n, *root) for root in roots10]
    expected = [[trace_form(f1, bracket(basis01[k], v)) for v in basis10] for k in pivots]
    assert rows == expected
    square = len(expected) == len(roots10)
    assert nondegenerate == (
        square and dense_oracle.rank_of_rows(expected) == len(expected)
    )


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 6), st.data())
def test_abelian_flags_match_pairwise_brackets(n, data):
    # narrow coordinates make cells (0,1) and (1,0) with a chain a -> b -> c common
    narrow = st.lists(st.integers(0, 2), min_size=n, max_size=n)
    bi = BiGrading(
        GradingElement.from_xcoords(data.draw(narrow)),
        GradingElement.from_xcoords(data.draw(narrow)),
    )
    zero = ExactMatrix.zero(n)
    cert = check_star(zero, zero, bi)
    pieces = bigrade(bi)
    for degree, flag in (((0, 1), cert.abelian_01), ((1, 0), cert.abelian_10)):
        basis = [ExactMatrix.unit(n, *root) for root in pieces.get(degree, ())]
        abelian = all(bracket(u, v).is_zero() for u in basis for v in basis)
        event(f"abelian={abelian}")
        assert flag == abelian


@st.composite
def _g0_conjugators(draw, x: GradingElement):
    """A random nonsingular g of x-degree 0: on each level block, a unit
    lower-triangular matrix times a nonzero diagonal."""
    n = x.n
    entries = {}
    for i in range(1, n + 1):
        entries[(i, i)] = F(draw(st.sampled_from([-2, -1, 1, 2, 3])))
        for j in range(1, i):
            if x.levels[i - 1] == x.levels[j - 1]:
                entries[(i, j)] = F(draw(st.integers(-2, 2)))
    return ExactMatrix(n, entries)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 6), st.data())
def test_witness_gives_the_same_certificate(n, data):
    f1 = data.draw(_chains(min_n=n, max_n=n))[0]
    f_std = data.draw(_chains(min_n=n, max_n=n))[0]
    x2 = GradingElement.from_xcoords(data.draw(_xcoords(n)))
    bi = BiGrading(GradingElement.from_xcoords(data.draw(_xcoords(n))), x2)
    g = data.draw(_g0_conjugators(x2))
    f2 = g * f_std * inverse(g)
    assert check_star(f1, f2, bi, witness=(g, f_std)) == check_star(f1, f2, bi)


# ----------------------------------------------------------------------
# negative oracle: goodness across every pair of even pyramids, N <= 7
# ----------------------------------------------------------------------


def _pyramids_of(n):
    """Every pyramid of size n up to translation: each row's interval of
    integer x-coordinates lies inside the row below it."""
    out = []
    for lam in partitions_of(n):
        parts = lam.parts
        offset_lists = [[parts[0] - 1]]
        for r in range(1, len(parts)):
            offset_lists = [
                offsets + [right]
                for offsets in offset_lists
                for right in range(
                    offsets[-1] - parts[r - 1] + parts[r], offsets[-1] + 1
                )
            ]
        out.extend(Pyramid(lam, offsets) for offsets in offset_lists)
    return out


def test_cross_pyramid_goodness_census():
    assert [len(_pyramids_of(n)) for n in range(1, 8)] == [1, 2, 4, 8, 15, 27, 47]
    pairs = good = 0
    for n in range(1, 8):
        pyramids = _pyramids_of(n)
        for p in pyramids:
            f = nilpotent_from_pyramid(p)
            for q in pyramids:
                x = grading_element_of(q)
                if p == q or any(x.of_root(Root(i, j)) != -1 for (i, j), _v in f.items()):
                    continue
                pairs += 1
                verdict = is_good_grading(f, x)
                assert verdict == is_good_grading(2 * f, x), (p, q)
                assert verdict == dense_oracle.is_good_grading(f, x), (p, q)
                assert verdict == dense_oracle.is_good_grading(2 * f, x), (p, q)
                assert not verdict or p.partition == q.partition, (p, q)
                good += verdict
    assert (pairs, good, pairs - good) == (359, 64, 295)
