"""Differential tests: the polynomial ring, the Bernoulli-series translation
vector fields, the reflected chart inverse, `Poly.substitute`, the
closed-form omega split and the one-pass `screening_pair` of
`slred.screening` against the reference routines in `screening_oracle`,
which compute in the package's former ring.  Results of the two rings are
compared by `to_json` (and `repr`), never by `==` across rings."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

import screening_oracle
from screening_oracle import from_package
from slred.lie import ExactMatrix
from slred import screening
from slred.orbits import Partition, box_move_witness, partitions_of
from slred.pyramids import Pyramid, good_pair, grading_element_of, left_aligned_offsets
from slred.reduction import build_reduction
from slred.screening import (
    Poly,
    PolyMatrix,
    UnipotentChart,
    _negate_coordinates,
    _omega_split,
    exp_nilpotent,
    left_action_of,
    right_action_of,
    screening_coeffs,
    screening_pair,
)
from slred.star import BiGrading, bigrade

F = Fraction

_coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def _json(polys: dict) -> dict:
    return {key: p.to_json() for key, p in polys.items()}


def _closure(n, roots):
    """The smallest bracket-closed set of positive roots containing `roots`."""
    have = set(roots)
    grown = True
    while grown:
        grown = False
        for i, j in list(have):
            for j2, k in list(have):
                if j2 == j and (i, k) not in have:
                    have.add((i, k))
                    grown = True
    return UnipotentChart(n, have)


@st.composite
def _charts(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    positive = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
    kind = draw(st.sampled_from(["empty", "full", "random"]))
    if kind == "empty":
        return UnipotentChart(n, [])
    if kind == "full":
        return UnipotentChart(n, positive)
    return _closure(n, draw(st.lists(st.sampled_from(positive), max_size=len(positive))))


@st.composite
def _charts_with_elements(draw):
    chart = draw(_charts())
    entries = {tuple(root): draw(_coeffs) for root in chart.roots}
    return chart, ExactMatrix(chart.n, entries)


@given(case=_charts_with_elements())
@settings(max_examples=60, deadline=None)
def test_left_action_matches_the_log_route(case):
    chart, w = case
    assert _json(left_action_of(w, chart)) == _json(screening_oracle.left_action_of(w, chart))


@given(case=_charts_with_elements())
@settings(max_examples=60, deadline=None)
def test_right_action_matches_the_log_route(case):
    chart, w = case
    assert _json(right_action_of(w, chart)) == _json(
        screening_oracle.right_action_of(w, chart)
    )


def test_full_sl5_chart_matches_the_log_route_on_every_root_vector():
    chart = UnipotentChart(5, [(i, j) for i in range(1, 5) for j in range(i + 1, 6)])
    for i, j in chart.roots:
        w = ExactMatrix.unit(5, i, j)
        assert _json(left_action_of(w, chart)) == _json(
            screening_oracle.left_action_of(w, chart)
        )
        assert _json(right_action_of(w, chart)) == _json(
            screening_oracle.right_action_of(w, chart)
        )


@given(chart=_charts())
@settings(max_examples=40, deadline=None)
def test_each_chart_builds_one_coordinate_matrix(chart):
    z = chart.coordinate_matrix()
    assert chart.coordinate_matrix() is z
    assert from_package(z) == screening_oracle.coordinate_matrix(chart)


@given(chart=_charts())
@settings(max_examples=40, deadline=None)
def test_generic_inverse_is_the_exponential_of_minus_z(chart):
    g = chart.generic_element()
    ginv = _negate_coordinates(g)
    assert from_package(ginv) == screening_oracle.generic_inverse(chart)
    assert ginv == exp_nilpotent(-chart.coordinate_matrix())
    assert g * ginv == PolyMatrix.identity(chart.n)


# Polynomials over a small pool of variables of every kind, so that
# substitutions hit kept, replaced and repeated variables alike.  A
# polynomial is drawn as a list of (coefficient, variables) terms and built
# in each ring from its own constants, variables, products and sums.
_VARS = [
    ("z", (1, 2)),
    ("z", (2, 3)),
    ("z", (1, 3)),
    ("beta", 1),
    ("beta", 2),
    ("beta", (1, 2)),
    ("gamma", 1),
    ("beta-hat", 1),
    ("gamma-hat", 2),
]

_scalars = st.one_of(st.integers(min_value=-3, max_value=3), _coeffs)


def _terms(max_terms=4):
    return st.lists(
        st.tuples(_scalars, st.lists(st.sampled_from(_VARS), max_size=3)),
        max_size=max_terms,
    )


def _build(ring, terms):
    total = ring()
    for c, variables in terms:
        term = ring.const(c)
        for var in variables:
            term = term * ring.variable(*var)
        total = total + term
    return total


def _in_ring(ring, mapping):
    return {
        var: value if isinstance(value, (int, F)) else _build(ring, value)
        for var, value in mapping.items()
    }


_mappings = st.dictionaries(
    st.sampled_from(_VARS), st.one_of(_terms(max_terms=2), _scalars), max_size=4
)


def _is_normal(p: Poly) -> bool:
    """No zero is stored, and an integral coefficient is an int."""
    return all(
        c != 0 and type(c) is (int if c.denominator == 1 else F) for c in p.terms.values()
    )


@given(p=_terms(), mapping=_mappings)
@settings(max_examples=150, deadline=None)
def test_substitute_matches_the_multiply_out_route(p, mapping):
    image = _build(Poly, p).substitute(_in_ring(Poly, mapping))
    expected = screening_oracle.substitute(
        _build(screening_oracle.Poly, p), _in_ring(screening_oracle.Poly, mapping)
    )
    assert image.to_json() == expected.to_json()
    assert _is_normal(image)


@given(a=_terms(), b=_terms(), c=_scalars, mapping=_mappings)
@settings(max_examples=200, deadline=None)
def test_ring_matches_the_former_poly(a, b, c, mapping):
    p, q = _build(Poly, a), _build(Poly, b)
    old_p, old_q = _build(screening_oracle.Poly, a), _build(screening_oracle.Poly, b)
    scaled = PolyMatrix(2, {(1, 1): p, (2, 1): q}).scale(c)
    pairs = [
        (p, old_p),
        (p + q, old_p + old_q),
        (p - q, old_p - old_q),
        (-p, -old_p),
        (p * q, old_p * old_q),
        (p * c, old_p * c),
        (c * p, c * old_p),
        (c - p, c - old_p),
        (scaled.entry(1, 1), old_p * c),
        (scaled.entry(2, 1), old_q * c),
        (
            p.substitute(_in_ring(Poly, mapping)),
            old_p.substitute(_in_ring(screening_oracle.Poly, mapping)),
        ),
    ]
    for new, old in pairs:
        assert new.to_json() == old.to_json()
        assert repr(new) == repr(old)
        assert _is_normal(new)
    assert (p == q) == (old_p == old_q)
    assert (p == c) == (old_p == c)
    if old_p.is_constant():
        assert hash(p) == hash(old_p)
    rebuilt = (p + q) - q
    assert rebuilt == p and hash(rebuilt) == hash(p)


def test_omega_split_matches_the_trace_form_route_on_every_box_move():
    checked = paired = 0
    for n in range(2, 10):
        parts = partitions_of(n)
        for lam in parts:
            for mu in parts:
                if lam == mu or box_move_witness(lam, mu) is None:
                    continue
                datum = build_reduction(lam, mu)
                pieces = bigrade(
                    BiGrading(
                        grading_element_of(datum.pyr_lam), grading_element_of(datum.pyr_mu)
                    )
                )
                split = _omega_split(
                    datum.f_lam, pieces.get((0, 1), ()), datum.certificate
                )
                oracle = screening_oracle.omega_split(datum.f_lam, datum.f_circ, pieces)
                assert (
                    split.pairs, split.u_duals, split.v_duals, split.ghost_constants
                ) == (
                    oracle.pairs, oracle.u_duals, oracle.v_duals, oracle.ghost_constants
                ), (lam, mu)
                checked += 1
                paired += split.pairs > 0
    assert checked == 146
    assert paired > 0


def _same_sets(new, old):
    assert new.to_json() == old.to_json()
    assert new.cases == old.cases
    assert new.split == old.split
    assert new.chart_roots == old.chart_roots


def _matches_the_two_pass_route(datum, pair):
    source, target = pair
    _same_sets(source, screening_oracle.screening_coeffs(datum, "source"))
    _same_sets(target, screening_oracle.screening_coeffs(datum, "target"))


def test_screening_pair_matches_the_two_pass_route_on_every_box_move():
    checked = 0
    for n in range(2, 9):
        parts = partitions_of(n)
        for lam in parts:
            for mu in parts:
                if lam != mu and box_move_witness(lam, mu) is not None:
                    datum = build_reduction(lam, mu)
                    _matches_the_two_pass_route(datum, screening_pair(datum))
                    checked += 1
    assert checked == 91


def test_screening_pair_matches_the_two_pass_route_on_good_pairs():
    for n in range(1, 7):
        for lam in partitions_of(n):
            pair = good_pair(Pyramid(lam, left_aligned_offsets(lam)))
            _matches_the_two_pass_route(pair, screening_pair(pair))


def test_one_entry_memo_returns_each_datum_its_own_sets(monkeypatch):
    monkeypatch.setattr(screening, "_memo", [])
    a = build_reduction(Partition((3, 2)), Partition((4, 1)))
    b = build_reduction(Partition((2, 2, 1)), Partition((3, 1, 1)))
    for datum in (a, b, a):
        pair = (screening_coeffs(datum, "source"), screening_coeffs(datum, "target"))
        _matches_the_two_pass_route(datum, pair)
        assert len(screening._memo) == 1
        assert screening._memo[0][0] is datum
