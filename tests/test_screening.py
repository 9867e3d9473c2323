"""Tests for the classical screening-coefficient machinery."""

import dataclasses
import json
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import screening_oracle
from screening_oracle import (
    derivative,
    from_package,
    g0_conjugate,
    generic_inverse,
    log_unipotent,
    omega_split_of,
)
from slred import screening
from slred.lie import ExactMatrix, Root, bracket, trace_form
from slred.orbits import Partition, box_move_witness, partitions_of
from slred.pyramids import Pyramid, good_pair, grading_element_of, left_aligned_offsets
from slred.reduction import build_reduction
from slred.star import BiGrading, bigrade, kernel_on_basis
from slred.screening import (
    Poly,
    PolyMatrix,
    UnipotentChart,
    exp_nilpotent,
    fourier_compare,
    fourier_signs,
    left_action_coeffs,
    left_action_of,
    right_action_of,
    screening_coeffs,
    trace_pair,
    var_name,
)


def _z(i, j):
    return Poly.variable("z", (i, j))


def _variables(p):
    return {var for mono, _c in p.items() for var, _e in mono}


def _datum(lam, mu):
    return build_reduction(Partition(lam), Partition(mu))


def _left_pair(parts):
    lam = Partition(parts)
    return good_pair(Pyramid(lam, left_aligned_offsets(lam)))


def _box_moves(n):
    parts = partitions_of(n)
    return [
        (lam, mu)
        for lam in parts
        for mu in parts
        if lam != mu and box_move_witness(lam, mu) is not None
    ]


# ----------------------------------------------------------------------
# polynomials
# ----------------------------------------------------------------------


class TestPoly:
    def test_arithmetic(self):
        z = _z(1, 2)
        w = _z(2, 3)
        p = (z + w) * (z - w)
        assert p == z * z - w * w
        assert p - p == Poly()
        assert (2 * z) * Fraction(1, 2) == z

    def test_scalar_comparison(self):
        assert Poly.const(3) == 3
        assert Poly() == 0
        assert _z(1, 2) != 1

    def test_constants_hash_like_their_scalars(self):
        assert hash(Poly.const(3)) == hash(3) == hash(Fraction(3))
        assert hash(Poly()) == hash(0)
        assert hash(Poly.const("2/3")) == hash(Fraction(2, 3))
        assert len({Poly.const(3), 3}) == 1
        assert len({Poly.const(3), Fraction(3), _z(1, 2)}) == 2

    def test_comparison_with_other_types_is_unequal(self):
        z = _z(1, 2)
        assert (z == "x") is False
        assert z != "x"
        assert Poly.const(1) != "1"
        assert Poly.const(1) != None  # noqa: E711

    def test_pow(self):
        z = _z(1, 2)
        assert z**3 == z * z * z
        assert z**0 == 1
        with pytest.raises(ValueError):
            z ** (-1)

    def test_constant_value(self):
        assert Poly.const("2/3").is_constant()
        assert Poly.const("2/3").terms == {(): Fraction(2, 3)}
        assert not _z(1, 2).is_constant()

    def test_substitute(self):
        z, w = _z(1, 2), _z(2, 3)
        p = z * w + 2 * z
        image = p.substitute({("z", (1, 2)): Poly.const(3)})
        assert image == 3 * w + 6
        swapped = p.substitute({("z", (1, 2)): w})
        assert swapped == w * w + 2 * w

    def test_substitute_by_symbol(self):
        p = Poly.variable("beta", 2) * _z(1, 2)
        image = p.substitute({("beta", 2): -Poly.variable("gamma-hat", 2)})
        assert image == -Poly.variable("gamma-hat", 2) * _z(1, 2)

    def test_derivative(self):
        z, w = _z(1, 2), _z(2, 3)
        p = from_package(z * z * w + 3 * w)
        assert derivative(p, ("z", (1, 2))) == from_package(2 * z * w)
        assert derivative(p, ("z", (2, 3))) == from_package(z * z + 3)
        assert derivative(p, ("z", (1, 3))).is_zero()

    def test_variable_names(self):
        assert var_name(("z", Root(1, 2))) == "z_(1,2)"
        assert var_name(("gamma-hat", 3)) == "gamma-hat_3"
        doc = (_z(1, 2) * Poly.variable("beta", 1)).to_json()
        assert doc == [{"monomial": {"z_(1,2)": 1, "beta_1": 1}, "coeff": "1"}]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Poly.variable("delta", 1)

    def test_out_of_range_index_rejected(self):
        for kind, index in [
            ("beta", -1),
            ("beta", 1 << 24),
            ("z", (-1, 2)),
            ("z", (1, 4096)),
            ("gamma-hat", (4096, 1)),
        ]:
            with pytest.raises(ValueError, match="outside"):
                Poly.variable(kind, index)
        edge = Poly.variable("z", (4095, 4095)) * Poly.variable("beta", (1 << 24) - 1)
        assert edge.to_json() == [
            {"monomial": {"z_(4095,4095)": 1, "beta_16777215": 1}, "coeff": "1"}
        ]

    def test_no_zero_coefficient_is_stored(self):
        z, w = _z(1, 2), _z(2, 3)
        half = Fraction(1, 2)
        assert ((z + 1) - z).terms == {(): 1}
        assert (z * half + half - z * half - half).terms == {}
        assert (z + w) * (z - w) == z * z - w * w
        assert len(((z + w) * (z - w)).terms) == 2
        assert (z * 0).terms == {}
        assert PolyMatrix(2, {(1, 2): z}).scale(0).is_zero()
        image = (z * Poly.variable("beta", 1) + z).substitute({("beta", 1): -1})
        assert image.terms == {}

    def test_integral_coefficients_are_ints(self):
        z = _z(1, 2)
        half = Fraction(1, 2)
        cases = [
            Poly.const(Fraction(3)),
            Poly({(): Fraction(4, 2)}),
            z * half * 2,
            z * half + z * half,
            z * Fraction(2, 3) * Fraction(3, 2),
            (z * half).substitute({("z", (1, 2)): 4}),
            PolyMatrix(2, {(1, 2): z * half}).scale(Fraction(4)).entry(1, 2),
        ]
        for p in cases:
            assert [type(c) for c in p.terms.values()] == [int], p
        assert [type(c) for c in (z * half).terms.values()] == [Fraction]


# ----------------------------------------------------------------------
# polynomial matrices, exp and log
# ----------------------------------------------------------------------


class TestExpLog:
    def test_exp_single_root(self):
        m = PolyMatrix(2, {(1, 2): _z(1, 2)})
        assert exp_nilpotent(m) == PolyMatrix.identity(2) + m

    def test_exp_second_order_correction(self):
        z1, z2, z3 = _z(1, 2), _z(2, 3), _z(1, 3)
        m = PolyMatrix(3, {(1, 2): z1, (2, 3): z2, (1, 3): z3})
        expected = PolyMatrix(
            3,
            {
                (1, 1): 1,
                (2, 2): 1,
                (3, 3): 1,
                (1, 2): z1,
                (2, 3): z2,
                (1, 3): z3 + z1 * z2 * Fraction(1, 2),
            },
        )
        assert exp_nilpotent(m) == expected

    def test_exp_zero(self):
        assert exp_nilpotent(PolyMatrix(3)) == PolyMatrix.identity(3)

    def test_exp_rejects_non_nilpotent(self):
        with pytest.raises(ValueError, match="not nilpotent"):
            exp_nilpotent(PolyMatrix.identity(2))

    def test_log_rejects_non_unipotent(self):
        with pytest.raises(ValueError, match="not unipotent"):
            log_unipotent(screening_oracle.PolyMatrix(2, {(1, 1): 2, (2, 2): 1}))

    def test_log_inverts_exp_symbolically(self):
        m = PolyMatrix(3, {(1, 2): _z(1, 2), (2, 3): _z(2, 3), (1, 3): _z(1, 3)})
        assert log_unipotent(from_package(exp_nilpotent(m))) == from_package(m)

    @given(
        entries=st.lists(st.integers(min_value=-3, max_value=3), min_size=6, max_size=6)
    )
    @settings(max_examples=40, deadline=None)
    def test_log_inverts_exp_on_samples(self, entries):
        positions = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
        m = PolyMatrix(4, dict(zip(positions, entries)))
        assert log_unipotent(from_package(exp_nilpotent(m))) == from_package(m)


# ----------------------------------------------------------------------
# charts and translation vector fields
# ----------------------------------------------------------------------


class TestUnipotentChart:
    def test_roots_sorted_and_deduplicated(self):
        chart = UnipotentChart(3, [(2, 3), (1, 2), (1, 3), (1, 2)])
        assert chart.roots == (Root(1, 2), Root(1, 3), Root(2, 3))

    def test_rejects_non_closed_root_set(self):
        with pytest.raises(ValueError, match="not closed"):
            UnipotentChart(3, [(1, 2), (2, 3)])

    def test_rejects_bad_roots(self):
        with pytest.raises(ValueError):
            UnipotentChart(3, [(3, 3)])
        with pytest.raises(ValueError):
            UnipotentChart(3, [(1, 4)])

    def test_generic_element_inverse(self):
        chart = UnipotentChart(3, [(1, 2), (2, 3), (1, 3)])
        product = from_package(chart.generic_element()) * generic_inverse(chart)
        assert product == screening_oracle.PolyMatrix.identity(3)


class TestLeftAction:
    def test_sl2(self):
        chart = UnipotentChart(2, [(1, 2)])
        assert left_action_coeffs(1, chart) == {Root(1, 2): Poly.const(1)}

    def test_sl3_first_simple_root(self):
        chart = UnipotentChart(3, [(1, 2), (2, 3), (1, 3)])
        coeffs = left_action_coeffs(1, chart)
        assert coeffs[Root(1, 2)] == 1
        assert coeffs[Root(1, 3)] == _z(2, 3) * Fraction(1, 2)
        assert coeffs[Root(2, 3)].is_zero()

    def test_sl3_second_simple_root(self):
        chart = UnipotentChart(3, [(1, 2), (2, 3), (1, 3)])
        coeffs = left_action_coeffs(2, chart)
        assert coeffs[Root(2, 3)] == 1
        assert coeffs[Root(1, 3)] == -_z(1, 2) * Fraction(1, 2)
        assert coeffs[Root(1, 2)].is_zero()

    def test_rejects_element_off_the_chart(self):
        chart = UnipotentChart(3, [(1, 3), (2, 3)])
        with pytest.raises(ValueError, match="outside the chart"):
            left_action_coeffs(1, chart)

    def test_rejects_size_mismatch(self):
        chart = UnipotentChart(3, [(1, 2), (2, 3), (1, 3)])
        with pytest.raises(ValueError, match="size mismatch"):
            left_action_of(ExactMatrix.unit(4, 1, 2), chart)

    def test_index_range(self):
        chart = UnipotentChart(2, [(1, 2)])
        with pytest.raises(ValueError, match="out of range"):
            left_action_coeffs(2, chart)


def _exact_exp(m: ExactMatrix) -> ExactMatrix:
    result = ExactMatrix.identity(m.n)
    term = ExactMatrix.identity(m.n)
    for k in range(1, m.n + 1):
        term = term * m * Fraction(1, k)
        result = result + term
    assert (term * m).is_zero()
    return result


def _dual_exp(real: ExactMatrix, infin: ExactMatrix):
    """exp of (real + eps*infin) with eps^2 = 0, as a pair of exact matrices."""
    n = real.n
    result = (ExactMatrix.identity(n), ExactMatrix.zero(n))
    term = (ExactMatrix.identity(n), ExactMatrix.zero(n))
    for k in range(1, 2 * n + 1):
        term = (
            term[0] * real * Fraction(1, k),
            (term[0] * infin + term[1] * real) * Fraction(1, k),
        )
        result = (result[0] + term[0], result[1] + term[1])
    assert term[0].is_zero() and term[1].is_zero()
    return result


class TestDualNumberOracle:
    """Check the flow definition: exp(eps·w)·g(z) = g(z + eps·P(z))."""

    def _check(self, n, chart_roots, i, values):
        chart = UnipotentChart(n, chart_roots)
        coeffs = left_action_coeffs(i, chart)
        table = {("z", root): Fraction(v) for root, v in zip(chart.roots, values)}
        z_val = ExactMatrix(
            n, {tuple(root): table[("z", root)] for root in chart.roots}
        )
        values = {root: coeffs[root].substitute(table) for root in chart.roots}
        assert all(v.is_constant() for v in values.values())
        p_val = ExactMatrix(
            n, {tuple(root): v.terms.get((), 0) for root, v in values.items()}
        )
        g_val = _exact_exp(z_val)
        lhs = (g_val, ExactMatrix.unit(n, i, i + 1) * g_val)
        rhs = _dual_exp(z_val, p_val)
        assert lhs == rhs

    def test_sl3_fixed_values(self):
        roots = [(1, 2), (2, 3), (1, 3)]
        self._check(3, roots, 1, [Fraction(1, 2), Fraction(-2, 3), 3])
        self._check(3, roots, 2, [5, Fraction(1, 7), Fraction(-3, 4)])

    def test_sl4_fixed_values(self):
        roots = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
        values = [1, Fraction(-1, 2), 2, Fraction(2, 5), -1, Fraction(1, 3)]
        for i in (1, 2, 3):
            self._check(4, roots, i, values)

    @given(
        i=st.integers(min_value=1, max_value=2),
        values=st.lists(
            st.integers(min_value=-4, max_value=4), min_size=3, max_size=3
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_sl3_sampled_values(self, i, values):
        self._check(3, [(1, 2), (2, 3), (1, 3)], i, values)


def _derivation_commutator(p, q, chart):
    """[D_p, D_q] on the chart coordinates, as coefficient polynomials of the
    oracle ring."""
    p, q = from_package(p), from_package(q)
    out = {}
    for root in chart.roots:
        acc = screening_oracle.Poly()
        for beta in chart.roots:
            var = ("z", beta)
            acc = acc + p[beta] * derivative(q[root], var)
            acc = acc - q[beta] * derivative(p[root], var)
        out[root] = acc
    return out


class TestDerivationLaws:
    @pytest.mark.parametrize("n", [3, 4])
    def test_left_action_is_an_anti_homomorphism(self, n):
        chart = UnipotentChart(n, [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)])
        units = {i: ExactMatrix.unit(n, i, i + 1) for i in range(1, n)}
        actions = {i: left_action_of(units[i], chart) for i in units}
        for i in units:
            for j in units:
                lhs = _derivation_commutator(actions[i], actions[j], chart)
                rhs = left_action_of(bracket(units[j], units[i]), chart)
                assert lhs == from_package(rhs), (i, j)

    def test_right_action_is_a_homomorphism(self):
        n = 3
        chart = UnipotentChart(n, [(1, 2), (2, 3), (1, 3)])
        units = {i: ExactMatrix.unit(n, i, i + 1) for i in (1, 2)}
        actions = {i: right_action_of(units[i], chart) for i in units}
        for i in units:
            for j in units:
                lhs = _derivation_commutator(actions[i], actions[j], chart)
                rhs = right_action_of(bracket(units[i], units[j]), chart)
                assert lhs == from_package(rhs), (i, j)

    def test_left_and_right_actions_commute(self):
        n = 3
        chart = UnipotentChart(n, [(1, 2), (2, 3), (1, 3)])
        for i in (1, 2):
            for j in (1, 2):
                left = left_action_of(ExactMatrix.unit(n, i, i + 1), chart)
                right = right_action_of(ExactMatrix.unit(n, j, j + 1), chart)
                comm = _derivation_commutator(left, right, chart)
                assert all(p.is_zero() for p in comm.values()), (i, j)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_weight_homogeneity(self, n):
        chart = UnipotentChart(n, [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)])

        def weight(root):
            vec = [0] * n
            vec[root[0] - 1] += 1
            vec[root[1] - 1] -= 1
            return vec

        for i in range(1, n):
            coeffs = left_action_coeffs(i, chart)
            for alpha, poly in coeffs.items():
                expected = [
                    a - b for a, b in zip(weight(alpha), weight(Root(i, i + 1)))
                ]
                for mono, _c in poly.items():
                    total = [0] * n
                    for (kind, root), exp in mono:
                        assert kind == "z"
                        w = weight(root)
                        total = [t + exp * x for t, x in zip(total, w)]
                    assert total == expected, (i, alpha, mono)


class TestG0Conjugate:
    def test_sl3_example(self):
        chart = UnipotentChart(3, [(2, 3)])
        result = g0_conjugate(1, chart)
        assert result == from_package(PolyMatrix(3, {(1, 2): 1, (1, 3): _z(2, 3)}))

    def test_empty_chart_is_identity_conjugation(self):
        chart = UnipotentChart(3, [])
        assert g0_conjugate(2, chart) == from_package(PolyMatrix(3, {(2, 3): 1}))

    def test_index_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            g0_conjugate(3, UnipotentChart(3, []))


# ----------------------------------------------------------------------
# screening sets
# ----------------------------------------------------------------------


class TestScreeningSetsForGoodPairs:
    def test_principal_sl2(self):
        sset = screening_coeffs(_left_pair((2,)))
        assert sset.cases == ("I_11",)
        assert sset.coefficients == (Poly.const(1),)

    def test_two_one_left_aligned(self):
        sset = screening_coeffs(_left_pair((2, 1)))
        assert sset.cases == ("I_11", "I_00")
        assert sset.coefficients[0] == 1
        assert sset.coefficients[1] == Poly.variable("beta", (2, 3))
        assert sset.chart_roots == (Root(2, 3),)

    def test_zero_orbit_gives_affine_screenings(self):
        sset = screening_coeffs(_left_pair((1, 1, 1)))
        assert sset.cases == ("I_00", "I_00")
        coeffs = left_action_coeffs(1, UnipotentChart(3, [(1, 2), (2, 3), (1, 3)]))
        expected = Poly()
        for root, p in coeffs.items():
            expected = expected + p * Poly.variable("beta", root)
        assert sset.coefficients[0] == expected

    def test_sides_coincide_for_a_good_pair(self):
        source = screening_coeffs(_left_pair((2, 1)), "source")
        target = screening_coeffs(_left_pair((2, 1)), "target")
        assert source.coefficients == target.coefficients
        assert fourier_compare(source, target)

    def test_rejects_bad_side(self):
        with pytest.raises(ValueError, match="side"):
            screening_coeffs(_left_pair((2,)), "upper")

    def test_rejects_other_inputs(self):
        with pytest.raises(TypeError):
            screening_coeffs(Partition((2, 1)))


class TestScreeningSetsForData:
    def test_virasoro_step(self):
        datum = _datum((1, 1), (2,))
        source = screening_coeffs(datum, "source")
        target = screening_coeffs(datum, "target")
        assert source.cases == ("I_01",)
        assert source.coefficients[0] == Poly.variable("beta", 1)
        assert target.coefficients[0] == 1
        assert target.split.pairs == 0

    def test_bershadsky_polyakov_step(self):
        datum = _datum((1, 1, 1), (2, 1))
        source = screening_coeffs(datum, "source")
        target = screening_coeffs(datum, "target")
        assert source.cases == ("I_00", "I_01")
        assert source.coefficients[0] == Poly.variable("beta", (1, 2))
        assert source.coefficients[1] == (
            -_z(1, 2) * Poly.variable("beta", 1) + Poly.variable("beta", 2)
        )
        assert target.coefficients[1] == -_z(1, 2)

    def test_case_tags_of_a_two_row_move(self):
        sset = screening_coeffs(_datum((3, 2), (4, 1)))
        assert sset.cases == ("I_11", "I_01", "I_10", "I_01")

    def test_all_four_cases_appear(self):
        datum = _datum((3, 2, 2), (4, 2, 1))
        sset = screening_coeffs(datum)
        assert set(sset.cases) == {"I_00", "I_01", "I_10", "I_11"}

    def test_hook_case_tags(self):
        datum = _datum((2, 1, 1), (2, 2))
        sset = screening_coeffs(datum)
        assert len(sset.cases) == 3
        assert all(tag in {"I_00", "I_01", "I_10", "I_11"} for tag in sset.cases)

    def test_i11_coefficients_use_only_chart_coordinates(self):
        for lam, mu in [((3, 2), (4, 1)), ((2, 2), (3, 1)), ((3, 3), (4, 2))]:
            sset = screening_coeffs(_datum(lam, mu))
            chart_vars = {("z", root) for root in sset.chart_roots}
            for case, poly in zip(sset.cases, sset.coefficients):
                if case == "I_11":
                    assert _variables(poly) <= chart_vars, (lam, mu)

    def test_source_symbols_by_case(self):
        datum = _datum((3, 2), (4, 1))
        sset = screening_coeffs(datum, "source")
        for case, poly in zip(sset.cases, sset.coefficients):
            kinds = {var[0] for var in _variables(poly)}
            if case == "I_01":
                assert "beta" in kinds and "gamma" not in kinds
            elif case == "I_10":
                assert kinds <= {"z", "gamma"}


def test_both_sides_of_one_datum_share_one_chart(monkeypatch):
    """One left action per (0,0) simple root and one chart exponential for
    the source and the target together."""
    monkeypatch.setattr(screening, "_memo", [])
    counts = {"left": 0, "exp": 0}
    left, exp = screening.left_action_coeffs, UnipotentChart.generic_element

    def counted_left(i, chart):
        counts["left"] += 1
        return left(i, chart)

    def counted_exp(chart):
        counts["exp"] += 1
        return exp(chart)

    monkeypatch.setattr(screening, "left_action_coeffs", counted_left)
    monkeypatch.setattr(UnipotentChart, "generic_element", counted_exp)
    datum = _datum((5, 3, 3, 3), (5, 4, 3, 2))
    source = screening_coeffs(datum, "source")
    target = screening_coeffs(datum, "target")
    assert source.cases == target.cases
    assert counts == {"left": source.cases.count("I_00"), "exp": 1}
    assert counts["left"] > 0


def test_the_omega_split_inverts_one_matrix(monkeypatch):
    """The split of [3, 2] -> [4, 1] pairs one vector, yet screening_pair
    inverts only the coordinate table of the u-basis."""
    datum = _datum((3, 2), (4, 1))
    original, calls = screening.inverse, []

    def counted(m):
        calls.append(m)
        return original(m)

    for name, module in list(sys.modules.items()):
        if name.startswith("slred") and getattr(module, "inverse", None) is original:
            monkeypatch.setattr(module, "inverse", counted)
    source, _target = screening.screening_pair(datum)
    assert source.split.pairs == 1
    assert len(calls) == 1


def test_conjugated_units_are_outer_products_on_every_box_move():
    """ginv·E_i·g, read off column i of ginv and row i+1 of g, equals the two
    matrix products for each simple root outside the (0,0) cell."""
    checked = 0
    for n in range(2, 9):
        for lam, mu in _box_moves(n):
            datum = build_reduction(lam, mu)
            bi = BiGrading(
                grading_element_of(datum.pyr_lam), grading_element_of(datum.pyr_mu)
            )
            chart = UnipotentChart(n, screening._positive_roots(bigrade(bi).get((0, 0))))
            g = chart.generic_element()
            ginv = screening._negate_coordinates(g)
            for i in range(1, n):
                if tuple(bi.degree_of(Root(i, i + 1))) != (0, 0):
                    expected = ginv * PolyMatrix.unit(n, i, i + 1) * g
                    unit = screening._conjugated_unit(ginv, g, i)
                    assert unit == expected, (lam.parts, mu.parts, i)
                    checked += 1
    assert checked == 330


class TestOmegaSplit:
    """The package's duals against the bases of the oracle split."""

    @pytest.mark.parametrize(
        "lam, mu",
        [((3, 2), (4, 1)), ((2, 1, 1), (2, 2)), ((3, 3, 3), (4, 3, 2))],
    )
    def test_dual_bases(self, lam, mu):
        datum = _datum(lam, mu)
        split, oracle = screening_coeffs(datum).split, omega_split_of(datum)
        assert oracle.total == split.pairs + len(datum.ghost_basis)
        for a, dual in enumerate(split.u_duals):
            for b, u in enumerate(oracle.u_basis):
                assert trace_form(dual, u) == (1 if a == b else 0)
        for a, dual in enumerate(split.v_duals):
            for b, v in enumerate(oracle.v_basis):
                assert trace_form(dual, v) == (1 if a == b else 0)

    @pytest.mark.parametrize("lam, mu", [((3, 2), (4, 1)), ((3, 3, 3), (4, 3, 2))])
    def test_bracket_route_to_the_u_duals(self, lam, mu):
        # [v_j, f] realizes the same pairing on the (0,1) cell as the j-th dual
        datum = _datum(lam, mu)
        oracle = omega_split_of(datum)
        for j, v in enumerate(oracle.v_basis):
            alt = bracket(v, datum.f_lam)
            for b, u in enumerate(oracle.u_basis):
                assert trace_form(alt, u) == (1 if j == b else 0)

    @pytest.mark.parametrize("lam, mu", [((3, 2), (4, 1)), ((2, 1, 1), (2, 2))])
    def test_step_nilpotent_annihilates_the_paired_block(self, lam, mu):
        datum = _datum(lam, mu)
        split, oracle = screening_coeffs(datum).split, omega_split_of(datum)
        for u in oracle.u_basis[: split.pairs]:
            assert trace_form(datum.f_circ, u) == 0

    def test_ghost_constants_equal_the_character(self):
        for lam, mu in [((1, 1), (2,)), ((3, 2), (4, 1)), ((3, 3, 3), (4, 3, 2))]:
            datum = _datum(lam, mu)
            split = screening_coeffs(datum).split
            assert split.ghost_constants == tuple(
                Fraction(c) for c in datum.character
            )


# ----------------------------------------------------------------------
# the Fourier-side comparison
# ----------------------------------------------------------------------

_EXPECTED_SIGN = {"I_00": 1, "I_01": -1, "I_10": -1, "I_11": 1}


class TestFourierCompare:
    def test_virasoro_sign(self):
        datum = _datum((1, 1), (2,))
        source = screening_coeffs(datum, "source")
        target = screening_coeffs(datum, "target")
        assert fourier_signs(source, target) == (-1,)
        assert fourier_compare(source, target)

    def test_bershadsky_polyakov_signs(self):
        datum = _datum((1, 1, 1), (2, 1))
        source = screening_coeffs(datum, "source")
        target = screening_coeffs(datum, "target")
        assert fourier_signs(source, target) == (1, -1)

    def test_sign_pattern_follows_the_cases(self):
        datum = _datum((3, 2), (4, 1))
        source = screening_coeffs(datum, "source")
        target = screening_coeffs(datum, "target")
        for case, sign in zip(source.cases, fourier_signs(source, target)):
            assert sign in (0, _EXPECTED_SIGN[case]), case

    # The Fourier sweep through N <= 13: 756 box-move pairs in all.
    @pytest.mark.parametrize("n", range(2, 14))
    def test_every_box_move_matches(self, n):
        for lam, mu in _box_moves(n):
            datum = build_reduction(lam, mu)
            source = screening_coeffs(datum, "source")
            target = screening_coeffs(datum, "target")
            signs = fourier_signs(source, target)
            assert all(s is not None for s in signs), (lam.parts, mu.parts)
            for case, sign in zip(source.cases, signs):
                assert sign in (0, _EXPECTED_SIGN[case]), (lam.parts, mu.parts, case)

    def test_zero_and_mismatch_entries(self):
        """Two vanishing coefficients read 0; a transported coefficient that is
        neither the target one nor its negative reads None."""
        datum = _datum((1, 1, 1), (2, 1))
        source = screening_coeffs(datum, "source")
        target = screening_coeffs(datum, "target")
        source = dataclasses.replace(source, coefficients=(Poly(), source.coefficients[1]))
        target = dataclasses.replace(
            target, coefficients=(Poly(), target.coefficients[1] + 1)
        )
        assert fourier_signs(source, target) == (0, None)
        assert not fourier_compare(source, target)

    def test_rejects_swapped_sides(self):
        datum = _datum((1, 1), (2,))
        source = screening_coeffs(datum, "source")
        target = screening_coeffs(datum, "target")
        with pytest.raises(ValueError, match="source set and a target set"):
            fourier_compare(target, source)

    def test_rejects_incompatible_charts(self):
        source = screening_coeffs(_datum((1, 1), (2,)), "source")
        target = screening_coeffs(_datum((1, 1, 1), (2, 1)), "target")
        with pytest.raises(ValueError, match="incompatible"):
            fourier_compare(source, target)

    def test_rejects_foreign_pairing(self):
        datum = _datum((1, 1), (2,))
        source = screening_coeffs(datum, "source")
        target = screening_coeffs(datum, "target")
        other = screening_coeffs(_datum((2, 1), (3,)), "source")
        assert other.split != source.split
        with pytest.raises(ValueError, match="incompatible"):
            fourier_compare(source, dataclasses.replace(target, split=other.split))


# ----------------------------------------------------------------------
# facts that screening reads without checking them again
# ----------------------------------------------------------------------


def _cells(datum):
    bi = BiGrading(grading_element_of(datum.pyr_lam), grading_element_of(datum.pyr_mu))
    return bi, bigrade(bi)


def test_the_certificate_fixes_the_split_cells_on_every_box_move():
    """For every box move with N <= 10, cells (0,1) and (1,0) hold only
    positive roots, and the certificate's complement is the pivot roots of the
    ad(f_lam)-kernel on cell (0,1): the omega split reads both as they are."""
    checked = 0
    for n in range(2, 11):
        for lam, mu in _box_moves(n):
            datum = build_reduction(lam, mu)
            _bi, cells = _cells(datum)
            roots01, roots10 = cells[(0, 1)], cells.get((1, 0), ())
            assert all(root.is_positive for root in roots01 + roots10), (lam, mu)
            _kernel, pivots = kernel_on_basis(datum.f_lam, roots01)
            assert datum.certificate.complement == tuple(
                roots01[k] for k in pivots
            ), (lam, mu)
            checked += 1
    assert checked == 229


def _stays_on_chart(z, w, chart):
    have = set(chart.roots)
    return all(pos in have for pos, _p in screening._bernoulli_series(z, w).items())


def test_translation_series_stay_on_their_chart():
    """The series behind every (0,0) left action of every box move with
    N <= 10, and behind every simple root's left and right action on the full
    charts of sl_2 ... sl_5, is supported on the chart, so reading it on the
    chart's roots drops nothing."""
    checked = 0
    for n in range(2, 11):
        for lam, mu in _box_moves(n):
            bi, cells = _cells(build_reduction(lam, mu))
            chart = UnipotentChart(n, screening._positive_roots(cells[(0, 0)]))
            for i in range(1, n):
                if bi.degree_of(Root(i, i + 1)) == (0, 0):
                    w = ExactMatrix.unit(n, i, i + 1)
                    assert _stays_on_chart(chart.coordinate_matrix(), w, chart), (lam, mu, i)
                    checked += 1
    assert checked == 698
    for n in range(2, 6):
        chart = UnipotentChart(n, [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)])
        z = chart.coordinate_matrix()
        for i in range(1, n):
            w = ExactMatrix.unit(n, i, i + 1)
            assert _stays_on_chart(z, w, chart) and _stays_on_chart(-z, w, chart), (n, i)


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------


class TestScreeningJson:
    def test_shape(self):
        doc = screening_coeffs(_datum((1, 1, 1), (2, 1)), "target").to_json()
        assert doc["n"] == 3
        assert doc["side"] == "target"
        assert doc["chart"] == [[1, 2]]
        assert [entry["case"] for entry in doc["screenings"]] == ["I_00", "I_01"]
        assert doc["screenings"][1]["polynomial"] == [
            {"monomial": {"z_(1,2)": 1}, "coeff": "-1"}
        ]

    def test_deterministic(self):
        first = json.dumps(screening_coeffs(_datum((3, 2), (4, 1)), "source").to_json())
        second = json.dumps(screening_coeffs(_datum((3, 2), (4, 1)), "source").to_json())
        assert first == second
