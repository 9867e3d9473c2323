"""Tests for the bigrading decomposition and the compatibility certificate."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import dense_oracle
from pyramid_oracle import row_labels
from slred.lie import (
    ExactMatrix,
    GradingElement,
    Root,
    all_roots,
    bracket,
    jordan_type,
    rank_of_rows,
    trace_form,
)
from slred.orbits import Partition, box_moves_from, dominance_leq, partitions_of
from slred.pyramids import (
    Pyramid,
    align_for_theorem,
    grading_element_of,
    left_aligned_offsets,
    nilpotent_from_pyramid,
)
from slred.reduction import build_reduction
from slred.star import (
    BiGrading,
    bigrade,
    check_star,
    compute_omega,
    kernel_on_basis,
)

E = ExactMatrix.unit
F = Fraction


def _case_one_pair(a, b, s):
    """Full-window pair for lam = [a, b, ..., b] built from the closed formulas.

    Independent of the reduction builder: the auxiliary nilpotent comes from
    the explicit index pattern, not from a kernel computation.
    """
    lam = Partition([a] + [b] * (s + 1))
    rows = s + 2
    source = align_for_theorem(lam, 1, rows, "source")
    target = align_for_theorem(lam, 1, rows, "target")
    f1 = nilpotent_from_pyramid(source)
    r, step = a - b, s + 2
    f_circ = ExactMatrix(
        lam.n, {(r + (j + 1) * step, r + 1 + j * step): F(1) for j in range(b)}
    )
    bi = BiGrading(grading_element_of(source), grading_element_of(target))
    return f1, f1 + f_circ, f_circ, bi


def _ghost_formula(a, b, s):
    """Explicit centralizer basis of the (0,1) cell for the full-window pair."""
    lam = Partition([a] + [b] * (s + 1))
    r, step = a - b, s + 2
    return [
        ExactMatrix(
            lam.n,
            {(r + i + j * step, r + (j + 1) * step): F(1) for j in range(b)},
        )
        for i in range(1, step)
    ]


# ----------------------------------------------------------------------
# BiGrading / bigrade
# ----------------------------------------------------------------------


def test_bigrading_rejects_size_mismatch():
    with pytest.raises(ValueError):
        BiGrading(GradingElement.zero(2), GradingElement.zero(3))


def test_bigrading_rejects_non_integral():
    half = GradingElement((F(1, 4), F(-1, 4)))
    with pytest.raises(ValueError):
        BiGrading(half, GradingElement.zero(2))


def test_bigrade_equal_gradings_is_diagonal():
    x = grading_element_of(Pyramid([3, 2], (1, 0)))
    pieces = bigrade(BiGrading(x, x))
    assert all(i == j for (i, j) in pieces)
    assert sum(len(roots) for roots in pieces.values()) + 5 - 1 == 5 * 5 - 1


def test_bigrade_sl2_trivial_times_principal():
    bi = BiGrading(GradingElement.zero(2), GradingElement((F(1, 2), F(-1, 2))))
    pieces = bigrade(bi)
    assert pieces[(0, 1)] == (Root(1, 2),)
    assert pieces[(0, -1)] == (Root(2, 1),)
    # the Cartan's cell is present with no roots, and carries the n - 1 = 1
    # Cartan directions
    assert pieces[(0, 0)] == ()
    assert sum(len(roots) for roots in pieces.values()) + 2 - 1 == 3


def test_bigrade_sl9_full_partition():
    *_rest, bi = _case_one_pair(3, 3, 1)
    pieces = bigrade(bi)
    assert sum(len(roots) for roots in pieces.values()) + 9 - 1 == 9 * 9 - 1
    seen = [r for roots in pieces.values() for r in roots]
    assert sorted(seen) == sorted(all_roots(9))
    assert len(seen) == len(set(seen))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_bigrade_partitions_all_roots(data):
    n = data.draw(st.integers(2, 5))
    partitions = partitions_of(n)
    lam1 = data.draw(st.sampled_from(partitions))
    lam2 = data.draw(st.sampled_from(partitions))
    x1 = grading_element_of(Pyramid(lam1, left_aligned_offsets(lam1)))
    x2 = grading_element_of(Pyramid(lam2, left_aligned_offsets(lam2)))
    pieces = bigrade(BiGrading(x1, x2))
    assert (0, 0) in pieces
    assert sum(len(roots) for roots in pieces.values()) + n - 1 == n * n - 1


# ----------------------------------------------------------------------
# kernel_on_basis / compute_omega
# ----------------------------------------------------------------------


def _complement(f1, roots):
    """Pivot roots of the echelonized ad(f1)-kernel on a cell's roots."""
    _kernel, pivots = kernel_on_basis(f1, roots)
    return [roots[k] for k in pivots]


def test_centralizer_of_zero_is_whole_piece():
    roots = (Root(1, 2), Root(1, 3))
    kernel, _pivots = kernel_on_basis(ExactMatrix.zero(3), roots)
    assert kernel == [E(3, *root) for root in roots]


def test_centralizer_empty_piece():
    assert kernel_on_basis(E(2, 2, 1), ())[0] == []


def test_centralizer_sl9_matches_index_formula():
    f1, _f2, _fc, bi = _case_one_pair(3, 3, 1)
    roots01 = bigrade(bi)[(0, 1)]
    assert roots01 == (
        Root(1, 3),
        Root(2, 3),
        Root(4, 6),
        Root(5, 6),
        Root(7, 9),
        Root(8, 9),
    )
    assert kernel_on_basis(f1, roots01)[0] == _ghost_formula(3, 3, 1)


def test_omega_vacuous_when_both_pieces_vanish():
    rows, nondegenerate = compute_omega(E(2, 2, 1), _complement(E(2, 2, 1), ()), ())
    assert rows == []
    assert nondegenerate


def test_omega_degenerate_for_zero_f1_with_nonzero_complementary_piece():
    rows, nondegenerate = compute_omega(
        ExactMatrix.zero(2), _complement(ExactMatrix.zero(2), ()), (Root(1, 2),)
    )
    assert rows == []
    assert not nondegenerate


def test_omega_sl9_square_and_full_rank():
    f1, _f2, _fc, bi = _case_one_pair(3, 3, 1)
    pieces = bigrade(bi)
    rows, nondegenerate = compute_omega(
        f1, _complement(f1, pieces[(0, 1)]), pieces[(1, 0)]
    )
    assert len(rows) == len(rows[0]) == 4
    assert nondegenerate
    assert rank_of_rows([dict(enumerate(row)) for row in rows]) == 4


# ----------------------------------------------------------------------
# check_star
# ----------------------------------------------------------------------


def test_check_star_sl2_passes():
    bi = BiGrading(GradingElement.zero(2), GradingElement((F(1, 2), F(-1, 2))))
    cert = check_star(ExactMatrix.zero(2), E(2, 2, 1), bi)
    assert cert.passes
    assert cert.grading_ok and cert.nilpotent_ok and cert.omega_nondegenerate
    assert cert.abelian_01 and cert.abelian_10
    assert cert.good_pair_1 and cert.good_pair_2
    assert cert.ghost_basis == (E(2, 1, 2),)
    assert cert.f_circ == E(2, 2, 1)
    assert cert.character == (F(1),)
    assert cert.omega_matrix == ()
    assert cert.violations == {}


def _sl2_zero_gradings():
    bi = BiGrading(GradingElement.zero(2), GradingElement.zero(2))
    return ExactMatrix.zero(2), E(2, 2, 1), bi


def test_check_star_sl2_zero_grading_fails_nilpotent_condition():
    cert = check_star(*_sl2_zero_gradings())
    assert not cert.passes
    assert not cert.nilpotent_ok
    assert "nilpotent" in cert.violations
    assert not cert.good_pair_2


def test_check_star_rejects_non_nilpotent():
    bi = BiGrading(GradingElement.zero(2), GradingElement.zero(2))
    with pytest.raises(ValueError):
        check_star(ExactMatrix.identity(2), ExactMatrix.zero(2), bi)


def test_check_star_rejects_non_nilpotent_f2():
    # the goodness check on (f2, x2) is the guard: f2 carries a 3-cycle
    f1 = E(3, 1, 2) + E(3, 2, 3)
    f2 = f1 + E(3, 3, 1)
    bi = BiGrading(
        GradingElement.from_xcoords([2, 1, 0]), GradingElement.from_xcoords([0, 1, 1])
    )
    assert GradingElement.zero(3) not in (bi.x1, bi.x2)
    with pytest.raises(ValueError, match="not nilpotent"):
        check_star(f1, f2, bi)
    with pytest.raises(ValueError, match="not nilpotent"):
        check_star(f2, f1, bi)


def test_check_star_rejects_size_mismatch():
    bi = BiGrading(GradingElement.zero(2), GradingElement.zero(2))
    with pytest.raises(ValueError):
        check_star(ExactMatrix.zero(3), ExactMatrix.zero(2), bi)


def test_check_star_sl9_theorem_pair():
    f1, f2, f_circ, bi = _case_one_pair(3, 3, 1)
    cert = check_star(f1, f2, bi)
    assert cert.passes
    assert cert.good_pair_1 and cert.good_pair_2
    assert cert.abelian_01 and cert.abelian_10
    assert cert.ghost_basis == tuple(_ghost_formula(3, 3, 1))
    assert cert.f_circ == f_circ
    assert cert.character == (F(3), F(0))
    assert len(cert.omega_matrix) == 4
    assert cert.violations == {}


@pytest.mark.parametrize("abs_", [(1, 1, 0), (1, 1, 1), (2, 1, 0), (3, 1, 1), (2, 2, 1), (3, 2, 0)])
def test_check_star_full_window_family(abs_):
    a, b, s = abs_
    f1, f2, f_circ, bi = _case_one_pair(a, b, s)
    cert = check_star(f1, f2, bi)
    assert cert.passes, cert.violations
    assert cert.ghost_basis == tuple(_ghost_formula(a, b, s))
    assert cert.character == tuple(F(b) if i == 0 else F(0) for i in range(s + 1))
    # second grading really lands in the smaller orbit
    mu = [a + 1] + [b] * s + ([b - 1] if b > 1 else [])
    assert jordan_type(f2) == tuple(sorted(mu, reverse=True))
    assert dominance_leq(jordan_type(f1), jordan_type(f2))


def test_check_star_ghosts_commute_pairwise():
    f1, f2, _fc, bi = _case_one_pair(2, 2, 1)
    cert = check_star(f1, f2, bi)
    for u in cert.ghost_basis:
        for v in cert.ghost_basis:
            assert bracket(u, v).is_zero()


def test_certificate_json_is_deterministic():
    f1, f2, _fc, bi = _case_one_pair(1, 1, 1)
    blob1 = json.dumps(check_star(f1, f2, bi).to_json(), sort_keys=True)
    blob2 = json.dumps(check_star(f1, f2, bi).to_json(), sort_keys=True)
    assert blob1 == blob2
    data = json.loads(blob1)
    assert data["pass"] is True
    assert data["ghost_basis"][0]["entries"]


def _flags(cert):
    return (
        cert.grading_ok,
        cert.nilpotent_ok,
        cert.abelian_01,
        cert.abelian_10,
        cert.omega_nondegenerate,
        cert.good_pair_1,
        cert.good_pair_2,
    )


def _second_pair_not_good():
    # x2 puts the one positive root of sl_2 in degree 2, so (f, x2) is not
    # good, and every other condition holds
    p = Pyramid([2], (-1,))
    f = nilpotent_from_pyramid(p)
    bi = BiGrading(grading_element_of(p), grading_element_of(Pyramid([1, 1], (-1, 1))))
    return f, f, bi


def _first_pair_not_good():
    # row 2 of the [2, 2] diagram overhangs row 1 on the left, so it is no
    # pyramid and its grading is not good for its own f
    p1, p2 = Pyramid([2, 2], (0, -1)), Pyramid([4], (-1,))
    bi = BiGrading(grading_element_of(p1), grading_element_of(p2))
    return nilpotent_from_pyramid(p1), nilpotent_from_pyramid(p2), bi


def _positive_root_in_bidegree_zero_two():
    f = ExactMatrix(3, {(2, 1): 1})
    return f, f, BiGrading(GradingElement.zero(3), GradingElement([1, 0, -1]))


def _neither_pair_good():
    # grading, nilpotent and omega conditions hold, but E_21 has degree 0
    # under the zero grading, so neither (E_21, 0) is a good pair
    bi = BiGrading(GradingElement.zero(2), GradingElement.zero(2))
    return E(2, 2, 1), E(2, 2, 1), bi


def test_passes_requires_the_second_good_pair():
    cert = check_star(*_second_pair_not_good())
    assert _flags(cert) == (True, True, True, True, True, True, False)
    assert cert.violations == {"good_pair_2": ["(f2, x2) is not a good pair"]}
    assert not cert.passes


def test_passes_requires_the_first_good_pair():
    cert = check_star(*_first_pair_not_good())
    assert _flags(cert) == (True, True, True, True, True, False, True)
    assert cert.violations == {"good_pair_1": ["(f1, x1) is not a good pair"]}
    assert not cert.passes


def test_grading_condition_rejects_a_positive_root_of_bidegree_zero_two():
    cert = check_star(*_positive_root_in_bidegree_zero_two())
    assert _flags(cert) == (False, True, False, True, False, False, False)
    assert cert.violations["grading"] == ["(1,3) in (0, 2)"]
    assert not cert.passes


def test_passes_requires_good_pairs():
    cert = check_star(*_neither_pair_good())
    assert cert.grading_ok and cert.nilpotent_ok and cert.omega_nondegenerate
    assert cert.abelian_01 and cert.abelian_10
    assert not cert.good_pair_1 and not cert.good_pair_2
    assert not cert.passes
    assert cert.to_json()["pass"] is False


# the violation key of each flag, in the order of _flags
_VIOLATION_KEYS = (
    "grading",
    "nilpotent",
    "abelian_01",
    "abelian_10",
    "omega",
    "good_pair_1",
    "good_pair_2",
)


@pytest.mark.parametrize(
    "build",
    [
        _sl2_zero_gradings,
        _second_pair_not_good,
        _first_pair_not_good,
        _positive_root_in_bidegree_zero_two,
        _neither_pair_good,
    ],
    ids=lambda build: build.__name__.strip("_"),
)
def test_violations_name_every_failed_condition(build):
    cert = check_star(*build())
    assert not cert.passes
    assert cert.passes == (not cert.violations)
    failed = {key for key, ok in zip(_VIOLATION_KEYS, _flags(cert)) if not ok}
    assert set(cert.violations) == failed
    assert all(cert.violations[key] for key in failed)


# ----------------------------------------------------------------------
# check_star with a conjugator witness
# ----------------------------------------------------------------------


def _theorem_witness():
    """The N = 9 theorem pair with its verified conjugator (g, f_std)."""
    f1, f2, _fc, bi = _case_one_pair(3, 3, 1)
    datum = build_reduction([3, 3, 3], [4, 3, 2])
    assert (datum.f_lam, datum.f_mu_tilde) == (f1, f2)
    return f1, f2, bi, datum.conjugator, datum.f_mu_std, datum.pyr_mu


def test_witness_gives_the_same_certificate_on_the_theorem_pair():
    f1, f2, bi, g, f_std, _target = _theorem_witness()
    with_witness = check_star(f1, f2, bi, witness=(g, f_std))
    assert with_witness == check_star(f1, f2, bi)
    assert with_witness.passes


def test_witness_across_two_x2_levels_is_rejected():
    f1, f2, bi, g, f_std, _target = _theorem_witness()
    # I + f_std commutes with f_std, so g (I + f_std) still conjugates f_std
    # to f2 and is nonsingular, but f_std has x2-degree -1
    g_bad = g * (ExactMatrix.identity(9) + f_std)
    assert f2 * g_bad == g_bad * f_std
    with pytest.raises(ValueError, match="x2-degree"):
        check_star(f1, f2, bi, witness=(g_bad, f_std))


def test_singular_witness_is_rejected():
    f1, f2, bi, g, f_std, target = _theorem_witness()
    # the projection onto one row of the target pyramid commutes with f_std
    # and has x2-degree 0
    row = ExactMatrix(9, {(k, k): F(1) for k in row_labels(target, 1)})
    for g_bad in (g * row, ExactMatrix.zero(9)):
        assert f2 * g_bad == g_bad * f_std
        with pytest.raises(ValueError, match="singular"):
            check_star(f1, f2, bi, witness=(g_bad, f_std))


def test_witness_that_does_not_conjugate_is_rejected():
    f1, f2, bi, _g, f_std, _target = _theorem_witness()
    with pytest.raises(ValueError, match="conjugate"):
        check_star(f1, f2, bi, witness=(ExactMatrix.identity(9), f_std))


def test_the_former_witness_check_rejects_the_same_witnesses():
    f1, f2, bi, g, f_std, target = _theorem_witness()
    row = ExactMatrix(9, {(k, k): F(1) for k in row_labels(target, 1)})
    bad = [
        (g * (ExactMatrix.identity(9) + f_std), "x2-degree"),
        (g * row, "singular"),
        (ExactMatrix.zero(9), "singular"),
        (ExactMatrix.identity(9), "does not conjugate"),
    ]
    for g_bad, message in bad:
        with pytest.raises(ValueError, match=message):
            dense_oracle.witnessed_representative((g_bad, f_std), f2, bi)
        with pytest.raises(ValueError, match=message):
            check_star(f1, f2, bi, witness=(g_bad, f_std))


def test_the_former_witness_check_accepts_every_conjugator():
    checked = 0
    for n in range(2, 11):
        for lam in partitions_of(n):
            for mu, _rows in box_moves_from(lam):
                datum = build_reduction(lam, mu)
                bi = BiGrading(
                    grading_element_of(datum.pyr_lam), grading_element_of(datum.pyr_mu)
                )
                witness = (datum.conjugator, datum.f_mu_std)
                assert dense_oracle.witnessed_representative(
                    witness, datum.f_mu_tilde, bi
                ) == datum.f_mu_std, (lam, mu)
                checked += 1
    assert checked == 229
