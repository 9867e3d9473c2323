"""Tests for pyramid construction, labelling, gradings and goodness."""

import itertools
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pyramid_oracle import raising_operator, row_labels
from slred import pyramids
from slred.lie import (
    ExactMatrix,
    GradingElement,
    Root,
    bracket,
    jordan_type,
    rank_of_rows,
    root_decomposition,
)
from slred.orbits import Partition, box_move_witness, partitions_of
from slred.pyramids import (
    GoodPair,
    Pyramid,
    align_for_theorem,
    good_pair,
    grading_element_of,
    is_good_grading,
    left_aligned_offsets,
    nilpotent_from_pyramid,
    render,
    right_aligned_offsets,
)

E = ExactMatrix.unit
F = Fraction


def _theorem_windows(lam):
    """All (i, j) windows available to the construction for lam."""
    out = []
    n = len(lam)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if len({lam.part(k) for k in range(i + 1, j + 1)}) != 1:
                continue
            if i > 1 and lam.part(i - 1) <= lam.part(i):
                continue
            if j < n and lam.part(j) <= lam.part(j + 1):
                continue
            out.append((i, j))
    return out


# ----------------------------------------------------------------------
# construction and labelling
# ----------------------------------------------------------------------


def _is_canonical(p):
    """Labels run 1, 2, ... by x descending, then by row ascending."""
    order = sorted(p.labels, key=lambda box: (-box[0], box[1]))
    return [p.labels[box] for box in order] == list(range(1, p.n + 1))


def test_three_two_figure_labels():
    p = Pyramid([3, 2], (1, 0))
    assert row_labels(p, 1) == [4, 2, 1]
    assert row_labels(p, 2) == [5, 3]
    assert _is_canonical(p)


def test_single_row_labels_right_to_left():
    p = Pyramid([5], left_aligned_offsets([5]))
    assert row_labels(p, 1) == [5, 4, 3, 2, 1]


def test_three_cubed_left_aligned_columns():
    p = Pyramid([3, 3, 3], left_aligned_offsets([3, 3, 3]))
    assert row_labels(p, 1) == [7, 4, 1]
    assert row_labels(p, 2) == [8, 5, 2]
    assert row_labels(p, 3) == [9, 6, 3]


def test_offsets_length_checked():
    try:
        Pyramid([3, 2], (0,))
    except ValueError:
        pass
    else:
        raise AssertionError("expected an offsets-length error")


def test_explicit_labels_validated():
    # wrong support
    try:
        Pyramid([2], (1,), {(0, 1): 1, (2, 1): 2})
    except ValueError:
        pass
    else:
        raise AssertionError("expected a support error")
    # label order must weakly decrease in x
    try:
        Pyramid([2], (1,), {(0, 1): 1, (1, 1): 2})
    except ValueError:
        pass
    else:
        raise AssertionError("expected a label-order error")
    # a valid non-canonical labelling is accepted where x-ties allow it
    p = Pyramid([1, 1], (0, 0), {(0, 1): 2, (0, 2): 1})
    assert not _is_canonical(p)


def test_global_shift_changes_nothing_derived():
    a = Pyramid([3, 2], (1, 0))
    b = Pyramid([3, 2], (2, 1))
    assert nilpotent_from_pyramid(a) == nilpotent_from_pyramid(b)
    assert grading_element_of(a) == grading_element_of(b)


# ----------------------------------------------------------------------
# derived data
# ----------------------------------------------------------------------


def test_three_two_nilpotent():
    p = Pyramid([3, 2], (1, 0))
    assert nilpotent_from_pyramid(p) == E(5, 2, 1) + E(5, 4, 2) + E(5, 5, 3)


def test_column_partition_nilpotent_is_zero():
    p = Pyramid([1, 1, 1], right_aligned_offsets([1, 1, 1]))
    assert nilpotent_from_pyramid(p).is_zero()
    assert grading_element_of(p) == GradingElement.zero(3)


def test_three_two_grading_element():
    p = Pyramid([3, 2], (1, 0))
    assert grading_element_of(p) == GradingElement(
        [F(6, 5), F(1, 5), F(1, 5), F(-4, 5), F(-4, 5)]
    )


def test_single_box_row_grading():
    p = Pyramid([2], (1,))
    assert grading_element_of(p) == GradingElement([F(1, 2), F(-1, 2)])


def test_jordan_type_matches_partition_small_offsets():
    for n in range(1, 5):
        for lam in partitions_of(n):
            for offsets in itertools.product(range(-2, 3), repeat=len(lam)):
                p = Pyramid(lam, offsets)
                f = nilpotent_from_pyramid(p)
                assert jordan_type(f) == lam.parts, (lam, offsets)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_jordan_type_matches_partition_random_offsets(data):
    n = data.draw(st.integers(min_value=5, max_value=8))
    universe = partitions_of(n)
    lam = universe[data.draw(st.integers(0, len(universe) - 1))]
    offsets = data.draw(
        st.lists(
            st.integers(-2, 2), min_size=len(lam), max_size=len(lam)
        )
    )
    p = Pyramid(lam, offsets)
    assert jordan_type(nilpotent_from_pyramid(p)) == lam.parts


# ----------------------------------------------------------------------
# theorem alignments
# ----------------------------------------------------------------------


def test_align_source_full_window_is_left_aligned():
    assert align_for_theorem([3, 3, 3], 1, 3, "source") == Pyramid(
        [3, 3, 3], left_aligned_offsets([3, 3, 3])
    )


def test_align_two_one():
    p = align_for_theorem([2, 1], 1, 2, "source")
    assert p.row_offset == (1, 0)
    assert row_labels(p, 1) == [2, 1]
    assert row_labels(p, 2) == [3]
    assert nilpotent_from_pyramid(p) == E(3, 2, 1)


def test_align_six_row_example_offsets():
    lam = [6, 5, 3, 3, 3, 2]
    src = align_for_theorem(lam, 2, 5, "source")
    assert src.row_offset == (4, 4, 2, 2, 2, 2)
    tgt = align_for_theorem(lam, 2, 5, "target")
    assert tgt.partition == Partition([6, 6, 3, 3, 2, 2])
    assert tgt.row_offset == (4, 4, 2, 2, 1, 1)


def test_align_target_carries_labels():
    tgt = align_for_theorem([3, 3, 3], 1, 3, "target")
    assert tgt.partition == Partition([4, 3, 2])
    # the box that slid down keeps its source label 9 at (-1, 1)
    assert tgt.labels[(-1, 1)] == 9
    assert row_labels(tgt, 1) == [9, 7, 4, 1]
    assert row_labels(tgt, 2) == [8, 5, 2]
    assert row_labels(tgt, 3) == [6, 3]
    assert not _is_canonical(tgt)


def test_align_target_sl2():
    tgt = align_for_theorem([1, 1], 1, 2, "target")
    assert tgt.partition == Partition([2])
    assert nilpotent_from_pyramid(tgt) == E(2, 2, 1)


def test_align_target_grading_is_labelling_independent():
    # the x-coordinate vector by label agrees with the canonical relabelling
    for n in range(2, 7):
        for lam in partitions_of(n):
            for (i, j) in _theorem_windows(lam):
                tgt = align_for_theorem(lam, i, j, "target")
                canonical = Pyramid(tgt.partition, tgt.row_offset)
                assert grading_element_of(tgt) == grading_element_of(canonical)


def test_align_rejects_bad_windows():
    for args in (([3, 2, 1], 1, 3), ([3, 3], 2, 2), ([2, 2, 2], 2, 3)):
        try:
            align_for_theorem(*args)
        except ValueError:
            pass
        else:
            raise AssertionError(f"expected rejection of {args}")


# ----------------------------------------------------------------------
# goodness
# ----------------------------------------------------------------------


def test_three_two_pair_is_good():
    p = Pyramid([3, 2], (1, 0))
    assert is_good_grading(nilpotent_from_pyramid(p), grading_element_of(p))


def test_wrong_degree_not_good():
    assert not is_good_grading(E(2, 1, 2), GradingElement([F(1, 2), F(-1, 2)]))


def test_zero_pair_is_good():
    assert is_good_grading(ExactMatrix.zero(4), GradingElement.zero(4))


def test_gap_pyramid_not_good():
    p = Pyramid([1, 1], (0, 2))
    assert not is_good_grading(nilpotent_from_pyramid(p), grading_element_of(p))


def test_goodness_types_only_an_f_off_degree_minus_one():
    """Degree -1 makes f nilpotent, so only an f that fails it is typed:
    a non-nilpotent one raises, and a nilpotent one with a diagonal entry
    is not good."""
    x = GradingElement([F(1, 2), F(-1, 2)])
    with pytest.raises(ValueError, match="not nilpotent"):
        is_good_grading(E(2, 1, 1), x)
    diagonal_nilpotent = ExactMatrix(2, {(1, 1): 1, (1, 2): 1, (2, 1): -1, (2, 2): -1})
    assert jordan_type(diagonal_nilpotent) == (2,)
    assert not is_good_grading(diagonal_nilpotent, x)


def test_good_pair_computes_one_jordan_type(monkeypatch):
    calls = []

    def counted(m):
        calls.append(m)
        return jordan_type(m)

    monkeypatch.setattr(pyramids, "jordan_type", counted)
    good_pair(Pyramid([3, 2], (1, 0)))
    assert len(calls) == 1


def test_good_pair_constructor():
    p = Pyramid([2, 1], left_aligned_offsets([2, 1]))
    gp = good_pair(p)
    assert isinstance(gp, GoodPair)
    assert gp.f == E(3, 2, 1)
    try:
        good_pair(Pyramid([1, 1], (0, 2)))
    except ValueError:
        pass
    else:
        raise AssertionError("expected a goodness error")


def test_aligned_pyramids_good_small():
    for n in range(1, 7):
        for lam in partitions_of(n):
            for offsets in (left_aligned_offsets(lam), right_aligned_offsets(lam)):
                p = Pyramid(lam, offsets)
                f = nilpotent_from_pyramid(p)
                x = grading_element_of(p)
                assert jordan_type(f) == lam.parts
                assert is_good_grading(f, x), (lam, offsets)
            for (i, j) in _theorem_windows(lam):
                for stage in ("source", "target"):
                    p = align_for_theorem(lam, i, j, stage)
                    f = nilpotent_from_pyramid(p)
                    assert jordan_type(f) == p.partition.parts
                    assert is_good_grading(f, grading_element_of(p)), (lam, i, j, stage)


def test_simple_roots_graded_zero_or_one():
    for n in range(2, 7):
        for lam in partitions_of(n):
            for offsets in (left_aligned_offsets(lam), right_aligned_offsets(lam)):
                x = grading_element_of(Pyramid(lam, offsets))
                for k in range(1, n):
                    assert x.of_root(Root(k, k + 1)) in (0, 1)


def _kernel_dim_on(f, roots):
    n = f.n
    if not roots:
        return 0
    rows = []
    for r in roots:
        image = bracket(f, ExactMatrix.unit(n, r.i, r.j))
        rows.append(dict(image.items()))
    return len(roots) - rank_of_rows(rows)


def test_upper_centralizer_sits_in_grade_zero():
    # ker(ad f) meets the upper-triangular part only in grade 0
    for n in range(2, 6):
        for lam in partitions_of(n):
            p = Pyramid(lam, left_aligned_offsets(lam))
            f = nilpotent_from_pyramid(p)
            x = grading_element_of(p)
            positive = [r for grade in root_decomposition(x).values() for r in grade if r.is_positive]
            grade0 = [r for r in positive if x.of_root(r) == 0]
            assert _kernel_dim_on(f, positive) == _kernel_dim_on(f, grade0)


def _joint_kernel_dim(mats, roots):
    # dim of {u in span(roots) : [m, u] = 0 for every m in mats}
    if not roots:
        return 0
    n = mats[0].n
    rows = []
    for r in roots:
        unit = ExactMatrix.unit(n, r.i, r.j)
        row = {}
        for k, m in enumerate(mats):
            image = bracket(m, unit)
            row.update(((k, a, b), v) for (a, b), v in image.items())
        rows.append(row)
    return len(roots) - rank_of_rows(rows)


def test_raising_operator_completes_a_triple():
    for n in range(2, 7):
        for lam in partitions_of(n):
            p = Pyramid(lam, left_aligned_offsets(lam))
            f = nilpotent_from_pyramid(p)
            e = raising_operator(p)
            h = bracket(e, f)
            assert all(i == j for (i, j), _v in h.items())
            assert bracket(h, e) == e * 2
            assert bracket(h, f) == f * (-2)


def test_upper_triple_invariants_dimension_formula():
    # dim{u upper-triangular : [e, u] = [f, u] = 0} = sum of m(m-1)/2
    # over the multiplicities m of the parts.  (The kernel of ad f alone
    # can be strictly larger: for [2, 1] it picks up one extra vector.)
    for n in range(2, 7):
        for lam in partitions_of(n):
            p = Pyramid(lam, left_aligned_offsets(lam))
            f = nilpotent_from_pyramid(p)
            e = raising_operator(p)
            x = grading_element_of(p)
            positive = [r for grade in root_decomposition(x).values() for r in grade if r.is_positive]
            expected = sum(m * (m - 1) // 2 for m in Counter(lam.parts).values())
            assert _joint_kernel_dim([f, e], positive) == expected


def test_centralizer_of_f_alone_can_exceed_the_formula():
    lam = Partition([2, 1])
    p = Pyramid(lam, left_aligned_offsets(lam))
    f = nilpotent_from_pyramid(p)
    x = grading_element_of(p)
    positive = [r for grade in root_decomposition(x).values() for r in grade if r.is_positive]
    assert _kernel_dim_on(f, positive) == 1
    assert sum(m * (m - 1) // 2 for m in Counter(lam.parts).values()) == 0


# ----------------------------------------------------------------------
# rendering / serialization
# ----------------------------------------------------------------------


def test_render_ascii_three_two():
    p = Pyramid([3, 2], (1, 0))
    assert render(p, "ascii") == "[5][3]\n[4][2][1]\n-1  0  1"


def test_render_ascii_single_box():
    assert render(Pyramid([1], (0,)), "ascii") == "[1]\n 0"


def test_render_tikz_structure():
    p = Pyramid([3, 2], (1, 0))
    text = render(p, "tikz")
    assert text.startswith("\\documentclass[tikz,border=2mm]{standalone}")
    assert text.count("\\node[box]") == 5
    assert text.count(r"\begin{tikzpicture}") == text.count(r"\end{tikzpicture}") == 1
    assert text.rstrip().endswith("\\end{document}")


def test_render_rejects_unknown_format():
    try:
        render(Pyramid([1], (0,)), "svg")
    except ValueError:
        pass
    else:
        raise AssertionError("expected an unknown-format error")


def test_pyramid_json():
    p = Pyramid([2, 1], (1, 0))
    assert p.to_json() == {
        "partition": [2, 1],
        "row_offset": [1, 0],
        "labels": [[0, 1, 2], [1, 1, 1], [0, 2, 3]],
    }
