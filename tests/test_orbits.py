"""Tests for the partition lattice: dominance, covering, paths."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from slred.orbits import (
    OrbitChain,
    Partition,
    box_move_witness,
    covers_of,
    dominance_leq,
    is_adjacent,
    partitions_of,
    reduction_path,
    transpose,
)

P = Partition


# ----------------------------------------------------------------------
# oracles, written before the implementation was trusted
# ----------------------------------------------------------------------


def oracle_dominance(lam, mu):
    """Padded partial-sum comparison, spelled out."""
    if sum(lam) != sum(mu):
        return False
    length = max(len(lam), len(mu))
    a = list(lam) + [0] * (length - len(lam))
    b = list(mu) + [0] * (length - len(mu))
    return all(sum(a[: k + 1]) <= sum(b[: k + 1]) for k in range(length))


def oracle_covering(lam, mu, universe):
    """mu covers lam iff lam < mu strictly and nothing fits in between."""
    if lam == mu or not oracle_dominance(lam, mu):
        return False
    for nu in universe:
        if nu == lam or nu == mu:
            continue
        if oracle_dominance(lam, nu) and oracle_dominance(nu, mu):
            return False
    return True


# ----------------------------------------------------------------------
# Partition basics
# ----------------------------------------------------------------------


def test_partition_strips_zeros():
    assert P([3, 2, 0, 0]).parts == (3, 2)


@pytest.mark.parametrize("part", [1.5, Fraction(3, 2)])
def test_partition_rejects_non_integral_parts(part):
    with pytest.raises(TypeError):
        P([part, 1])


def test_partition_rejects_increasing():
    try:
        P([2, 3])
    except ValueError:
        pass
    else:
        raise AssertionError("expected a monotonicity error")


def test_partition_counts():
    lam = P([4, 2, 2, 1])
    assert lam.n == 9
    assert lam.part(2) == 2
    assert lam.part(9) == 0
    assert lam.partial_sums() == (4, 6, 8, 9)


def test_partitions_of_reverse_lex():
    assert [p.parts for p in partitions_of(4)] == [
        (4,),
        (3, 1),
        (2, 2),
        (2, 1, 1),
        (1, 1, 1, 1),
    ]
    assert len(partitions_of(8)) == 22


def test_transpose():
    assert transpose(P([3, 2])).parts == (2, 2, 1)
    assert transpose(P([5])).parts == (1,) * 5
    for lam in partitions_of(7):
        assert transpose(transpose(lam)) == lam


# ----------------------------------------------------------------------
# dominance
# ----------------------------------------------------------------------


def test_dominance_examples():
    assert dominance_leq(P([2, 2]), P([3, 1]))
    assert dominance_leq(P([2, 2]), P([2, 2]))
    assert not dominance_leq(P([3, 3]), P([4, 1, 1]))
    assert not dominance_leq(P([4, 1, 1]), P([3, 3]))


def test_dominance_unequal_totals_incomparable():
    assert not dominance_leq(P([2]), P([2, 1]))
    assert not dominance_leq(P([2, 1]), P([2]))


def test_dominance_is_partial_order():
    for n in range(1, 8):
        universe = partitions_of(n)
        for lam in universe:
            assert dominance_leq(lam, lam)
        for lam, mu in itertools.permutations(universe, 2):
            if dominance_leq(lam, mu) and dominance_leq(mu, lam):
                raise AssertionError(f"antisymmetry fails on {lam}, {mu}")
        for lam, mu, nu in itertools.product(universe, repeat=3):
            if dominance_leq(lam, mu) and dominance_leq(mu, nu):
                assert dominance_leq(lam, nu)


def test_transpose_reverses_dominance():
    for n in range(2, 9):
        for lam, mu in itertools.combinations(partitions_of(n), 2):
            assert dominance_leq(lam, mu) == dominance_leq(transpose(mu), transpose(lam))


# ----------------------------------------------------------------------
# adjacency / box moves
# ----------------------------------------------------------------------


def test_adjacency_figure_chain():
    assert is_adjacent(P([5, 3, 3, 3]), P([5, 4, 3, 2]))
    assert is_adjacent(P([5, 4, 3, 2]), P([6, 3, 3, 2]))
    assert not is_adjacent(P([5, 3, 3, 3]), P([6, 3, 3, 2]))
    assert box_move_witness(P([5, 3, 3, 3]), P([6, 3, 3, 2])) is not None


def test_adjacency_sl2():
    assert is_adjacent(P([1, 1]), P([2]))


def test_box_move_not_reflexive():
    assert box_move_witness(P([2, 2]), P([2, 2])) is None


def test_box_move_witness_values():
    assert box_move_witness(P([5, 3, 3, 3]), P([5, 4, 3, 2])) == (2, 4)
    assert box_move_witness(P([5, 3, 3, 3]), P([6, 3, 3, 2])) == (1, 4)
    assert box_move_witness(P([3, 3, 3]), P([4, 3, 2])) == (1, 3)
    assert box_move_witness(P([1, 1]), P([2])) == (1, 2)
    assert box_move_witness(P([2, 1, 1]), P([2, 2])) == (2, 3)
    assert box_move_witness(P([3, 1]), P([3, 1])) is None
    assert box_move_witness(P([2, 2]), P([4])) is None


def test_adjacency_agrees_with_covering_oracle_small():
    for n in range(1, 9):
        universe = partitions_of(n)
        for lam, mu in itertools.product(universe, repeat=2):
            assert is_adjacent(lam, mu) == oracle_covering(lam, mu, universe), (
                lam,
                mu,
            )


def test_adjacent_implies_box_move():
    for n in range(1, 10):
        for lam, mu in itertools.permutations(partitions_of(n), 2):
            if is_adjacent(lam, mu):
                assert box_move_witness(lam, mu) is not None


def test_box_move_without_adjacency_witness_at_14():
    lam, mu = P([5, 3, 3, 3]), P([6, 3, 3, 2])
    assert box_move_witness(lam, mu) is not None and not is_adjacent(lam, mu)


# ----------------------------------------------------------------------
# covers
# ----------------------------------------------------------------------


def test_covers_examples():
    assert covers_of(P([1, 1, 1])) == {P([2, 1])}
    assert covers_of(P([4])) == set()
    assert covers_of(P([2, 2])) == {P([3, 1])}


def test_covers_match_adjacency():
    for n in range(1, 9):
        universe = partitions_of(n)
        for lam in universe:
            expected = {mu for mu in universe if is_adjacent(lam, mu)}
            assert covers_of(lam) == expected


# ----------------------------------------------------------------------
# chains
# ----------------------------------------------------------------------


def test_chain_validation():
    chain = OrbitChain([P([1, 1, 1]), P([2, 1]), P([3])])
    assert len(chain) == 3
    try:
        OrbitChain([P([1, 1, 1]), P([3])])
    except ValueError:
        pass
    else:
        raise AssertionError("expected adjacency validation to fire")


def test_reduction_path_figure():
    chain = reduction_path(P([5, 3, 3, 3]), P([6, 3, 3, 2]))
    assert list(chain) == [P([5, 3, 3, 3]), P([5, 4, 3, 2]), P([6, 3, 3, 2])]


def test_reduction_path_trivial():
    assert list(reduction_path(P([2, 1]), P([2, 1]))) == [P([2, 1])]


def test_reduction_path_full_column_to_row():
    chain = reduction_path(P([1, 1, 1, 1]), P([4]))
    assert list(chain) == [
        P([1, 1, 1, 1]),
        P([2, 1, 1]),
        P([2, 2]),
        P([3, 1]),
        P([4]),
    ]


def test_reduction_path_incomparable_raises():
    try:
        reduction_path(P([4, 1, 1]), P([3, 3]))
    except ValueError:
        pass
    else:
        raise AssertionError("expected a no-path error")


def test_reduction_path_every_comparable_pair():
    for n in range(1, 9):
        universe = partitions_of(n)
        for lam, mu in itertools.product(universe, repeat=2):
            if not dominance_leq(lam, mu):
                continue
            chain = reduction_path(lam, mu)
            assert chain[0] == lam and chain[len(chain) - 1] == mu
            for a, b in zip(chain, list(chain)[1:]):
                assert is_adjacent(a, b)


# ----------------------------------------------------------------------
# properties
# ----------------------------------------------------------------------


@st.composite
def _partition_pairs(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    universe = partitions_of(n)
    idx = st.integers(min_value=0, max_value=len(universe) - 1)
    return universe[draw(idx)], universe[draw(idx)]


@settings(max_examples=100, deadline=None)
@given(_partition_pairs())
def test_dominance_matches_oracle(pair):
    lam, mu = pair
    assert dominance_leq(lam, mu) == oracle_dominance(lam.parts, mu.parts)


@settings(max_examples=100, deadline=None)
@given(_partition_pairs())
def test_box_move_changes_exactly_two_rows(pair):
    lam, mu = pair
    witness = box_move_witness(lam, mu)
    if witness is None:
        return
    i, j = witness
    length = max(len(lam), len(mu)) + 1
    a, b = lam.padded(length), mu.padded(length)
    assert b[i - 1] == a[i - 1] + 1
    assert b[j - 1] == a[j - 1] - 1
    assert all(a[k] == b[k] for k in range(length) if k not in (i - 1, j - 1))
