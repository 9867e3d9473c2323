"""Differential tests: the row rule of `slred.orbits.box_moves_from`, the
covers, adjacency test, dominance test and reduction paths built on it, and
the pairs that `verify_all` sweeps, against the trial-and-error routines in
`orbit_oracle`."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

import orbit_oracle
import slred.cli
from slred.cli import verify_all
from slred.orbits import (
    OrbitChain,
    Partition,
    box_move_witness,
    box_moves_from,
    covers_of,
    dominance_leq,
    is_adjacent,
    partitions_of,
    reduction_path,
)


def _quadratic_moves(n):
    """{lam: {(mu, witness)}} by testing every ordered pair of partitions of n."""
    universe = partitions_of(n)
    return {
        lam: {
            (mu, box_move_witness(lam, mu))
            for mu in universe
            if lam != mu and box_move_witness(lam, mu) is not None
        }
        for lam in universe
    }


def test_box_moves_and_covers_match_the_oracle_through_n14():
    for n in range(1, 15):
        for lam, expected in _quadratic_moves(n).items():
            moves = list(box_moves_from(lam))
            assert len(moves) == len(expected), lam
            assert set(moves) == expected, lam
            assert covers_of(lam) == orbit_oracle.covers_of(lam), lam


def test_box_moves_come_by_increasing_destination_row():
    moves = list(box_moves_from(Partition([5, 3, 3, 3])))
    assert moves == [(Partition([6, 3, 3, 2]), (1, 4)), (Partition([5, 4, 3, 2]), (2, 4))]
    assert list(box_moves_from(Partition([4]))) == []
    assert list(box_moves_from(Partition([]))) == []


def test_adjacency_matches_the_oracle_on_all_pairs_through_n10():
    # every ordered pair, equal pairs and pairs of different N included
    universe = [lam for n in range(1, 11) for lam in partitions_of(n)]
    adjacent = 0
    for lam, mu in itertools.product(universe, repeat=2):
        verdict = is_adjacent(lam, mu)
        assert verdict == orbit_oracle.is_adjacent(lam, mu), (lam, mu)
        adjacent += verdict
    assert adjacent == sum(len(covers_of(lam)) for lam in universe)


def test_chain_rejects_a_box_move_that_is_not_a_cover():
    # [5,3,3,3] -> [6,3,3,2] moves a box from row 4 to row 1 past [5,4,3,2]
    assert box_move_witness([5, 3, 3, 3], [6, 3, 3, 2]) == (1, 4)
    with pytest.raises(ValueError, match="not adjacent"):
        OrbitChain([[5, 3, 3, 3], [6, 3, 3, 2]])


def test_dominance_and_paths_match_the_oracle_through_n10():
    for n in range(1, 11):
        for lam, mu in itertools.product(partitions_of(n), repeat=2):
            below = dominance_leq(lam, mu)
            assert below == orbit_oracle.dominance_leq(lam, mu), (lam, mu)
            if below:
                expected = orbit_oracle.reduction_path(lam, mu).to_json()
                assert reduction_path(lam, mu).to_json() == expected, (lam, mu)


def test_verify_all_sweeps_the_quadratic_pairs_through_n16(monkeypatch):
    # the enumeration is under test, not the reductions: stub the builder
    monkeypatch.setattr(
        slred.cli,
        "_verify_pair",
        lambda pair: {"lam": list(pair[0]), "mu": list(pair[1]), "ok": True},
    )
    rows = verify_all(slred.cli.MAX_VERIFY_N).payload["pairs"]
    swept = [(tuple(row["lam"]), tuple(row["mu"])) for row in rows]
    assert len(swept) == len(set(swept))
    assert set(swept) == set(orbit_oracle.box_move_pairs(slred.cli.MAX_VERIFY_N))


@st.composite
def _partitions(draw, n_max=40):
    n = draw(st.integers(min_value=1, max_value=n_max))
    parts, left = [], n
    while left:
        part = draw(st.integers(min_value=1, max_value=min(left, parts[-1] if parts else left)))
        parts.append(part)
        left -= part
    return Partition(parts)


@settings(max_examples=200, deadline=None)
@given(_partitions())
def test_generated_moves_carry_their_witness(lam):
    moves = list(box_moves_from(lam))
    for mu, (i, j) in moves:
        assert isinstance(mu, Partition) and mu.n == lam.n
        assert min(mu.parts) > 0
        assert all(a >= b for a, b in zip(mu.parts, mu.parts[1:]))
        assert box_move_witness(lam, mu) == (i, j)
    assert len({mu for mu, _rows in moves}) == len(moves)
    assert covers_of(lam) == {
        mu for mu, _rows in moves if orbit_oracle.is_adjacent(lam, mu)
    }
