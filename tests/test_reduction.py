"""Tests for the reduction builder: adjacency data, window embedding,
conjugators, and the fully verified datum."""

import dataclasses
import json
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from slred import cli, orbits, reduction, star
from slred.lie import ExactMatrix, bracket, jordan_type, trace_form
from slred.orbits import Partition, box_moves_from, covers_of, partitions_of, transpose
from slred.reduction import (
    AdjacencyData,
    adjacency_data,
    build_case_one,
    build_chain,
    build_reduction,
    conjugator_height_two,
    verify_conjugation,
)

E = ExactMatrix.unit
F = Fraction


def _sum(n, *positions):
    """Sum of matrix units at the given (row, col) positions."""
    return ExactMatrix(n, {pos: F(1) for pos in positions})


def _restrict(m: ExactMatrix, window) -> ExactMatrix:
    """Pull a matrix back along the window labels onto 1..len(window)."""
    lookup = {lab: k + 1 for k, lab in enumerate(window)}
    entries = {}
    for (i, j), v in m.items():
        if i in lookup and j in lookup:
            entries[(lookup[i], lookup[j])] = v
    return ExactMatrix(len(window), entries)


# ----------------------------------------------------------------------
# adjacency_data
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "lam, mu, expected",
    [
        ([3, 3, 3], [4, 3, 2], AdjacencyData(1, 3, "I")),
        ([6, 5, 3, 3, 3, 2], [6, 6, 3, 3, 2, 2], AdjacencyData(2, 5, "II")),
        ([1, 1], [2], AdjacencyData(1, 2, "I")),
        ([2, 1, 1], [2, 2], AdjacencyData(2, 3, "II")),
        ([5, 3, 3, 3], [5, 4, 3, 2], AdjacencyData(2, 4, "II")),
        ([3, 1, 1], [4, 1], AdjacencyData(1, 3, "I")),
    ],
)
def test_adjacency_data_examples(lam, mu, expected):
    assert adjacency_data(lam, mu) == expected


def test_adjacency_data_rejects_non_moves():
    with pytest.raises(ValueError):
        adjacency_data([2, 1], [2, 1])
    with pytest.raises(ValueError):
        adjacency_data([2], [1, 1])  # wrong direction
    with pytest.raises(ValueError):
        # a box move, but the rows between i and j are unequal
        adjacency_data([3, 2, 1], [4, 2])


# ----------------------------------------------------------------------
# build_case_one
# ----------------------------------------------------------------------


def test_case_one_sl2():
    datum = build_case_one(1, 1, 0)
    assert datum.ghost_basis == (E(2, 1, 2),)
    assert datum.f_circ == E(2, 2, 1)
    assert datum.lam == Partition([1, 1])
    assert build_reduction(datum.lam, [2]).f_lam.is_zero()


def test_case_one_sl3():
    datum = build_case_one(1, 1, 1)
    assert datum.ghost_basis == (E(3, 1, 3), E(3, 2, 3))
    assert datum.f_circ == E(3, 3, 1)
    assert list(jordan_type(datum.f_circ)) == [2, 1]


def test_case_one_sl9():
    datum = build_case_one(3, 3, 1)
    assert datum.ghost_basis == (
        _sum(9, (1, 3), (4, 6), (7, 9)),
        _sum(9, (2, 3), (5, 6), (8, 9)),
    )
    assert datum.f_circ == _sum(9, (3, 1), (6, 4), (9, 7))


def test_case_one_two_rows():
    datum = build_case_one(3, 2, 0)
    assert build_reduction(datum.lam, [4, 1]).f_lam == _sum(5, (2, 1), (4, 2), (5, 3))
    assert datum.f_circ == _sum(5, (3, 2), (5, 4))
    assert datum.ghost_basis == (_sum(5, (2, 3), (4, 5)),)


@pytest.mark.parametrize("a, b, s", [(0, 1, 0), (1, 2, 0), (1, 1, -1)])
def test_case_one_rejects_bad_shape(a, b, s):
    with pytest.raises(ValueError):
        build_case_one(a, b, s)


# ----------------------------------------------------------------------
# conjugator_height_two / verify_conjugation
# ----------------------------------------------------------------------


def test_conjugator_smallest():
    assert conjugator_height_two(1, 1) == ExactMatrix(
        2, {(1, 1): F(1), (2, 2): F(1)}
    )


def test_conjugator_two_two():
    expected = ExactMatrix(
        4,
        {
            (1, 1): F(1),
            (2, 2): F(1),
            (2, 3): F(1),
            (3, 2): F(-1),
            (3, 3): F(1),
            (4, 4): F(2),
        },
    )
    assert conjugator_height_two(2, 2) == expected


def test_conjugator_three_two():
    expected = ExactMatrix(
        5,
        {
            (1, 1): F(1),
            (2, 2): F(1),
            (3, 3): F(1),
            (3, 4): F(1),
            (4, 3): F(-1),
            (4, 4): F(1),
            (5, 5): F(2),
        },
    )
    assert conjugator_height_two(3, 2) == expected


def test_conjugator_single_row_is_scalar():
    assert conjugator_height_two(4, 1) == ExactMatrix.identity(5)


def test_conjugator_block_determinants():
    a, b = 5, 3
    g = conjugator_height_two(a, b)
    r = a - b
    entries = dict(g.items())
    for t in range(1, b):
        p = r + 2 * t
        det = (
            entries[(p, p)] * entries[(p + 1, p + 1)]
            - entries[(p, p + 1)] * entries[(p + 1, p)]
        )
        assert det == b


def test_conjugator_rejects_bad_input():
    with pytest.raises(ValueError):
        conjugator_height_two(2, 3)
    with pytest.raises(ValueError):
        conjugator_height_two(0, 0)


def test_verify_conjugation_identity():
    f = _sum(3, (2, 1), (3, 2))
    assert verify_conjugation(ExactMatrix.identity(3), f, f)


def test_verify_conjugation_detects_jordan_mismatch():
    assert not verify_conjugation(
        ExactMatrix.identity(2), E(2, 1, 2), ExactMatrix(2)
    )


def test_verify_conjugation_rejects_singular():
    with pytest.raises(ValueError):
        verify_conjugation(ExactMatrix(2), E(2, 1, 2), E(2, 1, 2))


def test_conjugator_moves_representative_three_two():
    f_tilde = _sum(5, (2, 1), (4, 2), (5, 3), (3, 2), (5, 4))
    f_std = _sum(5, (2, 1), (4, 2), (5, 4))
    g = conjugator_height_two(3, 2)
    assert verify_conjugation(g, f_tilde, f_std)


@pytest.mark.parametrize("a, b", [(2, 2), (4, 2), (4, 3), (5, 5)])
def test_conjugator_works_for_every_unit_choice(a, b):
    """A unit choice (ua, ub) scales the conjugator's columns: by ub on the
    first coordinate of each 2 x 2 block and by ua elsewhere.  That diagonal
    commutes with f_std, so every choice still conjugates."""
    datum = build_reduction([a, b], [a + 1, b - 1] if b > 1 else [a + 1])
    g, n = conjugator_height_two(a, b), a + b
    firsts = {a - b + 2 * t for t in range(1, b)}
    for ua, ub in [(F(1), F(2)), (F(-1), F(1, 2)), (F(3, 5), F(7))]:
        units = ExactMatrix(n, {(k, k): ub if k in firsts else ua for k in range(1, n + 1)})
        assert verify_conjugation(g * units, datum.f_mu_tilde, datum.f_mu_std)


# ----------------------------------------------------------------------
# build_reduction: frozen small cases
# ----------------------------------------------------------------------


def test_reduction_virasoro():
    datum = build_reduction([1, 1], [2])
    assert datum.adjacency == AdjacencyData(1, 2, "I")
    assert datum.ghost_basis == (E(2, 1, 2),)
    assert datum.f_circ == E(2, 2, 1)
    assert datum.character == (F(1),)
    assert datum.f_mu_tilde == datum.f_mu_std == E(2, 2, 1)
    assert datum.membership_certified_by == "conjugation"
    assert datum.certificate.passes


def test_reduction_two_one():
    datum = build_reduction([2, 1], [3])
    assert datum.f_lam == E(3, 2, 1)
    assert datum.f_circ == E(3, 3, 2)
    assert datum.f_mu_tilde == _sum(3, (2, 1), (3, 2))
    assert list(jordan_type(datum.f_mu_tilde)) == [3]
    assert datum.conjugator == ExactMatrix.identity(3)


def test_reduction_three_two():
    datum = build_reduction([3, 2], [4, 1])
    assert datum.f_lam == _sum(5, (2, 1), (4, 2), (5, 3))
    assert datum.f_circ == _sum(5, (3, 2), (5, 4))
    assert datum.f_mu_std == _sum(5, (2, 1), (4, 2), (5, 4))
    assert datum.ghost_basis == (_sum(5, (2, 3), (4, 5)),)
    assert datum.character == (F(2),)
    assert datum.conjugator == conjugator_height_two(3, 2)


def test_reduction_case_two_small():
    datum = build_reduction([2, 1, 1], [2, 2])
    assert datum.adjacency.case == "II"
    assert datum.embedding_window == (2, 3)
    assert datum.ghost_basis == (E(4, 2, 3),)
    assert datum.f_circ == E(4, 3, 2)
    assert datum.f_lam == E(4, 4, 1)
    assert datum.character == (F(1),)
    assert datum.membership_certified_by == "conjugation"


@pytest.fixture
def fresh_cache():
    reduction._build_reduction.cache_clear()
    yield
    reduction._build_reduction.cache_clear()


def test_failed_conjugation_is_an_error(monkeypatch, capsys, fresh_cache):
    monkeypatch.setattr(star, "verify_conjugation", lambda g, f_tilde, f_std: False)
    with pytest.raises(RuntimeError, match="failed at conjugation:"):
        build_reduction([3, 2], [4, 1])
    assert cli.main(["reduce", "3,2", "4,1"]) == 1
    assert "failed at conjugation:" in capsys.readouterr().err


def _certificate_with(**fields):
    """check_star, with the given fields of its certificate replaced."""
    original = reduction.check_star
    return lambda *args, **kwargs: dataclasses.replace(original(*args, **kwargs), **fields)


def _source_tableaux_only():
    """align_for_theorem, aligning the source tableau for either stage."""
    original = reduction.align_for_theorem
    return lambda lam, i, j, stage: original(lam, i, j, "source")


@pytest.mark.parametrize(
    "name, patched, check",
    [
        (
            "check_star",
            _certificate_with(violations={"omega": ["patched"]}),
            "compatibility certificate",
        ),
        ("check_star", _certificate_with(ghost_basis=()), "ghost basis"),
        ("check_star", _certificate_with(character=(F(0),)), "character"),
        ("align_for_theorem", _source_tableaux_only(), "target tableau shape"),
    ],
    ids=["certificate", "ghost-basis", "character", "target-shape"],
)
def test_each_verification_can_fail(monkeypatch, capsys, fresh_cache, name, patched, check):
    """[3,2] -> [4,1] has one ghost and character (2,), so each patch breaks
    exactly the named check, which the CLI reports with exit code 1."""
    monkeypatch.setattr(reduction, name, patched)
    message = f"failed at {check}:"
    with pytest.raises(RuntimeError, match=re.escape(message)):
        build_reduction([3, 2], [4, 1])
    assert cli.main(["reduce", "3,2", "4,1"]) == 1
    assert message in capsys.readouterr().err


def test_conjugator_outside_g0_is_an_error(monkeypatch, capsys, fresh_cache):
    """g·(I + f_std) still conjugates, since I + f_std commutes with f_std,
    but f_std has x2-degree -1, so the product leaves G_0(x2).  The move
    [3,2] -> [4,1] is case I, so the window map is the identity and the
    datum's conjugator is the patched two-row one."""
    f_std = _sum(5, (2, 1), (4, 2), (5, 4))
    f_tilde = _sum(5, (2, 1), (4, 2), (5, 3), (3, 2), (5, 4))
    original = reduction.conjugator_height_two
    sheared = []

    def shear(a, b):
        g = original(a, b) * (ExactMatrix.identity(5) + f_std)
        sheared.append(verify_conjugation(g, f_tilde, f_std))
        return g

    monkeypatch.setattr(reduction, "conjugator_height_two", shear)
    message = "failed at conjugation: witness conjugator has nonzero x2-degree"
    with pytest.raises(RuntimeError, match=message):
        build_reduction([3, 2], [4, 1])
    assert sheared == [True]
    assert cli.main(["reduce", "3,2", "4,1"]) == 1
    assert message in capsys.readouterr().err


def _counted(monkeypatch, module, name):
    """Record each call of module.name from every slred module bound to it."""
    original = getattr(module, name)
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    for modname, mod in list(sys.modules.items()):
        if modname.startswith("slred") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


def test_wrong_jordan_type_is_an_error(monkeypatch, capsys, fresh_cache):
    calls = []

    def wrong(m):
        calls.append(m)
        return (m.n,)

    monkeypatch.setattr(reduction, "jordan_type", wrong)
    message = "failed at jordan type of f_mu_std: (5,) != "
    with pytest.raises(RuntimeError, match=re.escape(message)):
        build_reduction([3, 2], [4, 1])
    assert len(calls) == 1
    assert cli.main(["reduce", "3,2", "4,1"]) == 1
    assert message in capsys.readouterr().err


def test_one_datum_aligns_two_tableaux_and_solves_case_one_once(
    monkeypatch, fresh_cache
):
    """The builder aligns the source and target tableaux of lam, once each;
    the case-I solution is closed-form and aligns no tableau of its own."""
    aligned = _counted(monkeypatch, reduction, "align_for_theorem")
    solved = _counted(monkeypatch, reduction, "build_case_one")
    build_reduction([6, 5, 3, 3, 3, 2], [6, 6, 3, 3, 2, 2])
    assert (len(aligned), len(solved)) == (2, 1)


def test_one_datum_checks_its_conjugator_once(monkeypatch, fresh_cache):
    """One verify_conjugation with its one inverse, and one kernel: that of
    ad f1 on the (0,1) cell.  The witness check has no elimination of its own."""
    calls = {
        name: _counted(monkeypatch, star, name)
        for name in ("verify_conjugation", "inverse", "nullspace_of_rows")
    }
    build_reduction([3, 3, 3], [4, 3, 2])
    assert {name: len(c) for name, c in calls.items()} == {
        "verify_conjugation": 1,
        "inverse": 1,
        "nullspace_of_rows": 1,
    }


def test_one_datum_computes_one_jordan_type(monkeypatch, fresh_cache):
    """One Jordan type, for f_mu_std in the builder.  The certificate's two
    goodness checks see f of degree -1, which is nilpotent already."""
    original = jordan_type
    calls = []

    def counted(m):
        calls.append(m)
        return original(m)

    patched = []
    for name, module in list(sys.modules.items()):
        if name.startswith("slred") and getattr(module, "jordan_type", None) is original:
            monkeypatch.setattr(module, "jordan_type", counted)
            patched.append(name)
    assert {"slred.pyramids", "slred.reduction"} <= set(patched)
    build_reduction([5, 3, 3, 3], [5, 4, 3, 2])
    assert len(calls) == 1


def test_reduction_rejects_non_moves():
    with pytest.raises(ValueError):
        build_reduction([3, 2, 1], [4, 2])
    with pytest.raises(ValueError):
        build_reduction([2, 2], [2, 2])


# ----------------------------------------------------------------------
# the window embedding
# ----------------------------------------------------------------------


def test_embedding_window_restricts_to_inner_datum():
    lam, mu = [6, 5, 3, 3, 3, 2], [6, 6, 3, 3, 2, 2]
    datum = build_reduction(lam, mu)
    inner = build_case_one(5, 3, 2)
    window = datum.embedding_window
    assert len(window) == inner.lam.n == 14
    assert _restrict(datum.f_circ, window) == inner.f_circ
    # the case-I move [5, 3^3] -> [6, 3^2, 2] on the window rows
    assert _restrict(datum.f_lam, window) == build_reduction(inner.lam, [6, 3, 3, 2]).f_lam
    assert [_restrict(g, window) for g in datum.ghost_basis] == list(
        inner.ghost_basis
    )


def test_embedding_leaves_outside_rows_alone():
    datum = build_reduction([6, 5, 3, 3, 3, 2], [6, 6, 3, 3, 2, 2])
    inside = set(datum.embedding_window)
    for m in (datum.f_circ,) + datum.ghost_basis:
        for (i, j), _v in m.items():
            assert i in inside and j in inside
    outside_lam = {
        pos for pos, _v in datum.f_lam.items() if not set(pos) <= inside
    }
    outside_std = {
        pos for pos, _v in datum.f_mu_std.items() if not set(pos) <= inside
    }
    assert outside_lam == outside_std


def test_embed_rejects_inconsistent_window(monkeypatch, capsys, fresh_cache):
    # rows 1..2 of [2, 1] carry three boxes, the patched case-I datum two
    original = reduction.build_case_one
    monkeypatch.setattr(reduction, "build_case_one", lambda a, b, s: original(1, 1, 0))
    message = "failed at window: rows 1..2 of"
    with pytest.raises(RuntimeError, match=message):
        build_reduction([2, 1], [3])
    assert cli.main(["reduce", "2,1", "3"]) == 1
    assert message in capsys.readouterr().err


def test_case_one_input_embeds_identically():
    inner = build_case_one(2, 2, 0)
    datum = build_reduction([2, 2], [3, 1])
    assert datum.embedding_window == (1, 2, 3, 4)
    assert datum.f_circ == inner.f_circ
    assert datum.ghost_basis == inner.ghost_basis


def test_every_datum_is_local_to_its_window():
    """Window locality, for every box move with N <= 10: no arrow links the
    window to the rest, the window block is the case-I datum of the window
    rows, and off the window the three nilpotents agree while the
    conjugator is the identity."""
    checked = 0
    for n in range(2, 11):
        for lam in partitions_of(n):
            for mu, _rows in box_moves_from(lam):
                datum = build_reduction(lam, mu)
                ad, window = datum.adjacency, datum.embedding_window
                inside = set(window)
                off = {}
                for name in ("f_lam", "f_mu_std", "f_mu_tilde", "conjugator"):
                    entries = dict(getattr(datum, name).items())
                    assert all(
                        (i in inside) == (j in inside) for i, j in entries
                    ), (lam, mu, name)
                    off[name] = {p: v for p, v in entries.items() if p[0] not in inside}
                for m in (datum.f_circ,) + datum.ghost_basis:
                    assert all(i in inside and j in inside for (i, j), _v in m.items())

                inner = build_reduction(
                    lam.parts[ad.i - 1 : ad.j], mu.parts[ad.i - 1 : ad.j]
                )
                for name in ("f_lam", "f_mu_std", "f_circ", "f_mu_tilde", "conjugator"):
                    assert _restrict(getattr(datum, name), window) == getattr(
                        inner, name
                    ), (lam, mu, name)
                assert tuple(
                    _restrict(g, window) for g in datum.ghost_basis
                ) == inner.ghost_basis, (lam, mu)

                assert off["f_lam"] == off["f_mu_std"] == off["f_mu_tilde"], (lam, mu)
                assert off["conjugator"] == {
                    (k, k): 1 for k in range(1, n + 1) if k not in inside
                }, (lam, mu)
                checked += 1
    assert checked == 229


# ----------------------------------------------------------------------
# sweep: every one-box move with N <= 6
# ----------------------------------------------------------------------


def _box_move_pairs(max_n, min_n=2):
    for n in range(min_n, max_n + 1):
        parts = partitions_of(n)
        for lam in parts:
            for mu in parts:
                try:
                    adjacency_data(lam, mu)
                except ValueError:
                    continue
                yield lam, mu


@pytest.mark.parametrize("lam, mu", list(_box_move_pairs(6)))
def test_every_small_move_builds_verified(lam, mu):
    datum = build_reduction(lam, mu)
    assert datum.f_mu_tilde == datum.f_lam + datum.f_circ
    assert tuple(jordan_type(datum.f_mu_tilde)) == mu.parts
    assert datum.certificate.passes
    assert datum.certificate.ghost_basis == datum.ghost_basis
    b = lam.part(datum.adjacency.j)
    assert datum.character == (F(b),) + (F(0),) * (len(datum.ghost_basis) - 1)
    assert datum.membership_certified_by == "conjugation"
    assert datum.conjugator is not None
    for one in datum.ghost_basis:
        for other in datum.ghost_basis:
            assert bracket(one, other).is_zero()


def test_ghost_count_is_half_the_orbit_dimension_gap():
    """2 * #ghosts = dim O_mu - dim O_lam, with dim O_lam = N^2 - sum of the
    squared parts of the transposed partition."""

    def dim(p):
        return p.n**2 - sum(c * c for c in transpose(p).parts)

    checked = 0
    for n in range(2, 13):
        for lam in partitions_of(n):
            for mu, _rows in box_moves_from(lam):
                datum = build_reduction(lam, mu)
                assert 2 * len(datum.ghost_basis) == dim(mu) - dim(lam), (lam, mu)
                checked += 1
    assert checked == 518


def test_every_n13_move_builds_verified():
    pairs = list(_box_move_pairs(13, min_n=13))
    assert len(pairs) == 238
    for lam, mu in pairs:
        datum = build_reduction(lam, mu)
        assert datum.certificate.passes, (lam, mu)
        assert datum.membership_certified_by == "conjugation", (lam, mu)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=7), st.data())
def test_random_cover_builds_verified(n, data):
    lam = data.draw(st.sampled_from(partitions_of(n)))
    above = sorted(covers_of(lam))
    if not above:
        return
    mu = data.draw(st.sampled_from(above))
    datum = build_reduction(lam, mu)
    assert datum.certificate.passes
    assert tuple(jordan_type(datum.f_mu_tilde)) == mu.parts
    assert verify_conjugation(
        datum.conjugator, datum.f_mu_tilde, datum.f_mu_std
    )


# ----------------------------------------------------------------------
# build_chain
# ----------------------------------------------------------------------


def test_chain_to_principal_in_sl3():
    chain = build_chain([1, 1, 1], [3])
    assert [(d.lam, d.mu) for d in chain] == [
        (Partition([1, 1, 1]), Partition([2, 1])),
        (Partition([2, 1]), Partition([3])),
    ]
    assert all(d.certificate.passes for d in chain)


def test_chain_trivial():
    assert build_chain([2, 1], [2, 1]) == []


def test_chain_full_flag_sl4():
    chain = build_chain([1, 1, 1, 1], [4])
    assert len(chain) == 4
    assert chain[0].lam == Partition([1, 1, 1, 1])
    assert chain[-1].mu == Partition([4])
    for step, following in zip(chain, chain[1:]):
        assert step.mu == following.lam


def test_chain_rejects_incomparable():
    with pytest.raises(ValueError, match="is not below"):
        build_chain([3], [2, 1])
    with pytest.raises(ValueError):
        build_chain([2, 2], [3, 2])


def test_memos_are_bounded():
    for memo in (reduction._build_reduction, orbits._covers):
        maxsize = memo.cache_info().maxsize
        assert maxsize is not None and 0 < maxsize < 10**5


def test_chain_steps_are_memoized():
    first = build_chain([1, 1, 1], [3])
    again = build_reduction([2, 1], [3])
    assert first[1] is again


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------


def test_datum_json_roundtrip_is_deterministic():
    from slred.reduction import _build_reduction

    datum = build_reduction([2, 1, 1], [2, 2])
    doc = json.dumps(datum.to_json(), sort_keys=True)
    _build_reduction.cache_clear()
    rebuilt = build_reduction([2, 1, 1], [2, 2])
    assert json.dumps(rebuilt.to_json(), sort_keys=True) == doc


def test_datum_json_contents():
    datum = build_reduction([1, 1], [2])
    doc = datum.to_json()
    assert doc["lam"] == [1, 1] and doc["mu"] == [2]
    assert doc["case"] == "I"
    assert doc["character"] == ["1"]
    assert doc["certificate"]["pass"] is True
    assert doc["membership_certified_by"] == "conjugation"
    assert "->" in doc["summary"]
    assert doc["conjugator"] == {"n": 2, "entries": [[1, 1, "1"], [2, 2, "1"]]}
