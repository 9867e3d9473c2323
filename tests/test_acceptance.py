"""Acceptance gate: the advertised guarantees, one PASS/FAIL line each.

Every test sweeps the full advertised range, times itself against the
stated budget, and prints exactly one line of the form

    ACCEPTANCE <k>: PASS (<scale and timing>)

before asserting.  The print bypasses capture so the gate reads as a
checklist even on a fully green run.
"""

import time

from screening_oracle import Poly, derivative, from_package
from slred.lie import ExactMatrix, bracket, jordan_type
from slred.orbits import (
    Partition,
    box_move_witness,
    dominance_leq,
    is_adjacent,
    partitions_of,
    reduction_path,
)
from slred.pyramids import (
    Pyramid,
    align_for_theorem,
    grading_element_of,
    is_good_grading,
    left_aligned_offsets,
    nilpotent_from_pyramid,
    right_aligned_offsets,
)
from slred.reduction import build_chain, build_reduction, verify_conjugation
from slred.screening import (
    UnipotentChart,
    fourier_compare,
    left_action_coeffs,
    left_action_of,
    right_action_of,
    screening_coeffs,
)


def _emit(capsys, k: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"ACCEPTANCE {k}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def _box_move_pairs(n_max: int) -> list:
    pairs = []
    for n in range(2, n_max + 1):
        parts = partitions_of(n)
        for lam in parts:
            for mu in parts:
                if lam != mu and box_move_witness(lam, mu) is not None:
                    pairs.append((lam, mu))
    return pairs


def test_criterion_01_adjacency_matches_covering_oracle(capsys):
    start = time.monotonic()
    checked = mismatches = 0
    for n in range(1, 13):
        parts = partitions_of(n)
        for lam in parts:
            for mu in parts:
                if lam == mu:
                    continue
                covering = dominance_leq(lam, mu) and not any(
                    nu != lam
                    and nu != mu
                    and dominance_leq(lam, nu)
                    and dominance_leq(nu, mu)
                    for nu in parts
                )
                if is_adjacent(lam, mu) != covering:
                    mismatches += 1
                checked += 1
    elapsed = time.monotonic() - start
    ok = mismatches == 0 and elapsed < 120.0
    _emit(
        capsys, 1, ok,
        f"{checked} ordered pairs over N<=12 agree with the brute-force "
        f"covering oracle, {elapsed:.1f}s < 120s",
    )


def test_criterion_02_reference_neighborhood(capsys):
    step1 = is_adjacent((5, 3, 3, 3), (5, 4, 3, 2))
    step2 = is_adjacent((5, 4, 3, 2), (6, 3, 3, 2))
    skip = is_adjacent((5, 3, 3, 3), (6, 3, 3, 2))
    skip_box = box_move_witness((5, 3, 3, 3), (6, 3, 3, 2)) is not None
    ok = step1 and step2 and not skip and skip_box
    _emit(
        capsys, 2, ok,
        "[5,3,3,3]->[5,4,3,2] and [5,4,3,2]->[6,3,3,2] adjacent; "
        "[5,3,3,3]->[6,3,3,2] is a box move but not adjacent",
    )


def test_criterion_03_pyramid_gradings_are_good(capsys):
    start = time.monotonic()
    checked = 0
    bad = []

    def check(pyramid, expected: Partition) -> None:
        nonlocal checked
        f = nilpotent_from_pyramid(pyramid)
        x = grading_element_of(pyramid)
        if not (is_good_grading(f, x) and jordan_type(f) == expected.parts):
            bad.append(expected.parts)
        checked += 1

    for n in range(1, 9):
        for lam in partitions_of(n):
            check(Pyramid(lam, left_aligned_offsets(lam)), lam)
            check(Pyramid(lam, right_aligned_offsets(lam)), lam)
    for lam, mu in _box_move_pairs(8):
        i, j = box_move_witness(lam, mu)
        check(align_for_theorem(lam, i, j, "source"), lam)
        check(align_for_theorem(lam, i, j, "target"), mu)
    elapsed = time.monotonic() - start
    ok = not bad and elapsed < 300.0
    _emit(
        capsys, 3, ok,
        f"{checked} pyramids over N<=8 give good gradings with the right "
        f"Jordan type, {elapsed:.1f}s < 300s",
    )


def test_criterion_04_reductions_fully_certified(capsys):
    start = time.monotonic()
    pairs = _box_move_pairs(8)
    failures = []
    for lam, mu in pairs:
        datum = build_reduction(lam, mu)
        cert = datum.certificate
        if not (
            jordan_type(datum.f_lam + datum.f_circ) == mu.parts
            and cert.grading_ok
            and cert.nilpotent_ok
            and cert.abelian_01
            and cert.abelian_10
            and cert.omega_nondegenerate
            and cert.passes
        ):
            failures.append((lam.parts, mu.parts))
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 600.0
    _emit(
        capsys, 4, ok,
        f"{len(pairs)} box-move pairs N<=8 fully certified "
        f"(Jordan type, grading, placement, abelianity, pairing), "
        f"{elapsed:.1f}s < 600s",
    )


def test_criterion_05_conjugator_family_resolves(capsys):
    rectangles = []
    for a in range(1, 5):
        lam = Partition((a, a))
        mu = Partition((a + 1, a - 1) if a > 1 else (2,))
        datum = build_reduction(lam, mu)
        rectangles.append(
            datum.membership_certified_by == "conjugation"
            and datum.conjugator is not None
            and verify_conjugation(datum.conjugator, datum.f_mu_tilde, datum.f_mu_std)
        )
    two_row = []
    for a in range(1, 8):
        for b in range(1, min(a, 8 - a) + 1):
            lam = Partition((a, b))
            mu = Partition((a + 1, b - 1) if b > 1 else (a + 1,))
            datum = build_reduction(lam, mu)
            two_row.append(datum.membership_certified_by == "conjugation")
    ok = all(rectangles) and all(two_row)
    _emit(
        capsys, 5, ok,
        "rectangular a=b<=4 verified exactly by the (b-1)-block variant "
        f"diag(I, A_1..A_(b-1), b); all {len(two_row)} two-row pairs "
        "N<=8 conjugation-certified, so the a>b fallback is never needed",
    )


def _apply_derivation(coeffs: dict, poly: Poly, chart: UnipotentChart) -> Poly:
    out = Poly()
    for beta in chart.roots:
        out = out + coeffs[beta] * derivative(poly, ("z", beta))
    return out


def _derivation_commutator(p: dict, q: dict, chart: UnipotentChart) -> dict:
    return {
        root: _apply_derivation(p, q[root], chart) - _apply_derivation(q, p[root], chart)
        for root in chart.roots
    }


def test_criterion_06_left_actions_reverse_brackets(capsys):
    checked = failures = 0
    for n in (3, 4):
        chart = UnipotentChart(
            n, [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
        )
        gens = {
            i: ExactMatrix.unit(n, i, i + 1) for i in range(1, n)
        }
        lefts = {i: from_package(left_action_coeffs(i, chart)) for i in range(1, n)}
        rights = {i: from_package(right_action_of(gens[i], chart)) for i in range(1, n)}
        for i in range(1, n):
            for j in range(1, n):
                reversed_bracket = from_package(
                    left_action_of(bracket(gens[j], gens[i]), chart)
                )
                comm = _derivation_commutator(lefts[i], lefts[j], chart)
                checked += 1
                if any(comm[r] != reversed_bracket[r] for r in chart.roots):
                    failures += 1
                mixed = _derivation_commutator(lefts[i], rights[j], chart)
                checked += 1
                if any(not mixed[r].is_zero() for r in chart.roots):
                    failures += 1
    ok = failures == 0
    _emit(
        capsys, 6, ok,
        f"sl_3 and sl_4 full charts: {checked} symbolic identities "
        "(bracket reversal and left/right commutation) hold exactly",
    )


def test_criterion_07_fourier_matching(capsys):
    start = time.monotonic()
    pairs = _box_move_pairs(6)
    failures = []
    for lam, mu in pairs:
        datum = build_reduction(lam, mu)
        source = screening_coeffs(datum, "source")
        target = screening_coeffs(datum, "target")
        if not fourier_compare(source, target):
            failures.append((lam.parts, mu.parts))
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 300.0
    _emit(
        capsys, 7, ok,
        f"{len(pairs)} box-move pairs N<=6: induced screening coefficients "
        f"match up to sign for every simple root, {elapsed:.1f}s < 300s",
    )


def test_criterion_08_chains_compose(capsys):
    start = time.monotonic()
    checked = 0
    failures = []
    for n in range(2, 9):
        parts = partitions_of(n)
        for lam in parts:
            for mu in parts:
                if lam == mu or not dominance_leq(lam, mu):
                    continue
                steps = reduction_path(lam, mu).steps
                valid_chain = (
                    steps[0] == lam
                    and steps[-1] == mu
                    and all(
                        is_adjacent(steps[k], steps[k + 1])
                        for k in range(len(steps) - 1)
                    )
                )
                data = build_chain(lam, mu)
                certified = len(data) == len(steps) - 1 and all(
                    d.certificate.passes
                    and jordan_type(d.f_lam + d.f_circ) == d.mu.parts
                    for d in data
                )
                if not (valid_chain and certified):
                    failures.append((lam.parts, mu.parts))
                checked += 1
    elapsed = time.monotonic() - start
    ok = not failures
    _emit(
        capsys, 8, ok,
        f"{checked} comparable pairs N<=8 produce valid adjacent chains "
        f"with every step certified, {elapsed:.1f}s",
    )
