"""Verified reduction data for one-box moves between nilpotent orbits.

Given partitions lam and mu of N where mu is obtained from lam by moving
a single box up (row j to row i, all rows strictly between carrying the
same length as row j), this module constructs everything the reduction
step needs, exactly and with every claim re-verified before the datum is
returned:

* aligned source and target tableaux sharing one labelling,
* the standard representatives f_lam and f_mu_std read off the tableaux,
* the correction term f_circ supported in the (0, -1) cell of the double
  grading, with f_mu_tilde = f_lam + f_circ landing in the mu-orbit,
* the ghost basis spanning the centraliser of f_lam in the (0, 1) cell,
  cross-checked against the kernel computed independently by the
  compatibility certificate,
* the character pairing of f_circ against each ghost, and
* a block-diagonal conjugator carrying f_mu_tilde to f_mu_std, attached
  only after exact verification.

The whole-diagram case (window = all rows) is built from closed-form
index formulas.  The rows i..j of lam's source tableau are order-isomorphic
to that case-I tableau, so f_circ and the ghosts are transported once,
through the window's labels, and the two-row conjugator once, through the
labels of rows i and j; every label outside them stays fixed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import ClassVar, NamedTuple, Sequence, Union

from .lie import ExactMatrix, jordan_type
from .orbits import Partition, box_move_witness, reduction_path
from .pyramids import (
    Pyramid,
    align_for_theorem,
    grading_element_of,
    nilpotent_from_pyramid,
)
from .star import BiGrading, StarCertificate, check_star, verify_conjugation

__all__ = [
    "AdjacencyData",
    "CaseOneDatum",
    "ReductionDatum",
    "adjacency_data",
    "build_case_one",
    "build_chain",
    "build_reduction",
    "conjugator_height_two",
    "verify_conjugation",
]

PartitionLike = Union[Partition, Sequence[int]]

_ONE = Fraction(1)


def _coerce(p: PartitionLike) -> Partition:
    return p if isinstance(p, Partition) else Partition(p)


class AdjacencyData(NamedTuple):
    """Location of the moved box: source row j, destination row i."""

    i: int
    j: int
    case: str  # "I" when the window is the whole diagram, else "II"


def adjacency_data(lam: PartitionLike, mu: PartitionLike) -> AdjacencyData:
    """The unique witness (i, j) of the one-box move from lam to mu.

    Case I means the window rows i..j exhaust the diagram, so no
    embedding is needed; anything smaller is case II.
    """
    lam, mu = _coerce(lam), _coerce(mu)
    witness = box_move_witness(lam, mu)
    if witness is None:
        raise ValueError(f"{mu} is not a one-box move up from {lam}")
    i, j = witness
    case = "I" if (i, j) == (1, len(lam.parts)) else "II"
    return AdjacencyData(i, j, case)


# --------------------------------------------------------------------------
# whole-diagram construction for lam = [a, b, b, ..., b]


@dataclass(frozen=True)
class CaseOneDatum:
    """Closed-form datum for the full window [a, b^(s+1)] -> [a+1, b^s, b-1].

    It carries no tableau of its own: the builder reads f_lam off the
    source tableau of the ambient lam.
    """

    lam: Partition
    f_circ: ExactMatrix
    ghost_basis: tuple[ExactMatrix, ...]


def build_case_one(a: int, b: int, s: int) -> CaseOneDatum:
    """Datum for lam = [a, b^(s+1)], given by index formulas.

    With r = a - b and step = s + 2, the canonical labels of the aligned
    tableau place column number k (counted from the right, k = 0 at the
    rightmost full column) at labels r + k*step + 1 .. r + (k+1)*step.
    The ghosts connect the bottom of each full column to its other rows;
    f_circ connects each top box one step down the same column.
    """
    if not (a >= b >= 1) or s < 0:
        raise ValueError(f"need a >= b >= 1 and s >= 0, got ({a}, {b}, {s})")
    lam = Partition([a] + [b] * (s + 1))
    r, step = a - b, s + 2
    n = lam.n
    f_circ = ExactMatrix(
        n, {(r + (k + 1) * step, r + 1 + k * step): _ONE for k in range(b)}
    )
    ghosts = tuple(
        ExactMatrix(
            n, {(r + i + k * step, r + (k + 1) * step): _ONE for k in range(b)}
        )
        for i in range(1, step)
    )
    return CaseOneDatum(lam, f_circ, ghosts)


def conjugator_height_two(a: int, b: int) -> ExactMatrix:
    """Block-diagonal conjugator candidate for the two-row move [a,b] -> [a+1,b-1].

    Returns diag(I_{r+1}, A_1, ..., A_{b-1}, b) with r = a - b and

        A_t = [[b - t, t], [-1, 1]]

    on the coordinate pair (r + 2t, r + 2t + 1); each block has
    determinant b, so the whole matrix has determinant b^b.  For b = 1
    there are no blocks and the matrix is the identity.  The candidate is
    returned unverified; check_star certifies it with verify_conjugation.
    """
    if not (a >= b >= 1):
        raise ValueError(f"need a >= b >= 1, got ({a}, {b})")
    r, n = a - b, a + b
    entries = {(k, k): 1 for k in range(1, r + 2)}
    for t in range(1, b):
        p = r + 2 * t
        entries[(p, p)] = b - t
        entries[(p, p + 1)] = t
        entries[(p + 1, p)] = -1
        entries[(p + 1, p + 1)] = 1
    entries[(n, n)] = b
    return ExactMatrix(n, entries)


# --------------------------------------------------------------------------
# transport through the window


def _transport(
    m: ExactMatrix, coords: Sequence[int], n: int, identity_off: bool = False
) -> ExactMatrix:
    """Push m through the coordinate map k -> coords[k-1] into size n.

    With identity_off, coordinates outside the image get a 1 on the
    diagonal, turning a conjugator on the window into one on everything.
    """
    entries = {(coords[i - 1], coords[j - 1]): v for (i, j), v in m.items()}
    if identity_off:
        image = set(coords)
        entries.update(
            {(k, k): _ONE for k in range(1, n + 1) if k not in image}
        )
    return ExactMatrix(n, entries)


def _row_labels(p: Pyramid, rows: Sequence[int]) -> tuple[int, ...]:
    """The labels of the given rows of p, in increasing order."""
    return tuple(sorted(lab for (_x, row), lab in p.labels.items() if row in rows))


# --------------------------------------------------------------------------
# the verified datum


@dataclass(frozen=True)
class ReductionDatum:
    """One verified reduction step lam -> mu, with all witnesses attached."""

    lam: Partition
    mu: Partition
    adjacency: AdjacencyData
    pyr_lam: Pyramid
    pyr_mu: Pyramid
    f_lam: ExactMatrix
    f_mu_std: ExactMatrix
    f_circ: ExactMatrix
    f_mu_tilde: ExactMatrix
    ghost_basis: tuple[ExactMatrix, ...]
    character: tuple[Fraction, ...]
    conjugator: ExactMatrix
    certificate: StarCertificate
    embedding_window: tuple[int, ...]
    # Every datum is certified by its conjugator; the constant stays
    # because every payload carries the key.
    membership_certified_by: ClassVar[str] = "conjugation"

    def summary(self) -> str:
        lam, mu, ad = self.lam, self.mu, self.adjacency
        character = "(" + ", ".join(str(c) for c in self.character) + ")"
        return (
            f"{lam} -> {mu}: case {ad.case}, window rows {ad.i}..{ad.j}, "
            f"{len(self.ghost_basis)} ghost(s), character {character}, "
            "conjugator verified"
        )

    def to_json(self) -> dict:
        return {
            "lam": list(self.lam.parts),
            "mu": list(self.mu.parts),
            "case": self.adjacency.case,
            "window_rows": [self.adjacency.i, self.adjacency.j],
            "window_labels": list(self.embedding_window),
            "pyramids": {
                "source": self.pyr_lam.to_json(),
                "target": self.pyr_mu.to_json(),
            },
            "f_lam": self.f_lam.to_json(),
            "f_mu_std": self.f_mu_std.to_json(),
            "f_circ": self.f_circ.to_json(),
            "f_mu_tilde": self.f_mu_tilde.to_json(),
            "ghost_basis": [m.to_json() for m in self.ghost_basis],
            "character": [str(c) for c in self.character],
            "conjugator": self.conjugator.to_json(),
            "membership_certified_by": self.membership_certified_by,
            "certificate": self.certificate.to_json(),
            "summary": self.summary(),
        }


def _fail(check: str, detail: str) -> RuntimeError:
    return RuntimeError(f"internal verification failed at {check}: {detail}")


# Chains revisit few distinct steps (87 for all 1370 comparable pairs at
# N = 11) while sweeps never revisit one, so a bounded memo keeps every chain
# hit and stops a long sweep from holding all of its data.
@lru_cache(maxsize=256)
def _build_reduction(
    lam_parts: tuple[int, ...], mu_parts: tuple[int, ...]
) -> ReductionDatum:
    lam, mu = Partition(lam_parts), Partition(mu_parts)
    ad = adjacency_data(lam, mu)
    a, b, s = lam.part(ad.i), lam.part(ad.j), ad.j - ad.i - 1
    inner = build_case_one(a, b, s)
    source = align_for_theorem(lam, ad.i, ad.j, "source")
    target = align_for_theorem(lam, ad.i, ad.j, "target")
    window = _row_labels(source, range(ad.i, ad.j + 1))
    if len(window) != inner.lam.n or lam.parts[ad.i - 1 : ad.j] != inner.lam.parts:
        raise _fail("window", f"rows {ad.i}..{ad.j} of {lam} do not carry {inner.lam}")
    if target.partition != mu:
        raise _fail("target tableau shape", f"{target.partition} != {mu}")

    n = lam.n
    f_lam = nilpotent_from_pyramid(source)
    f_mu_std = nilpotent_from_pyramid(target)
    f_circ = _transport(inner.f_circ, window, n)
    f_mu_tilde = f_lam + f_circ
    ghosts = tuple(_transport(g, window, n) for g in inner.ghost_basis)
    # rows i and j are the top and bottom rows of the case-I window, which
    # the two-row conjugator moves; every other label stays fixed
    conjugator = _transport(
        conjugator_height_two(a, b),
        _row_labels(source, (ad.i, ad.j)),
        n,
        identity_off=True,
    )

    jordan = jordan_type(f_mu_std)
    if tuple(jordan) != mu.parts:
        raise _fail("jordan type of f_mu_std", f"{jordan} != {mu}")

    # the witness check inside check_star is the datum's one conjugation test:
    # a conjugator inside G_0(x2) carries goodness as well as Jordan type
    bi = BiGrading(grading_element_of(source), grading_element_of(target))
    try:
        certificate = check_star(f_lam, f_mu_tilde, bi, witness=(conjugator, f_mu_std))
    except ValueError as exc:
        raise _fail("conjugation", str(exc)) from exc
    if not certificate.passes:
        raise _fail("compatibility certificate", str(certificate.violations))
    if certificate.ghost_basis != ghosts:
        raise _fail(
            "ghost basis",
            "kernel route disagrees with the index-formula route",
        )

    # check_star paired f2 - f1 = f_circ with the ghosts checked equal above
    character = certificate.character
    expected = (Fraction(b),) + (Fraction(0),) * (len(ghosts) - 1)
    if character != expected:
        raise _fail("character", f"{character} != {expected}")

    return ReductionDatum(
        lam=lam,
        mu=mu,
        adjacency=ad,
        pyr_lam=source,
        pyr_mu=target,
        f_lam=f_lam,
        f_mu_std=f_mu_std,
        f_circ=f_circ,
        f_mu_tilde=f_mu_tilde,
        ghost_basis=ghosts,
        character=character,
        conjugator=conjugator,
        certificate=certificate,
        embedding_window=window,
    )


def build_reduction(lam: PartitionLike, mu: PartitionLike) -> ReductionDatum:
    """The verified reduction datum for a one-box move lam -> mu.

    Raises ValueError when mu is not a one-box move up from lam, and
    RuntimeError (naming the failing sub-check) if any internal
    verification fails — which must not happen for valid inputs.
    Results are memoized, so chains sharing steps don't recompute.
    """
    return _build_reduction(_coerce(lam).parts, _coerce(mu).parts)


def build_chain(lam: PartitionLike, mu: PartitionLike) -> list[ReductionDatum]:
    """One verified datum per step of the canonical path from lam to mu.

    Raises ValueError, through `reduction_path`, unless lam is below mu in
    dominance order.
    """
    steps = reduction_path(lam, mu).steps
    return [
        build_reduction(steps[k], steps[k + 1]) for k in range(len(steps) - 1)
    ]
