"""Reference window embedding, kept as a test oracle for `slred.reduction`.

The package used to carry a full-window datum into rows i..j of lam through
a precursor record, `EmbeddedDatum`, and to transport the height-two
conjugator twice: first onto the top and bottom rows of the case-I tableau,
then through the window.  The builder now reads everything off the aligned
tableaux of lam and transports the conjugator once.  The former route lives
on here unchanged and is only ever compared against the builder.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from slred.lie import ExactMatrix
from slred.orbits import Partition
from slred.pyramids import Pyramid, align_for_theorem, nilpotent_from_pyramid
from slred.reduction import (
    AdjacencyData,
    CaseOneDatum,
    PartitionLike,
    conjugator_height_two,
)

_ONE = Fraction(1)


def _coerce(p: PartitionLike) -> Partition:
    return p if isinstance(p, Partition) else Partition(p)


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


def _window_labels(p: Pyramid, i: int, j: int) -> tuple[int, ...]:
    return tuple(
        sorted(lab for (_x, row), lab in p.labels.items() if i <= row <= j)
    )


def _embedded_conjugator(inner: CaseOneDatum) -> ExactMatrix:
    """The height-two conjugator spread over the full window [a, b^(s+1)].

    f_circ only touches the top and bottom rows of the window, and both
    representatives preserve the splitting into (top row + bottom row)
    coordinates versus the interior rows.  So the two-row conjugator acts
    through the order isomorphism onto those labels and as the identity
    on every interior row.
    """
    parts = inner.lam.parts  # [a, b^(s+1)]
    g2 = conjugator_height_two(parts[0], parts[-1])
    source = align_for_theorem(inner.lam, 1, len(parts), "source")
    outer = tuple(
        sorted(
            lab
            for (_x, row), lab in source.labels.items()
            if row in (1, len(parts))
        )
    )
    return _transport(g2, outer, inner.lam.n, identity_off=True)


@dataclass(frozen=True)
class EmbeddedDatum:
    """A window datum transported into the ambient algebra (precursor)."""

    lam: Partition
    mu: Partition
    adjacency: AdjacencyData
    window: tuple[int, ...]
    source: Pyramid
    target: Pyramid
    f_lam: ExactMatrix
    f_circ: ExactMatrix
    f_mu_std: ExactMatrix
    f_mu_tilde: ExactMatrix
    ghost_basis: tuple[ExactMatrix, ...]
    conjugator_candidate: ExactMatrix


def embed_case_two(
    inner: CaseOneDatum, lam: PartitionLike, ad: AdjacencyData
) -> EmbeddedDatum:
    """Transport a full-window datum onto the window rows i..j inside lam.

    The index map sends window coordinate k to the k-th smallest label of
    rows i..j in the aligned source tableau; labels outside the window —
    and every arrow between them, which the move never touches — stay
    fixed.  For case I the map is the identity.
    """
    lam = _coerce(lam)
    source = align_for_theorem(lam, ad.i, ad.j, "source")
    target = align_for_theorem(lam, ad.i, ad.j, "target")
    window = _window_labels(source, ad.i, ad.j)
    if (
        len(window) != inner.lam.n
        or lam.parts[ad.i - 1 : ad.j] != inner.lam.parts
    ):
        raise ValueError(
            f"window rows {ad.i}..{ad.j} of {lam} do not carry {inner.lam}"
        )
    n = lam.n
    f_lam = nilpotent_from_pyramid(source)
    f_circ = _transport(inner.f_circ, window, n)
    ghosts = tuple(_transport(g, window, n) for g in inner.ghost_basis)
    conjugator = _transport(
        _embedded_conjugator(inner), window, n, identity_off=True
    )
    return EmbeddedDatum(
        lam=lam,
        mu=target.partition,
        adjacency=ad,
        window=window,
        source=source,
        target=target,
        f_lam=f_lam,
        f_circ=f_circ,
        f_mu_std=nilpotent_from_pyramid(target),
        f_mu_tilde=f_lam + f_circ,
        ghost_basis=ghosts,
        conjugator_candidate=conjugator,
    )
