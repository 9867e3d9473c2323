"""Pyramids: row-shifted Young diagrams whose box x-coordinates define an
even good grading and whose horizontal adjacencies define the nilpotent
representative of an orbit.

Boxes live at integer x-coordinates; row 1 is the bottom row.  The canonical
labelling sorts boxes by x descending, then row ascending (smaller labels
weakly to the right).  Explicit labellings are accepted as long as labels
weakly decrease in x, which is what the slid target tableaux of the
adjacent-pair construction produce.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .lie import (
    ExactMatrix,
    GradingElement,
    Root,
    ad_rank,
    jordan_type,
    root_decomposition,
)
from .orbits import Partition

Box = tuple[int, int]  # (x, row)


class Pyramid:
    """A labelled pyramid: partition, per-row right-end offsets, labels."""

    __slots__ = ("partition", "row_offset", "labels", "_by_label")

    def __init__(
        self,
        partition,
        row_offset: Sequence[int],
        labels: Optional[dict[Box, int]] = None,
    ):
        partition = partition if isinstance(partition, Partition) else Partition(partition)
        if len(row_offset) != len(partition):
            raise ValueError("need one offset per row")
        self.partition = partition
        self.row_offset = tuple(int(o) for o in row_offset)
        boxes = self._boxes()
        if labels is None:
            labels = {box: k + 1 for k, box in enumerate(self._canonical_order(boxes))}
        else:
            labels = {(int(x), int(r)): int(v) for (x, r), v in labels.items()}
            if set(labels) != set(boxes):
                raise ValueError("labels must cover exactly the boxes of the pyramid")
            if sorted(labels.values()) != list(range(1, len(boxes) + 1)):
                raise ValueError("labels must be a bijection onto 1..N")
            by_label = sorted(labels.items(), key=lambda kv: kv[1])
            xs = [x for (x, _r), _v in by_label]
            if any(xs[k] < xs[k + 1] for k in range(len(xs) - 1)):
                raise ValueError("labels must weakly decrease left of smaller labels")
        self.labels = labels
        self._by_label = {v: box for box, v in labels.items()}

    def _boxes(self) -> list[Box]:
        out = []
        for r, (length, right) in enumerate(zip(self.partition, self.row_offset), start=1):
            out.extend((x, r) for x in range(right - length + 1, right + 1))
        return out

    @staticmethod
    def _canonical_order(boxes: Sequence[Box]) -> list[Box]:
        return sorted(boxes, key=lambda box: (-box[0], box[1]))

    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        return self.partition.n

    @property
    def rows(self) -> int:
        return len(self.partition)

    def xcoords(self) -> list[int]:
        """x-coordinate of each box, indexed by label (position k = label k+1)."""
        return [self._by_label[k][0] for k in range(1, self.n + 1)]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Pyramid)
            and self.partition == other.partition
            and self.row_offset == other.row_offset
            and self.labels == other.labels
        )

    def __hash__(self) -> int:
        return hash((self.partition, self.row_offset, frozenset(self.labels.items())))

    def __repr__(self) -> str:
        return f"Pyramid({self.partition}, offsets={self.row_offset})"

    def to_json(self) -> dict:
        return {
            "partition": list(self.partition.parts),
            "row_offset": list(self.row_offset),
            "labels": [
                [x, r, self.labels[(x, r)]]
                for (x, r) in sorted(self._boxes(), key=lambda b: (b[1], b[0]))
            ],
        }


def left_aligned_offsets(lam) -> tuple[int, ...]:
    """Offsets putting every row's left end at x = 0."""
    lam = lam if isinstance(lam, Partition) else Partition(lam)
    return tuple(p - 1 for p in lam.parts)


def right_aligned_offsets(lam) -> tuple[int, ...]:
    """Offsets putting every row's right end at x = 0."""
    lam = lam if isinstance(lam, Partition) else Partition(lam)
    return (0,) * len(lam.parts)


def _validate_window(lam: Partition, i: int, j: int) -> None:
    n = len(lam)
    if not (1 <= i < j <= n):
        raise ValueError(f"window ({i},{j}) out of range for {lam}")
    middle = {lam.part(k) for k in range(i + 1, j + 1)}
    if len(middle) > 1:
        raise ValueError(f"rows {i + 1}..{j} of {lam} must be equal")
    if i > 1 and lam.part(i - 1) <= lam.part(i):
        raise ValueError("row above the window would break monotonicity")
    if j < n and lam.part(j) <= lam.part(j + 1):
        raise ValueError("row below the window would break monotonicity")


def _source_offsets(lam: Partition, i: int, j: int) -> tuple[int, ...]:
    # rows i..j share their left end at x = 0; rows outside are right-aligned
    # against the nearest window row
    offsets = []
    for k in range(1, len(lam) + 1):
        if k < i:
            offsets.append(lam.part(i) - 1)
        elif k <= j:
            offsets.append(lam.part(k) - 1)
        else:
            offsets.append(lam.part(j) - 1)
    return tuple(offsets)


def align_for_theorem(lam, i: int, j: int, stage: str = "source") -> Pyramid:
    """The tableau the adjacent-pair construction uses for the move i -> j.

    stage="source" is the lam-tableau: rows i..j left-aligned, rows below
    right-aligned with row i, rows above right-aligned with row j.
    stage="target" slides rows j..n one step left and drops the left-end box
    of row j down to row i, keeping every box's label (inherited labelling).
    """
    lam = lam if isinstance(lam, Partition) else Partition(lam)
    _validate_window(lam, i, j)
    if stage not in ("source", "target"):
        raise ValueError(f"unknown stage {stage!r}")
    source = Pyramid(lam, _source_offsets(lam, i, j))
    if stage == "source":
        return source
    # slide rows j..n left by one; the box that held the left end of row j
    # falls down to row i, one column left of row i's left end
    moved: dict[Box, int] = {}
    for (x, r), label in source.labels.items():
        if r >= j:
            moved[(x - 1, r)] = label
        else:
            moved[(x, r)] = label
    drop_from = (-1, j)
    drop_to = (-1, i)
    moved[drop_to] = moved.pop(drop_from)
    rows_present = sorted({r for (_x, r) in moved})
    counts = []
    offsets = []
    for r in rows_present:
        xs = [x for (x, rr) in moved if rr == r]
        counts.append(len(xs))
        offsets.append(max(xs))
    return Pyramid(Partition(counts), offsets, moved)


def nilpotent_from_pyramid(p: Pyramid) -> ExactMatrix:
    """f = sum of E_{a,b} over boxes a immediately left of b in a row."""
    entries = {}
    for (x, r), label in p.labels.items():
        right = p.labels.get((x + 1, r))
        if right is not None:
            entries[(label, right)] = Fraction(1)
    return ExactMatrix(p.n, entries)


def grading_element_of(p: Pyramid) -> GradingElement:
    """Centred diagonal of box x-coordinates, ordered by label."""
    return GradingElement.from_xcoords(p.xcoords())


def is_good_grading(f: ExactMatrix, x: GradingElement) -> bool:
    """Exact check of the good-grading axioms for the pair (f, x).

    f must be nilpotent (anything else raises) and of degree -1, and ad(f)
    must be injective on every positive degree.  An f whose every entry has
    degree -1 lowers each x-eigenvalue by 1, so it is nilpotent and off the
    diagonal without a further test; only an f that fails the degree test
    has its nilpotency checked, by `jordan_type`.  The trace form pairs g_d
    with g_(-d), and ad(f): g_d -> g_(d-1) is minus the transpose of
    ad(f): g_(1-d) -> g_(-d) under it.  So injectivity on g_d is
    surjectivity onto g_(-d), and the surjective axioms need no check of
    their own (Elashvili-Kac, 2005).  Each injectivity is a rank on one
    graded component, which `ad_rank` finds by union-find when f is a 0/1
    partial permutation (every pyramid nilpotent is one).
    """
    if f.n != x.n:
        raise ValueError("size mismatch between f and x")
    if any(x.of_root(Root(i, j)) != -1 for (i, j), _v in f.items()):
        jordan_type(f)  # raises on a non-nilpotent candidate
        return False
    return all(
        ad_rank(f, roots) == len(roots)
        for grade, roots in root_decomposition(x).items()
        if grade > 0
    )


@dataclass(frozen=True)
class GoodPair:
    """A verified good pair (f, x)."""

    f: ExactMatrix
    x: GradingElement


def good_pair(p: Pyramid) -> GoodPair:
    """Derive (f, x) from a pyramid and certify the good-grading axioms."""
    f = nilpotent_from_pyramid(p)
    x = grading_element_of(p)
    if jordan_type(f) != p.partition.parts:
        raise ValueError(f"nilpotent of {p} has the wrong Jordan type")
    if not is_good_grading(f, x):
        raise ValueError(f"{p} does not define a good grading")
    return GoodPair(f, x)


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------


def render(p: Pyramid, fmt: str = "ascii") -> str:
    if fmt == "ascii":
        return _render_ascii(p)
    if fmt == "tikz":
        return render_tikz(p)
    raise ValueError(f"unknown format {fmt!r}")


def _render_ascii(p: Pyramid) -> str:
    boxes = p.labels
    xs = [x for (x, _r) in boxes]
    lo, hi = min(xs), max(xs)
    width = max(len(str(p.n)), 1)
    cell = width + 2
    lines = []
    for r in range(p.rows, 0, -1):
        line = "".join(
            f"[{boxes[(x, r)]:>{width}}]" if (x, r) in boxes else " " * cell
            for x in range(lo, hi + 1)
        )
        lines.append(line.rstrip())
    lines.append("".join(f"{x:^{cell}}" for x in range(lo, hi + 1)).rstrip())
    return "\n".join(lines)


def render_tikz(*pyramids: Pyramid) -> str:
    """Standalone TikZ source placing the pyramids left to right.

    Each pyramid's leftmost box sits three columns past the previous one's
    rightmost box; the first keeps its own x-coordinates.
    """
    lines = [
        r"\documentclass[tikz,border=2mm]{standalone}",
        r"\begin{document}",
        r"\begin{tikzpicture}[box/.style={draw,minimum size=6mm,inner sep=0pt}]",
    ]
    offset = right = 0
    for k, p in enumerate(pyramids):
        xs = [x for (x, _r) in p.labels]
        if k:
            offset = right + 3 - min(xs)
        for (x, r) in sorted(p.labels, key=lambda b: (b[1], b[0])):
            lines.append(
                rf"  \node[box] at ({x + offset},{r - 1}) {{{p.labels[(x, r)]}}};"
            )
        right = offset + max(xs)
    lines.append(r"\end{tikzpicture}")
    lines.append(r"\end{document}")
    return "\n".join(lines) + "\n"
