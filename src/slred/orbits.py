"""Partitions of N, dominance order, the covering (adjacency) relation and
deterministic reduction paths through the orbit lattice.

A partition labels a nilpotent orbit of sl_N by Jordan type; mu covers lam
exactly when one box moves from the end of a row block to an earlier row and
no orbit fits strictly in between.  Box moves and covers are generated from
the rows by that rule (`box_moves_from`), never found by trial.
"""

from __future__ import annotations

from functools import lru_cache, total_ordering
from itertools import zip_longest
from operator import index
from typing import Iterable, Iterator, Optional, Sequence


@total_ordering
class Partition:
    """A weakly decreasing sequence of positive integers."""

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[int]):
        # operator.index rejects 1.5 or Fraction(3, 2) instead of truncating
        cleaned = tuple(p for p in map(index, parts) if p)
        if any(p < 0 for p in cleaned):
            raise ValueError("partition parts must be positive")
        if any(cleaned[k] < cleaned[k + 1] for k in range(len(cleaned) - 1)):
            raise ValueError(f"parts must be weakly decreasing: {cleaned}")
        self.parts = cleaned

    @property
    def n(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def part(self, k: int) -> int:
        """The k-th part (1-based), zero when k exceeds the length."""
        return self.parts[k - 1] if 1 <= k <= len(self.parts) else 0

    def padded(self, length: int) -> tuple[int, ...]:
        return self.parts + (0,) * (length - len(self.parts))

    def partial_sums(self, length: Optional[int] = None) -> tuple[int, ...]:
        vals = self.padded(length) if length else self.parts
        out = []
        acc = 0
        for v in vals:
            acc += v
            out.append(acc)
        return tuple(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self.parts == other.parts

    def __lt__(self, other: "Partition") -> bool:
        # plain lexicographic order on part tuples; dominance is a separate
        # partial order and lives in dominance_leq
        return self.parts < other.parts

    def __hash__(self) -> int:
        return hash(self.parts)

    def __repr__(self) -> str:
        return f"[{','.join(map(str, self.parts))}]"

    def to_json(self) -> list[int]:
        return list(self.parts)


def _coerce(p) -> Partition:
    return p if isinstance(p, Partition) else Partition(p)


def partitions_of(n: int) -> list[Partition]:
    """All partitions of n, in reverse-lexicographic order ([n] first)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    out: list[Partition] = []

    def descend(remaining: int, cap: int, prefix: list[int]) -> None:
        if remaining == 0:
            out.append(Partition(prefix))
            return
        for nxt in range(min(cap, remaining), 0, -1):
            prefix.append(nxt)
            descend(remaining - nxt, nxt, prefix)
            prefix.pop()

    descend(n, n, [])
    return out


def transpose(lam) -> Partition:
    """Conjugate partition (column counts)."""
    lam = _coerce(lam)
    if not lam.parts:
        return Partition(())
    return Partition(
        sum(1 for p in lam.parts if p >= k) for k in range(1, lam.parts[0] + 1)
    )


def dominance_leq(lam, mu) -> bool:
    """True iff every partial sum of lam is <= the matching one of mu.

    Partitions of different totals are never comparable.
    """
    lam, mu = _coerce(lam), _coerce(mu)
    if lam.n != mu.n:
        return False
    lead = 0  # partial sum of lam minus that of mu
    for a, b in zip_longest(lam.parts, mu.parts, fillvalue=0):
        lead += a - b
        if lead > 0:
            return False
    return True


def box_move_witness(lam, mu) -> Optional[tuple[int, int]]:
    """The unique (i, j), i < j, with mu = lam + box at row i - box at row j.

    Requires lam_i = mu_i - 1, lam_{i+1} = ... = lam_j = mu_j + 1 and
    lam_k = mu_k elsewhere; returns None when no such witness exists.
    """
    lam, mu = _coerce(lam), _coerce(mu)
    if lam.n != mu.n or lam == mu:
        return None
    length = max(len(lam), len(mu)) + 1  # +1 so a vanished last row is visible
    a = lam.padded(length)
    b = mu.padded(length)
    diffs = [k for k in range(length) if a[k] != b[k]]
    if not diffs:
        return None
    i, j = diffs[0] + 1, diffs[-1] + 1
    if i >= j:
        return None
    if a[i - 1] != b[i - 1] - 1 or a[j - 1] != b[j - 1] + 1:
        return None
    middle = a[i : j]  # rows i+1 .. j of lam (0-based slice)
    if any(v != a[j - 1] for v in middle):
        return None
    if any(a[k] != b[k] for k in range(length) if k not in (i - 1, j - 1)):
        return None
    return i, j


def box_moves_from(lam) -> Iterator[tuple[Partition, tuple[int, int]]]:
    """Every one-box move (mu, (i, j)) up from lam, by increasing i.

    mu = lam + e_i - e_j with i < j is a box move exactly when row i may grow
    (i = 1 or lam_{i-1} > lam_i), rows i+1..j share one length, and row j
    may shrink (j is the last row or lam_{j+1} < lam_j).  So j closes the
    block of equal rows that starts at row i+1, and one scan finds it.
    """
    parts = _coerce(lam).parts
    rows = len(parts)
    block_end = [rows] * rows  # 1-based last row of the block holding row k+1
    for k in range(rows - 2, -1, -1):
        block_end[k] = block_end[k + 1] if parts[k] == parts[k + 1] else k + 1
    for i in range(1, rows):
        if i > 1 and parts[i - 2] == parts[i - 1]:
            continue
        j = block_end[i]
        moved = list(parts)
        moved[i - 1] += 1
        moved[j - 1] -= 1
        yield Partition(moved), (i, j)


# Bounded, and still large enough for all 2713 partitions with N <= 20.
@lru_cache(maxsize=4096)
def _covers(parts: tuple[int, ...]) -> tuple[Partition, ...]:
    # a box move i -> j is a cover iff j = i + 1 or lam_i = lam_{i+1}
    return tuple(
        mu
        for mu, (i, j) in box_moves_from(parts)
        if j == i + 1 or parts[i - 1] == parts[i]
    )


def covers_of(lam) -> set[Partition]:
    """All partitions covering lam in dominance order."""
    return set(_covers(_coerce(lam).parts))


def is_adjacent(lam, mu) -> bool:
    """True iff mu covers lam in dominance order.

    That is a box move i -> j with, on top, j = i + 1 or lam_i = lam_{i+1}
    (otherwise an orbit fits strictly in between), so it is a lookup in the
    memoized covers of lam.
    """
    return _coerce(mu) in _covers(_coerce(lam).parts)


class OrbitChain:
    """A saturated chain in the dominance order, smallest orbit first."""

    __slots__ = ("steps",)

    def __init__(self, steps: Sequence[Partition]):
        steps = tuple(_coerce(s) for s in steps)
        if not steps:
            raise ValueError("a chain needs at least one partition")
        for a, b in zip(steps, steps[1:]):
            if not is_adjacent(a, b):
                raise ValueError(f"consecutive steps {a} and {b} are not adjacent")
        self.steps = steps

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self) -> Iterator[Partition]:
        return iter(self.steps)

    def __getitem__(self, k: int) -> Partition:
        return self.steps[k]

    def __eq__(self, other) -> bool:
        return isinstance(other, OrbitChain) and self.steps == other.steps

    def __repr__(self) -> str:
        return " < ".join(map(repr, self.steps))

    def to_json(self) -> list[list[int]]:
        return [list(s.parts) for s in self.steps]


def reduction_path(lam, mu) -> OrbitChain:
    """A deterministic saturated chain lam = v_0 < v_1 < ... < v_k = mu.

    At every step the dominance-smallest admissible cover is chosen (the one
    with lexicographically least partial sums), so identical inputs always
    produce the identical chain.
    """
    lam, mu = _coerce(lam), _coerce(mu)
    if not dominance_leq(lam, mu):
        raise ValueError(f"{lam} is not below {mu} in dominance order")
    steps = [lam]
    current = lam
    width = max(len(lam), len(mu))
    while current != mu:
        candidates = [c for c in covers_of(current) if dominance_leq(c, mu)]
        if not candidates:  # cannot happen in a dominance interval
            raise RuntimeError(f"no admissible cover from {current} toward {mu}")
        current = min(candidates, key=lambda c: c.partial_sums(width))
        steps.append(current)
    return OrbitChain(steps)
