"""Reference orbit combinatorics, kept as a test oracle for `slred.orbits`.

The package used to find covers by trial and error: build every partition
lam + e_i - e_j, keep those `is_adjacent` accepts, and walk reduction paths
through them; `verify-all` found its pairs by testing `box_move_witness` on
all p(N)^2 ordered pairs.  Those routines live on here unchanged, and so does
the old `is_adjacent`, which applied the cover clause to the witness of
`box_move_witness`; the package's `is_adjacent` now looks mu up among the
covers that `box_moves_from` generates.  The routines here are independent
of that row rule and are only ever compared against it.
"""

from __future__ import annotations

from slred.orbits import (
    OrbitChain,
    Partition,
    _coerce,
    box_move_witness,
    partitions_of,
)


def dominance_leq(lam, mu) -> bool:
    """True iff every partial sum of lam is <= the matching one of mu.

    Partitions of different totals are never comparable.
    """
    lam, mu = _coerce(lam), _coerce(mu)
    if lam.n != mu.n:
        return False
    length = max(len(lam), len(mu))
    acc_l = acc_m = 0
    for k in range(length):
        acc_l += lam.part(k + 1)
        acc_m += mu.part(k + 1)
        if acc_l > acc_m:
            return False
    return True


def is_adjacent(lam, mu) -> bool:
    """True iff mu covers lam in dominance order.

    On top of the box move i -> j this needs j = i + 1 or lam_i = lam_{i+1};
    otherwise an intermediate orbit exists.
    """
    lam, mu = _coerce(lam), _coerce(mu)
    witness = box_move_witness(lam, mu)
    if witness is None:
        return False
    i, j = witness
    return j == i + 1 or lam.part(i) == lam.part(i + 1)


def covers_of(lam) -> set[Partition]:
    """All partitions covering lam in dominance order."""
    lam = _coerce(lam)
    length = len(lam.parts)
    out: set[Partition] = set()
    for i in range(1, length + 1):
        for j in range(i + 1, length + 1):
            parts = list(lam.padded(length))
            parts[i - 1] += 1
            parts[j - 1] -= 1
            try:
                mu = Partition(parts)
            except ValueError:
                continue
            if is_adjacent(lam, mu):
                out.add(mu)
    return out


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


def box_move_pairs(n_max: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every box-move pair with 2 <= N <= n_max, by the p(N)^2 scan."""
    pairs = []
    for n in range(2, n_max + 1):
        parts = partitions_of(n)
        for lam in parts:
            for mu in parts:
                if lam != mu and box_move_witness(lam, mu) is not None:
                    pairs.append((lam.parts, mu.parts))
    return pairs
