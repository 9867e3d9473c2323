"""Dense reference elimination, kept as a test oracle for `slred.lie`.

These are the dense routines the package used before its single sparse
kernel: Bareiss elimination on an integer copy for ranks, a dense
`Fraction` RREF for kernels and inverses, and the Jordan type from the
ranks of powers.  They are independent of the sparse code and are only
ever compared against it.

`is_good_grading` is the package's goodness check as it stood while it
also tested the surjective axioms (its nilpotency guard now resolves to the
dense `jordan_type` here); the package tests injectivity alone, and this
two-sided version is the oracle for that duality.

`witnessed_representative` is the certificate's witness check as it stood
before the package tested each witness once through `verify_conjugation`:
it tests f2 g = g f_std, the x2-degree of g, and the nonsingularity of g by
a kernel of its own, here the dense one.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from slred.lie import (
    ExactMatrix,
    GradingElement,
    Root,
    ad_rank,
    root_decomposition,
)
from slred.star import BiGrading

_ZERO = Fraction(0)
_ONE = Fraction(1)


def dense_rows(m: ExactMatrix) -> list[list[Fraction]]:
    """Dense row-major copy of a matrix."""
    out = [[_ZERO] * m.n for _ in range(m.n)]
    for (i, j), v in m.items():
        out[i - 1][j - 1] = v
    return out


def _integer_rows(rows: Sequence[Sequence[Fraction]]) -> list[list[int]]:
    """Scale each row by the lcm of its denominators (rank-preserving)."""
    out = []
    for row in rows:
        scale = 1
        for v in row:
            if v:
                scale = scale * v.denominator // math.gcd(scale, v.denominator)
        out.append([int(v * scale) for v in row])
    return out


def rank_of_rows(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank by fraction-free (Bareiss) elimination on an integer copy."""
    m = _integer_rows(rows)
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    rank = 0
    prev = 1
    for col in range(ncols):
        piv = None
        for r in range(rank, nrows):
            if m[r][col]:
                piv = r
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pivot = m[rank][col]
        for r in range(rank + 1, nrows):
            factor = m[r][col]
            row_r = m[r]
            row_p = m[rank]
            for c in range(col + 1, ncols):
                # Bareiss update: the division by the previous pivot is exact.
                row_r[c] = (pivot * row_r[c] - factor * row_p[c]) // prev
            row_r[col] = 0
        prev = pivot
        rank += 1
        if rank == nrows:
            break
    return rank


def rref_rows(
    rows: Sequence[Sequence[Fraction]],
) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row-echelon form over Fraction; returns (rows, pivot columns)."""
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = None
        for k in range(r, nrows):
            if m[k][c]:
                piv = k
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = _ONE / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for k in range(nrows):
            if k != r and m[k][c]:
                f = m[k][c]
                m[k] = [a - f * b for a, b in zip(m[k], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def nullspace_of_rows(
    rows: Sequence[Sequence[Fraction]], ncols: int
) -> tuple[list[list[Fraction]], list[int]]:
    """Echelonized kernel basis of the linear map given by `rows`.

    Returns (basis vectors, free column indices); basis vector k has a 1 in
    free column k and is supported otherwise only on pivot columns, which
    makes the basis canonical.
    """
    reduced, pivots = rref_rows(rows) if rows else ([], [])
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        vec = [_ZERO] * ncols
        vec[fc] = _ONE
        for r, pc in enumerate(pivots):
            if reduced[r][fc]:
                vec[pc] = -reduced[r][fc]
        basis.append(vec)
    return basis, free


def inverse(m: ExactMatrix) -> ExactMatrix:
    """Exact inverse; raises ValueError on a singular matrix."""
    n = m.n
    aug = []
    dense = dense_rows(m)
    for i in range(n):
        row = list(dense[i]) + [_ZERO] * n
        row[n + i] = _ONE
        aug.append(row)
    reduced, pivots = rref_rows(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    entries = {}
    for i in range(n):
        for j in range(n):
            v = reduced[i][n + j]
            if v:
                entries[(i + 1, j + 1)] = v
    return ExactMatrix(n, entries)


def jordan_type(m: ExactMatrix) -> tuple[int, ...]:
    """Jordan type of a nilpotent matrix from the dense ranks of its powers;
    raises ValueError if m is not nilpotent."""
    n = m.n
    ranks = [n]
    power = m
    while not power.is_zero():
        if len(ranks) > n:
            raise ValueError("matrix is not nilpotent")
        ranks.append(rank_of_rows(dense_rows(power)))
        power = power * m
    # counts[k-1] = rank(m^{k-1}) - rank(m^k) = number of blocks of size >= k
    counts = [
        ranks[k - 1] - (ranks[k] if k < len(ranks) else 0)
        for k in range(1, len(ranks) + 1)
    ]
    parts: list[int] = []
    for k in range(1, len(counts) + 1):
        exactly = counts[k - 1] - (counts[k] if k < len(counts) else 0)
        parts.extend([k] * exactly)
    parts.sort(reverse=True)
    return tuple(parts)


def is_good_grading(f: ExactMatrix, x: GradingElement) -> bool:
    """Exact check of the three good-grading axioms for an even grading.

    f must live in degree -1, ad(f) must be injective on every positive
    degree and surjective onto every negative one; all three are rank
    computations on graded components, which `ad_rank` does by union-find
    when f is a 0/1 partial permutation (every pyramid nilpotent is one).
    """
    if f.n != x.n:
        raise ValueError("size mismatch between f and x")
    jordan_type(f)  # raises on a non-nilpotent candidate
    if any(i == j for (i, j), _v in f.items()):
        return False
    if any(x.of_root(Root(i, j)) != -1 for (i, j), _v in f.items()):
        return False
    decomposition = root_decomposition(x)
    grades = sorted(decomposition)
    for grade in grades:
        roots = decomposition[grade]
        if grade > 0:
            # ker(ad f) trivial on g_d, d > 0
            if ad_rank(f, roots) != len(roots):
                return False
        elif grade <= -1:
            # g_d, d < 0, inside the image of ad f from g_{d+1}
            units = list(decomposition.get(grade + 1, []))
            if grade == -1:
                units.extend((k, k) for k in range(1, f.n + 1))
            if ad_rank(f, units) != len(roots):
                return False
    return True


def witnessed_representative(
    witness: tuple[ExactMatrix, ExactMatrix], f2: ExactMatrix, bi: BiGrading
) -> ExactMatrix:
    """Check a witness (g, f_std) and return f_std.

    The witness must satisfy f2 g = g f_std with g nonsingular and of
    x2-degree 0.  Then Ad(g) preserves the x2 grading and carries f_std to
    f2, so the two share their Jordan type and their x2-goodness.
    """
    g, f_std = witness
    if f2 * g != g * f_std:
        raise ValueError("witness does not conjugate f_std to f2")
    if not bi.x2.commutes_with(g):
        raise ValueError("witness conjugator has nonzero x2-degree")
    kernel, _free = nullspace_of_rows(dense_rows(g), g.n)
    if kernel:
        raise ValueError("witness conjugator is singular")
    return f_std
