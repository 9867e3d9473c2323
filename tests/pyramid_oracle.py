"""Reference pyramid routines, kept as a test oracle for `slred.pyramids`.

The raising partner of a pyramid nilpotent completes it to an sl_2-triple.
The package never needed it, so it lives on here for the tests that check
the triple and the joint kernel of e and f, together with the row reading
it is built from.
"""

from fractions import Fraction

from slred.lie import ExactMatrix
from slred.pyramids import Pyramid


def row_labels(p: Pyramid, row: int) -> list[int]:
    """Labels of one row, left to right."""
    right = p.row_offset[row - 1]
    length = p.partition.part(row)
    return [p.labels[(x, row)] for x in range(right - length + 1, right + 1)]


def raising_operator(p: Pyramid) -> ExactMatrix:
    """Raising partner e of the pyramid nilpotent f.

    Each row is a single Jordan chain for f; placing the coefficient
    k*(L - k) on the k-th reversed arrow of a length-L row makes
    (e, [e, f], f) an sl_2-triple.
    """
    entries: dict[tuple[int, int], Fraction] = {}
    for r in range(1, p.rows + 1):
        chain = row_labels(p, r)[::-1]
        length = len(chain)
        for k in range(1, length):
            entries[(chain[k - 1], chain[k])] = Fraction(k * (length - k))
    return ExactMatrix(p.n, entries)
