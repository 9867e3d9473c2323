"""Double gradings and the compatibility certificate for a pair of good pairs.

Two commuting integer gradings split sl_N into bigraded cells.  A pair of
nilpotents (f1, f2) with good gradings (x1, x2) is *compatible* when

* every positive root sits in cell (0,0), (0,1), (1,0) or strictly positive
  bidegree (grading condition),
* the difference f2 - f1 is supported in the lower-triangular cell (0,-1)
  (nilpotent condition), and
* the pairing (u, v) -> (f1, [u, v]) between a complement of the
  ad(f1)-kernel inside cell (0,1) and cell (1,0) is nondegenerate.

The certificate also records the exact kernel basis of ad(f1) on cell (0,1)
(the "ghost" directions of the associated reduction) and the character values
(f2 - f1, ghost) that drive it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .lie import (
    ExactMatrix,
    GradingElement,
    Root,
    ad_rows,
    all_roots,
    inverse,
    nullspace_of_rows,
    rank_of_rows,
    trace_form,
)
from .pyramids import is_good_grading

_ZERO = Fraction(0)

__all__ = [
    "BiGrading",
    "StarCertificate",
    "bigrade",
    "compute_omega",
    "check_star",
    "kernel_on_basis",
    "omega_rows",
    "verify_conjugation",
]


class BiGrading:
    """A pair of integer (even) diagonal gradings of the same sl_N."""

    __slots__ = ("x1", "x2")

    def __init__(self, x1: GradingElement, x2: GradingElement):
        if x1.n != x2.n:
            raise ValueError("gradings live on different sl_N")
        for x in (x1, x2):
            if not x.is_even():
                raise ValueError(f"grading {x!r} is not integral on every root")
        self.x1 = x1
        self.x2 = x2

    @property
    def n(self) -> int:
        return self.x1.n

    def degree_of(self, root: Root) -> tuple[int, int]:
        l1, l2 = self.x1.levels, self.x2.levels
        i, j = root.i - 1, root.j - 1
        return (l1[i] - l1[j], l2[i] - l2[j])


def bigrade(bi: BiGrading) -> dict[tuple[int, int], tuple[Root, ...]]:
    """Partition all roots of sl_N by bidegree under the two gradings.

    Each cell is the tuple of its roots in lexicographic order.  Cell (0,0)
    holds the Cartan as well, so it is always present, even with no roots.
    """
    cells: dict[tuple[int, int], list[Root]] = {(0, 0): []}
    for root in all_roots(bi.n):
        cells.setdefault(bi.degree_of(root), []).append(root)
    return {degree: tuple(roots) for degree, roots in cells.items()}


def kernel_on_basis(
    f: ExactMatrix, roots: Sequence[Root]
) -> tuple[list[ExactMatrix], list[int]]:
    """Echelonized kernel of ad(f) on the span of root vectors, plus the pivot
    (complement) indices into `roots`."""
    # ad(f) as a map on root coordinates: one sparse row per matrix position
    rows: dict[tuple[int, int], dict[int, Fraction]] = {}
    for k, image in enumerate(ad_rows(f, roots)):
        for position, v in image.items():
            rows.setdefault(position, {})[k] = v
    vectors, free = nullspace_of_rows(list(rows.values()), len(roots))
    kernel = [ExactMatrix(f.n, {roots[k]: v for k, v in vec.items()}) for vec in vectors]
    free_set = set(free)
    return kernel, [k for k in range(len(roots)) if k not in free_set]


def omega_rows(
    f1: ExactMatrix, roots01: Sequence[Root], roots10: Sequence[Root]
) -> list[list[Fraction]]:
    """The pairing (u, v) -> (f1, [u, v]) on root vectors, one row per u.

    On root vectors it is the closed form
    (f1, [E_ab, E_cd]) = [b = c] f1[d,a] - [d = a] f1[b,c].
    """
    return [
        [
            (f1.entry(d, a) if b == c else _ZERO) - (f1.entry(b, c) if d == a else _ZERO)
            for c, d in roots10
        ]
        for a, b in roots01
    ]


def compute_omega(
    f1: ExactMatrix, complement: Sequence[Root], roots10: Sequence[Root]
) -> tuple[list[list[Fraction]], bool]:
    """Pairing (u, v) -> (f1, [u, v]) on complement-of-kernel x cell (1,0).

    `complement` lists the pivot roots of the echelonized ad(f1)-kernel
    inside cell (0,1) (see kernel_on_basis), which makes the matrix
    deterministic.  Returns (dense matrix, nondegenerate?); the flag is
    true iff the matrix is square of full rank (vacuously for 0 x 0).
    """
    rows = omega_rows(f1, complement, roots10)
    square = len(complement) == len(roots10)
    nondegenerate = square and (
        len(complement) == 0
        or rank_of_rows([dict(enumerate(row)) for row in rows]) == len(complement)
    )
    return rows, nondegenerate


def _is_abelian(roots: Sequence[Root]) -> bool:
    """Root vectors span an abelian subalgebra iff no root's column index is
    another root's row index, since [E_ab, E_cd] = [b = c] E_ad - [d = a] E_cb."""
    row_indices = {root.i for root in roots}
    return not any(root.j in row_indices for root in roots)


_ALLOWED_POSITIVE = ((0, 0), (0, 1), (1, 0))


@dataclass(frozen=True)
class StarCertificate:
    """Outcome of the two-grading compatibility check, with exact witnesses.

    `violations` has one entry per False condition, so the certificate
    passes exactly when it is empty.  `complement` lists the pivot roots of
    cell (0,1), which index the rows of `omega_matrix`; the payload does not
    carry it.
    """

    n: int
    grading_ok: bool
    nilpotent_ok: bool
    abelian_01: bool
    abelian_10: bool
    omega_nondegenerate: bool
    good_pair_1: bool
    good_pair_2: bool
    ghost_basis: tuple[ExactMatrix, ...]
    complement: tuple[Root, ...]
    omega_matrix: tuple[tuple[Fraction, ...], ...]
    f_circ: ExactMatrix
    character: tuple[Fraction, ...]
    violations: dict

    @property
    def passes(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "pass": self.passes,
            "grading_ok": self.grading_ok,
            "nilpotent_ok": self.nilpotent_ok,
            "abelian_01": self.abelian_01,
            "abelian_10": self.abelian_10,
            "omega_nondegenerate": self.omega_nondegenerate,
            "good_pair_1": self.good_pair_1,
            "good_pair_2": self.good_pair_2,
            "ghost_basis": [m.to_json() for m in self.ghost_basis],
            "omega": [[str(v) for v in row] for row in self.omega_matrix],
            "f_circ": self.f_circ.to_json(),
            "character": [str(v) for v in self.character],
            "violations": {
                key: sorted(self.violations[key]) for key in sorted(self.violations)
            },
        }


def verify_conjugation(
    g: ExactMatrix, f_tilde: ExactMatrix, f_std: ExactMatrix
) -> bool:
    """True iff inverse(g) * f_tilde * g equals f_std exactly.

    Raises ValueError when g is singular.
    """
    return inverse(g) * f_tilde * g == f_std


def _witnessed_representative(
    witness: tuple[ExactMatrix, ExactMatrix], f2: ExactMatrix, bi: BiGrading
) -> ExactMatrix:
    """Check a witness (g, f_std) and return f_std.

    The witness must satisfy g^-1 f2 g = f_std (verify_conjugation, which
    raises on a singular g) with g of x2-degree 0.  Then Ad(g) preserves
    the x2 grading and carries f_std to f2, so the two share their Jordan
    type and their x2-goodness.
    """
    g, f_std = witness
    if not verify_conjugation(g, f2, f_std):
        raise ValueError("witness does not conjugate f_std to f2")
    if not bi.x2.commutes_with(g):
        raise ValueError("witness conjugator has nonzero x2-degree")
    return f_std


def check_star(
    f1: ExactMatrix,
    f2: ExactMatrix,
    bi: BiGrading,
    *,
    witness: Optional[tuple[ExactMatrix, ExactMatrix]] = None,
) -> StarCertificate:
    """Certify or refute compatibility of a pair of graded nilpotents.

    Malformed input (size mismatch, a non-nilpotent matrix, a bad witness)
    raises; every verdict about the two elements — including whether each
    one forms a good pair with its grading — is reported in the certificate
    instead.  An optional witness (g, f_std) with f2 = g f_std g^-1 and g of
    x2-degree 0 lets the Jordan type and the goodness of (f2, x2) be read
    off f_std, typically a pyramid nilpotent; the certificate is the same.
    """
    n = bi.n
    if f1.n != n or f2.n != n:
        raise ValueError("nilpotents and gradings live on different sl_N")
    # the goodness checks below raise on a non-nilpotent f1 or f2_rep
    f2_rep = f2 if witness is None else _witnessed_representative(witness, f2, bi)

    cells = bigrade(bi)
    violations: dict[str, list[str]] = {}

    bad_roots = [
        root
        for degree, roots in sorted(cells.items())
        for root in roots
        if root.is_positive
        and degree not in _ALLOWED_POSITIVE
        and not (degree[0] > 0 and degree[1] > 0)
    ]
    if bad_roots:
        violations["grading"] = [
            f"{root} in {bi.degree_of(root)}" for root in sorted(bad_roots)
        ]

    f_circ = f2 - f1
    bad_entries = [
        Root(i, j)
        for (i, j), _v in f_circ.items()
        if i <= j or bi.degree_of(Root(i, j)) != (0, -1)
    ]
    if bad_entries:
        violations["nilpotent"] = [
            f"{root} in {bi.degree_of(root) if root.i != root.j else 'diagonal'}"
            for root in sorted(bad_entries)
        ]

    roots01 = cells.get((0, 1), ())
    roots10 = cells.get((1, 0), ())
    ghost_basis, pivots = kernel_on_basis(f1, roots01)
    complement = tuple(roots01[k] for k in pivots)
    omega, nondegenerate = compute_omega(f1, complement, roots10)
    if not nondegenerate:
        violations["omega"] = [
            f"pairing is {len(omega)} x {len(roots10)}"
            + ("" if len(omega) == len(roots10) else " (not square)")
        ]

    flags = {}
    for name, ok, failure in (
        ("abelian_01", _is_abelian(roots01), "cell (0,1) is not abelian"),
        ("abelian_10", _is_abelian(roots10), "cell (1,0) is not abelian"),
        ("good_pair_1", is_good_grading(f1, bi.x1), "(f1, x1) is not a good pair"),
        ("good_pair_2", is_good_grading(f2_rep, bi.x2), "(f2, x2) is not a good pair"),
    ):
        flags[name] = ok
        if not ok:
            violations[name] = [failure]

    return StarCertificate(
        n=n,
        grading_ok=not bad_roots,
        nilpotent_ok=not bad_entries,
        omega_nondegenerate=nondegenerate,
        **flags,
        ghost_basis=tuple(ghost_basis),
        complement=complement,
        omega_matrix=tuple(tuple(row) for row in omega),
        f_circ=f_circ,
        character=tuple(trace_form(f_circ, g) for g in ghost_basis),
        violations=violations,
    )
