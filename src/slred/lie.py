"""Exact rational linear algebra on gl_N / sl_N.

Matrices are sparse, 1-based and carry `fractions.Fraction` entries.  Every
rank, kernel and inverse comes from one fraction-free elimination kernel on
sparse `{column: value}` rows, so every goodness or non-degeneracy verdict in
the package is exact.  No floating point numbers appear anywhere.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, Union

RationalLike = Union[Fraction, int, str]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _rat(value: RationalLike) -> Fraction:
    """Coerce an int / string / Fraction to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) or isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__!s}")


class Root(NamedTuple):
    """The root eps_i - eps_j of sl_N, with root vector E_{i,j} (i != j)."""

    i: int
    j: int

    @property
    def is_positive(self) -> bool:
        return self.i < self.j

    def __str__(self) -> str:  # used in polynomial variable names
        return f"({self.i},{self.j})"


def all_roots(n: int) -> list[Root]:
    """All N(N-1) roots of sl_N in lexicographic (i, j) order."""
    return [Root(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]


class SparseMatrix:
    """Sparse N x N matrix over a commutative ring, 1-based and immutable.

    Entries are indexed by (row, col) in [1, N]; zero entries are never
    stored.  The arithmetic uses only +, * and unary - of the entries and
    a falsy zero.  A subclass fixes the ring: `_coerce` turns a given
    entry into a ring element or raises TypeError, and `scale` multiplies
    by a ring scalar or returns NotImplemented.  Two different subclasses
    never mix: their sum or product raises TypeError and they compare
    unequal.
    """

    __slots__ = ("n", "_e")

    def __init__(self, n: int, entries: Union[dict, Iterable, None] = None):
        if n < 1:
            raise ValueError("matrix size must be positive")
        self.n = n
        e: dict = {}
        if entries:
            items = entries.items() if isinstance(entries, dict) else entries
            coerce = self._coerce
            for (i, j), v in items:
                if not (1 <= i <= n and 1 <= j <= n):
                    raise ValueError(f"index ({i},{j}) out of range for size {n}")
                v = coerce(v)
                if v:
                    e[(i, j)] = v
        self._e = e

    @classmethod
    def _of(cls, n: int, entries: dict):
        """Wrap entries that are already coerced and nonzero."""
        out = cls.__new__(cls)
        out.n = n
        out._e = entries
        return out

    @classmethod
    def zero(cls, n: int):
        return cls(n)

    @classmethod
    def identity(cls, n: int):
        return cls(n, {(i, i): 1 for i in range(1, n + 1)})

    @classmethod
    def unit(cls, n: int, i: int, j: int):
        """The matrix unit E_{i,j}."""
        return cls(n, {(i, j): 1})

    def items(self) -> Iterator[tuple[tuple[int, int], object]]:
        """Entries sorted by (row, col)."""
        return iter(sorted(self._e.items()))

    def is_zero(self) -> bool:
        return not self._e

    def _require_same_size(self, other: "SparseMatrix") -> None:
        if self.n != other.n:
            raise ValueError(f"size mismatch: {self.n} vs {other.n}")

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        self._require_same_size(other)
        e = dict(self._e)
        for k, v in other._e.items():
            s = e[k] + v if k in e else v
            if s:
                e[k] = s
            else:
                del e[k]
        return self._of(self.n, e)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._of(self.n, {k: -v for k, v in self._e.items()})

    def __mul__(self, other):
        if type(other) is not type(self):
            return self.scale(other)
        self._require_same_size(other)
        rows_b: dict[int, list] = {}
        for (i, j), v in other._e.items():
            rows_b.setdefault(i, []).append((j, v))
        acc: dict = {}
        for (i, k), va in self._e.items():
            for j, vb in rows_b.get(k, ()):
                p = va * vb
                acc[i, j] = acc[i, j] + p if (i, j) in acc else p
        return self._of(self.n, {k: v for k, v in acc.items() if v})

    def __rmul__(self, other):
        return self.scale(other)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.n == other.n and self._e == other._e

    def __hash__(self) -> int:
        return hash((self.n, frozenset(self._e.items())))


class ExactMatrix(SparseMatrix):
    """Sparse N x N matrix over the rationals, with Fraction entries."""

    __slots__ = ()

    _coerce = staticmethod(_rat)

    def entry(self, i: int, j: int) -> Fraction:
        return self._e.get((i, j), _ZERO)

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix._of(self.n, {(j, i): v for (i, j), v in self._e.items()})

    def scale(self, c) -> "ExactMatrix":
        """The matrix times a rational scalar (an int or a Fraction)."""
        if not isinstance(c, (int, Fraction)):
            return NotImplemented
        c = _rat(c)
        return ExactMatrix._of(self.n, {k: v * c for k, v in self._e.items()} if c else {})

    def __repr__(self) -> str:
        terms = " + ".join(
            (f"E[{i},{j}]" if v == 1 else f"{v}*E[{i},{j}]")
            for (i, j), v in self.items()
        )
        return f"ExactMatrix({self.n}: {terms or '0'})"

    # ------------------------------------------------------------------
    # rank
    # ------------------------------------------------------------------

    def rank(self) -> int:
        rows: dict[int, SparseRow] = {}
        for (i, j), v in self._e.items():
            rows.setdefault(i, {})[j] = v
        return rank_of_rows(list(rows.values()))

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "entries": [[i, j, str(v)] for (i, j), v in self.items()],
        }


def bracket(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """The commutator [a, b] = ab - ba."""
    return a * b - b * a


def trace_form(a: SparseMatrix, b: SparseMatrix):
    """The invariant bilinear form tr(ab) of the defining representation.

    Either matrix may be an ExactMatrix or any other SparseMatrix whose
    entries multiply with Fractions; the sum starts from the Fraction 0.
    """
    a._require_same_size(b)
    entries_b = b._e
    total = _ZERO
    for (i, k), va in a._e.items():
        vb = entries_b.get((k, i))
        if vb is not None:
            total += va * vb
    return total


# ----------------------------------------------------------------------
# exact elimination
# ----------------------------------------------------------------------

SparseRow = dict  # {column: value}; columns are any mutually comparable keys


def ad_rows(f: ExactMatrix, units: Iterable[tuple[int, int]]) -> list[SparseRow]:
    """The images [f, E_ij] of matrix units, as sparse rows keyed by (row, col).

    [f, E_ij] = sum_k f[k,i] E_kj - sum_l f[j,l] E_il, so each image costs
    one column and one row of f instead of a full product.
    """
    cols: dict[int, list[tuple[int, Fraction]]] = {}
    rows: dict[int, list[tuple[int, Fraction]]] = {}
    for (a, b), v in f._e.items():
        cols.setdefault(b, []).append((a, v))
        rows.setdefault(a, []).append((b, v))
    out = []
    for i, j in units:
        image = {(k, j): v for k, v in cols.get(i, ())}
        for l, v in rows.get(j, ()):
            s = image.pop((i, l), _ZERO) - v
            if s:
                image[(i, l)] = s
        out.append(image)
    return out


def _partial_permutation(
    f: ExactMatrix,
) -> Optional[tuple[dict[int, int], dict[int, int]]]:
    """The maps (pred, succ) with f = sum of E_{pred(b), b} = sum of E_{a, succ(a)},
    when every entry of f is 1 and every row and column holds at most one
    entry; None otherwise."""
    pred: dict[int, int] = {}
    succ: dict[int, int] = {}
    for (a, b), v in f._e.items():
        if v != 1 or a in succ or b in pred:
            return None
        pred[b] = a
        succ[a] = b
    return pred, succ


def ad_rank(f: ExactMatrix, units: Iterable[tuple[int, int]]) -> int:
    """Rank of ad(f) on the span of the given matrix units.

    When f is a 0/1 partial permutation, [f, E_ij] = E_{pred(i), j} - E_{i, succ(j)}
    with a missing term read as a ground vertex, so the images are the edges
    of a graph and their rank is the number of unions that merge two
    components.  Any other f goes through the elimination kernel.
    """
    perm = _partial_permutation(f)
    if perm is None:
        rows = ad_rows(f, units)
        return rank_of_rows(rows) if rows else 0
    pred, succ = perm
    parent: dict = {}

    def find(v):
        root = v
        while root in parent:
            root = parent[root]
        while v != root:
            parent[v], v = root, parent[v]
        return root

    rank = 0
    for i, j in units:
        u = find((pred[i], j) if i in pred else None)
        w = find((i, succ[j]) if j in succ else None)
        if u != w:
            parent[u] = w
            rank += 1
    return rank


def _primitive(row: SparseRow) -> dict:
    """The nonzero entries of a rational row, scaled to coprime integers."""
    scale = math.lcm(*(v.denominator for v in row.values()))
    ints = {c: v.numerator * (scale // v.denominator) for c, v in row.items() if v}
    g = math.gcd(*ints.values())
    return {c: v // g for c, v in ints.items()} if g > 1 else ints


def _eliminate(row: dict, pivot: dict, col) -> dict:
    """Integer combination of `row` and `pivot` with `col` cleared, made primitive."""
    a, b = pivot[col], row[col]
    g = math.gcd(a, b)
    a, b = a // g, b // g
    out = {c: a * v for c, v in row.items()}
    for c, v in pivot.items():
        out[c] = out.get(c, 0) - b * v
    return _primitive(out)


def _echelon(rows: Iterable[SparseRow]) -> dict:
    """Fraction-free sparse echelon form: pivot column -> primitive integer
    row whose leading (smallest) column it is."""
    pivots: dict = {}
    for row in rows:
        r = _primitive(row)
        while r:
            lead = min(r)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = r
                break
            r = _eliminate(r, pivot, lead)
    return pivots


def _rref(rows: Iterable[SparseRow]) -> dict:
    """Reduced row-echelon form: pivot column -> row with a 1 there and zeros
    in every other pivot column.  The RREF of a row space is unique."""
    pivots = _echelon(rows)
    out = {}
    for lead in sorted(pivots, reverse=True):
        r = pivots[lead]
        # back-substitution: pivots to the right are already reduced
        for c in [c for c in r if c != lead and c in pivots]:
            r = _eliminate(r, pivots[c], c)
        pivots[lead] = r
        out[lead] = {c: Fraction(v, r[lead]) for c, v in r.items()}
    return out


def rank_of_rows(rows: list[SparseRow]) -> int:
    """Rank of a list of sparse rows."""
    return len(_echelon(rows))


def nullspace_of_rows(
    rows: list[SparseRow], ncols: int
) -> tuple[list[dict[int, Fraction]], list[int]]:
    """Echelonized kernel basis of the linear map given by sparse rows over
    columns 0..ncols-1.

    Returns (sparse basis vectors, free column indices); basis vector k has a
    1 in free column k and is supported otherwise only on pivot columns,
    which makes the basis canonical.
    """
    reduced = _rref(rows)
    free = [c for c in range(ncols) if c not in reduced]
    basis = [
        {fc: _ONE, **{pc: -row[fc] for pc, row in reduced.items() if fc in row}}
        for fc in free
    ]
    return basis, free


def inverse(m: ExactMatrix) -> ExactMatrix:
    """Exact inverse; raises ValueError on a singular matrix."""
    n = m.n
    aug = [{n + i: _ONE} for i in range(n)]
    for (i, j), v in m._e.items():
        aug[i - 1][j - 1] = v
    reduced = _rref(aug)
    if any(c not in reduced for c in range(n)):
        raise ValueError("matrix is singular")
    return ExactMatrix(
        n,
        {(i + 1, c - n + 1): v for i in range(n) for c, v in reduced[i].items() if c >= n},
    )


def jordan_type(m: ExactMatrix) -> tuple[int, ...]:
    """Jordan type of a nilpotent matrix, as a weakly decreasing partition.

    rank(m^{k-1}) - rank(m^k) counts the Jordan blocks of size >= k; the
    partition is the conjugate of that count sequence.  A 0/1 partial
    permutation skips the ranks: its Jordan blocks are its chains.  Raises
    ValueError if m is not nilpotent.
    """
    n = m.n
    perm = _partial_permutation(m)
    if perm is not None:
        pred, succ = perm
        chains = []
        for start in range(1, n + 1):
            if start not in pred:
                length, k = 1, start
                while k in succ:
                    length, k = length + 1, succ[k]
                chains.append(length)
        if sum(chains) != n:  # the uncovered labels lie on a cycle
            raise ValueError("matrix is not nilpotent")
        return tuple(sorted(chains, reverse=True))
    ranks = [n]
    power = m
    while not power.is_zero():
        if len(ranks) > n:
            raise ValueError("matrix is not nilpotent")
        ranks.append(power.rank())
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


class GradingElement:
    """A traceless rational diagonal matrix x, acting on roots by eigenvalue.

    The grading of the root eps_i - eps_j is diag[i] - diag[j]; "even" means
    every root grading is an integer.  An even grading keeps the integers
    levels[k] = diag[k] - diag[0], so root degrees are int differences;
    levels is None otherwise.
    """

    __slots__ = ("diag", "levels")

    def __init__(self, diag: Sequence[RationalLike]):
        d = tuple(_rat(v) for v in diag)
        # over one common denominator q, entry k is nums[k] / q
        q = math.lcm(*(v.denominator for v in d))
        nums = [v.numerator * (q // v.denominator) for v in d]
        if sum(nums) != 0:
            raise ValueError("grading element must be traceless")
        self.diag = d
        steps = [a - nums[0] for a in nums]
        self.levels = (
            tuple(s // q for s in steps) if all(s % q == 0 for s in steps) else None
        )

    @classmethod
    def from_xcoords(cls, xs: Sequence[RationalLike]) -> "GradingElement":
        """Centre a coordinate vector: subtract the mean to reach sl_N.

        Over one common denominator q, the centred entry k is
        (n*a_k - sum a) / (n*q).
        """
        vals = [_rat(v) for v in xs]
        n, q = len(vals), math.lcm(*(v.denominator for v in vals))
        nums = [v.numerator * (q // v.denominator) for v in vals]
        total = sum(nums)
        return cls([Fraction(n * a - total, n * q) for a in nums])

    @classmethod
    def zero(cls, n: int) -> "GradingElement":
        return cls([_ZERO] * n)

    @property
    def n(self) -> int:
        return len(self.diag)

    def of_root(self, root: Root) -> Fraction:
        return self.diag[root.i - 1] - self.diag[root.j - 1]

    def is_even(self) -> bool:
        return self.levels is not None

    def commutes_with(self, m: ExactMatrix) -> bool:
        """[x, m] = 0, i.e. every entry of m links two labels of equal degree."""
        d = self.diag
        return all(d[i - 1] == d[j - 1] for (i, j), _v in m.items())

    def __eq__(self, other) -> bool:
        return isinstance(other, GradingElement) and self.diag == other.diag

    def __hash__(self) -> int:
        return hash(self.diag)

    def __repr__(self) -> str:
        return f"GradingElement({', '.join(map(str, self.diag))})"


def root_decomposition(x: GradingElement) -> dict[Fraction, list[Root]]:
    """Partition of all N(N-1) roots by their grading under x.

    Roots come in lexicographic order within each grade.  Levels differ from
    the diagonal by a constant, so an even x is binned by int differences.
    """
    values = x.diag if x.levels is None else x.levels
    out: dict = {}
    for i, vi in enumerate(values, start=1):
        for j, vj in enumerate(values, start=1):
            if i != j:
                out.setdefault(vi - vj, []).append(Root(i, j))
    return {Fraction(grade): roots for grade, roots in sorted(out.items())}
