"""Classical screening coefficients on unipotent charts.

Everything here is exact polynomial algebra over the rationals: first-kind
coordinates on unipotent groups, the terminating exponential series, the
vector fields induced by one-parameter left or right translation, and the
per-simple-root screening coefficients attached to a good pair or to a
reduction datum.  Translation vector fields come from the finite Bernoulli
series (ad Z / (e^{ad Z} - 1))(w) on the Lie algebra, so no matrix logarithm
is taken.  A Fourier-type comparison transports the coefficients built
on the finer nilpotent (evaluating ghost directions against the step
nilpotent and swapping the symplectically paired symbols) and checks that
they land on the coarser side's coefficients up to sign.

A polynomial is a table from monomials to coefficients.  Each variable
(kind, index) is one int key, computed arithmetically so that keys sort in
display order; a monomial is a key-sorted tuple of (key, exponent) pairs, so
multiplying two is a merge, and variables are decoded from the keys only
when read (`Poly.items`, `to_json`, `repr`).  A coefficient is an int while
it is integral and a Fraction otherwise; `==`, `hash` and `str` agree for
the two, so the output does not depend on which one is stored.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb
from typing import Iterable, Optional, Union

from .lie import ExactMatrix, Root, SparseMatrix, bracket, inverse, trace_form
from .pyramids import GoodPair, grading_element_of
from .reduction import ReductionDatum
from .star import BiGrading, StarCertificate, bigrade

# ----------------------------------------------------------------------
# polynomials in tagged commuting variables
# ----------------------------------------------------------------------

#: Variable kinds, in display order.  Root-indexed variables carry a Root,
#: splitting-indexed ones a plain integer.
_KINDS = ("z", "beta", "gamma", "beta-hat", "gamma-hat")
_KIND_ORDER = {kind: k for k, kind in enumerate(_KINDS)}

#: A variable's int key packs its kind, whether its index is a root, and the
#: index into bit fields: a root (i, j) takes one `_BITS`-bit field per
#: coordinate, a plain index both.  So keys sort by kind, then plain indices
#: before roots, then by the index.
_BITS = 12
_FIELD = 1 << _BITS
_SLOT = 1 << 2 * _BITS

Var = tuple
#: A tuple of (variable key, exponent) pairs, sorted by key.
Monomial = tuple
Rational = Union[int, Fraction]


def _var_key(kind: str, index) -> int:
    """The int key of the variable (kind, index)."""
    k = _KIND_ORDER.get(kind)
    if k is None:
        raise ValueError(f"unknown variable kind {kind!r}")
    if isinstance(index, int):
        if not 0 <= index < _SLOT:
            raise ValueError(f"variable index {index} outside [0, {_SLOT})")
        return 2 * k * _SLOT + index
    i, j = int(index[0]), int(index[1])
    if not (0 <= i < _FIELD and 0 <= j < _FIELD):
        raise ValueError(f"root index ({i},{j}) outside [0, {_FIELD})")
    return (2 * k + 1) * _SLOT + i * _FIELD + j


def _key_var(key: int) -> Var:
    """The variable (kind, index) behind an int key."""
    slot, index = divmod(key, _SLOT)
    if slot & 1:
        return (_KINDS[slot >> 1], Root(*divmod(index, _FIELD)))
    return (_KINDS[slot >> 1], index)


def var_name(var: Var) -> str:
    """Render a variable tag the way the JSON output spells it."""
    kind, idx = var
    return f"{kind}_{idx}"


def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    """The product of two monomials: a merge of their key-sorted pairs."""
    if not m1:
        return m2
    if not m2:
        return m1
    if m1[-1][0] < m2[0][0]:
        return m1 + m2
    if m2[-1][0] < m1[0][0]:
        return m2 + m1
    out = []
    i = j = 0
    n1, n2 = len(m1), len(m2)
    while i < n1 and j < n2:
        a, b = m1[i], m2[j]
        if a[0] < b[0]:
            out.append(a)
            i += 1
        elif b[0] < a[0]:
            out.append(b)
            j += 1
        else:
            out.append((a[0], a[1] + b[1]))
            i += 1
            j += 1
    return (*out, *m1[i:], *m2[j:])


def _normal(c: Rational) -> Rational:
    """An int or Fraction as an int while it is integral, else as a Fraction."""
    return c.numerator if c.denominator == 1 else c


def _rational(value) -> Rational:
    """An outside scalar (int, Fraction or str) in the stored coefficient form."""
    if not isinstance(value, (int, Fraction)):
        value = Fraction(value)
    return _normal(value)


def _accumulate(terms: dict, items: Iterable) -> dict:
    """Add (monomial, coefficient) pairs into `terms`, dropping what cancels."""
    for mono, c in items:
        if mono in terms:
            c = terms[mono] + c
            if not c:
                del terms[mono]
                continue
        terms[mono] = _normal(c)
    return terms


def _product(a: dict, b: dict) -> dict:
    """The term table of a product of two term tables.

    A one-term factor maps the other's monomials one to one and its nonzero
    coefficients to nonzero ones, so only two longer factors can cancel.
    """
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 1:
        ((m1, c1),) = a.items()
        return {_mono_mul(m1, m2): _normal(c1 * c2) for m2, c2 in b.items()}
    return _accumulate(
        {}, ((_mono_mul(m1, m2), c1 * c2) for m1, c1 in a.items() for m2, c2 in b.items())
    )


class Poly:
    """Exact multivariate polynomial with rational coefficients.

    ``terms`` maps each monomial to its coefficient, which is never zero and
    is an int while it is integral, else a Fraction.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[dict] = None):
        self.terms: dict[Monomial, Rational] = {}
        for mono, c in (terms or {}).items():
            c = _rational(c)
            if c:
                self.terms[mono] = c

    @classmethod
    def _of(cls, terms: dict) -> "Poly":
        """Wrap terms whose coefficients are already nonzero and normalized."""
        poly = object.__new__(cls)
        poly.terms = terms
        return poly

    @classmethod
    def const(cls, value) -> "Poly":
        c = _rational(value)
        return cls._of({(): c} if c else {})

    @classmethod
    def variable(cls, kind: str, index) -> "Poly":
        return cls._of({((_var_key(kind, index), 1),): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_constant(self) -> bool:
        return all(m == () for m in self.terms)

    def items(self) -> list[tuple[tuple[tuple[Var, int], ...], Rational]]:
        """(monomial, coefficient) pairs in display order, each monomial
        spelled as ((kind, index), exponent) pairs."""
        return [
            (tuple((_key_var(key), e) for key, e in mono), self.terms[mono])
            for mono in sorted(self.terms)
        ]

    def __add__(self, other) -> "Poly":
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return Poly._of(_accumulate(dict(self.terms), other.terms.items()))

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._of({m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        return -(self - other)

    def __mul__(self, other) -> "Poly":
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return Poly._of(_product(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Poly":
        if not isinstance(k, int) or k < 0:
            raise ValueError("only non-negative integer powers")
        out = Poly.const(1)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        elif not isinstance(other, Poly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        # A constant equals its scalar, so it must hash like one.
        if self.is_constant():
            return hash(self.terms.get((), 0))
        return hash(frozenset(self.terms.items()))

    def substitute(self, mapping: dict) -> "Poly":
        """Replace whole variables; values may be polynomials or scalars."""
        return self._substitute_keys(_keyed(mapping))

    def _substitute_keys(self, table: dict) -> "Poly":
        """`substitute` with the mapping already keyed, as `_keyed` gives it.

        Each term is rewritten on its own: its kept variables ride along as
        one monomial, and each replaced power is multiplied into it.  When
        every value has one term, as in `fourier_signs`, so does each image.
        """
        terms: dict[Monomial, Rational] = {}
        for mono, c in self.terms.items():
            image = {tuple(item for item in mono if item[0] not in table): c}
            for key, e in mono:
                value = table.get(key)
                if value is not None:
                    for _ in range(e):
                        image = _product(image, value)
            _accumulate(terms, image.items())
        return Poly._of(terms)

    def to_json(self) -> list:
        return [
            {"monomial": {var_name(var): e for var, e in mono}, "coeff": str(c)}
            for mono, c in self.items()
        ]

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono, c in self.items():
            names = [var_name(v) if e == 1 else f"{var_name(v)}^{e}" for v, e in mono]
            body = "*".join(names)
            parts.append(f"{c}" if not body else f"{c}*{body}")
        return " + ".join(parts)


def _as_poly(value) -> "Poly":
    if isinstance(value, Poly):
        return value
    if isinstance(value, (int, Fraction, str)):
        return Poly.const(value)
    return NotImplemented


def _keyed(mapping: dict) -> dict:
    """A substitution {(kind, index): value} as {variable key: term table}."""
    return {_var_key(*var): _as_poly(value).terms for var, value in mapping.items()}


# ----------------------------------------------------------------------
# matrices of polynomials
# ----------------------------------------------------------------------


class PolyMatrix(SparseMatrix):
    """Square matrix with Poly entries; its arithmetic is SparseMatrix's."""

    __slots__ = ()

    @staticmethod
    def _coerce(value) -> Poly:
        p = _as_poly(value)
        if p is NotImplemented:
            raise TypeError(f"expected a polynomial or scalar, got {type(value).__name__}")
        return p

    @classmethod
    def from_exact(cls, m: ExactMatrix) -> "PolyMatrix":
        return cls(m.n, m.items())

    def entry(self, i: int, j: int) -> Poly:
        return self._e.get((i, j), Poly())

    def scale(self, value) -> "PolyMatrix":
        """The matrix times a polynomial or rational scalar."""
        p = _as_poly(value)
        if p is NotImplemented:
            return NotImplemented
        return PolyMatrix._of(self.n, {pos: q * p for pos, q in self._e.items()} if p else {})

    def __repr__(self) -> str:
        body = ", ".join(f"({i},{j}): {p!r}" for (i, j), p in self.items())
        return f"PolyMatrix({self.n}, {{{body}}})"


def trace_pair(a: ExactMatrix, m: PolyMatrix) -> Poly:
    """Trace-form pairing tr(a·m) of an exact matrix against a polynomial one.

    The products a_ik·m_ki are summed straight into one coefficient table.
    """
    m._require_same_size(a)
    terms: dict[Monomial, Rational] = {}
    for (i, k), c in a.items():
        p = m._e.get((k, i))
        if p is not None:
            c = _normal(c)
            _accumulate(terms, ((mono, c * d) for mono, d in p.terms.items()))
    return Poly._of(terms)


def exp_nilpotent(m: PolyMatrix) -> PolyMatrix:
    """Exponential of a nilpotent matrix as a terminating series.

    Each power m^k is scaled by 1/k! only as it is added, so the powers of
    an integral m keep int coefficients.
    """
    result = PolyMatrix.identity(m.n)
    power = PolyMatrix.identity(m.n)
    factorial = 1
    for k in range(1, m.n + 1):
        power = power * m
        if power.is_zero():
            return result
        factorial *= k
        result = result + power.scale(Fraction(1, factorial))
    raise ValueError("matrix is not nilpotent")


# ----------------------------------------------------------------------
# unipotent charts and translation vector fields
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class UnipotentChart:
    """A bracket-closed set of positive roots with first-kind coordinates.
    Its coordinate matrix is built once and never modified."""

    n: int
    roots: tuple[Root, ...]

    def __init__(self, n: int, roots: Iterable):
        normalized = sorted({Root(int(r[0]), int(r[1])) for r in roots})
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "roots", tuple(normalized))
        have = set(self.roots)
        for i, j in self.roots:
            if not (1 <= i < j <= n):
                raise ValueError(f"({i},{j}) is not a positive root of sl_{n}")
        for i, j in self.roots:
            for j2, k in self.roots:
                if j2 == j and (i, k) not in have:
                    raise ValueError(
                        f"chart is not closed under bracket: ({i},{j})+({j},{k})"
                    )

    @cached_property
    def _coordinates(self) -> PolyMatrix:
        return PolyMatrix(
            self.n, {tuple(root): Poly.variable("z", root) for root in self.roots}
        )

    def coordinate_matrix(self) -> PolyMatrix:
        return self._coordinates

    def generic_element(self) -> PolyMatrix:
        return exp_nilpotent(self.coordinate_matrix())


def _negate_coordinates(m: PolyMatrix) -> PolyMatrix:
    """m with every chart coordinate z replaced by -z.

    Entries of Z^k are homogeneous of degree k in the z's, so exp(-Z) is
    exp(Z) with every odd-degree monomial negated.
    """
    return PolyMatrix(
        m.n,
        {
            pos: Poly._of(
                {
                    mono: -c if sum(e for _, e in mono) % 2 else c
                    for mono, c in p.terms.items()
                }
            )
            for pos, p in m.items()
        },
    )


#: The Bernoulli numbers B_0, B_1, ... with B_1 = -1/2, extended on demand
#: by the recurrence sum_{k<=m} C(m+1, k) B_k = 0.  A series over sl_N reads
#: at most 2N - 1 of them, so the list never outgrows the largest input.
_BERNOULLI = [Fraction(1)]


def _bernoulli(n: int) -> Fraction:
    """B_n, computed once per process."""
    while len(_BERNOULLI) <= n:
        m = len(_BERNOULLI)
        _BERNOULLI.append(
            -sum(comb(m + 1, k) * bk for k, bk in enumerate(_BERNOULLI)) / (m + 1)
        )
    return _BERNOULLI[n]


def _bernoulli_series(z: PolyMatrix, w: ExactMatrix) -> PolyMatrix:
    """(ad z / (e^{ad z} - 1))(w) = sum_n B_n/n! (ad z)^n(w), with B_1 = -1/2.

    The series stops at the first zero bracket, which comes within 2N - 1
    steps when z is nilpotent.
    """
    term = PolyMatrix.from_exact(w)
    total = term
    factorial = 1
    for n in range(1, 2 * z.n):
        term = z * term - term * z
        if term.is_zero():
            return total
        b = _bernoulli(n)
        factorial *= n
        if b:
            total = total + term.scale(b / factorial)
    raise ValueError("matrix is not nilpotent")


def _translation(w: ExactMatrix, chart: UnipotentChart, z: PolyMatrix) -> dict[Root, Poly]:
    """(ad z / (e^{ad z} - 1))(w) on the chart's roots, for z = ±Z.  The chart
    is bracket-closed and w lies on it, so the whole series does too."""
    if w.n != chart.n:
        raise ValueError(f"size mismatch: {w.n} vs chart over sl_{chart.n}")
    have = set(chart.roots)
    for (i, j), _ in w.items():
        if (i, j) not in have:
            raise ValueError(f"element has support at ({i},{j}) outside the chart")
    eps = _bernoulli_series(z, w)
    return {root: eps.entry(*root) for root in chart.roots}


def left_action_of(w: ExactMatrix, chart: UnipotentChart) -> dict[Root, Poly]:
    """Coefficients of the vector field of left translation by exp(t·w).

    In first-kind coordinates g = e^Z, log(e^{tw}·e^Z) = Z + t·P + O(t^2)
    with P = (ad Z / (e^{ad Z} - 1))(w), a finite series because ad Z is
    nilpotent (Hall, Lie Groups, Lie Algebras, and Representations, 5.4).
    """
    return _translation(w, chart, chart.coordinate_matrix())


def right_action_of(w: ExactMatrix, chart: UnipotentChart) -> dict[Root, Poly]:
    """Coefficients of the vector field of right translation by exp(t·w).

    log(e^Z·e^{tw}) = Z + t·(ad Z / (1 - e^{-ad Z}))(w) + O(t^2), and
    x / (1 - e^{-x}) = (-x) / (e^{-x} - 1): the left series at -Z.
    """
    return _translation(w, chart, -chart.coordinate_matrix())


def left_action_coeffs(i: int, chart: UnipotentChart) -> dict[Root, Poly]:
    """Left-translation coefficients for the i-th simple root vector."""
    if not (1 <= i < chart.n):
        raise ValueError(f"simple root index {i} out of range for sl_{chart.n}")
    return left_action_of(ExactMatrix.unit(chart.n, i, i + 1), chart)


# ----------------------------------------------------------------------
# the omega splitting of the (0,1) cell
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class OmegaSplit:
    """The splitting of the (0,1) cell along the kernel of the finer nilpotent.

    The cell's u-basis lists the paired block first (normalized so the step
    nilpotent pairs to zero against it) and then the kernel vectors;
    ``u_duals`` is its trace-form dual basis, and ``v_duals`` holds [f1, u]
    for each u of the paired block.  ``ghost_constants`` records the
    pairing of the step nilpotent against each kernel vector.
    """

    pairs: int
    u_duals: tuple[ExactMatrix, ...]
    v_duals: tuple[ExactMatrix, ...]
    ghost_constants: tuple[Fraction, ...]


def _positive_roots(roots: Iterable[Root]) -> list[Root]:
    """Positive roots of a bigraded cell: its intersection with the nilradical."""
    return [r for r in roots if r.is_positive]


def _omega_split(f1: ExactMatrix, roots01: tuple[Root, ...], cert: StarCertificate) -> OmegaSplit:
    """The split of cell (0,1), with roots `roots01`, read off a passed
    certificate's ad(f1)-kernel, complement and character."""
    n = f1.n
    kernel, consts, f_circ = list(cert.ghost_basis), cert.character, cert.f_circ
    complement = [ExactMatrix.unit(n, *root) for root in cert.complement]
    anchor = next((l for l, c in enumerate(consts) if c), None)
    if anchor is not None:
        for idx, u in enumerate(complement):
            c = trace_form(f_circ, u)
            if c:
                complement[idx] = u - kernel[anchor] * (c / consts[anchor])

    u_basis = complement + kernel
    roots = list(cert.complement) + [r for r in roots01 if r not in cert.complement]
    u_duals = []
    if u_basis:
        # Row r holds the coordinates of u_r on the cell's roots, pivots
        # first.  tr(E_qp u) = u[p, q], so row j of the inverse transpose
        # gives the dual of u_j as coefficients of the transposed root vectors.
        table = ExactMatrix(
            len(roots),
            {
                (r, c): u.entry(*root)
                for r, u in enumerate(u_basis, 1)
                for c, root in enumerate(roots, 1)
            },
        )
        rows = inverse(table.transpose())
        u_duals = [
            ExactMatrix(n, {(q, p): rows.entry(j, c) for c, (p, q) in enumerate(roots, 1)})
            for j in range(1, len(roots) + 1)
        ]

    return OmegaSplit(
        pairs=len(complement),
        u_duals=tuple(u_duals),
        v_duals=tuple(bracket(f1, u) for u in complement),
        ghost_constants=consts,
    )


# ----------------------------------------------------------------------
# screening coefficients
# ----------------------------------------------------------------------

_CASES = {(0, 0): "I_00", (0, 1): "I_01", (1, 0): "I_10", (1, 1): "I_11"}


@dataclass(frozen=True)
class ScreeningSet:
    """One screening coefficient per simple root, tagged by bidegree case."""

    n: int
    side: str
    cases: tuple[str, ...]
    coefficients: tuple[Poly, ...]
    chart_roots: tuple[Root, ...]
    split: OmegaSplit

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "side": self.side,
            "chart": [[i, j] for i, j in self.chart_roots],
            "screenings": [
                {"i": i, "case": case, "polynomial": poly.to_json()}
                for i, (case, poly) in enumerate(
                    zip(self.cases, self.coefficients), start=1
                )
            ],
        }


def _linear(kind: str, coeffs: Iterable[tuple]) -> Poly:
    """The sum of c·kind_index over the (index, c) pairs, in one term table."""
    terms: dict[Monomial, Rational] = {}
    for index, c in coeffs:
        var = ((_var_key(kind, index), 1),)
        _accumulate(terms, ((_mono_mul(mono, var), d) for mono, d in c.terms.items()))
    return Poly._of(terms)


def _conjugated_unit(ginv: PolyMatrix, g: PolyMatrix, i: int) -> PolyMatrix:
    """ginv·E_{i,i+1}·g, the outer product of column i of ginv and row i+1 of g.

    Each position is met once and the ring has no zero divisors, so no
    entry cancels.
    """
    column = [(r, p) for (r, k), p in ginv._e.items() if k == i]
    row = [(s, q) for (k, s), q in g._e.items() if k == i + 1]
    return PolyMatrix._of(g.n, {(r, s): p * q for r, p in column for s, q in row})


def screening_pair(
    datum: Union[ReductionDatum, GoodPair]
) -> tuple[ScreeningSet, ScreeningSet]:
    """Source and target screening coefficients of a reduction datum or a good pair.

    The source set holds the coefficients of the finer nilpotent's W-algebra
    (beta/gamma symbols over the omega splitting), the target set those of
    the coarser side (beta-hat/gamma-hat symbols).  Both are read off one
    chart (Genra, Screening operators for W-algebras, 2017): the bigrading,
    the chart and its generic element, the omega split, each (0,0) left
    action and each conjugated unit ginv·E_i·g with its pairings against
    the split's duals are computed once and shared.  The split reads the
    ad(f1)-kernel, its complement and the ghost constants off the datum's
    certificate.  For a good pair the two sides coincide apart from the
    label.
    """
    if isinstance(datum, ReductionDatum):
        f1, f2, f_circ = datum.f_lam, datum.f_mu_tilde, datum.f_circ
        bi = BiGrading(
            grading_element_of(datum.pyr_lam), grading_element_of(datum.pyr_mu)
        )
    elif isinstance(datum, GoodPair):
        f1 = f2 = datum.f
        f_circ = ExactMatrix.zero(datum.f.n)
        bi = BiGrading(datum.x, datum.x)
    else:
        raise TypeError(f"expected a ReductionDatum or a GoodPair, got {type(datum)}")

    n = f1.n
    cells = bigrade(bi)
    chart = UnipotentChart(n, _positive_roots(cells[(0, 0)]))
    split = (
        _omega_split(f1, cells.get((0, 1), ()), datum.certificate)
        if isinstance(datum, ReductionDatum)
        # x1 = x2 leaves cells (0,1) and (1,0) empty
        else OmegaSplit(0, (), (), ())
    )
    g = chart.generic_element()
    ginv = _negate_coordinates(g)

    cases: list[str] = []
    source: list[Poly] = []
    target: list[Poly] = []
    for i in range(1, n):
        degree = tuple(bi.degree_of(Root(i, i + 1)))
        if degree not in _CASES:
            raise ValueError(
                f"simple root {i} has bidegree {degree}; each grading must "
                "put simple roots in degree 0 or 1"
            )
        cases.append(_CASES[degree])
        if degree == (0, 0):
            total = _linear("beta", left_action_coeffs(i, chart).items())
            source.append(total)
            target.append(total)
            continue

        w = _conjugated_unit(ginv, g, i)
        if degree == (1, 1):
            source.append(trace_pair(f1, w))
            target.append(trace_pair(f2, w))
        elif degree == (0, 1):
            paired = [trace_pair(dual, w) for dual in split.u_duals]
            source.append(_linear("beta", enumerate(paired, 1)))
            target.append(
                trace_pair(f_circ, w)
                + _linear("gamma-hat", enumerate(paired[: split.pairs], 1))
            )
        else:  # (1, 0)
            paired = [trace_pair(dual, w) for dual in split.v_duals]
            source.append(-_linear("gamma", enumerate(paired, 1)))
            target.append(_linear("beta-hat", enumerate(paired, 1)))

    return tuple(
        ScreeningSet(
            n=n,
            side=side,
            cases=tuple(cases),
            coefficients=tuple(coeffs),
            chart_roots=chart.roots,
            split=split,
        )
        for side, coeffs in (("source", source), ("target", target))
    )


#: One-entry memo [(datum, (source, target))] behind `screening_coeffs`, so
#: that asking for both sides of one datum costs one `screening_pair`.  A
#: `ReductionDatum` is unhashable, so the key is the datum's identity; the
#: memo holds the datum itself, so that identity is never a reused id.
_memo: list = []


def screening_coeffs(
    datum: Union[ReductionDatum, GoodPair], side: str = "target"
) -> ScreeningSet:
    """One side, ``"source"`` or ``"target"``, of `screening_pair`."""
    if side not in ("source", "target"):
        raise ValueError(f"side must be 'source' or 'target', got {side!r}")
    if not _memo or _memo[0][0] is not datum:
        _memo[:] = [(datum, screening_pair(datum))]
    source, target = _memo[0][1]
    return target if side == "target" else source


# ----------------------------------------------------------------------
# the Fourier-side comparison
# ----------------------------------------------------------------------


def fourier_signs(source: ScreeningSet, target: ScreeningSet) -> tuple:
    """Per-simple-root sign matching the transported source against the target.

    Each entry is +1 or -1 when the transported coefficient equals the
    target one up to that sign, 0 when both vanish, and None on a genuine
    mismatch.
    """
    if source.side != "source" or target.side != "target":
        raise ValueError("expected a source set and a target set, in that order")
    if (
        source.n != target.n
        or source.chart_roots != target.chart_roots
        or source.cases != target.cases
        or source.split != target.split
    ):
        raise ValueError("screening sets were built over incompatible charts")

    pairing = source.split
    substitution: dict[Var, Poly] = {}
    for j in range(1, pairing.pairs + 1):
        substitution[("beta", j)] = -Poly.variable("gamma-hat", j)
        substitution[("gamma", j)] = Poly.variable("beta-hat", j)
    for l, c in enumerate(pairing.ghost_constants, start=1):
        substitution[("beta", pairing.pairs + l)] = Poly.const(-c)

    table = _keyed(substitution)
    signs: list = []
    for p, q in zip(source.coefficients, target.coefficients):
        image = p._substitute_keys(table)
        if image.is_zero() and q.is_zero():
            signs.append(0)
        elif image == q:
            signs.append(1)
        elif image == -q:
            signs.append(-1)
        else:
            signs.append(None)
    return tuple(signs)


def fourier_compare(source: ScreeningSet, target: ScreeningSet) -> bool:
    """Does the transported source coefficient match the target one up to sign?"""
    return all(s is not None for s in fourier_signs(source, target))
