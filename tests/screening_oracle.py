"""Reference screening routines, kept as a test oracle for `slred.screening`.

The oracle computes in its own polynomial ring: `Poly` and `PolyMatrix` here
are the package's former classes, verbatim, with variables kept as
(kind, index) tuples ordered by a key function and Fraction coefficients.
Nothing here reads the package's packed representation.  A package
polynomial enters through `from_package`, which parses its `to_json`, and
results are compared with the package's by `to_json`.

The package used to compute left and right translation vector fields by
differentiating the matrix logarithm, log(g + t·b), along the direction
w·g or g·w, and to substitute into a polynomial by multiplying out every
variable of every monomial.  Those routines, and the logarithm and chart
conjugations that only tests ever called, live on here unchanged.  They are
independent of the Bernoulli-series route and are only ever compared
against it.  So does the omega split that built its pairing matrix from
trace_form(f1, bracket(u, v)) instead of the closed form of `slred.star`,
and the two-pass `screening_coeffs`, which rebuilt the chart, the omega split
and every left action once per side, with the `trace_pair` that summed
`lie.trace_form` from the Fraction 0 and the conjugated units formed as
two matrix products.  The oracle split keeps all seven fields of the
package's former split record, among them the u- and v-bases that the
package's duals are dual to.  The chart inverse, here the exponential of
-Z, and the polynomial derivative, which only tests ever called, live here
too.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from slred.lie import ExactMatrix, Root, SparseMatrix, bracket, inverse, trace_form
from slred.pyramids import GoodPair, grading_element_of
from slred.reduction import ReductionDatum
from slred.screening import OmegaSplit, ScreeningSet, UnipotentChart, left_action_coeffs
from slred.star import BiGrading, bigrade, kernel_on_basis

# ----------------------------------------------------------------------
# the package's former polynomial ring, verbatim
# ----------------------------------------------------------------------

#: Variable tags, in display order.  Root-indexed variables carry a Root,
#: splitting-indexed ones a plain integer.
_KIND_ORDER = {"z": 0, "beta": 1, "gamma": 2, "beta-hat": 3, "gamma-hat": 4}

Var = tuple
Monomial = tuple


def _norm_var(kind: str, index) -> Var:
    if kind not in _KIND_ORDER:
        raise ValueError(f"unknown variable kind {kind!r}")
    if isinstance(index, int):
        return (kind, index)
    return (kind, Root(int(index[0]), int(index[1])))


def _var_key(var: Var):
    kind, idx = var
    if isinstance(idx, int):
        return (_KIND_ORDER[kind], 0, (idx,))
    return (_KIND_ORDER[kind], 1, tuple(idx))


def var_name(var: Var) -> str:
    """Render a variable tag the way the JSON output spells it."""
    kind, idx = var
    return f"{kind}_{idx}"


def _item_key(item):
    return _var_key(item[0])


def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    if not m1:
        return m2
    if not m2:
        return m1
    exps = dict(m1)
    for var, e in m2:
        exps[var] = exps[var] + e if var in exps else e
    return tuple(sorted(exps.items(), key=_item_key))


def _mono_key(mono: Monomial):
    return tuple((_var_key(var), e) for var, e in mono)


class Poly:
    """Exact multivariate polynomial with Fraction coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[dict] = None):
        self.terms: dict[Monomial, Fraction] = {}
        for mono, c in (terms or {}).items():
            c = Fraction(c)
            if c:
                self.terms[mono] = c

    @classmethod
    def _of(cls, terms: dict) -> "Poly":
        """Wrap coefficients that are already Fractions, dropping zeros."""
        poly = object.__new__(cls)
        poly.terms = {mono: c for mono, c in terms.items() if c}
        return poly

    @classmethod
    def const(cls, value) -> "Poly":
        return cls._of({(): Fraction(value)})

    @classmethod
    def variable(cls, kind: str, index) -> "Poly":
        return cls._of({((_norm_var(kind, index), 1),): Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_constant(self) -> bool:
        return all(m == () for m in self.terms)

    def __add__(self, other) -> "Poly":
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self.terms)
        for mono, c in other.terms.items():
            terms[mono] = terms[mono] + c if mono in terms else c
        return Poly._of(terms)

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
        terms: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = _mono_mul(m1, m2)
                c = c1 * c2
                terms[mono] = terms[mono] + c if mono in terms else c
        return Poly._of(terms)

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
            return hash(self.terms.get((), Fraction(0)))
        return hash(frozenset(self.terms.items()))

    def substitute(self, mapping: dict) -> "Poly":
        """Replace whole variables; values may be polynomials or scalars.

        Only the replaced variables are multiplied out; the kept ones ride
        along as a plain monomial.
        """
        table = {_norm_var(*var): _as_poly(value) for var, value in mapping.items()}
        terms: dict[Monomial, Fraction] = {}
        for mono, c in self.terms.items():
            kept = tuple(item for item in mono if item[0] not in table)
            factor = Poly.const(c)
            for var, e in mono:
                if var in table:
                    factor = factor * table[var] ** e
            for m, d in factor.terms.items():
                m = _mono_mul(m, kept)
                terms[m] = terms[m] + d if m in terms else d
        return Poly._of(terms)

    def to_json(self) -> list:
        out = []
        for mono in sorted(self.terms, key=_mono_key):
            out.append(
                {
                    "monomial": {var_name(var): e for var, e in mono},
                    "coeff": str(self.terms[mono]),
                }
            )
        return out

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms, key=_mono_key):
            c = self.terms[mono]
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


# ----------------------------------------------------------------------
# the package's former polynomial matrices, verbatim
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

    def support(self) -> list[tuple[int, int]]:
        """Positions carrying a nonzero entry, sorted."""
        return sorted(self._e)

    def __repr__(self) -> str:
        body = ", ".join(f"({i},{j}): {p!r}" for (i, j), p in self.items())
        return f"PolyMatrix({self.n}, {{{body}}})"


def exp_nilpotent(m: PolyMatrix) -> PolyMatrix:
    """Exponential of a nilpotent matrix as a terminating series."""
    result = PolyMatrix.identity(m.n)
    term = PolyMatrix.identity(m.n)
    for k in range(1, m.n + 1):
        term = (term * m).scale(Fraction(1, k))
        if term.is_zero():
            return result
        result = result + term
    raise ValueError("matrix is not nilpotent")


# ----------------------------------------------------------------------
# crossing from the package
# ----------------------------------------------------------------------


def _parse_var(name: str) -> Var:
    kind, index = name.rsplit("_", 1)
    if index.startswith("("):
        i, j = index[1:-1].split(",")
        return _norm_var(kind, (int(i), int(j)))
    return _norm_var(kind, int(index))


def from_package(value):
    """The oracle copy of a package polynomial, polynomial matrix, or dict of
    polynomials."""
    if isinstance(value, dict):
        return {key: from_package(p) for key, p in value.items()}
    if isinstance(value, SparseMatrix):
        return PolyMatrix(value.n, {pos: from_package(p) for pos, p in value.items()})
    return Poly(
        {
            tuple(
                sorted(
                    ((_parse_var(name), e) for name, e in term["monomial"].items()),
                    key=_item_key,
                )
            ): Fraction(term["coeff"])
            for term in value.to_json()
        }
    )


# ----------------------------------------------------------------------
# charts
# ----------------------------------------------------------------------


def coordinate_matrix(chart: UnipotentChart) -> PolyMatrix:
    return PolyMatrix(
        chart.n, {tuple(root): Poly.variable("z", root) for root in chart.roots}
    )


def generic_element(chart: UnipotentChart) -> PolyMatrix:
    return exp_nilpotent(coordinate_matrix(chart))


def generic_inverse(chart: UnipotentChart) -> PolyMatrix:
    return exp_nilpotent(-coordinate_matrix(chart))


def _check_on_chart(w: ExactMatrix, chart: UnipotentChart) -> None:
    if w.n != chart.n:
        raise ValueError(f"size mismatch: {w.n} vs chart over sl_{chart.n}")
    have = {tuple(r) for r in chart.roots}
    for (i, j), _ in w.items():
        if (i, j) not in have:
            raise ValueError(f"element has support at ({i},{j}) outside the chart")


def _read_chart_coefficients(
    eps: PolyMatrix, chart: UnipotentChart, action: str
) -> dict[Root, Poly]:
    have = {tuple(r) for r in chart.roots}
    for i, j in eps.support():
        if (i, j) not in have:
            raise ValueError(
                f"{action} action leaves the chart at ({i},{j}); "
                "the root set is not closed under the action"
            )
    return {root: eps.entry(*root) for root in chart.roots}


def derivative(self: Poly, var) -> Poly:
    var = _norm_var(*var)
    terms: dict[Monomial, Fraction] = {}
    for mono, c in self.terms.items():
        exps = dict(mono)
        e = exps.get(var)
        if not e:
            continue
        if e == 1:
            del exps[var]
        else:
            exps[var] = e - 1
        new = tuple(sorted(exps.items(), key=_item_key))
        c = c * e
        terms[new] = terms[new] + c if new in terms else c
    return Poly._of(terms)


def log_unipotent(u: PolyMatrix) -> PolyMatrix:
    """Logarithm of a unipotent matrix by the finite alternating series."""
    v = u - PolyMatrix.identity(u.n)
    result = PolyMatrix(u.n)
    power = PolyMatrix.identity(u.n)
    for k in range(1, u.n + 1):
        power = power * v
        if power.is_zero():
            return result
        result = result + power.scale(Fraction((-1) ** (k + 1), k))
    raise ValueError("matrix is not unipotent")


def _log_directional(g: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    """First-order part of log(g + t·b) at t = 0, for unipotent g."""
    u = g - PolyMatrix.identity(g.n)
    powers = [PolyMatrix.identity(g.n)]
    while not (powers[-1] * u).is_zero():
        powers.append(powers[-1] * u)
    total = PolyMatrix(g.n)
    bound = len(powers)
    for k in range(1, 2 * bound):
        coeff = Fraction((-1) ** (k + 1), k)
        layer = PolyMatrix(g.n)
        hit = False
        for a in range(k):
            if a >= bound or k - 1 - a >= bound:
                continue
            layer = layer + powers[a] * b * powers[k - 1 - a]
            hit = True
        if hit:
            total = total + layer.scale(coeff)
    return total


def left_action_of(w: ExactMatrix, chart: UnipotentChart) -> dict[Root, Poly]:
    """Coefficients of the vector field of left translation by exp(t·w)."""
    _check_on_chart(w, chart)
    g = generic_element(chart)
    eps = _log_directional(g, PolyMatrix.from_exact(w) * g)
    return _read_chart_coefficients(eps, chart, "left")


def right_action_of(w: ExactMatrix, chart: UnipotentChart) -> dict[Root, Poly]:
    """Coefficients of the vector field of right translation by exp(t·w)."""
    _check_on_chart(w, chart)
    g = generic_element(chart)
    eps = _log_directional(g, g * PolyMatrix.from_exact(w))
    return _read_chart_coefficients(eps, chart, "right")


def conjugate_by_chart(w: ExactMatrix, chart: UnipotentChart) -> PolyMatrix:
    """g^{-1}·w·g for the generic chart element g."""
    if w.n != chart.n:
        raise ValueError(f"size mismatch: {w.n} vs chart over sl_{chart.n}")
    return generic_inverse(chart) * PolyMatrix.from_exact(w) * generic_element(chart)


def g0_conjugate(i: int, chart0: UnipotentChart) -> PolyMatrix:
    """The i-th simple root vector conjugated by the generic element of the chart."""
    if not (1 <= i < chart0.n):
        raise ValueError(f"simple root index {i} out of range for sl_{chart0.n}")
    return conjugate_by_chart(ExactMatrix.unit(chart0.n, i, i + 1), chart0)


def substitute(self: Poly, mapping: dict) -> Poly:
    """Replace whole variables; values may be polynomials or scalars."""
    table = {_norm_var(*var): _as_poly(value) for var, value in mapping.items()}
    out = Poly()
    for mono, c in self.terms.items():
        factor = Poly.const(c)
        for var, e in mono:
            repl = table.get(var, Poly({((var, 1),): Fraction(1)}))
            factor = factor * repl**e
        out = out + factor
    return out


@dataclass(frozen=True)
class OracleSplit:
    """The omega split with every basis it was built from.

    ``u_basis`` lists the paired block first and then the kernel vectors,
    ``v_basis`` the (1,0) vectors omega-dual to the paired block; the dual
    tuples realize the trace-form dual bases.
    """

    pairs: int
    total: int
    u_basis: tuple[ExactMatrix, ...]
    u_duals: tuple[ExactMatrix, ...]
    v_basis: tuple[ExactMatrix, ...]
    v_duals: tuple[ExactMatrix, ...]
    ghost_constants: tuple[Fraction, ...]


def omega_split(f1: ExactMatrix, f_circ: ExactMatrix, pieces: dict) -> OracleSplit:
    """The omega split with omega built as trace_form(f1, bracket(u, v))."""
    n = f1.n
    roots01 = _positive_roots(pieces.get((0, 1), ()))
    roots10 = _positive_roots(pieces.get((1, 0), ()))
    basis01 = [ExactMatrix.unit(n, r.i, r.j) for r in roots01]
    basis10 = [ExactMatrix.unit(n, r.i, r.j) for r in roots10]

    kernel, pivots = kernel_on_basis(f1, roots01)
    free = [k for k in range(len(basis01)) if k not in set(pivots)]
    complement = [basis01[p] for p in pivots]

    consts = [trace_form(f_circ, g) for g in kernel]
    anchor = next((l for l, c in enumerate(consts) if c), None)
    if anchor is not None:
        for idx, u in enumerate(complement):
            c = trace_form(f_circ, u)
            if c:
                complement[idx] = u - kernel[anchor] * (c / consts[anchor])

    n_pairs = len(complement)
    if len(basis10) != n_pairs:
        raise ValueError(
            f"pairing block is not square: {n_pairs} complement vectors "
            f"against {len(basis10)} vectors in the (1,0) cell"
        )

    v_basis: list[ExactMatrix] = []
    if n_pairs:
        omega = ExactMatrix(
            n_pairs,
            {
                (p + 1, q + 1): trace_form(f1, bracket(complement[p], basis10[q]))
                for p in range(n_pairs)
                for q in range(n_pairs)
            },
        )
        x = inverse(omega)
        for j in range(n_pairs):
            v = ExactMatrix.zero(f1.n)
            for q in range(n_pairs):
                c = x.entry(q + 1, j + 1)
                if c:
                    v = v + basis10[q] * c
            v_basis.append(v)

    total = n_pairs + len(kernel)
    u_basis = complement + kernel
    u_duals: list[ExactMatrix] = []
    if total:
        cols = list(pivots) + free
        coeffs = ExactMatrix(
            total,
            {
                (r + 1, c + 1): dict(u_basis[r].items()).get(tuple(roots01[cols[c]]), 0)
                for r in range(total)
                for c in range(total)
            },
        )
        dual_rows = inverse(coeffs.transpose())
        for j in range(total):
            d = ExactMatrix.zero(f1.n)
            for c in range(total):
                value = dual_rows.entry(j + 1, c + 1)
                if value:
                    p, q = roots01[cols[c]]
                    d = d + ExactMatrix.unit(f1.n, q, p) * value
            u_duals.append(d)

    v_duals = [bracket(f1, u) for u in complement]
    return OracleSplit(
        pairs=n_pairs,
        total=total,
        u_basis=tuple(u_basis),
        u_duals=tuple(u_duals),
        v_basis=tuple(v_basis),
        v_duals=tuple(v_duals),
        ghost_constants=tuple(consts),
    )


def omega_split_of(datum: ReductionDatum) -> OracleSplit:
    """The oracle split of a reduction datum's bigrading."""
    pieces = bigrade(
        BiGrading(grading_element_of(datum.pyr_lam), grading_element_of(datum.pyr_mu))
    )
    return omega_split(datum.f_lam, datum.f_circ, pieces)


def _positive_roots(roots) -> list[Root]:
    """Positive roots of a bigraded cell: its intersection with the nilradical."""
    return [r for r in roots if r.is_positive]


_CASES = {(0, 0): "I_00", (0, 1): "I_01", (1, 0): "I_10", (1, 1): "I_11"}


def trace_pair(a: ExactMatrix, m: PolyMatrix) -> Poly:
    """Trace-form pairing tr(a·m) of an exact matrix against a polynomial one."""
    return Poly() + trace_form(a, m)


def screening_coeffs(
    datum: Union[ReductionDatum, GoodPair], side: str = "target"
) -> ScreeningSet:
    """Classical screening coefficients of a reduction datum or a good pair.

    ``side="source"`` builds the coefficients of the finer nilpotent's
    W-algebra (beta/gamma symbols over the omega splitting); ``"target"``
    builds the coarser side (beta-hat/gamma-hat symbols).  For a good pair
    the two sides coincide apart from the label.
    """
    if side not in ("source", "target"):
        raise ValueError(f"side must be 'source' or 'target', got {side!r}")
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
    pieces = bigrade(bi)
    chart = UnipotentChart(n, _positive_roots(pieces.get((0, 0))))
    oracle = omega_split(f1, f_circ, pieces)
    split = OmegaSplit(
        oracle.pairs, oracle.u_duals, oracle.v_duals, oracle.ghost_constants
    )
    g = generic_element(chart)
    ginv = generic_inverse(chart)

    cases: list[str] = []
    coeffs: list[Poly] = []
    for i in range(1, n):
        degree = tuple(bi.degree_of(Root(i, i + 1)))
        if degree not in _CASES:
            raise ValueError(
                f"simple root {i} has bidegree {degree}; each grading must "
                "put simple roots in degree 0 or 1"
            )
        cases.append(_CASES[degree])
        if degree == (0, 0):
            total = Poly()
            for root, p in left_action_coeffs(i, chart).items():
                total = total + from_package(p) * Poly.variable("beta", root)
            coeffs.append(total)
            continue

        w = ginv * PolyMatrix.unit(n, i, i + 1) * g
        if degree == (1, 1):
            coeffs.append(trace_pair(f1 if side == "source" else f2, w))
        elif degree == (0, 1):
            if side == "source":
                total = Poly()
                for j, dual in enumerate(split.u_duals, start=1):
                    total = total + trace_pair(dual, w) * Poly.variable("beta", j)
            else:
                total = trace_pair(f_circ, w)
                for j in range(1, split.pairs + 1):
                    total = total + trace_pair(split.u_duals[j - 1], w) * Poly.variable(
                        "gamma-hat", j
                    )
            coeffs.append(total)
        else:  # (1, 0)
            total = Poly()
            for j in range(1, split.pairs + 1):
                c = trace_pair(split.v_duals[j - 1], w)
                if side == "source":
                    total = total - c * Poly.variable("gamma", j)
                else:
                    total = total + c * Poly.variable("beta-hat", j)
            coeffs.append(total)

    return ScreeningSet(
        n=n,
        side=side,
        cases=tuple(cases),
        coefficients=tuple(coeffs),
        chart_roots=chart.roots,
        split=split,
    )
