"""Reference screening routines, kept as a test oracle for `slred.screening`.

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
`lie.trace_form` from the Fraction 0.  The oracle split keeps all seven
fields of the package's former split record, among them the u- and v-bases
that the package's duals are dual to.  The chart inverse and the polynomial
derivative, which only tests ever called, live here too.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from slred.lie import ExactMatrix, Root, bracket, inverse, trace_form
from slred.pyramids import GoodPair, grading_element_of
from slred.reduction import ReductionDatum
from slred.screening import (
    _CASES,
    Monomial,
    Poly,
    PolyMatrix,
    ScreeningSet,
    UnipotentChart,
    _as_poly,
    _check_on_chart,
    _item_key,
    _negate_coordinates,
    _norm_var,
    _omega_split,
    _positive_roots,
    _read_chart_coefficients,
    left_action_coeffs,
)
from slred.star import BiGrading, bigrade, kernel_on_basis


def generic_inverse(chart: UnipotentChart) -> PolyMatrix:
    return _negate_coordinates(chart.generic_element())


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
    g = chart.generic_element()
    eps = _log_directional(g, PolyMatrix.from_exact(w) * g)
    return _read_chart_coefficients(eps, chart, "left")


def right_action_of(w: ExactMatrix, chart: UnipotentChart) -> dict[Root, Poly]:
    """Coefficients of the vector field of right translation by exp(t·w)."""
    _check_on_chart(w, chart)
    g = chart.generic_element()
    eps = _log_directional(g, g * PolyMatrix.from_exact(w))
    return _read_chart_coefficients(eps, chart, "right")


def conjugate_by_chart(w: ExactMatrix, chart: UnipotentChart) -> PolyMatrix:
    """g^{-1}·w·g for the generic chart element g."""
    if w.n != chart.n:
        raise ValueError(f"size mismatch: {w.n} vs chart over sl_{chart.n}")
    return generic_inverse(chart) * PolyMatrix.from_exact(w) * chart.generic_element()


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
    roots01 = _positive_roots(pieces.get((0, 1)))
    roots10 = _positive_roots(pieces.get((1, 0)))
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
    split = _omega_split(f1, f_circ, pieces)
    g = chart.generic_element()
    ginv = _negate_coordinates(g)

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
                total = total + p * Poly.variable("beta", root)
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
