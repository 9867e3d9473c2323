"""Reference screening routines, kept as a test oracle for `slred.screening`.

The package used to compute left and right translation vector fields by
differentiating the matrix logarithm, log(g + t·b), along the direction
w·g or g·w, and to substitute into a polynomial by multiplying out every
variable of every monomial.  Those routines, and the logarithm and chart
conjugations that only tests ever called, live on here unchanged.  They are
independent of the Bernoulli-series route and are only ever compared
against it.
"""

from __future__ import annotations

from fractions import Fraction

from slred.lie import ExactMatrix, Root
from slred.screening import (
    Poly,
    PolyMatrix,
    UnipotentChart,
    _as_poly,
    _check_on_chart,
    _norm_var,
    _read_chart_coefficients,
)


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
    return chart.generic_inverse() * PolyMatrix.from_exact(w) * chart.generic_element()


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
