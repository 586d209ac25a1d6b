"""Truncated Laurent-series arithmetic in one expansion variable.

The small-cutoff expansions of the regulated vacuum energy and stress
are assembled symbolically from a few primitive series (coth and
monomial prefactors) before any number is evaluated.  A series here is
a finite window of coefficients: powers below ``min_degree`` are
exactly zero, powers at or above ``truncation_order`` are unknown.

Truncation bookkeeping is pessimistic on purpose.  Every operation
derives the tightest window that is provably correct from its inputs'
windows, so a stored coefficient is always a true coefficient; the
classic series-arithmetic failure mode of silently wrong high orders
cannot occur.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from mpmath import factorial, mpf

from .errors import DivisionByZeroSeries, OutOfRange, ZeroScale
from .precision import to_mpf


@dataclass(frozen=True, eq=False)
class LaurentSeries:
    """Window [min_degree, truncation_order) of a Laurent series.

    ``coeffs[k]`` is the coefficient of the power ``min_degree + k``.
    The window is never empty.
    """

    min_degree: int
    coeffs: tuple[mpf, ...]

    def __post_init__(self):
        vals = tuple(to_mpf(c) for c in self.coeffs)
        if not vals:
            raise ValueError("series window must be non-empty")
        object.__setattr__(self, "coeffs", vals)

    @property
    def truncation_order(self) -> int:
        """First power not represented."""
        return self.min_degree + len(self.coeffs)

    def terms(self) -> Iterator[tuple[int, mpf]]:
        """Iterate (power, coefficient) in ascending power order."""
        for k, c in enumerate(self.coeffs):
            yield self.min_degree + k, c


def from_terms(
    terms: Iterable[tuple[int, object]], truncation_order: int | None = None
) -> LaurentSeries:
    """Build a series from sparse (power, value) pairs.

    The default window ends just past the highest given power; pass a
    larger ``truncation_order`` to assert that the omitted higher
    coefficients are exactly zero.
    """
    table: dict[int, mpf] = {}
    for power, value in terms:
        table[int(power)] = table.get(int(power), mpf(0)) + to_mpf(value)
    if not table:
        raise ValueError("at least one term is required")
    lo = min(table)
    hi = max(table) + 1
    if truncation_order is not None:
        if truncation_order < hi:
            raise ValueError("truncation order cuts off a given term")
        hi = truncation_order
    return LaurentSeries(lo, tuple(table.get(p, mpf(0)) for p in range(lo, hi)))


def monomial(value, power: int, truncation_order: int | None = None) -> LaurentSeries:
    """Single-term series value * eps**power."""
    return from_terms([(power, value)], truncation_order)


def _coeff(x: LaurentSeries, power: int) -> mpf:
    # Internal read: powers below the window are structurally zero.
    k = power - x.min_degree
    return x.coeffs[k] if 0 <= k < len(x.coeffs) else mpf(0)


def extract_coefficient(x: LaurentSeries, power: int) -> mpf:
    """Coefficient of eps**power; the power must lie inside the window."""
    if not x.min_degree <= power < x.truncation_order:
        raise OutOfRange(
            f"power {power} outside window [{x.min_degree}, {x.truncation_order})"
        )
    return x.coeffs[power - x.min_degree]


def evaluate(x: LaurentSeries, eps) -> mpf:
    """Numeric value of the truncated series at the given point."""
    e = to_mpf(eps)
    return sum((c * e**p for p, c in x.terms()), mpf(0))


def series_add(x: LaurentSeries, y: LaurentSeries) -> LaurentSeries:
    lo = min(x.min_degree, y.min_degree)
    hi = min(x.truncation_order, y.truncation_order)
    return LaurentSeries(lo, tuple(_coeff(x, p) + _coeff(y, p) for p in range(lo, hi)))


def series_sub(x: LaurentSeries, y: LaurentSeries) -> LaurentSeries:
    lo = min(x.min_degree, y.min_degree)
    hi = min(x.truncation_order, y.truncation_order)
    return LaurentSeries(lo, tuple(_coeff(x, p) - _coeff(y, p) for p in range(lo, hi)))


def series_mul(x: LaurentSeries, y: LaurentSeries) -> LaurentSeries:
    # The product is unknown from the power where one factor's unknown
    # tail first meets the other's leading term.
    lo = x.min_degree + y.min_degree
    hi = min(x.min_degree + y.truncation_order, y.min_degree + x.truncation_order)
    out = [mpf(0)] * (hi - lo)
    for i, cx in x.terms():
        if cx == 0:
            continue
        for j, cy in y.terms():
            p = i + j
            if p >= hi:
                break
            out[p - lo] += cx * cy
    return LaurentSeries(lo, tuple(out))


def series_div(x: LaurentSeries, y: LaurentSeries) -> LaurentSeries:
    """Divide by a series with a nonzero leading coefficient.

    Exact zero leading coefficients of y are stripped (they arise
    structurally, e.g. the sinh series has no constant term); the first
    nonzero coefficient then defines the unit part to invert.
    """
    lead = next((k for k, c in enumerate(y.coeffs) if c != 0), None)
    if lead is None:
        raise DivisionByZeroSeries("every retained coefficient of the divisor is zero")
    m = y.min_degree + lead
    unit = y.coeffs[lead:]
    n = len(unit)
    recip = [mpf(0)] * n
    recip[0] = 1 / unit[0]
    for k in range(1, n):
        acc = mpf(0)
        for j in range(1, k + 1):
            acc += unit[j] * recip[k - j]
        recip[k] = -acc / unit[0]
    return series_mul(x, LaurentSeries(-m, tuple(recip)))


def series_differentiate(x: LaurentSeries) -> LaurentSeries:
    """Term-wise d/d eps; the window slides down one power."""
    return LaurentSeries(x.min_degree - 1, tuple(p * c for p, c in x.terms()))


def series_scale_arg(x: LaurentSeries, c) -> LaurentSeries:
    """Substitute eps -> c * eps."""
    factor = to_mpf(c)
    if factor == 0:
        raise ZeroScale("argument scale must be nonzero")
    return LaurentSeries(x.min_degree, tuple(factor**p * v for p, v in x.terms()))


def shift_scale(x: LaurentSeries, value, power: int) -> LaurentSeries:
    """Multiply by the exact monomial value * eps**power.

    A monomial prefactor carries no truncation of its own, so the
    window shifts without shrinking; series_mul with a one-term series
    would lose an order.
    """
    v = to_mpf(value)
    return LaurentSeries(x.min_degree + power, tuple(v * c for c in x.coeffs))


def series_coth(order: int) -> LaurentSeries:
    """Laurent expansion of coth around zero, window [-1, order).

    Computed as the ratio of the exponential-defined even and odd
    series rather than from tabulated coefficients, so the division
    routine itself is exercised on every call.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    n = order + 2
    sinh_part = [mpf(0)] * (n - 1)
    for p in range(1, n, 2):
        sinh_part[p - 1] = 1 / factorial(p)
    cosh_part = [mpf(0)] * n
    for p in range(0, n, 2):
        cosh_part[p] = 1 / factorial(p)
    return series_div(LaurentSeries(0, tuple(cosh_part)), LaurentSeries(1, tuple(sinh_part)))
