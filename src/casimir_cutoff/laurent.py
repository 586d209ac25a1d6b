"""Truncated Laurent series in one expansion variable.

The small-cutoff expansion of the regulated vacuum energy is returned
as a series: a finite window of coefficients, where powers below
``min_degree`` are exactly zero and powers at or above
``truncation_order`` are unknown.  Its coefficients come from closed
forms (see ``expansion``), so this module holds only the container and
the ways to read it.  The general series arithmetic that rebuilds the
same coefficients independently lives with the tests, in
``tests/series_reference.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from mpmath import mpf

from .errors import OutOfRange
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


def monomial(value, power: int, truncation_order: int | None = None) -> LaurentSeries:
    """Single-term series value * eps**power.

    The default window holds just that power; pass a larger
    ``truncation_order`` to assert that the higher coefficients are
    exactly zero.
    """
    hi = power + 1 if truncation_order is None else truncation_order
    if hi <= power:
        raise ValueError("truncation order cuts off the term")
    return LaurentSeries(power, (value,) + (0,) * (hi - power - 1))


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
