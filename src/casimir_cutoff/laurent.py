"""Truncated Laurent series in one expansion variable.

The small-cutoff expansion of the regulated vacuum energy is returned
as a series: a finite window of coefficients, where powers below
``min_degree`` are exactly zero and powers at or above
``truncation_order`` are unknown.  Its coefficients come from closed
forms (see ``expansion``), so this module holds only the container and
the way to read it.  The general series arithmetic that rebuilds the
same coefficients independently, and the evaluation of a series at a
point, live with the tests, in ``tests/series_reference.py``.
"""

from __future__ import annotations

from collections.abc import Iterator

from mpmath import mpf

from .errors import OutOfRange
from .precision import to_mpf, value_type


class LaurentSeries(value_type("LaurentSeries", "min_degree coeffs")):
    """Window [min_degree, truncation_order) of a Laurent series.

    ``coeffs[k]`` is the coefficient of the power ``min_degree + k``.
    The window is never empty.  Two series compare equal only if they
    are the same object.
    """

    __slots__ = ()
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    def __new__(cls, min_degree: int, coeffs: tuple[mpf, ...]):
        vals = tuple(to_mpf(c) for c in coeffs)
        if not vals:
            raise ValueError("series window must be non-empty")
        return super().__new__(cls, min_degree, vals)

    @property
    def truncation_order(self) -> int:
        """First power not represented."""
        return self.min_degree + len(self.coeffs)

    def terms(self) -> Iterator[tuple[int, mpf]]:
        """Iterate (power, coefficient) in ascending power order."""
        for k, c in enumerate(self.coeffs):
            yield self.min_degree + k, c


def extract_coefficient(x: LaurentSeries, power: int) -> mpf:
    """Coefficient of eps**power; the power must lie inside the window."""
    if not x.min_degree <= power < x.truncation_order:
        raise OutOfRange(
            f"power {power} outside window [{x.min_degree}, {x.truncation_order})"
        )
    return x.coeffs[power - x.min_degree]
