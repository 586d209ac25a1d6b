"""Value types shared by the energy and stress layers.

``FieldKind`` names the field between the plates, ``PlateGeometry`` the
plate separation and ``CutoffParams`` the regulator pair.  They live
apart from the mode sum, so that a CLI start that never sums modes
does not load ``modesum``, which still binds all three names.

Validation compares mpmath's raw values with ``libmp.mpf_gt``,
``mpf_lt`` and ``mpf_ge``, which are False against a NaN as mpf's
``>``, ``<`` and ``>=`` are, so a NaN or infinite value is rejected
exactly as the operator form rejects it; ``_unit_lambda`` is the
lambda check that ``expansion`` and ``pointwise`` share, and
``_check_field`` the field check of every entry point that takes one.
"""

from __future__ import annotations

from enum import Enum

from mpmath import libmp, mpf

from .errors import CutoffDomain, InvalidMode, NonPositiveSeparation
from .precision import to_mpf, value_type

_FZERO, _mpf_gt, _mpf_lt = libmp.fzero, libmp.mpf_gt, libmp.mpf_lt


def _unit_lambda(lam) -> mpf:
    """lambda as an mpf, raising CutoffDomain unless it lies in [0, 1)."""
    lam = to_mpf(lam)
    if not (libmp.mpf_ge(lam._mpf_, _FZERO) and _mpf_lt(lam._mpf_, libmp.fone)):
        raise CutoffDomain(f"lambda must lie in [0, 1), got {lam}")
    return lam


class FieldKind(Enum):
    """Field content between the plates."""

    ELECTROMAGNETIC = "em"
    SCALAR = "scalar"


def _check_field(field) -> None:
    """Raise InvalidMode unless field is a FieldKind."""
    if not isinstance(field, FieldKind):
        raise InvalidMode(f"unknown field kind: {field!r}")


class CutoffParams(value_type("CutoffParams", "epsilon lam")):
    """Regulator pair (epsilon, lambda).

    A finite epsilon > 0 is the cutoff length; lambda in [0, 1) deforms the
    regulator shape.  At lambda >= 1 the regulated sum diverges term by
    term, so that region is a hard error, not a NaN.
    """

    __slots__ = ()

    def __new__(cls, epsilon: mpf, lam: mpf):
        epsilon, lam = to_mpf(epsilon), to_mpf(lam)
        if not (_mpf_gt(epsilon._mpf_, _FZERO) and _mpf_lt(epsilon._mpf_, libmp.finf)):
            raise CutoffDomain(f"epsilon must be positive and finite, got {epsilon}")
        return super().__new__(cls, epsilon, _unit_lambda(lam))


class PlateGeometry(value_type("PlateGeometry", "a")):
    """Plates at z = 0 and z = a, with a positive and finite.

    The outer region enters only through expansion.subtract_outer.
    """

    __slots__ = ()

    def __new__(cls, a: mpf):
        a = to_mpf(a)
        if not _mpf_gt(a._mpf_, _FZERO):
            raise NonPositiveSeparation(f"plate separation must be positive, got {a}")
        if a._mpf_ == libmp.finf:
            raise NonPositiveSeparation("plate separation must be finite")
        return super().__new__(cls, a)
