"""Value types shared by the energy and stress layers.

``FieldKind`` names the field between the plates, ``PlateGeometry`` the
plate separation and ``CutoffParams`` the regulator pair.  They live
apart from the mode sum, so that a CLI start that never sums modes
does not load ``modesum``, which still binds all three names.
"""

from __future__ import annotations

from enum import Enum

from mpmath import inf, mpf

from .errors import CutoffDomain, NonPositiveSeparation
from .precision import to_mpf, value_type


class FieldKind(Enum):
    """Field content between the plates."""

    ELECTROMAGNETIC = "em"
    SCALAR = "scalar"


class CutoffParams(value_type("CutoffParams", "epsilon lam")):
    """Regulator pair (epsilon, lambda).

    A finite epsilon > 0 is the cutoff length; lambda in [0, 1) deforms the
    regulator shape.  At lambda >= 1 the regulated sum diverges term by
    term, so that region is a hard error, not a NaN.
    """

    __slots__ = ()

    def __new__(cls, epsilon: mpf, lam: mpf):
        epsilon, lam = to_mpf(epsilon), to_mpf(lam)
        if not 0 < epsilon < inf:
            raise CutoffDomain(f"epsilon must be positive and finite, got {epsilon}")
        if not (0 <= lam < 1):
            raise CutoffDomain(f"lambda must lie in [0, 1), got {lam}")
        return super().__new__(cls, epsilon, lam)


class PlateGeometry(value_type("PlateGeometry", "a")):
    """Plates at z = 0 and z = a, with a positive and finite.

    The outer region enters only through expansion.subtract_outer.
    """

    __slots__ = ()

    def __new__(cls, a: mpf):
        a = to_mpf(a)
        if not a > 0:
            raise NonPositiveSeparation(f"plate separation must be positive, got {a}")
        if a == inf:
            raise NonPositiveSeparation("plate separation must be finite")
        return super().__new__(cls, a)
