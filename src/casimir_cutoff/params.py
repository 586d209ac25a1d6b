"""Regulator parameters: the value types shared by the energy and stress layers.

``FieldKind`` names the field between the plates, ``PlateGeometry`` the
plate separation and ``CutoffParams`` the regulator pair.  The stress is
regularised by point separation, so the splitting is a regulator
parameter too, and ``FourVector`` and ``SeparationVector`` are defined
here.  All five live apart from the mode sum and from the Lorentz algebra,
so that a CLI start that never sums modes does not load ``modesum``, and
one that never transforms a tensor does not load ``minkowski``;
``modesum`` still binds the first three names and ``minkowski`` the two
vector types.

Validation compares mpmath's raw values with ``libmp.mpf_gt``,
``mpf_lt`` and ``mpf_ge``, which are False against a NaN as mpf's
``>``, ``<`` and ``>=`` are, so a NaN or infinite value is rejected
exactly as the operator form rejects it; ``_unit_lambda`` is the
lambda check that ``expansion`` and ``pointwise`` share, and
``_check_field`` the field check of every entry point that takes one.
``SeparationVector``'s square and its sign test, ``_spacelike_square``,
are shared by construction and ``length``, so the vector is checked
again at the precision its length is read at.

Every sum of products in the package (the Minkowski square ``_rsquare``
here; matrix products, the metric check and tensor transforms in
``minkowski``; the stress layer's tensor assembly) goes through one
kernel, ``_rdot``, defined here.  It works on mpmath's raw values with
``libmp.mpf_mul`` and ``libmp.mpf_add`` at the caller's
``mp._prec_rounding``, the same functions and the same (prec, rounding)
that mpf's own ``*`` and ``+`` call, so its result has the bits of the
mpf expression ``a1 * b1 + a2 * b2 + ...`` taken left to right without
building an mpf per product.  A product with an exact-zero factor is
skipped; with a finite other factor, adding it would change no bit.
"""

from __future__ import annotations

from enum import Enum

from mpmath import libmp, mp, mpf

from .errors import CutoffDomain, InvalidMode, LightlikeSeparation, NonPositiveSeparation
from .precision import to_mpf, value_type

_FZERO, _mpf_gt, _mpf_lt = libmp.fzero, libmp.mpf_gt, libmp.mpf_lt
_mpf_add, _mpf_mul, _mpf_neg, _make_mpf = libmp.mpf_add, libmp.mpf_mul, libmp.mpf_neg, mp.make_mpf


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


class FourVector(value_type("FourVector", "t x y z")):
    """Contravariant four-vector with components (t, x, y, z)."""

    __slots__ = ()

    def __new__(cls, t: mpf, x: mpf, y: mpf, z: mpf):
        return super().__new__(cls, to_mpf(t), to_mpf(x), to_mpf(y), to_mpf(z))


class SeparationVector(value_type("SeparationVector", "vector")):
    """Spacelike point-splitting vector.

    The regulated two-point functions are expanded around coincidence
    along a spacelike direction; a timelike or lightlike separation has
    no invariant length to expand in, so construction rejects it.
    """

    __slots__ = ()

    def __new__(cls, vector: FourVector):
        _spacelike_square(vector, *mp._prec_rounding)
        return super().__new__(cls, vector)

    @property
    def length(self) -> mpf:
        """Invariant length s = sqrt(g_{mu nu} eps^mu eps^nu) > 0.

        The square is checked again at the working precision, which may
        be lower than the one the vector was built at.
        """
        prec, rounding = mp._prec_rounding
        s2 = _spacelike_square(self.vector, prec, rounding)
        return _make_mpf(libmp.mpf_sqrt(s2, prec, rounding))


def _spacelike_square(vector: FourVector, prec: int, rounding: str) -> tuple:
    # The raw squared length, raising LightlikeSeparation unless it is
    # positive.  Not "s2 <= 0": a NaN square, as from -inf + inf, must
    # fail too.
    s2 = _rsquare(vector, prec, rounding)
    if not _mpf_gt(s2, _FZERO):
        raise LightlikeSeparation(
            "point-splitting vector must be spacelike: "
            f"squared length {mp.nstr(_make_mpf(s2), 8)}"
        )
    return s2


def _rdot(pairs, prec: int, rounding: str) -> tuple:
    """sum(a * b for a, b in pairs) from zero on raw values, bit for bit.

    Products and sums are formed as mpf's operators form them at (prec,
    rounding) (see the module docstring).  A pair with an exact-zero
    factor is skipped, even against an infinity or a NaN.  The first
    product is the start of the sum: added to exact zero, a product
    already rounded at this precision would come back unchanged.
    """
    acc = None
    for a, b in pairs:
        if a != _FZERO and b != _FZERO:
            p = _mpf_mul(a, b, prec, rounding)
            acc = p if acc is None else _mpf_add(acc, p, prec, rounding)
    return _FZERO if acc is None else acc


def _rsquare(v: FourVector, prec: int, rounding: str) -> tuple:
    """Raw Minkowski square g_{mu nu} v^mu v^nu = -t t + x x + y y + z z, as _rdot forms it."""
    t, x, y, z = (c._mpf_ for c in v)
    return _rdot(((_mpf_neg(t, prec, rounding), t), (x, x), (y, y), (z, z)), prec, rounding)
