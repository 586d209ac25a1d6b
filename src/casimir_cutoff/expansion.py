"""Small-cutoff expansion of the plate energy and the Casimir pressure.

The closed-form energy is the frozen-copy second derivative of
P(eps) coth((eps - lambda eps') c), and coth has the Laurent series
coth u = sum_n beta_n u^(2n-1) with beta_n = 2^(2n) B_2n / (2n)!.  The
product rule therefore gives every coefficient of the expansion around
epsilon = 0 in closed form (see ``_frozen_coth_term``); they come out
numeric for given (a, lambda), and the odd powers vanish exactly.

Physically only the part of each coefficient that decays with the plate
separation is observable: the experiment compares the region between
the plates against the outer region (separation L - a with L large), so
anything constant or linear in a cancels.  Dimensional analysis fixes
that a-dependence exactly: E = a^-3 f(epsilon/a, lambda), so the
epsilon^k coefficient is a pure power c_k a^-(k+3).  The subtraction
therefore drops the k = -4 (linear) and k = -3 (constant) coefficients
and keeps every other one whole.  The surviving epsilon^0 part gives the
finite pressure; the surviving epsilon^-2 part is a genuinely
regulator-shaped divergence and is reported separately, never summed
into the finite answer.

``casimir_pressure`` and the CLI's points take the pressure from the
same checked setup as the two reported coefficients, and the domain of
(a, lambda) is checked by ``PlateGeometry`` and ``_unit_lambda``, the
field by ``_check_field``.

The closed forms run on mpmath's raw values at ``mp._prec_rounding``.
Each coefficient of the window, each reported coefficient and each
part of the pressure is an exact polynomial in lambda over powers of a
and mu = 1 - lambda, times beta_n pi^(m-1); ``_odd_terms`` forms the
polynomial exactly and the powers with guard bits, and the whole is
rounded once through ``coth._frozen_coth_term``, which the
electromagnetic stress in ``stress`` shares.  So each value is within
1/2 + 2^-16 ulp of its exact value.  ``reference_coefficients``, the
independent transcription, is formed exactly and rounded once as well,
over the same pi^2 and a^3: its two values are the same exact quotients
as the closed form's, so they have the same bits.  An mpf is built only
for a value the caller receives.
"""

from __future__ import annotations

from mpmath import libmp, mp, mpf

from .coth import _GUARD, _frozen_coth_term, _pi_power
from .params import FieldKind, PlateGeometry, _check_field, _unit_lambda
from .precision import value_type

_make_mpf, _from_int, _mpf_add, _mpf_sub = mp.make_mpf, libmp.from_int, libmp.mpf_add, libmp.mpf_sub
_mpf_mul, _mpf_shift, _mpf_pow_int = libmp.mpf_mul, libmp.mpf_shift, libmp.mpf_pow_int
_ONE, _ZERO = libmp.fone, mpf(0)

# Window eps^-4 .. eps^4: the physics needs eps^-4 .. eps^0, and the two
# even orders above that make the truncated series good to O(eps^6) at
# finite eps.
DEFAULT_ORDER = 4


class EnergyExpansion(
    value_type("EnergyExpansion", "series a lam field subtracted", defaults=(False,))
):
    """Laurent expansion of the plate energy at fixed (a, lambda).

    On a subtracted expansion the epsilon^k coefficient is the pure
    power c_k a^-(k+3), so differentiating in a needs nothing beyond
    the series itself.  Like its series, it equals only itself.
    """

    __slots__ = ()
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__


class ReferenceCoefficients(value_type("ReferenceCoefficients", "c_minus2 c_0")):
    """Directly coded analytic values of the two physical coefficients."""

    __slots__ = ()


class PressureResult(value_type("PressureResult", "finite_part divergent_coeff")):
    """Negative a-gradient of the subtracted energy, split by character.

    ``finite_part`` is the cutoff-independent pressure (negative means
    attraction).  ``divergent_coeff`` multiplies 1/epsilon^2 and
    survives regularization whenever lambda is nonzero; it is reported
    as metadata and must never be added to the finite part.
    """

    __slots__ = ()


def _energy_setup(a, lam, field: FieldKind) -> tuple[mpf, mpf, tuple]:
    """The validated a and lambda, then the raw arguments of ``_odd_terms``."""
    _check_field(field)
    # PlateGeometry rejects a zero, negative, NaN or infinite separation;
    # at a = inf, c = pi/2a is 0 and the eps^-4 term c^-1 is undefined.
    a, lam = PlateGeometry(a).a, _unit_lambda(lam)
    mu = _mpf_sub(_ONE, lam._mpf_)
    return a, lam, (a._mpf_, lam._mpf_, mu, field is FieldKind.SCALAR, *mp._prec_rounding)


def _power(x, k: int, wp: int, rnd: str):
    # Raw x^k for k > 0, 1 otherwise: x itself at k = 1, so that mu stays
    # exact there, and rounded to wp bits above it.
    return _ONE if k <= 0 else x if k == 1 else _mpf_pow_int(x, k, wp, rnd)


def _odd_terms(m: int, a, lam, mu, scalar: bool, prec: int, rnd: str) -> tuple:
    """Raw (num, den) of the eps^(m-3) energy coefficient, for odd m.

    The coefficient is beta_n c^m mu^(m-2) [m(m-1) - 2 mu (lambda + m - 1)]
    / 4 pi with c = pi/2a, halved for the scalar field: num and den are
    ``_frozen_coth_term``'s.  The bracket is exact: the m = 1 one is
    -2 lambda mu, an exact zero at lambda = 0.
    """
    wp = prec + _GUARD
    num = _mpf_mul(_mpf_shift(mu, 1), _mpf_add(lam, _from_int(m - 1)))
    num = _mpf_sub(_from_int(m * (m - 1)), num)
    num = _mpf_mul(_mpf_mul(num, _power(a, -m, wp, rnd)), _power(mu, m - 2, wp, rnd))
    den = _mpf_mul(_power(a, m, wp, rnd), _power(mu, 2 - m, wp, rnd))
    return num, _mpf_shift(den, int(scalar))


def _reported_coefficients(
    a, lam, field: FieldKind = FieldKind.ELECTROMAGNETIC, pressure: bool = False
) -> tuple:
    """The validated a with the eps^-2 and eps^0 energy coefficients.

    These odd m = 1 and 3 coefficients are the two that the outer
    subtraction leaves to report, and it keeps them whole: each equals
    its entry of the built and subtracted window, bit for bit.  With
    pressure, the PressureResult of the same terms follows (``_slopes``).
    """
    a, _, raw = _energy_setup(a, lam, field)
    prec, rnd = raw[-2:]
    terms = _reported_terms(raw)
    values = (a, *(_make_mpf(_frozen_coth_term(m, *terms[m], prec, rnd)) for m in (1, 3)))
    return values + (_slopes(terms, raw),) if pressure else values


def _reported_terms(raw) -> dict:
    # m -> the kernel's (num, den) of the two reported coefficients, m = 3
    # first, so that the slopes come in PressureResult's order.
    return {m: _odd_terms(m, *raw) for m in (3, 1)}


def _slopes(terms, raw) -> PressureResult:
    # Each c_k is the pure power c_k a^-m, m = k + 3, so -d c_k/da = m c_k
    # / a, formed inside the one rounding of the kernel.
    a, prec, rnd = raw[0], *raw[-2:]
    return PressureResult(*(
        _make_mpf(_frozen_coth_term(m, _mpf_mul(num, _from_int(m)), _mpf_mul(den, a), prec, rnd))
        for m, (num, den) in terms.items()))


def energy_laurent(
    a, lam, order: int = DEFAULT_ORDER, field: FieldKind = FieldKind.ELECTROMAGNETIC
) -> EnergyExpansion:
    """Expand the closed-form energy around epsilon = 0, window [-4, order + 1).

    The energy is the frozen-copy second derivative of
    P(eps) * coth((eps - lambda*eps') c) with P = 1/(4 pi eps) and
    c = pi/2a.  P'' K + 2 P' K' + P K'' puts the coth terms of power m
    at eps^(m-3), so with m = k + 3 the eps^k coefficient is
    ``_odd_terms`` rounded once for odd m and zero for even m, except
    that the scalar field drops the n = 0 half-term the full sum
    contains, which gives its eps^-3 coefficient -1/(4 pi), independent
    of a.  The order must be an int of at least 0, so that the window
    holds eps^0.
    """
    if type(order) is bool or not isinstance(order, int) or order < 0:
        raise ValueError(f"order must be an integer >= 0, got {order!r}")
    # Only the window routes build a series; the CLI's starts read the
    # two reported coefficients and never load the container.
    from .laurent import LaurentSeries

    a, lam, raw = _energy_setup(a, lam, field)
    _, _, _, scalar, prec, rnd = raw
    # The scalar pole -1/4 pi, rounded once.
    pole = libmp.mpf_rdiv_int(-1, _mpf_shift(_pi_power(1, prec + _GUARD), 2), prec, rnd)
    coeffs = tuple(_make_mpf(_frozen_coth_term(m, *_odd_terms(m, *raw), prec, rnd) if m % 2
                             else pole if scalar and m == 0 else libmp.fzero)
                   for m in range(-1, order + 4))
    return EnergyExpansion(LaurentSeries(-4, coeffs), a, lam, field)


def subtract_outer(e: EnergyExpansion) -> EnergyExpansion:
    """Remove the parts of each coefficient that the outer region cancels.

    By dimensional analysis the epsilon^k coefficient is exactly
    c_k a^-(k+3), so the k = -4 coefficient is linear in a and the
    k = -3 one constant; both are set to zero and every other
    coefficient is kept as it is.  Constant parts
    are separation-independent vacuum energy; linear parts are bulk
    energy density that the region beyond the plates returns with
    opposite sign when the total size is held fixed.
    """
    from .laurent import LaurentSeries

    if e.subtracted:
        raise ValueError("expansion is already subtracted")
    # c_k = q / a**(k+3) with q independent of a: it decays iff k > -3.
    coeffs = tuple(c if k + 3 > 0 else _ZERO for k, c in e.series.terms())
    return e._replace(series=LaurentSeries(e.series.min_degree, coeffs), subtracted=True)


def reference_coefficients(a, lam) -> ReferenceCoefficients:
    """Independently coded values of the two surviving coefficients.

    These are transcribed analytic formulas, kept deliberately separate
    from the general-m closed form so the two can check each other: the
    1/epsilon^2 coefficient -lambda/12a and the finite coefficient
    -(1-lambda) pi^2/720a^3 + lambda(lambda^2-1) pi^2/720a^3.
    """
    a, lam = PlateGeometry(a).a._mpf_, _unit_lambda(lam)._mpf_
    prec, rnd = mp._prec_rounding
    c_minus2 = libmp.mpf_div(libmp.mpf_neg(lam), _mpf_mul(a, _from_int(12)), prec, rnd)
    # lam (lam^2 - 1) - (1 - lam), exact, times pi^2, over 720 a^3: each
    # rounded once, the powers with the guard bits of the energy's kernel.
    poly = _mpf_sub(_mpf_mul(lam, _mpf_sub(_mpf_mul(lam, lam), _ONE)), _mpf_sub(_ONE, lam))
    c_0 = libmp.mpf_div(_mpf_mul(poly, _pi_power(2, prec + _GUARD)),
                        _mpf_mul(_mpf_pow_int(a, 3, prec + _GUARD, rnd), _from_int(720)), prec, rnd)
    return ReferenceCoefficients(c_minus2=_make_mpf(c_minus2), c_0=_make_mpf(c_0))


def casimir_pressure(a, lam, field: FieldKind = FieldKind.ELECTROMAGNETIC) -> PressureResult:
    """Pressure on the plates from the subtracted energy at (a, lambda).

    Builds no expansion and rounds neither coefficient: each part is
    (k + 3) c_k / a on the eps^0 and eps^-2 coefficients, formed inside
    that part's one rounding.
    """
    raw = _energy_setup(a, lam, field)[2]
    return _slopes(_reported_terms(raw), raw)
