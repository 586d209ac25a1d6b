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

``casimir_pressure`` is ``_pressure_from_coefficients`` applied to
``_reported_coefficients``, the same two routines the CLI calls, and
the domain of (a, lambda) is checked by ``PlateGeometry`` and
``_unit_lambda``, the field by ``_check_field``.

The closed forms run on mpmath's raw values at ``mp._prec_rounding``:
the window, the two reported coefficients, the pressure and the
transcribed reference coefficients, and through ``_frozen_coth_term``
the electromagnetic stress coefficients in ``stress``.  Each step makes
the libmp call that mpf's operator makes, with the same operands, so
every number has the bits of the operator form that
``tests/series_reference.py`` keeps (``reference_energy_laurent``,
``reference_reported_coefficients`` and
``reference_reference_coefficients``); an mpf is built only for a value
the caller receives.  The constants pi, 4 pi, 1/(4 pi), pi^2 and 1/15
are formed once per (precision, rounding) by ``_constants``, with the
calls of their operator forms, and the coth coefficients once per
(n, precision) from the exact Bernoulli fraction, rounded once.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

from mpmath import libmp, mp, mpf

from .params import FieldKind, PlateGeometry, _check_field, _unit_lambda
from .precision import value_type

_make_mpf, _from_int, _mpf_add = mp.make_mpf, libmp.from_int, libmp.mpf_add
_mpf_sub, _mpf_mul, _mpf_mul_int = libmp.mpf_sub, libmp.mpf_mul, libmp.mpf_mul_int
_mpf_div, _mpf_pow_int, _ZERO = libmp.mpf_div, libmp.mpf_pow_int, mpf(0)

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


@lru_cache(maxsize=16)
def _constants(prec: int, rnd: str) -> tuple:
    """Raw pi, 4 pi, 1/(4 pi), pi^2 and 1/15 at (prec, rnd).

    Each is formed by the libmp calls of its operator form (``4*pi``,
    ``1/(4*pi)``, ``pi**2`` and ``mpf(1)/15``), so it has their bits.
    They depend on nothing but the precision and the rounding, which
    are the key, so a value is never served at another of either.
    """
    pi = libmp.mpf_pi(prec, rnd)
    four_pi = _mpf_mul_int(pi, 4, prec, rnd)
    return (pi, four_pi, libmp.mpf_rdiv_int(1, four_pi, prec, rnd),
            _mpf_pow_int(pi, 2, prec, rnd), _mpf_div(libmp.fone, _from_int(15), prec, rnd))


@lru_cache(maxsize=64)
def _coth_coefficient(n: int, prec: int) -> mpf:
    # beta_n = 2^(2n) B_2n / (2n)!, the u^(2n-1) coefficient of coth u.
    # It depends on nothing else, so one value serves every (a, lambda);
    # prec (which the caller passes as mp.prec) is in the key only so
    # that a value is never reused at another working precision.  The
    # exact fraction is rounded once, to nearest as mp rounds: mpmath's
    # own bernoulli would round B_2n first, to bits that depend on
    # whether its cache already held a value at this precision.
    p, q = libmp.bernfrac(2 * n)
    return _make_mpf(libmp.from_rational(p << 2 * n, q * factorial(2 * n), prec, "n"))


def _frozen_coth_term(m: int, c, mu, prec: int, rnd: str):
    """Raw common factor beta_n c^m mu^(m-2) of the frozen-copy coth terms.

    For odd m = 2n - 1, mu = 1 - lambda and c = pi/2a: the k-th
    eps-derivative of coth((eps - lambda eps') c), taken with eps'
    frozen and then set to eps, is
    sum_n beta_n c^m m (m-1) ... (m-k+1) mu^(m-k) eps^(m-k).  So for
    k = 0, 1, 2 the coefficients of eps^m, eps^(m-1) and eps^(m-2) are
    this factor times mu^2, m mu and m(m-1).
    """
    beta = _coth_coefficient((m + 1) // 2, prec)._mpf_
    cm = _mpf_mul(beta, _mpf_pow_int(c, m, prec, rnd), prec, rnd)
    return _mpf_mul(cm, _mpf_pow_int(mu, m - 2, prec, rnd), prec, rnd)


def _c_mu(a, lam, prec: int, rnd: str) -> tuple:
    # Raw c = pi/2a and mu = 1 - lambda from the raw a and lambda.
    c = _mpf_div(_constants(prec, rnd)[0], _mpf_mul_int(a, 2, prec, rnd), prec, rnd)
    return c, _mpf_sub(_from_int(1), lam, prec, rnd)


def _energy_setup(a, lam, field: FieldKind) -> tuple[mpf, mpf, tuple]:
    """The validated a and lambda, then the raw arguments of ``_odd_coefficient``."""
    _check_field(field)
    # PlateGeometry rejects a zero, negative, NaN or infinite separation;
    # at a = inf, c = pi/2a is 0 and the eps^-4 term c^-1 is undefined.
    a, lam = PlateGeometry(a).a, _unit_lambda(lam)
    prec, rnd = mp._prec_rounding
    inv4pi = _constants(prec, rnd)[2]
    c, mu = _c_mu(a._mpf_, lam._mpf_, prec, rnd)
    return a, lam, (c, mu, lam._mpf_, inv4pi, field is FieldKind.SCALAR, prec, rnd)


def _odd_coefficient(m: int, c, mu, lam, inv4pi, scalar: bool, prec: int, rnd: str):
    """The raw eps^(m-3) energy coefficient for odd m, halved for the scalar field.

    beta_n c^m mu^(m-2) [2 mu^2 - 2 m mu + m(m-1)] / 4 pi, with the bracket
    as m(m-1) - 2 mu (lambda + (m - 1)): the m = 1 one, -2 lambda mu, keeps
    its relative accuracy as lambda -> 0 and is exactly zero at lambda = 0.
    """
    shifted = _mpf_add(lam, _from_int(m - 1), prec, rnd)
    twice = _mpf_mul(_mpf_mul_int(mu, 2, prec, rnd), shifted, prec, rnd)
    bracket = _mpf_sub(_from_int(m * (m - 1)), twice, prec, rnd)
    coeff = _mpf_mul(_frozen_coth_term(m, c, mu, prec, rnd), bracket, prec, rnd)
    coeff = _mpf_mul(coeff, inv4pi, prec, rnd)
    return _mpf_div(coeff, _from_int(2), prec, rnd) if scalar else coeff


def _reported_coefficients(
    a, lam, field: FieldKind = FieldKind.ELECTROMAGNETIC
) -> tuple[mpf, mpf, mpf]:
    """The validated a with the eps^-2 and eps^0 energy coefficients.

    These odd m = 1 and 3 coefficients are the two that the outer
    subtraction leaves to report, and it keeps them whole: each equals
    its entry of the built and subtracted window, bit for bit.
    """
    a, _, raw = _energy_setup(a, lam, field)
    return a, _make_mpf(_odd_coefficient(1, *raw)), _make_mpf(_odd_coefficient(3, *raw))


def _pressure_from_coefficients(a: mpf, c_minus2: mpf, c_0: mpf) -> PressureResult:
    """Negative a-gradient of the eps^0 and eps^-2 energy coefficients.

    Each is a pure power c_k a^-(k+3), so -d c_k/da = (k+3) c_k / a,
    formed on raw values; at k = -2, (k + 3) c_k is c_k itself and no
    product is formed.
    """
    prec, rnd = mp._prec_rounding
    finite = _make_mpf(_mpf_div(_mpf_mul_int(c_0._mpf_, 3, prec, rnd), a._mpf_, prec, rnd))
    divergent = _make_mpf(_mpf_div(c_minus2._mpf_, a._mpf_, prec, rnd))
    return PressureResult(finite_part=finite, divergent_coeff=divergent)


def energy_laurent(
    a, lam, order: int = DEFAULT_ORDER, field: FieldKind = FieldKind.ELECTROMAGNETIC
) -> EnergyExpansion:
    """Expand the closed-form energy around epsilon = 0, window [-4, order + 1).

    The energy is the frozen-copy second derivative of
    P(eps) * coth((eps - lambda*eps') c) with P = 1/(4 pi eps) and
    c = pi/2a.  P'' K + 2 P' K' + P K'' puts the coth terms of power m
    at eps^(m-3), so with m = k + 3 the eps^k coefficient is
    ``_odd_coefficient`` for odd m and zero for even m, except that the
    scalar field drops the n = 0 half-term the full sum contains, which
    gives its eps^-3 coefficient -1/(4 pi), independent of a.  The order
    must be an int of at least 0, so that the window holds eps^0.
    """
    if type(order) is bool or not isinstance(order, int) or order < 0:
        raise ValueError(f"order must be an integer >= 0, got {order!r}")
    # Only the window routes build a series; the CLI's starts read the
    # two reported coefficients and never load the container.
    from .laurent import LaurentSeries

    a, lam, raw = _energy_setup(a, lam, field)
    _, _, _, inv4pi, scalar, prec, rnd = raw
    pole = _make_mpf(libmp.mpf_neg(inv4pi, prec, rnd)) if scalar else _ZERO
    coeffs = tuple(_make_mpf(_odd_coefficient(m, *raw)) if m % 2 else pole if m == 0 else _ZERO
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
    pi2 = _constants(prec, rnd)[3]
    a3x720 = _mpf_mul_int(_mpf_pow_int(a, 3, prec, rnd), 720, prec, rnd)

    def over_720a3(x):
        # x pi^2 / 720 a^3, with pi^2 and 720 a^3 formed once for both terms.
        return _mpf_div(_mpf_mul(x, pi2, prec, rnd), a3x720, prec, rnd)

    c_minus2 = _mpf_div(libmp.mpf_neg(lam, prec, rnd), _mpf_mul_int(a, 12, prec, rnd), prec, rnd)
    first = over_720a3(libmp.mpf_neg(_mpf_sub(_from_int(1), lam, prec, rnd), prec, rnd))
    cubic = _mpf_sub(_mpf_pow_int(lam, 2, prec, rnd), _from_int(1), prec, rnd)
    cubic = _mpf_mul(lam, cubic, prec, rnd)
    c_0 = _mpf_add(first, over_720a3(cubic), prec, rnd)
    return ReferenceCoefficients(c_minus2=_make_mpf(c_minus2), c_0=_make_mpf(c_0))


def casimir_pressure(a, lam, field: FieldKind = FieldKind.ELECTROMAGNETIC) -> PressureResult:
    """Pressure on the plates from the subtracted energy at (a, lambda).

    Evaluates only the two reported coefficients, without building the
    expansion: the result equals (k + 3) c_k / a on the eps^0 and
    eps^-2 entries of the built and subtracted expansion, bit for bit.
    """
    return _pressure_from_coefficients(*_reported_coefficients(a, lam, field))
