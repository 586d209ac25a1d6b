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
"""

from __future__ import annotations

from functools import lru_cache

from mpmath import bernoulli, factorial, ldexp, mp, mpf, pi

from .errors import CutoffDomain, InvalidMode
from .params import FieldKind, PlateGeometry
from .precision import to_mpf, value_type

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


def _validate_domain(a, lam) -> tuple[mpf, mpf]:
    # PlateGeometry rejects a zero, negative, NaN or infinite separation;
    # at a = inf, c = pi/2a is 0 and the eps^-4 term c^-1 is undefined.
    a = PlateGeometry(a).a
    lam = to_mpf(lam)
    if not (0 <= lam < 1):
        raise CutoffDomain(f"lambda must lie in [0, 1), got {lam}")
    return a, lam


@lru_cache(maxsize=64)
def _coth_coefficient(n: int, prec: int) -> mpf:
    # beta_n = 2^(2n) B_2n / (2n)!, the u^(2n-1) coefficient of coth u.
    # It depends on nothing else, so one value serves every (a, lambda);
    # prec (which the caller passes as mp.prec) is in the key only so
    # that a value is never reused at another working precision.
    return ldexp(bernoulli(2 * n), 2 * n) / factorial(2 * n)


def _frozen_coth_term(c: mpf, mu: mpf, m: int) -> mpf:
    """Common factor beta_n c^m mu^(m-2) of the frozen-copy coth terms.

    For odd m = 2n - 1, mu = 1 - lambda and the caller's c = pi/2a: the
    k-th eps-derivative of coth((eps - lambda eps') c), taken with eps'
    frozen and then set to eps, is
    sum_n beta_n c^m m (m-1) ... (m-k+1) mu^(m-k) eps^(m-k).  So for
    k = 0, 1, 2 the coefficients of eps^m, eps^(m-1) and eps^(m-2) are
    this factor times mu^2, m mu and m(m-1).
    """
    return _coth_coefficient((m + 1) // 2, mp.prec) * c**m * mu ** (m - 2)


def _odd_coefficient(m: int, c: mpf, mu: mpf, lam: mpf, inv4pi: mpf, field: FieldKind) -> mpf:
    """The eps^(m-3) energy coefficient for odd m, halved for the scalar field.

    beta_n c^m mu^(m-2) [2 mu^2 - 2 m mu + m(m-1)] / 4 pi, with the bracket
    as m(m-1) - 2 mu (lambda + (m - 1)): the m = 1 one, -2 lambda mu, keeps
    its relative accuracy as lambda -> 0 and is exactly zero at lambda = 0.
    Any field but the scalar one counts as electromagnetic here, so the
    callers reject a field that is not a FieldKind.
    """
    bracket = m * (m - 1) - 2 * mu * (lam + (m - 1))
    coeff = _frozen_coth_term(c, mu, m) * bracket * inv4pi
    return coeff / 2 if field is FieldKind.SCALAR else coeff


def _reported_coefficients(
    a, lam, field: FieldKind = FieldKind.ELECTROMAGNETIC
) -> tuple[mpf, mpf, mpf]:
    """The validated a with the eps^-2 and eps^0 energy coefficients.

    These odd m = 1 and 3 coefficients are the two that the outer
    subtraction leaves to report, and it keeps them whole: each equals
    its entry of the built and subtracted window, bit for bit.
    """
    if not isinstance(field, FieldKind):
        raise InvalidMode(f"unknown field kind: {field!r}")
    a, lam = _validate_domain(a, lam)
    c, mu, inv4pi = pi / (2 * a), 1 - lam, 1 / (4 * pi)
    c_minus2, c_0 = (_odd_coefficient(m, c, mu, lam, inv4pi, field) for m in (1, 3))
    return a, c_minus2, c_0


def _pressure_from_coefficients(a: mpf, c_minus2: mpf, c_0: mpf) -> PressureResult:
    """Negative a-gradient of the eps^0 and eps^-2 energy coefficients.

    Each is a pure power c_k a^-(k+3), so -d c_k/da = (k+3) c_k / a.
    """
    finite, divergent = ((k + 3) * c_k / a for k, c_k in ((0, c_0), (-2, c_minus2)))
    return PressureResult(finite_part=finite, divergent_coeff=divergent)


def energy_laurent(
    a,
    lam,
    order: int = DEFAULT_ORDER,
    field: FieldKind = FieldKind.ELECTROMAGNETIC,
) -> EnergyExpansion:
    """Expand the closed-form energy around epsilon = 0, window [-4, order + 1).

    The energy is the frozen-copy second derivative of
    P(eps) * coth((eps - lambda*eps') c) with P = 1/(4 pi eps) and
    c = pi/2a.  P'' K + 2 P' K' + P K'' puts the coth terms of power m
    at eps^(m-3), so with m = k + 3 the eps^k coefficient is
    ``_odd_coefficient`` for odd m and zero for even m, except that the
    scalar field drops the n = 0 half-term the full sum contains, which
    gives its eps^-3 coefficient -1/(4 pi), independent of a.
    """
    # Only the window routes build a series; the CLI's starts read the
    # two reported coefficients and never load the container.
    from .laurent import LaurentSeries

    if not isinstance(field, FieldKind):
        raise InvalidMode(f"unknown field kind: {field!r}")
    a, lam = _validate_domain(a, lam)
    c, mu, inv4pi = pi / (2 * a), 1 - lam, 1 / (4 * pi)
    coeffs = []
    for k in range(-4, order + 1):
        m = k + 3
        if m % 2:
            coeffs.append(_odd_coefficient(m, c, mu, lam, inv4pi, field))
        else:
            coeffs.append(-inv4pi if m == 0 and field is FieldKind.SCALAR else mpf(0))
    return EnergyExpansion(
        series=LaurentSeries(-4, tuple(coeffs)), a=a, lam=lam, field=field
    )


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
    coeffs = tuple(c if k + 3 > 0 else mpf(0) for k, c in e.series.terms())
    return EnergyExpansion(
        series=LaurentSeries(e.series.min_degree, coeffs),
        a=e.a,
        lam=e.lam,
        field=e.field,
        subtracted=True,
    )


def reference_coefficients(a, lam) -> ReferenceCoefficients:
    """Independently coded values of the two surviving coefficients.

    These are transcribed analytic formulas, kept deliberately separate
    from the general-m closed form so the two can check each other: the
    1/epsilon^2 coefficient -lambda/12a and the finite coefficient
    -(1-lambda) pi^2/720a^3 + lambda(lambda^2-1) pi^2/720a^3.
    """
    a, lam = _validate_domain(a, lam)
    c_minus2 = -lam / (12 * a)
    c_0 = -(1 - lam) * pi**2 / (720 * a**3) + lam * (lam**2 - 1) * pi**2 / (720 * a**3)
    return ReferenceCoefficients(c_minus2=c_minus2, c_0=c_0)


def casimir_pressure(
    a, lam, field: FieldKind = FieldKind.ELECTROMAGNETIC
) -> PressureResult:
    """Pressure on the plates from the subtracted energy at (a, lambda).

    Evaluates only the two reported coefficients, without building the
    expansion: the result equals (k + 3) c_k / a on the eps^0 and
    eps^-2 entries of the built and subtracted expansion, bit for bit.
    """
    return _pressure_from_coefficients(*_reported_coefficients(a, lam, field))
