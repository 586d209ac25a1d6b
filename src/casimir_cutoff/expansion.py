"""Small-cutoff expansion of the plate energy and the Casimir pressure.

The closed-form energy is expanded symbolically around epsilon = 0 with
the Laurent engine: the coth factor becomes a series in its argument,
the frozen-copy second derivative turns into three terms by the product
rule, and monomial prefactors shift the window.  Coefficients come out
numeric for given (a, lambda).

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

from dataclasses import dataclass
from functools import lru_cache

from mpmath import mp, mpf, pi

from .errors import CutoffDomain, NonPositiveSeparation
from .laurent import (
    LaurentSeries,
    extract_coefficient,
    monomial,
    series_add,
    series_coth,
    series_differentiate,
    series_scale_arg,
    series_sub,
    shift_scale,
)
from .modesum import FieldKind
from .precision import to_mpf

# Window eps^-4 .. eps^4: the physics needs eps^-4 .. eps^0 and two
# even guard orders above that detect assembly drift.
DEFAULT_ORDER = 4


@dataclass(frozen=True, eq=False)
class EnergyExpansion:
    """Laurent expansion of the plate energy at fixed (a, lambda).

    On a subtracted expansion the epsilon^k coefficient is the pure
    power c_k a^-(k+3), so differentiating in a needs nothing beyond
    the series itself.
    """

    series: LaurentSeries
    a: mpf
    lam: mpf
    field: FieldKind
    subtracted: bool = False


@dataclass(frozen=True)
class ReferenceCoefficients:
    """Directly coded analytic values of the two physical coefficients."""

    c_minus2: mpf
    c_0: mpf


@dataclass(frozen=True)
class PressureResult:
    """Negative a-gradient of the subtracted energy, split by character.

    ``finite_part`` is the cutoff-independent pressure (negative means
    attraction).  ``divergent_coeff`` multiplies 1/epsilon^2 and
    survives regularization whenever lambda is nonzero; it is reported
    as metadata and must never be added to the finite part.
    """

    finite_part: mpf
    divergent_coeff: mpf


def _validate_domain(a, lam) -> tuple[mpf, mpf]:
    a = to_mpf(a)
    lam = to_mpf(lam)
    if not a > 0:
        raise NonPositiveSeparation(f"plate separation must be positive, got {a}")
    if not (0 <= lam < 1):
        raise CutoffDomain(f"lambda must lie in [0, 1), got {lam}")
    return a, lam


@lru_cache(maxsize=16)
def _coth_tower(
    truncation: int, prec: int
) -> tuple[LaurentSeries, LaurentSeries, LaurentSeries]:
    # coth, coth' and coth'' around zero from series_coth(truncation).
    # They depend on nothing else, so one build serves every (a, lambda);
    # prec (which the caller passes as mp.prec) is in the key only so
    # that a tower is never reused at another working precision.
    base = series_coth(truncation)
    d1 = series_differentiate(base)
    return base, d1, series_differentiate(d1)


def _frozen_coth_expansion(
    c: mpf, lam: mpf, order: int, pref: mpf
) -> tuple[LaurentSeries, LaurentSeries, LaurentSeries]:
    """Frozen-copy second derivative of P(eps) coth((eps - lambda eps') c).

    P = pref / eps, and the caller passes c = pi/2a.  The product rule
    leaves derivatives acting on the eps in the coth argument, each
    contributing a factor c; setting eps' = eps afterwards collapses
    every coth derivative to argument (1 - lambda) c eps.  Returns
    (k0, k1, f2): the scaled coth and coth' series and the second
    derivative itself, all built from one coth series truncated at
    order + 4.  That series and its two derivatives are cached per
    (order, working precision), so energy_laurent and em_stress build
    them once per precision rather than once per call.
    """
    scale = (1 - lam) * c
    base, d1, d2 = _coth_tower(order + 4, mp.prec)
    k0 = series_scale_arg(base, scale)
    k1 = series_scale_arg(d1, scale)
    k2 = series_scale_arg(d2, scale)
    # P' = -pref eps^-2 and P'' = 2 pref eps^-3.
    f2 = series_add(
        series_add(shift_scale(k0, 2 * pref, -3), shift_scale(k1, -2 * pref * c, -2)),
        shift_scale(k2, pref * c * c, -1),
    )
    return k0, k1, f2


def energy_laurent(
    a,
    lam,
    order: int = DEFAULT_ORDER,
    field: FieldKind = FieldKind.ELECTROMAGNETIC,
) -> EnergyExpansion:
    """Expand the closed-form energy around epsilon = 0.

    The energy is the frozen-copy second derivative of
    P(eps) * coth((eps - lambda*eps') c) with P = 1/(4 pi eps) and
    c = pi/2a.
    """
    a, lam = _validate_domain(a, lam)
    inv4pi = 1 / (4 * pi)
    _, _, series = _frozen_coth_expansion(pi / (2 * a), lam, order, inv4pi)
    if field is FieldKind.SCALAR:
        # Half of every mode term, minus the n = 0 half the full sum
        # contains: a pure 1/(4 pi eps^3) monomial, independent of a.
        series = series_sub(
            shift_scale(series, mpf(1) / 2, 0),
            monomial(inv4pi, -3, truncation_order=series.truncation_order),
        )
    return EnergyExpansion(series=series, a=a, lam=lam, field=field)


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
    from the Laurent engine so the two can check each other: the
    1/epsilon^2 coefficient -lambda/12a and the finite coefficient
    -(1-lambda) pi^2/720a^3 + lambda(lambda^2-1) pi^2/720a^3.
    """
    a, lam = _validate_domain(a, lam)
    c_minus2 = -lam / (12 * a)
    c_0 = -(1 - lam) * pi**2 / (720 * a**3) + lam * (lam**2 - 1) * pi**2 / (720 * a**3)
    return ReferenceCoefficients(c_minus2=c_minus2, c_0=c_0)


def pressure_from_energy(sub: EnergyExpansion) -> PressureResult:
    """Pressure on the plates from an already subtracted energy.

    Negates the a-gradient of each kept coefficient: c_k is a pure power
    a^-(k+3), so -d c_k/da = (k+3) c_k / a.  Only k = 0 (finite) and
    k = -2 (the 1/epsilon^2 coefficient) are reported.
    """
    if not sub.subtracted:
        raise ValueError("pressure needs a subtracted expansion")

    def neg_gradient(power: int) -> mpf:
        return (power + 3) * extract_coefficient(sub.series, power) / sub.a

    return PressureResult(
        finite_part=neg_gradient(0), divergent_coeff=neg_gradient(-2)
    )


def casimir_pressure(
    a, lam, field: FieldKind = FieldKind.ELECTROMAGNETIC
) -> PressureResult:
    """Pressure on the plates from the subtracted energy at (a, lambda).

    Builds and subtracts the expansion once, then differentiates it in
    a with ``pressure_from_energy``.  The scalar field halves both
    outputs, because its expansion is half the electromagnetic one up
    to an a-independent monomial the subtraction discards.
    """
    return pressure_from_energy(
        subtract_outer(energy_laurent(a, lam, DEFAULT_ORDER, field))
    )
