"""Reference derivation of the series coefficients by general series arithmetic.

``casimir_cutoff.expansion`` and ``casimir_cutoff.stress`` write every
energy and electromagnetic-stress coefficient in closed form from the
Bernoulli numbers.  This module rebuilds the same coefficients the long
way, so the tests have an independent derivation to compare against:
truncated Laurent-series arithmetic (sum, product, quotient,
derivative, argument scaling) with pessimistic windows, coth built as
the quotient of the cosh and sinh series rather than from tabulated
coefficients, and the frozen-copy product rule applied series by
series.  ``_scalar_mode_assembly`` rebuilds the scalar stress
coefficients from the mode sums for ``scalar_stress``'s closed forms.
``evaluate`` sums a truncated series at a point, and
``transverse_integral`` is one mode's transverse integral in closed
form, the per-mode reference for the mode sums, and ``propagator_kernel``
is one mode's propagator kernel, the per-mode reference for
``pointwise.generating_function``.  ``reference_mode_sum``
is ``energy_mode_sum`` written with mpf's operators and ``mp.extraprec``
scopes, the form that ``modesum`` runs on raw values; the tests compare
the two bit for bit.  ``reference_unit_splitting``, ``reference_s2_rows``,
``reference_tensor``, ``reference_transform_tensor`` and
``reference_covariance_check`` are the stress layer's tensor algebra in
the same operator form, which ``stress`` and ``minkowski`` run on raw
values, ``reference_check_metric`` is the metric check in that form,
dense and without the exact certificate that ``minkowski`` decides by
first, ``checked_inverse`` is the checked inverse transform
g L^T g, and ``scale`` and ``apply`` are a four-vector times a number
and a transform applied to a four-vector.  ``reference_window`` and
``reference_scalar_coefficients`` are the energy window of
``expansion`` and the scalar coefficients of ``stress`` in operator
form.  Evaluated with extra digits, they give the exact values that
``assert_rounded_once`` holds the closed forms to.

Truncation bookkeeping is pessimistic on purpose.  Every operation
derives the tightest window that is provably correct from its inputs'
windows, so a stored coefficient is always a true coefficient.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable

from mpmath import (
    cos, exp, fabs, factorial, fprod, isnan, ldexp, libmp, mag, mp, mpf, pi, sin, sqrt,
)

from casimir_cutoff.errors import (
    CutoffDomain,
    InvalidMode,
    LightlikeSeparation,
    NonPositiveSeparation,
    NotConverged,
)
from casimir_cutoff.laurent import LaurentSeries, extract_coefficient
from casimir_cutoff.modesum import (
    _AUTO_N_CAP,
    _DRIFT_C,
    _ESTIMATE_LIMIT,
    _default_tol,
    _predict_stop,
    _search_from,
    FieldKind,
    ModeSumResult,
)
from casimir_cutoff.minkowski import (
    _ZERO,
    DIM,
    METRIC_DIAG,
    _validation_tol,
    FourVector,
    LorentzTransform,
    SeparationVector,
    SymTensor4,
)
from casimir_cutoff.pointwise import RadialKernel
from casimir_cutoff.precision import to_mpf
from casimir_cutoff.stress import _H_DIAG, _S1_DIAG, _stress_for


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
    """Single-term series value * eps**power.

    The default window holds just that power; pass a larger
    ``truncation_order`` to assert that the higher coefficients are
    exactly zero.
    """
    hi = power + 1 if truncation_order is None else truncation_order
    if hi <= power:
        raise ValueError("truncation order cuts off the term")
    return LaurentSeries(power, (value,) + (0,) * (hi - power - 1))


def evaluate(x: LaurentSeries, eps) -> mpf:
    """Numeric value of the truncated series at the given point."""
    e = to_mpf(eps)
    return sum((c * e**p for p, c in x.terms()), mpf(0))


def transverse_integral(m, epsilon) -> mpf:
    """Closed form of the transverse-momentum integral at fixed mass m.

    Integrating omega * exp(-epsilon*omega) over the transverse plane
    with omega = sqrt(k^2 + m^2) gives
    (1/2pi) e^{-epsilon m} (m^2/epsilon + 2m/epsilon^2 + 2/epsilon^3).
    """
    m = to_mpf(m)
    eps = to_mpf(epsilon)
    if eps <= 0:
        raise CutoffDomain(f"epsilon must be positive, got {eps}")
    if m < 0:
        raise ValueError(f"mass must be non-negative, got {m}")
    return exp(-eps * m) * (m * m / eps + 2 * m / eps**2 + 2 / eps**3) / (2 * pi)


def propagator_kernel(m, s) -> RadialKernel:
    """Reduced propagator of a mass-m mode at spacelike separation s.

    D_m(s) = exp(-s m) / (4 pi s), with analytic derivatives.  Away
    from the origin it solves the radial field equation
    -(D'' + (2/s) D') + m^2 D = 0 exactly, which the derivative
    formulas below preserve term by term.
    """
    m = to_mpf(m)
    s = to_mpf(s)
    if s <= 0:
        raise NonPositiveSeparation(f"separation must be positive, got {s}")
    if m < 0:
        raise ValueError(f"mass must be non-negative, got {m}")
    exp_factor = exp(-s * m) / (4 * pi)
    return RadialKernel(
        s=s,
        value=exp_factor / s,
        first=-exp_factor * (1 / s**2 + m / s),
        second=exp_factor * (2 / s**3 + 2 * m / s**2 + m * m / s),
    )


def _coeff(x: LaurentSeries, power: int) -> mpf:
    # Internal read: powers below the window are structurally zero.
    k = power - x.min_degree
    return x.coeffs[k] if 0 <= k < len(x.coeffs) else mpf(0)


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
        raise ValueError("every retained coefficient of the divisor is zero")
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
        raise ValueError("argument scale must be nonzero")
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
    (order, working precision), so energy_series and em_coefficients
    build them once per precision rather than once per call.
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


def _em_radial_series(a, lam, order: int = 4) -> tuple[LaurentSeries, LaurentSeries]:
    """Subtracted frozen-copy kernel derivatives as series in s.

    Returns (g1, g2): the small-s expansions of the first and second
    frozen-s' derivatives of (generating_function - bulk_kernel), with
    s' set equal to s after differentiation.  g1 contains only odd
    powers, g2 only even ones; the bulk subtraction cancels the leading
    1/s^3 and 1/s^4 terms exactly.
    """
    a = to_mpf(a)
    lam = to_mpf(lam)
    # The energy expansion's kernel with P = 1/(4 pi a s): f2 is the
    # electromagnetic energy series divided by a, f1 the first derivative.
    c = pi / (2 * a)
    pref = 1 / (4 * pi * a)
    k0, k1, f2 = _frozen_coth_expansion(c, lam, order, pref)
    f1 = series_add(shift_scale(k0, -pref, -2), shift_scale(k1, pref * c, -1))
    one_m = 1 - lam
    g1 = series_sub(
        f1,
        monomial(
            -(1 / one_m + 1 / one_m**2) / (2 * pi**2),
            -3,
            truncation_order=f1.truncation_order,
        ),
    )
    g2 = series_sub(
        f2,
        monomial(
            (1 / one_m + 1 / one_m**2 + 1 / one_m**3) / pi**2,
            -4,
            truncation_order=f2.truncation_order,
        ),
    )
    return g1, g2


def _project_structures(
    g1: LaurentSeries, g2: LaurentSeries
) -> tuple[LaurentSeries, LaurentSeries]:
    # The derivative structure applied to a radial kernel decomposes
    # exactly as A(s) S1 + B(s) S2 with
    #   A(s) = -(4/3) (g2 + 2 g1 / s),   B(s) = (g2 - g1 / s) / 3.
    a_series = shift_scale(series_add(g2, shift_scale(g1, 2, -1)), -mpf(4) / 3, 0)
    b_series = shift_scale(series_sub(g2, shift_scale(g1, 1, -1)), mpf(1) / 3, 0)
    return a_series, b_series


def _scalar_mode_assembly(a, lam, z, order: int = 6) -> tuple[mpf, mpf, mpf]:
    """Scalar coefficients rebuilt from the mode sums.

    Starting from the improved (traceless) scalar stress form, the mode
    sums collapse into two kernels in the variable tau = (1 - lambda)
    (pi/a) s: a z-independent smooth sum, which gets the continuum
    (bulk) subtraction and becomes 1/(e^tau - 1) - 1/tau, and a
    z-dependent cosine sum that resums to a rational function of
    q = e^{-tau} and is kept whole - only smooth sums acquire the
    subtraction.  The difference of the two is odd in tau, which is why
    the resulting B series carries only even powers of s.
    """
    trunc = order + 6
    c1 = pi / a
    karg = (1 - lam) * c1
    theta = 2 * pi * z / a

    expm1 = LaurentSeries(1, tuple(1 / factorial(j) for j in range(1, trunc)))
    smooth = series_sub(
        series_div(monomial(1, 0, truncation_order=trunc), expm1),
        monomial(1, -1, truncation_order=trunc - 2),
    )

    q = LaurentSeries(0, tuple((-1) ** j / factorial(j) for j in range(trunc)))
    cth = cos(theta)
    qsq = series_mul(q, q)
    numer = series_sub(shift_scale(q, cth, 0), qsq)
    denom = series_add(
        series_sub(monomial(1, 0, truncation_order=trunc), shift_scale(q, 2 * cth, 0)),
        qsq,
    )
    cosine = series_div(numer, denom)

    dw = series_sub(smooth, cosine)
    dw1 = series_differentiate(dw)
    dw2 = series_differentiate(dw1)
    b_series = shift_scale(
        series_add(
            series_add(
                shift_scale(series_scale_arg(dw, karg), 3, -3),
                shift_scale(series_scale_arg(dw1, karg), -3 * c1, -2),
            ),
            shift_scale(series_scale_arg(dw2, karg), c1 * c1, -1),
        ),
        1 / (12 * pi * a),
        0,
    )

    smooth2 = series_differentiate(series_differentiate(smooth))
    phi2 = shift_scale(
        series_scale_arg(smooth2, karg), c1 * c1 / (2 * pi * a), -1
    )
    a_coeff = -mpf(2) / 3 * extract_coefficient(phi2, 0)
    return (
        a_coeff,
        extract_coefficient(b_series, -2),
        extract_coefficient(b_series, 0),
    )


def energy_series(
    a, lam, order: int = 4, field: FieldKind = FieldKind.ELECTROMAGNETIC
) -> LaurentSeries:
    """The energy's Laurent series, window [-4, order + 1), by series arithmetic."""
    a = to_mpf(a)
    lam = to_mpf(lam)
    inv4pi = 1 / (4 * pi)
    _, _, series = _frozen_coth_expansion(pi / (2 * a), lam, order, inv4pi)
    if field is FieldKind.SCALAR:
        series = series_sub(
            shift_scale(series, mpf(1) / 2, 0),
            monomial(inv4pi, -3, truncation_order=series.truncation_order),
        )
    return series


def em_coefficients(a, lam) -> tuple[mpf, mpf, mpf]:
    """(A, B_finite, B_divergent_eps2) of the electromagnetic stress, by series arithmetic."""
    g1, g2 = _em_radial_series(a, lam)
    a_series, b_series = _project_structures(g1, g2)
    return (
        extract_coefficient(a_series, 0),
        extract_coefficient(b_series, 0),
        extract_coefficient(b_series, -2),
    )


def reference_window(a: mpf, lam: mpf, order: int, field: FieldKind) -> tuple[mpf, ...]:
    """``energy_laurent``'s window [-4, order + 1), with mpf's operators.

    The eps^(m-3) coefficient for odd m is beta_n c^m mu^(m-2)
    [m(m-1) - 2 mu (lambda + m - 1)] / 4 pi with c = pi/2a, mu = 1 - lambda
    and beta_n = 2^(2n) B_2n / (2n)! from the exact Bernoulli fraction;
    the scalar field halves it and has the eps^-3 pole -1/(4 pi).
    """
    c, mu, inv4pi = pi / (2 * a), 1 - lam, 1 / (4 * pi)
    coeffs = []
    for m in range(-1, order + 4):
        if m % 2:
            p, q = libmp.bernfrac(m + 1)
            beta = mpf(p) * 2 ** (m + 1) / (q * factorial(m + 1))
            bracket = m * (m - 1) - 2 * mu * (lam + (m - 1))
            coeff = beta * c**m * mu ** (m - 2) * bracket * inv4pi
            coeffs.append(coeff / 2 if field is FieldKind.SCALAR else coeff)
        else:
            coeffs.append(-inv4pi if m == 0 and field is FieldKind.SCALAR else mpf(0))
    return tuple(coeffs)


def assert_rounded_once(x: mpf, exact: mpf, what=None) -> None:
    """Assert that x is ``exact`` rounded to nearest at mp.prec, bit for bit.

    ``exact`` carries many more bits than mp.prec.  Where it lies within
    2^-16 ulp of a rounding midpoint, x may be either neighbour: that is
    the bound of a value rounded once from within 2^-16 ulp of it.
    """
    if x._mpf_ == libmp.mpf_pos(exact._mpf_, mp.prec, "n"):
        return
    assert exact != 0, (what, x)
    _, _, exp, bc = exact._mpf_
    ulp = mpf(2) ** (exp + bc - mp.prec)
    err = mp.make_mpf(libmp.mpf_abs(libmp.mpf_sub(x._mpf_, exact._mpf_)))
    assert err <= (mpf(1) / 2 + mpf(2) ** -16) * ulp, (what, x, exact, err / ulp)


def reference_scalar_coefficients(a: mpf, lam: mpf, z: mpf) -> tuple[mpf, mpf, mpf]:
    """``scalar_stress``'s (A, B_finite, B_divergent_eps2) at a height z inside the gap."""
    sz = sin(pi * z / a)
    pi2, a4, lam48, sz2 = pi**2, a**4, lam / 48, sz**2
    return (
        (1 - lam) * pi2 / (360 * a4),
        lam48 * (pi2 / (4 * a4)) * (1 - lam**2) * ((3 - 2 * sz2) / sz**4 - mpf(1) / 15),
        lam48 * (3 / sz2 - 1) / a**2,
    )


def _operator_tower(geom, cutoff, weight: mpf):
    """x = log q, q and (A, B, C) of the mode sum, in mpf operator form."""
    eps = cutoff.epsilon
    with mp.extraprec(20 + max(0, mag(eps) - mag(geom.a) + 4)):
        x = (cutoff.lam - 1) * eps * pi / geom.a
        q = exp(x)
        k = pi / geom.a
        f = weight / (2 * pi * eps)
        parts = (x, q, f * k * k, 2 * f * k / eps, 2 * f / eps**2)
    return tuple(+v for v in parts)


def _operator_partial_sums(q: mpf, A: mpf, B: mpf, C: mpf, head: mpf):
    """r and n -> (S_n, T_n) for q < 1, in mpf operator form."""
    r_prec = 1 / (1 - q)
    g = 32 + 3 * mag(r_prec)
    with mp.extraprec(g):
        r = 1 / (1 - q)
        qr, a1 = q * r, A * (1 + q) * r
        U = head + qr * ((a1 + B) * r + C)

    def at(n: int) -> tuple[mpf, mpf]:
        N = n + 1
        with mp.extraprec(g):
            qN, an = q**N, A * N
            p = (an + B) * N + C
            T = qN * r * (p + qr * (an + an + B + a1))
            S = U - T
        return +S, +T

    return r_prec, at


def reference_mode_sum(
    geom, cutoff, field=FieldKind.ELECTROMAGNETIC, n_max=None, tol=None
) -> ModeSumResult:
    """``energy_mode_sum`` with every step written with mpf's operators.

    The same operations in the same order at the same precisions as the
    raw-value kernel of ``modesum``, and the same decisions (the float
    estimate, the search and the error messages, taken from
    ``modesum``), so each result and each error should agree bit for
    bit.  The guard bits follow the same two rules, read from the
    exponents of epsilon, a and the rounded r = 1 / (1 - q), and the
    whole sum is formed only with those guard bits.  The stopping index
    is always found by the two-probe exact search from the float start,
    without the float certificate that lets ``energy_mode_sum`` skip the
    probe below it, so the two agree only where that certificate is
    right.  Takes only arguments that ``energy_mode_sum`` accepts.
    """
    rel_tol = _default_tol(mp.dps, mp.prec) if tol is None else to_mpf(tol)
    weight = mpf(1) if field is FieldKind.ELECTROMAGNETIC else mpf(1) / 2

    x, q, A, B, C = _operator_tower(geom, cutoff, weight)
    head = C / 2 if field is FieldKind.ELECTROMAGNETIC else mpf(0)
    u = ldexp(mpf(1), -mp.prec)
    q_up = q * (1 + 8 * u)
    if q_up >= 1:
        raise NotConverged(f"mode terms do not decay at {mp.prec}-bit precision")

    def drift_per_unit(n: int) -> mpf:
        return _DRIFT_C * (n + 2) * u

    r, partial = _operator_partial_sums(q, A, B, C, head)
    tail_unit = u * r * (3 * _DRIFT_C)
    checked = {}

    def bounded(n: int) -> tuple[mpf, mpf]:
        if n not in checked:
            s, t = partial(n)
            checked[n] = s, t + (drift_per_unit(n) * (s + t) + tail_unit * t)
        return checked[n]

    def meets(n: int) -> bool:
        s, bound = bounded(n)
        return bound <= rel_tol * s

    if n_max is None:
        head_, A_, B_, C_, r_, tol_ = (v._mpf_ for v in (head, A, B, C, r, rel_tol))
        predicted, start, _ = _predict_stop(float(x), head_, A_, B_, C_, r_, tol_, mp.prec)
        if predicted > _AUTO_N_CAP:
            index = predicted if predicted < _ESTIMATE_LIMIT else "beyond the float search's limit of 2^62"
            raise NotConverged(
                f"predicted stopping index {index} for relative tolerance "
                f"{mp.nstr(rel_tol, 3)} exceeds the cap of {_AUTO_N_CAP} modes"
            )
        if drift_per_unit(predicted) >= rel_tol:
            raise NotConverged(
                f"relative tolerance {mp.nstr(rel_tol, 3)} is below the rounding "
                f"drift {mp.nstr(drift_per_unit(predicted), 3)} of {mp.prec}-bit "
                f"arithmetic at the predicted stopping index {predicted}"
            )
        n_max = _search_from(meets, start)
        if n_max > _AUTO_N_CAP:
            raise NotConverged(
                f"remainder bound not below {rel_tol} within {_AUTO_N_CAP} modes"
            )
    elif tol is not None and not meets(n_max):
        raise NotConverged(
            f"remainder bound {bounded(n_max)[1]} exceeds tolerance at n_max = {n_max}"
        )
    return ModeSumResult(*bounded(n_max), n_max)


# The stress layer's tensor algebra with mpf's operators, as ``stress`` and
# ``minkowski`` wrote it before those steps ran on raw values.  The bodies
# are the operator forms of that code; the one product-sum kernel they
# called is spelled out as ``_operator_dot``, so nothing here runs the raw
# kernel it is compared with.


def _operator_dot(pairs) -> mpf:
    """The sum from mpf(0), left to right, of each product without an exact-zero factor."""
    return sum((a * b for a, b in pairs if a and b), mpf(0))


def _operator_mink_dot(u: FourVector, v: FourVector) -> mpf:
    ut, ux, uy, uz = u
    vt, vx, vy, vz = v
    return _operator_dot(((-ut, vt), (ux, vx), (uy, vy), (uz, vz)))


def _operator_mat_mul(a, b):
    cols = tuple(zip(*b))
    return tuple(tuple(_operator_dot(zip(row, col)) for col in cols) for row in a)


def scale(v: FourVector, factor) -> FourVector:
    """c v, with an exact zero wherever c or the component is one."""
    c = to_mpf(factor)
    return FourVector(*(c * e if c and e else _ZERO for e in v))


def apply(transform: LorentzTransform, v: FourVector) -> FourVector:
    """L v, each row's sum as ``_operator_dot`` forms it."""
    return FourVector(*(_operator_dot(zip(row, v)) for row in transform.matrix))


def _operator_inverse_rows(m):
    """g m^T g by unary minus: the operator form of ``minkowski._inverse_rows``."""
    t, *spatial = zip(*m)  # the columns of m
    return ((t[0],) + tuple(-e for e in t[1:]),) + tuple((-c[0],) + c[1:] for c in spatial)


def checked_inverse(transform: LorentzTransform) -> LorentzTransform:
    """The inverse g L^T g, its entries exact sign flips of L's, metric-checked."""
    return LorentzTransform(_operator_inverse_rows(transform.matrix))


def reference_check_metric(m, factors=()) -> None:
    """``minkowski._check_metric`` in operator form, on mpf matrices, dense.

    The whole of m^T (g m) is formed, each entry by ``_operator_dot`` in
    order of k, and every one of its 16 defects meets both tests: the
    tolerance, then the tolerance scaled by max(1, max |m|)^2 and by the
    product of max(1, max |f|) over the factors.  No exact certificate
    runs, so this is the form the certified check must agree with.
    """
    gm = [[-e if k == 0 else e for e in row] for k, row in enumerate(m)]
    p = _operator_mat_mul(tuple(zip(*m)), gm)
    defects = [fabs(p[i][j] - METRIC_DIAG[i] if i == j else p[i][j])
               for i in range(DIM) for j in range(DIM)]
    tol = _validation_tol(mp.dps, mp.prec)
    if all(d <= tol for d in defects):
        return

    def largest(rows):
        return max(fabs(e) for row in rows for e in row)

    bound = tol * max(max(1, largest(m)) ** 2, fprod(max(1, largest(f)) for f in factors))
    if not all(d < bound for d in defects):
        worst = next((d for d in defects if isnan(d)), max(defects))
        raise ValueError(f"matrix does not preserve the metric: defect {mp.nstr(worst, 8)}")


def reference_s2_rows(direction: SeparationVector) -> tuple[tuple[mpf, ...], ...]:
    """S2 = g - 3 eps eps / eps^2 - zhat zhat, upper triangle mirrored."""
    v = direction.vector
    s2 = _operator_mink_dot(v, v)
    rows = [[_ZERO] * DIM for _ in range(DIM)]
    for i, (h, c) in enumerate(zip(_H_DIAG, v)):
        if not c:
            rows[i][i] = h
            continue
        w = 3 * c / s2
        rows[i][i] = h - w * c
        for j in range(i + 1, DIM):
            if v[j]:
                rows[i][j] = rows[j][i] = -(w * v[j])
    return tuple(map(tuple, rows))


def reference_tensor(d) -> SymTensor4:
    """``StressDecomposition.tensor``: A * S1 + (B_div / s^2 + B_fin) * S2."""
    a, b_fin, b_div, direction, s = d
    b = b_div / s**2 + b_fin if b_div else b_fin
    rows = [[_ZERO] * DIM for _ in range(DIM)]
    for i, s2 in enumerate(reference_s2_rows(direction)):
        rows[i][i] = _operator_dot(((a, _S1_DIAG[i]), (b, s2[i])))
        for j in range(i + 1, DIM):
            if b and s2[j]:
                rows[i][j] = rows[j][i] = b * s2[j]
    return SymTensor4(rows)


def reference_unit_splitting(v: FourVector) -> tuple[SeparationVector, mpf]:
    """The splitting as (unit direction, invariant length s), margin-checked, then z-checked."""
    t, x, y, z = v
    s2 = _operator_mink_dot(v, v)
    if not s2 > ldexp(_operator_dot(((t, t), (x, x), (y, y))), -(mp.prec // 2)):
        raise LightlikeSeparation(f"squared splitting length {s2} is not safely spacelike")
    if z:
        raise InvalidMode("splitting vector must lie in the t-x-y subspace (z component 0)")
    s = sqrt(s2)
    return tuple.__new__(SeparationVector, (scale(v, 1 / s),)), s


def reference_transform_tensor(transform: LorentzTransform, tensor: SymTensor4) -> SymTensor4:
    """T'^{mu nu} = L^mu_a L^nu_b T^{ab} as P = L T, then the upper triangle of P L^T."""
    m = transform.matrix
    out = [[None] * DIM for _ in range(DIM)]
    for i, p_row in enumerate(_operator_mat_mul(m, tensor.matrix)):
        for j in range(i, DIM):
            out[i][j] = out[j][i] = _operator_dot(zip(p_row, m[j]))
    return SymTensor4(out)


def reference_covariance_check(field, geom, cutoff, eps, transform, z=None) -> mpf:
    """``covariance_check`` on the reference splitting, tensor and push-forward.

    The coefficients come from ``_stress_for``, which this form does not
    replace; the splitting is taken apart again by the reference.
    """
    d = _stress_for(field, geom.a, cutoff.lam, eps, z)
    unit, s = reference_unit_splitting(eps.vector)
    d = d._replace(direction=unit, separation_length=s)
    direct = reference_tensor(d)
    back = FourVector(
        *(_operator_dot(zip(row, eps.vector)) for row in _operator_inverse_rows(transform.matrix))
    )
    unit, s = reference_unit_splitting(back)
    moved = reference_transform_tensor(
        transform, reference_tensor(d._replace(direction=unit, separation_length=s))
    )
    m, t = moved.matrix, direct.matrix
    return max(abs(m[i][j] - t[i][j]) for i in range(DIM) for j in range(i, DIM))
