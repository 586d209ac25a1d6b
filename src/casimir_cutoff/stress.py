"""Point-split vacuum stress tensors between the plates.

The stress is defined by splitting the two field operators a small
spacelike distance apart along a direction in the (t, x, y) subspace
(the plates break z only), differentiating a summed propagator kernel
with respect to the splitting vector, and subtracting the infinite-
separation kernel before the limit.  Everything is real: the phases of
the underlying time-ordered construction fold into one positive
normalization, anchored so that the lambda = 0 electromagnetic result
reproduces the classic parallel-plate values.

What survives the subtraction is a linear combination of two traceless
structures: S1 = g/4 - zhat zhat, whose coefficient A is a pure number
over a^4, and S2 = g - 3 eps eps / eps^2 - zhat zhat, whose coefficient
keeps a 1/eps^2 divergence proportional to the regulator shape
parameter lambda.  The divergence is the point of the exercise and is
reported as a separate coefficient, never hidden.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from mpmath import cos, coth, csch, exp, factorial, ldexp, mp, mpf, pi, sin, sqrt

from .errors import (
    CothPole,
    CutoffDomain,
    LightlikeSeparation,
    NonPositiveSeparation,
    WallContact,
)
from .expansion import _frozen_coth_expansion
from .laurent import (
    LaurentSeries,
    extract_coefficient,
    from_terms,
    monomial,
    series_add,
    series_differentiate,
    series_div,
    series_exp,
    series_mul,
    series_scale_arg,
    series_sub,
    shift_scale,
)
from .minkowski import (
    DIM,
    LorentzTransform,
    SeparationVector,
    SymTensor4,
    mink_dot,
    transform_tensor,
)
from .modesum import CutoffParams, FieldKind, PlateGeometry
from .precision import to_mpf

# Metric restricted to the (t, x, y) subspace the splitting lives in.
_H_DIAG = (mpf(-1), mpf(1), mpf(1), mpf(0))

# Diagonal of S1 = g/4 - zhat zhat; dyadic, so exact at any precision.
_S1_DIAG = (-mpf(1) / 4, mpf(1) / 4, mpf(1) / 4, -mpf(3) / 4)


def _split_tol() -> mpf:
    # Relative tolerance for the splitting: s^2 is formed by cancellation
    # with a rounding error of a few ulps of t^2 + x^2 + y^2, so asking
    # s^2 to exceed 2^(-prec/2) of that sum keeps at least half of the
    # working bits in s^2, and hence in s, whatever the vector's size.
    return ldexp(mpf(1), -(mp.prec // 2))


@dataclass(frozen=True)
class RadialKernel:
    """Value and first two radial derivatives of a kernel at separation s."""

    s: mpf
    value: mpf
    first: mpf
    second: mpf


@dataclass(frozen=True)
class StressDecomposition:
    """Subtracted stress in the two-structure form.

    The assembled tensor is A * S1 + (B_divergent_eps2 / s^2 +
    B_finite) * S2 with s the invariant splitting length.  A and the B
    coefficients depend only on (a, lambda) - and, for the scalar
    field, on z - never on the splitting direction; the direction
    enters only through the S2 structure itself.
    """

    A: mpf
    B_finite: mpf
    B_divergent_eps2: mpf
    direction: SeparationVector
    separation_length: mpf

    def tensor(self) -> SymTensor4:
        """Assemble the full symmetric traceless tensor at this splitting.

        One pass of A * S1_ij + b * S2_ij: the same products and sums as
        scaling the two structures and adding them, without the
        intermediate tensors.  S1 is diagonal, so off the diagonal only
        the S2 term is left.
        """
        b_total = self.B_divergent_eps2 / self.separation_length**2 + self.B_finite
        s2 = _s2_rows(self.direction)
        return SymTensor4(
            tuple(
                tuple(
                    self.A * _S1_DIAG[i] + b_total * s2[i][j] if i == j
                    else b_total * s2[i][j]
                    for j in range(DIM)
                )
                for i in range(DIM)
            )
        )


def s1_structure() -> SymTensor4:
    """Traceless structure g/4 - zhat zhat."""
    return SymTensor4.diagonal(*_S1_DIAG)


def _s2_rows(direction: SeparationVector) -> tuple[tuple[mpf, ...], ...]:
    # S2 = g - 3 eps eps / eps^2 - zhat zhat, the same for any spacelike
    # vector along the ray.
    v = direction.vector
    s2 = mink_dot(v, v)
    comps = v.components()
    return tuple(
        tuple(
            (_H_DIAG[i] if i == j else mpf(0)) - 3 * comps[i] * comps[j] / s2
            for j in range(DIM)
        )
        for i in range(DIM)
    )


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


def generating_function(s, s_frozen, lam, a) -> RadialKernel:
    """Summed propagator kernel F = coth[(s - lambda s') pi/2a] / (4 pi a s).

    Summing the mass-(n pi/a) kernels over n with the regulator weight
    exp(lambda s' n pi / a) produces a geometric series that closes to
    this coth form.  Derivatives are taken in s only; the primed copy
    s' is frozen during differentiation and identified with s by the
    caller afterwards.
    """
    s = to_mpf(s)
    s_frozen = to_mpf(s_frozen)
    lam = to_mpf(lam)
    a = to_mpf(a)
    if s <= 0:
        raise NonPositiveSeparation(f"separation must be positive, got {s}")
    if a <= 0:
        raise NonPositiveSeparation(f"plate separation must be positive, got {a}")
    if lam >= 1:
        raise CutoffDomain(f"lambda must be below 1, got {lam}")
    arg = s - lam * s_frozen
    if arg <= 0:
        raise CothPole(f"coth argument must be positive, got {arg}")
    c = pi / (2 * a)
    u = arg * c
    ch = coth(u)
    csq = csch(u) ** 2
    pref = 1 / (4 * pi * a)
    return RadialKernel(
        s=s,
        value=pref * ch / s,
        first=pref * (-ch / s**2 - c * csq / s),
        second=pref * (2 * ch / s**3 + 2 * c * csq / s**2 + 2 * c**2 * csq * ch / s),
    )


def bulk_kernel(s, s_frozen, lam) -> RadialKernel:
    """Infinite-plate-separation limit of the generating function.

    coth(x) approaches 1/x for small x, so at a -> infinity the kernel
    becomes 1/(2 pi^2 s (s - lambda s')).  Subtracting this before the
    coincidence limit removes the free-space divergence.
    """
    s = to_mpf(s)
    s_frozen = to_mpf(s_frozen)
    lam = to_mpf(lam)
    if s <= 0:
        raise NonPositiveSeparation(f"separation must be positive, got {s}")
    w = s - lam * s_frozen
    if w <= 0:
        raise CothPole(f"subtracted-kernel argument must be positive, got {w}")
    pref = 1 / (2 * pi**2)
    return RadialKernel(
        s=s,
        value=pref / (s * w),
        first=pref * (-1 / (s**2 * w) - 1 / (s * w**2)),
        second=pref * (2 / (s**3 * w) + 2 / (s**2 * w**2) + 2 / (s * w**3)),
    )


def _check_subspace(eps: SeparationVector) -> mpf:
    # Returns the invariant length after checking the splitting is a
    # genuinely spacelike (t, x, y) vector: s^2 must be a safe fraction
    # of t^2 + x^2 + y^2, so the bound scales with the vector.
    v = eps.vector
    if v.z != 0:
        raise ValueError("splitting vector must lie in the t-x-y subspace (z component 0)")
    s2 = mink_dot(v, v)
    if s2 <= _split_tol() * (v.t * v.t + v.x * v.x + v.y * v.y):
        raise LightlikeSeparation(f"squared splitting length {s2} is not safely spacelike")
    return sqrt(s2)


def _unit_splitting(eps: SeparationVector) -> tuple[SeparationVector, mpf]:
    # The checked splitting as (unit direction, invariant length).
    s = _check_subspace(eps)
    return SeparationVector(eps.vector.scale(1 / s)), s


def second_derivative_tensor(kernel: RadialKernel, eps: SeparationVector) -> SymTensor4:
    """Hessian of a radial function with respect to the splitting vector.

    For f depending on the splitting only through s = sqrt(eps . eps),
    the chain rule gives
    d^2 f / d eps_mu d eps_nu =
        f'' eps^mu eps^nu / s^2 + f' (h^{mu nu}/s - eps^mu eps^nu/s^3)
    with h the (t, x, y) subspace metric.  Contracting with h recovers
    the radial operator f'' + (2/s) f'.
    """
    s = _check_subspace(eps)
    if abs(kernel.s - s) > _split_tol() * s:
        raise ValueError(
            f"kernel evaluated at s = {kernel.s} but splitting has length {s}"
        )
    comps = eps.vector.components()
    s2 = s * s
    rows = []
    for i in range(DIM):
        row = []
        for j in range(DIM):
            h = _H_DIAG[i] if i == j else mpf(0)
            row.append(
                kernel.second * comps[i] * comps[j] / s2
                + kernel.first * (h / s - comps[i] * comps[j] / (s2 * s))
            )
        rows.append(tuple(row))
    return SymTensor4(tuple(rows))


def stress_from_kernel(kernel: RadialKernel, eps: SeparationVector) -> SymTensor4:
    """Apply the full derivative structure [-d^mu d^nu + zhat zhat d^2].

    This is the pointwise (finite-splitting) tensor built from one
    radial kernel; the small-splitting expansion of it is what the
    stress decompositions report.
    """
    hess = second_derivative_tensor(kernel, eps)
    contracted = kernel.second + 2 * kernel.first / kernel.s
    rows = []
    for i in range(DIM):
        row = []
        for j in range(DIM):
            val = -hess[i, j]
            if i == 3 and j == 3:
                val += contracted
            row.append(val)
        rows.append(tuple(row))
    return SymTensor4(tuple(rows))


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


def em_stress(
    geom: PlateGeometry, cutoff: CutoffParams, eps: SeparationVector
) -> StressDecomposition:
    """Subtracted electromagnetic stress between the plates.

    The splitting vector supplies the regulator scale (its invariant
    length stands in for the cutoff; the epsilon inside CutoffParams is
    not used here) and the S2 direction.  The coefficients come from
    the small-s series, so they are exact in the splitting direction:
    A = (1 - lambda) pi^2 / 180 a^4, the 1/s^2 coefficient
    -lambda/24a^2, and the finite S2 part lambda(lambda^2 - 1) pi^2 /
    1440 a^4.  In the divergent coefficient's absence (lambda = 0) the
    zz component reduces to the classic -pi^2/240a^4.
    """
    unit, s = _unit_splitting(eps)
    g1, g2 = _em_radial_series(geom.a, cutoff.lam)
    a_series, b_series = _project_structures(g1, g2)
    return StressDecomposition(
        A=extract_coefficient(a_series, 0),
        B_finite=extract_coefficient(b_series, 0),
        B_divergent_eps2=extract_coefficient(b_series, -2),
        direction=unit,
        separation_length=s,
    )


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

    q = series_exp(from_terms([(1, -1)], truncation_order=trunc))
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


def scalar_stress(
    geom: PlateGeometry,
    cutoff: CutoffParams,
    eps: SeparationVector,
    z,
) -> StressDecomposition:
    """Subtracted stress of a field vanishing on the walls.

    Unlike the electromagnetic case the result depends on position
    between the plates: the S2 coefficients grow like 1/sin^2(pi z/a)
    and 1/sin^4(pi z/a) toward the walls whenever lambda is nonzero,
    which is why z = 0 and z = a are rejected rather than evaluated.

    The coefficients are the directly coded closed forms;
    _scalar_mode_assembly rebuilds them from the mode sums, and the
    tests compare the two as an independent cross-check.
    """
    z = to_mpf(z)
    a = geom.a
    if not 0 < z < a:
        raise WallContact(f"z must lie strictly between the walls, got {z}")
    unit, s = _unit_splitting(eps)
    lam = cutoff.lam
    sz = sin(pi * z / a)
    a_coeff = (1 - lam) * pi**2 / (360 * a**4)
    b_div = (lam / 48) * (3 / sz**2 - 1) / a**2
    b_fin = (
        (lam / 48)
        * (pi**2 / (4 * a**4))
        * (1 - lam**2)
        * ((3 - 2 * sz**2) / sz**4 - mpf(1) / 15)
    )
    return StressDecomposition(
        A=a_coeff,
        B_finite=b_fin,
        B_divergent_eps2=b_div,
        direction=unit,
        separation_length=s,
    )


def _stress_for(field, geom, cutoff, eps, z):
    if field is FieldKind.ELECTROMAGNETIC:
        return em_stress(geom, cutoff, eps)
    if field is FieldKind.SCALAR:
        if z is None:
            raise ValueError("scalar stress requires a z position")
        return scalar_stress(geom, cutoff, eps, z)
    raise ValueError(f"unknown field kind: {field!r}")


def covariance_check(
    field: FieldKind,
    geom: PlateGeometry,
    cutoff: CutoffParams,
    eps: SeparationVector,
    transform: LorentzTransform,
    z=None,
) -> mpf:
    """Residual of the transformation law under a plate-preserving map.

    Assembles the stress at the back-transformed splitting, pushes the
    tensor forward through the transform, and compares against the
    stress at the original splitting.  The coefficients do not depend
    on the splitting, so one decomposition serves both and only its
    direction and length change; the residual is rounding noise, and
    a frame-dependent regulator would show up here as a finite defect.
    """
    d = _stress_for(field, geom, cutoff, eps, z)
    direct = d.tensor()
    back = SeparationVector(transform.inverse().apply(eps.vector))
    unit, s = _unit_splitting(back)
    moved = transform_tensor(
        transform, replace(d, direction=unit, separation_length=s).tensor()
    )
    return max(
        abs(moved[i, j] - direct[i, j]) for i in range(DIM) for j in range(DIM)
    )


def angular_average(d: StressDecomposition) -> SymTensor4:
    """Direction-averaged stress: the S2 structure drops out entirely.

    Averaging is the covariant replacement eps^mu eps^nu / eps^2 ->
    h^{mu nu}/3, the unique rule invariant under the plate-preserving
    Lorentz group with the right trace; under it S2 becomes h - 3(h/3)
    = 0 and only A * S1 survives.  (A naive average over a spatial
    circle of directions is frame-dependent and does not annihilate
    S2.)  The divergent coefficient multiplies a vanishing structure,
    so the average is finite term by term even at nonzero lambda.
    """
    return s1_structure().scale(d.A)
