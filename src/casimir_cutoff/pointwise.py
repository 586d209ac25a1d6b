"""Cross-check routes: pointwise stress kernels, the closed-form energy, cavity modes.

This module is on the cross-check side of the line between the code
the CLI runs and the routes that check it: no CLI command reads it, so
no CLI start loads it, and the tests use it to check each reported
number against a second route.

The stress layer reports the small-splitting series of the subtracted
stress in closed form.  The functions here build the same tensor at a
finite splitting from a radial kernel: the summed propagator kernel
``generating_function``, its infinite-plate-separation limit
``bulk_kernel``, the Hessian of a radial function with respect to the
splitting vector, and the derivative structure applied to it, which
the stress layer's own assembly builds.  Both kernels check s, s' and
s - lambda s' in one helper, ``_kernel_argument``, and lambda and the
plate separation by the checks of ``params``, so they raise a
``CasimirError`` and never return NaN.  ``energy_closed_form`` is the
coth closed form of the mode sum in ``modesum``, and ``eigenmode`` and
``check_boundary_conditions`` give the cavity modes it sums over.
"""

from __future__ import annotations

from mpmath import cos, coth, csch, expm1, isfinite, isinf, mp, mpc, mpf, pi, sin, sqrt

from .errors import CothPole, InvalidMode, NonPositiveSeparation
from .minkowski import DIM, SymTensor4
from .params import (
    CutoffParams, FieldKind, PlateGeometry, SeparationVector, _check_field, _unit_lambda,
)
from .precision import to_mpf, value_type
from .stress import _H_DIAG, StressDecomposition, _split_tol, _unit_splitting


class RadialKernel(value_type("RadialKernel", "s value first second")):
    """Value and first two radial derivatives of a kernel at separation s."""

    __slots__ = ()


def _kernel_argument(s, s_frozen, lam) -> tuple[mpf, mpf]:
    """s and w = s - lambda s', each checked positive, s finite, lambda in [0, 1).

    Every test is a positive one, so a NaN fails it: a kernel raises,
    never returns NaN.  w is formed as (s - s') + (1 - lambda) s', so
    that it keeps its digits as lambda -> 1.
    """
    s, s_frozen = to_mpf(s), to_mpf(s_frozen)
    if not s > 0:
        raise NonPositiveSeparation(f"separation must be positive, got {s}")
    if isinf(s):
        raise NonPositiveSeparation("separation must be finite")
    w = (s - s_frozen) + (1 - _unit_lambda(lam)) * s_frozen
    if not w > 0:
        raise CothPole(f"s - lambda s' must be positive, got {w}")
    return s, w


def generating_function(s, s_frozen, lam, a) -> RadialKernel:
    """Summed propagator kernel F = coth[(s - lambda s') pi/2a] / (4 pi a s).

    Summing the mass-(n pi/a) kernels over n with the regulator weight
    exp(lambda s' n pi / a) produces a geometric series that closes to
    this coth form.  Derivatives are taken in s only; the primed copy
    s' is frozen during differentiation and identified with s by the
    caller afterwards.  The plate separation a is checked as
    ``PlateGeometry`` checks it, the rest by ``_kernel_argument``.
    """
    a = PlateGeometry(a).a
    s, arg = _kernel_argument(s, s_frozen, lam)
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
    coincidence limit removes the free-space divergence.  Its arguments
    are checked as ``generating_function``'s are.
    """
    s, w = _kernel_argument(s, s_frozen, lam)
    pref = 1 / (2 * pi**2)
    return RadialKernel(
        s=s,
        value=pref / (s * w),
        first=pref * (-1 / (s**2 * w) - 1 / (s * w**2)),
        second=pref * (2 / (s**3 * w) + 2 / (s**2 * w**2) + 2 / (s * w**3)),
    )


def _kernel_splitting(kernel: RadialKernel, eps: SeparationVector) -> tuple[SeparationVector, mpf]:
    # The splitting as (unit direction, length s), with the kernel's own
    # s checked against that length relative to it and the derivatives
    # the tensors read checked finite.  Both tests are positive ones, so
    # a NaN fails them.
    unit, s = _unit_splitting(eps.vector)
    if not abs(kernel.s - s) <= _split_tol(mp.prec) * s:
        raise ValueError(
            f"kernel evaluated at s = {kernel.s} but splitting has length {s}"
        )
    if not (isfinite(kernel.first) and isfinite(kernel.second)):
        raise CothPole(f"kernel derivatives must be finite, got {kernel.first}, {kernel.second}")
    return unit, s


def second_derivative_tensor(kernel: RadialKernel, eps: SeparationVector) -> SymTensor4:
    """Hessian of a radial function with respect to the splitting vector.

    For f depending on the splitting only through s = sqrt(eps . eps),
    the chain rule gives
    d^2 f / d eps_mu d eps_nu =
        f'' eps^mu eps^nu / s^2 + f' (h^{mu nu}/s - eps^mu eps^nu/s^3)
    with h the (t, x, y) subspace metric.  Contracting with h recovers
    the radial operator f'' + (2/s) f'.  Criterion 7 checks it against
    finite differences of the kernel.
    """
    _, s = _kernel_splitting(kernel, eps)
    comps = eps.vector
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
    radial kernel f; the small-splitting expansion of it is what the
    stress decompositions report.  With u the unit splitting, the
    Hessian is (f'' - f'/s) u u + (f'/s) h and the zz slot gains
    f'' + 2 f'/s, so the tensor is A S1 + B S2 with
    A = -(4/3) (f'' + 2 f'/s) and B = (f'' - f'/s) / 3, the projections
    ``_em_coefficients`` documents, assembled by the stress layer.
    """
    unit, s = _kernel_splitting(kernel, eps)
    f1 = kernel.first / s
    return StressDecomposition(
        -4 * (kernel.second + 2 * f1) / 3, (kernel.second - f1) / 3, 0, unit, s
    ).tensor()


def energy_closed_form(
    geom: PlateGeometry,
    cutoff: CutoffParams,
    field: FieldKind = FieldKind.ELECTROMAGNETIC,
) -> mpf:
    """Infinite-sum limit of the regulated energy, in closed form.

    The sum telescopes into a second epsilon-derivative of
    (1/4 pi epsilon) coth[(epsilon - lambda*epsilon') pi / 2a], where
    the primed copy is frozen during differentiation and set equal to
    epsilon afterwards.  The modes n >= 1 alone, half of each
    electromagnetic term, which is the scalar field's energy, give
    [d / eps^3 + c csch^2(v) / eps^2 + c^2 csch^2(v) coth(v) / eps] / 4 pi
    with v = (1 - lambda) epsilon pi / 2a, c = pi / 2a and
    d = coth(v) - 1 = 2 / expm1(2v), so that csch^2(v) = d (d + 2): every
    part is positive and nothing cancels, however large v is.  The
    electromagnetic energy is twice that plus the n = 0 half-term
    1 / (2 pi eps^3), half the massless transverse integral.
    """
    _check_field(field)
    eps = cutoff.epsilon
    c = pi / (2 * geom.a)
    d = 2 / expm1(2 * (1 - cutoff.lam) * eps * c)  # coth(v) - 1
    csch2 = d * (d + 2)
    modes = (d / eps**3 + c * csch2 / eps**2 + c**2 * csch2 * (1 + d) / eps) / (4 * pi)
    if field is FieldKind.SCALAR:
        return modes
    return 2 * modes + 1 / (2 * pi * eps**3)


class ModeIndex(value_type("ModeIndex", "n polarization k")):
    """Standing-wave label: discrete n, polarization 1 or 2, transverse k."""

    __slots__ = ()

    def __new__(cls, n: int, polarization: int, k: tuple[mpf, mpf]):
        k = (to_mpf(k[0]), to_mpf(k[1]))
        if n < 0:
            raise InvalidMode(f"mode number must be non-negative, got {n}")
        if polarization not in (1, 2):
            raise InvalidMode(f"polarization must be 1 or 2, got {polarization}")
        if n == 0 and polarization == 1:
            raise InvalidMode("n = 0 supports only polarization 2")
        return super().__new__(cls, n, polarization, k)


def eigenmode(idx: ModeIndex, geom: PlateGeometry, z) -> tuple[mpc, mpc, mpc]:
    """Spatial mode profile (A_x, A_y, A_z) at height z between the walls.

    Polarization 1 is purely transverse, directed along kbar = (k_y,
    -k_x) with a sin(n pi z / a) profile.  Polarization 2 mixes a
    transverse gradient part (sin profile) with a z part (cos profile);
    at n = 0 only the z part survives and the normalization picks up an
    extra 1/sqrt(2).  Both satisfy integral_0^a |A|^2 dz = 1.
    """
    a = geom.a
    zz = to_mpf(z)
    if not 0 <= zz <= a:
        raise ValueError(f"z must lie in [0, {a}], got {zz}")
    kx, ky = idx.k
    kmag = sqrt(kx * kx + ky * ky)
    if kmag == 0:
        raise InvalidMode("transverse wave-vector must be nonzero")
    n = idx.n
    norm = sqrt(2 / a)
    phase = n * pi * zz / a
    if idx.polarization == 1:
        s = norm * sin(phase)
        return (mpc(ky / kmag * s), mpc(-kx / kmag * s), mpc(0))
    if n == 0:
        norm /= sqrt(2)
    kn = n * pi / a
    omega = sqrt(kmag * kmag + kn * kn)
    grad = mpc(0, -1) * kn * norm * sin(phase) / (kmag * omega)
    return (kx * grad, ky * grad, mpc(kmag / omega * norm * cos(phase)))


def check_boundary_conditions(idx: ModeIndex, geom: PlateGeometry) -> mpf:
    """Max residual of the conductor conditions at both walls.

    Tangential electric field is proportional to the tangential mode
    components; normal magnetic field is proportional to
    i(k_x A_y - k_y A_x) given the plane-wave transverse dependence.
    Both must vanish at z = 0 and z = a.
    """
    kx, ky = idx.k
    worst = mpf(0)
    for z in (mpf(0), geom.a):
        ax, ay, _ = eigenmode(idx, geom, z)
        bz = mpc(0, 1) * (kx * ay - ky * ax)
        worst = max(worst, abs(ax), abs(ay), abs(bz))
    return worst
