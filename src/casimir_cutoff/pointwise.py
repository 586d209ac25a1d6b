"""Pointwise kernels of the point-split stress, at a finite splitting.

The stress layer reports the small-splitting series of the subtracted
stress in closed form.  The functions here build the same tensor at a
finite splitting from a radial kernel: the summed propagator kernel
``generating_function``, its infinite-plate-separation limit
``bulk_kernel``, the Hessian of a radial function with respect to the
splitting vector, and the derivative structure applied to it.  No CLI
command reads them, so no CLI start loads this module; the tests use
it to check the series against the kernels it comes from.
"""

from __future__ import annotations

from mpmath import coth, csch, mp, mpf, pi

from .errors import CothPole, CutoffDomain, NonPositiveSeparation
from .minkowski import DIM, SeparationVector, SymTensor4
from .precision import to_mpf, value_type
from .stress import _H_DIAG, _split_tol, _unit_splitting


class RadialKernel(value_type("RadialKernel", "s value first second")):
    """Value and first two radial derivatives of a kernel at separation s."""

    __slots__ = ()


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


def second_derivative_tensor(kernel: RadialKernel, eps: SeparationVector) -> SymTensor4:
    """Hessian of a radial function with respect to the splitting vector.

    For f depending on the splitting only through s = sqrt(eps . eps),
    the chain rule gives
    d^2 f / d eps_mu d eps_nu =
        f'' eps^mu eps^nu / s^2 + f' (h^{mu nu}/s - eps^mu eps^nu/s^3)
    with h the (t, x, y) subspace metric.  Contracting with h recovers
    the radial operator f'' + (2/s) f'.
    """
    _, s = _unit_splitting(eps.vector)
    if abs(kernel.s - s) > _split_tol(mp.prec) * s:
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
