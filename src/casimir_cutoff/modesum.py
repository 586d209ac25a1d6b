"""Regularized vacuum energy per unit area between parallel plates.

The energy density per unit plate area is a sum over discrete standing
waves (index n, frequencies omega = sqrt(k^2 + (n pi/a)^2)) with the
transverse momentum integral done in closed form.  Two regulator
parameters enter: an exponential cutoff scale epsilon multiplying the
frequency, and a dimensionless shape parameter lambda that adds back a
mode-dependent factor exp(lambda*epsilon*n*pi/a).  Convergence of the
sum requires lambda < 1; every term is then positive and the tail is
dominated by a geometric series, which gives a certified remainder
bound rather than a heuristic one.

Each term is q^n times a quadratic in n, with q = exp((lambda - 1)
epsilon pi / a), so the sum runs as a recurrence that needs a single
exponential for all its terms, on Python integers rather than mpf
objects: a renormalised mantissa for q^n, exact forward differences for
the quadratic and a fixed-point partial sum.  The same structure gives
the infinite sum in closed form, from which the index where the bound
meets the tolerance is predicted before any summing, estimated in
double precision and confirmed by two exact probes; parameters that
would need more modes than the cap fail at once.  The bound also covers
the rounding drift of the recurrence, and the default tolerance follows
the working precision, so a sum is certified at every precision.

The same energy has a closed form: a second derivative of a coth
expression in which the lambda occurrence of the cutoff is held frozen
during differentiation and identified with epsilon afterwards.  Both
routes are implemented; agreement within the certified bound is a test
invariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from mpmath import cos, coth, csch, exp, expm1, ldexp, mag, mp, mpc, mpf, pi, sin, sqrt

from .errors import (
    CutoffDomain,
    InvalidMode,
    NonPositiveEpsilon,
    NonPositiveSeparation,
    NotConverged,
)
from .precision import to_mpf

# Iteration cap for the self-extending mode sum; a stopping index past
# it signals parameters too close to the convergence boundary for
# direct summation.
_AUTO_N_CAP = 50_000
# Rounding drift of the recurrence: c in c (n + 2) u (S_n + tail_n),
# with u = 2^-prec.  q, A, B, C enter within u of their exact values
# (_tower).  From there the recurrence runs on integers of F = prec + G
# bits (G = _GUARD), whose truncations are at most w = 2^-F = u 2^-G
# relative each; the checked steps round to prec bits (u each) and the
# bound is formed in mpf.  Every quantity is positive, so errors
# compound multiplicatively; while n u <= 1e-4, k roundings cost at
# most 1.0001 times their sum.  Counting them:
# - q^n: n u from the rounding of q, and n - 1 truncated products of
#   two mantissas of at least F - 1 bits, each below 4w;
# - p(n): exact integer forward differences from A, B, C, so u;
# - S_n: the terms' own (n + 1) u + 4 (n - 1) w; the fixed-point sum
#   drops under one unit, at most 2^-F of the larger of term_1 and the
#   head, so at most w S_n, at each of its n + 1 additions (the head
#   included); u to round it to prec bits.  In all
#   (n + 2) u + (5n - 3) w;
# - tail_n = term_{n+1} / (1 - rho_n): (n + 2) u + 4n w for the term,
#   u to round it, u each for 1 - rho_n and the division, where rho_n
#   is formed from q (1 + 8u), which keeps it above the exact ratio
#   bound; (n + 5) u + 4n w.
# So |E - S_n| <= tail_n + ((n + 5) u + 5n w) (S_n + tail_n) up to the
# factor 1.0001.  G = 2 makes 5n w <= 1.25 n u, so the drift stays
# below (3n + 8) u (S_n + tail_n) at every n, and c = 5 leaves
# (2n + 2) u (S_n + tail_n) for rounding the bound itself.
_DRIFT_C = 5
_GUARD = 2
# The per-step stopping rule starts this many modes below the predicted
# index.  Rounding moves the prediction by a relative O(n u), far less
# than the per-mode decay 1 - rho_n of the tail it is read from.
_CHECK_MARGIN = 2
# The double-precision estimate of the stopping index searches no
# further than this; exact probes widen past it if they must.
_ESTIMATE_LIMIT = 1 << 62
_LN2 = math.log(2)


class FieldKind(Enum):
    """Field content between the plates."""

    ELECTROMAGNETIC = "em"
    SCALAR = "scalar"


@dataclass(frozen=True)
class CutoffParams:
    """Regulator pair (epsilon, lambda).

    epsilon > 0 is the cutoff length; lambda in [0, 1) deforms the
    regulator shape.  At lambda >= 1 the regulated sum diverges term by
    term, so that region is a hard error, not a NaN.
    """

    epsilon: mpf
    lam: mpf

    def __post_init__(self):
        object.__setattr__(self, "epsilon", to_mpf(self.epsilon))
        object.__setattr__(self, "lam", to_mpf(self.lam))
        if self.epsilon <= 0:
            raise CutoffDomain(f"epsilon must be positive, got {self.epsilon}")
        if not (0 <= self.lam < 1):
            raise CutoffDomain(f"lambda must lie in [0, 1), got {self.lam}")


@dataclass(frozen=True)
class PlateGeometry:
    """Plates at z = 0 and z = a inside an outer box of size L.

    The outer box only matters conceptually (its modes supply the
    subtraction when a is varied); computations here use a alone, so L
    defaults to infinity.
    """

    a: mpf
    L: mpf = mpf("inf")

    def __post_init__(self):
        object.__setattr__(self, "a", to_mpf(self.a))
        object.__setattr__(self, "L", to_mpf(self.L))
        if self.a <= 0:
            raise NonPositiveSeparation(f"plate separation must be positive, got {self.a}")
        if self.L <= self.a:
            raise NonPositiveSeparation("outer box must be larger than the plate separation")


@dataclass(frozen=True)
class ModeIndex:
    """Standing-wave label: discrete n, polarization 1 or 2, transverse k."""

    n: int
    polarization: int
    k: tuple[mpf, mpf]

    def __post_init__(self):
        object.__setattr__(self, "k", (to_mpf(self.k[0]), to_mpf(self.k[1])))
        if self.n < 0:
            raise InvalidMode(f"mode number must be non-negative, got {self.n}")
        if self.polarization not in (1, 2):
            raise InvalidMode(f"polarization must be 1 or 2, got {self.polarization}")
        if self.n == 0 and self.polarization == 1:
            raise InvalidMode("n = 0 supports only polarization 2")


@dataclass(frozen=True)
class ModeSumResult:
    """Partial sum with a certified bound on the omitted tail."""

    value: mpf
    remainder_bound: mpf
    n_max: int


def transverse_integral(m, epsilon) -> mpf:
    """Closed form of the transverse-momentum integral at fixed mass m.

    Integrating omega * exp(-epsilon*omega) over the transverse plane
    with omega = sqrt(k^2 + m^2) gives
    (1/2pi) e^{-epsilon m} (m^2/epsilon + 2m/epsilon^2 + 2/epsilon^3).
    """
    m = to_mpf(m)
    eps = to_mpf(epsilon)
    if eps <= 0:
        raise NonPositiveEpsilon(f"epsilon must be positive, got {eps}")
    if m < 0:
        raise ValueError(f"mass must be non-negative, got {m}")
    return exp(-eps * m) * (m * m / eps + 2 * m / eps**2 + 2 / eps**3) / (2 * pi)


def _tower(geom: PlateGeometry, cutoff: CutoffParams, weight: mpf):
    """x = log q, q, 1 - q and (A, B, C): term_n = q^n (A n^2 + B n + C).

    The weight and the 1/2pi of the transverse integral are folded into
    A, B and C.  Everything is evaluated with guard bits and rounded
    once, so each value is within 2^-prec relative of its exact value,
    as _DRIFT_C assumes; rounding x itself would cost |x| units in the
    last place of q, hence guard bits that grow with the size of x.  The
    smaller of q and 1 - q comes from the exponential and the other by
    subtraction, which then cancels at most one bit.
    """
    eps = cutoff.epsilon
    x = (cutoff.lam - 1) * eps * pi / geom.a
    with mp.extraprec(20 + max(0, mag(x))):
        x = (cutoff.lam - 1) * eps * pi / geom.a
        if x < -_LN2:
            q = exp(x)
            one_minus_q = 1 - q
        else:
            one_minus_q = -expm1(x)
            q = 1 - one_minus_q
        k = pi / geom.a
        f = weight / (2 * pi * eps)
        parts = (x, q, one_minus_q, f * k * k, 2 * f * k / eps, 2 * f / eps**2)
    return tuple(+v for v in parts)


def _first_true(ok, lo: int, hi: int) -> int:
    """Smallest n in (lo, hi] with ok(n), for ok monotone in n and ok(hi) true."""
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _default_tol() -> mpf:
    """1e-30, or 10^(10 - dps) where the working digits cannot spare ten below 1e-30."""
    return max(mpf("1e-30"), mpf(10) ** (10 - mp.dps))


def _tail(n: int, term_next: mpf, q_up: mpf) -> mpf:
    """Geometric bound term_{n+1} / (1 - rho_n) on the terms past n.

    The quadratic's parts grow by at most ((k+1)/k)^2 per step, so every
    ratio term_{k+1}/term_k with k > n is at most rho_n = q_up ((n + 2) /
    (n + 1))^2, where q_up lies above q by more than its rounding.
    """
    rho = q_up * (mpf(n + 2) / (n + 1)) ** 2
    return term_next / (1 - rho) if rho < 1 else mpf("inf")


def _ln(v: mpf) -> float:
    """Natural logarithm of a positive mpf as a float, at any exponent."""
    return math.log(v.man) + v.exp * _LN2


def _predict_stop(x, q_up, A, B, C, limit) -> int:
    """First n >= 1 with tail_n <= limit, where term_n = e^(n x) (A n^2 + B n + C).

    Past the first n with rho_n < 1 the tail is decreasing in n (a
    decreasing term over a growing 1 - rho_n), so the condition is
    monotone.  Its crossing is estimated in double precision from
    logarithms, which cost no exp; exact probes then confirm it from
    both sides, widening the bracket while a probe fails, and bisect
    whatever bracket remains.  An exact estimate costs two exp calls.
    """

    def meets(n: int) -> bool:
        m = n + 1
        return _tail(n, exp(m * x) * ((A * m + B) * m + C), q_up) <= limit

    # p(m) = s (a m^2 + b m + c) with max(a, b, c) = 1 keeps the floats
    # in range whatever the size of A, B, C.
    s = max(A, B, C)
    a, b, c = float(A / s), float(B / s), float(C / s)
    # ln q_up = x + ln(1 + 8u), kept accurate even when q is near 1.
    xf = float(x)
    ln_q_up, goal = xf + 8 * 2.0**-mp.prec, _ln(limit) - _ln(s)

    def meets_estimate(n: int) -> bool:
        m = n + 1
        ln_rho = ln_q_up + 2 * math.log1p(1 / m)
        if ln_rho >= 0:
            return False
        ln_p = math.log((a * m + b) * m + c)
        return m * xf + ln_p - math.log(-math.expm1(ln_rho)) <= goal

    hi = 1
    while hi < _ESTIMATE_LIMIT and not meets_estimate(hi):
        hi *= 2
    n = _first_true(meets_estimate, hi // 2, hi)
    step = 1
    if meets(n):
        lo, hi = n - 1, n
        while lo > 0 and meets(lo):
            lo, hi = max(0, lo - step), lo
            step *= 2
    else:
        lo, hi = n, n + 1
        while not meets(hi):
            lo, hi = hi, hi + step
            step *= 2
    return _first_true(meets, lo, hi)


def energy_mode_sum(
    geom: PlateGeometry,
    cutoff: CutoffParams,
    field: FieldKind = FieldKind.ELECTROMAGNETIC,
    n_max: int | None = None,
    tol=None,
) -> ModeSumResult:
    """Sum the regulated mode energies up to n_max.

    The n = 0 mode carries a single polarization, so it enters with
    weight 1/2 for the electromagnetic field; the scalar field loses
    one polarization per mode, which halves every term and deletes
    n = 0 entirely.

    Term n is q^n (A n^2 + B n + C) with q = exp((lambda - 1) eps pi / a),
    so the sum runs as a recurrence on Python integers: q^n is a
    mantissa of a few bits more than prec, renormalised after each
    product so that late, tiny terms keep their relative precision; the
    quadratic advances by exact integer forward differences; and the
    partial sum is a fixed-point integer.  Only the checked steps form
    mpf values.  The remainder bound is the geometric tail
    term_{n+1} / (1 - rho_n), with rho_n = q ((n + 2) / (n + 1))^2, plus
    the rounding drift 5 (n + 2) 2^-prec (S_n + tail) of the recurrence
    itself.

    With n_max given, sums exactly that range and reports the bound
    (NotConverged only if a tolerance is also given and the bound
    misses it).  With n_max omitted, returns the first n whose bound is
    within the relative tolerance of the partial sum; the default is
    1e-30, or 10^(10 - dps) where the working precision cannot reach
    1e-30.  That index is predicted before summing, from the
    closed-form geometric moments of the infinite sum: a
    double-precision estimate confirmed by two exact probes.
    NotConverged is raised at once if it exceeds the 50 000-mode cap,
    or if the rounding drift there already exceeds the tolerance.  A
    tolerance that is not positive raises ValueError.
    """
    rel_tol = _default_tol() if tol is None else to_mpf(tol)
    if not rel_tol > 0:
        raise ValueError(f"tolerance must be positive, got {rel_tol}")
    if n_max is not None and n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if field is FieldKind.ELECTROMAGNETIC:
        weight = mpf(1)
    elif field is FieldKind.SCALAR:
        weight = mpf(1) / 2
    else:
        raise InvalidMode(f"unknown field kind: {field!r}")

    x, q, one_minus_q, A, B, C = _tower(geom, cutoff, weight)
    head = C / 2 if field is FieldKind.ELECTROMAGNETIC else mpf(0)
    u = ldexp(mpf(1), -mp.prec)
    # Keeps the computed rho_n above the exact one despite its roundings.
    q_up = q * (1 + 8 * u)

    def drift_per_unit(n: int) -> mpf:
        return _DRIFT_C * (n + 2) * u

    if n_max is None:
        if q_up >= 1:
            raise NotConverged(f"mode terms do not decay at {mp.prec}-bit precision")
        # The geometric moments sum q^n, n q^n and n^2 q^n give the whole
        # sum, which bounds every partial sum.
        whole = head + q / one_minus_q * (
            A * (1 + q) / one_minus_q**2 + B / one_minus_q + C
        )
        predicted = _predict_stop(x, q_up, A, B, C, rel_tol * whole)
        if predicted > _AUTO_N_CAP:
            raise NotConverged(
                f"predicted stopping index {predicted} for relative tolerance "
                f"{mp.nstr(rel_tol, 3)} exceeds the cap of {_AUTO_N_CAP} modes"
            )
        if drift_per_unit(predicted) >= rel_tol:
            raise NotConverged(
                f"relative tolerance {mp.nstr(rel_tol, 3)} is below the rounding "
                f"drift {mp.nstr(drift_per_unit(predicted), 3)} of {mp.prec}-bit "
                f"arithmetic at the predicted stopping index {predicted}"
            )
        start = max(1, predicted - _CHECK_MARGIN)
    else:
        start = n_max

    # q = qm 2^(-F-k) with qm of exactly F bits; k = 0 for q >= 1/2.
    F = mp.prec + _GUARD
    qm, k = q.man << (F - q.bc), -q.exp - q.bc
    # A, B, C = (a, b, c) 2^e_p exactly, with p(1) = a + b + c >= 4.
    e_p = min(A.exp, B.exp, C.exp) - 2
    a, b, c = (int(ldexp(v, -e_p)) for v in (A, B, C))
    # The sum's unit 2^e_s is at most 2^-F of term_1 and of the head,
    # and S_n is at least either.
    e_s = (qm * (a + b + c)).bit_length() - 1 - k - 2 * F + e_p
    if head:
        e_s = max(e_s, head.exp + head.bc - 1 - F)
    # Term n is (mant p) 2^(e_s - sh), mant the F-bit mantissa of q^n.
    mant, sh, low = 1 << F, e_s - e_p + F, 1 << (F - 1)
    total = int(ldexp(head, -e_s))
    p, dp, d2 = c, a + b, 2 * a  # p(0), p(1) - p(0), p''
    n = 0
    while True:
        mant = mant * qm >> F
        if mant < low:
            mant <<= 1
            sh += 1
        sh += k
        p += dp
        dp += d2
        prod = mant * p  # term_{n+1} = prod 2^(e_s - sh)
        if n >= start:
            term, partial = mpf((prod, e_s - sh)), mpf((total, e_s))
            t = _tail(n, term, q_up)
            bound = t + drift_per_unit(n) * (partial + t)
            if n_max is not None:
                if tol is not None and not bound <= rel_tol * partial:
                    raise NotConverged(
                        f"remainder bound {bound} exceeds tolerance at n_max = {n}"
                    )
                return ModeSumResult(partial, bound, n)
            if bound <= rel_tol * partial:
                return ModeSumResult(partial, bound, n)
            if n >= _AUTO_N_CAP or drift_per_unit(n) >= rel_tol:
                raise NotConverged(
                    f"remainder bound not below {rel_tol} within {n} modes"
                )
        total += prod >> sh
        n += 1


def energy_closed_form(
    geom: PlateGeometry,
    cutoff: CutoffParams,
    field: FieldKind = FieldKind.ELECTROMAGNETIC,
) -> mpf:
    """Infinite-sum limit of the regulated energy, in closed form.

    The sum telescopes into a second epsilon-derivative of
    (1/4 pi epsilon) coth[(epsilon - lambda*epsilon') pi / 2a], where
    the primed copy is frozen during differentiation and set equal to
    epsilon afterwards.  Carrying that out gives the expression below
    with v = (1 - lambda) epsilon pi / 2a.
    """
    a = geom.a
    eps = cutoff.epsilon
    v = (1 - cutoff.lam) * eps * pi / (2 * a)
    c = pi / (2 * a)
    em = (
        coth(v) / eps**3
        + c * csch(v) ** 2 / eps**2
        + c**2 * csch(v) ** 2 * coth(v) / eps
    ) / (2 * pi)
    if field is FieldKind.ELECTROMAGNETIC:
        return em
    if field is FieldKind.SCALAR:
        # Half of each n >= 1 term, and no n = 0 term at all; the n = 0
        # transverse integral is the massless one.
        return em / 2 - transverse_integral(0, eps) / 4
    raise InvalidMode(f"unknown field kind: {field!r}")


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
