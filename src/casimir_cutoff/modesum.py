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
epsilon pi / a), so one exponential serves every term, and the
geometric moments of q^n give both the infinite sum and, as its
difference with the terms past n, every partial sum in closed form:
the cost of a sum does not depend on how many modes it holds.  The
index where the bound meets the tolerance is estimated in double
precision and confirmed by two exact evaluations of the closed form;
parameters that would need more modes than the cap fail at once.  The
bound also covers the rounding drift, and the default tolerance follows
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
from functools import lru_cache

from mpmath import cos, coth, csch, exp, ldexp, mag, mp, mpc, mpf, pi, sin, sqrt

from .errors import (
    CutoffDomain,
    InvalidMode,
    NonPositiveEpsilon,
    NonPositiveSeparation,
    NotConverged,
)
from .precision import to_mpf

# Cap on the automatic stopping index; past it the parameters are too
# close to the convergence boundary for a mode sum.
_AUTO_N_CAP = 50_000
# Rounding drift: c in c (n + 2) u (S_n + tail_n), with u = 2^-prec.
# q, A, B, C enter within u of their exact values (_tower) and are then
# taken as exact: _partial_sums evaluates the partial sum of the series
# they define at prec + g bits and rounds it once to prec.  Every
# quantity is positive, so errors compound multiplicatively; while
# n u <= 1e-4, k roundings cost at most 1.0001 times their sum.
# Counting them:
# - S_n: term m carries m u from q^m and u from p(m), the head u, so
#   the partial sum of the rounded series is within (n + 1) u of the
#   exact one; its evaluation at prec + g bits stays within 2^-20 u
#   (_partial_sums), and rounding it to prec costs u;
# - tail_n = term_{n+1} / (1 - rho_n): (n + 2) u from the inputs, u to
#   round the term, u each for 1 - rho_n and the division, where rho_n
#   is formed from q (1 + 8u), which keeps it above the exact ratio
#   bound; (n + 5) u.
# So |E - S_n| <= tail_n + (n + 6) u (S_n + tail_n) up to the factor
# 1.0001, and c = 5 leaves (4n + 4) u (S_n + tail_n) for rounding the
# bound itself.
_DRIFT_C = 5
# The float estimate of the stopping index searches no further.
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
        if not self.epsilon > 0:
            raise CutoffDomain(f"epsilon must be positive, got {self.epsilon}")
        if not (0 <= self.lam < 1):
            raise CutoffDomain(f"lambda must lie in [0, 1), got {self.lam}")


@dataclass(frozen=True)
class PlateGeometry:
    """Plates at z = 0 and z = a, with a positive and finite.

    The outer region enters only through expansion.subtract_outer.
    """

    a: mpf

    def __post_init__(self):
        object.__setattr__(self, "a", to_mpf(self.a))
        if not self.a > 0:
            raise NonPositiveSeparation(f"plate separation must be positive, got {self.a}")
        if self.a == mpf("inf"):
            raise NonPositiveSeparation("plate separation must be finite")


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
    """x = log q, q and (A, B, C): term_n = q^n (A n^2 + B n + C).

    The weight and the 1/2pi of the transverse integral are folded into
    A, B and C.  Everything is evaluated with guard bits and rounded
    once, so each value is within 2^-prec relative of its exact value,
    as _DRIFT_C assumes; rounding x itself would cost |x| units in the
    last place of q, hence guard bits that grow with the size of x.
    """
    eps = cutoff.epsilon
    x = (cutoff.lam - 1) * eps * pi / geom.a
    with mp.extraprec(20 + max(0, mag(x))):
        x = (cutoff.lam - 1) * eps * pi / geom.a
        q = exp(x)
        k = pi / geom.a
        f = weight / (2 * pi * eps)
        parts = (x, q, f * k * k, 2 * f * k / eps, 2 * f / eps**2)
    return tuple(+v for v in parts)


def _partial_sums(q: mpf, A: mpf, B: mpf, C: mpf, head: mpf):
    """Whole sum U and n -> (S_n, term_{n+1}) for head + sum q^n p(n), n >= 1.

    p(n) = A n^2 + B n + C, q <= 1, and q, A, B, C are taken as exact.
    The geometric moments of q^n give U = head + q r (A (1 + q) r^2 +
    B r + C), with r = 1 / (1 - q), and the terms past n, with N = n + 1:
    T_n = q^N [p(N) r + (2 A N + B) q r^2 + A q (1 + q) r^3], every part
    positive.  So S_n = U - T_n whatever n is, from one integer power.
    Since S_n >= head + term_1, the difference cancels at most
    U / (head + term_1) < 2^(d + 2), with d the difference of their
    magnitudes; working at prec + g bits, g = 30 + d, keeps the few
    dozen roundings of U and T_n, each 2^-(prec + g) of U, below
    2^-20 u of S_n.  Each value is rounded once to prec bits.
    """
    if q == 1:  # rounded to 1: U is infinite, and S_n a sum of powers of n

        def flat(n: int) -> tuple[mpf, mpf]:
            N = n + 1
            return head + n * ((A * (2 * n + 1) / 3 + B) * N / 2 + C), (A * N + B) * N + C

        return mpf("inf"), flat

    def moments():
        r = 1 / (1 - q)
        qr, a1 = q * r, A * (1 + q) * r
        return r, qr, a1, head + qr * ((a1 + B) * r + C)

    U = moments()[3]
    g = 30 + max(0, mag(U) - mag(head + q * (A + B + C)))
    with mp.extraprec(g):
        r, qr, a1, U_g = moments()

    def at(n: int) -> tuple[mpf, mpf]:
        N = n + 1
        with mp.extraprec(g):
            qN, an = q**N, A * N
            p = (an + B) * N + C
            S = U_g - qN * r * (p + qr * (an + an + B + a1))
            term = qN * p
        return +S, +term

    return U, at


def _first_true(ok, lo: int, hi: int) -> int:
    """Smallest n in (lo, hi] with ok(n), for ok monotone in n and ok(hi) true."""
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


@lru_cache(maxsize=16)
def _default_tol(dps: int, prec: int) -> mpf:
    # 1e-30, or 10^(10 - dps) where the digits cannot spare ten below
    # 1e-30; the caller passes mp.prec, so a value rounded at one
    # precision is never reused at another.
    return max(mpf("1e-30"), mpf(10) ** (10 - dps))


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
    """Estimate of the first n >= 1 with tail_n <= limit, where term_n = e^(n x) p(n).

    Past the first n with rho_n < 1 the tail is decreasing in n (a
    decreasing term over a growing 1 - rho_n), so the condition is
    monotone.  Its crossing is found in double precision from
    logarithms, which cost no exp, by doubling and bisection.
    """
    # p(m) = s (a m^2 + b m + c) with max(a, b, c) = 1 keeps the floats
    # in range whatever the size of A, B, C.
    s = max(A, B, C)
    a, b, c = float(A / s), float(B / s), float(C / s)
    # ln q_up = x + ln(1 + 8u), kept accurate even when q is near 1.
    xf = float(x)
    ln_q_up, goal = xf + 8 * 2.0**-mp.prec, _ln(limit) - _ln(s)

    def meets(n: int) -> bool:
        m = n + 1
        ln_rho = ln_q_up + 2 * math.log1p(1 / m)
        if ln_rho >= 0:
            return False
        ln_p = math.log((a * m + b) * m + c)
        return m * xf + ln_p - math.log(-math.expm1(ln_rho)) <= goal

    hi = 1
    while hi < _ESTIMATE_LIMIT and not meets(hi):
        hi *= 2
    return _first_true(meets, hi // 2, hi)


def _search_from(meets, n: int) -> int:
    """First m >= 1 with meets(m), for meets monotone, probing n and n - 1 first.

    A probe on the wrong side of the crossing widens the bracket outward,
    doubling its step, and the bracket left is bisected.  Returns an
    index past _AUTO_N_CAP if meets holds nowhere up to the cap.
    """
    step = 1
    if meets(n):
        lo, hi = n - 1, n
        while lo > 0 and meets(lo):
            lo, hi = max(0, lo - step), lo
            step *= 2
    else:
        lo, hi = n, n + 1
        while not meets(hi):
            if hi > _AUTO_N_CAP:
                return hi
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
    so S_n is the whole sum less the terms past n, both in closed form
    from the geometric moments of q^n (_partial_sums): one exponential
    and one integer power of q, whatever n is.  The remainder bound is
    the geometric tail term_{n+1} / (1 - rho_n), with rho_n = q ((n + 2)
    / (n + 1))^2, plus the rounding drift 5 (n + 2) 2^-prec (S_n + tail).

    With n_max given, sums exactly that range and reports the bound
    (NotConverged only if a tolerance is also given and the bound
    misses it).  With n_max omitted, returns the first n whose bound is
    within the relative tolerance of S_n; the default is 1e-30, or
    10^(10 - dps) where the working precision cannot reach 1e-30.  That
    index is estimated in double precision from the whole sum, then the
    rule is evaluated at the estimate and one below it, the same
    evaluation a given n_max makes, so both give the same result.
    NotConverged is raised before any such probe if the estimate exceeds
    the 50 000-mode cap, if the rounding drift there already exceeds the
    tolerance, or if q rounds so close to 1 that the terms no longer
    decay.  A tolerance that is not positive raises ValueError.
    """
    rel_tol = _default_tol(mp.dps, mp.prec) if tol is None else to_mpf(tol)
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

    x, q, A, B, C = _tower(geom, cutoff, weight)
    head = C / 2 if field is FieldKind.ELECTROMAGNETIC else mpf(0)
    u = ldexp(mpf(1), -mp.prec)
    # Keeps the computed rho_n above the exact one despite its roundings.
    q_up = q * (1 + 8 * u)
    if n_max is None and q_up >= 1:
        raise NotConverged(f"mode terms do not decay at {mp.prec}-bit precision")

    def drift_per_unit(n: int) -> mpf:
        return _DRIFT_C * (n + 2) * u

    whole, partial = _partial_sums(q, A, B, C, head)
    checked = {}

    def bounded(n: int) -> tuple[mpf, mpf]:
        if n not in checked:
            s, term = partial(n)
            t = _tail(n, term, q_up)
            checked[n] = s, t + drift_per_unit(n) * (s + t)
        return checked[n]

    def meets(n: int) -> bool:
        s, bound = bounded(n)
        return bound <= rel_tol * s

    if n_max is None:
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
        n_max = _search_from(meets, predicted)
        if n_max > _AUTO_N_CAP:
            raise NotConverged(
                f"remainder bound not below {rel_tol} within {_AUTO_N_CAP} modes"
            )
    elif tol is not None and not meets(n_max):
        raise NotConverged(
            f"remainder bound {bounded(n_max)[1]} exceeds tolerance at n_max = {n_max}"
        )
    return ModeSumResult(*bounded(n_max), n_max)


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
