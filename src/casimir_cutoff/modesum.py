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

The sum's arithmetic runs on mpmath's raw values (``._mpf_`` tuples)
through ``libmp``, with each precision passed to each call instead of
set by ``mp.extraprec``.  The calls are the ones mpf's operators make
(``mpf_mul`` for ``*``, ``mpf_mul_int`` for an int times an mpf,
``mpf_rdiv_int`` for an int over one, ``mpf_pow_int`` for an integer
power, ``mpf_exp`` and ``mpf_pi`` behind ``exp`` and ``pi``, ``mpf_pos``
for unary ``+``), in the same order, at the same precision and with the
same rounding, so every result has the bits of the operator form that
the tests keep as a reference.  mpf objects are made only at the edges:
the result, the float estimate's inputs and the error messages.

This module is on the CLI's side of the line: it holds the mode sum
that ``energy-sum`` runs and nothing else.  The cross-check routes,
the coth closed form of the same energy (``energy_closed_form``) and
the cavity eigenmodes, are in ``pointwise``, which no CLI start loads;
agreement within the certified bound is a test invariant.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from functools import lru_cache

from mpmath import libmp, mp, mpf

from .errors import NotConverged
from .params import CutoffParams, FieldKind, PlateGeometry, _check_field
from .precision import to_mpf, value_type

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

_FZERO, _FONE, _FINF = libmp.fzero, libmp.fone, libmp.finf
_FTWO, _FTHREE = libmp.from_int(2), libmp.from_int(3)
_from_int, _mpf_shift, _mpf_exp, _mpf_pi = (
    libmp.from_int, libmp.mpf_shift, libmp.mpf_exp, libmp.mpf_pi
)
_mpf_add, _mpf_sub, _mpf_mul, _mpf_div = (
    libmp.mpf_add, libmp.mpf_sub, libmp.mpf_mul, libmp.mpf_div
)
_mpf_mul_int, _mpf_rdiv_int, _mpf_pow_int, _mpf_pos = (
    libmp.mpf_mul_int, libmp.mpf_rdiv_int, libmp.mpf_pow_int, libmp.mpf_pos
)
_mpf_eq, _mpf_lt, _mpf_le, _mpf_ge = libmp.mpf_eq, libmp.mpf_lt, libmp.mpf_le, libmp.mpf_ge
# mag() of a raw value, and an mpf around one.
_mpf_mag, _make_mpf = mp._mpf_mag, mp.make_mpf


class ModeSumResult(value_type("ModeSumResult", "value remainder_bound n_max")):
    """Partial sum with a certified bound on the omitted tail."""

    __slots__ = ()


def _tower(geom: PlateGeometry, cutoff: CutoffParams, weight, prec: int, rnd: str):
    """x = log q, q and (A, B, C), raw: term_n = q^n (A n^2 + B n + C).

    The weight and the 1/2pi of the transverse integral are folded into
    A, B and C.  Everything is evaluated with guard bits and rounded
    once, so each value is within 2^-prec relative of its exact value,
    as _DRIFT_C assumes; rounding x itself would cost |x| units in the
    last place of q, hence guard bits that grow with the size of x.
    """
    lam, eps, a = cutoff.lam._mpf_, cutoff.epsilon._mpf_, geom.a._mpf_

    def log_q(p: int):  # (lambda - 1) eps pi / a
        x = _mpf_mul(_mpf_sub(lam, _FONE, p, rnd), eps, p, rnd)
        return _mpf_div(_mpf_mul(x, _mpf_pi(p, rnd), p, rnd), a, p, rnd)

    p = prec + 20 + max(0, _mpf_mag(log_q(prec)))
    x, pi_p = log_q(p), _mpf_pi(p, rnd)
    k = _mpf_div(pi_p, a, p, rnd)
    f = _mpf_div(weight, _mpf_mul(_mpf_mul_int(pi_p, 2, p, rnd), eps, p, rnd), p, rnd)
    f2 = _mpf_mul_int(f, 2, p, rnd)
    parts = (
        x,
        _mpf_exp(x, p, rnd),
        _mpf_mul(_mpf_mul(f, k, p, rnd), k, p, rnd),
        _mpf_div(_mpf_mul(f2, k, p, rnd), eps, p, rnd),
        _mpf_div(f2, _mpf_pow_int(eps, 2, p, rnd), p, rnd),
    )
    return tuple(_mpf_pos(v, prec, rnd) for v in parts)


def _partial_sums(q, A, B, C, head, prec: int, rnd: str):
    """Whole sum U and n -> (S_n, term_{n+1}) for head + sum q^n p(n), n >= 1, raw.

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
    if _mpf_eq(q, _FONE):  # rounded to 1: U is infinite, S_n a sum of powers of n

        def flat(n: int):
            N = n + 1
            s = _mpf_div(_mpf_mul_int(A, 2 * n + 1, prec, rnd), _FTHREE, prec, rnd)
            s = _mpf_mul_int(_mpf_add(s, B, prec, rnd), N, prec, rnd)
            s = _mpf_div(s, _FTWO, prec, rnd)
            s = _mpf_mul_int(_mpf_add(s, C, prec, rnd), n, prec, rnd)
            term = _mpf_add(_mpf_mul_int(A, N, prec, rnd), B, prec, rnd)
            term = _mpf_add(_mpf_mul_int(term, N, prec, rnd), C, prec, rnd)
            return _mpf_add(head, s, prec, rnd), term

        return _FINF, flat

    def moments(p: int):
        r = _mpf_rdiv_int(1, _mpf_sub(_FONE, q, p, rnd), p, rnd)
        qr = _mpf_mul(q, r, p, rnd)
        a1 = _mpf_mul(_mpf_mul(A, _mpf_add(q, _FONE, p, rnd), p, rnd), r, p, rnd)
        inner = _mpf_add(_mpf_mul(_mpf_add(a1, B, p, rnd), r, p, rnd), C, p, rnd)
        return r, qr, a1, _mpf_add(head, _mpf_mul(qr, inner, p, rnd), p, rnd)

    U = moments(prec)[3]
    first = _mpf_mul(q, _mpf_add(_mpf_add(A, B, prec, rnd), C, prec, rnd), prec, rnd)
    g = 30 + max(0, _mpf_mag(U) - _mpf_mag(_mpf_add(head, first, prec, rnd)))
    pg = prec + g
    r, qr, a1, U_g = moments(pg)

    def at(n: int):
        N = n + 1
        qN, an = _mpf_pow_int(q, N, pg, rnd), _mpf_mul_int(A, N, pg, rnd)
        poly = _mpf_add(_mpf_mul_int(_mpf_add(an, B, pg, rnd), N, pg, rnd), C, pg, rnd)
        slope = _mpf_add(_mpf_add(_mpf_add(an, an, pg, rnd), B, pg, rnd), a1, pg, rnd)
        past = _mpf_add(poly, _mpf_mul(qr, slope, pg, rnd), pg, rnd)
        S = _mpf_sub(U_g, _mpf_mul(_mpf_mul(qN, r, pg, rnd), past, pg, rnd), pg, rnd)
        return _mpf_pos(S, prec, rnd), _mpf_pos(_mpf_mul(qN, poly, pg, rnd), prec, rnd)

    return U, at


@lru_cache(maxsize=16)
def _default_tol(dps: int, prec: int) -> mpf:
    # 1e-30, or 10^(10 - dps) where the digits cannot spare ten below
    # 1e-30; the caller passes mp.prec, so a value rounded at one
    # precision is never reused at another.
    return max(mpf("1e-30"), mpf(10) ** (10 - dps))


def _tail(n: int, term_next, q_up, prec: int, rnd: str):
    """Geometric bound term_{n+1} / (1 - rho_n) on the terms past n, raw.

    The quadratic's parts grow by at most ((k+1)/k)^2 per step, so every
    ratio term_{k+1}/term_k with k > n is at most rho_n = q_up ((n + 2) /
    (n + 1))^2, where q_up lies above q by more than its rounding.
    """
    ratio = _mpf_div(_mpf_pos(_from_int(n + 2), prec, rnd), _from_int(n + 1), prec, rnd)
    rho = _mpf_mul(q_up, _mpf_pow_int(ratio, 2, prec, rnd), prec, rnd)
    if not _mpf_lt(rho, _FONE):
        return _FINF
    return _mpf_div(term_next, _mpf_sub(_FONE, rho, prec, rnd), prec, rnd)


def _ln(v: mpf) -> float:
    """Natural logarithm of a positive mpf as a float, at any exponent."""
    return math.log(v.man) + v.exp * _LN2


def _predict_stop(x, q_up, A, B, C, limit) -> int:
    """Estimate of the first n >= 1 with tail_n <= limit, where term_n = e^(n x) p(n).

    Past the first n with rho_n < 1 the tail is decreasing in n (a
    decreasing term over a growing 1 - rho_n), so the condition is
    monotone.  Its crossing is found in double precision from
    logarithms, which cost no exp: a first guess, widened around by
    _search_from.  The guess only sets how many probes that takes; past
    about 10^15, where doubles no longer resolve consecutive indices and
    the float condition is monotone only up to rounding, it can also
    move the estimate by a few units in its last digits.
    """
    # p(m) = s (a m^2 + b m + c) with max(a, b, c) = 1 keeps the floats
    # in range whatever the size of A, B, C.
    s = max(A, B, C)
    a, b, c = float(A / s), float(B / s), float(C / s)
    # ln q_up = x + ln(1 + 8u), kept accurate even when q is near 1.
    xf = float(x)
    ln_q_up, goal = xf + 8 * 2.0**-mp.prec, _ln(limit) - _ln(s)
    if ln_q_up >= 0:  # rho_n >= 1 at every n: the condition never holds
        return _ESTIMATE_LIMIT

    def ln_rho(m) -> float:
        return ln_q_up + 2 * math.log1p(1 / m)

    def meets(n: int) -> bool:
        m = n + 1
        lr = ln_rho(m)
        if lr >= 0:
            return False
        ln_p = math.log((a * m + b) * m + c)
        return m * xf + ln_p - math.log(-math.expm1(lr)) <= goal

    # The tail at m = n + 1 is e^(m x) e^r(m), r = ln p(m) - ln(1 - rho),
    # so the crossing solves m = (goal - r(m)) / x.  Start from r = 0 and
    # take two fixed-point steps: r varies like ln m, so each step gains
    # a factor of about m |x| / 2 in accuracy.
    m = goal / xf
    for _ in range(2):
        m = max(m, 1.0)
        r, lr = math.log((a * m + b) * m + c), ln_rho(m)
        if lr < 0:
            r -= math.log(-math.expm1(lr))
        m = (goal - r) / xf
    guess = math.ceil(min(max(m, 1.0), _ESTIMATE_LIMIT)) - 1
    return _search_from(meets, max(guess, 1), _ESTIMATE_LIMIT)


def _search_from(meets, n: int, limit: int = _AUTO_N_CAP + 1) -> int:
    """First m in [1, limit) with meets(m), for meets monotone, probing n and n - 1 first.

    A probe on the wrong side of the crossing widens the bracket outward,
    doubling its step, and the bracket left is bisected.  Returns limit,
    which is never probed, if meets holds nowhere below it.
    """
    step = 1
    if meets(n):
        lo, hi = n - 1, n
        while lo > 0 and meets(lo):
            lo, hi = max(0, lo - step), lo
            step *= 2
    else:
        lo, hi = n, n + 1
        while hi < limit and not meets(hi):
            lo, hi = hi, min(hi + step, limit)
            step *= 2
    return lo + 1 + bisect_left(range(lo + 1, hi), True, key=meets)


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
    decay.  A tolerance that is not positive, or an n_max that is not
    an int >= 1 (bool included), raises ValueError before any work.
    """
    rel_tol = _default_tol(mp.dps, mp.prec) if tol is None else to_mpf(tol)
    if not rel_tol > 0:
        raise ValueError(f"tolerance must be positive, got {rel_tol}")
    if n_max is not None and (type(n_max) is bool or not isinstance(n_max, int)):
        raise ValueError(f"n_max must be an integer, got {n_max!r}")
    if n_max is not None and n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    _check_field(field)
    prec, rnd = mp._prec_rounding
    weight = _mpf_div(_FONE, _FTWO, prec, rnd) if field is FieldKind.SCALAR else _FONE

    x, q, A, B, C = _tower(geom, cutoff, weight, prec, rnd)
    head = _mpf_div(C, _FTWO, prec, rnd) if field is FieldKind.ELECTROMAGNETIC else _FZERO
    u = _mpf_shift(_FONE, -prec)
    # Keeps the computed rho_n above the exact one despite its roundings.
    q_up = _mpf_mul(q, _mpf_add(_mpf_mul_int(u, 8, prec, rnd), _FONE, prec, rnd), prec, rnd)
    if n_max is None and _mpf_ge(q_up, _FONE):
        raise NotConverged(f"mode terms do not decay at {prec}-bit precision")

    def drift_per_unit(n: int):
        return _mpf_mul_int(u, _DRIFT_C * (n + 2), prec, rnd)

    whole, partial = _partial_sums(q, A, B, C, head, prec, rnd)
    tol_raw = rel_tol._mpf_
    checked = {}

    def bounded(n: int):
        if n not in checked:
            s, term = partial(n)
            t = _tail(n, term, q_up, prec, rnd)
            drift = _mpf_mul(drift_per_unit(n), _mpf_add(s, t, prec, rnd), prec, rnd)
            checked[n] = s, _mpf_add(t, drift, prec, rnd)
        return checked[n]

    def meets(n: int) -> bool:
        s, bound = bounded(n)
        return _mpf_le(bound, _mpf_mul(tol_raw, s, prec, rnd))

    if n_max is None:
        limit = _mpf_mul(tol_raw, whole, prec, rnd)
        predicted = _predict_stop(*map(_make_mpf, (x, q_up, A, B, C, limit)))
        if predicted > _AUTO_N_CAP:
            raise NotConverged(
                f"predicted stopping index {predicted} for relative tolerance "
                f"{mp.nstr(rel_tol, 3)} exceeds the cap of {_AUTO_N_CAP} modes"
            )
        drift = drift_per_unit(predicted)
        if _mpf_ge(drift, tol_raw):
            raise NotConverged(
                f"relative tolerance {mp.nstr(rel_tol, 3)} is below the rounding "
                f"drift {mp.nstr(_make_mpf(drift), 3)} of {prec}-bit "
                f"arithmetic at the predicted stopping index {predicted}"
            )
        n_max = _search_from(meets, predicted)
        if n_max > _AUTO_N_CAP:
            raise NotConverged(
                f"remainder bound not below {rel_tol} within {_AUTO_N_CAP} modes"
            )
    elif tol is not None and not meets(n_max):
        raise NotConverged(
            f"remainder bound {_make_mpf(bounded(n_max)[1])} exceeds tolerance "
            f"at n_max = {n_max}"
        )
    return ModeSumResult(*map(_make_mpf, bounded(n_max)), n_max)
