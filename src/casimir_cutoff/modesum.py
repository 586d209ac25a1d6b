"""Regularized vacuum energy per unit area between parallel plates.

The energy density per unit plate area is a sum over discrete standing
waves (index n, frequencies omega = sqrt(k^2 + (n pi/a)^2)) with the
transverse momentum integral done in closed form.  Two regulator
parameters enter: an exponential cutoff scale epsilon multiplying the
frequency, and a dimensionless shape parameter lambda that adds back a
mode-dependent factor exp(lambda*epsilon*n*pi/a).  Convergence of the
sum requires lambda < 1; every term is then positive, and the terms
past any index sum in closed form, which gives a certified remainder
bound rather than a heuristic one.  Where q rounds so close to 1 at
the working precision that the terms no longer decay, the sum is
refused, for a given range of modes as for the automatic one.

Each term is q^n times a quadratic in n, with q = exp((lambda - 1)
epsilon pi / a), so one exponential serves every term, and the
geometric moments of q^n give in closed form the infinite sum, the
terms past n, which are the remainder bound, and, as their
difference, every partial sum: the cost of a sum does not depend on
how many modes it holds.  The index where the bound meets the
tolerance is estimated in double precision from the logarithm of the
same closed form, rounding drift included, and confirmed by one exact
evaluation of it, or two where the float value one below does not
clear the tolerance by more than the floats' error; parameters that
would need more modes than the cap fail at once.  The whole sum, which
only that estimate reads, is not formed at the working precision: the
estimate takes its logarithm from the same moments as floats.  The
guard bits come from exponents already in hand, those of epsilon, a
and the rounded r = 1 / (1 - q), so no magnitude is evaluated to
choose them.  The bound also covers the rounding drift, and the
default tolerance follows the working precision, so a sum is certified
at every precision.

The sum's arithmetic runs on mpmath's raw values (``._mpf_`` tuples)
through ``libmp``, with each precision passed to each call instead of
set by ``mp.extraprec``.  The calls are the ones mpf's operators make
(``mpf_mul`` for ``*``, ``mpf_mul_int`` for an int times an mpf,
``mpf_rdiv_int`` for an int over one, ``mpf_pow_int`` for an integer
power, ``mpf_exp`` and ``mpf_pi`` behind ``exp`` and ``pi``, ``mpf_pos``
for unary ``+``), in the same order, at the same precision and with the
same rounding, so every result has the bits of the operator form that
the tests keep as a reference.  mpf objects are made only at the edges:
the result and the error messages.

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
# Rounding drift: c in c u [(n + 2) (S_n + T_n) + 3 r T_n], with
# u = 2^-prec and r = 1 / (1 - q).  q, A, B, C enter within u of their
# exact values (_tower) and are then taken as exact: _partial_sums
# evaluates S_n and the terms past n, T_n, of the series they define at
# prec + g bits and rounds each once to prec.  Every quantity is
# positive, so errors compound multiplicatively; while (n + 3r) u <=
# 1e-4, k roundings cost at most 1.0001 times their sum.  Term m
# carries m u from q^m and u from p(m).  Counting them:
# - S_n: the head and terms 1 to n, so the partial sum of the rounded
#   series is within (n + 1) u of the exact one; its evaluation at
#   prec + g bits stays within 2^-20 u (_partial_sums), and rounding it
#   to prec costs u: (n + 2) u;
# - T_n: terms m > n, so within (M + 1) u of the exact tail, M the
#   mean index of the tail weighted by its terms.  With m = N + j, the
#   weights (N + j)^k q^j, k = 0, 1, 2, have means in j no larger than
#   (1 + j)^2 q^j has, r (1 + 4q + q^2) / (1 + q) - 1 <= 3r - 1, so
#   M <= n + 3r; with the evaluation and the rounding, (n + 2 + 3r) u.
# So |E - S_n| <= T_n + (n + 2) u (S_n + T_n) + 3 r u T_n up to the
# factor 1.0001, and c = 5 leaves four times that for rounding the
# bound itself.  Past 3 r u = 1e-4, up to the 3/8 that the refusal of
# q (1 + 8u) >= 1 leaves, the rounded inputs move T_n, whose largest
# part grows like r^3, by at most (1 - r u)^-3 - 1 < 0.53 of it, below
# the 15 r u T_n charged.
_DRIFT_C = 5
# Certificate of the float estimate n: where the float ln T_{n-1} exceeds
# the float goal ln(tol U) by delta = 2^-30 s, the exact rule fails at
# n - 1, which is then not probed; s = 1 + prec + |goal| + |n x| +
# |ln A| + |ln B| + |ln C| + 3 |ln r| bounds every number the floats
# form.  The rule holds at n - 1 only if t <= bound <= tol S_{n-1}
# (1 + u) <= tol U (1 + 3u), t the T_{n-1} and U the whole sum of
# _partial_sums.  The float ln of either closed form, T_m or U, and the
# ln of its exact value at the rounded q, A, B, C differ by
# - the rounded r, within 2u of 1 / (1 - q), in a bracket of degree 3
#   in r: 6u;
# - q against e^x, both rounded from one x with guard bits (_tower):
#   ln q = x + eta, |eta| <= u (1 + |x|), which moves T_{N-1}, with
#   its q^N, by (N + 2) |eta| and U - head by 2 |eta|;
# - x against its double: eta' = 2^-53 |x|, likewise;
# - the float arithmetic: a few dozen roundings of 2^-53 of at most s,
#   the logarithms of prec-bit mantissas included.
# The goal is ln tol plus ln U, from U = head + q r (A (1 + q) r^2 +
# B r + C), so it is within 6u + 2 (|eta| + |eta'|) of ln(tol U) plus
# its float arithmetic, and the rule fails once ln t exceeds the goal by
# 9u + 2 (|eta| + |eta'|) and that arithmetic.  t, evaluated at
# prec + g bits and rounded (_partial_sums), is within 2u of T_{n-1}.
# With n <= 50 001 (the cap is checked first) and u <= 2^-53 (15 digits
# and up), all of it is far below 2^-30 s.
_CERTIFY_BITS = 30
# The float estimate of the stopping index searches no further.
_ESTIMATE_LIMIT = 1 << 62
_LN2 = math.log(2)

_FZERO, _FONE, _FTWO = libmp.fzero, libmp.fone, libmp.from_int(2)
_mpf_shift, _mpf_exp, _mpf_pi = libmp.mpf_shift, libmp.mpf_exp, libmp.mpf_pi
_mpf_add, _mpf_sub, _mpf_mul, _mpf_div = (
    libmp.mpf_add, libmp.mpf_sub, libmp.mpf_mul, libmp.mpf_div
)
_mpf_mul_int, _mpf_rdiv_int, _mpf_pow_int, _mpf_pos = (
    libmp.mpf_mul_int, libmp.mpf_rdiv_int, libmp.mpf_pow_int, libmp.mpf_pos
)
_mpf_le, _mpf_ge, _to_float = libmp.mpf_le, libmp.mpf_ge, libmp.to_float
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
    Since 0 <= lambda < 1, eps < 2^(mag eps), pi < 4 and a >=
    2^(mag a - 1), |x| = (1 - lambda) eps pi / a < 2^(mag eps - mag a +
    3), and x rounded at prec bits, within a few roundings of 2^-prec of
    it, is below 2^(mag eps - mag a + 4).  So 20 bits plus that
    exponent, where it is positive, are never fewer than 20 plus mag(x)
    at prec bits, and cost no evaluation of x.
    """
    lam, eps, a = cutoff.lam._mpf_, cutoff.epsilon._mpf_, geom.a._mpf_
    p = prec + 20 + max(0, _mpf_mag(eps) - _mpf_mag(a) + 4)
    pi_p = _mpf_pi(p, rnd)
    x = _mpf_mul(_mpf_mul(_mpf_sub(lam, _FONE, p, rnd), eps, p, rnd), pi_p, p, rnd)
    x = _mpf_div(x, a, p, rnd)
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
    """r and n -> (S_n, T_n) for U = head + sum q^n p(n), n >= 1, raw.

    p(n) = A n^2 + B n + C, q < 1 (energy_mode_sum refuses a q that
    rounds too close to 1 first), and q, A, B, C are taken as exact.
    The geometric moments of q^n give U = head + q r (A (1 + q) r^2 +
    B r + C), with r = 1 / (1 - q), and the terms past n, with N = n + 1:
    T_n = q^N [p(N) r + (2 A N + B) q r^2 + A q (1 + q) r^3], every part
    positive.  So S_n = U - T_n whatever n is, from one integer power.
    r is rounded to prec bits; it serves the rounding drift, the float
    estimate and the guard bits.  Since r >= 1, U - head is at most
    (1 + q) r^3 < 2 r^3 times term_1 = q (A + B + C), and S_n >= head +
    term_1, so the difference cancels at most U / (head + term_1) <
    2 r^3, with r within 2u of the rounded r < 2^(mag r).  Working at
    prec + g bits, g = 32 + 3 mag r, keeps the few dozen roundings of U
    and T_n, each 2^-(prec + g) of U, below 2^-20 u of S_n.  The
    magnitudes of U and head + term_1 rounded at prec bits differ by
    less than 1 + log2 of their ratio, so by at most 2 + 3 mag r: g is
    never below 30 plus that difference.  Each value is rounded once to
    prec bits.
    """
    r = _mpf_rdiv_int(1, _mpf_sub(_FONE, q, prec, rnd), prec, rnd)
    pg = prec + 32 + 3 * _mpf_mag(r)
    r_g = _mpf_rdiv_int(1, _mpf_sub(_FONE, q, pg, rnd), pg, rnd)
    qr = _mpf_mul(q, r_g, pg, rnd)
    a1 = _mpf_mul(_mpf_mul(A, _mpf_add(q, _FONE, pg, rnd), pg, rnd), r_g, pg, rnd)
    inner = _mpf_add(_mpf_mul(_mpf_add(a1, B, pg, rnd), r_g, pg, rnd), C, pg, rnd)
    U = _mpf_add(head, _mpf_mul(qr, inner, pg, rnd), pg, rnd)

    def at(n: int):
        N = n + 1
        qN, an = _mpf_pow_int(q, N, pg, rnd), _mpf_mul_int(A, N, pg, rnd)
        poly = _mpf_add(_mpf_mul_int(_mpf_add(an, B, pg, rnd), N, pg, rnd), C, pg, rnd)
        slope = _mpf_add(_mpf_add(_mpf_add(an, an, pg, rnd), B, pg, rnd), a1, pg, rnd)
        past = _mpf_add(poly, _mpf_mul(qr, slope, pg, rnd), pg, rnd)
        T = _mpf_mul(_mpf_mul(qN, r_g, pg, rnd), past, pg, rnd)
        return _mpf_pos(_mpf_sub(U, T, pg, rnd), prec, rnd), _mpf_pos(T, prec, rnd)

    return r, at


@lru_cache(maxsize=16)
def _default_tol(dps: int, prec: int) -> mpf:
    # 1e-30, or 10^(10 - dps) where the digits cannot spare ten below
    # 1e-30; the caller passes mp.prec, so a value rounded at one
    # precision is never reused at another.
    return max(mpf("1e-30"), mpf(10) ** (10 - dps))


def _ln(v) -> float:
    """Natural logarithm of a positive raw value as a float, at any exponent a double holds."""
    return math.log(v[1]) + v[2] * _LN2


def _lse(*logs: float) -> float:
    """ln of the sum of exp(v) over logs, with no exp that overflows."""
    top = max(logs)
    return top + math.log(sum(math.exp(v - top) for v in logs))


def _predict_stop(xf: float, head, A, B, C, r, tol, prec: int) -> tuple[int, int, bool]:
    """Float estimates (n, start, certified) of where the stopping rule first holds.

    xf is the double of x; head, A, B, C, r = 1 / (1 - q) and tol are
    raw.  The goal is ln(tol U), U the whole sum of _partial_sums, from
    the same moments in logarithms.
    n is the first n >= 1 with ln T_n <= goal, T_n the terms past n
    of e^(n x) p(n): the index the cap and the drift are checked at.
    start, where the exact search starts, is the first m >= n where the
    exact rule, drift included, holds in floats:
    T_m (1 + tol + 15 r u) <= U (tol - 5 u (m + 2)), with u = 2^-prec,
    but at most the cap + 1, where one probe settles a sum the cap
    refuses.  It is n where the drift is negligible, and n again where
    the drift reaches tol before the rule holds.  certified says that the
    exact rule certainly fails at n - 1, so that start = n needs no probe
    there (_CERTIFY_BITS).

    T_n falls strictly with n, so the condition is monotone.  Its
    crossing is found in double precision from the logarithm of
    _partial_sums' closed form of T_n, which costs no exp of the
    working precision: a first guess, widened around by _search_from.
    The guess only sets how many probes that takes; past about 10^15,
    where doubles no longer resolve consecutive indices and the float
    condition is monotone only up to rounding, it can also move the
    estimate by a few units in its last digits.
    """
    # energy_mode_sum refuses a q within 8 2^-prec of 1 first, so this
    # holds only where x underflows to 0 as a double: the floats then
    # see no decay at all, and no crossing is predicted.
    if xf >= 0:
        return _ESTIMATE_LIMIT, _ESTIMATE_LIMIT, False
    # x is beyond a double's range: each term is below e^-(10^308) of the
    # one before it, so the first mode decides.
    if xf == -math.inf:
        return 1, 1, False
    # Every factor is taken as a logarithm, ln r of the rounded r
    # included, so none overflows where r or A / C does.
    la, lb, lc, lt, lr = _ln(A), _ln(B), _ln(C), _ln(tol), _ln(r)
    lq1 = xf + math.log1p(math.exp(xf))  # ln q (1 + q)
    grow = _lse(0.0, lt, math.log(3 * _DRIFT_C) + lr - prec * _LN2)  # ln (1 + tol + 15 r u)
    ln_t = {}  # ln T_n of every n probed

    def rest(m: float) -> float:  # ln T - m x at m = n + 1
        lm = math.log(m)
        return _lse(
            la + 2 * lm + lr, lb + lm + lr, lc + lr,
            _LN2 + la + lm + xf + 2 * lr, lb + xf + 2 * lr, la + lq1 + 3 * lr,
        )

    # ln(U - head), U - head = q r (A (1 + q) r^2 + B r + C)
    ln_u = xf + lr + _lse(la + math.log1p(math.exp(xf)) + 2 * lr, lb + lr, lc)
    goal = lt + (ln_u if head == _FZERO else _lse(_ln(head), ln_u))

    def meets(n: int) -> bool:
        if n not in ln_t:
            ln_t[n] = (n + 1) * xf + rest(n + 1)
        return ln_t[n] <= goal

    def drift_share(n: int) -> float:  # ln (5 u (n + 2) / tol)
        return math.log(_DRIFT_C * (n + 2)) - prec * _LN2 - lt

    def meets_drift(n: int) -> bool:  # past the drift's reach, meets alone
        ld = drift_share(n)
        return meets(n) and (ld >= 0 or ln_t[n] + grow <= goal + math.log1p(-math.exp(ld)))

    def clamp(m: float) -> float:  # a quotient by a subnormal x can be inf
        return min(max(m, 1.0), _ESTIMATE_LIMIT)

    # The crossing solves m = (goal - rest(m)) / x.  Start from rest = 0
    # and take two fixed-point steps: rest varies like ln m, so each
    # step gains a factor of about m |x| / 2 in accuracy.
    m = clamp(goal / xf)
    for _ in range(2):
        m = clamp((goal - rest(m)) / xf)
    n = _search_from(meets, max(math.ceil(m) - 1, 1), _ESTIMATE_LIMIT)
    if not meets_drift(n):  # meets fails below n, so meets_drift does too
        start = _search_from(meets_drift, n + 1, _ESTIMATE_LIMIT)
        # n where the drift reaches tol before the rule holds
        return n, n if drift_share(start) >= 0 else min(start, _AUTO_N_CAP + 1), False
    scale = 1 + prec + abs(goal) + abs(n * xf) + abs(la) + abs(lb) + abs(lc) + 3 * abs(lr)
    return n, n, ln_t.get(n - 1, goal) - goal > scale * 2.0**-_CERTIFY_BITS


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
    the sum of the terms past n, T_n, plus the rounding drift
    5 u [(n + 2) (S_n + T_n) + 3 r T_n], with u = 2^-prec and
    r = 1 / (1 - q).

    If q rounds so close to 1 that the terms no longer decay,
    NotConverged is raised, with n_max given or not.  Otherwise, with
    n_max given, sums exactly that range and reports the bound, which is
    finite (NotConverged only if a tolerance is also given and the bound
    misses it).  With n_max omitted, returns the first n whose bound is
    within the relative tolerance of S_n; the default is 1e-30, or
    10^(10 - dps) where the working precision cannot reach 1e-30.  That
    index is estimated in double precision from the whole sum, drift
    included, then the rule is evaluated at the estimate, and one below
    it unless the float value there misses the tolerance by more than
    the floats' error (_CERTIFY_BITS): the same evaluation a given n_max
    makes, so both give the same result.  NotConverged is raised before
    any such probe if the estimate exceeds the 50 000-mode cap or if the
    rounding drift there already exceeds the tolerance.  A tolerance
    that is not positive and finite (NaN included), or an n_max that is
    not an int >= 1 (bool included), raises ValueError before any work.
    """
    rel_tol = _default_tol(mp.dps, mp.prec) if tol is None else to_mpf(tol)
    if not 0 < rel_tol < mp.inf:
        raise ValueError(f"tolerance must be positive and finite, got {rel_tol}")
    if n_max is not None and (type(n_max) is bool or not isinstance(n_max, int)):
        raise ValueError(f"n_max must be an integer, got {n_max!r}")
    if n_max is not None and n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    _check_field(field)
    prec, rnd = mp._prec_rounding
    weight = _mpf_div(_FONE, _FTWO, prec, rnd) if field is FieldKind.SCALAR else _FONE

    x, q, A, B, C = _tower(geom, cutoff, weight, prec, rnd)
    xf = _to_float(x, False, rnd)  # the double float(mpf) gives
    head = _mpf_div(C, _FTWO, prec, rnd) if field is FieldKind.ELECTROMAGNETIC else _FZERO
    u = _mpf_shift(_FONE, -prec)
    # Refuses a q within 8u of 1, where the rounded inputs need not make
    # a decaying series and _DRIFT_C no longer covers what they move.
    q_up = _mpf_mul(q, _mpf_add(_mpf_mul_int(u, 8, prec, rnd), _FONE, prec, rnd), prec, rnd)
    if _mpf_ge(q_up, _FONE):
        raise NotConverged(f"mode terms do not decay at {prec}-bit precision")

    def drift_per_unit(n: int):
        return _mpf_mul_int(u, _DRIFT_C * (n + 2), prec, rnd)

    r, partial = _partial_sums(q, A, B, C, head, prec, rnd)
    tail_unit = _mpf_mul_int(_mpf_mul(u, r, prec, rnd), 3 * _DRIFT_C, prec, rnd)
    tol_raw = rel_tol._mpf_
    checked = {}

    def bounded(n: int):
        if n not in checked:
            s, t = partial(n)
            drift = _mpf_mul(drift_per_unit(n), _mpf_add(s, t, prec, rnd), prec, rnd)
            drift = _mpf_add(drift, _mpf_mul(tail_unit, t, prec, rnd), prec, rnd)
            checked[n] = s, _mpf_add(t, drift, prec, rnd)
        return checked[n]

    def meets(n: int) -> bool:
        s, bound = bounded(n)
        return _mpf_le(bound, _mpf_mul(tol_raw, s, prec, rnd))

    if n_max is None:
        estimate, start, certified = _predict_stop(xf, head, A, B, C, r, tol_raw, prec)
        if estimate > _AUTO_N_CAP:
            index = estimate if estimate < _ESTIMATE_LIMIT else "beyond the float search's limit of 2^62"
            raise NotConverged(
                f"predicted stopping index {index} for relative tolerance "
                f"{mp.nstr(rel_tol, 3)} exceeds the cap of {_AUTO_N_CAP} modes"
            )
        drift = drift_per_unit(estimate)
        if _mpf_ge(drift, tol_raw):
            raise NotConverged(
                f"relative tolerance {mp.nstr(rel_tol, 3)} is below the rounding "
                f"drift {mp.nstr(_make_mpf(drift), 3)} of {prec}-bit "
                f"arithmetic at the predicted stopping index {estimate}"
            )
        n_max = start if certified and meets(start) else _search_from(meets, start)
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
