"""The frozen-copy coth kernel: the one rounding of every closed form.

The energy expansion in ``expansion`` and the electromagnetic stress
coefficients in ``stress`` both expand the frozen-copy derivative of
coth((eps - lambda eps') c) with c = pi/2a, through
coth u = sum_n beta_n u^(2n-1), beta_n = 2^(2n) B_2n / (2n)!.  Each of
their coefficients is beta_n (pi/2)^m / 4 pi times a polynomial in
lambda, over powers of a and of mu = 1 - lambda.  ``_frozen_coth_term``
takes that numerator and denominator from the caller and rounds the
whole quotient once.  The scalar stress coefficients carry its m = 3
and m = 1 factors, -pi^2/1440 and 1/24, so they are rounded by it too.
It loads without ``expansion``, so the stress starts do not compile
the energy layer.

Everything runs on mpmath's raw values.  The two caches hold constants
only: beta_n (pi/2)^m / 4 pi as a pair of raw factors per m and number
of bits, exact but for pi's power (``_beta``), and pi^k per k and
number of bits (``_pi_power``).  Neither depends on a, lambda, z or the
splitting.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

from mpmath import libmp

_from_int, _mpf_mul = libmp.from_int, libmp.mpf_mul

# Guard bits of pi^k and of the callers' powers of a and mu.
_GUARD = 20


@lru_cache(maxsize=64)
def _pi_power(k: int, bits: int):
    """Raw pi^k for k >= 1, within 2^(2 - bits) of it relatively.

    pi is taken with enough extra bits that its k-th power loses less
    than one of them; the power is then rounded to ``bits``.
    """
    return libmp.mpf_pow_int(libmp.mpf_pi(bits + k.bit_length() + 2), k, bits, "n")


@lru_cache(maxsize=64)
def _beta(m: int, bits: int) -> tuple:
    """Raw (num, den) whose quotient is beta_n (pi/2)^m / 4 pi, m = 2n - 1.

    beta_n = p / q comes from the exact Bernoulli fraction (mpmath's own
    bernoulli would round B_2n first), and the quotient is
    p pi^(m-1) / (q 2^(m+2)): p and q 2^(m+2) are exact, and pi^(m-1),
    taken to ``bits``, joins whichever side keeps its power positive.
    """
    p, q = libmp.bernfrac(m + 1)
    num, den = _from_int(p << (m + 1)), _from_int(q * factorial(m + 1) << (m + 2))
    if m != 1:
        pi = _pi_power(abs(m - 1), bits)
        num, den = (_mpf_mul(num, pi), den) if m > 1 else (num, _mpf_mul(den, pi))
    return num, den


def _frozen_coth_term(m: int, num, den, prec: int, rnd: str):
    """Raw beta_n c^m num / (4 pi den) with c = pi/2, rounded once.

    For odd m = 2n - 1 >= -1, mu = 1 - lambda and c = pi/2a: the k-th
    eps-derivative of coth((eps - lambda eps') c), taken with eps'
    frozen and then set to eps, is
    sum_n beta_n c^m m (m-1) ... (m-k+1) mu^(m-k) eps^(m-k).  The
    caller puts a^-m, the powers of mu and its polynomial in lambda
    into num and den, and ``_beta`` the rest, pi^(m-1) within
    2^-(prec + 18) of its value.  When the relative errors of num and
    den add up to at most 2^-(prec + 18) as well, the quotient before
    its one rounding is within 2^-(prec + 17) of the exact one, so the
    result is within 1/2 + 2^-17 ulp of it, and an exact zero for a
    zero num.
    """
    p, q = _beta(m, prec + _GUARD)
    return libmp.mpf_div(_mpf_mul(num, p), _mpf_mul(den, q), prec, rnd)
