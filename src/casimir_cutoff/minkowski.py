"""Flat-spacetime linear algebra at extended precision: transforms and tensors.

Conventions: coordinates are ordered (t, x, y, z), the metric signature
is (-, +, +, +), and index placement follows the usual rule that a
Lorentz matrix L acts on contravariant components as v' = L v.  The
plates sit at fixed z, so boosts and rotations that preserve the plate
geometry act only in the (t, x, y) block.

The vectors, ``FourVector`` and the point-splitting ``SeparationVector``,
are regulator input and are defined in ``params``; this module binds
both names too.  Everything is stored as tuples of mpf, so instances are
immutable and hashable and survive precision changes without silent
rounding.  Each value type is itself a tuple of its fields
(``value_type``), validated on construction and by ``_replace``.

Every sum of products here (matrix products, the metric check and
tensor transforms) goes through the package's one product-sum kernel,
``_rdot``, which lives in ``params`` next to the Minkowski square
``_rsquare``, since a splitting's square needs it without the rest of
this module; see ``params`` for the bits it forms.  The matrix product
takes and returns raw rows; the metric check and ``transform_tensor``
read each matrix's raw values once; the check's sums and
``transform_tensor``'s intermediate product L T stay raw, and an mpf is
built only for an entry a caller receives.

Validation runs on raw values as well: the metric check with its scaled
bound, and ``SymTensor4.trace``.  Every ``LorentzTransform`` is built by
``_checked_transform``, which checks raw rows and only then makes the
mpf matrix: the constructor's converted entries, the raw entries of
``boost`` and ``rotation_xy``, and the raw product of ``compose``, whose
bound is scaled by its factors.  The inverse g L^T g and the vector it
moves stay raw until the vector is returned.
Comparisons are ``libmp.mpf_gt``, ``mpf_le`` and ``mpf_lt``, False
against a NaN as mpf's operators are, and ``_rmax`` takes a maximum as
``max`` takes it over mpf, so every outcome and error message is the
operator form's.  The metric check is first decided by an exact
certificate: the defects are formed in integers, with a bound on what
the rounded form's roundings add (``_metric_certified``).  Only a
matrix that certificate cannot pass, such as one with a defect near
the tolerance, a non-finite entry or a large rapidity, has its defects
rounded and tested (``_rounded_metric_check``).  Only ``SymTensor4``'s
own symmetry check, which no point's path runs, still uses mpf
operators.
"""

from __future__ import annotations

from functools import lru_cache, reduce

from mpmath import fabs, isnan, libmp, mp, mpf

from .params import FourVector, SeparationVector, _rdot
from .precision import to_mpf, value_type

# FourVector and SeparationVector are bound here for the callers that
# import them from this module.
__all__ = ["DIM", "METRIC_DIAG", "FourVector", "LorentzTransform", "SeparationVector",
           "SymTensor4", "boost", "rotation_xy", "transform_tensor"]

DIM = 4

# Diagonal of the metric tensor, ordered (t, x, y, z).
METRIC_DIAG = (mpf(-1), mpf(1), mpf(1), mpf(1))

_ZERO = mpf(0)

_FZERO, _FONE = libmp.fzero, libmp.fone
_mpf_abs, _mpf_add, _mpf_gt, _mpf_le = libmp.mpf_abs, libmp.mpf_add, libmp.mpf_gt, libmp.mpf_le
_mpf_mul, _mpf_neg, _mpf_sub = libmp.mpf_mul, libmp.mpf_neg, libmp.mpf_sub
_make_mpf = mp.make_mpf


@lru_cache(maxsize=16)
def _validation_tol(dps: int, prec: int) -> mpf:
    # Relative tolerance: ten digits of slack below working precision,
    # for the rounding that composed transforms accumulate.  Callers
    # scale it by the size of the entries they check, and pass mp.prec
    # too, so a value rounded at one precision is never reused at another.
    return mpf(10) ** (10 - dps)


Matrix = tuple[tuple[mpf, ...], ...]


def _as_matrix(rows) -> Matrix:
    m = tuple(tuple(to_mpf(e) for e in row) for row in rows)
    if [len(row) for row in m] != [DIM] * DIM:
        raise ValueError(f"matrix must be {DIM} x {DIM}, got rows of lengths {[len(r) for r in m]}")
    return m


def _rmax(values) -> tuple:
    # max of raw values as max takes it over mpf: the first of equals,
    # and a NaN only when it comes first.
    return reduce(lambda worst, d: d if _mpf_gt(d, worst) else worst, values)


def _largest(rows) -> tuple:
    # Raw max |e| over raw rows, as max and fabs take it.
    prec, rounding = mp._prec_rounding
    return _rmax(_mpf_abs(e, prec, rounding) for row in rows for e in row)


def _raw(m: Matrix) -> list:
    return [[e._mpf_ for e in row] for row in m]


def _mat_mul(a, b) -> list:
    # The raw rows of a b from the raw rows of a and b.
    prec, rounding = mp._prec_rounding
    cols = tuple(zip(*b))
    return [[_rdot(zip(r, c), prec, rounding) for c in cols] for r in a]


def _apply(rows, v: FourVector) -> FourVector:
    # L v from the raw rows of L, each component as _rdot forms it.
    prec, rnd = mp._prec_rounding
    v = [c._mpf_ for c in v]
    return tuple.__new__(FourVector, (_make_mpf(_rdot(zip(row, v), prec, rnd)) for row in rows))


def _inverse_rows(rows, prec: int, rounding: str) -> list:
    # g m^T g of m's raw rows, entry (i, j) = g_i m[j][i] g_j.  Every g_i
    # is +-1, so each entry is a stored entry with at most a sign flip,
    # made as mpf's unary minus makes it: no product or linear solve.
    # Only g_t is -1, so the flipped entries are those with exactly one t
    # index.
    t, *spatial = zip(*rows)  # the columns of m
    return [(t[0], *(_mpf_neg(e, prec, rounding) for e in t[1:]))] + [
        (_mpf_neg(c[0], prec, rounding), *c[1:]) for c in spatial]


def _check_metric(raw, factors=()) -> None:
    """Raise ValueError unless m, given by its raw rows, preserves the metric.

    g is diagonal, so (m^T g m)_{ij} is the sum over k of m[k][i] (g_k
    m[k][j]); it is symmetric, so only the upper triangle is formed,
    each entry by ``_rdot`` in order of k.  The entries sum
    products of two entries of m, so the tolerance scales
    with max(1, max |m|)^2; for a product, whose entries carry the
    rounding of its factors' entries, also with the product of
    max(1, max |f|) over the factors, the larger when the product
    cancels, as boost(r) after boost(-r) does.

    ``_metric_certified`` decides first, in exact integers, whether
    every rounded defect is sure to pass the first test, defect <= tol;
    then the check is done.  Only when it cannot decide does
    ``_rounded_metric_check`` form the rounded defects, so every outcome
    and every message is the rounded form's.
    """
    if not _metric_certified(raw, mp.prec):
        _rounded_metric_check(raw, factors)


def _metric_certified(raw, prec: int) -> bool:
    """True when every defect ``_rounded_metric_check`` rounds is at most tol.

    With lo the least of 0 and the entries' exponents, each entry is an
    integer times 2^lo, so E = m^T g m - g is formed exactly as integers
    times 2^(2 lo), and so is S = max_i sum_k m[k][i]^2, which bounds every
    sum_k |m[k][i] m[k][j]| (Cauchy-Schwarz).  The rounded form's entry
    rounds each of at most 4 products and 3 sums, and on the diagonal
    the subtraction of g_i; each rounding is within u = 2^(1 - prec)
    relatively, whatever the rounding mode, so its rounded defect D is
    within gamma_4 S (1 + u) + u |E| <= gamma_5 (S + 1) of E, with
    gamma_k = k u / (1 - k u) and gamma_5 < 2^(4 - prec) from prec = 5
    up.  Every defect so passes when max |E| + 2^(4 - prec) (S + 1) <=
    tol, which is compared exactly.  A NaN or infinite entry, exponents
    spread over more than 4 prec, which would make the integers long,
    or a defect the bound cannot clear returns False.
    """
    lo = hi = 0
    for row in raw:
        for _, man, exp, bc in row:
            if man:
                lo, hi = min(lo, exp), max(hi, exp + bc)
            elif exp:  # an infinity or a NaN; an exact zero has exponent 0
                return False
    if hi - lo > 4 * prec:
        return False
    cols = list(zip(*([(-man if sign else man) << (exp - lo) for sign, man, exp, _ in row]
                      for row in raw)))
    one, worst = 1 << -2 * lo, 0
    for i, (t, x, y, z) in enumerate(cols):
        for j in range(i, DIM):
            u, v, w, s = cols[j]
            exact = x * v + y * w + z * s - t * u
            if i == j:
                exact = exact + one if i == 0 else exact - one
            worst = max(worst, abs(exact))
    size = max(t * t + x * x + y * y + z * z for t, x, y, z in cols) + one
    # (max |E| + 2^(4 - prec) (S + 1)) 2^(2 lo) <= tol, compared exactly.
    bound = libmp.from_man_exp((worst << prec) + (size << 4), 2 * lo - prec)
    return _mpf_le(bound, _validation_tol(mp.dps, prec)._mpf_)


def _rounded_metric_check(raw, factors) -> None:
    """``_check_metric`` from rounded defects, both of its tests.

    Everything is formed on raw values, as mpf's ``*``, ``+``, ``-``,
    ``**``, ``fabs``, ``max``, ``fprod``, ``<=`` and ``<`` form it, so
    the outcome and the message are those of the operator form; the sums
    are already rounded at this precision, so their absolute value needs
    no rounding.  Only that scaled bound reads the factors, given by their
    raw rows too.
    """
    # g m: g = diag(-1, 1, 1, 1) only negates the t row, exactly.
    prec, rounding = mp._prec_rounding
    gcols = tuple(zip(*([[_mpf_neg(e, prec, rounding) for e in raw[0]]] + list(raw[1:]))))
    defects = []
    for i, col in enumerate(zip(*raw)):
        for j in range(i, DIM):
            acc = _rdot(zip(col, gcols[j]), prec, rounding)
            if i == j:
                acc = _mpf_sub(acc, METRIC_DIAG[i]._mpf_, prec, rounding)
            defects.append(_mpf_abs(acc))
    # Every defect meets a comparison, so a NaN one fails both tests.  An
    # infinite entry makes some defect infinite or NaN, and the strict
    # bound rejects an infinite defect even when its scale is infinite.
    tol = _validation_tol(mp.dps, mp.prec)._mpf_
    if all(_mpf_le(d, tol) for d in defects):
        return
    # tol * max(max(1, max |m|)^2, fprod(max(1, max |f|) for each factor f)).
    scale = libmp.mpf_pow_int(_rmax((_FONE, _largest(raw))), 2, prec, rounding)
    prod = _FONE
    for f in factors:
        prod = _mpf_mul(prod, _rmax((_FONE, _largest(f))), prec, rounding)
    bound = _mpf_mul(tol, _rmax((scale, prod)), prec, rounding)
    if not all(libmp.mpf_lt(d, bound) for d in defects):
        worst = _make_mpf(libmp.fnan if libmp.fnan in defects else _rmax(defects))
        raise ValueError(f"matrix does not preserve the metric: defect {mp.nstr(worst, 8)}")


class LorentzTransform(value_type("LorentzTransform", "matrix")):
    """Metric-preserving linear map, validated at construction.

    The matrix must be 4 x 4, and the defect max |(L^T g L - g)_{ij}|
    must stay below a tolerance tied to the working precision and scaled
    by the size of the entries (_check_metric); exact inputs (integer
    entries, or matrices built by boost/rotation_xy at current
    precision) pass with room to spare.
    Every construction goes through ``_checked_transform``; the results
    of ``compose`` are checked on the scale of their factors.
    """

    __slots__ = ()

    def __new__(cls, matrix: Matrix):
        return _checked_transform(_raw(_as_matrix(matrix)))

    def compose(self, other: "LorentzTransform") -> "LorentzTransform":
        """self after other: the matrix product, so it maps v to self(other(v))."""
        a, b = _raw(self.matrix), _raw(other.matrix)
        return _checked_transform(_mat_mul(a, b), (a, b))


def _checked_transform(rows, factors=()) -> LorentzTransform:
    # A transform from raw rows, checked (against the scale of the raw
    # factors' rows, for a product), then wrapped as mpf.
    _check_metric(rows, factors)
    return tuple.__new__(LorentzTransform, (tuple(tuple(map(_make_mpf, r)) for r in rows),))


def boost(rapidity) -> LorentzTransform:
    """Boost along x with the given rapidity; leaves y and z alone."""
    # One mpf_cosh_sinh call: mp.cosh and mp.sinh each make it and keep
    # one half, so the entries are bit for bit theirs.
    ch, sh = libmp.mpf_cosh_sinh(to_mpf(rapidity)._mpf_, *mp._prec_rounding)
    z, one = _FZERO, _FONE
    return _checked_transform(((ch, sh, z, z), (sh, ch, z, z), (z, z, one, z), (z, z, z, one)))


def rotation_xy(angle) -> LorentzTransform:
    """Rotation in the x-y plane; leaves t and z alone."""
    # mpf_cos_sin is the call mp.cos_sin makes: bit for bit cos and sin.
    prec, rounding = mp._prec_rounding
    c, s = libmp.mpf_cos_sin(to_mpf(angle)._mpf_, prec, rounding)
    z, one = _FZERO, _FONE
    return _checked_transform(
        ((one, z, z, z), (z, c, _mpf_neg(s, prec, rounding), z), (z, s, c, z), (z, z, z, one))
    )


class SymTensor4(value_type("SymTensor4", "matrix")):
    """Symmetric rank-2 tensor with upper indices, stored as a full matrix.

    Built from its rows, a diagonal tensor too; they must form a 4 x 4
    matrix, symmetric within the working precision, else ValueError.
    ``t[i, j]`` is the entry in row i, column j.
    """

    __slots__ = ()

    def __new__(cls, matrix: Matrix):
        m = _as_matrix(matrix)
        # A mirrored entry, the same object on both sides, has no defect.
        pairs = ((m[i][j], m[j][i]) for i in range(DIM) for j in range(i + 1, DIM))
        defects = [fabs(u - v) for u, v in pairs if u is not v]
        # max passes over a NaN unless it comes first, so a NaN is taken
        # first; it, like any defect over a NaN scale, fails the <= test.
        # Relative to the largest entry; exact symmetry needs no scale.
        worst = next((d for d in defects if isnan(d)), max(defects, default=_ZERO))
        if worst and not worst <= _validation_tol(mp.dps, mp.prec) * _make_mpf(_largest(_raw(m))):
            raise ValueError(f"tensor is not symmetric: defect {mp.nstr(worst, 8)}")
        return super().__new__(cls, m)

    def __getitem__(self, idx: tuple[int, int]) -> mpf:
        i, j = idx
        return self.matrix[i][j]

    def scale(self, factor) -> "SymTensor4":
        c = to_mpf(factor)
        return SymTensor4([[c * e for e in row] for row in self.matrix])

    def trace(self) -> mpf:
        """Metric trace g_{mu nu} T^{mu nu}.

        Negating the t entry gives the bits of its product with g_t = -1;
        the other g_i are +1 and need no product.
        """
        prec, rounding = mp._prec_rounding
        acc = _mpf_neg(self.matrix[0][0]._mpf_, prec, rounding)
        for i in range(1, DIM):
            acc = _mpf_add(acc, self.matrix[i][i]._mpf_, prec, rounding)
        return _make_mpf(acc)


def transform_tensor(transform: LorentzTransform, tensor: SymTensor4) -> SymTensor4:
    """Push a contravariant tensor forward: T'^{mu nu} = L^mu_a L^nu_b T^{ab}.

    Formed as two matrix products, P = L T and then P L^T, skipping
    exact zeros; P stays raw.  Only the upper triangle of P L^T is formed
    and it is mirrored, the same object on both sides, so the result is
    symmetric to the last bit and SymTensor4's check is skipped.
    """
    prec, rounding = mp._prec_rounding
    m = _raw(transform.matrix)
    cols = list(zip(*_raw(tensor.matrix)))
    out = [[None] * DIM for _ in range(DIM)]
    for i, row in enumerate(m):
        p_row = [_rdot(zip(row, col), prec, rounding) for col in cols]
        for j in range(i, DIM):
            out[i][j] = out[j][i] = _make_mpf(_rdot(zip(p_row, m[j]), prec, rounding))
    return tuple.__new__(SymTensor4, (tuple(map(tuple, out)),))
