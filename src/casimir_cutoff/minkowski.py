"""Flat-spacetime linear algebra at extended precision.

Conventions: coordinates are ordered (t, x, y, z), the metric signature
is (-, +, +, +), and index placement follows the usual rule that a
Lorentz matrix L acts on contravariant components as v' = L v.  The
plates sit at fixed z, so boosts and rotations that preserve the plate
geometry act only in the (t, x, y) block.

Everything is stored as tuples of mpf, so instances are immutable and
hashable and survive precision changes without silent rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from mpmath import mp, mpf, cosh, sinh, cos, sin, sqrt, fabs, fprod, isnan

from .precision import to_mpf

DIM = 4

# Diagonal of the metric tensor, ordered (t, x, y, z).
METRIC_DIAG = (mpf(-1), mpf(1), mpf(1), mpf(1))


def _validation_tol() -> mpf:
    # Relative tolerance: ten digits of slack below working precision,
    # for the rounding that composed transforms accumulate.  Callers
    # scale it by the size of the entries they check.
    return mpf(10) ** (10 - mp.dps)


@dataclass(frozen=True)
class FourVector:
    """Contravariant four-vector with components (t, x, y, z)."""

    t: mpf
    x: mpf
    y: mpf
    z: mpf

    def __post_init__(self):
        for name in ("t", "x", "y", "z"):
            object.__setattr__(self, name, to_mpf(getattr(self, name)))

    def components(self) -> tuple[mpf, mpf, mpf, mpf]:
        return (self.t, self.x, self.y, self.z)

    def scale(self, factor) -> "FourVector":
        c = to_mpf(factor)
        return FourVector(*(c * a for a in self.components()))


def mink_dot(u: FourVector, v: FourVector) -> mpf:
    """Minkowski inner product g_{mu nu} u^mu v^nu = -u^t v^t + u.v."""
    return -u.t * v.t + u.x * v.x + u.y * v.y + u.z * v.z


@dataclass(frozen=True)
class SeparationVector:
    """Spacelike point-splitting vector.

    The regulated two-point functions are expanded around coincidence
    along a spacelike direction; a timelike or lightlike separation has
    no invariant length to expand in, so construction rejects it.
    """

    vector: FourVector

    def __post_init__(self):
        if mink_dot(self.vector, self.vector) <= 0:
            from .errors import LightlikeSeparation

            raise LightlikeSeparation(
                "point-splitting vector must be spacelike: "
                f"squared length {mp.nstr(mink_dot(self.vector, self.vector), 8)}"
            )

    @property
    def length(self) -> mpf:
        """Invariant length s = sqrt(g_{mu nu} eps^mu eps^nu) > 0."""
        return sqrt(mink_dot(self.vector, self.vector))


Matrix = tuple[tuple[mpf, ...], ...]


def _as_matrix(rows) -> Matrix:
    return tuple(tuple(to_mpf(e) for e in row) for row in rows)


def _largest(m: Matrix) -> mpf:
    return max(fabs(e) for row in m for e in row)


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(DIM)), mpf(0)) for j in range(DIM))
        for i in range(DIM)
    )


def _check_metric(m: Matrix, factors: tuple[Matrix, ...] = ()) -> None:
    """Raise ValueError unless m preserves the metric to within rounding.

    g is diagonal, so (m^T g m)_{ij} is the sum over k of m[k][i] (g_k
    m[k][j]); it is symmetric, so only the upper triangle is formed.  Its
    entries sum products of two entries of m, so the tolerance scales
    with max(1, max |m|)^2; for a product, whose entries carry the
    rounding of its factors' entries, also with the product of
    max(1, max |f|) over the factors, the larger when the product
    cancels, as boost(r) after boost(-r) does.
    """
    # g m: g = diag(-1, 1, 1, 1) only negates the t row, exactly.
    gm = (tuple(-e for e in m[0]),) + m[1:]
    defects = []
    for i in range(DIM):
        for j in range(i, DIM):
            acc = mpf(0)
            for k in range(DIM):
                acc += m[k][i] * gm[k][j]
            defects.append(fabs(acc - METRIC_DIAG[i] if i == j else acc))
    # Every defect meets a comparison, so a NaN one fails both tests.  An
    # infinite entry makes some defect infinite or NaN, and the strict
    # bound rejects an infinite defect even when its scale is infinite.
    tol = _validation_tol()
    if all(d <= tol for d in defects):
        return
    bound = tol * max(
        max(1, _largest(m)) ** 2, fprod(max(1, _largest(f)) for f in factors)
    )
    if not all(d < bound for d in defects):
        worst = next((d for d in defects if isnan(d)), max(defects))
        raise ValueError(f"matrix does not preserve the metric: defect {mp.nstr(worst, 8)}")


@dataclass(frozen=True)
class LorentzTransform:
    """Metric-preserving linear map, validated at construction.

    The defect max |(L^T g L - g)_{ij}| must stay below a tolerance tied
    to the working precision and scaled by the size of the entries
    (_check_metric); exact inputs (integer entries, or matrices built by
    boost/rotation_xy at current precision) pass with room to spare.
    Every construction runs the check, including the results of
    ``compose``, which scales it by its factors, and ``inverse``.
    """

    matrix: Matrix

    def __post_init__(self):
        m = _as_matrix(self.matrix)
        object.__setattr__(self, "matrix", m)
        _check_metric(m)

    def apply(self, v: FourVector) -> FourVector:
        comps = v.components()
        return FourVector(
            *(
                sum((self.matrix[i][j] * comps[j] for j in range(DIM)), mpf(0))
                for i in range(DIM)
            )
        )

    def compose(self, other: "LorentzTransform") -> "LorentzTransform":
        """self after other: (self.compose(other)).apply(v) = self(other(v))."""
        m = _mat_mul(self.matrix, other.matrix)
        _check_metric(m, (self.matrix, other.matrix))
        product = object.__new__(LorentzTransform)
        object.__setattr__(product, "matrix", m)
        return product

    def inverse(self) -> "LorentzTransform":
        """The inverse g L^T g, entry (i, j) = g_i m[j][i] g_j.

        Every g_i is +-1, so each entry is a stored entry with at most a
        sign flip: exact, with no product or linear solve.
        """
        m = self.matrix
        return LorentzTransform(
            tuple(
                tuple(
                    m[j][i] if METRIC_DIAG[i] == METRIC_DIAG[j] else -m[j][i]
                    for j in range(DIM)
                )
                for i in range(DIM)
            )
        )


def boost(rapidity) -> LorentzTransform:
    """Boost along x with the given rapidity; leaves y and z alone."""
    r = to_mpf(rapidity)
    ch, sh = cosh(r), sinh(r)
    return LorentzTransform(
        (
            (ch, sh, mpf(0), mpf(0)),
            (sh, ch, mpf(0), mpf(0)),
            (mpf(0), mpf(0), mpf(1), mpf(0)),
            (mpf(0), mpf(0), mpf(0), mpf(1)),
        )
    )


def rotation_xy(angle) -> LorentzTransform:
    """Rotation in the x-y plane; leaves t and z alone."""
    a = to_mpf(angle)
    c, s = cos(a), sin(a)
    return LorentzTransform(
        (
            (mpf(1), mpf(0), mpf(0), mpf(0)),
            (mpf(0), c, -s, mpf(0)),
            (mpf(0), s, c, mpf(0)),
            (mpf(0), mpf(0), mpf(0), mpf(1)),
        )
    )


@dataclass(frozen=True)
class SymTensor4:
    """Symmetric rank-2 tensor with upper indices, stored as a full matrix."""

    matrix: Matrix

    def __post_init__(self):
        m = _as_matrix(self.matrix)
        object.__setattr__(self, "matrix", m)
        worst = max(
            fabs(m[i][j] - m[j][i]) for i in range(DIM) for j in range(i + 1, DIM)
        )
        # Relative to the largest entry; exact symmetry needs no scale.
        if worst > 0 and worst > _validation_tol() * _largest(m):
            raise ValueError(f"tensor is not symmetric: defect {mp.nstr(worst, 8)}")

    def __getitem__(self, idx: tuple[int, int]) -> mpf:
        i, j = idx
        return self.matrix[i][j]

    def scale(self, factor) -> "SymTensor4":
        c = to_mpf(factor)
        return SymTensor4(
            tuple(tuple(c * self.matrix[i][j] for j in range(DIM)) for i in range(DIM))
        )

    def trace(self) -> mpf:
        """Metric trace g_{mu nu} T^{mu nu}."""
        return sum(
            (METRIC_DIAG[i] * self.matrix[i][i] for i in range(DIM)), mpf(0)
        )

    @staticmethod
    def diagonal(tt, xx, yy, zz) -> "SymTensor4":
        vals = (to_mpf(tt), to_mpf(xx), to_mpf(yy), to_mpf(zz))
        return SymTensor4(
            tuple(
                tuple(vals[i] if i == j else mpf(0) for j in range(DIM))
                for i in range(DIM)
            )
        )


def transform_tensor(transform: LorentzTransform, tensor: SymTensor4) -> SymTensor4:
    """Push a contravariant tensor forward: T'^{mu nu} = L^mu_a L^nu_b T^{ab}."""
    lam = transform.matrix
    t = tensor.matrix
    # Fill the upper triangle and mirror it, so the result is symmetric
    # to the last bit even when rounding differs between (i,j) orders.
    out = [[mpf(0)] * DIM for _ in range(DIM)]
    for i in range(DIM):
        for j in range(i, DIM):
            acc = mpf(0)
            for a in range(DIM):
                la = lam[i][a]
                if la == 0:
                    continue
                for b in range(DIM):
                    if lam[j][b] == 0:
                        continue
                    acc += la * lam[j][b] * t[a][b]
            out[i][j] = acc
            out[j][i] = acc
    return SymTensor4(tuple(tuple(row) for row in out))
