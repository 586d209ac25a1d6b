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
reported as a separate coefficient, never hidden.  The electromagnetic
coefficients are closed forms in the Bernoulli numbers, from the same
frozen-copy coth terms as the energy expansion (``_em_coefficients``);
the scalar ones are transcribed closed forms (``_scalar_coefficients``).
``_stress_for`` is the one body that turns either set into a
decomposition, from a plate separation and lambda already checked;
``em_stress``, ``scalar_stress``, ``covariance_check`` and the CLI's
points call it.  The kernels of the construction at a finite splitting
are in ``pointwise``, which no CLI command loads.

The coefficients and the tensor algebra run on mpmath's raw values at
``mp._prec_rounding``.  Each coefficient of either field is an exact
polynomial in lambda over powers of a (and, for the scalar field, of
sin(pi z/a)), times pi^2 or 1.  It is formed from exact parts and from
powers with guard bits, then rounded once through
``coth._frozen_coth_term``, the kernel the energy expansion shares, so
this module loads without ``expansion``.  Each is within 1/2 + 2^-16
ulp of its exact value; the scalar sine is taken from the nearer wall.
The tensor algebra makes the libmp calls that mpf's operators make,
with the same operands and the same exact-zero skips, so every number
has the bits of the operator form that ``tests/series_reference.py``
keeps: the scalar position's wall test, taking the splitting apart (its
square, the margin test, then the z test, the root and the unit
scaling), assembling the tensor, moving the splitting back by g L^T g,
the covariance residual here and the push-forward in
``transform_tensor``.  Every product sum of it goes through the
package's one kernel, ``params._rdot``.  An mpf is built only for a
value the caller receives.  The margin test reads the exponents of the
splitting's components first and forms their rounded sum of squares
only when those cannot decide it, so its outcome is the operator
form's either way.
"""

from __future__ import annotations

from mpmath import libmp, mp, mpf

from .errors import InvalidMode, LightlikeSeparation, WallContact
from .coth import _GUARD, _frozen_coth_term, _pi_power
from .minkowski import (
    _ZERO, DIM, LorentzTransform, SymTensor4, _apply, _inverse_rows, _raw, _rmax, transform_tensor,
)
from .params import (
    _FZERO, CutoffParams, FieldKind, FourVector, PlateGeometry, SeparationVector, _check_field,
    _rdot, _rsquare,
)
from .precision import to_mpf, value_type

# Metric restricted to the (t, x, y) subspace the splitting lives in.
_H_DIAG = (mpf(-1), mpf(1), mpf(1), mpf(0))

# Diagonal of S1 = g/4 - zhat zhat; dyadic, so exact at any precision.
_S1_DIAG = (-mpf(1) / 4, mpf(1) / 4, mpf(1) / 4, -mpf(3) / 4)

# The two diagonals as raw values, for the assembly.
_H_RAW, _S1_RAW = (tuple(e._mpf_ for e in diag) for diag in (_H_DIAG, _S1_DIAG))

_make_mpf, _mpf_abs, _mpf_div = mp.make_mpf, libmp.mpf_abs, libmp.mpf_div
_mpf_gt, _mpf_mul, _mpf_sub, _from_int = libmp.mpf_gt, libmp.mpf_mul, libmp.mpf_sub, libmp.from_int


class StressDecomposition(
    value_type(
        "StressDecomposition",
        "A B_finite B_divergent_eps2 direction separation_length",
    )
):
    """Subtracted stress in the two-structure form.

    The assembled tensor is A * S1 + (B_divergent_eps2 / s^2 +
    B_finite) * S2 with s the invariant splitting length.  A and the B
    coefficients depend only on (a, lambda) - and, for the scalar
    field, on z - never on the splitting direction; the direction
    enters only through the S2 structure itself.
    """

    __slots__ = ()

    def tensor(self) -> SymTensor4:
        """Assemble the full symmetric traceless tensor at this splitting.

        One pass of A * S1_ij + b * S2_ij with b = B_div / s^2 + B_fin:
        the same products and sums as scaling the two structures and
        adding them, without the intermediate tensors.  S2 = g - 3 eps
        eps / eps^2 - zhat zhat, the same for any vector along the ray:
        3 eps_i / eps^2 is formed once per component, and a zero
        component leaves exact h on the diagonal and exact zeros off it,
        as the dense formula gives.  S1 is diagonal, so off the diagonal
        only the S2 term is left, and both are symmetric, so only the
        upper triangle is formed and mirrored, the same object on both
        sides; SymTensor4's symmetry check, which could not fail, is
        skipped.  Products with an exact-zero factor and additions to
        zero are skipped, which changes no bit; the two B coefficients
        vanish together, at lambda = 0.
        """
        a, b_fin, b_div, direction, s = self
        prec, rnd = mp._prec_rounding
        a, b = a._mpf_, b_fin._mpf_
        if b_div:
            s2 = libmp.mpf_pow_int(s._mpf_, 2, prec, rnd)
            b = libmp.mpf_add(_mpf_div(b_div._mpf_, s2, prec, rnd), b, prec, rnd)
        v2 = _rsquare(direction.vector, prec, rnd)
        v = [c._mpf_ for c in direction.vector]
        rows = [[_ZERO] * DIM for _ in range(DIM)]
        for i, (h, c) in enumerate(zip(_H_RAW, v)):
            if c != _FZERO:
                w = _mpf_div(libmp.mpf_mul_int(c, 3, prec, rnd), v2, prec, rnd)
                h = _mpf_sub(h, _mpf_mul(w, c, prec, rnd), prec, rnd)
                for j in range(i + 1, DIM):
                    if v[j] != _FZERO:
                        e = libmp.mpf_neg(_mpf_mul(w, v[j], prec, rnd), prec, rnd)
                        if b != _FZERO and e != _FZERO:
                            rows[i][j] = rows[j][i] = _make_mpf(_mpf_mul(b, e, prec, rnd))
            rows[i][i] = _make_mpf(_rdot(((a, _S1_RAW[i]), (b, h)), prec, rnd))
        return tuple.__new__(SymTensor4, (tuple(map(tuple, rows)),))


def s1_structure() -> SymTensor4:
    """Traceless structure g/4 - zhat zhat."""
    return SymTensor4([[d if i == j else 0 for j in range(DIM)] for i, d in enumerate(_S1_DIAG)])


def _unit_splitting(v: FourVector) -> tuple[SeparationVector, mpf]:
    # The splitting vector v as (unit direction, invariant length s), the
    # only place its square is formed.  It must be a genuinely spacelike
    # (t, x, y) vector, checked in that order: s^2 must be a safe
    # fraction of t^2 + x^2 + y^2, so the bound scales with the vector,
    # and z must be 0.  The comparison fails for a NaN square, which is
    # rejected too.  s^2 is formed by cancellation with a rounding error
    # of a few ulps of that sum, so asking s^2 to exceed 2^(-prec/2) of
    # it keeps at least half of the working bits in s^2, and hence in s,
    # whatever the vector's size; the margin is an exact shift.  The test
    # is first decided from exponents: with M the largest mag of t, x and
    # y, each square is below 2^(2M) and rounds to at most that, so the
    # rounded sum is at most 2^(2M + 2), and a finite s^2 above 2^(2M + 2
    # - prec/2) passes.  Only what that cannot decide, an infinite or NaN
    # square among it, goes to ``_clears_margin``, which rounds the sum.
    t, x, y, z = v
    prec, rnd = mp._prec_rounding
    s2 = _rsquare(v, prec, rnd)
    parts = [c._mpf_ for c in (t, x, y)]
    mags = [exp + bc for _, man, exp, bc in parts if man]
    if not ((s2[1] and mags and _mpf_gt(s2, (0, 1, 2 * max(mags) + 2 - prec // 2, 1)))
            or _clears_margin(s2, parts, prec, rnd)):
        s2 = _make_mpf(s2)
        raise LightlikeSeparation(f"squared splitting length {s2} is not safely spacelike")
    if z:
        raise InvalidMode("splitting vector must lie in the t-x-y subspace (z component 0)")
    s = libmp.mpf_sqrt(s2, prec, rnd)
    # 1/s of a finite s > 0 is never zero, so only zero components stay
    # exact zeros.  Past the margin, s^2 carries at least half the working
    # bits, so the unit's square lies within about 2^(-prec/2) of 1 and is
    # positive: SeparationVector's own check of it is skipped.
    inv = libmp.mpf_rdiv_int(1, s, prec, rnd)
    unit = (_make_mpf(_mpf_mul(inv, c._mpf_, prec, rnd)) if c else _ZERO for c in v)
    return tuple.__new__(SeparationVector, (tuple.__new__(FourVector, unit),)), _make_mpf(s)


def _clears_margin(s2, parts, prec: int, rnd: str) -> bool:
    # The margin test on the rounded t^2 + x^2 + y^2 of the raw parts.
    scale = _rdot([(c, c) for c in parts], prec, rnd)
    return _mpf_gt(s2, libmp.mpf_shift(scale, -(prec // 2)))


def _em_coefficients(a: mpf, lam: mpf) -> tuple[mpf, mpf, mpf]:
    """(A, B_finite, B_divergent_eps2) from the frozen-copy coth terms.

    The kernel is the energy's with P = 1/(4 pi a s): its first and
    second frozen-s' derivatives g1 and g2, minus the bulk kernel's,
    which cancels exactly the n = 0 terms.  The derivative structure
    applied to a radial kernel decomposes as A(s) S1 + B(s) S2 with
    A(s) = -(4/3) (g2 + 2 g1 / s) and B(s) = (g2 - g1 / s) / 3, so the
    s^(m-3) coefficients, with c = pi/2a, are
    A = -(4/3) beta_n c^m mu^(m-2) m(m-1) / (4 pi a) and
    B = beta_n c^m mu^(m-2) [3 mu^2 - 3 m mu + m(m-1)] / (12 pi a).
    s^0 is m = 3 and s^-2 is m = 1.  At m = 3, -(4/3) m(m-1) = -8; B's
    bracket over 3 factors as lambda (1 + lambda) at m = 3 and as
    -lambda mu at m = 1, so each numerator below is exact, and the B's
    are exact zeros at lambda = 0.  Each goes through
    ``_frozen_coth_term`` once.
    """
    prec, rnd = mp._prec_rounding
    lam, mu, lam_mu_plus, a2, a4 = _raw_parts(a, lam, prec + _GUARD, rnd)
    return _rounded_once(prec, rnd, (3, _mpf_mul(mu, _from_int(-8)), a4), (3, lam_mu_plus, a4),
                         (1, libmp.mpf_neg(lam), a2))


def _raw_parts(a: mpf, lam: mpf, wp: int, rnd: str) -> tuple:
    # Raw lambda, mu = 1 - lambda and lambda mu (1 + lambda) = lambda (1 -
    # lambda^2), all exact, then a^2 and a^4 rounded to wp bits.
    a, lam = a._mpf_, lam._mpf_
    mu, a2 = _mpf_sub(libmp.fone, lam), libmp.mpf_pow_int(a, 2, wp, rnd)
    lam_mu_plus = _mpf_mul(_mpf_mul(lam, mu), libmp.mpf_add(lam, libmp.fone))
    return lam, mu, lam_mu_plus, a2, _mpf_mul(a2, a2, wp, rnd)


def _rounded_once(prec: int, rnd: str, *terms) -> tuple:
    # Each (m, num, den) through the kernel: one rounding per coefficient.
    return tuple(_make_mpf(_frozen_coth_term(m, num, den, prec, rnd)) for m, num, den in terms)


def em_stress(
    geom: PlateGeometry, cutoff: CutoffParams, eps: SeparationVector
) -> StressDecomposition:
    """Subtracted electromagnetic stress between the plates.

    The splitting vector supplies the regulator scale and the S2
    direction: it is checked and taken apart once into its invariant
    length, which stands in for the cutoff, and its unit direction.
    Only lambda is read from CutoffParams; its epsilon is not used
    here: the decomposition is formed by ``_stress_for``, the one body,
    which ``scalar_stress``, ``covariance_check`` and the CLI call too.
    The coefficients come from the small-s series, so they are exact in
    the splitting direction:
    A = (1 - lambda) pi^2 / 180 a^4, the 1/s^2 coefficient
    -lambda/24a^2, and the finite S2 part lambda(lambda^2 - 1) pi^2 /
    1440 a^4.  In the divergent coefficient's absence (lambda = 0) the
    zz component reduces to the classic -pi^2/240a^4.
    """
    return _stress_for(FieldKind.ELECTROMAGNETIC, geom.a, cutoff.lam, eps, None)


def scalar_stress(
    geom: PlateGeometry, cutoff: CutoffParams, eps: SeparationVector, z
) -> StressDecomposition:
    """Subtracted stress of a field vanishing on the walls.

    Unlike the electromagnetic case the result depends on position
    between the plates: the S2 coefficients grow like 1/sin^2(pi z/a)
    and 1/sin^4(pi z/a) toward the walls whenever lambda is nonzero,
    which is why z = 0 and z = a are rejected rather than evaluated.

    A z of None raises ValueError("scalar stress requires a z
    position"), as ``covariance_check`` does without a z.

    The coefficients are transcribed closed forms, each rounded once;
    ``_scalar_mode_assembly`` in ``tests/series_reference.py`` rebuilds
    them from the mode sums, and the tests compare the two as an
    independent cross-check.
    """
    return _stress_for(FieldKind.SCALAR, geom.a, cutoff.lam, eps, z)


def _scalar_coefficients(a: mpf, lam: mpf, z: mpf) -> tuple[mpf, mpf, mpf]:
    # A = (1 - lam) pi^2 / 360 a^4, half the EM one.  With sz = sin(pi z / a)
    # and s = sz^2, the B's are
    # lam/48 (pi^2 / 4 a^4) (1 - lam^2) ((3 - 2 s) / s^2 - 1/15)
    #     = lam (1 - lam^2) pi^2 (45 - 30 s - s^2) / (2880 a^4 s^2) and
    # lam/48 (3 / s - 1) / a^2 = lam (3 - s) / (48 a^2 s).
    # The kernel's m = 3 and m = 1 factors are -pi^2/1440 and 1/24, so all
    # three go through it.  The wall factors 45 - 30 s - s^2 and 3 - s are
    # at least 14 and 2, so they cannot cancel, and sz is taken from the
    # nearer wall, where a - z is exact.  The rounding errors of sz and of
    # the powers add up to under 50 units of wp's last bit in each
    # numerator and denominator, so 8 bits beyond the kernel's guard keep
    # them within its bound.
    prec, rnd = mp._prec_rounding
    wp = prec + _GUARD + 8
    lam, mu, lam_mu_plus, a2, a4 = _raw_parts(a, lam, wp, rnd)
    a, z = a._mpf_, z._mpf_
    if _mpf_gt(libmp.mpf_shift(z, 1), a):
        z = _mpf_sub(a, z)
    sz = libmp.mpf_sin(_mpf_div(_mpf_mul(_pi_power(1, wp), z, wp, rnd), a, wp, rnd), wp, rnd)
    s = _mpf_mul(sz, sz, wp, rnd)
    s2 = _mpf_mul(s, s, wp, rnd)
    wall = _mpf_sub(_mpf_sub(_from_int(45), _mpf_mul(s, _from_int(30))), s2, wp, rnd)
    return _rounded_once(
        prec, rnd, (3, _mpf_mul(mu, _from_int(-4)), a4),
        (3, libmp.mpf_neg(_mpf_mul(lam_mu_plus, wall)), libmp.mpf_shift(_mpf_mul(a4, s2), 1)),
        (1, _mpf_mul(lam, _mpf_sub(_from_int(3), s)), libmp.mpf_shift(_mpf_mul(a2, s), 1)),
    )


def _stress_for(field: FieldKind, a: mpf, lam: mpf, eps: SeparationVector, z):
    # The one body of the stress decomposition, for a field, plate
    # separation a and lambda that the caller has checked: the field's
    # coefficients, a scalar z checked first, then the splitting taken apart.
    if field is FieldKind.ELECTROMAGNETIC:
        coefficients = _em_coefficients(a, lam)
    else:
        if z is None:
            raise ValueError("scalar stress requires a z position")
        z = to_mpf(z)
        if not (_mpf_gt(z._mpf_, _FZERO) and libmp.mpf_lt(z._mpf_, a._mpf_)):
            raise WallContact(f"z must lie strictly between the walls, got {z}")
        coefficients = _scalar_coefficients(a, lam, z)
    return StressDecomposition(*coefficients, *_unit_splitting(eps.vector))


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

    The splitting is moved back by the inverse g L^T g, whose entries
    are exact sign flips of the transform's; the transform was checked
    when it was built, so no second transform is built or checked.  The
    moved splitting is checked as a caller's is: LightlikeSeparation if
    it is not safely spacelike, then InvalidMode if a transform that
    mixes z moved it off the (t, x, y) subspace.
    """
    _check_field(field)
    d = _stress_for(field, geom.a, cutoff.lam, eps, z)
    return _covariance_residual(d, d.tensor(), eps, transform)


def _covariance_residual(d, direct, eps, transform) -> mpf:
    # The residual of ``covariance_check`` for the decomposition d at the
    # splitting eps and its tensor ``direct``: only the moved side depends
    # on the transform, so a sweep of transforms forms d and direct once.
    prec, rnd = mp._prec_rounding
    back = _apply(_inverse_rows(_raw(transform.matrix), prec, rnd), eps.vector)
    unit, s = _unit_splitting(back)
    moved = transform_tensor(
        transform, d._replace(direction=unit, separation_length=s).tensor()
    )
    m, t = moved.matrix, direct.matrix
    # Both tensors are mirrored from their upper triangles, which decide.
    # The largest |m - t|, kept as max keeps it: the first of equals, and
    # a NaN only when it comes first.
    defects = (_mpf_abs(_mpf_sub(m[i][j]._mpf_, t[i][j]._mpf_, prec, rnd), prec, rnd)
               for i in range(DIM) for j in range(i, DIM))
    return _make_mpf(_rmax(defects))


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
