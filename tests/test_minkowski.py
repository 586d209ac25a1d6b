"""Tests for the Minkowski vector and tensor layer.

Checks metric conventions, transform validation, composition and
inverses, symmetric-tensor bookkeeping, and the congruence
transformation of rank-2 tensors.
"""

import random

import pytest
from mpmath import cos, cosh, inf, isnan, mp, mpf, nan, pi, sin, sinh, sqrt

import casimir_cutoff.minkowski
from casimir_cutoff.errors import LightlikeSeparation
from casimir_cutoff.minkowski import (
    DIM,
    METRIC_DIAG,
    FourVector,
    LorentzTransform,
    SeparationVector,
    SymTensor4,
    boost,
    rotation_xy,
    transform_tensor,
)
from casimir_cutoff.params import _rsquare
from series_reference import apply, checked_inverse, scale

TIGHT = mpf("1e-45")


# Dense references, every product formed and summed left to right as
# the formulas are written: the zero-skipping code must match their bits.
def dense_mink_dot(u, v):
    return -u.t * v.t + u.x * v.x + u.y * v.y + u.z * v.z


def square(v):
    """The Minkowski square of v as the package forms it, as an mpf."""
    return mp.make_mpf(_rsquare(v, *mp._prec_rounding))


def dense_trace(m):
    return sum((METRIC_DIAG[i] * m[i][i] for i in range(DIM)), mpf(0))


def dense_inverse(m):
    return tuple(
        tuple(METRIC_DIAG[i] * m[j][i] * METRIC_DIAG[j] for j in range(DIM))
        for i in range(DIM)
    )


class TestMetricAndVectors:
    """Signature conventions and inner products."""

    def test_metric_diagonal(self):
        assert METRIC_DIAG == (-1, 1, 1, 1)

    def test_minkowski_square_signature(self):
        assert square(FourVector(1, 0, 0, 0)) == -1
        assert square(FourVector(0, 1, 0, 0)) == 1
        # (u + v)^2 = u^2 + v^2 + 2 u.v: orthogonal unit t and x add to a null vector.
        assert square(FourVector(1, 1, 0, 0)) == 0

    def test_vector_arithmetic(self):
        u = FourVector(1, 2, 3, 4)
        assert u == (1, 2, 3, 4)
        s = scale(u, 3)
        assert s.t == 3 and s.z == 12

    def test_separation_requires_spacelike(self):
        SeparationVector(FourVector(0, 1, 0, 0))
        SeparationVector(FourVector("0.3", 1, 0, 0))
        with pytest.raises(LightlikeSeparation):
            SeparationVector(FourVector(1, 1, 0, 0))
        with pytest.raises(LightlikeSeparation):
            SeparationVector(FourVector(2, 1, 0, 0))
        # A NaN square fails "> 0" as well as "<= 0"; it is not spacelike.
        for t, x in ((nan, "0.1"), (inf, inf), (-inf, inf)):
            with pytest.raises(LightlikeSeparation, match="squared length nan"):
                SeparationVector(FourVector(t, x, 0, 0))

    def test_separation_length(self):
        s = SeparationVector(FourVector("0.3", "0.5", 0, 0))
        assert abs(s.length**2 - (mpf("0.25") - mpf("0.09"))) < TIGHT

    def test_length_at_a_lower_precision_is_checked_again(self):
        # Built at 40 digits with t^2 just below x^2 + y^2, a vector's
        # square can round to zero or below at 15 digits; its length is
        # then a LightlikeSeparation, as for construction, not the square
        # root of a negative number.
        rng = random.Random(1)
        rejected = 0
        for _ in range(20):
            with mp.workdps(40):
                x, y = (mpf(rng.uniform(0.1, 1)) for _ in range(2))
                t = sqrt(x * x + y * y) * (1 - mpf("1e-30"))
                v = SeparationVector(FourVector(t, x, y, 0))
            with mp.workdps(15):
                s2 = square(v.vector)
                if s2 > 0:
                    assert v.length == sqrt(s2)
                    continue
                rejected += 1
                with pytest.raises(LightlikeSeparation, match="squared length"):
                    v.length
        assert rejected


class TestLorentzTransform:
    """Metric preservation, composition, and inverses."""

    def test_identity_accepted(self):
        rows = tuple(
            tuple(1 if i == j else 0 for j in range(DIM)) for i in range(DIM)
        )
        ell = LorentzTransform(rows)
        v = FourVector(1, 2, 3, 4)
        assert apply(ell, v) == v

    def test_non_isometry_rejected(self):
        rows = tuple(
            tuple(2 if i == j else 0 for j in range(DIM)) for i in range(DIM)
        )
        with pytest.raises(ValueError):
            LorentzTransform(rows)

    def test_boost_preserves_interval(self):
        rng = random.Random(11)
        for _ in range(10):
            xi = mpf(rng.uniform(-2, 2))
            ell = boost(xi)
            v = FourVector(*[mpf(rng.uniform(-1, 1)) for _ in range(4)])
            w = apply(ell, v)
            assert abs(square(w) - square(v)) < TIGHT

    def test_boost_matrix_entries(self):
        xi = mpf("0.7")
        m = boost(xi).matrix
        assert abs(m[0][0] - cosh(xi)) < TIGHT
        assert abs(m[0][1] - sinh(xi)) < TIGHT
        assert m[2][2] == 1 and m[3][3] == 1

    def test_rotation_matrix_entries(self):
        th = pi / 5
        m = rotation_xy(th).matrix
        assert abs(m[1][1] - cos(th)) < TIGHT
        assert abs(m[1][2] + sin(th)) < TIGHT
        assert m[0][0] == 1 and m[3][3] == 1

    def test_boosts_compose_additively(self):
        a, b = mpf("0.4"), mpf("0.9")
        left = boost(a).compose(boost(b))
        right = boost(a + b)
        defect = max(
            abs(left.matrix[i][j] - right.matrix[i][j])
            for i in range(DIM)
            for j in range(DIM)
        )
        assert defect < TIGHT

    def test_inverse_round_trip(self):
        ell = rotation_xy(mpf("0.3")).compose(boost(mpf("1.1")))
        both = ell.compose(checked_inverse(ell))
        for i in range(DIM):
            for j in range(DIM):
                expected = 1 if i == j else 0
                assert abs(both.matrix[i][j] - expected) < TIGHT

    def test_inverse_undoes_apply(self):
        ell = boost(mpf("0.8"))
        v = FourVector("0.2", "0.4", "0.6", "0.1")
        back = apply(checked_inverse(ell), apply(ell, v))
        assert all(abs(a - b) < TIGHT for a, b in zip(back, v))

    def test_inverse_is_signed_transpose_exactly(self):
        ell = rotation_xy(mpf("0.3")).compose(boost(mpf("-1.7")))
        m, inv = ell.matrix, checked_inverse(ell).matrix
        for i in range(DIM):
            for j in range(DIM):
                assert inv[i][j] == METRIC_DIAG[i] * m[j][i] * METRIC_DIAG[j]

    @pytest.mark.parametrize(
        "pos", [(i, j) for i in range(DIM) for j in range(DIM) if i != j]
    )
    def test_single_off_diagonal_defect_rejected(self, pos):
        # Identity plus delta at one off-diagonal slot: L^T g L differs
        # from g by +-delta off the diagonal and only delta^2 on it, so
        # the off-diagonal entries alone decide, wherever delta sits.
        i, j = pos
        rows = [[mpf(int(r == c)) for c in range(DIM)] for r in range(DIM)]
        rows[i][j] = mpf("1e-20")
        with pytest.raises(ValueError, match="defect 1.0e-20"):
            LorentzTransform(tuple(tuple(r) for r in rows))
        rows[i][j] = mpf("1e-45")
        LorentzTransform(tuple(tuple(r) for r in rows))

    @pytest.mark.parametrize("rapidity", [nan, inf, -inf], ids=str)
    def test_non_finite_boost_rejected(self, rapidity):
        with pytest.raises(ValueError, match="defect"):
            boost(rapidity)

    @pytest.mark.parametrize("pos", [(0, 0), (3, 3), (1, 2)], ids=str)
    @pytest.mark.parametrize("fill", [0, mpf("1e-60")], ids=["sparse", "dense"])
    def test_infinite_entry_rejected(self, pos, fill):
        # Products with an exact-zero factor are skipped, so no 0 * inf
        # is formed and every case fails with an infinite defect.  The
        # tolerance, scaled by the largest entry, is infinite too, so
        # only the strict comparison rejects it.
        rows = [[mpf(1) if r == c else mpf(fill) for c in range(DIM)] for r in range(DIM)]
        rows[pos[0]][pos[1]] = inf
        with pytest.raises(ValueError, match="defect"):
            LorentzTransform(tuple(tuple(r) for r in rows))

    def test_small_defect_rejected_at_high_precision(self):
        mp.dps = 200
        rows = [[mpf(int(r == c)) for c in range(DIM)] for r in range(DIM)]
        rows[0][1] = mpf("1e-35")
        with pytest.raises(ValueError, match="defect 1.0e-35"):
            LorentzTransform(tuple(tuple(r) for r in rows))

    def test_defect_tolerance_scales_with_entries(self):
        # cosh^2 - sinh^2 at rapidity 20 cancels products near 6e16, so
        # its rounding is far above 1e-40 but small relative to them.
        ell = rotation_xy(mpf("0.3")).compose(boost(20))
        assert checked_inverse(ell).matrix[1][0] == -ell.matrix[0][1]

    @pytest.mark.parametrize("r", [13, 20])
    def test_cancelling_boosts_compose(self, r):
        # The product is the identity, but its entries carry the rounding
        # of cosh(r)^2 - sinh(r)^2, far above 1e-40 at r >= 13.
        both = boost(r).compose(boost(-r))
        assert max(abs(both.matrix[i][i] - 1) for i in range(DIM)) < mpf("1e-30")

    @pytest.mark.parametrize("r", [13, 20])
    def test_compose_still_rejects_a_real_defect(self, r, monkeypatch):
        real = casimir_cutoff.minkowski._mat_mul

        def perturbed(a, b):
            # The product's raw rows, one entry moved by 1e-20.
            rows = real(a, b)
            rows[0][1] = (mp.make_mpf(rows[0][1]) + mpf("1e-20"))._mpf_
            return rows

        monkeypatch.setattr(casimir_cutoff.minkowski, "_mat_mul", perturbed)
        with pytest.raises(ValueError, match="defect"):
            boost(r).compose(boost(-r))

    def test_defect_is_worst_entry_of_full_product(self):
        # A dense matrix, and a sparse one whose exact zeros the check
        # skips: the defect is still the worst entry of the dense product.
        rng = random.Random(5)
        dense = tuple(
            tuple(mpf(rng.uniform(-1, 1)) for _ in range(DIM)) for _ in range(DIM)
        )
        sparse = tuple(
            tuple(mpf(rng.uniform(-1, 1)) if (i + j) % 3 else mpf(0) for j in range(DIM))
            for i in range(DIM)
        )
        assert all(any(row[j] == 0 for row in sparse) for j in range(DIM))
        for rows in (dense, sparse):
            worst = max(
                abs(
                    sum(
                        (rows[k][i] * (METRIC_DIAG[k] * rows[k][j]) for k in range(DIM)),
                        mpf(0),
                    )
                    - (METRIC_DIAG[i] if i == j else 0)
                )
                for i in range(DIM)
                for j in range(DIM)
            )
            with pytest.raises(ValueError, match=f"defect {mp.nstr(worst, 8)}$"):
                LorentzTransform(rows)

    def test_skipped_zeros_change_no_bit(self):
        # Products and applications skip exact zeros; each entry must equal
        # the dense left-to-right sum from zero exactly.
        rng = random.Random(17)
        for _ in range(50):
            a, b = (
                tuple(
                    tuple(mpf(rng.uniform(-2, 2)) if rng.random() < 0.6 else mpf(0)
                          for _ in range(DIM))
                    for _ in range(DIM)
                )
                for _ in range(2)
            )
            dense = tuple(
                tuple(sum((a[i][k] * b[k][j] for k in range(DIM)), mpf(0)) for j in range(DIM))
                for i in range(DIM)
            )
            raw = casimir_cutoff.minkowski._raw
            assert casimir_cutoff.minkowski._mat_mul(raw(a), raw(b)) == raw(dense)
            v = FourVector(*b[0])
            applied = casimir_cutoff.minkowski._apply(raw(a), v)
            assert applied == tuple(sum((row[k] * v[k] for k in range(DIM)), mpf(0)) for row in a)

    def test_compose_and_inverse_are_validated(self, monkeypatch):
        calls = []
        real = casimir_cutoff.minkowski._validation_tol

        def counted(dps, prec):
            calls.append(1)
            return real(dps, prec)

        ell = boost(mpf("0.4"))
        monkeypatch.setattr(casimir_cutoff.minkowski, "_validation_tol", counted)
        ell.compose(ell)
        assert len(calls) == 1
        checked_inverse(ell)
        assert len(calls) == 2


class TestSkippedZeros:
    """Zero-skipping arithmetic against the dense references, bit for bit."""

    @pytest.mark.parametrize("dps", [15, 50, 200])
    def test_vectors_and_traces(self, dps):
        rng = random.Random(dps)
        with mp.workdps(dps):

            def entry():
                # Full working precision, or an exact zero.
                return mpf(rng.uniform(-2, 2)) / 7 if rng.random() < 0.6 else mpf(0)

            for _ in range(200):
                u, v = (FourVector(*(entry() for _ in range(DIM))) for _ in range(2))
                assert square(u) == dense_mink_dot(u, u)
                assert square(v) == dense_mink_dot(v, v)
                rows = [[None] * DIM for _ in range(DIM)]
                for i in range(DIM):
                    for j in range(i, DIM):
                        rows[i][j] = rows[j][i] = entry()
                assert SymTensor4(rows).trace() == dense_trace(rows)

    @pytest.mark.parametrize("dps", [15, 50, 200])
    def test_inverse(self, dps):
        # Products of boosts and rotations, whose exact zeros vary with
        # the factors drawn.
        rng = random.Random(dps)
        with mp.workdps(dps):
            draws = (
                lambda: boost(mpf(rng.uniform(-2, 2)) / 7),
                lambda: rotation_xy(mpf(rng.uniform(0, 44)) / 7),
            )
            for _ in range(30):
                ell = rng.choice(draws)()
                for _ in range(rng.randrange(3)):
                    ell = ell.compose(rng.choice(draws)())
                assert checked_inverse(ell).matrix == dense_inverse(ell.matrix)


class TestRawValueKernels:
    """The product sum and the boost entries against mpmath's own expressions."""

    @pytest.mark.parametrize("dps", [15, 50, 200])
    def test_dot_matches_dense_sum(self, dps):
        # Finite entries, a third of them exact zeros: the sum of every
        # product from zero, left to right.  With infinities and NaNs
        # among them, a product with an exact-zero factor is skipped, as
        # the mpf expression the kernel replaced skipped it; entries
        # drawn at a higher precision are rounded only in the product.
        rng = random.Random(dps)
        specials = (inf, -inf, nan)
        with mp.workdps(dps):

            def dot(pairs):
                # _rdot on the raw pairs at the working precision.
                raw = [(a._mpf_, b._mpf_) for a, b in pairs]
                return mp.make_mpf(casimir_cutoff.minkowski._rdot(raw, *mp._prec_rounding))

            def entry(special):
                if rng.random() < 0.3:
                    return mpf(0)
                if special and rng.random() < 0.3:
                    return rng.choice(specials)
                with mp.workdps(dps + rng.choice((0, 20))):
                    return mpf(rng.uniform(-2, 2)) / 7

            for _ in range(300):
                pairs = [(entry(False), entry(False)) for _ in range(DIM)]
                assert repr(dot(pairs)) == repr(sum((a * b for a, b in pairs), mpf(0)))
                pairs = [(entry(True), entry(True)) for _ in range(DIM)]
                skipped = sum((a * b for a, b in pairs if a and b), mpf(0))
                assert repr(dot(pairs)) == repr(skipped)
            assert repr(dot([])) == repr(mpf(0))

    @pytest.mark.parametrize("dps", [15, 50, 200])
    @pytest.mark.parametrize("r", ["0", "-0.7", "2", "-2"])
    def test_boost_entries_are_cosh_and_sinh(self, dps, r):
        with mp.workdps(dps):
            r = mpf(r)
            m = boost(r).matrix
            assert m[0][0]._mpf_ == m[1][1]._mpf_ == cosh(r)._mpf_
            assert m[0][1]._mpf_ == m[1][0]._mpf_ == sinh(r)._mpf_


class TestSymTensor4:
    """Symmetric-tensor construction, algebra, and trace."""

    def test_symmetry_enforced(self):
        rows = [[mpf(0)] * DIM for _ in range(DIM)]
        rows[0][1] = mpf(1)
        with pytest.raises(ValueError):
            SymTensor4(tuple(tuple(r) for r in rows))

    def test_symmetry_tolerance_is_relative(self):
        # Entries near 1e31 may differ by rounding at 1e-15, but an
        # asymmetry of 1e-38 in entries of order one is a defect.
        rows = [[mpf("1e31")] * DIM for _ in range(DIM)]
        rows[0][1] += mpf("1e-15")
        SymTensor4(tuple(tuple(r) for r in rows))
        rows = [[mpf(1)] * DIM for _ in range(DIM)]
        rows[0][1] += mpf("1e-38")
        with pytest.raises(ValueError, match="not symmetric"):
            SymTensor4(tuple(tuple(r) for r in rows))

    @pytest.mark.parametrize("nan_first", [True, False], ids=["nan-first", "nan-last"])
    def test_nan_defect_rejected(self, nan_first):
        # Distinct NaN entries in mirrored places: max keeps their NaN
        # defect only when it comes first and passes over it after a
        # finite one, here a defect far inside the tolerance.
        rows = [[mpf(0)] * DIM for _ in range(DIM)]
        (i, j), (k, l) = ((0, 1), (2, 3)) if nan_first else ((2, 3), (0, 1))
        rows[i][j], rows[j][i] = nan + 1, nan * 2
        rows[k][l], rows[l][k] = (mpf(1), mpf(2)) if nan_first else (mpf(1), 1 + mpf("1e-60"))
        with pytest.raises(ValueError, match="not symmetric: defect nan"):
            SymTensor4(tuple(tuple(r) for r in rows))

    def test_nan_scale_does_not_hide_defect(self):
        # A NaN entry first in the matrix makes the largest entry NaN, and
        # a defect compared against a NaN tolerance must still fail.
        rows = [[mpf(0)] * DIM for _ in range(DIM)]
        rows[0][0], rows[0][1], rows[1][0] = nan, mpf(1), mpf(2)
        with pytest.raises(ValueError, match="not symmetric: defect 1.0"):
            SymTensor4(tuple(tuple(r) for r in rows))
        rows[1][0] = mpf(1)
        assert isnan(SymTensor4(tuple(tuple(r) for r in rows))[0, 0])

    def test_diagonal_and_trace(self):
        t = SymTensor4.diagonal(2, 3, 5, 7)
        # Metric trace: g_{mu nu} T^{mu nu} = -T^{tt} + sum of spatials.
        assert t.trace() == -2 + 3 + 5 + 7
        assert t[0, 0] == 2 and t[3, 3] == 7

    def test_algebra(self):
        t = SymTensor4.diagonal(1, 2, 3, 4)
        assert t.scale(-2)[3, 3] == -8

    def test_transform_tensor_matches_componentwise(self):
        rng = random.Random(23)
        plate = rotation_xy(mpf(rng.uniform(0, 6))).compose(
            boost(mpf(rng.uniform(-1.5, 1.5)))
        )
        # A boost along an oblique direction with a z component has no
        # zero entry, so the transform skips nothing.
        n = [mpf(rng.uniform(0.2, 1)) for _ in range(3)]
        n = [c / mp.sqrt(sum(c * c for c in n)) for c in n]
        r = mpf(rng.uniform(0.5, 1.5))
        oblique = LorentzTransform(
            [[cosh(r)] + [sinh(r) * c for c in n]]
            + [
                [sinh(r) * n[i]] + [int(i == j) + (cosh(r) - 1) * n[i] * n[j] for j in range(3)]
                for i in range(3)
            ]
        )
        assert all(e != 0 for row in oblique.matrix for e in row)
        for ell in (plate, oblique):
            rows = [[mpf(0)] * DIM for _ in range(DIM)]
            for i in range(DIM):
                for j in range(i, DIM):
                    rows[i][j] = rows[j][i] = mpf(rng.uniform(-1, 1))
            t = SymTensor4(tuple(tuple(r) for r in rows))
            moved = transform_tensor(ell, t)
            m = ell.matrix
            for i in range(DIM):
                for j in range(DIM):
                    direct = sum(
                        m[i][k] * m[j][l] * t[k, l]
                        for k in range(DIM)
                        for l in range(DIM)
                    )
                    assert abs(moved[i, j] - direct) < TIGHT
                    assert moved[i, j] == moved[j, i]

    def test_transform_preserves_trace(self):
        ell = boost(mpf("1.3"))
        t = SymTensor4.diagonal(1, "0.5", "0.25", "0.125")
        assert abs(transform_tensor(ell, t).trace() - t.trace()) < TIGHT

    def test_validation_tolerance_scales_with_precision(self):
        # A matrix that is an isometry only to 30 digits must be rejected
        # when the working precision is far higher.
        mp.dps = 60
        xi = mpf("0.5")
        fuzz = mpf("1e-20")
        rows = [list(r) for r in boost(xi).matrix]
        rows[0][0] += fuzz
        with pytest.raises(ValueError):
            LorentzTransform(tuple(tuple(r) for r in rows))


class TestValueTypes:
    """The value types are tuples, immutable and validated by ``_replace`` too."""

    IDENTITY = tuple(tuple(int(i == j) for j in range(DIM)) for i in range(DIM))

    @pytest.mark.parametrize(
        "make",
        [
            lambda: FourVector(1, 2, 3, 0),
            lambda: SeparationVector(FourVector(0, 1, 0, 0)),
            lambda: boost(mpf("0.3")),
            lambda: SymTensor4.diagonal(1, 2, 3, 4),
        ],
        ids=["FourVector", "SeparationVector", "LorentzTransform", "SymTensor4"],
    )
    def test_rejects_attribute_assignment(self, make):
        value = make()
        field = value._fields[0]
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
        with pytest.raises(AttributeError):
            value.extra = 1

    def test_four_vector_replace_converts(self, check_replace):
        # FourVector has no invalid value; a string that is no number
        # fails in the conversion, as it does in the constructor.
        check_replace(FourVector(1, 2, 3, 0), "x", "not a number", "0.5")

    def test_separation_replace_validates(self, check_replace):
        check_replace(
            SeparationVector(FourVector(0, 1, 0, 0)),
            "vector", FourVector(1, 1, 0, 0), FourVector("0.3", 1, 0, 0),
        )

    def test_lorentz_replace_validates(self, check_replace):
        stretched = ((2, 0, 0, 0),) + self.IDENTITY[1:]
        check_replace(boost(mpf("0.3")), "matrix", stretched, self.IDENTITY)

    def test_tensor_replace_validates(self, check_replace):
        skew = ((0, 1, 0, 0),) + self.IDENTITY[1:]
        check_replace(SymTensor4.diagonal(1, 2, 3, 4), "matrix", skew, self.IDENTITY)

    def test_compose_result_is_a_transform(self):
        ell = rotation_xy(mpf("0.2")).compose(boost(mpf("0.5")))
        assert type(ell) is LorentzTransform
        assert ell._replace(matrix=ell.matrix) == ell
