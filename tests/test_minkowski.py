"""Tests for the Minkowski vector and tensor layer.

Checks metric conventions, transform validation, composition and
inverses, symmetric-tensor bookkeeping, and the congruence
transformation of rank-2 tensors.
"""

import random

import pytest
from mpmath import cos, cosh, inf, mp, mpf, nan, pi, sin, sinh

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
    mink_dot,
    rotation_xy,
    transform_tensor,
)

TIGHT = mpf("1e-45")


class TestMetricAndVectors:
    """Signature conventions and inner products."""

    def test_metric_diagonal(self):
        assert METRIC_DIAG == (-1, 1, 1, 1)

    def test_mink_dot_signature(self):
        u = FourVector(1, 0, 0, 0)
        v = FourVector(0, 1, 0, 0)
        assert mink_dot(u, u) == -1
        assert mink_dot(v, v) == 1
        assert mink_dot(u, v) == 0

    def test_vector_arithmetic(self):
        u = FourVector(1, 2, 3, 4)
        assert u.components() == (1, 2, 3, 4)
        s = u.scale(3)
        assert s.t == 3 and s.z == 12

    def test_separation_requires_spacelike(self):
        SeparationVector(FourVector(0, 1, 0, 0))
        SeparationVector(FourVector("0.3", 1, 0, 0))
        with pytest.raises(LightlikeSeparation):
            SeparationVector(FourVector(1, 1, 0, 0))
        with pytest.raises(LightlikeSeparation):
            SeparationVector(FourVector(2, 1, 0, 0))

    def test_separation_length(self):
        s = SeparationVector(FourVector("0.3", "0.5", 0, 0))
        assert abs(s.length**2 - (mpf("0.25") - mpf("0.09"))) < TIGHT


class TestLorentzTransform:
    """Metric preservation, composition, and inverses."""

    def test_identity_accepted(self):
        rows = tuple(
            tuple(1 if i == j else 0 for j in range(DIM)) for i in range(DIM)
        )
        ell = LorentzTransform(rows)
        v = FourVector(1, 2, 3, 4)
        assert ell.apply(v).components() == v.components()

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
            w = ell.apply(v)
            assert abs(mink_dot(w, w) - mink_dot(v, v)) < TIGHT

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
        both = ell.compose(ell.inverse())
        for i in range(DIM):
            for j in range(DIM):
                expected = 1 if i == j else 0
                assert abs(both.matrix[i][j] - expected) < TIGHT

    def test_inverse_undoes_apply(self):
        ell = boost(mpf("0.8"))
        v = FourVector("0.2", "0.4", "0.6", "0.1")
        back = ell.inverse().apply(ell.apply(v))
        assert all(
            abs(a - b) < TIGHT for a, b in zip(back.components(), v.components())
        )

    def test_inverse_is_signed_transpose_exactly(self):
        ell = rotation_xy(mpf("0.3")).compose(boost(mpf("-1.7")))
        m, inv = ell.matrix, ell.inverse().matrix
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
        # Beside a zero the infinite entry gives a NaN defect (0 * inf).
        # In a dense matrix every defect it touches is infinite, and the
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
        assert ell.inverse().matrix[1][0] == -ell.matrix[0][1]

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
            rows = [list(row) for row in real(a, b)]
            rows[0][1] += mpf("1e-20")
            return tuple(tuple(row) for row in rows)

        monkeypatch.setattr(casimir_cutoff.minkowski, "_mat_mul", perturbed)
        with pytest.raises(ValueError, match="defect"):
            boost(r).compose(boost(-r))

    def test_defect_is_worst_entry_of_full_product(self):
        rng = random.Random(5)
        rows = tuple(
            tuple(mpf(rng.uniform(-1, 1)) for _ in range(DIM)) for _ in range(DIM)
        )
        worst = max(
            abs(
                sum((rows[k][i] * (METRIC_DIAG[k] * rows[k][j]) for k in range(DIM)), mpf(0))
                - (METRIC_DIAG[i] if i == j else 0)
            )
            for i in range(DIM)
            for j in range(DIM)
        )
        with pytest.raises(ValueError, match=f"defect {mp.nstr(worst, 8)}$"):
            LorentzTransform(rows)

    def test_compose_and_inverse_are_validated(self, monkeypatch):
        calls = []
        real = casimir_cutoff.minkowski._validation_tol

        def counted():
            calls.append(1)
            return real()

        ell = boost(mpf("0.4"))
        monkeypatch.setattr(casimir_cutoff.minkowski, "_validation_tol", counted)
        ell.compose(ell)
        assert len(calls) == 1
        ell.inverse()
        assert len(calls) == 2


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
        ell = rotation_xy(mpf(rng.uniform(0, 6))).compose(
            boost(mpf(rng.uniform(-1.5, 1.5)))
        )
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
