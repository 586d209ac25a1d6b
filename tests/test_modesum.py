"""Tests for the regulated mode summation.

The transverse integral is checked against direct numerical
quadrature, the partial sums against the closed form within the
certified remainder bound, and the eigenmodes against their
normalization and wall conditions.
"""

import random
import re

import pytest
from mpmath import exp, inf, mp, mpf, nan, pi, quad, sqrt

from casimir_cutoff.errors import (
    CutoffDomain,
    InvalidMode,
    NonPositiveEpsilon,
    NonPositiveSeparation,
    NotConverged,
)
from casimir_cutoff.modesum import (
    _DRIFT_C,
    CutoffParams,
    FieldKind,
    ModeIndex,
    PlateGeometry,
    check_boundary_conditions,
    eigenmode,
    energy_closed_form,
    energy_mode_sum,
    transverse_integral,
)


class TestDomainValidation:
    """Constructor guards on the parameter records."""

    def test_cutoff_domain(self):
        CutoffParams(mpf("0.1"), mpf("0.9"))
        CutoffParams(mpf("0.1"), 0)
        with pytest.raises(CutoffDomain):
            CutoffParams(0, 0)
        with pytest.raises(CutoffDomain):
            CutoffParams(mpf("0.1"), 1)
        with pytest.raises(CutoffDomain):
            CutoffParams(mpf("0.1"), mpf("-0.2"))

    def test_geometry_domain(self):
        PlateGeometry(1)
        with pytest.raises(NonPositiveSeparation):
            PlateGeometry(0)
        with pytest.raises(NonPositiveSeparation):
            PlateGeometry(-2)

    def test_mode_index_domain(self):
        ModeIndex(0, 2, (mpf("0.3"), mpf("0.4")))
        ModeIndex(3, 1, (mpf("0.3"), mpf("0.4")))
        with pytest.raises(InvalidMode):
            ModeIndex(-1, 1, (0, 0))
        with pytest.raises(InvalidMode):
            ModeIndex(1, 3, (0, 0))
        with pytest.raises(InvalidMode):
            ModeIndex(0, 1, (mpf("0.3"), mpf("0.4")))


class TestTransverseIntegral:
    """Closed form of the planar momentum integral."""

    def test_against_quadrature(self):
        for m, eps in [(0, "0.3"), ("1.5", "0.2"), (pi, "0.05"), (10, "0.4")]:
            m = mpf(m)
            eps = mpf(eps)
            # Radial integral over the transverse plane, omega(k) weights.
            direct = quad(
                lambda k: k * sqrt(k * k + m * m) * exp(-eps * sqrt(k * k + m * m)),
                [0, inf],
            ) / (2 * pi)
            got = transverse_integral(m, eps)
            assert abs(got - direct) < mpf("1e-25") * abs(direct)

    def test_massless_value(self):
        eps = mpf("0.1")
        assert abs(transverse_integral(0, eps) - 1 / (pi * eps**3)) < mpf("1e-45")

    def test_decreasing_in_mass(self):
        eps = mpf("0.2")
        values = [transverse_integral(m, eps) for m in range(0, 8)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_rejects_bad_arguments(self):
        with pytest.raises(NonPositiveEpsilon):
            transverse_integral(1, 0)
        with pytest.raises(ValueError):
            transverse_integral(-1, mpf("0.1"))


class TestEnergyModeSum:
    """Partial sums, certified tails, and the closed form."""

    def test_agrees_with_closed_form_within_bound(self):
        rng = random.Random(101)
        for _ in range(20):
            a = mpf(rng.uniform(0.5, 2.0))
            lam = mpf(rng.uniform(0.0, 0.9))
            eps = mpf(rng.uniform(0.05, 0.5))
            geom = PlateGeometry(a)
            cutoff = CutoffParams(eps, lam)
            for field in FieldKind:
                res = energy_mode_sum(geom, cutoff, field=field, tol=mpf("1e-12"))
                exact = energy_closed_form(geom, cutoff, field=field)
                assert abs(res.value - exact) <= res.remainder_bound
                assert res.remainder_bound <= mpf("1e-10") * abs(res.value)

    def test_auto_extension_reaches_default_tolerance(self):
        geom = PlateGeometry(1)
        cutoff = CutoffParams(mpf("0.1"), mpf("0.5"))
        res = energy_mode_sum(geom, cutoff)
        assert res.remainder_bound <= mpf("1e-30") * abs(res.value)
        exact = energy_closed_form(geom, cutoff)
        assert abs(res.value - exact) <= res.remainder_bound

    def test_fixed_n_max_bound_is_honest(self):
        geom = PlateGeometry(1)
        cutoff = CutoffParams(mpf("0.3"), mpf("0.2"))
        exact = energy_closed_form(geom, cutoff)
        prev_bound = None
        prev_value = None
        for n_max in (5, 10, 20, 40):
            res = energy_mode_sum(geom, cutoff, n_max=n_max)
            assert res.n_max == n_max
            assert abs(res.value - exact) <= res.remainder_bound
            if prev_bound is not None:
                assert res.remainder_bound < prev_bound
                # All terms are positive, so partial sums increase.
                assert res.value > prev_value
            prev_bound = res.remainder_bound
            prev_value = res.value

    def test_unreachable_tolerance_raises(self):
        geom = PlateGeometry(1)
        cutoff = CutoffParams(mpf("0.3"), 0)
        with pytest.raises(NotConverged):
            energy_mode_sum(geom, cutoff, n_max=3, tol=mpf("1e-40"))

    def test_rejects_non_positive_tolerance(self):
        geom = PlateGeometry(1)
        cutoff = CutoffParams(mpf("0.1"), 0)
        for tol in (0, mpf("-1e-20"), nan):
            with pytest.raises(ValueError, match="tolerance"):
                energy_mode_sum(geom, cutoff, tol=tol)
            with pytest.raises(ValueError, match="tolerance"):
                energy_mode_sum(geom, cutoff, n_max=10, tol=tol)

    def test_auto_n_max_is_the_first_index_meeting_the_rule(self):
        # The predicted start of the per-step check must not skip the
        # first index whose bound meets the tolerance.
        rng = random.Random(7)
        tol = mpf("1e-30")
        for _ in range(4):
            geom = PlateGeometry(mpf(rng.uniform(0.5, 2.0)))
            cutoff = CutoffParams(mpf(rng.uniform(0.05, 0.5)), mpf(rng.uniform(0.0, 0.9)))
            for field in FieldKind:
                res = energy_mode_sum(geom, cutoff, field=field, tol=tol)
                fixed = energy_mode_sum(geom, cutoff, field=field, n_max=res.n_max, tol=tol)
                assert (fixed.value, fixed.remainder_bound) == (res.value, res.remainder_bound)
                with pytest.raises(NotConverged):
                    energy_mode_sum(geom, cutoff, field=field, n_max=res.n_max - 1, tol=tol)

    def test_recurrence_matches_termwise_sum_within_drift(self):
        a, eps, lam = mpf("1.3"), mpf("0.07"), mpf("0.45")
        geom, cutoff = PlateGeometry(a), CutoffParams(eps, lam)
        for field, weight, head in (
            (FieldKind.ELECTROMAGNETIC, 1, mpf(1) / 2),
            (FieldKind.SCALAR, mpf(1) / 2, 0),
        ):
            for n_max in (1, 7, 60, 200):
                res = energy_mode_sum(geom, cutoff, field=field, n_max=n_max)
                with mp.workdps(2 * mp.dps):
                    ref = head * transverse_integral(0, eps) + weight * sum(
                        transverse_integral(n * pi / a, eps) * exp(lam * eps * n * pi / a)
                        for n in range(1, n_max + 1)
                    )
                drift = _DRIFT_C * (n_max + 2) * mpf(2) ** -mp.prec * ref
                assert abs(res.value - ref) <= drift

    @pytest.mark.parametrize("dps", [15, 20, 30, 50])
    def test_bound_holds_at_every_precision(self, dps):
        rng = random.Random(dps)
        with mp.workdps(dps):
            tol = mpf(10) ** -(2 * dps // 3)
            for _ in range(3):
                geom = PlateGeometry(mpf(rng.uniform(0.5, 2.0)))
                cutoff = CutoffParams(mpf(rng.uniform(0.05, 0.5)), mpf(rng.uniform(0.0, 0.9)))
                for field in FieldKind:
                    res = energy_mode_sum(geom, cutoff, field=field, tol=tol)
                    with mp.workdps(2 * dps):
                        exact = energy_closed_form(geom, cutoff, field=field)
                        assert abs(res.value - exact) <= res.remainder_bound

    def test_tolerance_below_rounding_floor_fails_up_front(self):
        # At 15 digits the default 1e-30 cannot be certified; the sum
        # used to return it with a bound 15 orders too small.
        with mp.workdps(15):
            geom = PlateGeometry(1)
            cutoff = CutoffParams(mpf("0.01"), mpf("0.3"))
            with pytest.raises(NotConverged, match="rounding drift"):
                energy_mode_sum(geom, cutoff)

    def test_cap_failure_is_predicted_up_front(self):
        geom = PlateGeometry(1)
        cutoff = CutoffParams(mpf("1e-4"), 0)
        with pytest.raises(NotConverged, match="cap of 50000 modes") as info:
            energy_mode_sum(geom, cutoff)
        predicted = int(re.search(r"stopping index (\d+)", str(info.value)).group(1))
        assert 2 * 10**5 < predicted < 3 * 10**5

    def test_scalar_halves_the_massive_tower(self):
        # Scalar = (EM - half the n=0 term) / 2: one polarization per
        # n >= 1 instead of two, and nothing at n = 0.
        geom = PlateGeometry(mpf("1.5"))
        cutoff = CutoffParams(mpf("0.2"), mpf("0.4"))
        em = energy_mode_sum(geom, cutoff, field=FieldKind.ELECTROMAGNETIC, n_max=200)
        sc = energy_mode_sum(geom, cutoff, field=FieldKind.SCALAR, n_max=200)
        t0 = transverse_integral(0, cutoff.epsilon)
        assert abs(sc.value - (em.value - t0 / 2) / 2) < mpf("1e-40")

    def test_closed_form_scalar_relation(self):
        geom = PlateGeometry(2)
        cutoff = CutoffParams(mpf("0.15"), mpf("0.6"))
        em = energy_closed_form(geom, cutoff, field=FieldKind.ELECTROMAGNETIC)
        sc = energy_closed_form(geom, cutoff, field=FieldKind.SCALAR)
        t0 = transverse_integral(0, cutoff.epsilon)
        assert abs(sc - (em / 2 - t0 / 4)) < mpf("1e-45")

    def test_dimensional_scaling(self):
        # Energy per unit area scales as 1/length^3 when (a, eps) are
        # scaled together and lambda is held fixed.
        lam = mpf("0.3")
        e1 = energy_closed_form(PlateGeometry(1), CutoffParams(mpf("0.1"), lam))
        e2 = energy_closed_form(PlateGeometry(2), CutoffParams(mpf("0.2"), lam))
        assert abs(e2 - e1 / 8) < mpf("1e-30") * abs(e1)

    def test_divergence_rate_near_zero_cutoff(self):
        # Leading small-eps behaviour: each of the three closed-form
        # terms contributes one power of 1/(1-lam) to the eps^-4 pole.
        a = mpf("1.3")
        lam = mpf("0.25")
        eps = mpf("1e-8")
        w = 1 / (1 - lam)
        lead = a * w * (1 + w + w * w) / (pi**2 * eps**4)
        got = energy_closed_form(PlateGeometry(a), CutoffParams(eps, lam))
        assert abs(got / lead - 1) < mpf("1e-6")


class TestEigenmodes:
    """Wall conditions and normalization of the cavity modes."""

    def cases(self):
        k = (mpf("0.7"), mpf("-0.4"))
        return [
            ModeIndex(0, 2, k),
            ModeIndex(1, 1, k),
            ModeIndex(1, 2, k),
            ModeIndex(4, 1, k),
            ModeIndex(4, 2, k),
        ]

    def test_boundary_conditions(self):
        geom = PlateGeometry(mpf("1.7"))
        for idx in self.cases():
            assert check_boundary_conditions(idx, geom) < mpf("1e-40")

    def test_transverse_components_vanish_at_walls(self):
        geom = PlateGeometry(1)
        for idx in self.cases():
            for z in (mpf(0), geom.a):
                ax, ay, _ = eigenmode(idx, geom, z)
                assert abs(ax) < mpf("1e-45")
                assert abs(ay) < mpf("1e-45")

    def test_profile_normalization(self):
        # The z profile of each transverse component integrates to
        # |amplitude|^2 * a/2 for n >= 1 (full weight) and a for n = 0.
        geom = PlateGeometry(mpf("1.2"))
        a = geom.a
        idx = ModeIndex(3, 1, (mpf("0.5"), mpf("0.1")))
        norm = quad(
            lambda z: sum(abs(c) ** 2 for c in eigenmode(idx, geom, z)), [0, a]
        )
        assert abs(norm - 1) < mpf("1e-30")

    def test_second_polarization_normalization(self):
        geom = PlateGeometry(mpf("0.9"))
        idx = ModeIndex(2, 2, (mpf("0.8"), mpf("-0.3")))
        norm = quad(
            lambda z: sum(abs(c) ** 2 for c in eigenmode(idx, geom, z)),
            [0, geom.a],
        )
        assert abs(norm - 1) < mpf("1e-30")

    def test_zero_mode_normalization(self):
        geom = PlateGeometry(mpf("1.4"))
        idx = ModeIndex(0, 2, (mpf("0.6"), mpf("0.2")))
        norm = quad(
            lambda z: sum(abs(c) ** 2 for c in eigenmode(idx, geom, z)),
            [0, geom.a],
        )
        assert abs(norm - 1) < mpf("1e-30")
