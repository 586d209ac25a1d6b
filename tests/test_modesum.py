"""Tests for the regulated mode summation.

The transverse integral is checked against direct numerical
quadrature, the partial sums against the closed form within the
certified remainder bound, and the eigenmodes against their
normalization and wall conditions.
"""

import random
import re

import mpmath
import pytest
from mpmath import exp, inf, mp, mpf, nan, pi, quad, sqrt

from casimir_cutoff.errors import (
    CutoffDomain,
    InvalidMode,
    NonPositiveEpsilon,
    NonPositiveSeparation,
    NotConverged,
)
import casimir_cutoff.modesum
from casimir_cutoff.modesum import (
    _AUTO_N_CAP,
    _DRIFT_C,
    _default_tol,
    _search_from,
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
        with pytest.raises(CutoffDomain):
            CutoffParams(nan, 0)
        with pytest.raises(CutoffDomain):
            CutoffParams(mpf("0.1"), nan)

    def test_geometry_domain(self):
        PlateGeometry(1)
        with pytest.raises(NonPositiveSeparation):
            PlateGeometry(0)
        with pytest.raises(NonPositiveSeparation):
            PlateGeometry(-2)
        with pytest.raises(NonPositiveSeparation):
            PlateGeometry(inf)
        with pytest.raises(NonPositiveSeparation):
            PlateGeometry(nan)

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

    def test_default_tolerance_cache_matches_fresh_value(self):
        # Bit for bit the uncached expression at 15, 30, 50 and 200
        # digits, after switching away and back, and at 171 bits, which
        # is also 50 digits but rounds 1e-30 differently from 169.
        for prec in (53, 103, 169, 667, 53, 171, 169, 667, 103):
            mp.prec = prec
            fresh = max(mpf("1e-30"), mpf(10) ** (10 - mp.dps))
            cached = _default_tol(mp.dps, mp.prec)
            assert cached._mpf_ == fresh._mpf_
            assert _default_tol(mp.dps, mp.prec) is cached

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
        for dps, n_maxes in (
            (15, (1, 7, 60, 200, 20000)),
            (50, (1, 7, 60, 200, 20000)),
            (200, (1, 7, 60, 200)),
        ):
            with mp.workdps(dps):
                u = mpf(2) ** -mp.prec
            with mp.workdps(2 * dps):
                # Terms fall monotonically past the first few, so once one
                # is below 2^-20 u of the sum, the rest of 20 000 add less
                # than u / 32 of it and the reference stops there.
                tiny = u * mpf(2) ** -20
                partial, sums = mpf(0), {}
                for n in range(1, max(n_maxes) + 1):
                    term = transverse_integral(n * pi / a, eps) * exp(lam * eps * n * pi / a)
                    partial += term
                    if n in n_maxes:
                        sums[n] = partial
                    if term < tiny * partial:
                        break
                head = transverse_integral(0, eps) / 2
            with mp.workdps(dps):
                for n_max in n_maxes:
                    terms = sums.get(n_max, partial)
                    for field, ref in (
                        (FieldKind.ELECTROMAGNETIC, head + terms),
                        (FieldKind.SCALAR, terms / 2),
                    ):
                        res = energy_mode_sum(geom, cutoff, field=field, n_max=n_max)
                        drift = _DRIFT_C * (n_max + 2) * u * ref
                        assert abs(res.value - ref) <= drift

    def test_long_slow_sum_within_drift_at_low_precision(self):
        # At eps = 0.003 thousands of terms matter at 15 digits, and the
        # terms past 20 000 are below 1e-40 of the sum, so the closed form
        # is the reference for the partial sum and the bound is all drift.
        with mp.workdps(15):
            geom, cutoff = PlateGeometry(mpf("1.3")), CutoffParams(mpf("0.003"), mpf("0.2"))
            for field in FieldKind:
                res = energy_mode_sum(geom, cutoff, field=field, n_max=20000)
                with mp.workdps(30):
                    exact = energy_closed_form(geom, cutoff, field=field)
                    assert abs(res.value - exact) <= res.remainder_bound
                    assert res.remainder_bound < 1e-10 * exact

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
        # At 15 digits a tolerance of 1e-30 cannot be certified; the sum
        # used to return it with a bound 15 orders too small.
        with mp.workdps(15):
            geom = PlateGeometry(1)
            cutoff = CutoffParams(mpf("0.01"), mpf("0.3"))
            with pytest.raises(NotConverged, match="rounding drift"):
                energy_mode_sum(geom, cutoff, tol=mpf("1e-30"))

    def test_cap_failure_is_predicted_up_front(self):
        geom = PlateGeometry(1)
        cutoff = CutoffParams(mpf("1e-4"), 0)
        with pytest.raises(NotConverged, match="cap of 50000 modes") as info:
            energy_mode_sum(geom, cutoff)
        predicted = int(re.search(r"stopping index (\d+)", str(info.value)).group(1))
        assert 2 * 10**5 < predicted < 3 * 10**5

    def test_fast_decay_keeps_q_to_full_precision(self):
        # q = e^-126 vanishes beside 1 at 20 digits, so it is taken from
        # the exponential, not from 1 - (1 - q).  The scalar sum is then
        # about q p(1), which the closed form resolves only at high
        # precision, after cancelling about 60 digits.
        with mp.workdps(20):
            geom, cutoff = PlateGeometry(mpf("0.5")), CutoffParams(20, 0)
            for n_max in (None, 2):
                res = energy_mode_sum(geom, cutoff, field=FieldKind.SCALAR, n_max=n_max)
                with mp.workdps(120):
                    exact = energy_closed_form(geom, cutoff, field=FieldKind.SCALAR)
                    assert abs(res.value - exact) <= res.remainder_bound < 1e-15 * exact

    def test_short_sum_near_q_one_within_drift(self):
        # With q near 1 and few modes the whole sum exceeds S_n by 2^12
        # at eps = 1e-3 and 2^42 at 1e-12, so S_n = U - T_n cancels more
        # than a fixed 30 guard bits could hold, and must still keep the
        # drift bound against the term-by-term sum.
        for dps in (15, 50, 200):
            with mp.workdps(dps):
                u = mpf(2) ** -mp.prec
                for text in ("1e-3", "1e-4", "1e-5", "1e-6", "1e-9", "1e-12"):
                    geom, cutoff = PlateGeometry(mpf("1.3")), CutoffParams(mpf(text), mpf("0.45"))
                    a, eps, lam = geom.a, cutoff.epsilon, cutoff.lam
                    with mp.workdps(2 * dps):
                        head = transverse_integral(0, eps) / 2
                        terms = [
                            transverse_integral(n * pi / a, eps) * exp(lam * eps * n * pi / a)
                            for n in range(1, 51)
                        ]
                    for n_max in (1, 5, 50):
                        with mp.workdps(2 * dps):
                            partial = sum(terms[:n_max])
                        for field, ref in (
                            (FieldKind.ELECTROMAGNETIC, head + partial),
                            (FieldKind.SCALAR, partial / 2),
                        ):
                            res = energy_mode_sum(geom, cutoff, field=field, n_max=n_max)
                            drift = _DRIFT_C * (n_max + 2) * u * ref
                            assert abs(res.value - ref) <= drift

    def test_head_dominated_sum_matches_closed_form(self):
        # At eps = 1e300 the massive terms are below 2^-(10^300) of the
        # n = 0 head, yet the scalar sum is made of nothing else.  Their
        # exponent, about 1e300, takes 1000 bits beyond the working ones.
        geom, cutoff = PlateGeometry(1), CutoffParams(mpf("1e300"), 0)
        eps = cutoff.epsilon
        u = mpf(2) ** -mp.prec
        with mp.extraprec(mp.prec + 1000):
            head = transverse_integral(0, eps) / 2
            terms = [transverse_integral(n * pi, eps) for n in (1, 2, 3)]
        res = energy_mode_sum(geom, cutoff)
        assert res.n_max == 1
        assert abs(res.value - energy_closed_form(geom, cutoff)) <= res.remainder_bound
        for n_max in (1, 3):
            for field, ref in (
                (FieldKind.ELECTROMAGNETIC, head + sum(terms[:n_max])),
                (FieldKind.SCALAR, sum(terms[:n_max]) / 2),
            ):
                res = energy_mode_sum(geom, cutoff, field=field, n_max=n_max)
                assert abs(res.value - ref) <= _DRIFT_C * (n_max + 2) * u * ref

    def test_q_rounded_to_one_still_sums_a_given_range(self):
        # At eps = 1e-60, q = 1 - 1e-60 is 1 at 50 digits: the whole sum is
        # infinite, but a given n_max still gets its partial sum, with an
        # infinite bound, while the auto path refuses.
        geom, cutoff = PlateGeometry(1), CutoffParams(mpf("1e-60"), mpf("0.5"))
        eps, lam = cutoff.epsilon, cutoff.lam
        u = mpf(2) ** -mp.prec
        with mp.workdps(2 * mp.dps):
            head = transverse_integral(0, eps) / 2
            terms = [
                transverse_integral(n * pi, eps) * exp(lam * eps * n * pi) for n in range(1, 8)
            ]
        for n_max in (1, 7):
            for field, ref in (
                (FieldKind.ELECTROMAGNETIC, head + sum(terms[:n_max])),
                (FieldKind.SCALAR, sum(terms[:n_max]) / 2),
            ):
                res = energy_mode_sum(geom, cutoff, field=field, n_max=n_max)
                assert res.remainder_bound == inf
                assert abs(res.value - ref) <= _DRIFT_C * (n_max + 2) * u * ref
        with pytest.raises(NotConverged, match="do not decay"):
            energy_mode_sum(geom, cutoff)

    def test_predicted_index_matches_plain_bisection(self):
        # The auto n_max is the first index where the full rule, bound
        # within tol of the partial sum, holds; found here by bisecting
        # the rule as a given n_max evaluates it.
        def plain(geom, cutoff, tol):
            def meets(n):
                res = energy_mode_sum(geom, cutoff, n_max=n)
                return res.remainder_bound <= tol * res.value

            if not meets(_AUTO_N_CAP):
                return None
            lo, hi = 0, _AUTO_N_CAP
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (lo, mid) if meets(mid) else (mid, hi)
            return hi

        rng = random.Random(11)
        cases = [
            (50, rng.uniform(0.5, 2.0), rng.uniform(0.05, 0.5), rng.uniform(0.0, 0.9), "1e-30")
            for _ in range(6)
        ] + [
            (50, 1, "1e-4", 0, "1e-30"),  # past the cap
            (50, 1, "1e-7", "0.5", "1e-30"),  # far past the cap
            (50, "0.5", 20, 0, "1e-30"),  # the first mode decides
            (50, 1, "0.1", "0.999", "1e-30"),  # lambda near 1
            (15, 1, "0.05", "0.3", "1e-5"),
            (15, 2, "0.5", "0.9", "0.5"),  # a loose tolerance
            (200, 1, "0.01", "0.6", "1e-150"),
            (200, "0.7", "0.2", 0, "1e-190"),
        ]
        for dps, a, eps, lam, tol in cases:
            with mp.workdps(dps):
                geom, cutoff = PlateGeometry(mpf(a)), CutoffParams(mpf(eps), mpf(lam))
                expected = plain(geom, cutoff, mpf(tol))
                if expected is None:
                    with pytest.raises(NotConverged, match="cap of 50000 modes"):
                        energy_mode_sum(geom, cutoff, tol=mpf(tol))
                else:
                    assert energy_mode_sum(geom, cutoff, tol=mpf(tol)).n_max == expected

    def test_search_from_any_estimate(self):
        # The float estimate is usually exact, so the widening branches
        # are exercised here on a plain threshold.
        for first in (1, 2, 7, 1000, _AUTO_N_CAP):
            starts = {1, max(1, first - 3), max(1, first - 1), first, first + 1, first + 50, 40000}
            for start in starts:
                probes = []

                def meets(n, first=first):
                    probes.append(n)
                    return n >= first

                assert _search_from(meets, start) == first
                assert len(probes) <= 2 * abs(first - start).bit_length() + 3
                if start == first > 1:
                    assert probes == [first, first - 1]
        assert _search_from(lambda n: False, 10) > _AUTO_N_CAP

    def test_each_call_makes_one_exponential(self, monkeypatch):
        calls = []
        for name in ("exp", "expm1"):
            real = getattr(mpmath, name)

            def counted(*args, real=real):
                calls.append(1)
                return real(*args)

            monkeypatch.setattr(casimir_cutoff.modesum, name, counted, raising=False)
        rng = random.Random(3)
        for dps in (15, 50, 200):
            with mp.workdps(dps):
                for _ in range(4):
                    geom = PlateGeometry(mpf(rng.uniform(0.5, 2.0)))
                    cutoff = CutoffParams(mpf(rng.uniform(0.01, 0.5)), mpf(rng.uniform(0.0, 0.9)))
                    for field in FieldKind:
                        for n_max in (None, 1, 200, 20000):
                            calls.clear()
                            energy_mode_sum(geom, cutoff, field=field, n_max=n_max)
                            assert len(calls) == 1

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
