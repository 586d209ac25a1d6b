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
from mpmath import exp, inf, mag, mp, mpf, nan, pi, quad, sqrt

from casimir_cutoff.errors import (
    CutoffDomain,
    InvalidMode,
    NonPositiveSeparation,
    NotConverged,
    WallContact,
)
import casimir_cutoff.modesum
import casimir_cutoff.pointwise
from casimir_cutoff.modesum import (
    _AUTO_N_CAP,
    _DRIFT_C,
    _default_tol,
    _search_from,
    CutoffParams,
    FieldKind,
    PlateGeometry,
    energy_mode_sum,
)
from casimir_cutoff.pointwise import (
    ModeIndex,
    check_boundary_conditions,
    eigenmode,
    energy_closed_form,
)
from series_reference import _operator_tower, reference_mode_sum, transverse_integral


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
            CutoffParams(inf, 0)
        with pytest.raises(CutoffDomain):
            CutoffParams(-inf, 0)
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
        with pytest.raises(CutoffDomain):
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

    @pytest.mark.parametrize("dps", [15, 50])
    def test_given_n_max_bound_is_finite_and_holds_near_lambda_one(self, dps):
        # A few modes at lambda up to 0.999 and eps down to 1e-4: the tail
        # T_n holds almost the whole sum, and its rounded inputs move it
        # by up to (n + 3r) units of 2^-prec, with r = 1 / (1 - q) up to
        # millions, so a drift without the 3r term falls short of
        # |S_n - E| here.  Where q ((n + 2) / (n + 1))^2 >= 1, the ratio
        # bound this replaced was +inf.
        rng = random.Random(dps)
        with mp.workdps(dps):
            for _ in range(50):
                geom = PlateGeometry(mpf(rng.uniform(0.5, 2.0)))
                lam = mpf(rng.uniform(0.5, 0.999))
                cutoff = CutoffParams(mpf(10) ** rng.uniform(-4, -1), lam)
                for field in FieldKind:
                    with mp.workdps(dps + 60):
                        exact = energy_closed_form(geom, cutoff, field)
                    for n_max in (1, 2, 5, 20):
                        res = energy_mode_sum(geom, cutoff, field, n_max)
                        assert mpmath.isfinite(res.remainder_bound)
                        with mp.workdps(dps + 60):
                            error = abs(res.value - exact)
                        assert error <= res.remainder_bound, (geom, cutoff, field, n_max)

    def test_unreachable_tolerance_raises(self):
        geom = PlateGeometry(1)
        cutoff = CutoffParams(mpf("0.3"), 0)
        with pytest.raises(NotConverged):
            energy_mode_sum(geom, cutoff, n_max=3, tol=mpf("1e-40"))

    def test_rejects_non_positive_tolerance(self):
        # Not positive and finite, with n_max omitted or given; an
        # infinite tolerance is refused up front on both paths too.
        geom = PlateGeometry(1)
        for cutoff in (CutoffParams(mpf("0.1"), 0), CutoffParams(mpf("0.1"), mpf("0.3"))):
            for tol in (0, mpf("-1e-20"), nan, inf, -inf):
                with pytest.raises(ValueError, match="tolerance must be positive and finite"):
                    energy_mode_sum(geom, cutoff, tol=tol)
                with pytest.raises(ValueError, match="tolerance must be positive and finite"):
                    energy_mode_sum(geom, cutoff, n_max=5, tol=tol)

    @pytest.mark.parametrize("n_max", [2.5, 3.0, mpf(3), True, False], ids=repr)
    def test_rejects_non_integer_n_max_before_work(self, monkeypatch, n_max):
        # 2.5 used to come back as a "sum" with an infinite bound, True
        # summed one mode, and 3.0 or mpf(3) were echoed back as n_max.
        def no_work(*args):
            raise AssertionError("work done before n_max was checked")

        monkeypatch.setattr(casimir_cutoff.modesum, "_tower", no_work)
        geom, cutoff = PlateGeometry(1), CutoffParams(mpf("0.1"), mpf("0.3"))
        with pytest.raises(ValueError, match=r"n_max must be an integer, got "):
            energy_mode_sum(geom, cutoff, n_max=n_max)
        with pytest.raises(ValueError, match=r"n_max must be an integer, got "):
            energy_mode_sum(geom, cutoff, n_max=n_max, tol=mpf("1e-10"))

    def test_integer_n_max_round_trips(self):
        geom, cutoff = PlateGeometry(1), CutoffParams(mpf("0.1"), mpf("0.3"))
        for field in FieldKind:
            res = energy_mode_sum(geom, cutoff, field=field)
            assert type(res.n_max) is int
            again = energy_mode_sum(geom, cutoff, field=field, n_max=res.n_max)
            assert again == res and type(again.n_max) is int
            assert energy_mode_sum(geom, cutoff, field=field, n_max=3).n_max == 3
        with pytest.raises(ValueError, match="n_max must be >= 1, got 0"):
            energy_mode_sum(geom, cutoff, n_max=0)

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

    def test_float_estimate_that_underflows_predicts_no_crossing(self):
        # At 400 digits and eps = 1e-350, q < 1, but x = (lambda - 1) eps
        # pi / a underflows to 0 as a double, so the float estimate sees
        # no decay.  It reports its search limit, 2^62, and the cap
        # refuses the sum; without that early return the estimate would
        # take the logarithm of 1 - q = 0 and raise ValueError.  At
        # eps = 1e-315, x is a subnormal double and r = 1 / (1 - q), about
        # 6e314, overflows a double once squared; the estimate takes every
        # factor as a logarithm and reaches the same limit, since the
        # crossing lies near 77 r.  The message says that the index lies
        # beyond that limit, which is no estimate of it.
        message = (
            "predicted stopping index beyond the float search's limit of 2^62 for relative "
            "tolerance 1.0e-30 exceeds the cap of 50000 modes"
        )
        with mp.workdps(400):
            for eps in ("1e-350", "1e-315"):
                cutoff = CutoffParams(mpf(eps), mpf("0.5"))
                for field in FieldKind:
                    with pytest.raises(NotConverged, match=re.escape(message) + "$"):
                        energy_mode_sum(PlateGeometry(1), cutoff, field)

    def test_cap_is_checked_after_the_exact_search(self, monkeypatch):
        # An estimate at the cap whose exact search ends past it still
        # fails: about 88 000 modes are needed here.
        monkeypatch.setattr(
            casimir_cutoff.modesum, "_predict_stop", lambda *args: (_AUTO_N_CAP, _AUTO_N_CAP, False)
        )
        cutoff = CutoffParams(mpf("5e-4"), mpf("0.5"))
        message = "remainder bound not below 1.0e-30 within 50000 modes"
        with pytest.raises(NotConverged, match=re.escape(message)):
            energy_mode_sum(PlateGeometry(1), cutoff)

    def test_start_past_the_cap_costs_one_exact_probe(self, monkeypatch):
        # With tolerance 2, T_1 <= tol U already, but the rule with its
        # drift, about T_n (1 + tol) <= tol U, first holds at 92 392.  The
        # exact search starts at the cap + 1, where one probe fails; from
        # n = 1 it would widen up to the cap in 31 probes.
        exact_probes = _count_exact_probes(monkeypatch)
        cutoff = CutoffParams(mpf("1e-5"), mpf("0.5"))
        with pytest.raises(NotConverged, match="remainder bound not below 2.0 within 50000 modes"):
            energy_mode_sum(PlateGeometry(1), cutoff, tol=2)
        assert exact_probes == [_AUTO_N_CAP + 1]

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

    @pytest.mark.parametrize("dps", [15, 50, 200])
    def test_q_rounded_to_one_is_refused_with_or_without_a_range(self, dps):
        # At eps = 10^-(dps + 10), q = 1 - 1.6 10^-(dps + 10) rounds to 1: no
        # bound is finite, so a given n_max is refused as the auto path
        # is, with a tolerance or without, for both fields.
        geom = PlateGeometry(1)
        with mp.workdps(dps):
            cutoff = CutoffParams(mpf(10) ** -(dps + 10), mpf("0.5"))
            for field in FieldKind:
                for n_max in (None, 1, 7, 10**6):
                    for tol in (None, mpf(10) ** (4 - dps)):
                        with pytest.raises(NotConverged, match="do not decay"):
                            energy_mode_sum(geom, cutoff, field, n_max, tol)

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

    def test_prediction_starts_at_the_crossing(self, monkeypatch):
        # The float search starts from a guess at the crossing, not from
        # n = 1: its probes at n and n - 1 settle it, where doubling and
        # bisection from 1 took 16 or more.  The float value at n - 1
        # clears the tolerance by far more than the floats' error, so the
        # exact rule is evaluated at the float result alone.
        searches = []
        real_search = casimir_cutoff.modesum._search_from

        def counted_search(meets, n, *limit):
            probes = []
            searches.append(probes)
            return real_search(lambda m: probes.append(m) or meets(m), n, *limit)

        monkeypatch.setattr(casimir_cutoff.modesum, "_search_from", counted_search)
        exact_probes = _count_exact_probes(monkeypatch)
        rng = random.Random(5)
        float_counts = []
        for _ in range(60):
            geom = PlateGeometry(mpf(rng.uniform(0.5, 2.0)))
            cutoff = CutoffParams(mpf(rng.uniform(0.01, 0.5)), mpf(rng.uniform(0.0, 0.9)))
            searches.clear()
            exact_probes.clear()
            res = energy_mode_sum(geom, cutoff, field=rng.choice(list(FieldKind)))
            float_counts.append(len(searches[0]))
            assert exact_probes == [res.n_max]
        assert sorted(float_counts)[len(float_counts) // 2] == 2
        assert max(float_counts) < 16

    def test_uncertified_estimate_still_probes_below_it(self, monkeypatch):
        # Without the float certificate the exact rule is evaluated at the
        # estimate and one below it, and gives the same result.
        rng = random.Random(13)
        points = [
            (PlateGeometry(mpf(rng.uniform(0.5, 2.0))),
             CutoffParams(mpf(rng.uniform(0.01, 0.5)), mpf(rng.uniform(0.0, 0.9))),
             field)
            for _ in range(6) for field in FieldKind
        ]
        certified = [energy_mode_sum(*point) for point in points]
        real_predict = casimir_cutoff.modesum._predict_stop
        monkeypatch.setattr(
            casimir_cutoff.modesum, "_predict_stop", lambda *args: real_predict(*args)[:2] + (False,)
        )
        exact_probes = _count_exact_probes(monkeypatch)
        for point, want in zip(points, certified):
            exact_probes.clear()
            assert energy_mode_sum(*point) == want
            assert exact_probes == [want.n_max, want.n_max - 1]

    def test_estimate_includes_the_drift(self, monkeypatch):
        # At 15 digits a tolerance of 1e-10 is about 4 times the drift at
        # the crossing, which moves the first index meeting the rule by
        # about 480 past where T_n <= tol U.  The float estimate solves
        # the rule with the drift, so the exact search starts there and
        # makes 2 probes; from the drift-free crossing it would widen and
        # bisect in 19.
        exact_probes = _count_exact_probes(monkeypatch)
        with mp.workdps(15):
            geom, cutoff = PlateGeometry(mpf("1.02")), CutoffParams(mpf("0.0035"), mpf("0.94"))
            for field in FieldKind:
                exact_probes.clear()
                res = energy_mode_sum(geom, cutoff, field, tol=mpf("1e-10"))
                assert res.n_max == 45448
                assert exact_probes == [45448, 45447]

    def test_slow_decay_at_low_precision_takes_two_exact_probes(self, monkeypatch):
        # At 16 digits, with r = 1 / (1 - q) about 5 10^8 and a tolerance
        # of 1e6, r 2^-prec is about 7e-9, and an ln r taken from the
        # double x instead of the rounded r moved the float estimate
        # away from the exact crossing: 11 exact probes (EM), 9
        # (scalar).  With the rounded r it lands on the crossing.
        exact_probes = _count_exact_probes(monkeypatch)
        with mp.workdps(16):
            geom, cutoff = PlateGeometry(mpf("434.79")), CutoffParams(mpf("3.75e-7"), mpf("0.26"))
            for field, n_max in ((FieldKind.ELECTROMAGNETIC, 2083), (FieldKind.SCALAR, 2084)):
                exact_probes.clear()
                res = energy_mode_sum(geom, cutoff, field, tol=mpf("1e6"))
                assert res.n_max == n_max
                assert len(exact_probes) <= 2

    def test_moments_are_evaluated_once_with_guard_bits(self, monkeypatch):
        # r = 1 / (1 - q) is formed at prec bits, and r with the moments
        # of q^n once more at prec + g bits, g read from the exponent of
        # that r.  g is never below 30 plus the difference of the
        # magnitudes of U and head + term_1 at prec bits, the guard that
        # evaluating both would give, which grows like 3 log2 r: up to
        # r ~ 2^17, with lambda within 2^-53 of 1 and where the n = 0 head
        # dominates the sum.
        precs = []
        real = casimir_cutoff.modesum._mpf_rdiv_int
        monkeypatch.setattr(
            casimir_cutoff.modesum, "_mpf_rdiv_int", lambda *args: precs.append(args[2]) or real(*args)
        )
        rng = random.Random(17)
        cases = [
            (mpf(rng.uniform(0.3, 3.0)), mpf(10) ** rng.uniform(-2, 1), mpf(rng.uniform(0.0, 0.9)))
            for _ in range(8)
        ]
        with mp.workprec(200):  # inputs with more bits than the working ones
            cases += [(1, mpf(eps), mpf("0.9999")) for eps in ("0.02", "0.2", "2", "20")]
            cases += [
                (1, mpf(2) ** 52, 1 - mpf(2) ** -54), (1, mpf(2) ** 60 / 100, 1 - mpf(2) ** -60),
                (mpf("0.1"), 1, 0), (mpf("0.01"), 3, 0),
            ]
        slack = []
        for dps in (15, 50, 200):
            with mp.workdps(dps):
                for a, eps, lam in cases:
                    geom, cutoff = PlateGeometry(a), CutoffParams(eps, lam)
                    for field in FieldKind:
                        weight = mpf(1) if field is FieldKind.ELECTROMAGNETIC else mpf(1) / 2
                        _, q, A, B, C = _operator_tower(geom, cutoff, weight)
                        head = C / 2 if field is FieldKind.ELECTROMAGNETIC else mpf(0)
                        r = 1 / (1 - q)
                        qr, a1 = q * r, A * (1 + q) * r
                        U = head + qr * ((a1 + B) * r + C)
                        floor = 30 + max(0, mag(U) - mag(head + q * (A + B + C)))
                        for n_max in (None, 1, 300):
                            precs.clear()
                            _outcome(energy_mode_sum, geom, cutoff, field, n_max)
                            assert len(precs) == 2 and precs[0] == mp.prec, (a, eps, lam, field)
                            assert precs[1] - mp.prec >= floor, (a, eps, lam, field)
                        slack.append(precs[1] - mp.prec - floor)
        # Some sums come within 2 bits of that guard, so a rule weaker by
        # a bit per factor of r fails here.
        assert min(slack) <= 2 and max(slack) >= 8

    @pytest.mark.parametrize("dps", [15, 50, 200])
    def test_tower_guard_bits_match_x_at_working_precision(self, monkeypatch, dps):
        # The guard bits come from the exponents of eps and a.  They are
        # never fewer than the 20 + mag(x) that x at prec bits gives: near
        # |x| = 1, with lambda within 2^-53 of 1, and where a double
        # overflows, underflows or is subnormal.  The values have the
        # operator form's bits.
        tower, real_exp = casimir_cutoff.modesum._tower, casimir_cutoff.modesum._mpf_exp
        precs = []
        monkeypatch.setattr(
            casimir_cutoff.modesum, "_mpf_exp", lambda x, p, rnd: precs.append(p) or real_exp(x, p, rnd)
        )
        tiny = mpf(2) ** -1074  # the least subnormal double
        with mp.workprec(200):  # inputs with more bits than the working ones
            one = 1 / pi
            cases = [
                (1, one, 0), (1, one * mpf("0.98"), 0), (1, one * mpf("0.995"), 0),
                (1, one * (1 - mpf(2) ** -60), 0), (1, one * mpf("1.02"), 0), (2, 2 * one, mpf("0.5")),
                (1, mpf("1e25"), 1 - mpf("1e-20")), (1, mpf("1e20"), 1 - mpf(2) ** -54),
                (tiny, tiny * mpf("1.5") * one, 0), (mpf("1e-310"), mpf("3e-311"), 0),
                (mpf("1e-400"), mpf("1e-400"), 0), (mpf("1e-310"), mpf("1e-330"), 0),
                (mpf("1e400"), mpf("1e399"), 0), (mpf("1e400"), mpf("1e-400"), 0),
                (1, mpf("1e400"), 0), (1, mpf("1e-400"), 0),
                (mpf("1e-300"), mpf("3e-301"), mpf("0.1")), (mpf("1e300"), mpf("3e299"), 0),
            ]
        with mp.workdps(dps):
            prec, rnd = mp._prec_rounding
            for a, eps, lam in cases:
                geom, cutoff = PlateGeometry(a), CutoffParams(eps, lam)
                x = (cutoff.lam - 1) * cutoff.epsilon * pi / geom.a
                for weight in (mpf(1), mpf(1) / 2):
                    precs.clear()
                    got = tower(geom, cutoff, weight._mpf_, prec, rnd)
                    assert precs[0] >= prec + 20 + max(0, mag(x)), (a, eps, lam)
                    assert got == tuple(v._mpf_ for v in _operator_tower(geom, cutoff, weight))

    @pytest.mark.parametrize("dps", [15, 50, 200])
    def test_large_cutoff_sum_agrees_with_closed_form_within_bound(self, dps):
        # At eps >~ a the bound lies below the closed form's own rounding
        # at the working precision, so the closed form is taken at
        # dps + 60.  Here |x| = (1 - lambda) eps pi / a >= 1, so the
        # tower takes the magnitude of x from x itself.
        rng = random.Random(dps + 7)
        with mp.workdps(dps):
            for _ in range(12):
                a = rng.uniform(0.1, 3)
                geom = PlateGeometry(mpf(a))
                cutoff = CutoffParams(mpf(a * rng.uniform(1, 20)), mpf(rng.uniform(0, 0.6)))
                assert (1 - cutoff.lam) * cutoff.epsilon * pi / geom.a >= 1
                for field in FieldKind:
                    res = energy_mode_sum(geom, cutoff, field)
                    with mp.workdps(dps + 60):
                        exact = energy_closed_form(geom, cutoff, field)
                        assert abs(res.value - exact) <= res.remainder_bound, (geom, cutoff, field)

    def test_each_call_makes_one_exponential(self, monkeypatch):
        # The sum takes its exponential from libmp on raw values, through
        # the module's _mpf_exp; mpmath's exp and expm1 are counted too,
        # should either come back.
        calls = []
        for name, real in (
            ("_mpf_exp", mpmath.libmp.mpf_exp), ("exp", mpmath.exp), ("expm1", mpmath.expm1)
        ):

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

    @pytest.mark.parametrize("field", ["em", "scalar", None])
    def test_closed_form_rejects_field_before_work(self, monkeypatch, field):
        # As energy_mode_sum does: checked before any expm1, coth or csch.
        def no_work(x):
            raise AssertionError("closed form evaluated for an unknown field")

        for name in ("expm1", "coth", "csch"):
            monkeypatch.setattr(casimir_cutoff.pointwise, name, no_work)
        with pytest.raises(InvalidMode, match="unknown field kind"):
            energy_closed_form(PlateGeometry(1), CutoffParams(mpf("0.1"), 0), field)

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

    @pytest.mark.parametrize("dps", [15, 50, 200])
    def test_closed_form_keeps_its_digits_at_large_cutoff(self, dps):
        # At eps >~ a the n >= 1 modes are a small part of the
        # electromagnetic energy, so a scalar value formed as that energy
        # less its n = 0 term cancels (to 0 at (0.163, 0, 2.507) at 15
        # digits).  Against the same formula at dps + 40: within
        # 10 (1 + 2v) units of 2^-prec, v = (1 - lambda) eps pi / 2a, the
        # size of exp(2v)'s rounding from its argument's.
        rng = random.Random(dps)
        with mp.workdps(dps):
            points = [("0.163", 0, "2.507"), ("0.2", 0, "2.5")] + [
                (a, rng.choice([0, rng.uniform(0, 0.9)]), a * rng.uniform(1, 20))
                for a in (rng.uniform(0.1, 3) for _ in range(40))
            ]
            for a, lam, eps in points:
                geom, cutoff = PlateGeometry(mpf(a)), CutoffParams(mpf(eps), mpf(lam))
                v = (1 - cutoff.lam) * cutoff.epsilon * pi / (2 * geom.a)
                ulps = 10 * (1 + 2 * v) * mpf(2) ** -mp.prec
                for field in FieldKind:
                    got = energy_closed_form(geom, cutoff, field)
                    with mp.workdps(dps + 40):
                        exact = energy_closed_form(geom, cutoff, field)
                        assert abs(got - exact) <= ulps * exact, (a, lam, eps, field)


def _count_exact_probes(monkeypatch) -> list:
    """Record every n at which energy_mode_sum evaluates S_n and T_n exactly."""
    probes = []
    real = casimir_cutoff.modesum._partial_sums

    def counted(*args):
        r, at = real(*args)
        return r, lambda n: probes.append(n) or at(n)

    monkeypatch.setattr(casimir_cutoff.modesum, "_partial_sums", counted)
    return probes


def _outcome(fn, *args) -> str:
    # repr of the result, whose mpf reprs round-trip every bit, or the
    # exception's type and message.
    try:
        return repr(fn(*args))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


class TestOperatorFormBitIdentity:
    """The raw-value kernel gives every bit and error of the mpf-operator form.

    ``reference_mode_sum`` (``series_reference``) is the same sum written
    with mpf's operators under ``mp.extraprec``, and finds an automatic
    n_max by two exact probes where ``energy_mode_sum`` may make one on
    the strength of its float certificate.  Both are called on one grid
    per precision: both fields, auto, a given n_max, n_max with a
    tolerance, a tolerance alone and a tolerance a few times the drift
    5 (n + 2) 2^-prec at the index it needs, at lambda in {0, 1e-20,
    0.999, 0.9999} and epsilon from 1e-4 to 100, plus a q that rounds to
    1, an epsilon whose log q is beyond a double's range, and the cap and
    drift failures.
    """

    @pytest.mark.parametrize("dps", [15, 20, 30, 50, 100, 200])
    def test_results_and_errors_match_the_operator_form(self, dps):
        self._check_grid(dps)

    def _check_grid(self, dps):
        rng = random.Random(dps)
        calls, near_drift = [], 0
        with mp.workdps(dps):
            drift_unit = _DRIFT_C * mpf(2) ** -mp.prec
            for lam in ("0", "1e-20", "0.999", "0.9999"):
                for eps in ("1e-4", "0.003", "0.1", "2", "100"):
                    geom = PlateGeometry(mpf(rng.uniform(0.3, 3.0)))
                    cutoff = CutoffParams(mpf(eps), mpf(lam))
                    tol = mpf(10) ** -rng.randint(4, dps - 3)
                    n = rng.choice((1, 3, rng.randint(2, 400), rng.randint(10**3, 10**6)))
                    # 2 to 8 times the drift at the index a tolerance of
                    # 10^4 drift units needs, where that one converges.
                    near = drift_unit * 10**4
                    try:
                        m = energy_mode_sum(geom, cutoff, tol=near).n_max
                        near = drift_unit * (m + 2) * rng.uniform(2, 8)
                    except NotConverged:
                        pass
                    for field in FieldKind:
                        calls += [
                            (geom, cutoff, field, None, None),
                            (geom, cutoff, field, n, None),
                            (geom, cutoff, field, n, tol),
                            (geom, cutoff, field, None, tol),
                            (geom, cutoff, field, None, near),
                        ]
            # q rounds to 1, with and without a range and a tolerance; a
            # tolerance below the drift; a huge given n_max.
            flat = CutoffParams(mpf(10) ** -(dps + 10), mpf("0.5"))
            calls += [
                (PlateGeometry(1), flat, f, n, t)
                for f in FieldKind for n in (None, 7) for t in (None, mpf(10) ** -5)
            ]
            # log q beyond a double's range.
            huge = CutoffParams(mpf("1e400"), mpf("0.5"))
            calls += [(PlateGeometry(1), huge, f, n, None) for f in FieldKind for n in (None, 3)]
            low = CutoffParams(mpf("0.01"), mpf("0.3"))
            calls += [(PlateGeometry(1), low, FieldKind.SCALAR, None, mpf(10) ** -(2 * dps))]
            calls += [(PlateGeometry(1), low, FieldKind.ELECTROMAGNETIC, 10**30, None)]
            seen = []
            for call in calls:
                want = _outcome(reference_mode_sum, *call)
                assert _outcome(energy_mode_sum, *call) == want, call
                seen.append(want)
                n_max = re.search(r"n_max=(\d+)", want)
                if n_max and call[4] and call[4] <= 10 * drift_unit * (int(n_max[1]) + 2):
                    near_drift += 1
        assert near_drift >= 2
        seen = "\n".join(seen)
        for kind in ("do not decay", "cap of 50000", "rounding drift", "exceeds tolerance"):
            assert kind in seen
        assert "remainder_bound=mpf('" in seen and "inf" not in seen and "Error" not in seen


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

    def test_height_outside_the_gap_and_zero_wave_vector_are_refused(self):
        # Both refusals are CasimirErrors: a height off [0, a] or NaN is
        # WallContact, as scalar_stress raises, and k = 0 is InvalidMode,
        # raised when the label is built, so no eigenmode call sees it.
        geom = PlateGeometry(mpf("1.5"))
        idx = ModeIndex(1, 2, (mpf("0.3"), mpf("0.4")))
        for z in (mpf("-1e-30"), mpf("1.5") + mpf("1e-30"), inf, -inf, nan):
            with pytest.raises(WallContact, match="z must lie in"):
                eigenmode(idx, geom, z)
        for polarization in (1, 2):
            with pytest.raises(InvalidMode, match="wave-vector must be 2 finite numbers"):
                ModeIndex(1, polarization, (0, 0))

    def test_zero_mode_normalization(self):
        geom = PlateGeometry(mpf("1.4"))
        idx = ModeIndex(0, 2, (mpf("0.6"), mpf("0.2")))
        norm = quad(
            lambda z: sum(abs(c) ** 2 for c in eigenmode(idx, geom, z)),
            [0, geom.a],
        )
        assert abs(norm - 1) < mpf("1e-30")


def _value_types():
    # One instance of every public value type outside minkowski, built
    # the way the package builds it.
    from casimir_cutoff.cli import parse_args
    from casimir_cutoff.expansion import (
        casimir_pressure, energy_laurent, reference_coefficients,
    )
    from casimir_cutoff.minkowski import FourVector, SeparationVector
    from casimir_cutoff.stress import em_stress
    from series_reference import propagator_kernel

    geom, cutoff = PlateGeometry(1), CutoffParams(mpf("0.1"), mpf("0.5"))
    expansion = energy_laurent(1, mpf("0.5"))
    split = SeparationVector(FourVector(0, mpf("0.1"), 0, 0))
    return {
        "CutoffParams": cutoff,
        "PlateGeometry": geom,
        "ModeIndex": ModeIndex(1, 2, (mpf("0.3"), mpf("0.4"))),
        "ModeSumResult": energy_mode_sum(geom, cutoff, n_max=10),
        "LaurentSeries": expansion.series,
        "EnergyExpansion": expansion,
        "ReferenceCoefficients": reference_coefficients(1, mpf("0.5")),
        "PressureResult": casimir_pressure(1, mpf("0.5")),
        "RadialKernel": propagator_kernel(1, mpf("0.1")),
        "StressDecomposition": em_stress(geom, cutoff, split),
        "ScanConfig": parse_args(["energy-sum"]),
    }


class TestValueTypes:
    """The value types are tuples, immutable and validated by ``_replace`` too."""

    @pytest.mark.parametrize("name", list(_value_types()))
    def test_rejects_attribute_assignment(self, name):
        value = _value_types()[name]
        assert type(value).__name__ == name
        field = value._fields[0]
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
        with pytest.raises(AttributeError):
            value.extra = 1

    def test_cutoff_replace_validates(self, check_replace):
        cutoff = CutoffParams(mpf("0.1"), mpf("0.5"))
        check_replace(cutoff, "lam", 2, "0.25")
        check_replace(cutoff, "epsilon", inf, 1)

    def test_geometry_replace_validates(self, check_replace):
        check_replace(PlateGeometry(1), "a", -2, "1.5")

    def test_mode_index_replace_validates(self, check_replace):
        idx = ModeIndex(1, 2, (mpf("0.3"), mpf("0.4")))
        check_replace(idx, "k", ("x", 0), (1, "0.5"))
        with pytest.raises(InvalidMode, match="polarization must be 1 or 2"):
            idx._replace(polarization=3)
        with pytest.raises(InvalidMode, match="only polarization 2"):
            idx._replace(n=0, polarization=1)

    @pytest.mark.parametrize(
        "k",
        [(nan, 0), (0, nan), (inf, 0), (-inf, 0), (0, inf), (0, -inf), (0, 0), (1,), (1, 0, 2)],
        ids=["nan-0", "0-nan", "inf-0", "-inf-0", "0-inf", "0--inf", "0-0", "one", "three"],
    )
    def test_mode_index_refuses_a_wave_vector_that_is_no_transverse_direction(
        self, check_replace, k
    ):
        # Unchecked, a non-finite label would give NaN eigenmode components
        # and a boundary residual of 0.0, a pass, and a third component
        # would be dropped.
        for n, polarization in ((0, 2), (1, 1), (1, 2)):
            with pytest.raises(InvalidMode, match="wave-vector must be 2 finite numbers"):
                ModeIndex(n, polarization, k)
            idx = ModeIndex(n, polarization, (mpf("0.3"), mpf("0.4")))
            check_replace(idx, "k", k, (1, "0.5"))

    @pytest.mark.parametrize(
        "field, value",
        [("n", v) for v in (-1, mpf("1.5"), nan, 2.0, True, "1")]
        + [("polarization", v) for v in (3, 2.0, mpf(2), True)],
        ids=["n=-1", "n=1.5", "n=nan", "n=2.0", "n=True", "n='1'",
             "pol=3", "pol=2.0", "pol=mpf(2)", "pol=True"],
    )
    def test_mode_index_refuses_a_label_that_is_no_int(self, field, value):
        # Unchecked, n = NaN would give a boundary residual of 0.0, a pass,
        # and n = 1.5 a profile that does not vanish at the far wall.
        message = {"n": "mode number must be an integer >= 0", "polarization": "must be 1 or 2"}
        idx = ModeIndex(1, 2, (mpf("0.3"), mpf("0.4")))
        with pytest.raises(InvalidMode, match=message[field]):
            ModeIndex(**{**idx._asdict(), field: value})
        with pytest.raises(InvalidMode, match=message[field]):
            idx._replace(**{field: value})

    def test_mode_sum_result_unpacks(self):
        res = energy_mode_sum(PlateGeometry(1), CutoffParams(mpf("0.1"), 0), n_max=10)
        value, bound, n_max = res
        assert (value, bound, n_max) == (res.value, res.remainder_bound, 10)
        assert res == (res.value, res.remainder_bound, res.n_max)

    def test_series_and_expansion_compare_by_identity(self):
        from casimir_cutoff.expansion import energy_laurent
        from casimir_cutoff.laurent import LaurentSeries

        first, again = energy_laurent(1, mpf("0.5")), energy_laurent(1, mpf("0.5"))
        twin = LaurentSeries(first.series.min_degree, first.series.coeffs)
        for x, y in ((first, again), (first.series, again.series), (first.series, twin)):
            assert x == x and not x != x
            assert x != y and not x == y
            assert len({x, y}) == 2
