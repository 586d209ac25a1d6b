"""Tests for the energy expansion, subtraction, and pressure.

The subtracted closed-form coefficients are compared against
independently transcribed analytic references, the unsubtracted
series against the numeric closed form, and the pressure against its
known special values.  ``test_closed_form`` compares every coefficient
with the series-arithmetic reference.
"""

from fractions import Fraction
from math import factorial

import pytest
from mpmath import libmp, mp, mpf, pi
from mpmath.ctx_mp_python import _mpf

import casimir_cutoff.expansion
from casimir_cutoff.coth import _beta, _pi_power
from casimir_cutoff.errors import CutoffDomain, InvalidMode, NonPositiveSeparation
from casimir_cutoff.expansion import (
    _reported_coefficients,
    casimir_pressure,
    energy_laurent,
    reference_coefficients,
    subtract_outer,
)
from casimir_cutoff.laurent import extract_coefficient
from casimir_cutoff.minkowski import FourVector, SeparationVector, boost, rotation_xy
from casimir_cutoff.modesum import CutoffParams, FieldKind, PlateGeometry
from casimir_cutoff.pointwise import energy_closed_form
from casimir_cutoff.stress import covariance_check, em_stress, scalar_stress
from series_reference import assert_rounded_once, evaluate

COEFF_TOL = mpf("1e-30")


def subtracted(a, lam, field=FieldKind.ELECTROMAGNETIC):
    return subtract_outer(energy_laurent(a, lam, field=field))


class TestEnergyLaurent:
    """Raw expansion of the regulated energy."""

    def test_domain_validation(self):
        with pytest.raises(NonPositiveSeparation):
            energy_laurent(0, 0)
        with pytest.raises(NonPositiveSeparation):
            energy_laurent("nan", 0)
        with pytest.raises(NonPositiveSeparation):
            energy_laurent("inf", 0.3)
        with pytest.raises(CutoffDomain):
            energy_laurent(1, 1)
        with pytest.raises(CutoffDomain):
            energy_laurent(1, "-0.1")

    def test_window(self):
        e = energy_laurent(1, "0.3", order=4)
        assert e.series.min_degree == -4
        assert e.series.truncation_order == 5
        assert not e.subtracted
        assert energy_laurent(1, "0.3", order=0).series.truncation_order == 1

    @pytest.mark.parametrize("order", [True, False, -1, -5, 2.0, "4", None])
    def test_order_rejected_before_any_work(self, monkeypatch, order):
        # As energy_mode_sum checks n_max: a bool, a non-int or a negative
        # order is a ValueError before the domain is even looked at.
        def no_work(*args):
            raise AssertionError("work done before the order was checked")

        monkeypatch.setattr(casimir_cutoff.expansion, "_energy_setup", no_work)
        with pytest.raises(ValueError, match="order must be an integer >= 0"):
            energy_laurent(1, "0.3", order)

    def test_leading_pole_at_lambda_zero(self):
        # eps^-4 coefficient: 3a/pi^2 when the damping is pure exp(-eps w).
        for a in (mpf("0.5"), mpf(1), mpf(2)):
            e = energy_laurent(a, 0)
            assert abs(extract_coefficient(e.series, -4) - 3 * a / pi**2) < COEFF_TOL

    def test_em_expansion_is_even(self):
        e = energy_laurent(1, "0.4", order=4)
        for p in (-3, -1, 1, 3):
            assert abs(extract_coefficient(e.series, p)) < mpf("1e-45")

    def test_scalar_keeps_isolated_cubic_pole(self):
        # The scalar series is half the electromagnetic one minus the
        # n = 0 monomial 1/(4 pi eps^3).
        em = energy_laurent(1, "0.4")
        sc = energy_laurent(1, "0.4", field=FieldKind.SCALAR)
        for p in range(-4, 5):
            expected = extract_coefficient(em.series, p) / 2
            if p == -3:
                expected -= 1 / (4 * pi)
            assert abs(extract_coefficient(sc.series, p) - expected) < mpf("1e-45")

    def test_evaluate_converges_to_closed_form(self):
        a, lam = mpf(1), mpf("0.3")
        geom = PlateGeometry(a)
        series = energy_laurent(a, lam).series
        errs = []
        for eps in (mpf("0.05"), mpf("0.005")):
            exact = energy_closed_form(geom, CutoffParams(eps, lam))
            errs.append(abs(evaluate(series, eps) - exact))
        # First omitted power is eps^6, so a factor 10 in eps gains 1e6.
        assert errs[1] / errs[0] < mpf("1e-5")


class TestDimensionalScaling:
    """The pure power law c_k(a) ~ a^-(k+3) the subtraction relies on."""

    @pytest.mark.parametrize("dps", [50, 200])
    @pytest.mark.parametrize("field", list(FieldKind))
    def test_coefficients_scale_on_doubling_grid(self, dps, field):
        # E = a^-3 f(eps/a, lambda), so doubling a multiplies the eps^k
        # coefficient by exactly 2^-(k+3).  Checked on the raw series,
        # relative where the coefficient is nonzero, absolute where it
        # vanishes (the odd powers).
        tol = mpf("1e-45")
        with mp.workdps(dps):
            for lam in (mpf(0), mpf("0.3"), mpf("0.7")):
                grid = [energy_laurent(a, lam, field=field).series
                        for a in (mpf("0.5"), mpf(1), mpf(2), mpf(4))]
                for lo, hi in zip(grid, grid[1:]):
                    assert lo.min_degree == hi.min_degree == -4
                    for k, c in lo.terms():
                        expected = c / mpf(2) ** (k + 3)
                        err = abs(extract_coefficient(hi, k) - expected)
                        assert err <= tol * max(abs(expected), tol), (lam, k)


class TestCothTower:
    """The kernel's constants: beta_n (pi/2)^m / 4 pi and pi^k, per number of bits."""

    def test_cached_build_matches_cold_build(self):
        # A 15 -> 200 -> 15 digit round trip on warm caches gives the bits
        # that cold caches give, for the window and for the constants.
        def build():
            bits = mp.prec + 20
            window = energy_laurent(mpf("0.7"), mpf("0.35"), 8).series.coeffs
            constants = [_beta(m, bits) for m in range(-1, 12, 2)]
            constants += [_pi_power(k, bits) for k in (1, 2, 4, 10)]
            return window, constants

        def cold():
            _beta.cache_clear()
            _pi_power.cache_clear()
            return build()

        warm = []
        for dps in (15, 200, 15):
            with mp.workdps(dps):
                warm.append(build())
        for dps, values in zip((15, 200, 15), warm):
            with mp.workdps(dps):
                assert values == cold(), dps
        assert warm[0] == warm[2] != warm[1]

    @pytest.mark.parametrize("dps", [15, 50, 200])
    def test_independent_of_mpmath_bernoulli_cache(self, dps):
        # mpmath's bernoulli rounds B_2n once on its first call at a
        # precision, so a beta_n built from it could depend on what ran
        # before.  _beta's pair is exactly the fraction 2^(2n) B_2n / (2n)!
        # times pi^(m-1) / 2^(m+2), with its pi power, and pi^k is within
        # 2^(2 - bits) of its value.
        with mp.workdps(dps):
            bits = mp.prec + 20
            for n in range(0, 9):
                m = 2 * n - 1
                mp.bernoulli(2 * n)
                _beta.cache_clear()
                p, q = libmp.bernfrac(2 * n)
                exact = Fraction(p * 2 ** (2 * n), q * factorial(2 * n)) / 2 ** (m + 2)
                num, den = (Fraction(*libmp.to_rational(x)) for x in _beta(m, bits))
                pi_power = Fraction(1)
                if m != 1:
                    pi_power = Fraction(*libmp.to_rational(_pi_power(abs(m - 1), bits)))
                assert num / den == exact * (pi_power if m > 1 else 1 / pi_power), (dps, n)
            for k in (1, 2, 7):
                with mp.workprec(2 * bits):
                    err = abs(mp.make_mpf(_pi_power(k, bits)) / pi**k - 1)
                assert err <= mpf(2) ** (2 - bits), (dps, k)


class TestSubtraction:
    """Removal of the bulk terms a power law in a identifies."""

    def test_matches_references_on_grid(self):
        for a in (mpf("0.5"), mpf(2)):
            for lam in (mpf(0), mpf("0.3"), mpf("0.7")):
                sub = subtracted(a, lam)
                ref = reference_coefficients(a, lam)
                assert abs(
                    extract_coefficient(sub.series, -2) - ref.c_minus2
                ) < COEFF_TOL
                assert abs(extract_coefficient(sub.series, 0) - ref.c_0) < COEFF_TOL

    def test_bulk_poles_removed(self):
        sub = subtracted(mpf("1.5"), mpf("0.6"))
        for p in (-4, -3, -1):
            assert abs(extract_coefficient(sub.series, p)) < COEFF_TOL

    def test_tiny_lambda_fit_is_stable(self):
        lam = mpf("1e-6")
        sub = subtracted(1, lam)
        assert abs(extract_coefficient(sub.series, -2) + lam / 12) < COEFF_TOL

    def test_scalar_coefficients_are_half(self):
        for lam in (mpf(0), mpf("0.5")):
            em = subtracted(1, lam)
            sc = subtracted(1, lam, field=FieldKind.SCALAR)
            for p in (-2, 0):
                assert abs(
                    extract_coefficient(sc.series, p)
                    - extract_coefficient(em.series, p) / 2
                ) < COEFF_TOL

    def test_double_subtraction_rejected(self):
        sub = subtracted(1, "0.2")
        with pytest.raises(ValueError):
            subtract_outer(sub)

    @pytest.mark.parametrize("field", list(FieldKind))
    def test_keeps_decaying_coefficients_exactly(self, field):
        raw = energy_laurent(mpf("1.3"), mpf("0.45"), field=field)
        sub = subtract_outer(raw)
        assert sub.subtracted and not raw.subtracted
        assert sub.series.min_degree == raw.series.min_degree
        assert sub.series.truncation_order == raw.series.truncation_order
        for k, c in raw.series.terms():
            if k in (-4, -3):
                assert extract_coefficient(sub.series, k) == 0
            else:
                assert extract_coefficient(sub.series, k) == c

    @pytest.mark.parametrize("order", [0, 2, 6])
    @pytest.mark.parametrize("field", list(FieldKind))
    def test_matches_references_at_cli_orders(self, order, field):
        half = mpf(1) / 2 if field is FieldKind.SCALAR else mpf(1)
        for a in (mpf("0.5"), mpf("1.7")):
            for lam in (mpf(0), mpf("0.6")):
                sub = subtract_outer(energy_laurent(a, lam, order, field))
                ref = reference_coefficients(a, lam)
                assert sub.series.truncation_order == order + 1
                assert abs(
                    extract_coefficient(sub.series, -2) - half * ref.c_minus2
                ) < COEFF_TOL
                assert abs(extract_coefficient(sub.series, 0) - half * ref.c_0) < COEFF_TOL


class TestReferences:
    """The transcribed coefficient formulas themselves."""

    def test_finite_coefficient_factorizes(self):
        # The two-term form collapses to -(1 - lam^3) pi^2 / 720 a^3.
        for lam in (mpf(0), mpf("0.3"), mpf("0.9")):
            for a in (mpf("0.5"), mpf(3)):
                ref = reference_coefficients(a, lam)
                assert abs(
                    ref.c_0 + (1 - lam**3) * pi**2 / (720 * a**3)
                ) < mpf("1e-45")

    def test_lambda_zero_anchor(self):
        ref = reference_coefficients(1, 0)
        assert ref.c_minus2 == 0
        assert abs(ref.c_0 + pi**2 / 720) < mpf("1e-45")
        assert abs(ref.c_0 + mpf("0.013707783890401886")) < mpf("1e-15")


class TestPressure:
    """Force per unit area from the subtracted energy."""

    def test_ideal_value(self):
        p = casimir_pressure(1, 0)
        assert abs(p.finite_part + pi**2 / 240) < COEFF_TOL
        assert abs(p.divergent_coeff) < COEFF_TOL

    def test_scalar_is_half(self):
        p = casimir_pressure(1, 0, field=FieldKind.SCALAR)
        assert abs(p.finite_part + pi**2 / 480) < COEFF_TOL
        q_em = casimir_pressure(1, "0.5")
        q_sc = casimir_pressure(1, "0.5", field=FieldKind.SCALAR)
        assert abs(q_sc.finite_part - q_em.finite_part / 2) < COEFF_TOL
        assert abs(q_sc.divergent_coeff - q_em.divergent_coeff / 2) < COEFF_TOL

    def test_shape_dependent_values(self):
        p = casimir_pressure(1, "0.5")
        assert abs(p.finite_part + 7 * pi**2 / 1920) < COEFF_TOL
        assert abs(p.divergent_coeff + mpf(1) / 24) < COEFF_TOL

    def test_separation_scaling(self):
        lam = mpf("0.3")
        p1 = casimir_pressure(1, lam)
        p2 = casimir_pressure(2, lam)
        assert abs(p2.finite_part - p1.finite_part / 16) < COEFF_TOL
        assert abs(p2.divergent_coeff - p1.divergent_coeff / 4) < COEFF_TOL

    @pytest.mark.parametrize("field", ["scalar", "em", None])
    def test_field_must_be_a_field_kind(self, field):
        # Anything but a FieldKind used to give the electromagnetic
        # values; it is rejected as the mode sum rejects it.
        routes = (
            lambda: casimir_pressure(1, "0.5", field),
            lambda: energy_laurent(1, "0.5", field=field),
            lambda: _reported_coefficients(1, "0.5", field),
        )
        for route in routes:
            with pytest.raises(InvalidMode, match="unknown field kind"):
                route()

    def test_divergent_coefficient_tracks_lambda(self):
        for lam in (mpf("0.1"), mpf("0.8")):
            p = casimir_pressure(mpf("1.5"), lam)
            assert abs(p.divergent_coeff + lam / (12 * mpf("1.5") ** 2)) < COEFF_TOL

    @pytest.mark.parametrize("dps", [15, 50, 200])
    @pytest.mark.parametrize("field", list(FieldKind), ids=lambda f: f.value)
    def test_equals_route_through_subtracted_expansion(self, dps, field):
        # The pressure is (k + 3) c_k / a on the eps^0 and eps^-2 entries of
        # the subtracted window, that exact value rounded once; the reported
        # coefficients are the window's entries, bit for bit.
        mp.dps = dps
        for lam in (0, "1e-20", "0.5", "0.95"):
            for a in ("0.37", 1, "2.5"):
                sub = subtracted(a, lam, field)
                c_minus2, c_0 = (extract_coefficient(sub.series, k) for k in (-2, 0))
                assert _reported_coefficients(a, lam, field) == (sub.a, c_minus2, c_0)
                p = casimir_pressure(a, lam, field)
                with mp.workdps(dps + 60):
                    exact = subtracted(sub.a, sub.lam, field).series
                    slopes = [(k + 3) * extract_coefficient(exact, k) / sub.a for k in (0, -2)]
                for got, want in zip(p, slopes, strict=True):
                    assert_rounded_once(got, want, (a, lam))

    @pytest.mark.parametrize(
        "a, lam, error",
        [
            (0, "0.5", NonPositiveSeparation),
            (-1, "0.5", NonPositiveSeparation),
            ("inf", "0.5", NonPositiveSeparation),
            ("nan", "0.5", NonPositiveSeparation),
            (1, 1, CutoffDomain),
            (1, "-0.1", CutoffDomain),
        ],
    )
    @pytest.mark.parametrize("field", list(FieldKind), ids=lambda f: f.value)
    def test_domain_errors_match_route_through_expansion(self, a, lam, error, field):
        with pytest.raises(error) as direct:
            casimir_pressure(a, lam, field)
        with pytest.raises(error) as reported:
            _reported_coefficients(a, lam, field)
        with pytest.raises(error) as built:
            subtracted(a, lam, field)
        assert type(direct.value) is type(reported.value) is type(built.value)


class TestRawValues:
    """The closed forms run on raw values: no mpf operator is called."""

    OPERATORS = (
        "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
        "__truediv__", "__rtruediv__", "__pow__", "__neg__",
    )

    @pytest.mark.parametrize("dps", [15, 50, 200])
    def test_no_operator_call(self, monkeypatch, dps):
        mp.dps = dps
        a, lam = mpf("1.3"), mpf("0.4")
        geom, cutoff = PlateGeometry(a), CutoffParams(mpf("0.1"), lam)
        eps, z = SeparationVector(FourVector(0, mpf("0.1"), 0, 0)), mpf("0.2")
        energy_laurent(a, lam, 8)  # fills the kernel's caches at this precision

        def refuse(*args):
            raise AssertionError("an mpf operator was called")

        for name in self.OPERATORS:
            monkeypatch.setattr(_mpf, name, refuse)
        for field in FieldKind:
            subtract_outer(energy_laurent(a, lam, 8, field))
            casimir_pressure(a, lam, field)
            _reported_coefficients(a, lam, field, pressure=True)
        reference_coefficients(a, lam)
        em_stress(geom, cutoff, eps)
        scalar_stress(geom, cutoff, eps, z)
        monkeypatch.undo()
        with pytest.raises(AssertionError, match="operator"):
            monkeypatch.setattr(_mpf, "__mul__", refuse)
            a * lam

    COMPARISONS = ("__lt__", "__le__", "__gt__", "__ge__", "__eq__", "__ne__")

    @pytest.mark.parametrize("dps", [15, 50, 200])
    def test_no_operator_call_in_validation_and_value_types(self, monkeypatch, dps):
        # The value types' checks and the stress path around the
        # coefficients: no mpf arithmetic or comparison once the caches
        # are warm.  boost(20) after boost(-20) cancels far above the
        # plain tolerance, so its metric check takes the scaled bound.
        mp.dps = dps
        a, lam, z, angle = mpf("1.3"), mpf("0.4"), mpf("0.2"), mpf("0.7")
        vec = FourVector(mpf("0.01"), mpf("0.1"), mpf("0.02"), 0)

        def run():
            geom, cutoff = PlateGeometry(a), CutoffParams(mpf("0.1"), lam)
            eps = SeparationVector(vec)
            eps.length
            ell = rotation_xy(angle).compose(boost(mpf("1.5")))
            boost(20).compose(boost(-20))
            for field, at in ((FieldKind.ELECTROMAGNETIC, None), (FieldKind.SCALAR, z)):
                covariance_check(field, geom, cutoff, eps, ell, at)
            em_stress(geom, cutoff, eps).tensor().trace()
            return scalar_stress(geom, cutoff, eps, z).tensor()

        tensor = run()  # fills the per-precision caches

        def refuse(*args):
            raise AssertionError("an mpf operator was called")

        for name in self.OPERATORS + ("__pos__", "__abs__") + self.COMPARISONS:
            monkeypatch.setattr(_mpf, name, refuse)
        run()
        tensor.trace()
        monkeypatch.undo()
        with pytest.raises(AssertionError, match="operator"):
            monkeypatch.setattr(_mpf, "__gt__", refuse)
            a > lam
