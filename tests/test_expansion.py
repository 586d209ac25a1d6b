"""Tests for the energy expansion, subtraction, and pressure.

The Laurent engine's subtracted coefficients are compared against
independently transcribed analytic references, the unsubtracted
series against the numeric closed form, and the pressure against its
known special values.
"""

import pytest
from mpmath import mp, mpf, pi

from casimir_cutoff.errors import CutoffDomain, NonPositiveSeparation
from casimir_cutoff.expansion import (
    _coth_tower,
    casimir_pressure,
    energy_laurent,
    pressure_from_energy,
    reference_coefficients,
    subtract_outer,
)
from casimir_cutoff.laurent import (
    evaluate,
    extract_coefficient,
    series_coth,
    series_differentiate,
)
from casimir_cutoff.modesum import CutoffParams, FieldKind, PlateGeometry, energy_closed_form

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
        with pytest.raises(CutoffDomain):
            energy_laurent(1, 1)
        with pytest.raises(CutoffDomain):
            energy_laurent(1, "-0.1")

    def test_window(self):
        e = energy_laurent(1, "0.3", order=4)
        assert e.series.min_degree == -4
        assert e.series.truncation_order == 5
        assert not e.subtracted

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
    """The per-precision cache of coth and its first two derivatives."""

    def test_never_reused_across_precisions(self):
        _coth_tower.cache_clear()
        with mp.workdps(50):
            low = _coth_tower(8, mp.prec)
        with mp.workdps(200):
            high = _coth_tower(8, mp.prec)
            fresh = series_coth(8)
            d1 = series_differentiate(fresh)
            expected = (fresh, d1, series_differentiate(d1))
        for got, want in zip(high, expected):
            assert got.min_degree == want.min_degree
            assert got.coeffs == want.coeffs
        assert low[0].coeffs != high[0].coeffs

    def test_cached_build_matches_cold_build(self):
        energy_laurent(mpf("0.7"), mpf("0.35"))
        with mp.workdps(200):
            warm = energy_laurent(mpf("0.7"), mpf("0.35"))
            _coth_tower.cache_clear()
            cold = energy_laurent(mpf("0.7"), mpf("0.35"))
        assert warm.series.coeffs == cold.series.coeffs


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

    def test_from_energy_needs_subtraction(self):
        with pytest.raises(ValueError):
            pressure_from_energy(energy_laurent(1, "0.2"))

    def test_divergent_coefficient_tracks_lambda(self):
        for lam in (mpf("0.1"), mpf("0.8")):
            p = casimir_pressure(mpf("1.5"), lam)
            assert abs(p.divergent_coeff + lam / (12 * mpf("1.5") ** 2)) < COEFF_TOL
