"""Closed-form series coefficients against the series-arithmetic reference.

``energy_laurent`` and ``em_stress`` write every coefficient from the
Bernoulli numbers; ``series_reference`` rebuilds the same coefficients
from the cosh/sinh quotient with general series arithmetic.  Each
energy coefficient c_k is a pure power q_k a^-(k+3), and A, B_finite
and B_divergent_eps2 are pure powers a^-4, a^-4 and a^-2, so the
differences are measured against those scales.
"""

import pytest
from mpmath import mp, mpf

from casimir_cutoff.expansion import energy_laurent
from casimir_cutoff.laurent import extract_coefficient
from casimir_cutoff.minkowski import FourVector, SeparationVector
from casimir_cutoff.modesum import CutoffParams, FieldKind, PlateGeometry
from casimir_cutoff.stress import em_stress
from series_reference import em_coefficients, energy_series

A_GRID = (mpf("0.5"), mpf(1), mpf(2))
LAM_GRID = tuple(mpf(k) / 10 for k in range(10))  # criterion 1
SPLIT = SeparationVector(FourVector(0, mpf("0.1"), 0, 0))


def tolerance():
    # 2^12 units in the last place of the scale; the worst difference
    # seen on these grids is 2^8 of them.
    return mpf(2) ** (12 - mp.prec)


@pytest.mark.parametrize("dps", [15, 50, 200])
@pytest.mark.parametrize("field", list(FieldKind))
def test_energy_matches_reference_at_every_window_coefficient(dps, field):
    with mp.workdps(dps):
        tol = tolerance()
        for order in range(9):
            for a in A_GRID:
                for lam in LAM_GRID:
                    got = energy_laurent(a, lam, order, field).series
                    ref = energy_series(a, lam, order, field)
                    assert got.min_degree == ref.min_degree == -4
                    assert got.truncation_order == ref.truncation_order == order + 1
                    for (k, x), (_, y) in zip(got.terms(), ref.terms()):
                        assert abs(x - y) <= tol / a ** (k + 3), (order, a, lam, k)


@pytest.mark.parametrize("dps", [15, 50, 200])
def test_em_stress_matches_reference(dps):
    with mp.workdps(dps):
        tol = tolerance()
        for a in A_GRID:
            for lam in LAM_GRID:
                d = em_stress(PlateGeometry(a), CutoffParams(mpf("0.1"), lam), SPLIT)
                ref_a, ref_fin, ref_div = em_coefficients(a, lam)
                assert abs(d.A - ref_a) <= tol / a**4, (a, lam)
                assert abs(d.B_finite - ref_fin) <= tol / a**4, (a, lam)
                assert abs(d.B_divergent_eps2 - ref_div) <= tol / a**2, (a, lam)


@pytest.mark.parametrize("dps", [15, 50, 200])
def test_vanishing_coefficients_are_exact_zeros_at_lambda_zero(dps):
    # At lambda = 0 the 1/eps^2 energy coefficient and both S2
    # coefficients vanish identically; the closed forms give exact zeros.
    with mp.workdps(dps):
        for a in A_GRID:
            for field in FieldKind:
                series = energy_laurent(a, 0, field=field).series
                assert extract_coefficient(series, -2) == 0, (a, field)
            d = em_stress(PlateGeometry(a), CutoffParams(mpf("0.1"), 0), SPLIT)
            assert d.B_finite == 0 and d.B_divergent_eps2 == 0, a
