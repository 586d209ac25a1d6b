"""Tests for the truncated Laurent series arithmetic.

The ring operations are checked against brute-force convolution
oracles on random inputs, the calculus operations against finite
differences and classical identities, and the special series against
mpmath's own transcendental functions.
"""

import random

import pytest
from mpmath import coth, mpf

from casimir_cutoff.errors import (
    DivisionByZeroSeries,
    OutOfRange,
    ZeroScale,
)
from casimir_cutoff.laurent import (
    LaurentSeries,
    evaluate,
    extract_coefficient,
    from_terms,
    monomial,
    series_add,
    series_coth,
    series_differentiate,
    series_div,
    series_mul,
    series_scale_arg,
    series_sub,
    shift_scale,
)


def random_series(rng, min_lo=-4, min_hi=2, max_len=8):
    lo = rng.randint(min_lo, min_hi)
    coeffs = tuple(mpf(rng.uniform(-2, 2)) for _ in range(rng.randint(1, max_len)))
    return LaurentSeries(lo, coeffs)


def convolve_reference(x, y):
    """Gather-by-output-power product, independent of series_mul's loop."""
    lo = x.min_degree + y.min_degree
    hi = min(x.min_degree + y.truncation_order, y.min_degree + x.truncation_order)
    coeffs = []
    for p in range(lo, hi):
        acc = mpf(0)
        for i, cx in x.terms():
            j = p - i
            if y.min_degree <= j < y.truncation_order:
                acc += cx * y.coeffs[j - y.min_degree]
        coeffs.append(acc)
    return LaurentSeries(lo, tuple(coeffs))


def max_window_diff(x, y):
    lo = max(x.min_degree, y.min_degree)
    hi = min(x.truncation_order, y.truncation_order)
    assert hi > lo, "series share no window"
    return max(
        abs(extract_coefficient(x, p) - extract_coefficient(y, p))
        for p in range(lo, hi)
    )


class TestConstruction:
    """Window bookkeeping of the dense representation."""

    def test_window_and_terms(self):
        s = LaurentSeries(-2, (mpf(3), mpf(0), mpf(1)))
        assert s.truncation_order == 1
        assert list(s.terms()) == [(-2, mpf(3)), (-1, mpf(0)), (0, mpf(1))]

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            LaurentSeries(0, ())

    def test_from_terms_pads_gaps(self):
        s = from_terms([(2, 5), (-1, 7)])
        assert s.min_degree == -1 and s.truncation_order == 3
        assert extract_coefficient(s, 0) == 0
        assert extract_coefficient(s, 2) == 5

    def test_from_terms_accumulates_duplicates(self):
        s = from_terms([(0, 1), (0, 2)])
        assert extract_coefficient(s, 0) == 3

    def test_from_terms_extends_window(self):
        s = from_terms([(0, 1)], truncation_order=5)
        assert s.truncation_order == 5
        assert extract_coefficient(s, 4) == 0

    def test_from_terms_rejects_cutting_window(self):
        with pytest.raises(ValueError):
            from_terms([(0, 1), (3, 2)], truncation_order=2)

    def test_monomial(self):
        m = monomial("2.5", -3)
        assert m.min_degree == -3
        assert extract_coefficient(m, -3) == mpf("2.5")

    def test_extract_outside_window_raises(self):
        s = monomial(1, 0, truncation_order=4)
        with pytest.raises(OutOfRange):
            extract_coefficient(s, -1)
        with pytest.raises(OutOfRange):
            extract_coefficient(s, 4)

    def test_evaluate(self):
        s = from_terms([(-1, 2), (1, 3)])
        e = mpf("0.5")
        assert abs(evaluate(s, e) - (2 / e + 3 * e)) < mpf("1e-48")


class TestRingOperations:
    """Addition, multiplication, and division against oracles."""

    def test_add_cancels_poles(self):
        s = series_add(monomial(1, -1), monomial(-1, -1))
        assert extract_coefficient(s, -1) == 0

    def test_add_window_is_pessimistic(self):
        x = from_terms([(-2, 1), (3, 1)])
        y = monomial(1, 0, truncation_order=2)
        s = series_add(x, y)
        assert s.min_degree == -2
        assert s.truncation_order == 2

    def test_sub_self_is_zero(self):
        x = from_terms([(-1, "1.5"), (0, 2), (2, -3)])
        d = series_sub(x, x)
        assert all(c == 0 for _, c in d.terms())

    def test_mul_against_convolution(self):
        rng = random.Random(7)
        for _ in range(50):
            x = random_series(rng)
            y = random_series(rng)
            got = series_mul(x, y)
            ref = convolve_reference(x, y)
            assert got.min_degree == ref.min_degree
            assert got.truncation_order == ref.truncation_order
            assert max_window_diff(got, ref) < mpf("1e-40")

    def test_mul_window_rule(self):
        x = LaurentSeries(-1, (mpf(1), mpf(2)))
        y = LaurentSeries(2, (mpf(3), mpf(4), mpf(5)))
        p = series_mul(x, y)
        assert p.min_degree == 1
        # The shorter factor's unknown tail meets the other's lead first.
        assert p.truncation_order == min(-1 + 5, 2 + 1)

    def test_geometric_series(self):
        one = monomial(1, 0, truncation_order=10)
        denom = from_terms([(0, 1), (1, -1)], truncation_order=10)
        g = series_div(one, denom)
        for p in range(0, 10):
            assert abs(extract_coefficient(g, p) - 1) < mpf("1e-45")

    def test_div_round_trip(self):
        rng = random.Random(19)
        for _ in range(30):
            x = random_series(rng)
            y = random_series(rng)
            if y.coeffs[0] == 0:
                y = LaurentSeries(y.min_degree, (mpf(1),) + y.coeffs[1:])
            q = series_div(series_mul(x, y), y)
            assert max_window_diff(q, x) < mpf("1e-38")

    def test_div_strips_structural_zeros(self):
        # x / (0*eps^0 + 2*eps^1) must treat the divisor as 2*eps.
        y = LaurentSeries(0, (mpf(0), mpf(2)))
        q = series_div(monomial(1, 2, truncation_order=4), y)
        assert q.min_degree == 1
        assert extract_coefficient(q, 1) == mpf("0.5")

    def test_div_by_zero_series(self):
        z = LaurentSeries(0, (mpf(0), mpf(0)))
        with pytest.raises(DivisionByZeroSeries):
            series_div(monomial(1, 0), z)

    def test_ring_axioms_on_random_inputs(self):
        rng = random.Random(43)
        for _ in range(20):
            x = random_series(rng)
            y = random_series(rng)
            z = random_series(rng)
            comm = series_sub(series_mul(x, y), series_mul(y, x))
            assert all(abs(c) < mpf("1e-40") for _, c in comm.terms())
            distr = series_sub(
                series_mul(x, series_add(y, z)),
                series_add(series_mul(x, y), series_mul(x, z)),
            )
            assert all(abs(c) < mpf("1e-38") for _, c in distr.terms())


class TestCalculus:
    """Differentiation, argument scaling, and monomial shifts."""

    def test_differentiate_slides_window(self):
        s = from_terms([(-2, 1), (0, 5), (3, 2)])
        d = series_differentiate(s)
        assert d.min_degree == -3
        assert extract_coefficient(d, -3) == -2
        # The constant term dies; the power-zero slot holds 0*c_0.
        assert extract_coefficient(d, -1) == 0
        assert extract_coefficient(d, 2) == 6

    def test_differentiate_against_finite_difference(self):
        s = from_terms([(-2, 3), (0, 1), (3, "0.5")])
        d = series_differentiate(s)
        e = mpf("0.01")
        h = mpf("1e-18")
        fd = (evaluate(s, e + h) - evaluate(s, e - h)) / (2 * h)
        assert abs(evaluate(d, e) - fd) < mpf("1e-20")

    def test_leibniz_rule(self):
        rng = random.Random(3)
        for _ in range(20):
            x = random_series(rng)
            y = random_series(rng)
            lhs = series_differentiate(series_mul(x, y))
            rhs = series_add(
                series_mul(series_differentiate(x), y),
                series_mul(x, series_differentiate(y)),
            )
            assert max_window_diff(lhs, rhs) < mpf("1e-36")

    def test_scale_arg_round_trip(self):
        s = from_terms([(-3, 2), (1, 5)])
        back = series_scale_arg(series_scale_arg(s, "0.25"), 4)
        assert max_window_diff(back, s) < mpf("1e-45")

    def test_scale_arg_matches_evaluation(self):
        s = from_terms([(-1, 1), (2, 3)])
        c = mpf("0.7")
        e = mpf("0.3")
        assert abs(evaluate(series_scale_arg(s, c), e) - evaluate(s, c * e)) < mpf(
            "1e-45"
        )

    def test_scale_arg_rejects_zero(self):
        with pytest.raises(ZeroScale):
            series_scale_arg(monomial(1, 0), 0)

    def test_shift_scale_keeps_window_width(self):
        s = from_terms([(0, 1), (2, 4)])
        t = shift_scale(s, 3, -2)
        assert t.min_degree == -2
        assert t.truncation_order == s.truncation_order - 2
        assert extract_coefficient(t, 0) == 12

    def test_shift_scale_beats_mul_by_monomial(self):
        s = from_terms([(0, 1), (2, 4)])
        via_mul = series_mul(s, monomial(3, -2))
        via_shift = shift_scale(s, 3, -2)
        assert via_shift.truncation_order > via_mul.truncation_order


class TestSpecialSeries:
    """coth expansions against mpmath evaluations."""

    def test_coth_window(self):
        c = series_coth(8)
        assert c.min_degree == -1
        assert c.truncation_order == 8

    def test_coth_leading_coefficients(self):
        c = series_coth(8)
        known = {
            -1: mpf(1),
            1: mpf(1) / 3,
            3: -mpf(1) / 45,
            5: mpf(2) / 945,
            7: -mpf(1) / 4725,
        }
        for p, val in known.items():
            assert abs(extract_coefficient(c, p) - val) < mpf("1e-45")

    def test_coth_is_odd(self):
        c = series_coth(10)
        for p in range(0, 10, 2):
            assert extract_coefficient(c, p) == 0

    def test_coth_numeric(self):
        c = series_coth(14)
        v = mpf("0.01")
        assert abs(evaluate(c, v) - coth(v)) < mpf("1e-32")

    def test_coth_derivative_identity(self):
        # d/dv coth = 1 - coth^2.
        c = series_coth(10)
        lhs = series_differentiate(c)
        rhs = series_sub(monomial(1, 0, truncation_order=9), series_mul(c, c))
        assert max_window_diff(lhs, rhs) < mpf("1e-44")

    def test_coth_order_validated(self):
        with pytest.raises(ValueError):
            series_coth(0)
