"""Property tests: every closed form is its exact value rounded once.

``expansion`` forms the energy window, the two reported coefficients,
the pressure and the transcribed reference coefficients, and ``stress``
forms the electromagnetic and scalar A, B_finite and B_divergent_eps2,
each through one rounded division.  Every number must be bit for bit
its exact value rounded to nearest, except where that value lies within
2^-16 ulp of a rounding midpoint: there either neighbour is allowed.
The exact values are the transcribed formulas evaluated on the same
binary inputs at 60 more digits, at 15, 20, 50 and 200 digits, for both
fields, separations from 1e-3 to 1e3, lambda from 0 (exact zeros) to
1 - 2^-40 and scalar heights within 2^-40 of either wall.
"""

import random

import pytest
from mpmath import mp, mpf, pi

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from casimir_cutoff.expansion import (
    _reported_coefficients,
    casimir_pressure,
    energy_laurent,
    reference_coefficients,
    subtract_outer,
)
from casimir_cutoff.minkowski import FourVector, SeparationVector
from casimir_cutoff.params import CutoffParams, FieldKind, PlateGeometry
from casimir_cutoff.stress import em_stress, scalar_stress
from series_reference import assert_rounded_once, reference_scalar_coefficients, reference_window

NEAR_ONE = 1 - 2.0**-40
lambdas = st.sampled_from((0.0, 1e-20, 0.999, NEAR_ONE)) | st.floats(0.0, 0.999)
# Fractions of the gap: next to either wall, or anywhere inside it.
WALLS = (2.0**-40, 1e-12, 1e-6, 1 - 1e-6, 1 - 1e-12, NEAR_ONE)
heights = st.sampled_from(WALLS) | st.floats(1e-3, 1 - 1e-3)
SPLIT = SeparationVector(FourVector(0, mpf(1) / 10, 0, 0))


def exact_values(a, lam, field, z):
    """The printed closed forms from their transcribed formulas, at 60 more digits."""
    half = mpf(1) / 2 if field is FieldKind.SCALAR else 1
    with mp.workdps(mp.dps + 60):
        c_m2, c_0 = -lam / (12 * a), -(1 - lam**3) * pi**2 / (720 * a**3)
        em = (
            (1 - lam) * pi**2 / (180 * a**4),
            lam * (lam**2 - 1) * pi**2 / (1440 * a**4),
            -lam / (24 * a**2),
        )
        return {
            "c_m2": half * c_m2, "c_0": half * c_0,
            "c_m2_ref": c_m2, "c_0_ref": c_0,
            "finite_part": half * 3 * c_0 / a, "divergent_coeff": half * c_m2 / a,
            "em": em, "scalar": reference_scalar_coefficients(a, lam, z),
        }


def check_printed_values(a, lam, field, z) -> None:
    # Every value that energy-expansion, pressure and scan print, and the
    # A and B columns of stress for both fields.
    exact = exact_values(a, lam, field, z)
    _, c_m2, c_0, pr = _reported_coefficients(a, lam, field, pressure=True)
    ref = reference_coefficients(a, lam)
    got = {
        "c_m2": c_m2, "c_0": c_0, "c_m2_ref": ref.c_minus2, "c_0_ref": ref.c_0,
        "finite_part": pr.finite_part, "divergent_coeff": pr.divergent_coeff,
    }
    for name, value in got.items():
        assert_rounded_once(value, exact[name], (name, a, lam, field))
    assert casimir_pressure(a, lam, field) == pr
    geom, cutoff = PlateGeometry(a), CutoffParams(mpf("0.1"), lam)
    for name, value, want in zip(("A", "B_finite", "B_div"), em_stress(geom, cutoff, SPLIT),
                                 exact["em"]):
        assert_rounded_once(value, want, ("em", name, a, lam))
    for name, value, want in zip(("A", "B_finite", "B_div"),
                                 scalar_stress(geom, cutoff, SPLIT, z), exact["scalar"]):
        assert_rounded_once(value, want, ("scalar", name, a, lam, z))


@pytest.mark.parametrize("dps", [15, 20, 50, 200])
@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(
    field=st.sampled_from(FieldKind),
    order=st.integers(0, 8),
    log_a=st.floats(-3.0, 3.0),
    lam=lambdas,
    height=heights,
)
def test_closed_forms_bit_for_bit(dps, field, order, log_a, lam, height):
    with mp.workdps(dps):
        a, lam = mpf(10) ** mpf(log_a), mpf(lam)
        z = a * mpf(height)

        e = energy_laurent(a, lam, order, field)
        assert (e.series.min_degree, e.field, e.subtracted) == (-4, field, False)
        assert (e.a, e.lam) == (a, lam)
        with mp.workdps(dps + 60):
            window = reference_window(a, lam, order, field)
        for k, (x, want) in enumerate(zip(e.series.coeffs, window, strict=True), -4):
            assert_rounded_once(x, want, ("window", k))

        sub = subtract_outer(e)
        kept = tuple(c if k > -3 else mpf(0) for k, c in e.series.terms())
        assert sub.subtracted and sub.series.min_degree == -4
        assert sub.series.coeffs == kept
        # The reported coefficients are the window's own entries, and the
        # reference coefficients, rounded once from the same exact values,
        # have their bits.
        reported = _reported_coefficients(a, lam, field)
        assert reported == (e.a, e.series.coeffs[2], e.series.coeffs[4])
        if field is FieldKind.ELECTROMAGNETIC:
            assert tuple(reference_coefficients(a, lam)) == reported[1:]
        check_printed_values(a, lam, field, z)


@pytest.mark.parametrize("dps", [15, 20, 50, 200])
def test_printed_values_rounded_once_on_a_grid(dps):
    # 1000 seeded points per precision: a from 1e-3 to 1e3, lambda at its
    # edges or anywhere in [0, 1), and the scalar height next to either
    # wall or anywhere in the gap.
    rng = random.Random(3600 + dps)
    with mp.workdps(dps):
        for _ in range(1000):
            a = mpf(10) ** mpf(rng.uniform(-3, 3))
            lam = mpf(rng.choice((0.0, 1e-20, NEAR_ONE, rng.random())))
            z = a * mpf(rng.choice(WALLS + (rng.uniform(0.001, 0.999),) * 3))
            check_printed_values(a, lam, rng.choice(list(FieldKind)), z)
