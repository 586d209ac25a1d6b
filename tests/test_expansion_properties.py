"""Property test: the closed forms against their operator form, bit for bit.

``expansion`` forms the energy window, the two reported coefficients,
the pressure and the transcribed reference coefficients on mpmath's raw
values, and ``stress`` forms the electromagnetic and scalar A, B_finite
and B_divergent_eps2 the same way.  ``series_reference`` keeps each of
them written with mpf's operators; every number must agree bit for bit,
at 15, 20, 50 and 200 digits, for both fields, orders 0 to 8,
separations from 1e-3 to 1e3, lambda from 0 (exact zeros) to 0.999 and
scalar heights next to both walls.
"""

import pytest
from mpmath import mp, mpf

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
from casimir_cutoff.stress import _em_coefficients, em_stress, scalar_stress
from series_reference import (
    reference_em_coefficients,
    reference_energy_laurent,
    reference_reference_coefficients,
    reference_reported_coefficients,
    reference_scalar_coefficients,
)

lambdas = st.sampled_from((0.0, 1e-20, 0.999)) | st.floats(0.0, 0.999)
# Fractions of the gap: next to either wall, or anywhere inside it.
heights = st.sampled_from((1e-12, 1e-6, 1 - 1e-6, 1 - 1e-12)) | st.floats(1e-3, 1 - 1e-3)


def _bits(values):
    return tuple(v._mpf_ for v in values)


def _operator_pressure(a, c_minus2, c_0):
    # (k + 3) c_k / a on the eps^0 and eps^-2 coefficients, as mpf's operators give it.
    return tuple((k + 3) * c_k / a for k, c_k in ((0, c_0), (-2, c_minus2)))


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

        e = energy_laurent(a, lam, order, field)
        ref = reference_energy_laurent(a, lam, order, field)
        assert (e.series.min_degree, e.field, e.subtracted) == (-4, field, False)
        assert _bits(e.series.coeffs) == _bits(ref.series.coeffs)
        assert _bits((e.a, e.lam)) == _bits((ref.a, ref.lam))

        sub = subtract_outer(e)
        kept = tuple(c if k > -3 else mpf(0) for k, c in ref.series.terms())
        assert sub.subtracted and sub.series.min_degree == -4
        assert _bits(sub.series.coeffs) == _bits(kept)

        reported = _reported_coefficients(a, lam, field)
        assert _bits(reported) == _bits(reference_reported_coefficients(a, lam, field))
        pr = casimir_pressure(a, lam, field)
        assert _bits(pr) == _bits(_operator_pressure(*reported))

        assert _bits(reference_coefficients(a, lam)) == _bits(
            reference_reference_coefficients(a, lam)
        )

        geom, cutoff = PlateGeometry(a), CutoffParams(mpf("0.1"), lam)
        eps = SeparationVector(FourVector(0, mpf(1) / 10, 0, 0))
        em = reference_em_coefficients(geom.a, lam)
        assert _bits(_em_coefficients(geom.a, lam)) == _bits(em)
        assert _bits(em_stress(geom, cutoff, eps)[:3]) == _bits(em)
        z = geom.a * mpf(height)
        assert _bits(scalar_stress(geom, cutoff, eps, z)[:3]) == _bits(
            reference_scalar_coefficients(geom.a, lam, z)
        )
