"""Property test: the stress layer's tensor algebra against its operator form.

``stress`` and ``minkowski`` take the splitting apart, assemble the
tensor, push it forward and form the covariance residual on mpmath's
raw values.  ``series_reference`` keeps each of those steps written
with mpf's operators; every number must agree bit for bit, at 15, 20,
50 and 200 digits, for both fields, lambda from 0 (exact-zero B
coefficients) to 0.999, scalar heights next to both walls, and axis,
spatial, timelike and dense splittings from 1e-30 to 1e30, including
ones inside the lightlike margin, where both must raise the same error.
"""

import pytest
from mpmath import cos, mp, mpf, pi, sin

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from casimir_cutoff.errors import CasimirError
from casimir_cutoff.minkowski import (
    DIM,
    FourVector,
    SeparationVector,
    boost,
    rotation_xy,
    transform_tensor,
)
from casimir_cutoff.params import CutoffParams, FieldKind, PlateGeometry
from casimir_cutoff.stress import _unit_splitting, covariance_check, em_stress, scalar_stress
from series_reference import (
    reference_covariance_check,
    reference_tensor,
    reference_transform_tensor,
    reference_unit_splitting,
)

SHAPES = ("x-axis", "y-axis", "spatial", "timelike", "dense")

lambdas = st.sampled_from((0.0, 0.999)) | st.floats(1e-20, 0.999)
# Fractions of the gap: next to either wall, or anywhere inside it.
heights = st.sampled_from((1e-12, 1e-6, 1 - 1e-6, 1 - 1e-12)) | st.floats(1e-3, 1 - 1e-3)
# |t| / |(x, y)|: up to just below lightlike, past the margin at low precision.
ratios = st.sampled_from((0.0, 0.5, 1 - 1e-9, 1 - 1e-15)) | st.floats(0.0, 0.9999)


def _bits(x):
    """The raw value of an mpf, or of every entry of a nested tuple of them."""
    return tuple(_bits(e) for e in x) if isinstance(x, tuple) else x._mpf_


def _outcome(fn, *args):
    """(bits of the result) or (exception type, message)."""
    try:
        return "value", _bits(fn(*args))
    except (ValueError, CasimirError) as exc:
        return type(exc), str(exc)


def _splitting(shape, exponent, angle, ratio, sign):
    # Full-precision components: each is an mpf quotient at working precision.
    r = mpf(10) ** exponent / 7
    x, y = r * cos(angle), r * sin(angle)
    t = sign * ratio * r
    return {
        "x-axis": FourVector(0, r, 0, 0),
        "y-axis": FourVector(0, 0, r, 0),
        "spatial": FourVector(0, x, y, 0),
        "timelike": FourVector(t, r, 0, 0),
        "dense": FourVector(t, x, y, 0),
    }[shape]


@pytest.mark.parametrize("dps", [15, 20, 50, 200])
@settings(
    max_examples=50,
    deadline=None,
    database=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    field=st.sampled_from(FieldKind),
    a=st.floats(0.1, 40.0),
    lam=lambdas,
    height=heights,
    shape=st.sampled_from(SHAPES),
    exponent=st.integers(-30, 30),
    angle=st.floats(0.0, 6.3),
    ratio=ratios,
    sign=st.sampled_from((-1, 1)),
    trials=st.lists(
        st.tuples(st.floats(-8.0, 8.0), st.floats(0.0, 6.3)), min_size=1, max_size=3
    ),
)
def test_stress_algebra_bit_for_bit(dps, field, a, lam, height, shape, exponent, angle,
                                    ratio, sign, trials):
    with mp.workdps(dps):
        v = _splitting(shape, exponent, mpf(angle), mpf(ratio), sign)
        split = _outcome(_unit_splitting, v)
        assert split == _outcome(reference_unit_splitting, v)
        if split[0] != "value":
            return
        geom, cutoff = PlateGeometry(mpf(a) / 3), CutoffParams(mpf("0.1"), mpf(lam))
        z = geom.a * mpf(height) if field is FieldKind.SCALAR else None
        eps = SeparationVector(v)
        if field is FieldKind.SCALAR:
            d = scalar_stress(geom, cutoff, eps, z)
        else:
            d = em_stress(geom, cutoff, eps)
        unit, s = reference_unit_splitting(v)
        assert _bits(d.direction) == _bits(unit)
        assert _bits(d.separation_length) == _bits(s)
        t = d.tensor()
        assert _bits(t) == _bits(reference_tensor(d))
        for rapidity, turn in trials:
            ell = rotation_xy(mpf(turn)).compose(boost(mpf(rapidity)))
            moved = transform_tensor(ell, t)
            assert _bits(moved) == _bits(reference_transform_tensor(ell, t))
            assert all(moved[i, j] is moved[j, i] for i in range(DIM) for j in range(DIM))
            args = (field, geom, cutoff, eps, ell, z)
            assert _outcome(covariance_check, *args) == _outcome(
                reference_covariance_check, *args
            )


@pytest.mark.parametrize("dps", [15, 50, 200])
def test_zero_b_coefficients_bit_for_bit(dps):
    # At lambda = 0 both B coefficients are exact zeros, so the assembly
    # skips every S2 product: a fixed case the draws above may miss at a
    # given precision.
    with mp.workdps(dps):
        geom, cutoff = PlateGeometry(1), CutoffParams(mpf("0.1"), 0)
        for v in (FourVector(0, mpf(1) / 10, 0, 0), FourVector(mpf(1) / 100, mpf(1) / 10, 0, 0)):
            eps = SeparationVector(v)
            for d in (em_stress(geom, cutoff, eps), scalar_stress(geom, cutoff, eps, pi / 7)):
                assert not d.B_finite and not d.B_divergent_eps2
                assert _bits(d.tensor()) == _bits(reference_tensor(d))
