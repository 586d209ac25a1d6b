"""Property test of the mode sum over working precision and parameters.

Draws the precision from 15 to 60 digits and (a, lambda, eps) from the
criterion-2 ranges, and checks the auto-extended sum against the closed
form at twice the precision, within its certified bound.
"""

import pytest
from mpmath import mp, mpf

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from casimir_cutoff.modesum import (
    CutoffParams,
    FieldKind,
    PlateGeometry,
    energy_closed_form,
    energy_mode_sum,
)


@settings(
    max_examples=60,
    deadline=None,
    database=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    dps=st.integers(15, 60),
    a=st.floats(0.5, 2.0),
    lam=st.floats(0.0, 0.9),
    eps=st.floats(0.05, 0.5),
    field=st.sampled_from(FieldKind),
)
def test_auto_sum_is_certified_at_every_precision(dps, a, lam, eps, field):
    with mp.workdps(dps):
        geom, cutoff = PlateGeometry(mpf(a)), CutoffParams(mpf(eps), mpf(lam))
        res = energy_mode_sum(geom, cutoff, field=field)
        # The default tolerance follows the working precision.
        assert res.remainder_bound <= max(mpf("1e-30"), mpf(10) ** (10 - dps)) * res.value
        fixed = energy_mode_sum(geom, cutoff, field=field, n_max=res.n_max)
        assert (fixed.value, fixed.remainder_bound) == (res.value, res.remainder_bound)
        with mp.workdps(2 * dps):
            exact = energy_closed_form(geom, cutoff, field=field)
            assert abs(res.value - exact) <= res.remainder_bound
