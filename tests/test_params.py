"""The shared checks of ``params``, reached from every entry point.

Every function that takes a field rejects anything but a ``FieldKind``
through the one check ``params._check_field``, before it reads any
other argument.
"""

import pytest
from mpmath import mpf

from casimir_cutoff.errors import InvalidMode
from casimir_cutoff.expansion import casimir_pressure, energy_laurent
from casimir_cutoff.modesum import energy_mode_sum
from casimir_cutoff.pointwise import energy_closed_form
from casimir_cutoff.stress import covariance_check


class NoWork:
    """An argument that fails the test as soon as anything reads it."""

    def __getattr__(self, name):
        raise AssertionError(f"work done before the field was checked: read .{name}")


ENTRY_POINTS = {
    "energy_mode_sum": lambda field: energy_mode_sum(NoWork(), NoWork(), field),
    "energy_laurent": lambda field: energy_laurent(NoWork(), NoWork(), field=field),
    "casimir_pressure": lambda field: casimir_pressure(NoWork(), NoWork(), field),
    "covariance_check": lambda field: covariance_check(
        field, NoWork(), NoWork(), NoWork(), NoWork()
    ),
    "covariance_check with z": lambda field: covariance_check(
        field, NoWork(), NoWork(), NoWork(), NoWork(), mpf("0.5")
    ),
    "energy_closed_form": lambda field: energy_closed_form(NoWork(), NoWork(), field),
}


@pytest.mark.parametrize("field", ["em", None, 1])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_field_rejected_before_any_work(entry, field):
    with pytest.raises(InvalidMode, match="unknown field kind") as excinfo:
        ENTRY_POINTS[entry](field)
    # Raised by the one shared check, not by a copy of it.
    assert excinfo.traceback[-1].name == "_check_field"
