"""Shared test configuration: pin the working precision.

The library computes at the caller's precision, and every tolerance in
the suite assumes 50 decimal digits.  So the precision is set to 50
when this file is imported, before any test module builds its
module-level constants, and again around every test, rather than
relying on the importing order of individual test modules.
"""

import pytest
from mpmath import mp

mp.dps = 50


@pytest.fixture(autouse=True)
def _fixed_precision():
    saved = mp.dps
    mp.dps = 50
    yield
    mp.dps = saved
