"""Shared test configuration: pin the working precision.

The library computes at the caller's precision, and every tolerance in
the suite assumes 50 decimal digits.  So the precision is set to 50
when this file is imported, before any test module builds its
module-level constants, and again around every test, rather than
relying on the importing order of individual test modules.

``check_replace`` is shared by the value-type tests of several layers.
"""

import pytest
from mpmath import mp, mpf

mp.dps = 50


@pytest.fixture(autouse=True)
def _fixed_precision():
    saved = mp.dps
    mp.dps = 50
    yield
    mp.dps = saved


def _leaves(x):
    # The numbers in a field: a tuple field, nested or a value type, is
    # walked down to its entries.
    if isinstance(x, tuple):
        for item in x:
            yield from _leaves(item)
    else:
        yield x


@pytest.fixture
def check_replace():
    """Check ``value._replace`` on one field against the constructor.

    An invalid ``bad`` must raise the constructor's exception, type and
    message; a valid ``good`` must give the constructor's result, with
    every number converted to mpf.
    """

    def check(value, field, bad, good):
        cls, fields = type(value), value._asdict()
        with pytest.raises(Exception) as ctor:
            cls(**{**fields, field: bad})
        with pytest.raises(type(ctor.value)) as replaced:
            value._replace(**{field: bad})
        assert type(replaced.value) is type(ctor.value)
        assert str(replaced.value) == str(ctor.value)
        out = value._replace(**{field: good})
        assert type(out) is cls
        assert out == cls(**{**fields, field: good})
        assert all(isinstance(v, mpf) for v in _leaves(getattr(out, field)))

    return check
