"""Working-precision policy.

The library computes at the caller's mpmath precision and never changes
it; a caller that wants a given digit count works under
``mp.workdps(dps)``.  The CLI resolves its digit count here and applies
it only inside its own scope.  At least 15 digits are accepted; the
acceptance tolerances (1e-28 .. 1e-40) assume the default of 50.

Precedence for the digit count: explicit argument, then the
CASIMIR_PRECISION environment variable, then DEFAULT_DPS.

``value_type`` is the immutable namedtuple base of the package's value
types, which convert their numbers with ``to_mpf`` on construction.
"""

from __future__ import annotations

import os
from collections import namedtuple

from mpmath import mpf

DEFAULT_DPS = 50
ENV_VAR = "CASIMIR_PRECISION"
_MIN_DPS = 15


def resolve_precision(dps: int | None = None) -> int:
    """The working precision in decimal digits; sets nothing."""
    if dps is None:
        raw = os.environ.get(ENV_VAR, "")
        dps = int(raw) if raw.strip() else DEFAULT_DPS
    dps = int(dps)
    if dps < _MIN_DPS:
        raise ValueError(f"working precision must be >= {_MIN_DPS} digits, got {dps}")
    return dps


def to_mpf(x) -> mpf:
    """Convert scalars to mpf.  Strings and integers convert exactly."""
    if isinstance(x, mpf):
        return x
    return mpf(x)


def value_type(name: str, fields: str, defaults=()):
    """namedtuple base for an immutable, validated value type.

    A subclass sets ``__slots__ = ()`` and converts and validates its
    fields in ``__new__``.  namedtuple's own ``_make``, which ``_replace``
    calls, builds the tuple directly and would skip that; here it calls
    the class, so a replaced field is converted and checked as well.
    """
    base = namedtuple(name, fields, defaults=defaults)
    base._make = classmethod(lambda cls, iterable: cls(*iterable))
    return base
