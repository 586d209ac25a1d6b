"""Exception types raised across the package.

Every error is a subclass of CasimirError so callers can catch the whole
family at once.  Domain violations raise immediately; no routine returns
NaN or silently clamps its input.
"""


class CasimirError(Exception):
    """Base class for all errors raised by this package."""


# ---- series arithmetic ----

class DivisionByZeroSeries(CasimirError):
    """Divisor series has no nonzero retained coefficient."""


class ZeroScale(CasimirError):
    """Argument rescaling by an exactly zero factor."""


class SingularComposition(CasimirError):
    """Composition (e.g. exp) applied to a series with negative powers."""


class OutOfRange(CasimirError):
    """Requested coefficient lies outside the retained power window."""


# ---- mode sums and cutoff domain ----

class NonPositiveEpsilon(CasimirError):
    """Cutoff length epsilon must be strictly positive."""


class CutoffDomain(CasimirError):
    """Cutoff parameters outside epsilon > 0, 0 <= lambda < 1."""


class NotConverged(CasimirError):
    """Certified remainder bound could not be driven below tolerance."""


class InvalidMode(CasimirError):
    """Mode label outside the admissible spectrum (e.g. n=0, polarization 1)."""


# ---- point-split stress ----

class NonPositiveSeparation(CasimirError):
    """Invariant separation must be strictly positive."""


class CothPole(CasimirError):
    """Generating function evaluated at or beyond its pole s = lambda*s_frozen."""


class LightlikeSeparation(CasimirError):
    """Separation vector is lightlike or timelike within tolerance."""


class WallContact(CasimirError):
    """Field point placed on (or outside) a plate, where the stress diverges."""
