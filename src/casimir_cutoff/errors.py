"""Exception types raised across the package.

Every error is a subclass of CasimirError so callers can catch the whole
family at once.  Domain violations raise immediately; no routine returns
NaN or silently clamps its input.
"""


class CasimirError(Exception):
    """Base class for all errors raised by this package."""


# ---- series windows ----

class OutOfRange(CasimirError):
    """Requested coefficient lies outside the retained power window."""


# ---- mode sums and cutoff domain ----

class CutoffDomain(CasimirError):
    """Cutoff parameters outside epsilon > 0, 0 <= lambda < 1."""


class NotConverged(CasimirError):
    """Certified remainder bound could not be driven below tolerance."""


class InvalidMode(CasimirError):
    """Mode label outside the admissible spectrum (e.g. n=0, polarization 1).

    That includes a mode number or polarization that is not an int, and a
    transverse wave-vector that is zero, has a component that is not
    finite (NaN included) or does not have two.  Also a splitting vector
    with a z component, which leaves the (t, x, y) subspace the stress is
    split in, and a radial kernel evaluated at another length than the
    splitting it is applied along.
    """


# ---- point-split stress ----

class NonPositiveSeparation(CasimirError):
    """Invariant separation must be strictly positive."""


class CothPole(CasimirError):
    """Generating function evaluated at or beyond its pole s = lambda*s_frozen."""


class LightlikeSeparation(CasimirError):
    """Separation vector is lightlike or timelike within tolerance."""


class WallContact(CasimirError):
    """Field point placed on (or outside) a plate, where the stress diverges.

    Also a cavity mode profile asked for outside the gap [0, a], where no
    mode lives, or at a NaN height.
    """
