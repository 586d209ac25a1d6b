"""The exact certificates of the validity tests against the rounded forms.

``minkowski._check_metric`` decides in exact integers whether every
rounded metric defect passes its tolerance, and ``stress._unit_splitting``
decides the lightlike margin from exponents; only what they cannot
decide goes to the rounded forms, ``_rounded_metric_check`` and
``_clears_margin``.  The property test holds the metric check, outcome
and message, to ``series_reference.reference_check_metric``, which has
no certificate, at 15, 20, 50 and 200 digits: on boosts and rotations up
to rapidity 30 and their products, on identity-plus-delta matrices with
delta around the tolerance, on integer matrices, on entries spread over
many decades and on NaN and infinite entries.  The coverage test shows
that the certificates decide every validity test of ordinary covariance
trials, so that a change which silently disables them fails here.
"""

import random

import pytest
from mpmath import inf, mp, mpf, nan

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

import casimir_cutoff.minkowski
import casimir_cutoff.stress
from casimir_cutoff.minkowski import (
    DIM,
    _check_metric,
    _mat_mul,
    _raw,
    _validation_tol,
    boost,
    rotation_xy,
)
from casimir_cutoff.params import (
    CutoffParams,
    FieldKind,
    FourVector,
    PlateGeometry,
    SeparationVector,
)
from casimir_cutoff.stress import _unit_splitting, covariance_check
from series_reference import reference_check_metric

KINDS = ("lorentz", "product", "near", "integer", "decades", "special")


def _outcome(fn, *args):
    try:
        fn(*args)
    except ValueError as exc:
        return str(exc)
    return None


def _identity():
    return [[mpf(int(i == j)) for j in range(DIM)] for i in range(DIM)]


def _lorentz(rng, max_rapidity):
    if rng.random() < 0.5:
        return boost(mpf(rng.uniform(-max_rapidity, max_rapidity)))
    return rotation_xy(mpf(rng.uniform(0, 6.3)))


def _case(kind, rng):
    """(rows of mpf, factors as rows of mpf) of one drawn matrix."""
    if kind == "lorentz":
        return [list(row) for row in _lorentz(rng, 30).matrix], ()
    if kind == "product":
        # A third of the products is boost(r) after boost(-r), which cancels
        # to the identity up to the rounding of cosh(r)^2: the factors' scale.
        r = mpf(rng.uniform(-30, 30))
        if rng.random() < 1 / 3:
            pair = boost(r), boost(-r)
        else:
            pair = _lorentz(rng, 30), _lorentz(rng, 30)
        a, b = (_raw(f.matrix) for f in pair)
        rows = [[mp.make_mpf(e) for e in row] for row in _mat_mul(a, b)]
        return rows, tuple([[mp.make_mpf(e) for e in row] for row in f] for f in (a, b))
    if kind == "near":
        # The identity or a small boost, with entries moved by delta in
        # [tol / 4, 4 tol]: the defects sit around the tolerance.
        m = [list(row) for row in boost(mpf(rng.uniform(-2, 2))).matrix] if rng.random() < 0.5 \
            else _identity()
        for _ in range(rng.randrange(1, 4)):
            i, j = rng.randrange(DIM), rng.randrange(DIM)
            delta = _validation_tol(mp.dps, mp.prec) * mpf(rng.uniform(0.25, 4))
            m[i][j] += delta if rng.random() < 0.5 else -delta
        return m, ()
    if kind == "integer":
        if rng.random() < 0.5:
            # Axis reflections and swaps of spatial axes preserve g exactly.
            m = [[mpf(0)] * DIM for _ in range(DIM)]
            perm = [0] + rng.sample(range(1, DIM), DIM - 1)
            for i, j in enumerate(perm):
                m[i][j] = mpf(rng.choice((-1, 1)))
            return m, ()
        return [[mpf(rng.randint(-3, 3)) for _ in range(DIM)] for _ in range(DIM)], ()
    if kind == "decades":
        m = _identity()
        for _ in range(rng.randrange(1, 5)):
            i, j = rng.randrange(DIM), rng.randrange(DIM)
            m[i][j] = mpf(rng.uniform(-1, 1)) * mpf(10) ** rng.randint(-400, 60)
        return m, ()
    m = [list(row) for row in _lorentz(rng, 2).matrix]
    m[rng.randrange(DIM)][rng.randrange(DIM)] = rng.choice((nan, inf, -inf))
    return m, ()


@pytest.mark.parametrize("dps", [15, 20, 50, 200])
@settings(max_examples=120, deadline=None, database=None, derandomize=True)
@given(kind=st.sampled_from(KINDS), seed=st.integers(0, 2**32 - 1))
def test_metric_check_matches_reference(dps, kind, seed):
    with mp.workdps(dps):
        m, factors = _case(kind, random.Random(seed))
        raw = _raw(m)
        got = _outcome(_check_metric, raw, tuple(_raw(f) for f in factors))
        assert got == _outcome(reference_check_metric, m, factors)


@pytest.mark.parametrize("dps", [15, 50, 200])
def test_certificates_decide_ordinary_trials(dps, monkeypatch):
    # Rotations after boosts with |rapidity| <= 2 and splittings drawn as
    # the stress benchmark draws them: neither rounded form is reached.
    def reached(*args):
        raise AssertionError("the rounded form was reached")

    monkeypatch.setattr(casimir_cutoff.minkowski, "_rounded_metric_check", reached)
    monkeypatch.setattr(casimir_cutoff.stress, "_clears_margin", reached)
    rng = random.Random(dps)
    with mp.workdps(dps):
        geom, cutoff = PlateGeometry(mpf("1.2")), CutoffParams(mpf("0.1"), mpf("0.4"))
        for _ in range(20):
            t = mpf(rng.uniform(-0.03, 0.03)) if rng.random() < 0.5 else 0
            v = FourVector(t, mpf(rng.uniform(0.05, 0.15)), mpf(rng.uniform(-0.05, 0.05)), 0)
            _unit_splitting(v)
            ell = rotation_xy(mpf(rng.uniform(0, 6.3))).compose(boost(mpf(rng.uniform(-2, 2))))
            for field, z in ((FieldKind.ELECTROMAGNETIC, None), (FieldKind.SCALAR, mpf("0.5"))):
                assert covariance_check(field, geom, cutoff, SeparationVector(v), ell, z) >= 0
