"""One grid point through the same public library calls the CLI makes.

Each function returns the point's row as a dict keyed by the CLI's
column names, holding unformatted mpf values, so the oracle checks the
in-process pass and the CLI's text with the same code.
"""

from __future__ import annotations

from mpmath import mpf

from casimir_cutoff.expansion import (
    casimir_pressure,
    energy_laurent,
    reference_coefficients,
    subtract_outer,
)
from casimir_cutoff.laurent import extract_coefficient
from casimir_cutoff.minkowski import FourVector, SeparationVector, boost, rotation_xy
from casimir_cutoff.modesum import CutoffParams, FieldKind, PlateGeometry, energy_mode_sum
from casimir_cutoff.stress import covariance_check, em_stress, scalar_stress


def _energy_sum(p, field):
    res = energy_mode_sum(
        PlateGeometry(p["a"]), CutoffParams(p["epsilon"], p["lambda"]), field
    )
    return {"n_max": res.n_max, "energy": res.value, "remainder_bound": res.remainder_bound}


def _energy_expansion(p, field):
    sub = subtract_outer(energy_laurent(p["a"], p["lambda"], field=field))
    ref = reference_coefficients(p["a"], p["lambda"])
    half = mpf(1) / 2 if field is FieldKind.SCALAR else mpf(1)
    return {
        "c_m4": extract_coefficient(sub.series, -4),
        "c_m2": extract_coefficient(sub.series, -2),
        "c_0": extract_coefficient(sub.series, 0),
        "c_m2_ref": half * ref.c_minus2,
        "c_0_ref": half * ref.c_0,
    }


def _pressure(p, field):
    pr = casimir_pressure(p["a"], p["lambda"], field)
    return {"finite_part": pr.finite_part, "divergent_coeff": pr.divergent_coeff}


def _split(p):
    return SeparationVector(FourVector(*p["eps_vec"]))


def _stress(p, field):
    sep = _split(p)
    cut = CutoffParams(sep.length, p["lambda"])
    if field is FieldKind.SCALAR:
        d = scalar_stress(PlateGeometry(p["a"]), cut, sep, p["z"])
    else:
        d = em_stress(PlateGeometry(p["a"]), cut, sep)
    t = d.tensor()
    return {
        "A": d.A, "B_finite": d.B_finite, "B_div_eps2": d.B_divergent_eps2,
        "Ttt": t[0, 0], "Tzz": t[3, 3], "trace_residual": abs(t.trace()),
    }


def _covariance(p, field):
    sep = _split(p)
    ell = rotation_xy(p["angle"]).compose(boost(p["rapidity"]))
    res = covariance_check(
        field, PlateGeometry(p["a"]), CutoffParams(sep.length, p["lambda"]), sep, ell, p["z"]
    )
    return {"residual": res}


def _scan(p, field):
    a, lam = p["a"], p["lambda"]
    sep = SeparationVector(FourVector(0, mpf("0.1"), 0, 0))  # the CLI's default --eps-vec
    sub = subtract_outer(energy_laurent(a, lam))
    pr = casimir_pressure(a, lam)
    d = em_stress(PlateGeometry(a), CutoffParams(sep.length, lam), sep)
    return {
        "c_m2": extract_coefficient(sub.series, -2),
        "c_0": extract_coefficient(sub.series, 0),
        "finite_part": pr.finite_part, "divergent_coeff": pr.divergent_coeff,
        "A": d.A, "B_finite": d.B_finite, "B_div_eps2": d.B_divergent_eps2,
    }


_POINTS = {
    "energy-sum": _energy_sum,
    "energy-expansion": _energy_expansion,
    "pressure": _pressure,
    "stress": _stress,
    "covariance": _covariance,
    "scan": _scan,
}


def run_point(command: str, field: str, point: dict) -> dict:
    """The point's output columns, computed at the caller's precision."""
    return _POINTS[command](point, FieldKind(field))
