"""Independent reference values for every emitted row.

The formulas are transcribed from the acceptance criteria, not called
from the package, so a wrong number fails here however it was
produced.  Tolerances are the acceptance tolerances.  Energy and
pressure references are halved for the scalar field.

``check`` takes one row as a dict keyed by the CLI's column names,
holding mpf values (parsed from the CLI's text, or straight from the
library in the in-process pass) and returns whether it is correct.
"""

from __future__ import annotations

from mpmath import coth, csch, mp, mpf, pi, sin

TOL_ENERGY = mpf("1e-30")      # criterion 1: subtracted energy coefficients
TOL_STRESS = mpf("1e-28")      # criteria 3, 4 and 7: stress coefficients, trace
TOL_COVARIANCE = mpf("1e-25")  # criterion 6
MODE_SUM_REL_TOL = mpf("1e-30")  # the CLI's default convergence target


def _energy_closed_form(a, lam, eps, field):
    # Frozen-copy coth derivative.  The scalar field keeps half of every
    # n >= 1 term and none of the n = 0 term, which is 1 / (2 pi eps^3).
    v = (1 - lam) * eps * pi / (2 * a)
    c = pi / (2 * a)
    em = (coth(v) / eps**3 + c * csch(v) ** 2 / eps**2
          + c**2 * csch(v) ** 2 * coth(v) / eps) / (2 * pi)
    return em if field == "em" else em / 2 - 1 / (4 * pi * eps**3)


def _energy_coefficients(a, lam):
    return -lam / (12 * a), -(1 - lam**3) * pi**2 / (720 * a**3)


def _pressure(a, lam):
    return -(1 - lam**3) * pi**2 / (240 * a**4), -lam / (12 * a**2)


def _stress_coefficients(a, lam, field, z):
    if field == "em":
        return (
            (1 - lam) * pi**2 / (180 * a**4),
            lam * (lam**2 - 1) * pi**2 / (1440 * a**4),
            -lam / (24 * a**2),
        )
    sz = sin(pi * z / a)
    return (
        (1 - lam) * pi**2 / (360 * a**4),
        (lam / 48) * (pi**2 / (4 * a**4)) * (1 - lam**2)
        * ((3 - 2 * sz**2) / sz**4 - mpf(1) / 15),
        (lam / 48) * (3 / sz**2 - 1) / a**2,
    )


def _near(row, key, ref, tol) -> bool:
    return abs(row[key] - ref) <= tol


def _check_energy_sum(row, field, dps, slack):
    e, bound = row["energy"], row["remainder_bound"]
    with mp.workdps(2 * dps):
        ref = _energy_closed_form(row["a"], row["lambda"], row["epsilon"], field)
        return (
            row["n_max"] >= 1
            and bound <= MODE_SUM_REL_TOL * abs(e)
            and abs(e - ref) <= bound + slack * abs(e)
        )


def _check_stress(row, field, eps_vec):
    a_ref, b_fin, b_div = _stress_coefficients(row["a"], row["lambda"], field, row["z"])
    t, x, y, _ = eps_vec
    s2 = -t * t + x * x + y * y
    b_total = b_div / s2 + b_fin
    # T = A S1 + b_total S2 with S1_tt = -1/4, S1_zz = -3/4,
    # S2_tt = -1 - 3 t^2 / s^2 and S2_zz = 0.
    ttt = -a_ref / 4 + b_total * (-1 - 3 * t * t / s2)
    return (
        _near(row, "A", a_ref, TOL_STRESS)
        and _near(row, "B_finite", b_fin, TOL_STRESS)
        and _near(row, "B_div_eps2", b_div, TOL_STRESS)
        and _near(row, "Ttt", ttt, TOL_STRESS)
        and _near(row, "Tzz", -3 * a_ref / 4, TOL_STRESS)
        and row["trace_residual"] <= TOL_STRESS
    )


def check(command: str, field: str, dps: int, row: dict, eps_vec=None,
          slack: mpf = mpf(0)) -> bool:
    """True when every value of the row matches its reference.

    ``slack`` is the relative rounding of printed values, used only
    where a tolerance is relative (the certified mode-sum bound).
    """
    if any(v is None for k, v in row.items() if k != "z"):
        return False
    with mp.workdps(dps):
        if command == "energy-sum":
            return _check_energy_sum(row, field, dps, slack)
        if command == "covariance":
            return row["residual"] <= TOL_COVARIANCE
        a, lam = row["a"], row["lambda"]
        half = mpf(1) / 2 if field == "scalar" else mpf(1)
        if command == "energy-expansion":
            c_m2, c_0 = (half * c for c in _energy_coefficients(a, lam))
            return (
                abs(row["c_m4"]) <= TOL_ENERGY
                and all(_near(row, k, c_m2, TOL_ENERGY) for k in ("c_m2", "c_m2_ref"))
                and all(_near(row, k, c_0, TOL_ENERGY) for k in ("c_0", "c_0_ref"))
            )
        if command == "pressure":
            fin, div = (half * c for c in _pressure(a, lam))
            return (_near(row, "finite_part", fin, TOL_ENERGY)
                    and _near(row, "divergent_coeff", div, TOL_ENERGY))
        if command == "stress":
            return _check_stress(row, field, eps_vec)
        if command == "scan":
            c_m2, c_0 = _energy_coefficients(a, lam)
            fin, div = _pressure(a, lam)
            a_ref, b_fin, b_div = _stress_coefficients(a, lam, "em", None)
            return (
                _near(row, "c_m2", c_m2, TOL_ENERGY)
                and _near(row, "c_0", c_0, TOL_ENERGY)
                and _near(row, "finite_part", fin, TOL_ENERGY)
                and _near(row, "divergent_coeff", div, TOL_ENERGY)
                and _near(row, "A", a_ref, TOL_STRESS)
                and _near(row, "B_finite", b_fin, TOL_STRESS)
                and _near(row, "B_div_eps2", b_div, TOL_STRESS)
            )
    raise ValueError(f"no reference for command {command!r}")
