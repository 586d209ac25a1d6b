"""Acceptance gate: the eight headline checks, one test per criterion.

Each test prints a single PASS/FAIL line with the measured worst case
(visible with -s; pytest -v also reports one line per criterion), and
asserts at the stated tolerance.  Tolerances here are contractual:
they must not be loosened to make a failing build green.
"""

import random

import pytest
from mpmath import mp, mpf, pi, sqrt

from casimir_cutoff.expansion import (
    casimir_pressure,
    energy_laurent,
    reference_coefficients,
    subtract_outer,
)
from casimir_cutoff.laurent import extract_coefficient
from casimir_cutoff.minkowski import DIM, FourVector, SeparationVector, boost, rotation_xy
from casimir_cutoff.modesum import CutoffParams, FieldKind, PlateGeometry, energy_mode_sum
from casimir_cutoff.pointwise import (
    ModeIndex,
    check_boundary_conditions,
    energy_closed_form,
    generating_function,
    second_derivative_tensor,
)
from casimir_cutoff.stress import (
    angular_average,
    covariance_check,
    em_stress,
    s1_structure,
    scalar_stress,
)

A_GRID = (mpf("0.5"), mpf(1), mpf(2))
LAM_GRID = tuple(mpf(k) / 10 for k in range(10))
SPLIT = SeparationVector(FourVector(0, mpf("0.1"), 0, 0))


def report(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok


def tensor_max_diff(t, u):
    return max(abs(t[i, j] - u[i, j]) for i in range(DIM) for j in range(DIM))


def test_criterion_1_subtracted_energy_coefficients():
    tol = mpf("1e-30")
    worst = mpf(0)
    for a in A_GRID:
        for lam in LAM_GRID:
            sub = subtract_outer(energy_laurent(a, lam))
            ref = reference_coefficients(a, lam)
            worst = max(
                worst,
                abs(extract_coefficient(sub.series, -2) - ref.c_minus2),
                abs(extract_coefficient(sub.series, 0) - ref.c_0),
            )
    anchor = extract_coefficient(
        subtract_outer(energy_laurent(1, 0)).series, 0
    )
    anchor_ok = (
        abs(anchor + pi**2 / 720) < tol
        and abs(anchor + mpf("0.01370778389")) < mpf("1e-11")
    )
    report(
        1,
        worst <= tol and anchor_ok,
        f"30-point (a, lambda) grid max coefficient error {mp.nstr(worst, 3)} "
        f"<= 1e-30; c_0(a=1, lambda=0) = -pi^2/720",
    )


def test_criterion_2_mode_sum_matches_closed_form():
    rng = random.Random(2024)
    worst_rel = mpf(0)
    ok = True
    for _ in range(20):
        a = mpf(rng.uniform(0.5, 2.0))
        lam = mpf(rng.uniform(0.0, 0.9))
        eps = mpf(rng.uniform(0.05, 0.5))
        geom = PlateGeometry(a)
        cutoff = CutoffParams(eps, lam)
        for field in FieldKind:
            res = energy_mode_sum(geom, cutoff, field=field, tol=mpf("1e-12"))
            exact = energy_closed_form(geom, cutoff, field=field)
            ok = ok and abs(res.value - exact) <= res.remainder_bound
            worst_rel = max(worst_rel, res.remainder_bound / abs(res.value))
    ok = ok and worst_rel <= mpf("1e-10")
    report(
        2,
        ok,
        f"20 random (a, lambda, eps): |sum - closed| within certified bound, "
        f"worst relative bound {mp.nstr(worst_rel, 3)} <= 1e-10",
    )


def test_criterion_3_em_stress_and_average():
    tol = mpf("1e-28")
    d = em_stress(PlateGeometry(1), CutoffParams(mpf("0.1"), 0), SPLIT)
    t = d.tensor()
    err_a = abs(d.A - pi**2 / 180)
    err_zz = abs(t[3, 3] + pi**2 / 240)
    worst_avg = mpf(0)
    for lam in (mpf(0), mpf("0.25"), mpf("0.5"), mpf("0.75")):
        dd = em_stress(PlateGeometry(1), CutoffParams(mpf("0.1"), lam), SPLIT)
        target = s1_structure().scale((1 - lam) * pi**2 / 180)
        worst_avg = max(worst_avg, tensor_max_diff(angular_average(dd), target))
    ok = err_a <= tol and err_zz <= tol and worst_avg <= tol
    report(
        3,
        ok,
        f"A = pi^2/180 (err {mp.nstr(err_a, 3)}), Tzz = -pi^2/240 "
        f"(err {mp.nstr(err_zz, 3)}), averaged tensor on lambda grid "
        f"(err {mp.nstr(worst_avg, 3)}) all <= 1e-28",
    )


def test_criterion_4_divergence_structure():
    tol = mpf("1e-28")
    worst = mpf(0)
    for a in A_GRID:
        for lam in LAM_GRID:
            d = em_stress(PlateGeometry(a), CutoffParams(mpf("0.1"), lam), SPLIT)
            worst = max(
                worst,
                abs(d.B_divergent_eps2 + lam / (24 * a**2)),
                abs(d.B_finite - lam * (lam**2 - 1) * pi**2 / (1440 * a**4)),
            )
    report(
        4,
        worst <= tol,
        f"B_divergent_eps2 = -lambda/24a^2 and B_finite = "
        f"lambda(lambda^2-1)pi^2/1440a^4 on the grid, max error "
        f"{mp.nstr(worst, 3)} <= 1e-28",
    )


def test_criterion_5_scalar_relations():
    geom = PlateGeometry(1)
    worst_avg = mpf(0)
    for lam in (mpf(0), mpf("0.3"), mpf("0.6"), mpf("0.9")):
        cutoff = CutoffParams(mpf("0.1"), lam)
        em_avg = angular_average(em_stress(geom, cutoff, SPLIT))
        sc_avg = angular_average(scalar_stress(geom, cutoff, SPLIT, mpf("0.4")))
        half = max(
            abs(sc_avg[i, j] - em_avg[i, j] / 2)
            for i in range(DIM)
            for j in range(DIM)
        )
        worst_avg = max(worst_avg, half)

    worst_coeff = mpf(0)
    for lam in (mpf(0), mpf("0.5"), mpf("0.8")):
        em_sub = subtract_outer(energy_laurent(1, lam))
        sc_sub = subtract_outer(energy_laurent(1, lam, field=FieldKind.SCALAR))
        for p in (-2, 0):
            worst_coeff = max(
                worst_coeff,
                abs(
                    extract_coefficient(sc_sub.series, p)
                    - extract_coefficient(em_sub.series, p) / 2
                ),
            )

    lam = mpf("0.5")
    d = scalar_stress(
        geom, CutoffParams(mpf("0.1"), lam), SPLIT, mpf("0.5")
    )
    braces = (d.B_divergent_eps2 / d.separation_length**2 + d.B_finite) * 48 / lam
    direct = 200 + (pi**2 / 4) * (1 - lam**2) * (1 - mpf(1) / 15)
    brace_rel = abs(braces - direct) / direct
    ok = (
        worst_avg <= mpf("1e-28")
        and worst_coeff <= mpf("1e-30")
        and brace_rel <= mpf("1e-6")
        and abs(braces - mpf("201.7272")) < mpf("1e-4")
    )
    report(
        5,
        ok,
        f"scalar average = EM/2 (err {mp.nstr(worst_avg, 3)} <= 1e-28), "
        f"energy coefficients halved (err {mp.nstr(worst_coeff, 3)} <= 1e-30), "
        f"braces {mp.nstr(braces, 10)} vs direct substitution "
        f"(rel err {mp.nstr(brace_rel, 3)} <= 1e-6)",
    )


def test_criterion_6_lorentz_covariance():
    rng = random.Random(66)
    geom = PlateGeometry(1)
    cutoff = CutoffParams(mpf("0.1"), mpf("0.4"))
    eps = SeparationVector(FourVector(mpf("0.02"), mpf("0.1"), mpf("-0.04"), 0))
    worst = mpf(0)
    for _ in range(100):
        rap = mpf(rng.uniform(-2, 2))
        ang = mpf(rng.uniform(0, 6.283185307179586))
        ell = rotation_xy(ang).compose(boost(rap))
        worst = max(
            worst,
            covariance_check(FieldKind.ELECTROMAGNETIC, geom, cutoff, eps, ell),
            covariance_check(FieldKind.SCALAR, geom, cutoff, eps, ell, z=mpf("0.3")),
        )
    report(
        6,
        worst <= mpf("1e-25"),
        f"100 random transforms (rapidity <= 2), both fields: max residual "
        f"{mp.nstr(worst, 3)} <= 1e-25",
    )


def test_criterion_7_structural_invariants():
    rng = random.Random(77)
    geom = PlateGeometry(1)

    symmetric = True
    worst_trace = mpf(0)
    for _ in range(10):
        lam = mpf(rng.uniform(0, 0.9))
        t = em_stress(geom, CutoffParams(mpf("0.1"), lam), SPLIT).tensor()
        u = scalar_stress(
            geom, CutoffParams(mpf("0.1"), lam), SPLIT, mpf(rng.uniform(0.1, 0.9))
        ).tensor()
        for i in range(DIM):
            for j in range(DIM):
                symmetric = symmetric and t[i, j] == t[j, i] and u[i, j] == u[j, i]
        worst_trace = max(worst_trace, abs(t.trace()), abs(u.trace()))

    worst_bc = mpf(0)
    k = (mpf("0.7"), mpf("-0.4"))
    for idx in (
        ModeIndex(0, 2, k),
        ModeIndex(1, 1, k),
        ModeIndex(1, 2, k),
        ModeIndex(5, 1, k),
        ModeIndex(5, 2, k),
    ):
        worst_bc = max(worst_bc, check_boundary_conditions(idx, PlateGeometry(mpf("1.3"))))

    # Finite-difference check of the analytic splitting Hessian.
    lam, a = mpf("0.4"), mpf(1)
    base = (mpf("0.05"), mpf("0.2"), mpf("0.1"))
    s0 = sqrt(-base[0] ** 2 + base[1] ** 2 + base[2] ** 2)
    kernel = generating_function(s0, s0, lam, a)
    hess = second_derivative_tensor(
        kernel, SeparationVector(FourVector(*base, 0))
    )

    def f(t, x, y):
        s = sqrt(-t * t + x * x + y * y)
        return generating_function(s, s0, lam, a).value

    h = mpf("1e-12")
    sign = (-1, 1, 1)
    worst_fd = mpf(0)
    for i in range(3):
        for j in range(3):
            if i == j:
                up, dn = list(base), list(base)
                up[i] += h
                dn[i] -= h
                fd = (f(*up) - 2 * f(*base) + f(*dn)) / (h * h)
            else:
                vals = []
                for si, sj in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                    args = list(base)
                    args[i] += si * h
                    args[j] += sj * h
                    vals.append(f(*args))
                fd = (vals[0] - vals[1] - vals[2] + vals[3]) / (4 * h * h)
            expected = sign[i] * sign[j] * fd
            worst_fd = max(worst_fd, abs(hess[i, j] - expected) / abs(expected))

    ok = (
        symmetric
        and worst_trace <= mpf("1e-28")
        and worst_bc <= mpf("1e-40")
        and worst_fd <= mpf("1e-12")
    )
    report(
        7,
        ok,
        f"symmetry exact, max trace {mp.nstr(worst_trace, 3)} <= 1e-28, "
        f"max boundary residual {mp.nstr(worst_bc, 3)} <= 1e-40, "
        f"Hessian vs finite differences rel {mp.nstr(worst_fd, 3)} <= 1e-12",
    )


def test_criterion_8_energy_vs_stress_discrepancy():
    # At nonzero lambda the energy-route pressure and the zz stress
    # component disagree by the factor 1 + lambda + lambda^2; the
    # discrepancy is asserted as a reported fact, not reconciled.
    geom = PlateGeometry(1)
    ok = True
    ratios = []
    for lam in (mpf("0.3"), mpf("0.5"), mpf("0.9")):
        p_energy = casimir_pressure(1, lam).finite_part
        d = em_stress(geom, CutoffParams(mpf("0.1"), lam), SPLIT)
        p_stress = -mpf(3) / 4 * d.A
        ratio = p_energy / p_stress
        ratios.append(ratio)
        ok = ok and abs(ratio - (1 + lam + lam**2)) <= mpf("1e-25")
        ok = ok and abs(p_energy - p_stress) > mpf("1e-3") * abs(p_stress)
    p0_energy = casimir_pressure(1, 0).finite_part
    d0 = em_stress(geom, CutoffParams(mpf("0.1"), 0), SPLIT)
    ok = ok and abs(p0_energy - (-mpf(3) / 4 * d0.A)) <= mpf("1e-30")
    report(
        8,
        ok,
        "energy-route vs zz-stress finite pressure differ at nonzero lambda "
        f"by 1 + lambda + lambda^2 (measured {mp.nstr(ratios[1], 8)} at "
        "lambda = 0.5, agreement at lambda = 0); reported, not reconciled",
    )
