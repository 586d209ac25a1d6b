"""Tests for the point-split stress tensors.

The radial kernels are checked against their defining field equation,
series oracles, and finite differences; the assembled decompositions
against the analytic coefficient values, trace and symmetry
invariants, Lorentz covariance, and the independent mode-assembly
route for the scalar field.
"""

import random
from itertools import product

import pytest
from mpmath import cos, cosh, exp, inf, mp, mpf, nan, pi, sin, sinh, zeta

import casimir_cutoff.minkowski
import casimir_cutoff.params
import casimir_cutoff.stress
from casimir_cutoff.errors import (
    CasimirError,
    CothPole,
    CutoffDomain,
    InvalidMode,
    LightlikeSeparation,
    NonPositiveSeparation,
    WallContact,
)
from casimir_cutoff.minkowski import (
    DIM,
    FourVector,
    LorentzTransform,
    SeparationVector,
    SymTensor4,
    boost,
    rotation_xy,
)
from casimir_cutoff.modesum import CutoffParams, FieldKind, PlateGeometry
from casimir_cutoff.pointwise import (
    RadialKernel,
    bulk_kernel,
    generating_function,
    second_derivative_tensor,
    stress_from_kernel,
)
from casimir_cutoff.stress import (
    StressDecomposition,
    _stress_for,
    angular_average,
    covariance_check,
    em_stress,
    s1_structure,
    scalar_stress,
)
from series_reference import _scalar_mode_assembly, propagator_kernel, scale

STRESS_TOL = mpf("1e-28")


def spacelike(t, x, y):
    return SeparationVector(FourVector(t, x, y, 0))


def random_spacelike(rng, scale=mpf("0.1")):
    while True:
        x = mpf(rng.uniform(-1, 1))
        y = mpf(rng.uniform(-1, 1))
        t = mpf(rng.uniform(-0.5, 0.5))
        if x * x + y * y - t * t > mpf("0.05"):
            return spacelike(t * scale, x * scale, y * scale)


def with_zeros(eps):
    """The splitting, then its spatial (t = 0) and axis (t = y = 0) forms.

    The random splittings have no zero component; these give the stress
    path the exact zeros it skips.
    """
    _, x, y, _ = eps.vector
    return eps, spacelike(0, x, y), spacelike(0, x, 0)


def s2_rows(direction):
    """S2 at the splitting, read off the assembly with A = 0 and b = 1 exactly."""
    one, zero = mpf(1), mpf(0)
    return StressDecomposition(zero, one, zero, direction, one).tensor().matrix


def dense_s2(direction):
    """S2 = h - 3 v v / v^2 with every product formed, the upper triangle mirrored.

    The dense formula, left to right: v^2 is -t t + x x + y y + z z, and
    entry (i, j) is h_ij - (3 v_i / v^2) v_j.
    """
    v = direction.vector
    s2 = -v.t * v.t + v.x * v.x + v.y * v.y + v.z * v.z
    h = (-1, 1, 1, 0)
    upper = {
        (i, j): (h[i] if i == j else 0) - 3 * v[i] / s2 * v[j]
        for i in range(DIM)
        for j in range(i, DIM)
    }
    return tuple(tuple(upper[min(i, j), max(i, j)] for j in range(DIM)) for i in range(DIM))


class TestPropagatorKernel:
    """Single-mass reduced propagator."""

    def test_massless_value(self):
        k = propagator_kernel(0, 1)
        assert abs(k.value - 1 / (4 * pi)) < mpf("1e-45")

    def test_massless_scaling(self):
        s = mpf("0.37")
        assert abs(propagator_kernel(0, 2 * s).value - propagator_kernel(0, s).value / 2) < mpf(
            "1e-45"
        )

    def test_field_equation(self):
        # -(D'' + (2/s) D') + m^2 D = 0 away from the origin.
        for m, s in [(pi, mpf("0.3")), (mpf("2.5"), mpf("0.8")), (0, mpf("0.1"))]:
            k = propagator_kernel(m, s)
            residual = -(k.second + 2 * k.first / s) + m * m * k.value
            assert abs(residual) < mpf("1e-18")

    def test_derivatives_against_finite_differences(self):
        # High-precision central differences resolve 1e-20 relative easily.
        h = mpf("1e-12")
        cases = [(mpf("1.7"), mpf("0.45")), (pi, mpf("0.05")), (mpf("0.6"), mpf("0.5"))]
        for m, s in cases:
            k = propagator_kernel(m, s)
            up, dn = propagator_kernel(m, s + h), propagator_kernel(m, s - h)
            fd1 = (up.value - dn.value) / (2 * h)
            fd2 = (up.value - 2 * k.value + dn.value) / (h * h)
            assert abs(fd1 - k.first) < mpf("1e-20") * abs(k.first)
            assert abs(fd2 - k.second) < mpf("1e-20") * abs(k.second)

    def test_rejects_bad_arguments(self):
        with pytest.raises(NonPositiveSeparation):
            propagator_kernel(1, 0)
        with pytest.raises(ValueError):
            propagator_kernel(-1, 1)


class TestGeneratingFunction:
    """Summed kernel and its bulk limit."""

    def test_against_mode_sum(self):
        # Twice the half-weighted geometric sum of single-mode kernels.
        a, lam, s = mpf("1.1"), mpf("0.4"), mpf("0.3")
        f = generating_function(s, s, lam, a)
        acc_v = propagator_kernel(0, s).value / 2
        acc_1 = propagator_kernel(0, s).first / 2
        acc_2 = propagator_kernel(0, s).second / 2
        for n in range(1, 400):
            w = exp(lam * s * n * pi / a)
            k = propagator_kernel(n * pi / a, s)
            acc_v += w * k.value
            acc_1 += w * k.first
            acc_2 += w * k.second
        assert abs(f.value - 2 * acc_v / a) < mpf("1e-12") * abs(f.value)
        assert abs(f.first - 2 * acc_1 / a) < mpf("1e-12") * abs(f.first)
        assert abs(f.second - 2 * acc_2 / a) < mpf("1e-12") * abs(f.second)

    def test_geometric_series_identity(self):
        # 4 pi a s F = coth(c/2) = 2 * (1/2 + q + q^2 + ...) at q = e^{-c}.
        a, lam, s = mpf(1), mpf("0.25"), mpf("0.2")
        f = generating_function(s, s, lam, a)
        c = (1 - lam) * s * pi / a
        q = exp(-c)
        series = mpf(1) / 2 + sum(q**n for n in range(1, 2000))
        assert abs(4 * pi * a * s * f.value - 2 * series) < mpf("1e-12")

    def test_bulk_limit(self):
        s, lam = mpf("0.1"), mpf("0.3")
        big = generating_function(s, s, lam, mpf(1000))
        limit = bulk_kernel(s, s, lam)
        for name in ("value", "first", "second"):
            g, b = getattr(big, name), getattr(limit, name)
            assert abs(g - b) < mpf("1e-8") * abs(b)

    def test_small_splitting_expansion(self):
        # With w = s - lam s', F = 1/(2 pi^2 s w) + w/(24 a^2 s)
        # - w^3 pi^2/(1440 a^4 s) + O(w^5/s); at s' = s the second term
        # is (1 - lam)/(24 a^2), a constant, so the residual against
        # the first three terms falls off as s^4.
        lam, a = mpf("0.4"), mpf(1)
        errs = []
        for s in (mpf("0.01"), mpf("0.001")):
            w = (1 - lam) * s
            f = generating_function(s, s, lam, a).value
            model = (
                1 / (2 * pi**2 * s * w)
                + w / (24 * a**2 * s)
                - w**3 * pi**2 / (1440 * a**4 * s)
            )
            errs.append(abs(f - model))
        assert errs[1] / errs[0] < mpf("1e-3")

    def test_kernels_keep_their_digits_as_lambda_nears_one(self):
        # s - lambda s' at s' = s is (1 - lambda) s: formed as that
        # difference it loses up to 1e-12 relative at 15 digits.
        rng = random.Random(23)
        with mp.workdps(15):
            for _ in range(100):
                s, a = mpf(rng.uniform(0.001, 2)), mpf(rng.uniform(0.1, 10))
                lam = mpf(rng.uniform(0.9, 0.9999))
                for kernel, args in ((generating_function, (s, s, lam, a)),
                                     (bulk_kernel, (s, s, lam))):
                    got = kernel(*args)
                    with mp.workdps(55):
                        exact = kernel(*args)
                        for name in ("value", "first", "second"):
                            err = abs(getattr(got, name) - getattr(exact, name))
                            assert err < mpf("1e-14") * abs(getattr(exact, name))

    def test_pole_and_domain_errors(self):
        with pytest.raises(CothPole):
            generating_function(mpf("0.1"), mpf("0.3"), mpf("0.5"), 1)
        with pytest.raises(CutoffDomain):
            generating_function(mpf("0.1"), mpf("0.1"), mpf("1.0"), 1)
        with pytest.raises(NonPositiveSeparation):
            generating_function(0, mpf("0.1"), 0, 1)
        # lambda must lie in [0, 1) for both kernels, as for the cutoff,
        # even where s - lambda s' stays positive.
        s = mpf("0.1")
        for lam in (mpf("-0.1"), mpf(1), mpf(2)):
            with pytest.raises(CutoffDomain):
                generating_function(s, s, lam, 1)
            with pytest.raises(CutoffDomain):
                bulk_kernel(s, s / 4, lam)

    def test_bulk_kernel_pole(self):
        with pytest.raises(CothPole):
            bulk_kernel(mpf("0.1"), mpf("0.25"), mpf("0.5"))

    # (s, s', lambda, a) of a point where both kernels are finite.
    KERNEL_ARGS = (mpf("0.1"), mpf("0.1"), mpf("0.3"), mpf(1))

    @pytest.mark.parametrize(
        "kernel, slot, value",
        [pytest.param(generating_function, slot, nan, id=f"generating_function-{name}-nan")
         for slot, name in enumerate(("s", "s_frozen", "lam", "a"))]
        + [pytest.param(bulk_kernel, slot, nan, id=f"bulk_kernel-{name}-nan")
           for slot, name in enumerate(("s", "s_frozen", "lam"))]
        + [pytest.param(generating_function, 3, inf, id="generating_function-a-inf"),
           pytest.param(generating_function, 0, inf, id="generating_function-s-inf"),
           pytest.param(bulk_kernel, 0, inf, id="bulk_kernel-s-inf")],
    )
    def test_kernels_never_return_nan(self, kernel, slot, value):
        # A NaN s, s', lambda or a, or an infinite plate separation or
        # splitting, is an error of the package, never a NaN or all-zero
        # kernel.
        args = list(self.KERNEL_ARGS[: 4 if kernel is generating_function else 3])
        args[slot] = value
        with pytest.raises(CasimirError):
            kernel(*args)


class TestDerivativeStructure:
    """Radial chain rule and the assembled derivative operator."""

    def test_quadratic_kernel(self):
        # f = s^2 has Hessian 2 h^{mu nu} exactly.
        eps = spacelike(mpf("0.05"), mpf("0.2"), mpf("0.1"))
        s = eps.length
        hess = second_derivative_tensor(RadialKernel(s, s * s, 2 * s, mpf(2)), eps)
        for i in range(DIM):
            for j in range(DIM):
                expected = (-2 if i == 0 else 2) if (i == j and i < 3) else 0
                assert abs(hess[i, j] - expected) < mpf("1e-44")

    def test_linear_kernel(self):
        # f = s: h^{mu nu}/s - eps^mu eps^nu / s^3.
        eps = spacelike(mpf("0.1"), mpf("0.3"), mpf("-0.2"))
        s = eps.length
        hess = second_derivative_tensor(RadialKernel(s, s, mpf(1), mpf(0)), eps)
        comps = eps.vector
        hdiag = (-1, 1, 1, 0)
        for i in range(DIM):
            for j in range(DIM):
                h = hdiag[i] if i == j else 0
                expected = h / s - comps[i] * comps[j] / s**3
                assert abs(hess[i, j] - expected) < mpf("1e-44")

    def test_against_finite_differences(self):
        # Vary the contravariant components of the splitting and map the
        # lower-index finite-difference Hessian to upper indices.
        lam, a = mpf("0.4"), mpf(1)
        base = (mpf("0.05"), mpf("0.2"), mpf("0.1"))
        s0 = spacelike(*base).length

        def f(t, x, y):
            s = spacelike(t, x, y).length
            return generating_function(s, s0, lam, a).value

        kernel = generating_function(s0, s0, lam, a)
        hess = second_derivative_tensor(kernel, spacelike(*base))
        h = mpf("1e-12")
        sign = (-1, 1, 1)
        for i in range(3):
            for j in range(3):
                if i == j:
                    args_up = list(base)
                    args_dn = list(base)
                    args_up[i] += h
                    args_dn[i] -= h
                    fd = (f(*args_up) - 2 * f(*base) + f(*args_dn)) / (h * h)
                else:
                    vals = []
                    for si, sj in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                        args = list(base)
                        args[i] += si * h
                        args[j] += sj * h
                        vals.append(f(*args))
                    fd = (vals[0] - vals[1] - vals[2] + vals[3]) / (4 * h * h)
                expected = sign[i] * sign[j] * fd
                assert abs(hess[i, j] - expected) < mpf("1e-12") * abs(expected)

    def test_z_rows_vanish(self):
        eps = spacelike(mpf("0.02"), mpf("0.15"), mpf("0.08"))
        kernel = propagator_kernel(mpf("2.0"), eps.length)
        hess = second_derivative_tensor(kernel, eps)
        for i in range(DIM):
            assert hess[i, 3] == 0

    def test_kernel_length_mismatch_rejected(self):
        eps = spacelike(0, mpf("0.2"), 0)
        with pytest.raises(InvalidMode, match="kernel evaluated at s = 0.3"):
            second_derivative_tensor(propagator_kernel(1, mpf("0.3")), eps)

    @pytest.mark.parametrize("route", [second_derivative_tensor, stress_from_kernel])
    def test_kernel_with_nan_s_rejected(self, route):
        # The kernel's s is compared with the splitting's length by a
        # positive test, which a NaN fails.
        eps = spacelike(0, mpf("0.1"), 0)
        with pytest.raises(InvalidMode, match="kernel evaluated at s = nan"):
            route(RadialKernel(nan, 1, 1, 1), eps)

    @pytest.mark.parametrize("route", [second_derivative_tensor, stress_from_kernel])
    @pytest.mark.parametrize("slots", [("first",), ("second",), ("value", "first", "second")],
                             ids=["first", "second", "all"])
    @pytest.mark.parametrize("bad", [nan, inf, -inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_kernel_rejected(self, route, slots, bad):
        # A kernel whose derivatives are not finite is a CothPole, where
        # the kernels' own infinities come from: never a NaN tensor or an
        # error outside the CasimirError family.
        eps = spacelike(0, mpf("0.1"), 0)
        kernel = propagator_kernel(1, eps.length)._replace(**dict.fromkeys(slots, bad))
        with pytest.raises(CothPole, match="must be finite"):
            route(kernel, eps)

    def test_splitting_outside_subspace_rejected(self):
        bad = SeparationVector(FourVector(0, mpf("0.1"), 0, mpf("0.05")))
        kernel = propagator_kernel(1, bad.length)
        with pytest.raises(InvalidMode, match="t-x-y subspace"):
            second_derivative_tensor(kernel, bad)

    def test_full_operator_zz_entry(self):
        # The zhat zhat term adds the contracted radial operator to the
        # otherwise empty zz slot.
        eps = spacelike(mpf("0.01"), mpf("0.12"), mpf("-0.07"))
        kernel = propagator_kernel(mpf("1.3"), eps.length)
        t = stress_from_kernel(kernel, eps)
        contracted = kernel.second + 2 * kernel.first / kernel.s
        assert abs(t[3, 3] - contracted) < mpf("1e-44")
        hess = second_derivative_tensor(kernel, eps)
        assert abs(t[0, 1] + hess[0, 1]) < mpf("1e-44")


class TestStructures:
    """The two traceless tensor structures."""

    def test_s1_trace_and_entries(self):
        # g/4 - zhat zhat: dyadic entries on the diagonal and exact zeros
        # off it, bit for bit at every precision.
        for dps in (15, 50, 200):
            with mp.workdps(dps):
                s1 = s1_structure()
                diag = (-mpf(1) / 4, mpf(1) / 4, mpf(1) / 4, -mpf(3) / 4)
                for i in range(DIM):
                    for j in range(DIM):
                        want = diag[i] if i == j else mpf(0)
                        assert s1[i, j]._mpf_ == want._mpf_, (dps, i, j)
                assert s1.trace() == 0

    def test_s2_traceless_and_normalized(self):
        rng = random.Random(31)
        for _ in range(10):
            d = random_spacelike(rng)
            s2 = s2_rows(d)
            assert abs(SymTensor4(s2).trace()) < mpf("1e-44")
            scaled = s2_rows(SeparationVector(scale(d.vector, 7)))
            diff = max(
                abs(s2[i][j] - scaled[i][j]) for i in range(DIM) for j in range(DIM)
            )
            assert diff < mpf("1e-44")

    def test_s2_axis_values(self):
        s2 = s2_rows(spacelike(0, 1, 0))
        assert s2[1][1] == -2
        assert s2[2][2] == 1
        assert s2[0][0] == -1
        assert s2[3][3] == 0


class TestEMStress:
    """Electromagnetic coefficients and assembled tensor."""

    def geometry(self, a=1):
        return PlateGeometry(a)

    def test_ideal_coefficients(self):
        d = em_stress(
            self.geometry(), CutoffParams(mpf("0.1"), 0), spacelike(0, mpf("0.1"), 0)
        )
        assert abs(d.A - pi**2 / 180) < STRESS_TOL
        assert abs(d.B_finite) < STRESS_TOL
        assert abs(d.B_divergent_eps2) < STRESS_TOL
        t = d.tensor()
        assert abs(t[3, 3] + pi**2 / 240) < STRESS_TOL
        assert abs(t[0, 0] + pi**2 / 720) < STRESS_TOL

    def test_zeta_anchor(self):
        # A at lambda = 0 is the lattice sum (1/2 pi^2 a^4) sum n^-4.
        a = mpf("1.3")
        d = em_stress(
            self.geometry(a), CutoffParams(mpf("0.1"), 0), spacelike(0, mpf("0.05"), 0)
        )
        assert abs(d.A - zeta(4) / (2 * pi**2 * a**4)) < STRESS_TOL

    def test_shape_dependent_coefficients(self):
        for lam in (mpf("0.25"), mpf("0.5"), mpf("0.75")):
            for a in (mpf(1), mpf("1.4")):
                d = em_stress(
                    self.geometry(a),
                    CutoffParams(mpf("0.1"), lam),
                    spacelike(0, mpf("0.07"), mpf("0.02")),
                )
                assert abs(d.A - (1 - lam) * pi**2 / (180 * a**4)) < STRESS_TOL
                assert abs(d.B_divergent_eps2 + lam / (24 * a**2)) < STRESS_TOL
                assert abs(
                    d.B_finite - lam * (lam**2 - 1) * pi**2 / (1440 * a**4)
                ) < STRESS_TOL

    def test_b_total_example(self):
        d = em_stress(
            self.geometry(), CutoffParams(mpf("0.1"), mpf("0.5")), spacelike(0, mpf("0.1"), 0)
        )
        total = d.B_divergent_eps2 / d.separation_length**2 + d.B_finite
        assert abs(total + mpf("2.0859035")) < mpf("1e-6")

    def test_coefficients_ignore_direction(self):
        rng = random.Random(57)
        cutoff = CutoffParams(mpf("0.1"), mpf("0.3"))
        ref = em_stress(self.geometry(), cutoff, spacelike(0, mpf("0.1"), 0))
        for _ in range(20):
            d = em_stress(self.geometry(), cutoff, random_spacelike(rng))
            assert abs(d.A - ref.A) < mpf("1e-44")
            assert abs(d.B_finite - ref.B_finite) < mpf("1e-44")
            assert abs(d.B_divergent_eps2 - ref.B_divergent_eps2) < mpf("1e-44")

    def test_trace_vanishes(self):
        rng = random.Random(73)
        for _ in range(50):
            a = mpf(rng.uniform(0.5, 2.0))
            lam = mpf(rng.uniform(0.0, 0.9))
            d = em_stress(
                self.geometry(a), CutoffParams(mpf("0.1"), lam), random_spacelike(rng)
            )
            assert abs(d.tensor().trace()) < STRESS_TOL

    def test_divergent_part_blows_up_as_splitting_shrinks(self):
        cutoff = CutoffParams(mpf("0.1"), mpf("0.5"))
        big = em_stress(self.geometry(), cutoff, spacelike(0, mpf("0.1"), 0))
        small = em_stress(self.geometry(), cutoff, spacelike(0, mpf("0.001"), 0))
        tb = big.tensor()[1, 1]
        ts = small.tensor()[1, 1]
        assert abs(ts) > mpf(9000) * abs(tb)

    def test_rejects_bad_splitting(self):
        from mpmath import sqrt

        geom = self.geometry()
        cutoff = CutoffParams(mpf("0.1"), 0)
        # Spacelike enough to construct, but inside the safety margin.
        t = sqrt(mpf("0.01") - mpf("1e-31"))
        with pytest.raises(LightlikeSeparation):
            em_stress(geom, cutoff, SeparationVector(FourVector(t, mpf("0.1"), 0, 0)))
        with pytest.raises(InvalidMode, match="t-x-y subspace"):
            em_stress(geom, cutoff, SeparationVector(FourVector(0, mpf("0.1"), 0, mpf("0.01"))))
        # A NaN square (-inf + inf) fails every comparison, and is rejected
        # even past SeparationVector's own check.
        nan_square = tuple.__new__(SeparationVector, (FourVector(inf, inf, 0, 0),))
        with pytest.raises(LightlikeSeparation, match="length nan"):
            em_stress(geom, cutoff, nan_square)

    def test_tiny_spatial_splitting_accepted(self):
        # The lightlike margin is relative to t^2 + x^2 + y^2, so a short
        # but plainly spacelike splitting is fine, and its coefficients
        # are the ones any other length gives.
        cutoff = CutoffParams(mpf("0.1"), mpf("0.3"))
        ref = em_stress(self.geometry(), cutoff, spacelike(0, mpf("0.1"), 0))
        d = em_stress(self.geometry(), cutoff, spacelike(0, mpf("1e-16"), 0))
        assert d.separation_length == mpf("1e-16")
        assert (d.A, d.B_finite, d.B_divergent_eps2) == (
            ref.A, ref.B_finite, ref.B_divergent_eps2
        )
        t = d.tensor()
        assert abs(t.trace()) < mpf("1e-45") * abs(t[1, 1])

    @pytest.mark.parametrize("x", [mpf("1e-16"), mpf("0.1"), mpf("1e10")])
    def test_near_lightlike_rejected_at_any_scale(self, x):
        eps = SeparationVector(FourVector(x * (1 - mpf("1e-45")), x, 0, 0))
        with pytest.raises(LightlikeSeparation):
            em_stress(self.geometry(), CutoffParams(mpf("0.1"), 0), eps)

    @pytest.mark.parametrize("dps", [15, 50, 200])
    def test_unit_direction_past_the_margin_is_spacelike(self, dps):
        # The unit direction is not checked again once the splitting has
        # passed the margin: its square then lies within about
        # 2^(-prec/2) of 1.  Splittings just past the margin, at many
        # scales and directions, are where that rounding is worst.
        from mpmath import cos, ldexp, sqrt

        rng = random.Random(dps)
        with mp.workdps(dps):
            tol = ldexp(mpf(1), -(mp.prec // 2))
            rsquare = casimir_cutoff.params._rsquare
            for _ in range(40):
                r = mpf(10) ** rng.randint(-20, 20)
                ang = mpf(rng.uniform(0, 7))
                # s^2 is f tol r^2 against a margin of about 2 tol r^2.
                for f, passes in ((mpf("2.5"), True), (mpf("1.5"), False)):
                    t = r * sqrt(1 - f * tol)
                    eps = spacelike(t, r * cos(ang), r * sin(ang))
                    if not passes:
                        with pytest.raises(LightlikeSeparation):
                            casimir_cutoff.stress._unit_splitting(eps.vector)
                        continue
                    unit, s = casimir_cutoff.stress._unit_splitting(eps.vector)
                    square = mp.make_mpf(rsquare(unit.vector, *mp._prec_rounding))
                    assert square > 0
                    assert abs(square - 1) < 4 * tol

    def test_kernel_length_compared_relatively(self):
        eps = spacelike(0, mpf("1e-16"), 0)
        s = eps.length
        second_derivative_tensor(propagator_kernel(1, s), eps)
        with pytest.raises(InvalidMode, match="kernel evaluated"):
            second_derivative_tensor(
                propagator_kernel(1, s * (1 + mpf("1e-20"))), eps
            )

    def test_tensor_is_one_pass_of_both_structures(self):
        # The assembly must equal scaling S1 and the dense S2 and adding
        # them entrywise, bit for bit, also where it skips exact zeros.
        rng = random.Random(19)
        geom = self.geometry(mpf("1.2"))
        for field in FieldKind:
            for _ in range(5):
                cutoff = CutoffParams(mpf("0.1"), mpf(rng.uniform(0, 0.9)))
                for eps in with_zeros(random_spacelike(rng)):
                    if field is FieldKind.SCALAR:
                        d = scalar_stress(geom, cutoff, eps, mpf("0.37"))
                    else:
                        d = em_stress(geom, cutoff, eps)
                    b = d.B_divergent_eps2 / d.separation_length**2 + d.B_finite
                    s1, s2 = s1_structure().scale(d.A), dense_s2(d.direction)
                    two_step = tuple(
                        tuple(s1[i, j] + b * s2[i][j] for j in range(DIM)) for i in range(DIM)
                    )
                    assert d.tensor().matrix == two_step


class TestScalarStress:
    """Wall-pinned field coefficients, both construction routes."""

    def test_lambda_zero_is_uniform(self):
        geom = PlateGeometry(1)
        cutoff = CutoffParams(mpf("0.1"), 0)
        eps = spacelike(0, mpf("0.05"), 0)
        for z in (mpf("0.1"), mpf("0.5"), mpf("0.9")):
            d = scalar_stress(geom, cutoff, eps, z)
            assert abs(d.A - pi**2 / 360) < STRESS_TOL
            assert abs(d.B_finite) < STRESS_TOL
            assert abs(d.B_divergent_eps2) < STRESS_TOL

    def test_braces_at_midpoint(self):
        # At z = a/2 the braces collapse to 200 + 7 pi^2 / 40 for
        # eps = 0.1: the divergent part contributes 100*(3 - 1) and the
        # finite part (pi^2/4)(3/4)(1 - 1/15).
        lam = mpf("0.5")
        d = scalar_stress(
            PlateGeometry(1), CutoffParams(mpf("0.1"), lam), spacelike(0, mpf("0.1"), 0),
            mpf("0.5"),
        )
        braces = (d.B_divergent_eps2 / d.separation_length**2 + d.B_finite) * 48 / lam
        target = 200 + 7 * pi**2 / 40
        assert abs(braces - target) < mpf("1e-6") * target
        assert abs(braces - mpf("201.7272")) < mpf("1e-3")

    def test_mode_assembly_agrees_with_closed_form(self):
        for dps in (50, 200):
            mp.dps = dps
            tol = mpf(10) ** (22 - dps)  # STRESS_TOL at 50 digits
            geom = PlateGeometry(1)
            eps = spacelike(0, mpf("0.05"), 0)
            for lam in (mpf(0), mpf("0.3"), mpf("0.7")):
                for z in (mpf("0.2"), mpf("0.5"), mpf("0.77")):
                    closed = scalar_stress(geom, CutoffParams(mpf("0.1"), lam), eps, z)
                    a_coeff, b_div, b_fin = _scalar_mode_assembly(geom.a, lam, z)
                    assert abs(closed.A - a_coeff) < tol
                    assert abs(closed.B_finite - b_fin) < tol
                    assert abs(closed.B_divergent_eps2 - b_div) < tol

    def test_wall_contact(self):
        geom = PlateGeometry(1)
        cutoff = CutoffParams(mpf("0.1"), mpf("0.5"))
        eps = spacelike(0, mpf("0.05"), 0)
        for z in (0, 1, mpf("-0.3"), mpf("1.7")):
            with pytest.raises(WallContact):
                scalar_stress(geom, cutoff, eps, z)

    def test_divergence_toward_walls(self):
        geom = PlateGeometry(1)
        cutoff = CutoffParams(mpf("0.1"), mpf("0.5"))
        eps = spacelike(0, mpf("0.05"), 0)
        mid = scalar_stress(geom, cutoff, eps, mpf("0.5"))
        near = scalar_stress(geom, cutoff, eps, mpf("0.01"))
        assert near.B_divergent_eps2 > 100 * mid.B_divergent_eps2
        assert near.B_finite > 10000 * abs(mid.B_finite)

    def test_trace_vanishes(self):
        rng = random.Random(91)
        geom = PlateGeometry(1)
        for _ in range(20):
            lam = mpf(rng.uniform(0, 0.9))
            z = mpf(rng.uniform(0.05, 0.95))
            d = scalar_stress(
                geom, CutoffParams(mpf("0.1"), lam), random_spacelike(rng), z
            )
            assert abs(d.tensor().trace()) < STRESS_TOL


class TestCovariance:
    """Transformation law under the plate-preserving Lorentz group."""

    def test_random_transforms(self):
        rng = random.Random(7)
        geom = PlateGeometry(1)
        cutoff = CutoffParams(mpf("0.1"), mpf("0.4"))
        splits = with_zeros(spacelike(mpf("0.02"), mpf("0.1"), mpf("-0.04")))
        for _ in range(20):
            ell = rotation_xy(mpf(rng.uniform(0, 6.28))).compose(
                boost(mpf(rng.uniform(-2, 2)))
            )
            for eps in splits:
                r_em = covariance_check(FieldKind.ELECTROMAGNETIC, geom, cutoff, eps, ell)
                r_sc = covariance_check(
                    FieldKind.SCALAR, geom, cutoff, eps, ell, z=mpf("0.3")
                )
                assert r_em < mpf("1e-25")
                assert r_sc < mpf("1e-25")

    @pytest.mark.parametrize("dps", [15, 30, 200])
    def test_residual_is_rounding_at_every_precision(self, dps):
        # Relative to the largest entry of the stress, the residual over
        # 300 random trials per precision (rapidity <= 2, both fields)
        # was at most 450 * 10^-dps at 15, 30, 50 and 200 digits.
        rng = random.Random(dps)
        with mp.workdps(dps):
            geom = PlateGeometry(mpf("1.2"))
            cutoff = CutoffParams(mpf("0.1"), mpf("0.4"))
            for _ in range(10):
                eps = random_spacelike(rng)
                ell = rotation_xy(mpf(rng.uniform(0, 6.28))).compose(
                    boost(mpf(rng.uniform(-2, 2)))
                )
                for split, (field, z) in product(
                    with_zeros(eps),
                    ((FieldKind.ELECTROMAGNETIC, None), (FieldKind.SCALAR, mpf("0.3"))),
                ):
                    r = covariance_check(field, geom, cutoff, split, ell, z)
                    t = _stress_for(field, geom.a, cutoff.lam, split, z).tensor()
                    largest = max(abs(e) for row in t.matrix for e in row)
                    assert r < mpf(10) ** (3 - dps) * largest

    def test_identity_transform_is_exact(self):
        geom = PlateGeometry(1)
        cutoff = CutoffParams(mpf("0.1"), 0)
        eps = spacelike(0, mpf("0.1"), 0)
        r = covariance_check(FieldKind.ELECTROMAGNETIC, geom, cutoff, eps, boost(0))
        assert r < mpf("1e-44")

    def test_one_radial_series_per_trial(self, monkeypatch):
        # The coefficients do not depend on the splitting, so the back-
        # transformed splitting reuses the decomposition of the original.
        builds = []
        original = casimir_cutoff.stress._em_coefficients

        def counted(*args, **kwargs):
            builds.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(casimir_cutoff.stress, "_em_coefficients", counted)
        ell = rotation_xy(mpf("0.7")).compose(boost(mpf("1.3")))
        r = covariance_check(
            FieldKind.ELECTROMAGNETIC, PlateGeometry(1), CutoffParams(mpf("0.1"), mpf("0.4")),
            spacelike(mpf("0.02"), mpf("0.1"), mpf("-0.04")), ell,
        )
        assert len(builds) == 1
        assert r < mpf("1e-25")

    def test_scalar_requires_height(self):
        # Both entry points refuse a missing height with the same error:
        # scalar_stress given None, and covariance_check by its default.
        geom, cutoff = PlateGeometry(1), CutoffParams(mpf("0.1"), 0)
        eps = spacelike(0, mpf("0.1"), 0)
        with pytest.raises(ValueError, match="^scalar stress requires a z position$"):
            scalar_stress(geom, cutoff, eps, None)
        with pytest.raises(ValueError, match="^scalar stress requires a z position$"):
            covariance_check(FieldKind.SCALAR, geom, cutoff, eps, boost(mpf("0.5")))

    @pytest.mark.parametrize("field", ["em", "scalar", None])
    def test_field_must_be_a_field_kind(self, monkeypatch, field):
        # Rejected at entry, as the mode sum and the expansion reject it:
        # no splitting is taken apart and no coefficient formed.
        def no_work(*args):
            raise AssertionError("work done before the field was checked")

        for name in ("_unit_splitting", "_em_coefficients", "_scalar_coefficients"):
            monkeypatch.setattr(casimir_cutoff.stress, name, no_work)
        geom, cutoff = PlateGeometry(1), CutoffParams(mpf("0.1"), mpf("0.4"))
        eps = spacelike(0, mpf("0.1"), 0)
        for z in (None, mpf("0.5")):
            with pytest.raises(InvalidMode, match="unknown field kind"):
                covariance_check(field, geom, cutoff, eps, boost(mpf("0.5")), z)

    def test_builds_no_inverse_transform(self, monkeypatch):
        # The splitting is moved back by g L^T g directly: no second
        # transform is built, so no second metric check is made.
        def no_check(*args):
            raise AssertionError("covariance_check built a checked transform")

        rng = random.Random(5)
        geom, cutoff = PlateGeometry(mpf("1.2")), CutoffParams(mpf("0.1"), mpf("0.4"))
        # Every transform is built, and checked, before the check is
        # patched out.
        cases = [
            (
                rotation_xy(mpf(rng.uniform(0, 6.28))).compose(boost(mpf(rng.uniform(-2, 2)))),
                random_spacelike(rng),
            )
            for _ in range(5)
        ]
        monkeypatch.setattr(casimir_cutoff.minkowski, "_check_metric", no_check)
        for ell, split in cases:
            for eps, (field, z) in product(
                with_zeros(split),
                ((FieldKind.ELECTROMAGNETIC, None), (FieldKind.SCALAR, mpf("0.3"))),
            ):
                assert covariance_check(field, geom, cutoff, eps, ell, z) < STRESS_TOL

    def test_transform_mixing_z_keeps_its_errors(self):
        # A transform that does not preserve the plates moves the splitting
        # off the t-x-y subspace: InvalidMode, as for a caller's splitting
        # with a z component.  At rapidity 22 along z, 15 digits
        # cannot hold the moved splitting's square, which cancels to 0: a
        # LightlikeSeparation, as a caller's non-spacelike vector gets.
        def boost_z(r):
            ch, sh, o, z = cosh(r), sinh(r), mpf(1), mpf(0)
            return LorentzTransform(((ch, z, z, sh), (z, o, z, z), (z, z, o, z), (sh, z, z, ch)))

        c, s, o, z = cos(mpf("0.3")), sin(mpf("0.3")), mpf(1), mpf(0)
        rotation_xz = LorentzTransform(((o, z, z, z), (z, c, z, -s), (z, z, o, z), (z, s, z, c)))
        geom, cutoff = PlateGeometry(1), CutoffParams(mpf("0.1"), mpf("0.4"))
        with mp.workdps(15):
            eps = spacelike(mpf("0.01"), mpf("0.1"), mpf("0.02"))
            for field, z in ((FieldKind.ELECTROMAGNETIC, None), (FieldKind.SCALAR, mpf("0.3"))):
                for ell, error in (
                    (rotation_xz, InvalidMode),
                    (boost_z(mpf("0.5")), InvalidMode),
                    (boost_z(22), LightlikeSeparation),
                ):
                    with pytest.raises(Exception) as caught:
                        covariance_check(field, geom, cutoff, eps, ell, z)
                    assert caught.type is error


class TestAngularAverage:
    """Direction-averaged stress."""

    def test_em_average_matches_anchor(self):
        rng = random.Random(3)
        for lam in (mpf(0), mpf("0.25"), mpf("0.5"), mpf("0.75")):
            d = em_stress(
                PlateGeometry(1), CutoffParams(mpf("0.1"), lam), random_spacelike(rng)
            )
            avg = angular_average(d)
            anchor = s1_structure().scale((1 - lam) * pi**2 / 180)
            diff = max(
                abs(avg[i, j] - anchor[i, j]) for i in range(DIM) for j in range(DIM)
            )
            assert diff < STRESS_TOL

    def test_average_kills_divergent_structure(self):
        # The averaged tensor is finite and direction-free even though
        # the unaveraged one carries a 1/s^2 structure at nonzero lambda.
        rng = random.Random(5)
        cutoff = CutoffParams(mpf("0.1"), mpf("0.8"))
        d1 = em_stress(PlateGeometry(1), cutoff, random_spacelike(rng))
        d2 = em_stress(PlateGeometry(1), cutoff, random_spacelike(rng, mpf("0.001")))
        a1, a2 = angular_average(d1), angular_average(d2)
        diff = max(abs(a1[i, j] - a2[i, j]) for i in range(DIM) for j in range(DIM))
        assert diff < STRESS_TOL

    def test_scalar_average_is_half_em(self):
        eps = spacelike(0, mpf("0.08"), mpf("0.03"))
        for lam in (mpf(0), mpf("0.5")):
            cutoff = CutoffParams(mpf("0.1"), lam)
            em = angular_average(em_stress(PlateGeometry(1), cutoff, eps))
            sc = angular_average(
                scalar_stress(PlateGeometry(1), cutoff, eps, mpf("0.4"))
            )
            diff = max(
                abs(sc[i, j] - em[i, j] / 2) for i in range(DIM) for j in range(DIM)
            )
            assert diff < STRESS_TOL

    def test_average_trace(self):
        d = em_stress(
            PlateGeometry(1), CutoffParams(mpf("0.1"), mpf("0.6")),
            spacelike(0, mpf("0.1"), 0),
        )
        assert abs(angular_average(d).trace()) < STRESS_TOL
