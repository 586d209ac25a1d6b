"""Cutoff-regularized Casimir vacuum energy and stress between parallel plates.

The package computes the vacuum energy per unit plate area and the
point-split vacuum stress tensor for the electromagnetic field between
perfect conductors (and the wall-vanishing scalar analogue) under a
two-parameter exponential regulator, at extended precision.  The
headline physics: the finite Casimir observables pick up terms that
depend on the regulator's shape parameter, and the package exposes both
the finite and the regulator-shaped divergent coefficients explicitly.
"""

from .precision import DEFAULT_DPS, ENV_VAR, resolve_precision
from .errors import (
    CasimirError,
    CothPole,
    CutoffDomain,
    DivisionByZeroSeries,
    InvalidMode,
    LightlikeSeparation,
    NonPositiveEpsilon,
    NonPositiveSeparation,
    NotConverged,
    OutOfRange,
    SingularComposition,
    WallContact,
    ZeroScale,
)
from .minkowski import (
    FourVector,
    LorentzTransform,
    SeparationVector,
    SymTensor4,
    boost,
    mink_dot,
    rotation_xy,
    transform_tensor,
)
from .laurent import (
    LaurentSeries,
    evaluate,
    extract_coefficient,
    from_terms,
    monomial,
    series_add,
    series_coth,
    series_differentiate,
    series_div,
    series_exp,
    series_mul,
    series_scale_arg,
    series_sub,
    shift_scale,
)
from .modesum import (
    CutoffParams,
    FieldKind,
    ModeIndex,
    ModeSumResult,
    PlateGeometry,
    check_boundary_conditions,
    eigenmode,
    energy_closed_form,
    energy_mode_sum,
    transverse_integral,
)
from .expansion import (
    EnergyExpansion,
    PressureResult,
    ReferenceCoefficients,
    casimir_pressure,
    energy_laurent,
    pressure_from_energy,
    reference_coefficients,
    subtract_outer,
)
from .stress import (
    RadialKernel,
    StressDecomposition,
    angular_average,
    bulk_kernel,
    covariance_check,
    em_stress,
    generating_function,
    propagator_kernel,
    scalar_stress,
    second_derivative_tensor,
    s1_structure,
    stress_from_kernel,
)

__version__ = "0.1.0"
