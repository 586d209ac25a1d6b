"""Cutoff-regularized Casimir vacuum energy and stress between parallel plates.

The package computes the vacuum energy per unit plate area and the
point-split vacuum stress tensor for the electromagnetic field between
perfect conductors (and the wall-vanishing scalar analogue) under a
two-parameter exponential regulator, at extended precision.  The
headline physics: the finite Casimir observables pick up terms that
depend on the regulator's shape parameter, and the package exposes both
the finite and the regulator-shaped divergent coefficients explicitly.

Every exported name is imported from its module on first access
(PEP 562), so ``import casimir_cutoff`` loads none of the modules and a
CLI subcommand loads only the ones it calls.
"""

from importlib import import_module

# Defining module -> the names the package exports from it.
_EXPORTS = {
    "precision": ("DEFAULT_DPS", "ENV_VAR", "resolve_precision"),
    "errors": (
        "CasimirError", "CothPole", "CutoffDomain", "InvalidMode",
        "LightlikeSeparation", "NonPositiveSeparation",
        "NotConverged", "OutOfRange", "WallContact",
    ),
    "minkowski": ("LorentzTransform", "SymTensor4", "boost", "rotation_xy", "transform_tensor"),
    "params": (
        "CutoffParams", "FieldKind", "FourVector", "PlateGeometry", "SeparationVector",
    ),
    "laurent": ("LaurentSeries", "extract_coefficient"),
    "modesum": ("ModeSumResult", "energy_mode_sum"),
    "expansion": (
        "EnergyExpansion", "PressureResult", "ReferenceCoefficients",
        "casimir_pressure", "energy_laurent", "reference_coefficients",
        "subtract_outer",
    ),
    "stress": (
        "StressDecomposition", "angular_average", "covariance_check", "em_stress",
        "scalar_stress", "s1_structure",
    ),
    "pointwise": (
        "RadialKernel", "bulk_kernel", "generating_function",
        "second_derivative_tensor", "stress_from_kernel",
        "ModeIndex", "check_boundary_conditions", "eigenmode", "energy_closed_form",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip __getattr__
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
