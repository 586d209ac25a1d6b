"""Start-up loads only what is used.

``casimir_cutoff`` imports its exports on first access, and each CLI
subcommand imports the layers past parsing only when its grid runs.
The subprocess tests read ``sys.modules`` in a fresh interpreter; the
in-process tests check that every export still resolves.  No start loads
``dataclasses``: the value types are namedtuples.  Only the Laurent
window routes load ``laurent``; no CLI start builds a window.  Parsing
needs only the value types of ``params``, the splitting vector included:
``modesum`` loads only for ``energy-sum`` and holds only the mode sum,
only the starts that assemble a stress tensor (``stress``,
``covariance``, ``scan``) load the Lorentz algebra of ``minkowski``, and
no CLI start loads ``pointwise``, which holds the cross-check routes.
"""

import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import casimir_cutoff
from casimir_cutoff.cli import COMMANDS

SRC = Path(casimir_cutoff.__file__).parents[1]

# (defining module, name) for every name the package exports, in order.
EXPORTS = [
    ("precision", "DEFAULT_DPS"), ("precision", "ENV_VAR"),
    ("precision", "resolve_precision"),
    ("errors", "CasimirError"), ("errors", "CothPole"), ("errors", "CutoffDomain"),
    ("errors", "InvalidMode"), ("errors", "LightlikeSeparation"),
    ("errors", "NonPositiveSeparation"), ("errors", "NotConverged"),
    ("errors", "OutOfRange"), ("errors", "WallContact"),
    ("minkowski", "LorentzTransform"), ("minkowski", "SymTensor4"),
    ("minkowski", "boost"), ("minkowski", "rotation_xy"),
    ("minkowski", "transform_tensor"),
    ("params", "CutoffParams"), ("params", "FieldKind"), ("params", "FourVector"),
    ("params", "PlateGeometry"), ("params", "SeparationVector"),
    ("laurent", "LaurentSeries"), ("laurent", "extract_coefficient"),
    ("modesum", "ModeSumResult"), ("modesum", "energy_mode_sum"),
    ("expansion", "EnergyExpansion"), ("expansion", "PressureResult"),
    ("expansion", "ReferenceCoefficients"), ("expansion", "casimir_pressure"),
    ("expansion", "energy_laurent"), ("expansion", "reference_coefficients"),
    ("expansion", "subtract_outer"),
    ("stress", "StressDecomposition"), ("stress", "angular_average"),
    ("stress", "covariance_check"), ("stress", "em_stress"),
    ("stress", "scalar_stress"), ("stress", "s1_structure"),
    ("pointwise", "RadialKernel"), ("pointwise", "bulk_kernel"),
    ("pointwise", "generating_function"), ("pointwise", "second_derivative_tensor"),
    ("pointwise", "stress_from_kernel"), ("pointwise", "ModeIndex"),
    ("pointwise", "check_boundary_conditions"), ("pointwise", "eigenmode"),
    ("pointwise", "energy_closed_form"),
]
# modesum and minkowski still bind the value types they used to define:
# the benchmark and the tests import them from there.
REBOUND = [
    ("modesum", "CutoffParams"), ("modesum", "FieldKind"), ("modesum", "PlateGeometry"),
    ("minkowski", "FourVector"), ("minkowski", "SeparationVector"),
]
# The cross-check routes that left modesum for pointwise.
MOVED = ("ModeIndex", "check_boundary_conditions", "eigenmode", "energy_closed_form")

# Prints the package modules loaded by the code in argv[1], run with
# argv[2:]; the code may add other top-level modules to ``watch``.
PROBE = """
import sys
code, watch = 0, ("casimir_cutoff",)
exec(sys.argv[1])
print(" ".join(sorted(m for m in sys.modules if m.partition(".")[0] in watch)))
sys.exit(code)
"""
RUN_CLI = "from casimir_cutoff.cli import main; code = main(sys.argv[2:])"
# The modules past parsing; parse_args alone loads none of them.
LAYERS = ("modesum", "expansion", "stress", "laurent", "pointwise", "minkowski")
# dataclasses costs ~11 ms a start and pulls in inspect, ast, dis and
# tokenize; the value types are namedtuples, so no layer needs either.
WATCH_DATACLASSES = 'watch += ("dataclasses", "inspect")'


def run_probe(code: str, *argv: str) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k != "CASIMIR_PRECISION"}
    env["PYTHONPATH"] = str(SRC)
    return subprocess.run(
        [sys.executable, "-c", PROBE, code, *argv],
        env=env, capture_output=True, text=True, timeout=60,
    )


def loaded_modules(code: str, *argv: str) -> set[str]:
    done = run_probe(code, *argv)
    assert done.returncode == 0, done.stderr
    return set(done.stdout.splitlines()[-1].split())


def test_bare_import_loads_no_module():
    assert loaded_modules("import casimir_cutoff") == {"casimir_cutoff"}


@pytest.mark.parametrize("argv", [
    ("energy-sum", "--a", "1", "--epsilon", "0.1:0.3:3"),
    ("energy-expansion", "--a", "1", "--lambda", "0:0.5:2"),
    ("pressure", "--a", "1", "--field", "scalar"),
    ("stress", "--a", "0.5:2:3", "--field", "scalar", "--z", "0.25"),
    ("covariance", "--a", "1", "--eps-vec=0.01,0.1,0.02,0", "--trials", "2"),
    ("scan", "--a", "0.5:2:3"),
], ids=lambda argv: argv[0])
def test_parse_args_loads_no_layer(argv):
    # What the benchmark's setup probe runs: import and parse, no grid.
    loaded = loaded_modules(
        "from casimir_cutoff.cli import parse_args; parse_args(sys.argv[2:])", *argv
    )
    assert "casimir_cutoff.params" in loaded
    assert not loaded & {f"casimir_cutoff.{m}" for m in LAYERS}


def test_only_energy_sum_loads_modesum(loaded_by_command):
    assert [c for c, loaded in loaded_by_command.items()
            if "casimir_cutoff.modesum" in loaded] == ["energy-sum"]


def test_only_stress_starts_load_minkowski(loaded_by_command):
    # The energy starts validate --eps-vec in params and never move a tensor.
    assert [c for c, loaded in loaded_by_command.items()
            if "casimir_cutoff.minkowski" in loaded] == ["stress", "covariance", "scan"]


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("split", ["0.1,0.1,0,0", "0,nan,0,0"], ids=["lightlike", "nan"])
def test_bad_splitting_exits_one_without_minkowski(command, split):
    # Every start validates the splitting while parsing, before any
    # layer loads, and reports it as a usage error.
    done = run_probe(RUN_CLI, command, f"--eps-vec={split}")
    assert done.returncode == 1
    assert done.stderr.startswith("error: --eps-vec: ")
    rows, loaded = done.stdout.splitlines()[:-1], set(done.stdout.splitlines()[-1].split())
    assert rows == []
    assert "casimir_cutoff.params" in loaded
    assert not loaded & {f"casimir_cutoff.{m}" for m in LAYERS}


def test_no_start_loads_pointwise(loaded_by_command):
    assert not any("casimir_cutoff.pointwise" in v for v in loaded_by_command.values())


def test_energy_sum_loads_only_the_mode_sum():
    # Exits nonzero if the modesum it ran defines any cross-check route.
    check = (f"{RUN_CLI}; modesum = sys.modules['casimir_cutoff.modesum']; "
             f"code = code or any(hasattr(modesum, n) for n in {MOVED!r})")
    loaded = loaded_modules(check, "energy-sum", "--a", "1")
    assert "casimir_cutoff.modesum" in loaded
    assert "casimir_cutoff.pointwise" not in loaded


def test_energy_sum_skips_the_expansion_layers():
    loaded = loaded_modules(RUN_CLI, "energy-sum", "--a", "1")
    assert "casimir_cutoff.modesum" in loaded
    assert not loaded & {
        "casimir_cutoff.expansion", "casimir_cutoff.laurent", "casimir_cutoff.stress"
    }


@pytest.mark.parametrize("command", ["energy-expansion", "pressure"])
def test_energy_routes_skip_stress(command):
    loaded = loaded_modules(RUN_CLI, command, "--a", "1")
    assert "casimir_cutoff.expansion" in loaded
    assert not loaded & {"casimir_cutoff.laurent", "casimir_cutoff.stress"}


@pytest.mark.parametrize("command", ["scan", "stress", "covariance"])
def test_stress_routes_skip_laurent(command):
    # They read coefficients from expansion but never build a Laurent
    # window, so the series container is not loaded.
    loaded = loaded_modules(RUN_CLI, command, "--a", "1")
    assert "casimir_cutoff.expansion" in loaded
    assert "casimir_cutoff.laurent" not in loaded


@pytest.fixture(scope="module")
def loaded_by_command() -> dict[str, set[str]]:
    return {c: loaded_modules(RUN_CLI, c, "--a", "1", "--trials", "2") for c in COMMANDS}


@pytest.fixture(scope="module")
def site_loaded() -> set[str]:
    # The watched modules this interpreter's own start-up loads.
    return loaded_modules(WATCH_DATACLASSES)


@pytest.mark.parametrize("command", COMMANDS)
def test_no_start_loads_dataclasses(command, site_loaded):
    loaded = loaded_modules(
        f"{WATCH_DATACLASSES}; {RUN_CLI}", command, "--a", "1", "--trials", "2"
    )
    assert "casimir_cutoff.cli" in loaded
    assert not (loaded - site_loaded) & {"dataclasses", "inspect"}


def test_all_is_the_pinned_export_list():
    assert casimir_cutoff.__all__ == [name for _, name in EXPORTS]


@pytest.mark.parametrize("module, name", EXPORTS + REBOUND, ids=lambda x: x)
def test_export_resolves_to_its_definition(module, name):
    defined = getattr(import_module(f"casimir_cutoff.{module}"), name)
    assert getattr(casimir_cutoff, name) is defined
    assert name in dir(casimir_cutoff)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        casimir_cutoff.no_such_name
