"""Command-line front end: parameter scans and machine-readable reports.

Every command takes the same flags, before or after its name, and
reads the ones it needs.  Each command sweeps a grid built from its
range flags (grammar ``start:stop:count``, endpoints inclusive, or a
single value) and emits one row per grid point with a fixed column
schema, as CSV or JSON.  Numeric fields are printed with enough digits
to re-parse to the same extended-precision value.

The digit count (--precision, CASIMIR_PRECISION or 50) applies only
inside parse_args and run; the caller's precision is left as it was.

Exit codes: 0 success; 1 usage error, a NaN value, a --rapidity beyond
the double range or an --output that cannot be written included; 2 a
grid point hit a domain error (its computed fields are left empty and
the sweep continues, since sweeps legitimately approach singular
corners like z -> 0); 3 a grid point failed to converge.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import random
import sys
from itertools import product
from pathlib import Path

from mpmath import isfinite, isnan, mp, mpf

from .errors import CasimirError, LightlikeSeparation, NotConverged
from .params import CutoffParams, FieldKind, FourVector, PlateGeometry, SeparationVector
from .precision import ENV_VAR, resolve_precision, to_mpf, value_type

# parse_args needs only the modules above: the value types and the
# splitting's check are in params, so no parse loads minkowski.  Each
# grid generator imports the further layers it calls, so a subcommand
# loads only what it uses.


class UsageError(Exception):
    """Bad flags or values; maps to exit code 1."""


class ScanConfig(
    value_type(
        "ScanConfig",
        "command a_values lam_values eps_values z_values split field n_max"
        " out_format output seed rapidity trials precision",
    )
):
    """Validated run description, with all numbers at final precision."""

    __slots__ = ()


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on its own; route everything through
    # UsageError so the documented usage code (1) is the only one.
    def error(self, message):
        raise UsageError(message)


def _fmt(x) -> str:
    return mp.nstr(to_mpf(x), max(30, mp.dps - 10))


def _parse_number(text: str, flag: str) -> mpf:
    try:
        x = to_mpf(text.strip())
    except Exception as exc:
        raise UsageError(f"{flag}: cannot parse number {text!r}") from exc
    if isnan(x):
        raise UsageError(f"{flag}: {text!r} is not a number")
    return x


def _parse_range(text: str, flag: str) -> tuple[mpf, ...]:
    """start:stop:count with inclusive endpoints, or a single value."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise UsageError(f"{flag}: range must be start:stop:count")
        start = _parse_number(parts[0], flag)
        stop = _parse_number(parts[1], flag)
        try:
            count = int(parts[2])
        except ValueError as exc:
            raise UsageError(f"{flag}: count must be an integer") from exc
        if count < 1:
            raise UsageError(f"{flag}: count must be >= 1")
        step = (stop - start) / max(count - 1, 1)
        points = [start] + [start + i * step for i in range(1, count)]
        if count > 1 and not isfinite(step):
            # start + 0 * inf and -inf + inf are NaN: the range ends on stop
            # itself.  A finite step keeps start + i * step, rounding included.
            points[-1] = stop
        return tuple(points)
    return (_parse_number(text, flag),)


def _parse_eps_vec(text: str) -> SeparationVector:
    parts = text.split(",")
    if len(parts) != 4:
        raise UsageError("--eps-vec expects four comma-separated components t,x,y,z")
    comps = tuple(_parse_number(p, "--eps-vec") for p in parts)
    if comps[3] != 0:
        raise UsageError("--eps-vec: z component must be 0 (splitting lies in t-x-y)")
    try:
        return SeparationVector(FourVector(*comps))
    except LightlikeSeparation as exc:
        raise UsageError(f"--eps-vec: {exc}") from exc


def _build_parser() -> _Parser:
    # One flag table serves every command; each reads the flags it needs.
    p = _Parser(prog="casimir-cutoff", description=__doc__)
    p.add_argument("command", choices=COMMANDS, metavar="command",
                   help="one of %(choices)s")
    p.add_argument("--a", default="1", help="plate separation (value or range)")
    p.add_argument("--lambda", dest="lam", default="0",
                   help="regulator shape in [0,1) (value or range)")
    p.add_argument("--epsilon", default="0.1", help="cutoff scale (value or range)")
    p.add_argument("--z", default=None, help="height between the walls (value or range)")
    p.add_argument("--eps-vec", dest="eps_vec", default="0,0.1,0,0",
                   help="splitting vector t,x,y,z with z = 0")
    p.add_argument("--field", choices=["em", "scalar"], default="em")
    p.add_argument("--n-max", dest="n_max", type=int, default=None,
                   help="fixed mode count (default: extend until converged)")
    p.add_argument("--precision", type=int, default=None,
                   help="working digits (default: CASIMIR_PRECISION or 50)")
    p.add_argument("--format", dest="out_format", choices=["csv", "json"], default="csv")
    p.add_argument("--output", default=None, help="write to a file instead of stdout")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rapidity", default="1.0", help="max |rapidity| for covariance draws")
    p.add_argument("--trials", type=int, default=20)
    return p


def _check_single(values: tuple[mpf, ...], flag: str, low, high, low_open: bool) -> None:
    # Single values are validated up front; swept ranges are allowed to
    # touch singular corners and fail per point at run time instead.
    if len(values) != 1:
        return
    v = values[0]
    bad = v <= low if low_open else v < low
    if bad or (high is not None and v >= high):
        raise UsageError(f"{flag}: value {v} outside the allowed domain")


def parse_args(argv: list[str]) -> ScanConfig:
    ns = _build_parser().parse_args(argv)
    try:
        precision = resolve_precision(ns.precision)
    except ValueError as exc:
        source = ENV_VAR if ns.precision is None else "--precision"
        raise UsageError(f"{source}: {exc}") from exc
    # Numbers are parsed at the run's precision, inside its scope only.
    with mp.workdps(precision):
        a_values = _parse_range(ns.a, "--a")
        lam_values = _parse_range(ns.lam, "--lambda")
        eps_values = _parse_range(ns.epsilon, "--epsilon")
        z_values = _parse_range(ns.z, "--z") if ns.z is not None else None
        _check_single(a_values, "--a", mpf(0), None, True)
        _check_single(lam_values, "--lambda", mpf(0), mpf(1), False)
        _check_single(eps_values, "--epsilon", mpf(0), None, True)

        field = FieldKind(ns.field)
        if ns.n_max is not None and ns.n_max < 1:
            raise UsageError("--n-max: must be >= 1")
        if ns.trials < 1:
            raise UsageError("--trials: must be >= 1")
        rapidity = _parse_number(ns.rapidity, "--rapidity")
        if not isfinite(rapidity):
            raise UsageError(f"--rapidity: {ns.rapidity!r} is not finite")
        # Trials are drawn as doubles from [-r, r], whose width must be finite.
        if not math.isfinite(2 * float(rapidity)):
            raise UsageError(f"--rapidity: {ns.rapidity!r} exceeds the double range")

        scalar = field is FieldKind.SCALAR
        if ns.command in ("stress", "covariance") and scalar and z_values is None:
            raise UsageError(f"--z: required for {ns.command} with --field scalar")
        if ns.command == "covariance":
            for flag, vals in (("--a", a_values), ("--lambda", lam_values),
                               ("--epsilon", eps_values), ("--z", z_values or (mpf(0),))):
                if len(vals) != 1:
                    raise UsageError(f"{flag}: covariance takes a single value, not a range")

        return ScanConfig(
            command=ns.command,
            a_values=a_values,
            lam_values=lam_values,
            eps_values=eps_values,
            z_values=z_values,
            split=_parse_eps_vec(ns.eps_vec),
            field=field,
            n_max=ns.n_max,
            out_format=ns.out_format,
            output=ns.output,
            seed=ns.seed,
            rapidity=rapidity,
            trials=ns.trials,
            precision=precision,
        )


def _energy_sum(cfg: ScanConfig):
    from .modesum import energy_mode_sum

    for a, lam, eps in product(cfg.a_values, cfg.lam_values, cfg.eps_values):
        def point(a=a, lam=lam, eps=eps):
            res = energy_mode_sum(
                PlateGeometry(a), CutoffParams(eps, lam), cfg.field, cfg.n_max
            )
            return res.n_max, res.value, res.remainder_bound

        yield (a, lam, eps), point


def _energy_expansion(cfg: ScanConfig):
    from .expansion import _reported_coefficients, reference_coefficients

    half = mpf(1) / 2 if cfg.field is FieldKind.SCALAR else mpf(1)
    for a, lam in product(cfg.a_values, cfg.lam_values):
        def point(a=a, lam=lam):
            _, c_minus2, c_0 = _reported_coefficients(a, lam, cfg.field)
            ref = reference_coefficients(a, lam)
            # The outer subtraction sets the eps^-4 coefficient to exactly zero.
            return mpf(0), c_minus2, c_0, half * ref.c_minus2, half * ref.c_0

        yield (a, lam), point


def _pressure(cfg: ScanConfig):
    from .expansion import casimir_pressure

    for a, lam in product(cfg.a_values, cfg.lam_values):
        def point(a=a, lam=lam):
            pr = casimir_pressure(a, lam, cfg.field)
            return pr.finite_part, pr.divergent_coeff

        yield (a, lam, cfg.field.value), point


def _stress(cfg: ScanConfig):
    from .stress import _stress_for

    # The stress reads only lambda from CutoffParams; its epsilon, the
    # splitting's length, is the same for every point of a sweep.
    length = cfg.split.length
    zs = cfg.z_values if cfg.field is FieldKind.SCALAR else (None,)
    for a, lam, z in product(cfg.a_values, cfg.lam_values, zs):
        def point(a=a, lam=lam, z=z):
            cut = CutoffParams(length, lam)
            d = _stress_for(cfg.field, PlateGeometry(a), cut, cfg.split, z)
            t = d.tensor()
            return d.A, d.B_finite, d.B_divergent_eps2, t[0, 0], t[3, 3], abs(t.trace())

        yield (a, lam, cfg.field.value, "" if z is None else z), point


def _covariance(cfg: ScanConfig):
    from .minkowski import boost, rotation_xy
    from .stress import covariance_check

    rng = random.Random(cfg.seed)
    z = cfg.z_values[0] if cfg.z_values is not None else None
    max_rap = float(cfg.rapidity)
    length = cfg.split.length
    for trial in range(cfg.trials):
        rap = mpf(rng.uniform(-max_rap, max_rap))
        ang = mpf(rng.uniform(0.0, 2.0 * math.pi))

        def point(rap=rap, ang=ang):
            ell = rotation_xy(ang).compose(boost(rap))
            geom = PlateGeometry(cfg.a_values[0])
            cutoff = CutoffParams(length, cfg.lam_values[0])
            return (covariance_check(cfg.field, geom, cutoff, cfg.split, ell, z),)

        yield (trial, rap, ang), point


def _scan(cfg: ScanConfig):
    # Combined per-point summary of the three observable groups; the
    # electromagnetic field only, since the scalar columns would just
    # repeat everything halved.
    from .expansion import _pressure_from_coefficients, _reported_coefficients
    from .stress import em_stress

    length = cfg.split.length
    for a, lam in product(cfg.a_values, cfg.lam_values):
        def point(a=a, lam=lam):
            a, c_minus2, c_0 = _reported_coefficients(a, lam)
            pr = _pressure_from_coefficients(a, c_minus2, c_0)
            d = em_stress(PlateGeometry(a), CutoffParams(length, lam), cfg.split)
            return (
                c_minus2, c_0, pr.finite_part, pr.divergent_coeff,
                d.A, d.B_finite, d.B_divergent_eps2,
            )

        yield (a, lam), point


# Subcommand -> (input columns, output columns, grid).  The grid yields,
# in row order, each point's inputs and the function computing its outputs.
_SUBCOMMANDS = {
    "energy-sum": (
        ("a", "lambda", "epsilon"), ("n_max", "energy", "remainder_bound"), _energy_sum
    ),
    "energy-expansion": (
        ("a", "lambda"), ("c_m4", "c_m2", "c_0", "c_m2_ref", "c_0_ref"), _energy_expansion
    ),
    "pressure": (("a", "lambda", "field"), ("finite_part", "divergent_coeff"), _pressure),
    "stress": (
        ("a", "lambda", "field", "z"),
        ("A", "B_finite", "B_div_eps2", "Ttt", "Tzz", "trace_residual"),
        _stress,
    ),
    "covariance": (("trial", "rapidity", "angle"), ("residual",), _covariance),
    "scan": (
        ("a", "lambda"),
        ("c_m2", "c_0", "finite_part", "divergent_coeff", "A", "B_finite", "B_div_eps2"),
        _scan,
    ),
}

COMMANDS = tuple(_SUBCOMMANDS)


def _cell(value):
    if value is None or isinstance(value, str):
        return value
    return str(value) if isinstance(value, int) else _fmt(value)


def _sweep(cfg: ScanConfig, width: int, grid) -> tuple[list, int]:
    """Run every grid point; a failed point keeps its inputs, empties its outputs."""
    rows, code = [], 0
    for inputs, point in grid(cfg):
        try:
            outputs = point()
        except NotConverged:
            outputs, code = (None,) * width, max(code, 3)
        except CasimirError:
            outputs, code = (None,) * width, max(code, 2)
        rows.append([_cell(v) for v in (*inputs, *outputs)])
    return rows, code


def _emit(cfg: ScanConfig, header: tuple[str, ...], rows) -> None:
    if cfg.out_format == "json":
        import json

        objects = [dict(zip(header, row)) for row in rows]
        payload = objects[0] if len(objects) == 1 else objects
        text = json.dumps(payload, indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(["" if v is None else v for v in row])
        text = buf.getvalue()
    if cfg.output:
        try:
            Path(cfg.output).write_text(text)
        except OSError as exc:
            raise UsageError(f"--output: {exc}") from exc
    else:
        sys.stdout.write(text)


def _check_output(path: str) -> None:
    """Refuse an --output that open() must refuse; no file is touched.

    Its directory must exist and be a directory, and it must not be a
    directory itself.
    """
    target = Path(path)
    if not target.parent.is_dir():
        reason = "Not a directory" if target.parent.exists() else "No such file or directory"
        raise UsageError(f"--output: {reason}: {str(target.parent)!r}")
    if target.is_dir():
        raise UsageError(f"--output: Is a directory: {path!r}")


def run(cfg: ScanConfig) -> int:
    """Execute a validated config at its precision; returns the exit code.

    An --output in a missing directory or one that is not a directory, or
    that is a directory itself, raises UsageError before any grid point
    runs; one that still cannot be written raises it after the sweep.
    """
    if cfg.output:
        _check_output(cfg.output)
    with mp.workdps(cfg.precision):
        inputs, outputs, grid = _SUBCOMMANDS[cfg.command]
        rows, code = _sweep(cfg, len(outputs), grid)
        _emit(cfg, inputs + outputs, rows)
    return code


def main(argv: list[str] | None = None) -> int:
    try:
        return run(parse_args(sys.argv[1:] if argv is None else argv))
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
