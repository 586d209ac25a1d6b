"""Command-line front end: parameter scans and machine-readable reports.

Each subcommand sweeps a grid built from its range flags (grammar
``start:stop:count``, endpoints inclusive, or a single value) and emits
one row per grid point with a fixed column schema, as CSV or JSON.
Numeric fields are printed with enough digits to re-parse to the same
extended-precision value.

The digit count (--precision, CASIMIR_PRECISION or 50) applies only
inside parse_args and run; the caller's precision is left as it was.

Exit codes: 0 success; 1 usage error, a NaN value included; 2 a grid
point hit a domain error (its computed fields are left empty and the
sweep continues, since sweeps legitimately approach singular corners
like z -> 0); 3 a grid point failed to converge.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import random
import sys
from dataclasses import dataclass
from pathlib import Path

from mpmath import isnan, mp, mpf

from .errors import CasimirError, LightlikeSeparation, NotConverged
from .expansion import (
    casimir_pressure,
    energy_laurent,
    pressure_from_energy,
    reference_coefficients,
    subtract_outer,
)
from .laurent import extract_coefficient
from .minkowski import FourVector, SeparationVector, boost, rotation_xy
from .modesum import CutoffParams, FieldKind, PlateGeometry, energy_mode_sum
from .precision import resolve_precision, to_mpf
from .stress import _stress_for, covariance_check, em_stress

COMMANDS = ("energy-sum", "energy-expansion", "pressure", "stress", "covariance", "scan")

_HEADERS = {
    "energy-sum": ["a", "lambda", "epsilon", "n_max", "energy", "remainder_bound"],
    "energy-expansion": ["a", "lambda", "c_m4", "c_m2", "c_0", "c_m2_ref", "c_0_ref"],
    "pressure": ["a", "lambda", "field", "finite_part", "divergent_coeff"],
    "stress": [
        "a", "lambda", "field", "z",
        "A", "B_finite", "B_div_eps2", "Ttt", "Tzz", "trace_residual",
    ],
    "covariance": ["trial", "rapidity", "angle", "residual"],
    "scan": [
        "a", "lambda", "c_m2", "c_0", "finite_part", "divergent_coeff",
        "A", "B_finite", "B_div_eps2",
    ],
}


class UsageError(Exception):
    """Bad flags or values; maps to exit code 1."""


@dataclass(frozen=True)
class ScanConfig:
    """Validated run description, with all numbers at final precision."""

    command: str
    a_values: tuple[mpf, ...]
    lam_values: tuple[mpf, ...]
    eps_values: tuple[mpf, ...]
    z_values: tuple[mpf, ...] | None
    eps_vec: tuple[mpf, mpf, mpf, mpf]
    field: FieldKind
    n_max: int | None
    order: int
    out_format: str
    output: str | None
    seed: int
    rapidity: mpf
    trials: int
    precision: int


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
        if count == 1:
            return (start,)
        step = (stop - start) / (count - 1)
        return tuple(start + i * step for i in range(count))
    return (_parse_number(text, flag),)


def _parse_eps_vec(text: str) -> tuple[mpf, mpf, mpf, mpf]:
    parts = text.split(",")
    if len(parts) != 4:
        raise UsageError("--eps-vec expects four comma-separated components t,x,y,z")
    comps = tuple(_parse_number(p, "--eps-vec") for p in parts)
    if comps[3] != 0:
        raise UsageError("--eps-vec: z component must be 0 (splitting lies in t-x-y)")
    try:
        SeparationVector(FourVector(*comps))
    except LightlikeSeparation as exc:
        raise UsageError(f"--eps-vec: {exc}") from exc
    return comps


def _build_parser() -> _Parser:
    parser = _Parser(prog="casimir-cutoff", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
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
        p.add_argument("--order", type=int, default=4,
                       help="highest retained series power")
        p.add_argument("--precision", type=int, default=None,
                       help="working digits (default: CASIMIR_PRECISION or 50)")
        p.add_argument("--format", dest="out_format", choices=["csv", "json"], default="csv")
        p.add_argument("--output", default=None, help="write to a file instead of stdout")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--rapidity", default="1.0", help="max |rapidity| for covariance draws")
        p.add_argument("--trials", type=int, default=20)
    return parser


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
        raise UsageError(f"--precision: {exc}") from exc
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
        if ns.order < 0:
            raise UsageError("--order: must be >= 0")
        if ns.trials < 1:
            raise UsageError("--trials: must be >= 1")
        rapidity = _parse_number(ns.rapidity, "--rapidity")

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
            eps_vec=_parse_eps_vec(ns.eps_vec),
            field=field,
            n_max=ns.n_max,
            order=ns.order,
            out_format=ns.out_format,
            output=ns.output,
            seed=ns.seed,
            rapidity=rapidity,
            trials=ns.trials,
            precision=precision,
        )


def _append_row(rows, prefix, pad: int, code: int, fn) -> int:
    """Run one grid point; on failure emit an empty-tail row and raise the code."""
    try:
        rows.append(prefix + fn())
        return code
    except NotConverged:
        rows.append(prefix + [None] * pad)
        return max(code, 3)
    except CasimirError:
        rows.append(prefix + [None] * pad)
        return max(code, 2)


def _run_energy_sum(cfg: ScanConfig):
    rows, code = [], 0
    for a in cfg.a_values:
        for lam in cfg.lam_values:
            for eps in cfg.eps_values:
                def point(a=a, lam=lam, eps=eps):
                    res = energy_mode_sum(
                        PlateGeometry(a), CutoffParams(eps, lam), cfg.field, cfg.n_max
                    )
                    return [str(res.n_max), _fmt(res.value), _fmt(res.remainder_bound)]

                code = _append_row(rows, [_fmt(a), _fmt(lam), _fmt(eps)], 3, code, point)
    return rows, code


def _run_energy_expansion(cfg: ScanConfig):
    rows, code = [], 0
    half = mpf(1) / 2 if cfg.field is FieldKind.SCALAR else mpf(1)
    for a in cfg.a_values:
        for lam in cfg.lam_values:
            def point(a=a, lam=lam):
                sub = subtract_outer(energy_laurent(a, lam, cfg.order, cfg.field))
                ref = reference_coefficients(a, lam)
                return [
                    _fmt(extract_coefficient(sub.series, -4)),
                    _fmt(extract_coefficient(sub.series, -2)),
                    _fmt(extract_coefficient(sub.series, 0)),
                    _fmt(half * ref.c_minus2),
                    _fmt(half * ref.c_0),
                ]

            code = _append_row(rows, [_fmt(a), _fmt(lam)], 5, code, point)
    return rows, code


def _run_pressure(cfg: ScanConfig):
    rows, code = [], 0
    for a in cfg.a_values:
        for lam in cfg.lam_values:
            def point(a=a, lam=lam):
                pr = casimir_pressure(a, lam, cfg.field)
                return [_fmt(pr.finite_part), _fmt(pr.divergent_coeff)]

            code = _append_row(
                rows, [_fmt(a), _fmt(lam), cfg.field.value], 2, code, point
            )
    return rows, code


def _run_stress(cfg: ScanConfig):
    rows, code = [], 0
    eps_sep = SeparationVector(FourVector(*cfg.eps_vec))
    zs = cfg.z_values if cfg.field is FieldKind.SCALAR else (None,)
    for a in cfg.a_values:
        for lam in cfg.lam_values:
            for z in zs:
                def point(a=a, lam=lam, z=z):
                    cut = CutoffParams(eps_sep.length, lam)
                    d = _stress_for(cfg.field, PlateGeometry(a), cut, eps_sep, z)
                    t = d.tensor()
                    return [
                        _fmt(d.A), _fmt(d.B_finite), _fmt(d.B_divergent_eps2),
                        _fmt(t[0, 0]), _fmt(t[3, 3]), _fmt(abs(t.trace())),
                    ]

                prefix = [_fmt(a), _fmt(lam), cfg.field.value,
                          "" if z is None else _fmt(z)]
                code = _append_row(rows, prefix, 6, code, point)
    return rows, code


def _run_covariance(cfg: ScanConfig):
    rows, code = [], 0
    rng = random.Random(cfg.seed)
    a = cfg.a_values[0]
    lam = cfg.lam_values[0]
    eps_sep = SeparationVector(FourVector(*cfg.eps_vec))
    z = cfg.z_values[0] if cfg.z_values is not None else None
    max_rap = float(cfg.rapidity)
    for trial in range(cfg.trials):
        rap = mpf(rng.uniform(-max_rap, max_rap))
        ang = mpf(rng.uniform(0.0, 2.0 * math.pi))

        def point(rap=rap, ang=ang):
            ell = rotation_xy(ang).compose(boost(rap))
            geom, cutoff = PlateGeometry(a), CutoffParams(eps_sep.length, lam)
            res = covariance_check(cfg.field, geom, cutoff, eps_sep, ell, z)
            return [_fmt(res)]

        code = _append_row(rows, [str(trial), _fmt(rap), _fmt(ang)], 1, code, point)
    return rows, code


def _run_scan(cfg: ScanConfig):
    # Combined per-point summary of the three observable groups; the
    # electromagnetic field only, since the scalar columns would just
    # repeat everything halved.
    rows, code = [], 0
    eps_sep = SeparationVector(FourVector(*cfg.eps_vec))
    for a in cfg.a_values:
        for lam in cfg.lam_values:
            def point(a=a, lam=lam):
                sub = subtract_outer(energy_laurent(a, lam))
                pr = pressure_from_energy(sub)
                d = em_stress(PlateGeometry(a), CutoffParams(eps_sep.length, lam), eps_sep)
                return [
                    _fmt(extract_coefficient(sub.series, -2)),
                    _fmt(extract_coefficient(sub.series, 0)),
                    _fmt(pr.finite_part), _fmt(pr.divergent_coeff),
                    _fmt(d.A), _fmt(d.B_finite), _fmt(d.B_divergent_eps2),
                ]

            code = _append_row(rows, [_fmt(a), _fmt(lam)], 7, code, point)
    return rows, code


_RUNNERS = {
    "energy-sum": _run_energy_sum,
    "energy-expansion": _run_energy_expansion,
    "pressure": _run_pressure,
    "stress": _run_stress,
    "covariance": _run_covariance,
    "scan": _run_scan,
}


def _emit(cfg: ScanConfig, header: list[str], rows) -> None:
    if cfg.out_format == "json":
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
        Path(cfg.output).write_text(text)
    else:
        sys.stdout.write(text)


def run(cfg: ScanConfig) -> int:
    """Execute a validated config at its precision; returns the exit code."""
    with mp.workdps(cfg.precision):
        rows, code = _RUNNERS[cfg.command](cfg)
        _emit(cfg, _HEADERS[cfg.command], rows)
    return code


def main(argv: list[str] | None = None) -> int:
    try:
        cfg = parse_args(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
