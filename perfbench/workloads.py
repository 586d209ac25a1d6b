"""Seeded, work-stable inputs for the benchmark workloads.

A workload is a list of CLI invocations.  The seed picks *which* points
run; the amount of work per invocation is fixed by the workload's
design, so two seeds cost the same to within the spread of the
solver's stopping index:

- ``modesum``: each invocation is one stratum of predicted mode count
  ``24 a / ((1 - lambda) eps)``.  The seed draws eps and then (a,
  lambda) on the curve that keeps the prediction at the stratum's
  target, all inside the criterion-2 ranges.
- ``scan``: series work does not depend on (a, lambda), so the seed
  moves the grid endpoints and keeps the grid shape.
- ``stress``: as ``scan``, plus seeded splitting vectors and
  covariance draws with a fixed trial count.

Every invocation also carries its grid points as exact mpf values, in
the order the CLI emits rows, for the in-process pass and the oracle.
Grid values follow the CLI's documented ``start:stop:count`` grammar
(``start + i * (stop - start) / (count - 1)`` at working precision).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from decimal import Decimal

from mpmath import mp, mpf

# Modesum strata: (predicted mode count at the smallest eps, lambda).
# Each invocation runs five evenly spaced eps up to three times the
# smallest, so its points predict n_top * (1, 2/3, 1/2, 2/5, 1/3).  With
# these strata the median and p90 of the points land inside groups of
# equal predicted cost (225 and 900 modes), not between two groups.
# Lambda is drawn near a fixed value per stratum: on the curve of
# constant predicted count the size of the exponentials' arguments
# depends on lambda alone, so the seed moves a and eps without changing
# the cost per mode.
MODESUM_STRATA = ((150, 0.15), (450, 0.45), (1350, 0.75))
MODESUM_EPS_COUNT = 5
MAX_RAPIDITY = 2
# 40 EM and 20 scalar stress points and 20 + 20 trials put the stress
# workload's median inside the EM-stress group, whose cost does not
# depend on the drawn values, and its p90 inside the EM-covariance
# group, away from the group edges.
COVARIANCE_TRIALS = 20


@dataclass(frozen=True)
class Invocation:
    """One CLI subprocess: its argv and the grid points it emits as rows."""

    command: str
    field: str
    dps: int
    args: tuple[str, ...]
    points: tuple[dict, ...]


def _dec(x: float, places: int = 5) -> Decimal:
    return Decimal(f"{x:.{places}f}")


def _grid(start: Decimal, stop: Decimal, count: int, dps: int) -> tuple[mpf, ...]:
    with mp.workdps(dps):
        lo, hi = mpf(str(start)), mpf(str(stop))
        if count == 1:
            return (lo,)
        step = (hi - lo) / (count - 1)
        return tuple(lo + i * step for i in range(count))


def _range(start: Decimal, stop: Decimal, count: int) -> str:
    return f"{start}:{stop}:{count}"


def _num(x: Decimal, dps: int) -> mpf:
    with mp.workdps(dps):
        return mpf(str(x))


def _vec(parts: tuple[Decimal, ...], dps: int) -> tuple[mpf, ...]:
    return tuple(_num(p, dps) for p in parts)


def _vec_arg(parts: tuple[Decimal, ...]) -> str:
    return ",".join(str(p) for p in parts)


def _invocation(command, field, dps, args, points) -> Invocation:
    flags = [command, *args]
    if command != "scan":  # scan always reports the electromagnetic field
        flags += ["--field", field]
    if dps != 50:
        flags += ["--precision", str(dps)]
    return Invocation(command, field, dps, tuple(flags), tuple(points))


def _modesum(rng: random.Random) -> list[Invocation]:
    out = []
    for field in ("em", "scalar"):
        for n_top, lam_mid in MODESUM_STRATA:
            lam = _dec(lam_mid + rng.uniform(-0.05, 0.05))
            # eps1 = 24 a / ((1 - lambda) n_top) must lie in [0.05, 1/6]
            # so that 3 * eps1 <= 0.5, with a in [0.5, 2].
            scale = (1 - float(lam)) * n_top / 24
            a = _dec(rng.uniform(max(0.5, 0.05 * scale), min(2.0, 0.999 * scale / 6)))
            e1 = _dec(float(a) / scale)
            e3 = 3 * e1
            points = [
                {"a": _num(a, 50), "lambda": _num(lam, 50), "epsilon": eps}
                for eps in _grid(e1, e3, MODESUM_EPS_COUNT, 50)
            ]
            args = ["--a", str(a), "--lambda", str(lam),
                    "--epsilon", _range(e1, e3, MODESUM_EPS_COUNT)]
            out.append(_invocation("energy-sum", field, 50, args, points))
    return out


def _ab_grid(rng: random.Random, na: int, nl: int):
    a1 = _dec(rng.uniform(0.5, 1.0))
    a2 = a1 + _dec(rng.uniform(0.5, 1.0))
    l1 = _dec(rng.uniform(0.0, 0.3))
    l2 = _dec(rng.uniform(0.6, 0.9))
    args = ["--a", _range(a1, a2, na), "--lambda", _range(l1, l2, nl)]

    def points(dps):
        return [
            {"a": a, "lambda": lam}
            for a in _grid(a1, a2, na, dps)
            for lam in _grid(l1, l2, nl, dps)
        ]

    return args, points


def _scan(rng: random.Random) -> list[Invocation]:
    args, points = _ab_grid(rng, 3, 4)
    out = [_invocation("scan", "em", 50, args, points(50))]
    for command in ("energy-expansion", "pressure"):
        for field in ("em", "scalar"):
            out.append(_invocation(command, field, 50, args, points(50)))
    # Part of the grid again at 200 digits: series arithmetic vs digits.
    out.append(_invocation("scan", "em", 200, args, points(200)))
    return out


def _split(rng: random.Random, timelike: bool) -> tuple[Decimal, ...]:
    # |t| < 0.03 < 0.05 <= x keeps the splitting spacelike.
    t = _dec(rng.uniform(-0.03, 0.03)) if timelike else Decimal(0)
    return (t, _dec(rng.uniform(0.05, 0.15)), _dec(rng.uniform(-0.05, 0.05)), Decimal(0))


def _stress(rng: random.Random) -> list[Invocation]:
    out = []
    args, points = _ab_grid(rng, 5, 8)
    split = _split(rng, False)
    pts = [dict(p, z=None, eps_vec=_vec(split, 50)) for p in points(50)]
    out.append(_invocation("stress", "em", 50, args + [f"--eps-vec={_vec_arg(split)}"], pts))

    a = _dec(rng.uniform(0.5, 2.0))
    l1, l2 = _dec(rng.uniform(0.0, 0.3)), _dec(rng.uniform(0.6, 0.9))
    z1, z2 = a * _dec(rng.uniform(0.1, 0.3)), a * _dec(rng.uniform(0.7, 0.9))
    split = _split(rng, False)
    pts = [
        {"a": _num(a, 50), "lambda": lam, "z": z, "eps_vec": _vec(split, 50)}
        for lam in _grid(l1, l2, 4, 50)
        for z in _grid(z1, z2, 5, 50)
    ]
    args = ["--a", str(a), "--lambda", _range(l1, l2, 4), "--z", _range(z1, z2, 5),
            f"--eps-vec={_vec_arg(split)}"]
    out.append(_invocation("stress", "scalar", 50, args, pts))

    for field in ("em", "scalar"):
        a = _dec(rng.uniform(0.5, 2.0))
        lam = _dec(rng.uniform(0.0, 0.9))
        z = a * _dec(rng.uniform(0.2, 0.8)) if field == "scalar" else None
        split = _split(rng, True)
        # The CLI draws its own trials from --seed; the in-process pass
        # draws the same distribution from the benchmark's generator.
        pts = [
            {
                "a": _num(a, 50), "lambda": _num(lam, 50),
                "z": None if z is None else _num(z, 50), "eps_vec": _vec(split, 50),
                "rapidity": mpf(rng.uniform(-MAX_RAPIDITY, MAX_RAPIDITY)),
                "angle": mpf(rng.uniform(0.0, 2.0 * math.pi)),
            }
            for _ in range(COVARIANCE_TRIALS)
        ]
        args = ["--a", str(a), "--lambda", str(lam), f"--eps-vec={_vec_arg(split)}",
                "--rapidity", str(MAX_RAPIDITY), "--trials", str(COVARIANCE_TRIALS),
                "--seed", str(rng.randrange(2**31))]
        if z is not None:
            args += ["--z", str(z)]
        out.append(_invocation("covariance", field, 50, args, pts))
    return out


WORKLOADS = {"modesum": _modesum, "scan": _scan, "stress": _stress}


def generate(workload: str, seed: int) -> list[Invocation]:
    """The workload's invocations for this seed; same seed, same inputs."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))


def predicted_modes(inv: Invocation) -> float:
    """Stopping-index estimate 24 a / ((1 - lambda) eps) summed over the points."""
    if inv.command != "energy-sum":
        return 0.0
    return sum(
        24 * float(p["a"]) / ((1 - float(p["lambda"])) * float(p["epsilon"]))
        for p in inv.points
    )


def input_stats(invocations: list[Invocation]) -> dict:
    points = sum(len(inv.points) for inv in invocations)
    high = sum(len(inv.points) for inv in invocations if inv.dps >= 200)
    return {
        "invocations": len(invocations),
        "points": points,
        "predicted_modes": round(sum(predicted_modes(inv) for inv in invocations), 1),
        "share_200_digits": high / points,
        "dps": sorted({inv.dps for inv in invocations}),
    }
