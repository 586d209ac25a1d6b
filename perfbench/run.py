"""Benchmark of the casimir_cutoff CLI, end to end and layer by layer.

    python3 perfbench/run.py --workload {modesum,scan,stress} --seed N \
        --seconds S [--trace 0|1]

Run from a full checkout; the package is imported from ``src/``.
Workloads and metrics are declared in ``BENCHMARK.json``.

``--trace 0`` measures the end-to-end metrics with tracing off, in
cycles of setup probes, one CLI sweep and in-process passes, repeated
over the ``--seconds`` budget (at least three cycles):

- ``setup_s``: median wall time of fresh interpreters that import
  ``casimir_cutoff.cli`` and parse the workload's first argv, no grid work;
- ``wall_s``: the workload's CLI invocations run as subprocesses
  (``python -m casimir_cutoff.cli`` with ``PYTHONPATH=src``), one at a
  time in a closed loop with a single caller; the sum over invocations
  of each one's median wall time across the sweeps;
- ``peak_rss_mb``: the largest max-RSS among those subprocesses;
- ``point_p50_ms`` / ``point_tail_ms``: median and p90 (nearest rank,
  at least 100 samples, so at least 10 beyond it) of per-point latency
  in an in-process pass that makes the CLI's library calls.

The four times are calibrated against the machine's speed (see
``REFERENCE_KERNEL_S``); the report line also carries them uncalibrated.

``--trace 1`` replays the same invocations in process through
``cli.main``, alternating untraced and traced replays, and reports the
per-layer metrics (medians over traced replays) and
``trace.overhead_ratio``.  Without ``--trace`` both sets are measured
and printed.

Every CLI row and in-process point is checked against the oracle; a
point that is missing, exits non-zero or is wrong counts as failed.
The last line of stdout is the JSON result; the line before it is a
report with the environment stamp, input statistics, the Tier-1 wall
time (informational, cached per source hash in ``.perfbench/``) and
the failure fraction.  A directory without the package sources exits
with code 2 and prints no result.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # keep the benchmark's directory free of build output

import argparse
import csv
import gc
import hashlib
import io
import json
import math
import os
import platform
import statistics
import subprocess
import threading
import time
from contextlib import contextmanager, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

TAIL_PERCENTILE = 90
# Machine speed on a shared host drifts by tens of percent within
# seconds, so every end-to-end time is calibrated: each measured
# interval is bracketed by two timings of the reference kernel
# (refkernel.py) and scaled by its nominal time over their mean.  In
# process the kernel runs on the same thread around blocks of about
# CALIBRATION_BLOCK_S of samples; around each subprocess it runs as a
# subprocess of its own.  The nominal times are typical of a 2-vCPU KVM
# Xeon with Python 3.11.7 and mpmath 1.3.0 (pure-Python backend), where
# the kernel takes 9-15 ms in process and 100-150 ms as a subprocess,
# so calibrated times read roughly as times on that machine.
CALIBRATION_BLOCK_S = 0.1
REFERENCE_KERNEL_S = 0.011
REFERENCE_PROCESS_S = 0.12
MIN_POINT_SAMPLES = 100  # p90 then has at least 10 samples beyond it
SETUP_STARTS = 11
MIN_CYCLES = 3  # each cycle: setup probes, one CLI sweep, in-process passes
MIN_REPLAY_PAIRS = 2
CLI_TIMEOUT_S = 120
TIER1_TIMEOUT_S = 600
TIER1_COMMAND = ("-m", "pytest", "-q", "--continue-on-collection-errors")

INT_COLUMNS = {"n_max", "trial"}
TEXT_COLUMNS = {"field"}
INPUT_COLUMNS = ("a", "lambda", "epsilon", "z")


class Tally:
    """Points attempted and failed, with the first few failures described."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def add(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("CASIMIR_PRECISION", None)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def _run_child(cmd, env, stderr) -> tuple[int, str, float, int]:
    """Run to exit; returns (exit code, stdout, wall seconds, max RSS in KiB)."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=stderr)
    watchdog = threading.Timer(CLI_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
        proc.stdout.close()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out.decode(), wall, usage.ru_maxrss


def _parse_rows(text: str, dps: int) -> list[dict]:
    from mpmath import mp, mpf

    def value(key, raw):
        if raw == "":
            return None
        if key in TEXT_COLUMNS:
            return raw
        return int(raw) if key in INT_COLUMNS else mpf(raw)

    with mp.workdps(dps):
        return [{k: value(k, v) for k, v in row.items()}
                for row in csv.DictReader(io.StringIO(text))]


def _check_cli_output(inv, code: int, text: str, tally: Tally, oracle) -> None:
    """Check every expected row of one CLI run."""
    from mpmath import mpf

    try:
        rows = _parse_rows(text, inv.dps) if code == 0 else []
    except ValueError:  # a field that is not a number
        rows = []
    slack = mpf(10) ** -(max(30, inv.dps - 10) - 2)  # printed digits, less two
    for i, point in enumerate(inv.points):
        row = rows[i] if i < len(rows) else None
        ok = row is not None and all(
            row.get(k) is not None and abs(row[k] - point[k]) <= slack * max(1, abs(point[k]))
            for k in INPUT_COLUMNS if k in row and point.get(k) is not None
        ) and oracle.check(inv.command, inv.field, inv.dps, row, point.get("eps_vec"), slack)
        tally.add(ok, f"{' '.join(inv.args)} row {i} (exit {code})")


def _timed_loop(budget: float, minimum: int, body) -> int:
    """Repeat body() at least ``minimum`` times, then while the next repeat fits the budget."""
    start = time.perf_counter()
    count = 0
    while True:
        elapsed = time.perf_counter() - start
        if count >= minimum and elapsed + elapsed / count > budget:
            return count
        body(count)
        count += 1


def _tail(samples: list[float]) -> float:
    ordered = sorted(samples)
    return ordered[math.ceil(TAIL_PERCENTILE / 100 * len(ordered)) - 1]


@contextmanager
def _gc_paused():
    """As timeit does: no cyclic collection inside timed code, one collection after."""
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
        gc.collect()


class _Gauge:
    """Scale factor to the nominal machine speed, from bracketing reference timings."""

    def __init__(self, measure, nominal: float):
        self._measure, self._nominal = measure, nominal
        self._last = None

    def start(self) -> None:
        self._last = self._measure()

    def scale(self) -> float:
        """Factor for the interval since the previous reading; takes a new one."""
        now = self._measure()
        factor = self._nominal / ((self._last + now) / 2)
        self._last = now
        return factor


def _time_in_process() -> float:
    import refkernel

    start = time.perf_counter()
    refkernel.run()
    return time.perf_counter() - start


def _warm_up(invs) -> None:
    # One cheap point per (command, field, digits) fills mpmath's
    # constant caches before anything in-process is timed.
    from mpmath import mp
    import inproc

    seen = set()
    for inv in invs:
        key = (inv.command, inv.field, inv.dps)
        if key not in seen:
            seen.add(key)
            with mp.workdps(inv.dps):
                inproc.run_point(inv.command, inv.field, inv.points[-1])


def measure_end_to_end(invs, seconds: float, tally: Tally, problems: list) -> tuple[dict, dict]:
    """Interleave setup probes, CLI sweeps and in-process passes over the whole budget.

    Interleaving gives every metric samples from the whole run, so a
    slow spell of the machine is shared by all of them instead of
    landing on one.
    """
    from mpmath import mp
    import inproc
    import oracle

    env = _child_env()
    probe = [sys.executable, "-c",
             "import sys; from casimir_cutoff.cli import parse_args; "
             "parse_args(sys.argv[1:])", *invs[0].args]
    reference = [sys.executable, str(Path(__file__).with_name("refkernel.py"))]
    flat = [(inv, p) for inv in invs for p in inv.points]
    min_passes = math.ceil(MIN_POINT_SAMPLES / len(flat))
    probes_per_cycle = math.ceil(SETUP_STARTS / MIN_CYCLES)
    starts, samples = [], []
    walls = [[] for _ in invs]
    raw = {"starts": [], "samples": [], "walls": [[] for _ in invs]}
    peak_kib = passes = 0

    with open(OUT / "cli-stderr.txt", "w") as stderr:
        def child(cmd):
            return _run_child(cmd, env, stderr)

        processes = _Gauge(lambda: child(reference)[2], REFERENCE_PROCESS_S)
        in_process = _Gauge(_time_in_process, REFERENCE_KERNEL_S)

        def cycle(c):
            nonlocal peak_kib
            processes.start()
            for _ in range(probes_per_cycle):
                code, _, wall, _ = child(probe)
                if code != 0:
                    problems.append(f"setup probe exited {code}")
                raw["starts"].append(wall)
                starts.append(wall * processes.scale())
            for i, inv in enumerate(invs):
                code, out, wall, rss = child([sys.executable, "-m", "casimir_cutoff.cli", *inv.args])
                raw["walls"][i].append(wall)
                walls[i].append(wall * processes.scale())
                peak_kib = max(peak_kib, rss)
                _check_cli_output(inv, code, out, tally, oracle)
            # Spread the minimum number of passes over the first cycles.
            while passes < max(c + 1, math.ceil(min_passes * (c + 1) / MIN_CYCLES)):
                point_pass()

        def point_pass():
            nonlocal passes
            passes += 1
            block = []
            in_process.start()
            with _gc_paused():
                for k, (inv, point) in enumerate(flat):
                    what = f"in-process {' '.join(inv.args)} point {k}"
                    with mp.workdps(inv.dps):
                        start = time.perf_counter()
                        try:
                            row = inproc.run_point(inv.command, inv.field, point)
                        except Exception as exc:  # a failed point is counted, not fatal
                            row, what = None, f"{what}: {exc!r}"
                        block.append(time.perf_counter() - start)
                        ok = row is not None and oracle.check(
                            inv.command, inv.field, inv.dps, {**point, **row},
                            point.get("eps_vec"))
                    tally.add(ok, what)
                    if sum(block) >= CALIBRATION_BLOCK_S or k == len(flat) - 1:
                        factor = in_process.scale()
                        raw["samples"].extend(block)
                        samples.extend(b * factor for b in block)
                        block = []

        child(probe)  # the first start after a change compiles bytecode
        _warm_up(invs)
        cycles = _timed_loop(seconds, MIN_CYCLES, cycle)

    def summary(starts, walls, samples):
        return {
            "wall_s": sum(statistics.median(t) for t in walls),
            "setup_s": statistics.median(starts),
            "point_p50_ms": statistics.median(samples) * 1e3,
            "point_tail_ms": _tail(samples) * 1e3,
        }

    metrics = dict(summary(starts, walls, samples), peak_rss_mb=peak_kib / 1024)
    details = {
        "cycles": cycles,
        "setup_starts": len(starts),
        "point_samples": len(samples),
        "point_passes": passes,
        "point_tail_percentile": TAIL_PERCENTILE,
        "uncalibrated": summary(raw["starts"], raw["walls"], raw["samples"]),
    }
    return metrics, details


def _replay(main, invs, tracer=None) -> list[tuple[int, str]]:
    from mpmath import mp

    outputs = []
    for i, inv in enumerate(invs):
        buf = io.StringIO()
        if tracer is not None:
            tracer.request = i
        with mp.workdps(50), redirect_stdout(buf):
            code = main(list(inv.args))
        outputs.append((code, buf.getvalue()))
    return outputs


def _layer_metrics(tr, points: int) -> dict:
    calls, self_s = tr.calls, tr.self_s
    modes = tr.modes
    return {
        "modesum.energy_mode_sum.calls": calls["modesum.energy_mode_sum"],
        "modesum.energy_mode_sum.self_s": self_s["modesum.energy_mode_sum"],
        "modesum.modes": modes,
        "modesum.us_per_mode": tr.layer_self_s("modesum") / modes * 1e6 if modes else 0.0,
        "expansion.energy_laurent.calls": calls["expansion.energy_laurent"],
        "expansion.energy_laurent.self_s": self_s["expansion.energy_laurent"],
        "expansion.subtract_outer.self_s": self_s["expansion.subtract_outer"],
        "expansion.casimir_pressure.self_s": self_s["expansion.casimir_pressure"],
        "expansion.laurent_builds_per_point": calls["expansion.energy_laurent"] / points,
        "laurent.calls": sum(v for k, v in calls.items() if k.startswith("laurent.series_")),
        "laurent.self_s": tr.layer_self_s("laurent"),
        "laurent.series_coth.calls": calls["laurent.series_coth"],
        "laurent.series_div.calls": calls["laurent.series_div"],
        "stress.em_stress.calls": calls["stress.em_stress"],
        "stress.em_stress.self_s": self_s["stress.em_stress"],
        "stress.scalar_stress.self_s": self_s["stress.scalar_stress"],
        "stress.tensor.self_s": self_s["stress.StressDecomposition.tensor"],
        "stress.covariance_check.self_s": self_s["stress.covariance_check"],
        "minkowski.transforms_built": calls["minkowski.LorentzTransform.__post_init__"],
        "minkowski.self_s": tr.layer_self_s("minkowski"),
        "minkowski.transform_tensor.self_s": self_s["minkowski.transform_tensor"],
        "precision.configure_precision.calls": calls["precision.configure_precision"],
        "cli.points": points,
        "cli.self_s": self_s["cli.main"],
    }


def measure_layers(invs, seconds: float, tally: Tally, problems: list,
                   spans_path: Path) -> tuple[dict, dict]:
    from casimir_cutoff import cli
    import oracle
    import tracer as tracing

    _warm_up(invs)
    untraced_s, traced_s, runs = [], [], []
    reference = None
    mismatched = set()
    last = None

    def untraced():
        nonlocal reference
        with _gc_paused():
            start = time.perf_counter()
            outputs = _replay(cli.main, invs)
            untraced_s.append(time.perf_counter() - start)
        if reference is None:
            reference = outputs
        mismatched.update(i for i, o in enumerate(outputs) if o != reference[i])

    def traced():
        nonlocal last
        tr = tracing.Tracer()
        patches = tracing.instrument(tr)
        try:
            with _gc_paused():
                start = time.perf_counter()
                outputs = _replay(tr.wrap("cli.main", cli.main), invs, tr)
                traced_s.append(time.perf_counter() - start)
        finally:
            leftover = tracing.restore(patches)
        if leftover:
            problems.append(f"not restored after tracing: {leftover}")
        mismatched.update(i for i, o in enumerate(outputs) if o != reference[i])
        points = sum(max(0, len(text.splitlines()) - 1) for _, text in outputs)  # rows, no header
        runs.append(_layer_metrics(tr, points))
        last = tr

    def pair(k):
        # Alternate the order so drift does not favour one side.
        for step in ((untraced, traced) if k % 2 == 0 else (traced, untraced)):
            step()

    pairs = _timed_loop(seconds, MIN_REPLAY_PAIRS, pair)
    for i, inv in enumerate(invs):
        code, text = reference[i]
        if i in mismatched:
            code = -1  # traced and untraced replays disagree: every point fails
        _check_cli_output(inv, code, text, tally, oracle)

    with open(spans_path, "w") as f:
        for span_id, parent, request, name, start, end in last.spans:
            f.write(json.dumps({"id": span_id, "parent": parent, "request": request,
                                "name": name, "start_s": start, "end_s": end}) + "\n")

    metrics = {k: float(statistics.median(r[k] for r in runs)) for k in runs[0]}
    metrics["trace.overhead_ratio"] = statistics.median(traced_s) / statistics.median(untraced_s)
    details = {
        "replay_pairs": pairs,
        "untraced_replay_s": statistics.median(untraced_s),
        "traced_replay_s": statistics.median(traced_s),
        "traced_outputs_identical": not mismatched,
        "spans_written": len(last.spans),
    }
    return metrics, details


def _source_files() -> list[Path]:
    files = [p for d in ("src", "tests") for p in sorted((ROOT / d).rglob("*.py"))]
    return files + [p for p in (ROOT / "pyproject.toml",) if p.is_file()]


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in _source_files():
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git repository, read without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def tier1_wall(source_hash: str) -> dict:
    """Wall time of the Tier-1 suite; informational, measured once per source hash."""
    cache = OUT / "tier1.json"
    if cache.is_file():
        cached = json.loads(cache.read_text())
        if cached.get("source_sha256") == source_hash:
            return dict(cached, cached=True)
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, *TIER1_COMMAND], cwd=ROOT, env=_child_env(),
                              capture_output=True, text=True, timeout=TIER1_TIMEOUT_S)
        code, lines = proc.returncode, proc.stdout.strip().splitlines()
    except subprocess.TimeoutExpired:
        code, lines = None, ["timed out"]
    record = {
        "command": "PYTHONPATH=src python " + " ".join(TIER1_COMMAND),
        "wall_s": time.perf_counter() - start,
        "exit_code": code,
        "summary": lines[-1] if lines else "",
        "source_sha256": source_hash,
    }
    cache.write_text(json.dumps(record, indent=2) + "\n")
    return dict(record, cached=False)


def environment(seed: int, invs, source_hash: str, cpus: set[int], pinned: int) -> dict:
    import mpmath

    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(cpus),
        "pinned_cpu": pinned,
        "dps": sorted({inv.dps for inv in invs}),
        "seed": seed,
        "git_commit": git_commit(),
        "source_sha256": source_hash,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("modesum", "scan", "stress"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", choices=("0", "1"), default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics (default: both)")
    args = parser.parse_args(argv)

    if not (SRC / "casimir_cutoff" / "__init__.py").is_file():
        print(f"error: no package sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    os.environ.pop("CASIMIR_PRECISION", None)
    sys.path.insert(0, str(SRC))
    import casimir_cutoff
    import workloads

    if Path(casimir_cutoff.__file__).resolve().parent != SRC / "casimir_cutoff":
        print(f"error: imported {casimir_cutoff.__file__}, not the checkout's", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    # One core for the benchmark and every process it starts, so the
    # reference timings run where the measured work runs.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    invs = workloads.generate(args.workload, args.seed)
    problems = []
    if workloads.generate(args.workload, args.seed) != invs:
        problems.append("the same seed gave different inputs")

    tally = Tally()
    metrics, details = {}, {}
    wanted = []
    if args.trace in (None, "0"):
        m, d = measure_end_to_end(invs, args.seconds, tally, problems)
        metrics.update(m)
        details.update(d)
        wanted += declared["end_to_end"]
    if args.trace in (None, "1"):
        m, d = measure_layers(invs, args.seconds, tally, problems,
                              OUT / f"spans-{args.workload}.jsonl")
        metrics.update(m)
        details.update(d)
        wanted += declared["per_layer"]

    source_hash = source_sha256()
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": environment(args.seed, invs, source_hash, cpus, min(cpus)),
        "inputs": workloads.input_stats(invs),
        "fail_frac": tally.failed / max(1, tally.attempted),
        "failures": tally.notes,
        "problems": problems,
        "details": details,
        "tier1": tier1_wall(source_hash),
    }
    result = {
        "correct": tally.failed == 0 and not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    (OUT / f"report-{args.workload}.json").write_text(json.dumps(report, indent=2) + "\n")
    for m in wanted:
        print(f"{m['name']:<40} {metrics[m['name']]:.6g} {m['unit']}")
    print(f"{'fail_frac':<40} {report['fail_frac']:.6g} ratio")
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
