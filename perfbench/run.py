"""End-to-end and per-layer benchmark of the chebiter command line.

    python3 perfbench/run.py [--workload ista-sweep|deblur|cli-small|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Every workload calls ``chebiter.cli.main`` in this process, in a closed
loop: one caller, the next invocation starts when the previous one has
returned, and each invocation writes through --out into a fresh
directory under .perfbench/ in the checkout. After each invocation the
written files are checked against perfbench/reference.json. The run
measures for --seconds and at least MIN_UNITS units. Times are scaled to
a reference machine speed with the workload's calibration kernel from
speed.py.

--trace 0 reports the end-to-end metrics with no wrappers installed.
--trace 1 alternates traced and untraced units, reports the per-layer
metrics of the traced ones and the tracing overhead, and writes the spans
to .perfbench/spans-<workload>.npz. The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
See perfbench/README.md for why each workload exists.
"""
from __future__ import annotations

import os

# The BLAS thread count is fixed before numpy loads. At the default two
# threads the 784x784 matvec of the deblur study stalled for 2-11 ms now
# and then; at one thread it never took more than 1.2 ms.
BLAS_THREADS = "1"
os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
os.environ["OMP_NUM_THREADS"] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable, Dict, List, Tuple  # noqa: E402

from outputs import collect, compare, load_reference, useful_steps  # noqa: E402
from speed import dense_kernel, measured, mixed_kernel  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"

MIN_UNITS = 100  # call_p90_ms needs ten samples beyond it
MAX_SECONDS = 120.0  # the timed loop stops here even short of MIN_UNITS
SETUPS = 7  # fresh interpreters timed per untraced run; setup_s is their median

Unit = List[List[str]]  # the argv lists of one unit, each run as one invocation


@dataclass(frozen=True)
class Workload:
    unit: Callable[[random.Random], Unit]
    # units in the job wall_s is scaled to: the study at its default size
    reference_units: int
    # calibration kernel that times are scaled by (see speed.py)
    kernel: Callable[[], None]


# cli-small draws from these pools; perfbench/reference.json holds every
# combination.
BOUNDS_RANGES = [("0.6766", "1.922"), ("0.1", "0.9"), ("0.03", "1.0"), ("0.18", "0.98")]
SEED_POOL = [str(s) for s in range(8)]


def cli_round(rng: random.Random) -> Unit:
    a, b = rng.choice(BOUNDS_RANGES)
    calls = [
        ["bounds", "--a", a, "--b", b],
        ["jacobi", "--seed", rng.choice(SEED_POOL)],
        ["toy", "--map", "power"],
        ["toy", "--map", "tanh"],
        ["toy", "--map", "gram", "--seed", rng.choice(SEED_POOL)],
    ]
    rng.shuffle(calls)
    return calls


# ista and deblur number their instances 0, 1, ... inside the program and
# the CLI has no flag to start elsewhere, so every unit of these two runs
# instance 0; the seed orders and parameterises the cli-small rounds.
WORKLOADS: Dict[str, Workload] = {
    "ista-sweep": Workload(
        lambda rng: [["ista", "--seeds", "1", "--record-first", "0"]], 100, mixed_kernel
    ),
    "deblur": Workload(lambda rng: [["deblur", "--seeds", "1"]], 10, dense_kernel),
    "cli-small": Workload(cli_round, 1, mixed_kernel),
}


def import_chebiter():
    """Import chebiter from this checkout's src/, or exit with code 1."""
    sys.path.insert(0, str(SRC))
    try:
        import chebiter
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import chebiter from {SRC}: {exc}")
    if not Path(chebiter.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: chebiter was imported from {chebiter.__file__}, not {SRC}")


def machine_facts() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
    }


@contextlib.contextmanager
def scratch_dir():
    SCRATCH.mkdir(exist_ok=True)
    path = tempfile.mkdtemp(dir=SCRATCH)
    try:
        yield path
    finally:
        shutil.rmtree(path)


SETUP_CHILD = """
import contextlib, io, json, os, sys, time
sys.path.insert(0, sys.argv[1])
import chebiter
import chebiter.cli
codes = []
for i, argv in enumerate(json.loads(sys.argv[3])):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(chebiter.cli.main(argv + ["--out", os.path.join(sys.argv[2], str(i))]))
print(time.monotonic(), max(codes))
"""


def setup_seconds(unit: Unit) -> float:
    """Seconds from starting a fresh interpreter through ``import chebiter``
    to the end of one untimed warm-up unit."""
    with scratch_dir() as tmp:
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(SRC), tmp, json.dumps(unit)],
            capture_output=True,
            text=True,
            timeout=60,
        )
    if proc.returncode != 0 or proc.stdout.split()[1:] != ["0"]:
        sys.exit(f"perfbench: set-up run failed: {proc.stdout}{proc.stderr}")
    return float(proc.stdout.split()[0]) - t0


def run_unit(unit: Unit, references: dict, main, tracer=None, unit_id: int = -1):
    """Run one unit; return its wall seconds (invocations only), the list
    of problems found in its outputs, and per invocation the outputs with
    the steps of the Chebyshev-scheduled runs it returned (traced only)."""
    elapsed = 0.0
    problems: List[str] = []
    written = []
    for argv in unit:
        key = " ".join(argv)
        with scratch_dir() as tmp:
            out_dir = os.path.join(tmp, "out")
            if tracer is not None:
                tracer.unit_id = unit_id
                tracer.install()
            sink = io.StringIO()
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    t0 = time.perf_counter()
                    try:
                        code = main(argv + ["--out", out_dir])
                    finally:
                        elapsed += time.perf_counter() - t0
            except Exception as exc:  # a crash is a failed unit, not a failed run
                code = repr(exc)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            if code != 0:
                problems.append(f"{key}: exit {code}: {sink.getvalue()[-300:]}")
                continue
            if key not in references:
                problems.append(f"{key}: no reference values")
                continue
            try:
                out = collect(out_dir)
            except (OSError, ValueError) as exc:
                problems.append(f"{key}: unreadable output: {exc!r}")
                continue
            problems.extend(f"{key}: {p}" for p in compare(out, references[key]))
            written.append((out, tracer.cheb_steps if tracer is not None else []))
    return elapsed, problems, written


@dataclass
class Result:
    metrics: Dict[str, Tuple[float, str]]
    attempted: int
    failed: int
    failures: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.failures


def percentile_90(values: List[float]):
    """The 90th percentile, or None unless ten samples lie beyond it."""
    if len(values) < 2:
        return None
    p90 = statistics.quantiles(values, n=10)[-1]
    return p90 if sum(v > p90 for v in values) >= 10 else None


def run_workload(
    name: str,
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    references: dict,
    min_units: int = MIN_UNITS,
    setups: int = SETUPS,
) -> Result:
    import chebiter.cli as cli
    from tracing import Tracer, layer_metrics  # imports chebiter, so not at the top

    rng = random.Random(seed)
    setup_raw, setup_scale = [], []
    for _ in range(0 if trace else setups):
        unit = workload.unit(rng)
        took, scale = measured(lambda: setup_seconds(unit), workload.kernel)
        setup_raw.append(took)
        setup_scale.append(scale)
    tracer = Tracer() if trace else None
    traced_main = tracer.wrap(cli.main, "cli.main") if trace else None

    (_, failures, _), warmup_scale = measured(
        lambda: run_unit(workload.unit(rng), references, traced_main or cli.main, tracer),
        workload.kernel,
    )
    raw: Dict[bool, List[float]] = {False: [], True: []}
    scaled: Dict[bool, List[float]] = {False: [], True: []}
    unit_scale = [warmup_scale]  # indexed by unit id + 1
    files = Counter()
    attempted = failed = 0
    notes = []
    start = time.monotonic()
    while attempted < min_units or time.monotonic() - start < seconds:
        if time.monotonic() - start > MAX_SECONDS:
            notes.append(f"stopped at {MAX_SECONDS:.0f} s after {attempted} units")
            break
        traced = trace and attempted % 2 == 0
        unit = workload.unit(rng)
        gc.collect()
        (elapsed, problems, written), scale = measured(
            lambda: run_unit(
                unit,
                references,
                traced_main if traced else cli.main,
                tracer if traced else None,
                attempted,
            ),
            workload.kernel,
        )
        attempted += 1
        failed += bool(problems)
        failures.extend(problems)
        raw[traced].append(elapsed)
        scaled[traced].append(elapsed * scale)
        unit_scale.append(scale)
        for out, cheb_steps in written if traced else ():
            useful, scheduled = useful_steps(out, cheb_steps)
            files.update(
                traceio_rows=out.trace_rows,
                traceio_bytes=out.trace_bytes,
                useful_steps=useful,
                cheb_steps=scheduled,
            )

    if trace:
        metrics = layer_metrics(tracer, len(scaled[True]), files, unit_scale)
        metrics["bench.trace_overhead"] = (
            statistics.fmean(scaled[True]) / statistics.fmean(scaled[False]),
            "ratio",
        )
        tracer.save(SCRATCH / f"spans-{name}.npz")
        notes.append(
            f"per-layer figures over {len(scaled[True])} traced units, times at the "
            f"reference speed; spans in {SCRATCH.name}/spans-{name}.npz"
        )
        return Result(metrics, attempted, failed, failures, notes)

    def timings(lat: List[float], setup: List[float]) -> Dict[str, Tuple[float, str]]:
        lat_ms = [x * 1e3 for x in lat]
        out = {
            "wall_s": (statistics.fmean(lat) * workload.reference_units, "s"),
            "call_p50_ms": (statistics.median(lat_ms), "ms"),
        }
        p90 = percentile_90(lat_ms)
        if p90 is not None:
            out["call_p90_ms"] = (p90, "ms")
        out["setup_s"] = (statistics.median(setup), "s")
        return out

    metrics = timings(scaled[False], [t * k for t, k in zip(setup_raw, setup_scale)])
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    unscaled = " ".join(f"{k}={v:.6g}" for k, (v, _) in timings(raw[False], setup_raw).items())
    notes += [
        f"{len(raw[False])} units; wall_s is their mean scaled to "
        f"{workload.reference_units} unit(s); setup_s is the median of {setups} "
        "fresh interpreters",
        f"times above are at the reference speed; median speed factor "
        f"{statistics.median(unit_scale):.4g}; unscaled: {unscaled}",
    ]
    return Result(metrics, attempted, failed, failures, notes)


def print_result(name: str, result: Result) -> None:
    print(f"{name}:")
    for metric, (value, unit) in result.metrics.items():
        print(f"  {metric:<38} {value:>14.6g} {unit}")
    ratio = result.failed / result.attempted if result.attempted else 0.0
    print(f"  {'failed_ratio':<38} {ratio:>14.6g} ratio ({result.failed}/{result.attempted})")
    for note in result.notes:
        print(f"  note: {note}")
    for failure in result.failures[:10]:
        print(f"  FAILED {failure}")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_chebiter()
    references = load_reference()["units"]
    print(f"machine: {json.dumps(machine_facts())}")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(
            name, WORKLOADS[name], args.seed, args.seconds, bool(args.trace), references
        )
        print_result(name, results[name])
    prefix = len(names) > 1
    summary = {
        "correct": all(r.correct for r in results.values()),
        "attempted": sum(r.attempted for r in results.values()),
        "failed": sum(r.failed for r in results.values()),
        "metrics": {
            (f"{name}.{metric}" if prefix else metric): {"value": value, "unit": unit}
            for name, r in results.items()
            for metric, (value, unit) in r.metrics.items()
        },
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
