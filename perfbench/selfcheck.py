"""Self-check of the benchmark at tiny sizes.

    python3 perfbench/selfcheck.py

Runs `ista --seeds 2 --iters 400`, `deblur --seeds 1 --iters 8` and
cli-small rounds through the code of run.py, untraced and traced, and
checks that

* every metric BENCHMARK.json names is printed by name with its unit;
* no unit fails against perfbench/reference.json;
* a reference value changed by one (an integer) or by one part in a
  million (a float) makes the unit fail.

Exits 0 when all of these hold, 1 otherwise, listing what did not.
"""
from __future__ import annotations

import contextlib
import copy
import io
import json
import random
import re
import sys

import run  # pins the BLAS thread count before numpy loads
from outputs import INT_COLUMNS, load_reference

TINY_WORKLOADS = {
    "ista-sweep": run.Workload(
        lambda rng: [["ista", "--seeds", "2", "--iters", "400"]], 50, run.mixed_kernel
    ),
    "deblur": run.Workload(
        lambda rng: [["deblur", "--seeds", "1", "--iters", "8"]], 10, run.dense_kernel
    ),
    "cli-small": run.WORKLOADS["cli-small"],
}


def check_metrics_print(name: str, workload, trace: bool, spec: dict, refs: dict) -> list:
    expected = spec["per_layer" if trace else "end_to_end"]
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        result = run.run_workload(
            name,
            workload,
            seed=1,
            seconds=0,
            trace=trace,
            references=refs,
            min_units=4 if trace else run.MIN_UNITS,
            setups=2,
        )
        run.print_result(name, result)
    problems = [f"{name}: {failure}" for failure in result.failures]
    for metric in expected:
        line = rf"^  {re.escape(metric['name'])} +\S+ {re.escape(metric['unit'])}\b"
        if not re.search(line, text.getvalue(), re.M):
            problems.append(f"{name} trace={int(trace)}: {metric['name']} [{metric['unit']}] not printed")
    return problems


def perturbed(refs: dict, key: str, want_int: bool):
    """A copy of refs with one integer or float cell of key's first summary
    row changed, and the name of that column."""
    refs = copy.deepcopy(refs)
    row = next(iter(refs[key]["tables"].values()))[0]
    for column, cell in row.items():
        if want_int and column in INT_COLUMNS:
            row[column] = str(int(cell) + 1)
            return refs, column
        if not want_int and column not in INT_COLUMNS and ("." in cell or "e" in cell):
            row[column] = repr(float(cell) * (1.0 + 1e-6))
            return refs, column
    raise LookupError(f"{key} has no {'integer' if want_int else 'float'} column")


def check_perturbation_caught(name: str, workload, refs: dict) -> list:
    import chebiter.cli as cli

    unit = workload.unit(random.Random(0))[:1]
    problems = []
    for want_int in (True, False):
        bad_refs, column = perturbed(refs, " ".join(unit[0]), want_int)
        _, found, _ = run.run_unit(unit, bad_refs, cli.main)
        if not any(column in p for p in found):
            problems.append(f"{name}: perturbed reference column {column} was not caught")
    return problems


def main() -> int:
    run.import_chebiter()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    refs = load_reference()["units"]
    problems = []
    for name, workload in TINY_WORKLOADS.items():
        for trace in (False, True):
            problems += check_metrics_print(name, workload, trace, spec, refs)
        problems += check_perturbation_caught(name, workload, refs)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selfcheck:", "failed" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
