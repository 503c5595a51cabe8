"""Record perfbench/reference.json: the outputs of every unit the
benchmark and its self-check can run, at the pinned BLAS thread count.

    python3 perfbench/record_reference.py

Run it only on a commit whose outputs are known to be right; the
benchmark counts any later difference beyond the tolerance of
perfbench/outputs.py as a failed unit.
"""
from __future__ import annotations

import contextlib
import io
import json
import os

import run  # pins the BLAS thread count before numpy loads
from outputs import REFERENCE_PATH, collect, reference_entry
from selfcheck import TINY_WORKLOADS


def all_units():
    units = [["bounds", "--a", a, "--b", b] for a, b in run.BOUNDS_RANGES]
    units += [["jacobi", "--seed", s] for s in run.SEED_POOL]
    units += [["toy", "--map", "power"], ["toy", "--map", "tanh"]]
    units += [["toy", "--map", "gram", "--seed", s] for s in run.SEED_POOL]
    for workloads in (run.WORKLOADS, TINY_WORKLOADS):
        for name in ("ista-sweep", "deblur"):
            units += workloads[name].unit(None)
    return units


def main() -> None:
    run.import_chebiter()
    import chebiter.cli as cli

    entries = {}
    for argv in all_units():
        with run.scratch_dir() as tmp:
            out_dir = os.path.join(tmp, "out")
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv + ["--out", out_dir])
            if code != 0:
                raise SystemExit(f"{' '.join(argv)} exited with {code}")
            entries[" ".join(argv)] = reference_entry(collect(out_dir))
    with open(REFERENCE_PATH, "w") as fh:
        json.dump({"recorded_with": run.machine_facts(), "units": entries}, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(entries)} reference entries to {REFERENCE_PATH}")


if __name__ == "__main__":
    main()
