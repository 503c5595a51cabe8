"""Reading an invocation's output directory and checking it against the
recorded reference values.

Byte identity of the outputs is the test suite's job. Here a unit fails
when a written number is not finite, when the set of files or their row
counts differ from the reference, when an integer column differs at all,
or when a float differs by more than REL_TOL relative plus ABS_TOL
absolute. The float tolerance admits changes in rounding, such as a
matrix-free blur that matches the dense product to about 3e-15, and
still catches a changed result.
"""
from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

REL_TOL = 1e-9
ABS_TOL = 1e-13
INT_COLUMNS = frozenset(
    {"seed", "period", "iters_to_threshold", "cheb_iters_to_target", "fista_win", "cheb_win"}
)


@dataclass
class Outputs:
    """What one invocation wrote: summary tables, the size of every file
    (data rows for CSV, bytes otherwise), traceio's rows and bytes, and
    any non-finite cells found."""

    tables: Dict[str, List[dict]] = field(default_factory=dict)
    sizes: Dict[str, int] = field(default_factory=dict)
    trace_rows: int = 0
    trace_bytes: int = 0
    nonfinite: List[str] = field(default_factory=list)


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def collect(out_dir) -> Outputs:
    out = Outputs()
    if not os.path.isdir(out_dir):
        return out
    for name in sorted(os.listdir(out_dir)):
        path = os.path.join(out_dir, name)
        if not name.endswith(".csv"):
            out.sizes[name] = os.path.getsize(path)
            if name.endswith(".pgm"):
                out.trace_bytes += out.sizes[name]
            continue
        with open(path, newline="") as fh:
            header, *rows = list(csv.reader(fh))
        out.sizes[name] = len(rows)
        for row in rows:
            for cell in row:
                if _is_number(cell) and not math.isfinite(float(cell)):
                    out.nonfinite.append(f"{name}: {cell}")
        if name.endswith("_traces.csv"):
            out.trace_rows += len(rows)
            out.trace_bytes += os.path.getsize(path)
        else:
            out.tables[name] = [dict(zip(header, row)) for row in rows]
    return out


def _cell_matches(column: str, got: str, ref: str) -> bool:
    if got == ref:
        return True
    if column in INT_COLUMNS or not (_is_number(got) and _is_number(ref)):
        return False
    return math.isclose(float(got), float(ref), rel_tol=REL_TOL, abs_tol=ABS_TOL)


def compare(out: Outputs, ref: dict) -> List[str]:
    """Differences between an invocation's outputs and its reference entry."""
    problems = [f"non-finite value in {cell}" for cell in out.nonfinite]
    if out.sizes != ref["sizes"]:
        problems.append(f"files {out.sizes} differ from reference {ref['sizes']}")
    for name, ref_rows in ref["tables"].items():
        rows = out.tables.get(name, [])
        if len(rows) != len(ref_rows):
            problems.append(f"{name}: {len(rows)} rows, reference has {len(ref_rows)}")
            continue
        for i, (row, ref_row) in enumerate(zip(rows, ref_rows)):
            if row.keys() != ref_row.keys():
                problems.append(f"{name} row {i}: columns {list(row)} differ from reference")
                continue
            for column, ref_cell in ref_row.items():
                if not _cell_matches(column, row[column], ref_cell):
                    problems.append(
                        f"{name} row {i} {column}: {row[column]} != reference {ref_cell}"
                    )
    return problems


def reference_entry(out: Outputs) -> dict:
    return {"sizes": out.sizes, "tables": out.tables}


def useful_steps(out: Outputs, cheb_steps: List[int]):
    """(useful, run) Chebyshev-scheduled steps of one invocation.

    The summary gives each scheduled run's first hit of the study's
    target (ista's cheb_iters_to_target, the toy and jacobi studies'
    iters_to_threshold on cheb rows); cheb_steps gives the steps of the
    Chebyshev-scheduled runs the invocation returned, in the same order.
    Steps up to the hit are useful; a run that never hits counts all its
    steps, since stopping early would not have saved any. Invocations
    whose studies have no target (deblur, toy tanh) count nothing.
    """
    hits = [
        int(row["cheb_iters_to_target"] if "cheb_iters_to_target" in row else row["iters_to_threshold"])
        for rows in out.tables.values()
        for row in rows
        if "cheb_iters_to_target" in row
        or ("iters_to_threshold" in row and row["solver"].startswith("cheb"))
    ]
    if not hits or len(hits) != len(cheb_steps):
        return 0, 0
    return sum(n if hit < 0 else hit for hit, n in zip(hits, cheb_steps)), sum(cheb_steps)


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)
