"""Spans around the public calls of each chebiter layer, and the per-layer
metrics computed from them.

Wrappers replace module attributes where the caller looks them up (for
example ``chebiter.experiments.run_inertial``, which the study drivers
call), so no file of the package changes. Maps returned by the problem
builders get their ``eval`` and ``jacobian_spectrum`` wrapped as well.
Spans are kept in flat arrays while the run lasts and are written out,
and reduced to self times, only when it ends.
"""
from __future__ import annotations

import dataclasses
import time
from array import array

import numpy as np

import chebiter.cli as cli
import chebiter.core as core
import chebiter.experiments as experiments
import chebiter.problems as problems
from chebiter.core import FixedPointMap

# (module, attribute as the caller references it, span name or None, kind).
# kind "call" records a span; "builder" also traces the eval and spectrum
# hook of the maps it returns; "runner" also counts the returned steps.
WRAPS = [
    (cli, "bounds_rows", "experiments.driver", "call"),
    (cli, "run_jacobi", "experiments.driver", "call"),
    (cli, "run_toy_power", "experiments.driver", "call"),
    (cli, "run_tanh_solve", "experiments.driver", "call"),
    (cli, "run_tanh_gram", "experiments.driver", "call"),
    (cli, "run_ista", "experiments.driver", "call"),
    (cli, "run_deblur", "experiments.driver", "call"),
    (experiments, "run_inertial", "core.run_inertial", "runner"),
    (core, "inertial_step", "core.inertial_step", "call"),
    (experiments, "estimate_eigen_range", "spectral.estimate_eigen_range", "call"),
    (experiments, "write_trace_csv", "traceio.write", "call"),
    (experiments, "write_pgm", "traceio.write", "call"),
    (experiments, "build_ista", "problems.step_size", "builder"),
    (experiments, "fista_run", "problems.step_size", "call"),
    (experiments, "gen_sparse_instance", "problems.instance_gen", "call"),
    (experiments, "gen_synthetic_image", "problems.instance_gen", "call"),
    (experiments, "gen_jacobi_instance", "problems.instance_gen", "call"),
    (experiments, "gen_gram_matrix", "problems.instance_gen", "call"),
    (experiments, "blur_map", "problems.blur_map", "builder"),
    (problems, "blur_map", "problems.blur_map", "call"),
    (experiments, "deblur_map", None, "builder"),
    (experiments, "jacobi_map", None, "builder"),
    (experiments, "power_map", None, "builder"),
    (experiments, "tanh_affine_map", None, "builder"),
    (experiments, "tanh_equation_map", None, "builder"),
]


class Tracer:
    """In-memory spans (name, start, end, parent, unit id).

    unit_id is -1 during the warm-up invocation and the index of the
    timed unit otherwise. steps counts the steps of the traces that
    run_inertial returned in timed units; cheb_steps lists those of the
    Chebyshev-scheduled runs (period above one) since the last install.
    """

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.unit = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.unit_id = -1
        self.steps = 0
        self.cheb_steps = []
        self._saved = []

    def wrap(self, fn, name):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        stack = self._stack

        def traced(*args, **kwargs):
            i = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1])
            self.unit.append(self.unit_id)
            self.end.append(0.0)
            stack.append(i)
            self.start.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[i] = time.perf_counter()
                stack.pop()

        return traced

    def _traced_map(self, fpmap: FixedPointMap) -> FixedPointMap:
        hook = fpmap.jacobian_spectrum
        return dataclasses.replace(
            fpmap,
            eval=self.wrap(fpmap.eval, "problems.map_eval"),
            jacobian_spectrum=None if hook is None else self.wrap(hook, "spectral.hook"),
        )

    def _traced_maps(self, result):
        if isinstance(result, FixedPointMap):
            return self._traced_map(result)
        if isinstance(result, tuple):
            return tuple(self._traced_maps(item) for item in result)
        if hasattr(result, "fpmap"):
            return dataclasses.replace(result, fpmap=self._traced_map(result.fpmap))
        return result

    def _builder(self, fn, name):
        inner = fn if name is None else self.wrap(fn, name)

        def build(*args, **kwargs):
            return self._traced_maps(inner(*args, **kwargs))

        return build

    def _runner(self, fn, name):
        inner = self.wrap(fn, name)

        def run(fpmap, schedule, *args, **kwargs):
            trace = inner(fpmap, schedule, *args, **kwargs)
            if self.unit_id >= 0:
                self.steps += trace.steps
            if schedule.period > 1:
                self.cheb_steps.append(trace.steps)
            return trace

        return run

    def install(self) -> None:
        """Replace every attribute in WRAPS with its traced version."""
        self.cheb_steps = []
        make = {"call": self.wrap, "builder": self._builder, "runner": self._runner}
        for module, attr, name, kind in WRAPS:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, make[kind](fn, name))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "unit": np.frombuffer(self.unit, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def save(self, path) -> None:
        np.savez(path, **self.arrays())


def layer_metrics(tracer: Tracer, units: int, files: dict, unit_scale) -> dict:
    """Per-layer metrics as name -> (value, unit).

    Totals are divided by the number of traced timed units. A span's self
    time is its duration minus the durations of its direct children.
    Durations are multiplied by unit_scale[unit id + 1], which expresses
    them at the reference speed of speed.py.
    files holds counts taken from the written output files and returned
    traces of those units: traceio_rows, traceio_bytes, useful_steps and
    cheb_steps.
    """
    s = tracer.arrays()
    dur = (s["end"] - s["start"]) * np.asarray(unit_scale)[s["unit"] + 1]
    has_parent = s["parent"] >= 0
    child = np.bincount(s["parent"][has_parent], weights=dur[has_parent], minlength=dur.size)
    own = dur - child
    timed = s["unit"] >= 0

    def pick(name, among=timed):
        return among & (s["name"] == tracer.names.index(name))

    def total_ms(name, values=dur, among=timed):
        return float(values[pick(name, among)].sum()) * 1e3

    def per_unit_ms(name, values=dur):
        return total_ms(name, values) / units

    def calls(name):
        return int(pick(name).sum())

    steps = tracer.steps
    evals = calls("problems.map_eval")
    loop_self_ms = total_ms("core.run_inertial", own) + total_ms("core.inertial_step", own)
    return {
        "core.steps": (steps / units, "count/unit"),
        "core.step_overhead_us": (loop_self_ms * 1e3 / steps if steps else 0.0, "us"),
        "core.run_inertial.self_ms": (per_unit_ms("core.run_inertial", own), "ms/unit"),
        "core.inertial_step.self_ms": (per_unit_ms("core.inertial_step", own), "ms/unit"),
        "core.accept_ratio": (steps / calls("core.inertial_step") if steps else 1.0, "ratio"),
        "problems.map_eval.calls": (evals / units, "count/unit"),
        "problems.map_eval_us": (
            total_ms("problems.map_eval") * 1e3 / evals if evals else 0.0,
            "us",
        ),
        "problems.step_size.ms": (per_unit_ms("problems.step_size"), "ms/unit"),
        "problems.instance_gen.ms": (per_unit_ms("problems.instance_gen"), "ms/unit"),
        "problems.blur_map.ms": (total_ms("problems.blur_map", among=~timed), "ms"),
        "spectral.estimate_eigen_range.calls": (
            calls("spectral.estimate_eigen_range") / units,
            "count/unit",
        ),
        "spectral.estimate_eigen_range.ms": (
            per_unit_ms("spectral.estimate_eigen_range"),
            "ms/unit",
        ),
        "spectral.hook.ms": (per_unit_ms("spectral.hook"), "ms/unit"),
        "experiments.driver.self_ms": (per_unit_ms("experiments.driver", own), "ms/unit"),
        "experiments.useful_step_ratio": (
            files["useful_steps"] / files["cheb_steps"] if files["cheb_steps"] else 1.0,
            "ratio",
        ),
        "traceio.write.ms": (per_unit_ms("traceio.write"), "ms/unit"),
        "traceio.rows": (files["traceio_rows"] / units, "count/unit"),
        "traceio.bytes": (files["traceio_bytes"] / units, "B/unit"),
        "cli.main.self_ms": (per_unit_ms("cli.main", own), "ms/unit"),
    }
