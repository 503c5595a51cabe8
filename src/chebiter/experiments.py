"""Reference experiments: each driver builds a seeded problem instance,
runs the plain, best-constant, and Chebyshev-scheduled iterations on it,
and returns an ExperimentResult of error traces and a summary table (and
images, for the deblurring study); result.write(dir) writes them into a
directory. The Jacobi and toy-map studies, one instance each, share one
comparison path, _compare.

Defaults are the desk-scale study settings; rerunning a driver with the
same arguments reproduces its written files byte for byte.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from .core import (
    EigenRange,
    FixedPointMap,
    InertialSchedule,
    StopReason,
    _count,
    _index,
    chebyshev_schedule,
    plain_schedule,
    run_inertial,
)
from .errors import InvalidInput, NotConverged
from .problems import (
    build_ista,
    deblur_map,
    fista_run,
    gen_gram_matrix,
    gen_jacobi_instance,
    gen_sparse_instance,
    gen_synthetic_image,
    blur_map,
    jacobi_map,
    power_map,
    tanh_affine_map,
    tanh_equation_map,
)
from .spectral import (
    estimate_eigen_range,
    per_step_rate,
    per_step_rate_limit,
    period_contraction_bound,
)
from .traceio import TraceRecord, write_pgm, write_rows_csv, write_trace_csv

__all__ = [
    "ExperimentResult",
    "bounds_rows",
    "run_jacobi",
    "run_toy_power",
    "run_tanh_solve",
    "run_tanh_gram",
    "run_ista",
    "run_deblur",
]


@dataclass
class ExperimentResult:
    """Everything a driver produced: traces, summary rows, optional
    images, headline numbers for printing, and divergence warnings."""

    name: str
    records: List[TraceRecord] = field(default_factory=list)
    summary: List[dict] = field(default_factory=list)
    images: Dict[str, np.ndarray] = field(default_factory=dict)
    headline: Dict[str, float] = field(default_factory=dict)
    warnings: List[str] = field(default_factory=list)

    def trace_path(self, out_dir) -> str:
        return os.path.join(out_dir, f"{self.name}_traces.csv")

    def summary_path(self, out_dir) -> str:
        return os.path.join(out_dir, f"{self.name}_summary.csv")

    def write(self, out_dir) -> None:
        """Write the traces, the summary and any images into out_dir,
        making the directory if it is missing."""
        os.makedirs(out_dir, exist_ok=True)
        write_trace_csv(self.trace_path(out_dir), self.records)
        write_rows_csv(self.summary_path(out_dir), self.summary)
        for key, img in self.images.items():
            write_pgm(os.path.join(out_dir, f"{self.name}_{key}.pgm"), img)


def _iters_to(errors: np.ndarray, threshold: float) -> int:
    """First iterate index at or below threshold, or -1 if never reached."""
    hits = np.nonzero(errors <= threshold)[0]
    return int(hits[0]) if hits.size else -1


def _warn_if_diverged(result: ExperimentResult, run_id: str, trace) -> None:
    if trace.stop_reason is StopReason.DIVERGENCE:
        result.warnings.append(f"{result.name}: run {run_id} diverged after {trace.steps} steps")


def _run_solvers(
    fpmap: FixedPointMap,
    schedules: Dict[str, InertialSchedule],
    x0: np.ndarray,
    iters: int,
    x_ref: np.ndarray,
    result: ExperimentResult,
    run_prefix: str = "",
):
    """Run each named schedule, append trace records, return the traces."""
    traces = {}
    for solver, sched in schedules.items():
        run_id = f"{run_prefix}{solver}"
        tr = run_inertial(fpmap, sched, x0, x_ref, iters)
        _warn_if_diverged(result, run_id, tr)
        result.records.append(TraceRecord(run_id, solver, tr.errors, tr.factors_used))
        traces[solver] = tr
    return traces


def _compare(
    result: ExperimentResult,
    fpmap: FixedPointMap,
    x0: np.ndarray,
    x_star: np.ndarray,
    periods: Sequence[int],
    iters: int,
    bounds: Sequence[str] = (),
    threshold: Optional[float] = None,
):
    """Measure the clipped range at x_star, run plain, sor (the best
    constant factor, the period-1 Chebyshev schedule) if 1 is among the
    periods and cheb<T> for each period T above one from x0, and append
    their summary rows; return the range and the traces by solver. A row
    has the bound columns the study names and, with a threshold,
    iters_to_threshold and threshold; plain's range and bounds are blank.
    """
    rng = estimate_eigen_range(fpmap, x_star).clipped()
    schedules: Dict[str, InertialSchedule] = {"plain": plain_schedule()}
    if 1 in periods:
        schedules["sor"] = chebyshev_schedule(rng, 1)
    for T in periods:
        if _count(T, "period") > 1:
            schedules[f"cheb{T}"] = chebyshev_schedule(rng, T)
    traces = _run_solvers(fpmap, schedules, x0, iters, x_star, result)
    unnamed = {"period_bound", "per_step", "limit"}.difference(bounds)
    for solver, tr in traces.items():
        T = schedules[solver].period
        scheduled = solver != "plain"
        row = {
            "solver": solver,
            "period": T,
            "range_a": rng.a if scheduled else "",
            "range_b": rng.b if scheduled else "",
            "period_bound": period_contraction_bound(rng, T) if scheduled else "",
            "per_step": per_step_rate(rng, T) if scheduled else "",
            "limit": per_step_rate_limit(rng),
            "final_error": float(tr.errors[-1]),
        }
        if threshold is not None:
            row["iters_to_threshold"] = _iters_to(tr.errors, threshold)
            row["threshold"] = threshold
        result.summary.append({k: v for k, v in row.items() if k not in unnamed})
    return rng, traces


def bounds_rows(
    a: float = 0.6766, b: float = 1.922, periods: Sequence[int] = (1, 2, 4, 8)
) -> List[dict]:
    """Contraction bound table for the range [a, b] at each period."""
    rng = EigenRange(a, b)
    rows = []
    for T in periods:
        # The limit first: it raises InvalidRange for a <= 0 before the
        # constant-factor rate below could divide by a + b = 0.
        limit = per_step_rate_limit(rng)
        rows.append(
            {
                "period": int(T),
                "range_a": rng.a,
                "range_b": rng.b,
                "sor_factor": chebyshev_schedule(rng, 1).factors[0],
                "sor_rate": (rng.b - rng.a) / (rng.b + rng.a),
                "period_bound": period_contraction_bound(rng, T),
                "per_step": per_step_rate(rng, T),
                "limit": limit,
            }
        )
    return rows


def run_jacobi(
    n: int = 64,
    seed: int = 0,
    periods: Sequence[int] = (1, 8),
    iters: int = 40,
) -> ExperimentResult:
    """Jacobi iteration on a random diagonally dominant system.

    The right-hand side is zero, so errors are exact distances to the
    solution. The eigenvalue range comes from the map's own spectrum
    certificate at the solution.
    """
    result = ExperimentResult("jacobi")
    inst = gen_jacobi_instance(n, seed)
    fpmap = jacobi_map(inst.P, np.zeros(n))
    threshold = 1e-6 * float(np.linalg.norm(inst.x0))
    bounds = ("period_bound", "per_step")
    rng, _ = _compare(result, fpmap, inst.x0, np.zeros(n), periods, iters, bounds, threshold)
    result.headline = {"range_a": rng.a, "range_b": rng.b}
    return result


def run_toy_power(
    periods: Sequence[int] = (1, 2, 8),
    iters: int = 40,
) -> ExperimentResult:
    """Two-dimensional fractional power map study from the start (2, 2).

    A 60-step plain pilot run locates the fixed point (the plain iteration
    contracts comfortably here); the schedule range is then measured at
    that point and the solvers compared on iterations to 1e-10.
    """
    result = ExperimentResult("toy_power")
    fpmap = power_map()
    x0 = np.array([2.0, 2.0])
    # Only the pilot's x_final is read; against the origin its errors come free.
    pilot = run_inertial(fpmap, plain_schedule(), x0, np.zeros(2), 60)
    x_star = pilot.x_final
    rng, _ = _compare(result, fpmap, x0, x_star, periods, iters, ("per_step",), 1e-10)
    result.headline = {
        "fixed_point_1": float(x_star[0]),
        "fixed_point_2": float(x_star[1]),
        "range_a": rng.a,
        "range_b": rng.b,
    }
    return result


def run_tanh_solve(
    periods: Sequence[int] = (8,),
    iters: int = 20,
) -> ExperimentResult:
    """Solving x + tanh(x) = y for y = (0.1, 0.6), where the plain
    iteration barely moves.

    Every eigenvalue of B lies in (1, 2], so a 40-step pilot phase runs a
    Chebyshev schedule of the first period on that whole interval (the
    plain iteration would need thousands of steps), then the measured
    range at the solution drives the comparison runs. The headline gives
    the final errors of plain and of the last schedule run, not their
    ratio: the reference point is the pilot's endpoint, which a scheduled
    run can land on exactly.
    """
    if not periods:
        raise InvalidInput(f"periods must name at least one period, got {periods!r}")
    result = ExperimentResult("tanh_solve")
    fpmap = tanh_equation_map(np.array([0.1, 0.6]))
    x0 = np.zeros(fpmap.dim)
    # 1e-6 short of 2: the pilot range the study has always run, kept for its bytes.
    coarse = EigenRange(1.0, 2.0 - 1e-6)
    # Only the pilot's x_final is read; against the origin its errors come free.
    pilot = run_inertial(fpmap, chebyshev_schedule(coarse, periods[0]), x0, np.zeros(2), 40)
    x_star = pilot.x_final
    rng, traces = _compare(result, fpmap, x0, x_star, periods, iters)
    result.headline = {
        "solution_1": float(x_star[0]),
        "solution_2": float(x_star[1]),
        "range_a": rng.a,
        "range_b": rng.b,
        "plain_final": float(traces["plain"].errors[-1]),
        "cheb_final": float(traces[list(traces)[-1]].errors[-1]),
    }
    return result


def run_tanh_gram(
    n: int = 128,
    seed: int = 0,
    std: float = 0.022,
    lam_max: float = 0.97,
    periods: Sequence[int] = (2, 4, 8),
    iters: int = 400,
) -> ExperimentResult:
    """Contraction of x <- tanh(A x) for a Gram matrix A toward zero.

    A is rescaled so its top eigenvalue is exactly lam_max, pinning the
    schedule range at (1 - lam_max, 1 - lam_min). Per-period error ratios
    from the traces can be compared against the closed-form bound.
    """
    result = ExperimentResult("tanh_gram")
    A = gen_gram_matrix(n, std, seed, lam_max=lam_max)
    fpmap = tanh_affine_map(A)
    bounds = ("period_bound", "per_step", "limit")
    rng, _ = _compare(
        result, fpmap, np.ones(n), np.zeros(n), tuple(periods) + (1,), iters, bounds, 1e-10
    )
    # Unlike the other studies, this one writes the measured range on its
    # plain row too.
    result.summary[0]["range_a"], result.summary[0]["range_b"] = rng.a, rng.b
    result.headline = {"range_a": rng.a, "range_b": rng.b}
    return result


def run_ista(
    n: int = 256,
    m: int = 128,
    density: float = 0.1,
    noise: float = 0.1,
    seeds: int = 100,
    iters: int = 1500,
    period: int = 8,
    fista_iters: int = 100,
    record_first: int = 3,
) -> ExperimentResult:
    """Sparse recovery sweep comparing the scheduled smooth-shrinkage
    iteration against its plain version and an accelerated baseline.

    Per seed: the plain iteration runs to the full budget and its final
    recovery error becomes the target; the schedule range is measured at
    the plain solution through the spectrum certificate; the scheduled
    run then counts iterations until it reaches the target. The baseline
    comparison is at fista_iters iterations for both methods. Full traces
    are recorded for the first record_first seeds, summary rows for all;
    the other seeds' scheduled runs stop at the target.

    The schedule runs on the smoothed shrinkage map only. On the exact
    soft-shrinkage map, whose Jacobian diag(1[|u| > tau]) A the same
    certificate covers, cheb8 missed the plain target on 12 of 12 seeds:
    large factors push coordinates across the shrinkage kink. The exact
    map serves only the FISTA baseline.
    """
    seeds = _count(seeds, "seeds")
    record_first = _index(record_first, "record_first")
    if record_first < 0:
        raise InvalidInput(f"record_first must be >= 0, got {record_first}")
    result = ExperimentResult("ista")
    hit_counts = []
    fista_wins = 0
    for seed in range(seeds):
        inst = gen_sparse_instance(n, m, density, noise, seed)
        prob = build_ista(inst)
        x0 = np.zeros(n)
        plain_tr = run_inertial(prob.fpmap, plain_schedule(), x0, inst.x_true, iters)
        if plain_tr.stop_reason is StopReason.DIVERGENCE:
            raise NotConverged(f"plain run of seed {seed} diverged after {plain_tr.steps} steps")
        target = float(plain_tr.errors[-1])
        rng = estimate_eigen_range(prob.fpmap, plain_tr.x_final, fp_tol=1e-3).clipped()
        sched = chebyshev_schedule(rng, period)
        # Only the first hit of the target goes into the summary, so a run
        # whose trace is not recorded stops there.
        cheb_tr = run_inertial(
            prob.fpmap, sched, x0, inst.x_true, iters, None if seed < record_first else target
        )
        _warn_if_diverged(result, f"seed{seed}/cheb{period}", cheb_tr)
        hit = _iters_to(cheb_tr.errors, target)
        hit_counts.append(hit if hit >= 0 else iters + 1)
        fista_tr = fista_run(prob, fista_iters)
        plain_at = float(plain_tr.errors[min(fista_iters, plain_tr.steps)])
        fista_at = float(fista_tr.errors[-1])
        win = fista_at < plain_at
        fista_wins += int(win)
        if seed < record_first:
            runs = {"plain": plain_tr, f"cheb{period}": cheb_tr, "fista": fista_tr}
            for solver, tr in runs.items():
                result.records.append(
                    TraceRecord(f"seed{seed}/{solver}", solver, tr.errors, tr.factors_used)
                )
        result.summary.append(
            {
                "seed": seed,
                "range_a": rng.a,
                "range_b": rng.b,
                "target_error": target,
                "cheb_iters_to_target": hit,
                "plain_error_at_baseline": plain_at,
                "fista_error_at_baseline": fista_at,
                "fista_win": int(win),
            }
        )
    hits = np.asarray(hit_counts, dtype=float)
    result.headline = {
        "median_iters_to_target": float(np.median(hits)),
        "max_iters_to_target": float(np.max(hits)),
        "budget": float(iters),
        "fista_win_rate": fista_wins / seeds,
    }
    return result


def run_deblur(
    height: int = 28,
    width: int = 28,
    relax: float = 0.8,
    range_a: float = 0.18,
    range_b: float = 0.98,
    period: int = 8,
    iters: int = 128,
    seeds: int = 10,
) -> ExperimentResult:
    """Image deblurring through the saturating blur model.

    The observation is y = sigmoid(C x); the residual iteration starts at
    y itself. The schedule uses a fixed range rather than a per-image
    estimate, which is how this solver would run when the true image (and
    so the true range) is unknown. The default range does not enclose the
    spectrum: at the defaults the measured lower end is 0.012-0.051 on
    every seed, below range_a, and the upper end is above range_b on
    seeds 5 and 9 (1.003 and 1.030). The period contraction bound of
    (range_a, range_b) therefore does not cover the modes outside it; the
    schedule still beats the plain iteration on every default seed.
    The first seed's images go into result.images; write() saves them as
    PGM files alongside the traces.
    """
    seeds = _count(seeds, "seeds")
    result = ExperimentResult("deblur")
    rng = EigenRange(range_a, range_b)
    forward = blur_map(height, width)
    schedules = {"plain": plain_schedule(), f"cheb{period}": chebyshev_schedule(rng, period)}
    wins = 0
    for seed in range(seeds):
        img = gen_synthetic_image(height, width, seed)
        x_true = img.ravel()
        y = np.asarray(forward.eval(x_true))
        fpmap = deblur_map(y, height, width, relax=relax)
        measured = estimate_eigen_range(fpmap, x_true)
        traces = _run_solvers(fpmap, schedules, y.copy(), iters, x_true, result, run_prefix=f"seed{seed}/")
        finals = {}
        for solver, tr in traces.items():
            finals[solver] = float(np.mean((tr.x_final - x_true) ** 2))
        win = finals[f"cheb{period}"] < finals["plain"]
        wins += int(win)
        result.summary.append(
            {
                "seed": seed,
                "range_a": rng.a,
                "range_b": rng.b,
                "measured_a": measured.a,
                "measured_b": measured.b,
                "mse_plain": finals["plain"],
                "mse_cheb": finals[f"cheb{period}"],
                "cheb_win": int(win),
            }
        )
        if seed == 0:
            result.images["truth"] = img
            result.images["observed"] = y.reshape(height, width)
            for solver, tr in traces.items():
                result.images[solver] = tr.x_final.reshape(height, width)
    result.headline = {"wins": float(wins), "seeds": float(seeds)}
    return result
