"""End-to-end acceptance checks for the toolkit.

Each test prints exactly one line, [PASS] or [FAIL] plus the measured
numbers, and then asserts. Run with `pytest tests/test_acceptance.py -s`
to see all eleven lines; several checks also enforce wall-clock budgets,
so a heavily loaded machine can turn a numeric pass into a timing fail.
"""
import contextlib
import io
import time

import numpy as np
import pytest

from chebiter import (
    EigenRange,
    blur_map,
    build_ista,
    chebyshev_schedule,
    deblur_map,
    estimate_eigen_range,
    gen_gram_matrix,
    gen_jacobi_instance,
    gen_sparse_instance,
    gen_synthetic_image,
    jacobi_map,
    jacobian_fd,
    per_step_rate_limit,
    period_contraction_bound,
    period_polynomial,
    plain_schedule,
    power_map,
    real_spectrum_via_similarity,
    run_deblur,
    run_inertial,
    run_ista,
    run_tanh_gram,
    run_tanh_solve,
    run_toy_power,
    tanh_affine_map,
    tanh_equation_map,
)
from chebiter.cli import main as cli_main
from oracles import brute_real_eigs_sorted, symmetric_eigenvalues

POWER_FP = 2.9645655163368224
POWER_B = (0.62576286215399513, 1.206553321640678)
TANH_SOLVE_X = (0.050020838536700192, 0.30453904941801504)


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {detail}"
    print(line)
    assert ok, line


def _by_solver(result):
    return {row["solver"]: row for row in result.summary}


@pytest.fixture(scope="module")
def gram_study():
    t0 = time.monotonic()
    res = run_tanh_gram()
    return res, time.monotonic() - t0


@pytest.fixture(scope="module")
def power_study():
    t0 = time.monotonic()
    res = run_toy_power()
    return res, time.monotonic() - t0


@pytest.fixture(scope="module")
def tanh_study():
    t0 = time.monotonic()
    res = run_tanh_solve()
    return res, time.monotonic() - t0


@pytest.fixture(scope="module")
def ista_study():
    t0 = time.monotonic()
    res = run_ista()
    return res, time.monotonic() - t0


@pytest.fixture(scope="module")
def deblur_study():
    t0 = time.monotonic()
    res = run_deblur()
    return res, time.monotonic() - t0


def test_criterion_01_best_constant_factor():
    sched = chebyshev_schedule(EigenRange(0.6766, 1.922), 1)
    w = sched.factors[0]
    ok = abs(w - 0.7697) <= 1e-4
    _report(1, ok, f"best constant factor {w:.8f} within 1e-4 of 0.7697")


def test_criterion_02_period_bounds_and_domination():
    rng = EigenRange(0.1, 0.9)
    targets = {2: 0.470588, 4: 0.124514, 6: 0.031242}
    lam = np.linspace(rng.a, rng.b, 10001)
    bounds = {}
    dominated = True
    for T in targets:
        bounds[T] = period_contraction_bound(rng, T)
        sweep = float(np.max(np.abs(period_polynomial(lam, chebyshev_schedule(rng, T)))))
        dominated = dominated and sweep <= bounds[T] + 1e-12
    close = all(abs(bounds[T] - t) <= 1e-5 for T, t in targets.items())
    ok = close and dominated
    shown = ", ".join(f"T={T}: {bounds[T]:.6f}" for T in targets)
    _report(2, ok, f"period bounds {shown} within 1e-5, polynomial dominated on a 10001-point grid")


def test_criterion_03_rate_limit():
    limit = per_step_rate_limit(EigenRange(0.1, 0.9))
    ok = abs(limit - 0.5) <= 1e-10
    _report(3, ok, f"per-step rate limit {limit:.12f} within 1e-10 of 0.5")


def test_criterion_04_gram_period_ratios(gram_study):
    res, elapsed = gram_study
    traces = {r.solver: r.errors for r in res.records}
    rows = _by_solver(res)
    worst = 0.0
    checked = 0
    ok = True
    for T in (2, 4, 8):
        errors = traces[f"cheb{T}"]
        bound = rows[f"cheb{T}"]["period_bound"]
        start = np.nonzero(errors <= 1e-3)[0]
        assert start.size, f"cheb{T} never reached 1e-3"
        k = int(np.ceil(start[0] / T)) * T
        windows = 0
        while k + T < errors.size and errors[k] >= 1e-12:
            ratio = float(errors[k + T] / errors[k])
            worst = max(worst, ratio / bound)
            ok = ok and ratio <= 1.10 * bound
            windows += 1
            k += T
        ok = ok and windows >= 3
        checked += windows
    ok = ok and elapsed < 10.0
    _report(
        4,
        ok,
        f"tanh-gram per-period ratios across {checked} windows at most {worst:.3f}x bound "
        f"(limit 1.10x), {elapsed:.1f}s",
    )


def test_criterion_05_power_map_study(power_study):
    res, elapsed = power_study
    h = res.headline
    fp_ok = (
        abs(h["fixed_point_1"] - POWER_FP) <= 5e-3 and abs(h["fixed_point_2"] - POWER_FP) <= 5e-3
    )
    range_ok = abs(h["range_a"] - POWER_B[0]) <= 2e-2 and abs(h["range_b"] - POWER_B[1]) <= 2e-2
    rows = _by_solver(res)
    hit_cheb = rows["cheb8"]["iters_to_threshold"]
    hit_plain = rows["plain"]["iters_to_threshold"]
    faster = 0 < hit_cheb < hit_plain
    ok = fp_ok and range_ok and faster and elapsed < 1.0
    _report(
        5,
        ok,
        f"power map fixed point {h['fixed_point_1']:.6f}, range "
        f"({h['range_a']:.4f}, {h['range_b']:.4f}), scheduled {hit_cheb} vs plain {hit_plain} "
        f"iters to 1e-10, {elapsed:.2f}s",
    )


def test_criterion_06_tanh_solve_study(tanh_study):
    res, _ = tanh_study
    h = res.headline
    sol_ok = (
        abs(h["solution_1"] - TANH_SOLVE_X[0]) <= 5e-4
        and abs(h["solution_2"] - TANH_SOLVE_X[1]) <= 5e-4
    )
    rows = _by_solver(res)
    plain_err = rows["plain"]["final_error"]
    cheb_err = rows["cheb8"]["final_error"]
    ok = sol_ok and plain_err >= 10.0 * cheb_err
    _report(
        6,
        ok,
        f"tanh solve solution ({h['solution_1']:.6f}, {h['solution_2']:.6f}), 20-step errors "
        f"plain {plain_err:.2e} vs scheduled {cheb_err:.2e} (need 10x)",
    )


def test_criterion_07_sparse_recovery_sweep(ista_study):
    res, elapsed = ista_study
    h = res.headline
    median_ok = h["median_iters_to_target"] <= 400.0
    win_ok = h["fista_win_rate"] >= 0.90
    ok = median_ok and win_ok and elapsed < 300.0
    _report(
        7,
        ok,
        f"sparse recovery over 100 seeds: median {h['median_iters_to_target']:.0f} iters to "
        f"plain-at-budget error (need <= 400), accelerated baseline wins "
        f"{100 * h['fista_win_rate']:.0f}% (need >= 90%), {elapsed:.0f}s",
    )


def test_criterion_08_similarity_spectra_vs_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    n = 16
    worst = 0.0
    done = 0
    while done < 100:
        mags = rng.uniform(0.3, 1.0, size=n) * rng.choice([-1.0, 1.0], size=n)
        Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        A = Q.T @ np.diag(mags) @ Q
        A = (A + A.T) / 2.0
        q = rng.uniform(0.3, 1.2, size=n)
        q[rng.uniform(size=n) < 0.2] = 0.0
        ours = real_spectrum_via_similarity(A, q)
        if np.min(np.diff(np.sort(ours))) < 0.02:
            continue
        oracle = brute_real_eigs_sorted(np.diag(q) @ A)
        worst = max(worst, float(np.max(np.abs(np.sort(ours) - oracle))))
        done += 1
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-6 and elapsed < 5.0
    _report(
        8,
        ok,
        f"similarity spectra of 100 random scaled symmetric 16x16 maps match the "
        f"characteristic-polynomial oracle to {worst:.2e} (need 1e-6), {elapsed:.1f}s",
    )


def test_criterion_09_packaged_maps_contract():
    t0 = time.monotonic()
    ranges = {}

    inst = gen_jacobi_instance(64, 0)
    fpmap = jacobi_map(inst.P, np.zeros(64))
    ranges["jacobi"] = estimate_eigen_range(fpmap, np.zeros(64))

    A = gen_gram_matrix(128, 0.022, 0, normalize_to=0.97)
    ranges["tanh-gram"] = estimate_eigen_range(tanh_affine_map(A), np.zeros(128))

    pm = power_map()
    pilot = run_inertial(pm, plain_schedule(), np.array([2.0, 2.0]), np.zeros(2), 60)
    ranges["power"] = estimate_eigen_range(pm, pilot.x_final)

    tm = tanh_equation_map(np.array([0.1, 0.6]))
    coarse = EigenRange(1.0, 2.0 - 1e-6)
    pilot = run_inertial(tm, chebyshev_schedule(coarse, 8), np.zeros(2), np.zeros(2), 40)
    ranges["tanh-solve"] = estimate_eigen_range(tm, pilot.x_final)

    sp = gen_sparse_instance(256, 128, 0.1, 0.1, 0)
    prob = build_ista(sp)
    pilot = run_inertial(
        prob.fpmap, plain_schedule(), np.zeros(256), sp.x_true, 1500
    )
    ranges["ista"] = estimate_eigen_range(prob.fpmap, pilot.x_final, fp_tol=1e-3)

    forward = blur_map(28, 28)
    for seed in range(3):
        x_true = gen_synthetic_image(28, 28, seed).ravel()
        y = np.asarray(forward.eval(x_true))
        ranges[f"deblur-{seed}"] = estimate_eigen_range(deblur_map(y, 28, 28, 0.8), x_true)

    elapsed = time.monotonic() - t0
    inside = all(0.0 < r.a and r.b < 2.0 for r in ranges.values())
    ok = inside and elapsed < 5.0
    lo = min(r.a for r in ranges.values())
    hi = max(r.b for r in ranges.values())
    _report(
        9,
        ok,
        f"{len(ranges)} packaged map instances all have B eigenvalues strictly inside (0, 2): "
        f"tightest enclosure ({lo:.4f}, {hi:.4f}), {elapsed:.1f}s",
    )


def test_criterion_10_deblur_wins(deblur_study):
    res, elapsed = deblur_study
    wins = int(res.headline["wins"])
    seeds = int(res.headline["seeds"])
    ok = wins >= 9 and seeds == 10 and elapsed < 30.0
    _report(
        10,
        ok,
        f"scheduled deblurring beats plain on restoration MSE for {wins}/{seeds} images "
        f"(need 9/10), {elapsed:.1f}s",
    )


def test_criterion_11_infrastructure(tmp_path):
    t0 = time.monotonic()
    rng = np.random.default_rng(7)

    # symmetric eigensolver residuals
    eig_ok = True
    for n in (8, 32, 64):
        M = rng.normal(size=(n, n))
        S = (M + M.T) / 2.0
        lams = symmetric_eigenvalues(S)
        norm = float(np.linalg.norm(S, 2))
        for lam in lams:
            smin = float(np.linalg.svd(S - lam * np.eye(n), compute_uv=False)[-1])
            eig_ok = eig_ok and smin <= 1e-8 * norm

    # analytic Jacobians against central differences
    sp = gen_sparse_instance(32, 16, 0.2, 0.1, 3)
    img = gen_synthetic_image(12, 12, 1)
    y12 = np.asarray(blur_map(12, 12).eval(img.ravel()))
    cases = [
        (tanh_affine_map(gen_gram_matrix(16, 0.1, 2)), rng.normal(size=16) * 0.3),
        (tanh_equation_map(np.array([0.1, 0.6])), rng.normal(size=2) * 0.2),
        (power_map(), np.array([2.9, 2.9])),
        (jacobi_map(gen_jacobi_instance(16, 4).P, np.zeros(16)), rng.normal(size=16)),
        (blur_map(12, 12), img.ravel()),
        (deblur_map(y12, 12, 12, 0.8), img.ravel() + 0.01 * rng.normal(size=144)),
        (build_ista(sp).fpmap, rng.normal(size=32) * 0.5),
    ]
    fd_worst = 0.0
    for fpmap, x in cases:
        J = np.asarray(fpmap.jacobian(x))
        F = jacobian_fd(fpmap.eval, x)
        fd_worst = max(fd_worst, float(np.max(np.abs(J - F))))
    fd_ok = fd_worst <= 1e-6

    # CLI determinism; its stdout does not belong in this report
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli_main(["jacobi", "--out", str(d)]) == 0
    cli_ok = all(
        (d1 / name).read_bytes() == (d2 / name).read_bytes()
        for name in ("jacobi_traces.csv", "jacobi_summary.csv")
    )

    elapsed = time.monotonic() - t0
    ok = eig_ok and fd_ok and cli_ok and elapsed < 30.0
    _report(
        11,
        ok,
        f"eigensolver residuals within 1e-8 for n<=64, {len(cases)} analytic Jacobians within "
        f"{fd_worst:.1e} of differences (need 1e-6), CLI rerun byte-identical, {elapsed:.1f}s",
    )
