"""Experiment drivers and the command line front end.

Driver tests check the study results against the frozen reference
numbers from the module tests; CLI tests cover settings precedence,
exit codes, and byte-identical reruns.
"""
import math
import os
import re
import subprocess
import sys

import pytest

import chebiter
import chebiter.core
import chebiter.experiments
import chebiter.problems
from chebiter import cli
from chebiter.cli import EX_CONFIG, EX_IOERR, EX_OK, EX_USAGE, main
from chebiter.core import FixedPointMap, StopCriteria, plain_schedule, run_inertial
from chebiter.errors import InvalidRange
from chebiter.experiments import (
    bounds_rows,
    run_deblur,
    run_ista,
    run_jacobi,
    run_tanh_gram,
    run_tanh_solve,
    run_toy_power,
)
from chebiter.traceio import read_pgm, read_trace_csv

# frozen in the module test suites
POWER_FP = 2.9645655163368224
TANH_SOLVE_X = (0.050020838536700192, 0.30453904941801504)
BOUND_19_T2 = 0.47058823529411765
BOUND_19_T4 = 0.1245136186770428


def run_alone(argv):
    """Run the CLI on argv in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(chebiter.__file__)))
    return subprocess.run(
        [sys.executable, "-m", "chebiter.cli", *argv],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )


def by_solver(result):
    return {row["solver"]: row for row in result.summary}


class TestBoundsRows:
    def test_reference_values(self):
        rows = {r["period"]: r for r in bounds_rows(0.1, 0.9, [1, 2, 4])}
        assert rows[1]["sor_factor"] == pytest.approx(2.0, rel=1e-15)
        assert rows[1]["period_bound"] == pytest.approx(0.8, rel=1e-12)
        assert rows[2]["period_bound"] == pytest.approx(BOUND_19_T2, rel=1e-12)
        assert rows[4]["period_bound"] == pytest.approx(BOUND_19_T4, rel=1e-12)
        for row in rows.values():
            assert row["limit"] == pytest.approx(0.5, abs=1e-12)
            assert row["per_step"] > row["limit"]

    def test_rejects_nonpositive_left_end(self):
        # raised by convergence_bound, the one place that needs a > 0
        with pytest.raises(InvalidRange):
            bounds_rows(0.0, 1.0, [2])


class TestJacobiDriver:
    def test_summary_and_files(self, tmp_path):
        res = run_jacobi(str(tmp_path))
        rows = by_solver(res)
        assert set(rows) == {"plain", "sor", "cheb8"}
        assert 0.5 < res.headline["range_a"] < res.headline["range_b"] < 2.0
        # the scheduled run reaches the threshold first, plain never does
        assert rows["plain"]["iters_to_threshold"] == -1
        assert 0 < rows["cheb8"]["iters_to_threshold"] < rows["sor"]["iters_to_threshold"]
        records = read_trace_csv(str(tmp_path / "jacobi_traces.csv"))
        assert [r.run_id for r in records] == ["plain", "sor", "cheb8"]
        first = {float(r.errors[0]) for r in records}
        assert len(first) == 1  # same start for every solver
        assert all(len(r.errors) == 41 for r in records)
        assert os.path.exists(tmp_path / "jacobi_summary.csv")

    def test_no_files_without_out_dir(self, tmp_path):
        res = run_jacobi(None, n=16, iters=10)
        assert res.summary and not list(tmp_path.iterdir())


class TestToyDrivers:
    def test_power_map_study(self):
        res = run_toy_power(None)
        assert res.headline["fixed_point_1"] == pytest.approx(POWER_FP, abs=1e-9)
        rows = by_solver(res)
        hits = {s: rows[s]["iters_to_threshold"] for s in rows}
        assert all(h > 0 for h in hits.values())
        assert hits["cheb8"] < hits["cheb2"] < hits["plain"]

    def test_tanh_solve_study(self):
        res = run_tanh_solve(None)
        assert res.headline["solution_1"] == pytest.approx(TANH_SOLVE_X[0], abs=1e-9)
        assert res.headline["solution_2"] == pytest.approx(TANH_SOLVE_X[1], abs=1e-9)
        rows = by_solver(res)
        assert rows["plain"]["final_error"] >= 10.0 * rows["cheb8"]["final_error"]

    def test_tanh_solve_runs_every_period(self):
        res = run_tanh_solve(None, periods=(1, 4, 8))
        assert list(by_solver(res)) == ["plain", "sor", "cheb4", "cheb8"]
        assert res.headline["cheb_final"] == by_solver(res)["cheb8"]["final_error"]

    @pytest.mark.parametrize(
        "driver", [run_jacobi, run_toy_power, run_tanh_solve, run_tanh_gram]
    )
    def test_headline_is_finite_at_defaults(self, driver):
        # a printed headline of inf or nan on working code compares nothing
        headline = driver(None).headline
        assert headline and all(math.isfinite(v) for v in headline.values()), headline

    def test_tanh_gram_study(self, tmp_path):
        res = run_tanh_gram(str(tmp_path))
        rows = by_solver(res)
        assert set(rows) == {"plain", "sor", "cheb2", "cheb4", "cheb8"}
        # the pinned top eigenvalue fixes the left end of the range
        assert res.headline["range_a"] == pytest.approx(0.03, abs=1e-12)
        assert res.headline["range_b"] == pytest.approx(1.0, abs=1e-3)
        hits = {s: rows[s]["iters_to_threshold"] for s in rows}
        assert hits["plain"] == -1
        assert 0 < hits["cheb8"] < hits["cheb4"] < hits["cheb2"] < hits["sor"]
        assert rows["cheb4"]["period_bound"] == pytest.approx(0.46502410672926234, rel=1e-3)
        records = read_trace_csv(str(tmp_path / "tanh_gram_traces.csv"))
        assert len(records) == 5


class TestIstaDriver:
    def test_small_sweep(self, tmp_path):
        res = run_ista(str(tmp_path), seeds=3, iters=600)
        assert len(res.summary) == 3
        for row in res.summary:
            assert 0.0 < row["range_a"] < row["range_b"] < 2.0
            assert 0 < row["cheb_iters_to_target"] < 600
            assert row["target_error"] > 0.0
        assert res.headline["fista_win_rate"] >= 2.0 / 3.0
        # traces: plain, cheb, fista for each recorded seed
        records = read_trace_csv(str(tmp_path / "ista_traces.csv"))
        assert [r.solver for r in records[:3]] == ["plain", "cheb8", "fista"]
        assert len(records) == 9

    def test_one_step_size_per_seed(self, monkeypatch):
        # the smoothed iteration and the FISTA baseline share build_ista's step size
        calls = []
        build_ista = chebiter.experiments.build_ista

        def counted(*args, **kwargs):
            calls.append(args)
            return build_ista(*args, **kwargs)

        monkeypatch.setattr(chebiter.experiments, "build_ista", counted)
        run_ista(None, seeds=2, n=32, m=16, iters=200)
        assert len(calls) == 2

    def test_early_stop_changes_no_number(self, monkeypatch):
        # Unrecorded seeds stop their scheduled run at the target; the
        # summary and headline must match full-budget runs exactly.
        steps = []

        def counted(fpmap, schedule, *args, **kwargs):
            trace = run_inertial(fpmap, schedule, *args, **kwargs)
            if schedule.period > 1:
                steps.append(trace.steps)
            return trace

        monkeypatch.setattr(chebiter.experiments, "run_inertial", counted)
        stopped = run_ista(None, seeds=4, record_first=0)
        full = run_ista(None, seeds=4, record_first=4)
        assert stopped.summary == full.summary
        assert stopped.headline == full.headline
        hits = [row["cheb_iters_to_target"] for row in stopped.summary]
        assert all(hit > 0 for hit in hits)
        assert steps == hits + [1500] * 4


class TestDeblurDriver:
    def test_small_sweep(self, tmp_path):
        res = run_deblur(str(tmp_path), seeds=2, iters=64)
        assert len(res.summary) == 2
        for row in res.summary:
            assert row["mse_cheb"] < row["mse_plain"]
            assert 0.0 < row["measured_a"] < row["measured_b"] < 1.0
        assert res.headline["wins"] == 2.0
        for name in ("truth", "observed", "plain", "cheb8"):
            img = read_pgm(str(tmp_path / f"deblur_{name}.pgm"))
            assert img.shape == (28, 28)


class TestCliExitCodes:
    def test_version(self, capsys):
        assert main(["--version"]) == EX_OK
        assert "chebiter" in capsys.readouterr().out

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == EX_USAGE

    def test_unknown_flag(self, capsys):
        assert main(["jacobi", "--frob", "1"]) == EX_USAGE

    def test_bad_periods_flag(self, capsys):
        assert main(["jacobi", "--periods", "a,b"]) == EX_USAGE

    def test_bad_value_from_library(self, capsys):
        assert main(["bounds", "--a", "-1"]) == EX_USAGE
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["bounds", "--a", "0"], ["deblur", "--range-a", "0"]])
    def test_nonpositive_left_end(self, argv, capsys):
        assert main(argv) == EX_USAGE
        assert "a > 0" in capsys.readouterr().err

    def test_deblur_range_above_two(self, capsys):
        # the factors need a > 0 only; a range reaching past 2 is a range
        assert main(["deblur", "--range-b", "2.5", "--seeds", "1", "--iters", "8"]) == EX_OK
        assert "range_b=2.5" in capsys.readouterr().out

    @pytest.mark.parametrize("size", [("2", "5"), ("5", "2"), ("2", "2")])
    def test_deblur_on_tiny_image(self, size, tmp_path, capsys):
        height, width = size
        argv = ["deblur", "--height", height, "--width", width, "--out", str(tmp_path)]
        assert main(argv) == EX_USAGE
        assert "pixels per side" in capsys.readouterr().err

    def test_missing_config(self, capsys):
        assert main(["jacobi", "--config", "/nonexistent/x.cfg"]) == EX_IOERR

    def test_malformed_config(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("n 64\n")
        assert main(["jacobi", "--config", str(cfg)]) == EX_CONFIG

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "unk.cfg"
        cfg.write_text("banana = 3\n")
        assert main(["jacobi", "--config", str(cfg)]) == EX_CONFIG

    def test_non_numeric_config_value(self, tmp_path, capsys):
        cfg = tmp_path / "t.cfg"
        cfg.write_text("iters = soon\n")
        assert main(["jacobi", "--config", str(cfg)]) == EX_CONFIG

    def test_bad_periods_in_config(self, tmp_path, capsys):
        cfg = tmp_path / "p.cfg"
        cfg.write_text("periods = 1;8\n")
        assert main(["jacobi", "--config", str(cfg)]) == EX_CONFIG

    def test_bad_map_in_config(self, tmp_path, capsys):
        cfg = tmp_path / "m.cfg"
        cfg.write_text("map = frob\n")
        assert main(["toy", "--config", str(cfg)]) == EX_CONFIG

    @pytest.mark.parametrize("command", ["ista", "deblur"])
    @pytest.mark.parametrize("seeds", ["0", "-1"])
    def test_no_seeds(self, command, seeds, tmp_path, capsys):
        assert main([command, "--seeds", seeds, "--out", str(tmp_path)]) == EX_USAGE
        assert "seeds" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("flags", [["--iters", "0"], ["--periods", ""]])
    def test_toy_has_no_zero_default_sentinel(self, flags, capsys):
        assert main(["toy", *flags]) == EX_USAGE

    def test_toy_zero_iters_in_config(self, tmp_path, capsys):
        cfg = tmp_path / "t.cfg"
        cfg.write_text("iters = 0\n")
        assert main(["toy", "--config", str(cfg)]) == EX_USAGE


class TestCliBehavior:
    def test_bounds_prints_reference_digits(self, capsys):
        assert main(["bounds", "--a", "0.1", "--b", "0.9", "--periods", "2,4"]) == EX_OK
        out = capsys.readouterr().out
        assert "0.470588" in out and "0.124514" in out

    def test_runs_as_python_module(self):
        proc = run_alone(["bounds"])
        assert proc.returncode == EX_OK, proc.stderr
        assert any(line.startswith("bounds: range") for line in proc.stdout.splitlines())

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_calls_sharing_the_parser_match_fresh_runs(self, capsys):
        # One parser serves every main() call in a process; no flag, default
        # or error of one call may show in the next.
        for argv in (
            ["jacobi", "--n", "x"],
            ["bounds"],
            ["jacobi", "--n", "8"],
            ["toy", "--map", "power"],
        ):
            code = main(argv)
            got = capsys.readouterr()
            proc = run_alone(argv)
            assert (code, got.out, got.err) == (proc.returncode, proc.stdout, proc.stderr)

    def test_bounds_writes_csv(self, tmp_path, capsys):
        assert main(["bounds", "--out", str(tmp_path)]) == EX_OK
        text = (tmp_path / "bounds.csv").read_text()
        assert text.splitlines()[0].startswith("period,range_a")
        assert len(text.splitlines()) == 5

    def test_config_then_flag_precedence(self, tmp_path, capsys):
        cfg = tmp_path / "j.cfg"
        cfg.write_text("# study settings\nn = 32\niters = 25\n")
        out_dir = tmp_path / "run"
        code = main(
            ["jacobi", "--config", str(cfg), "--iters", "35", "--out", str(out_dir)]
        )
        assert code == EX_OK
        records = read_trace_csv(str(out_dir / "jacobi_traces.csv"))
        # flag beats config: 35 iterations, not 25
        assert all(len(r.errors) == 36 for r in records)

    def test_toy_gram_via_cli(self, tmp_path, capsys):
        code = main(
            ["toy", "--map", "gram", "--periods", "2,8", "--iters", "120", "--out", str(tmp_path)]
        )
        assert code == EX_OK
        records = read_trace_csv(str(tmp_path / "tanh_gram_traces.csv"))
        assert {r.solver for r in records} == {"plain", "sor", "cheb2", "cheb8"}

    def test_ista_via_cli(self, tmp_path, capsys):
        code = main(["ista", "--seeds", "2", "--iters", "400", "--out", str(tmp_path)])
        assert code == EX_OK
        lines = (tmp_path / "ista_summary.csv").read_text().splitlines()
        assert len(lines) == 3

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for d in (d1, d2):
            assert main(["jacobi", "--out", str(d)]) == EX_OK
        for name in ("jacobi_traces.csv", "jacobi_summary.csv"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_deblur_writes_images(self, tmp_path, capsys):
        code = main(["deblur", "--seeds", "1", "--iters", "48", "--out", str(tmp_path)])
        assert code == EX_OK
        img = read_pgm(str(tmp_path / "deblur_truth.pgm"))
        assert img.shape == (28, 28)
        assert float(img.min()) >= 0.0 and float(img.max()) <= 1.0


# The command line surface: long flags per subcommand, which are also its
# config keys (with "-" for "_"), and toy's --map choices.
CLI_FLAGS = {
    "bounds": {"a", "b", "periods"},
    "jacobi": {"n", "seed", "periods", "iters"},
    "toy": {"map", "periods", "iters", "n", "seed", "std", "lam-max"},
    "ista": {
        "n", "m", "density", "noise", "seeds", "iters", "period", "fista-iters", "record-first",
    },
    "deblur": {
        "height", "width", "relax", "range-a", "range-b", "period", "iters", "seeds",
    },
}

PACKAGE_NAMES = """
    EigenRange FixedPointMap InertialSchedule IterationTrace StopCriteria StopReason
    chebyshev_roots chebyshev_schedule constant_sor_schedule inertial_step plain_schedule
    run_inertial ConvergenceBound chebyshev_eval convergence_bound
    estimate_eigen_range jacobian_fd monic_chebyshev per_step_rate per_step_rate_limit
    period_contraction_bound period_polynomial period_spectral_radius
    real_spectrum_via_similarity symmetric_eigenvalues FistaResult JacobiInstance
    ProximalProblem SparseRecoveryInstance blur_map blur_matrix build_ista deblur_map
    fista_momentum fista_run gen_gram_matrix gen_jacobi_instance gen_sparse_instance
    gen_synthetic_image jacobi_map power_map richardson_map sigmoid smooth_soft_shrink
    smooth_soft_shrink_grad soft_shrink softplus tanh_affine_map tanh_equation_map
    TRACE_HEADER TraceRecord load_config parse_config read_pgm read_trace_csv write_pgm
    write_trace_csv ExperimentResult bounds_rows run_deblur run_ista run_jacobi run_tanh_gram
    run_tanh_solve run_toy_power ChebiterError ConfigError DegenerateOperator DimensionError
    DomainError FormatError InvalidInput InvalidRange NonFiniteValue NotAFixedPoint
    NotSymmetric SingularDiagonal SpectrumNotCertifiedReal UnsupportedFormat __version__
""".split()


class TestSurface:
    @pytest.mark.parametrize("command", sorted(CLI_FLAGS))
    def test_long_flags(self, command, capsys):
        assert main([command, "--help"]) == EX_OK
        flags = set(re.findall(r"--([a-z][a-z-]*)", capsys.readouterr().out))
        assert flags == CLI_FLAGS[command] | {"help", "config", "out"}

    def test_toy_map_choices(self, capsys):
        assert main(["toy", "--help"]) == EX_OK
        assert "--map {power,tanh,gram}" in capsys.readouterr().out

    @pytest.mark.parametrize("command", sorted(CLI_FLAGS))
    def test_every_flag_is_a_config_key(self, command, tmp_path):
        cfg = tmp_path / "all.cfg"
        cfg.write_text(
            "".join(f"{k} = {'power' if k == 'map' else '1'}\n" for k in CLI_FLAGS[command])
        )
        args = cli.build_parser().parse_args([command, "--config", str(cfg)])
        settings = cli.merge_settings(command, args)
        assert set(settings) == {k.replace("-", "_") for k in CLI_FLAGS[command]}

    def test_package_exports(self):
        assert len(PACKAGE_NAMES) == 80
        assert sorted(chebiter.__all__) == sorted(PACKAGE_NAMES)
        for name in PACKAGE_NAMES:
            assert hasattr(chebiter, name), name

    def test_wrapped_step_sees_every_attempt(self, monkeypatch):
        # A benchmark tracer replaces core.inertial_step to count attempted
        # steps; run_inertial must call it through that attribute, once per
        # attempt, rejected ones included.
        calls = []
        step = chebiter.core.inertial_step

        def counted(*args, **kwargs):
            calls.append(args)
            return step(*args, **kwargs)

        monkeypatch.setattr(chebiter.core, "inertial_step", counted)
        grow = FixedPointMap(dim=1, eval=lambda x: 3.0 * x)
        stop = StopCriteria(max_iters=50, divergence_threshold=1e6)
        tr = run_inertial(grow, plain_schedule(), [1.0], stop)
        assert tr.steps == 12
        assert len(calls) == tr.steps + 1
        calls.clear()
        tr = run_inertial(grow, plain_schedule(), [1.0], StopCriteria(max_iters=5))
        assert len(calls) == tr.steps == 5

    def test_wrapped_drivers_get_the_flags(self, monkeypatch, capsys):
        # A benchmark tracer replaces drivers with (*args, **kwargs) wrappers
        # while the CLI runs; the flags must still reach the real driver.
        calls = []

        def wrap(fn):
            def wrapper(*args, **kwargs):
                calls.append((fn.__name__, kwargs))
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(cli, "run_jacobi", wrap(run_jacobi))
        monkeypatch.setattr(cli, "bounds_rows", wrap(bounds_rows))
        assert main(["jacobi", "--n", "16", "--iters", "12", "--periods", "1,4"]) == EX_OK
        assert main(["bounds", "--a", "0.2", "--b", "0.8", "--periods", "2"]) == EX_OK
        assert calls == [
            ("run_jacobi", {"n": 16, "iters": 12, "periods": (1, 4)}),
            ("bounds_rows", {"a": 0.2, "b": 0.8, "periods": (2,)}),
        ]
        assert "cheb4" in capsys.readouterr().out
