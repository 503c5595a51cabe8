"""Experiment drivers and the command line front end.

Driver tests check the study results against the frozen reference
numbers from the module tests; CLI tests cover settings precedence,
exit codes, and byte-identical reruns.
"""
import dataclasses
import hashlib
import inspect
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import chebiter
import chebiter.core
import chebiter.experiments
import chebiter.problems
from chebiter import cli
from chebiter.cli import EX_CONFIG, EX_IOERR, EX_OK, EX_USAGE, main
from chebiter.core import FixedPointMap, plain_schedule, run_inertial
from chebiter.errors import InvalidInput, InvalidRange
from chebiter.experiments import (
    bounds_rows,
    run_deblur,
    run_ista,
    run_jacobi,
    run_tanh_gram,
    run_tanh_solve,
    run_toy_power,
)
from oracles import read_pgm, read_trace_csv

# frozen in the module test suites
POWER_FP = 2.9645655163368224
TANH_SOLVE_X = (0.050020838536700192, 0.30453904941801504)
BOUND_19_T2 = 0.47058823529411765
BOUND_19_T4 = 0.1245136186770428


def run_alone(argv, cwd=None):
    """Run the CLI on argv in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(chebiter.__file__)))
    return subprocess.run(
        [sys.executable, "-m", "chebiter.cli", *argv],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
        cwd=cwd,
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
        # raised by the bounds, before the constant-factor rate could
        # divide by a + b = 0
        with pytest.raises(InvalidRange):
            bounds_rows(0.0, 1.0, [2])
        with pytest.raises(InvalidRange):
            bounds_rows(-1.0, 1.0, [2])


class TestJacobiDriver:
    def test_summary_and_files(self, tmp_path):
        res = run_jacobi()
        res.write(tmp_path)
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


class TestToyDrivers:
    def test_power_map_study(self):
        res = run_toy_power()
        assert res.headline["fixed_point_1"] == pytest.approx(POWER_FP, abs=1e-9)
        rows = by_solver(res)
        hits = {s: rows[s]["iters_to_threshold"] for s in rows}
        assert all(h > 0 for h in hits.values())
        assert hits["cheb8"] < hits["cheb2"] < hits["plain"]

    def test_tanh_solve_study(self):
        res = run_tanh_solve()
        assert res.headline["solution_1"] == pytest.approx(TANH_SOLVE_X[0], abs=1e-9)
        assert res.headline["solution_2"] == pytest.approx(TANH_SOLVE_X[1], abs=1e-9)
        rows = by_solver(res)
        assert rows["plain"]["final_error"] >= 10.0 * rows["cheb8"]["final_error"]

    def test_tanh_solve_needs_a_period(self):
        with pytest.raises(InvalidInput):
            run_tanh_solve(periods=())

    def test_tanh_solve_runs_every_period(self):
        res = run_tanh_solve(periods=(1, 4, 8))
        assert list(by_solver(res)) == ["plain", "sor", "cheb4", "cheb8"]
        assert res.headline["cheb_final"] == by_solver(res)["cheb8"]["final_error"]

    @pytest.mark.parametrize(
        "driver", [run_jacobi, run_toy_power, run_tanh_solve, run_tanh_gram]
    )
    def test_headline_is_finite_at_defaults(self, driver):
        # a printed headline of inf or nan on working code compares nothing
        headline = driver().headline
        assert headline and all(math.isfinite(v) for v in headline.values()), headline

    def test_tanh_gram_study(self, tmp_path):
        res = run_tanh_gram()
        res.write(tmp_path)
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
        res = run_ista(seeds=3, iters=600)
        res.write(tmp_path)
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
        run_ista(seeds=2, n=32, m=16, iters=200)
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
        stopped = run_ista(seeds=4, record_first=0)
        full = run_ista(seeds=4, record_first=4)
        assert stopped.summary == full.summary
        assert stopped.headline == full.headline
        hits = [row["cheb_iters_to_target"] for row in stopped.summary]
        assert all(hit > 0 for hit in hits)
        assert steps == hits + [1500] * 4

    def test_diverged_scheduled_run_warns(self):
        # A period this long overshoots on both seeds; like every study, the
        # sweep says so instead of reporting a miss in silence.
        res = run_ista(seeds=2, period=64, record_first=0)
        assert res.warnings == [
            "ista: run seed0/cheb64 diverged after 63 steps",
            "ista: run seed1/cheb64 diverged after 121 steps",
        ]
        assert [row["cheb_iters_to_target"] for row in res.summary] == [-1, -1]


class TestDeblurDriver:
    def test_small_sweep(self, tmp_path):
        res = run_deblur(seeds=2, iters=64)
        res.write(tmp_path)
        assert len(res.summary) == 2
        for row in res.summary:
            assert row["mse_cheb"] < row["mse_plain"]
            assert 0.0 < row["measured_a"] < row["measured_b"] < 1.0
        assert res.headline["wins"] == 2.0
        for name in ("truth", "observed", "plain", "cheb8"):
            img = read_pgm(str(tmp_path / f"deblur_{name}.pgm"))
            assert img.shape == (28, 28)

    def test_never_builds_dense_blur(self, monkeypatch):
        # the certificate is matrix-free; only the jacobian hook needs C
        calls = []
        assemble = chebiter.spectral._dense_operator

        def spy(*args):
            calls.append(args)
            return assemble(*args)

        monkeypatch.setattr(chebiter.spectral, "_dense_operator", spy)
        run_deblur(seeds=1, iters=8)
        assert calls == []
        chebiter.problems.blur_map(3, 4).jacobian(np.zeros(12))
        assert len(calls) == 1


@pytest.mark.parametrize("driver", [run_ista, run_deblur])
def test_seed_count_is_an_integer(driver):
    # seeds=True used to run seed 0 alone, and seeds=1.5 to fail in range()
    for bad in (True, 1.5, 1.0, "1"):
        with pytest.raises(InvalidInput, match="integer"):
            driver(seeds=bad)


def test_recorded_seed_count_is_a_nonnegative_integer():
    # record_first=True and 0.5 used to record seed 0
    for bad in (True, 0.5, 1.0, "1"):
        with pytest.raises(InvalidInput, match="integer"):
            run_ista(seeds=1, record_first=bad)
    with pytest.raises(InvalidInput, match=">= 0"):
        run_ista(seeds=1, record_first=-1)


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

    def test_deblur_beyond_dense_cap(self, tmp_path, capsys):
        # 40 x 40 = 1600 pixels is past MAX_DENSE_DIM; the range is certified
        argv = ["deblur", "--height", "40", "--width", "40", "--seeds", "1", "--iters", "8"]
        assert main(argv + ["--out", str(tmp_path)]) == EX_OK
        header, row = (tmp_path / "deblur_summary.csv").read_text().splitlines()
        fields = dict(zip(header.split(","), row.split(",")))
        a, b = float(fields["measured_a"]), float(fields["measured_b"])
        assert 0.0 < a < b < 1.0

    @pytest.mark.parametrize("size", [("2", "5"), ("5", "2"), ("2", "2")])
    def test_deblur_on_tiny_image(self, size, tmp_path, capsys):
        height, width = size
        argv = ["deblur", "--height", height, "--width", width, "--out", str(tmp_path)]
        assert main(argv) == EX_USAGE
        assert "pixels per side" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["jacobi", "bounds"])
    def test_out_under_a_file(self, command, tmp_path, capsys):
        # the files are written before the summary is printed, so an I/O
        # failure prints nothing to stdout
        (tmp_path / "afile").write_text("")
        argv = [command, "--out", str(tmp_path / "afile" / "sub")]
        assert main(argv) == EX_IOERR
        got = capsys.readouterr()
        assert got.out == "" and got.err.startswith("io error: ")

    def test_missing_config(self, capsys):
        assert main(["jacobi", "--config", "/nonexistent/x.cfg"]) == EX_IOERR

    def test_malformed_config(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("n 64\n")
        assert main(["jacobi", "--config", str(cfg)]) == EX_CONFIG

    def test_non_utf8_config(self, tmp_path):
        cfg = tmp_path / "latin.cfg"
        cfg.write_bytes(b"n = 16\n\xff\n")
        proc = run_alone(["jacobi", "--config", str(cfg)])
        assert proc.returncode == EX_CONFIG
        assert proc.stderr.startswith("config error: ") and "latin.cfg" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ["jacobi", "--periods", "0,-2,8"],
            ["toy", "--map", "power", "--periods", "0"],
            ["toy", "--map", "gram", "--periods", "0,4"],
        ],
    )
    def test_period_below_one(self, argv, tmp_path, capsys):
        assert main(argv + ["--out", str(tmp_path)]) == EX_USAGE
        assert "period must be >= 1, got 0" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

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

    def test_gram_top_eigenvalue_names_its_flag(self, tmp_path, capsys):
        argv = ["toy", "--map", "gram", "--lam-max", "-1", "--out", str(tmp_path)]
        assert main(argv) == EX_USAGE
        assert "error: lam_max must be > 0, got -1.0" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["ista", "deblur"])
    @pytest.mark.parametrize("seeds", ["0", "-1"])
    def test_no_seeds(self, command, seeds, tmp_path, capsys):
        assert main([command, "--seeds", seeds, "--out", str(tmp_path)]) == EX_USAGE
        assert "seeds" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("flags", [["--iters", "0"], ["--periods", ""]])
    def test_toy_has_no_zero_default_sentinel(self, flags, capsys):
        assert main(["toy", *flags]) == EX_USAGE

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["toy", "--map", "gram", "--std", "inf"], "std must be finite and > 0"),
            (["toy", "--map", "gram", "--std", "1e200"], "gram matrix overflows"),
            (["ista", "--noise", "inf", "--seeds", "1"], "noise_sigma must be finite and >= 0"),
            (["deblur", "--range-a", "1e-320", "--range-b", "1e-320"], "factors must be finite"),
            (["bounds", "--a", "1e-320", "--b", "1e-320"], "factors must be finite"),
            (["ista", "--noise", "1e160", "--seeds", "1"], "plain run of seed 0 diverged"),
            (["ista", "--noise", "1e308", "--seeds", "1"], "measurements overflow"),
            (["ista", "--noise", "1e307", "--seeds", "1"], "gamma M^T y overflows"),
        ],
    )
    def test_overflowing_inputs(self, argv, message, tmp_path, capsys):
        # a typed error and exit 64: no numpy warning (an error in this
        # suite), no traceback and no file written
        assert main(argv + ["--out", str(tmp_path)]) == EX_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and err.count("\n") == 1
        assert not list(tmp_path.iterdir())

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

    def test_outputs_match_pinned_hashes(self, tmp_path):
        # The byte-identical output contract, pinned across changes to the
        # package: SHA-256 of stdout and of each written file, for commands
        # whose bits no BLAS thread count moves, run in a fresh interpreter
        # from an empty directory so that stdout names relative paths.
        for argv, want in PINNED_OUTPUTS.items():
            cwd = tmp_path / argv[-1]
            cwd.mkdir()
            proc = run_alone([*argv, "--out", "out"], cwd=cwd)
            assert proc.returncode == EX_OK, proc.stderr
            got = {"stdout": hashlib.sha256(proc.stdout.encode()).hexdigest()}
            for path in sorted((cwd / "out").iterdir()):
                got[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
            assert got == want, argv

    def test_summary_layouts_are_pinned(self, tmp_path, capsys):
        # The bits of these studies move with the BLAS thread count, so
        # only what no BLAS setting moves is pinned: the summary header
        # and which cells of the plain row are blank.
        for argv, (name, header, blank) in PINNED_LAYOUTS.items():
            out = tmp_path / argv[-1]
            assert main([*argv, "--out", str(out)]) == EX_OK
            lines = (out / name).read_text().splitlines()
            assert lines[0] == header, argv
            plain = dict(zip(header.split(","), lines[1].split(",")))
            assert plain["solver"] == "plain"
            assert {key for key, cell in plain.items() if cell == ""} == blank, argv

    def test_deblur_writes_images(self, tmp_path, capsys):
        code = main(["deblur", "--seeds", "1", "--iters", "48", "--out", str(tmp_path)])
        assert code == EX_OK
        img = read_pgm(str(tmp_path / "deblur_truth.pgm"))
        assert img.shape == (28, 28)
        assert float(img.min()) >= 0.0 and float(img.max()) <= 1.0


# SHA-256 of the stdout and of every file written by each command, with
# --out out; see test_outputs_match_pinned_hashes. A change that moves
# these bytes must argue for it and update them.
PINNED_OUTPUTS = {
    ("bounds",): {
        "stdout": "50c1f7b28b8cb5b59763b48ca6c3c875f3c4a2fff658bafad40fc5a6382616bd",
        "bounds.csv": "9450f3a10af98e6a50faa15b5e06ce3865ce728bf6c9fd775f8faa7e56083abd",
    },
    ("toy", "--map", "power"): {
        "stdout": "d556571bdbf31dce63770205261c4b9813ed5437aa92705f80e5337dd2aa2eb8",
        "toy_power_summary.csv": "fd48ab25a45e011840fbe2a396aa7719014fdca98d954056d1143d7318cc7d39",
        "toy_power_traces.csv": "ef4d9963208b762cf2b45c05fb90b9b23de0442d76c9f0d26db0f5776ef99726",
    },
    ("toy", "--map", "tanh"): {
        "stdout": "8e614fdf203239f27d54dea1b277186b485d3c53647bc95c4a659901ab4cfb13",
        "tanh_solve_summary.csv": "c3ad543674f2762b7eea3d105ea9f8fc0be2a159cdd48601a8c454f4c14701c8",
        "tanh_solve_traces.csv": "4c82baef04849b354cb11047f1671bf8a3de5613ec077db99c390b523f3afc93",
    },
}

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
    EigenRange FixedPointMap InertialSchedule IterationTrace StopReason
    chebyshev_roots chebyshev_schedule inertial_step plain_schedule
    run_inertial estimate_eigen_range jacobian_fd per_step_rate per_step_rate_limit
    period_contraction_bound period_polynomial period_spectral_radius
    real_spectrum_via_similarity JacobiInstance
    ProximalProblem SparseRecoveryInstance blur_map build_ista deblur_map
    fista_run gen_gram_matrix gen_jacobi_instance gen_sparse_instance
    gen_synthetic_image jacobi_map power_map sigmoid smooth_soft_shrink
    smooth_soft_shrink_grad soft_shrink tanh_affine_map tanh_equation_map
    TRACE_HEADER TraceRecord load_config parse_config write_pgm
    write_trace_csv ExperimentResult bounds_rows run_deblur run_ista run_jacobi run_tanh_gram
    run_tanh_solve run_toy_power ChebiterError ConfigError DegenerateOperator DimensionError
    InvalidInput InvalidRange NonFiniteValue NotAFixedPoint
    NotConverged NotSymmetric SingularDiagonal SpectrumNotCertifiedReal __version__
""".split()

# The public parameters of each exported function and the fields of each
# exported dataclass: every one is a knob to document and keep working.
KNOBS = {
    # core
    "FixedPointMap": 4, "EigenRange": 2, "InertialSchedule": 1, "IterationTrace": 4,
    "chebyshev_roots": 2, "chebyshev_schedule": 2, "plain_schedule": 0, "inertial_step": 3,
    "run_inertial": 6,
    # spectral
    "period_polynomial": 2, "period_contraction_bound": 2, "per_step_rate": 2,
    "per_step_rate_limit": 1, "period_spectral_radius": 2, "jacobian_fd": 2,
    "real_spectrum_via_similarity": 2, "estimate_eigen_range": 3,
    # problems
    "sigmoid": 1, "soft_shrink": 2, "smooth_soft_shrink": 2, "smooth_soft_shrink_grad": 2,
    "SparseRecoveryInstance": 3, "gen_sparse_instance": 5, "ProximalProblem": 5,
    "build_ista": 1, "fista_run": 2, "jacobi_map": 2, "JacobiInstance": 2,
    "gen_jacobi_instance": 2, "gen_gram_matrix": 4, "tanh_affine_map": 1,
    "tanh_equation_map": 1, "power_map": 0, "blur_map": 2, "deblur_map": 4,
    "gen_synthetic_image": 3,
    # traceio
    "TraceRecord": 4, "write_trace_csv": 2, "write_pgm": 2, "parse_config": 1, "load_config": 1,
    # experiments
    "ExperimentResult": 6, "bounds_rows": 3, "run_jacobi": 4, "run_toy_power": 2,
    "run_tanh_solve": 2, "run_tanh_gram": 6, "run_ista": 9, "run_deblur": 8,
}


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
        assert len(PACKAGE_NAMES) == 64
        assert sorted(chebiter.__all__) == sorted(PACKAGE_NAMES)
        for name in PACKAGE_NAMES:
            assert hasattr(chebiter, name), name

    def test_parameter_and_field_count(self):
        # Pinned name by name, so that a new or deleted knob shows in the
        # table as a visible choice.
        count = {}
        for name in chebiter.__all__:
            obj = getattr(chebiter, name)
            if dataclasses.is_dataclass(obj):
                count[name] = len(dataclasses.fields(obj))
            elif inspect.isfunction(obj):
                count[name] = len(inspect.signature(obj).parameters)
        assert count == KNOBS

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
        # 3^25 is below the divergence norm 1e12 and 3^26 above it
        tr = run_inertial(grow, plain_schedule(), [1.0], [0.0], 50)
        assert tr.steps == 25
        assert len(calls) == tr.steps + 1
        calls.clear()
        tr = run_inertial(grow, plain_schedule(), [1.0], [0.0], 5)
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

# The summary file, its header and the blank cells of its plain row for the
# studies whose bits the BLAS thread count moves; see
# test_summary_layouts_are_pinned. tanh_gram's plain row keeps its range.
PINNED_LAYOUTS = {
    ("jacobi",): (
        "jacobi_summary.csv",
        "solver,period,range_a,range_b,period_bound,per_step,final_error,iters_to_threshold,threshold",
        {"range_a", "range_b", "period_bound", "per_step"},
    ),
    ("toy", "--map", "gram"): (
        "tanh_gram_summary.csv",
        "solver,period,range_a,range_b,period_bound,per_step,limit,final_error,"
        "iters_to_threshold,threshold",
        {"period_bound", "per_step"},
    ),
}
