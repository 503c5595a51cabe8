"""Trace CSV, PGM, and config file formats.

The package only writes traces and images; the readers in oracles read
them back, so the round trips pin the written formats.
"""
import numpy as np
import pytest

import oracles
from chebiter import (
    ConfigError,
    InvalidInput,
    TraceRecord,
    load_config,
    parse_config,
    write_pgm,
    write_trace_csv,
)
from chebiter.experiments import (
    run_deblur,
    run_ista,
    run_jacobi,
    run_tanh_gram,
    run_tanh_solve,
    run_toy_power,
)
from oracles import FormatError, UnsupportedFormat, read_pgm, read_trace_csv


def sample_records():
    rng = np.random.default_rng(1)
    recs = []
    for i, solver in enumerate(["plain", "cheb8"]):
        errs = np.abs(rng.normal(size=6)) * 10.0 ** rng.integers(-12, 3, size=6)
        oms = rng.uniform(0.5, 5.0, size=5)
        recs.append(TraceRecord(run_id=f"run{i}", solver=solver, errors=errs, omegas=oms))
    return recs


class TestTraceCsv:
    def test_header_and_layout(self, tmp_path):
        path = tmp_path / "t.csv"
        write_trace_csv(path, sample_records())
        lines = path.read_text().splitlines()
        assert lines[0] == "run_id,solver,k,error,omega"
        first = lines[1].split(",")
        assert first[0] == "run0" and first[2] == "0" and first[4] == ""
        second = lines[2].split(",")
        assert second[2] == "1" and second[4] != ""
        # one row per iterate, for both runs
        assert len(lines) == 1 + 6 + 6

    def test_roundtrip_is_exact(self, tmp_path):
        path = tmp_path / "t.csv"
        recs = sample_records()
        write_trace_csv(path, recs)
        back = read_trace_csv(path)
        assert [r.run_id for r in back] == [r.run_id for r in recs]
        for a, b in zip(recs, back):
            assert a.solver == b.solver
            assert np.array_equal(a.errors, b.errors)
            assert np.array_equal(a.omegas, b.omegas)

    def test_rewrite_is_byte_identical(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        recs = sample_records()
        write_trace_csv(p1, recs)
        write_trace_csv(p2, read_trace_csv(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_record_validation(self):
        with pytest.raises(InvalidInput):
            TraceRecord("r", "s", np.ones(3), np.ones(3))
        with pytest.raises(InvalidInput):
            TraceRecord("r", "s", np.array([1.0, np.inf]), np.ones(1))

    def test_reader_rejects_bad_files(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("")
        with pytest.raises(FormatError):
            read_trace_csv(p)
        p.write_text("a,b,c\n")
        with pytest.raises(FormatError):
            read_trace_csv(p)
        p.write_text("run_id,solver,k,error,omega\nr,s,0,1.0,0.5\n")
        with pytest.raises(FormatError):
            read_trace_csv(p)  # omega must be empty at k = 0
        p.write_text("run_id,solver,k,error,omega\nr,s,1,1.0,0.5\n")
        with pytest.raises(FormatError):
            read_trace_csv(p)  # k must start at 0
        p.write_text("run_id,solver,k,error,omega\nr,s,0,oops,\n")
        with pytest.raises(FormatError):
            read_trace_csv(p)


# Each study at a tiny size, for its trace records.
TINY_STUDIES = {
    "jacobi": lambda: run_jacobi(n=8, iters=12),
    "toy_power": lambda: run_toy_power(iters=12),
    "tanh_solve": lambda: run_tanh_solve(iters=8),
    "tanh_gram": lambda: run_tanh_gram(n=8, iters=30),
    "ista": lambda: run_ista(n=32, m=16, seeds=2, iters=60, fista_iters=10),
    "deblur": lambda: run_deblur(height=12, width=12, seeds=1, iters=16),
}


class TestStudyFiles:
    """A driver returns its result; ExperimentResult.write alone writes it."""

    def test_drivers_write_no_files(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for study in TINY_STUDIES.values():
            assert study().summary
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("study", sorted(TINY_STUDIES))
    def test_write_makes_the_directory(self, study, tmp_path):
        res = TINY_STUDIES[study]()
        out = tmp_path / "missing" / "nested"
        res.write(out)
        oracles.write_trace_csv(tmp_path / "oracle.csv", res.records)
        assert (out / f"{study}_traces.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()
        images = {f"{study}_{key}.pgm" for key in res.images}
        assert {p.name for p in out.iterdir()} == {
            f"{study}_traces.csv", f"{study}_summary.csv", *images
        }
        for name in images:
            assert read_pgm(out / name).shape == (12, 12)


class TestTraceCsvOracle:
    """The writer matches the row-at-a-time oracle byte for byte."""

    def assert_matches_oracle(self, tmp_path, records):
        ours, theirs = tmp_path / "ours.csv", tmp_path / "oracle.csv"
        write_trace_csv(ours, records)
        oracles.write_trace_csv(theirs, records)
        assert ours.read_bytes() == theirs.read_bytes()

    @pytest.mark.parametrize("study", sorted(TINY_STUDIES))
    def test_study_traces(self, study, tmp_path):
        records = TINY_STUDIES[study]().records
        assert records
        self.assert_matches_oracle(tmp_path, records)

    def test_quoted_run_id(self, tmp_path):
        rec = TraceRecord('a, "b" c', "cheb 8", np.array([2.0, 1.0]), np.array([0.5]))
        self.assert_matches_oracle(tmp_path, [rec])
        assert '"a, ""b"" c"' in (tmp_path / "ours.csv").read_text()

    def test_single_iterate(self, tmp_path):
        rec = TraceRecord("one", "plain", np.array([3.0]), np.array([]))
        self.assert_matches_oracle(tmp_path, [rec, *sample_records()])
        assert (tmp_path / "ours.csv").read_text().splitlines()[1] == "one,plain,0,3,"

    def test_extreme_values(self, tmp_path):
        values = np.array([-0.0, 5e-324, 1e308])
        rec = TraceRecord("x", "s", np.append(values, 1.0), values)
        self.assert_matches_oracle(tmp_path, [rec])
        lines = (tmp_path / "ours.csv").read_text().splitlines()
        cells = [line.split(",")[3] for line in lines[1:4]]
        assert cells == ["-0", "4.9406564584124654e-324", "1e+308"]

    def test_no_records(self, tmp_path):
        self.assert_matches_oracle(tmp_path, [])

    def test_signed_zero_omegas_stay_apart(self, tmp_path):
        # 0.0 and -0.0 are one dict key but two cells, "0" and "-0".
        omegas = np.array([0.0, -0.0, 0.0, 1.5, -0.0])
        rec = TraceRecord("z", "s", np.arange(6.0), omegas)
        self.assert_matches_oracle(tmp_path, [rec])
        lines = (tmp_path / "ours.csv").read_text().splitlines()
        assert [line.split(",")[4] for line in lines[2:]] == ["0", "-0", "0", "1.5", "-0"]

    def test_many_distinct_omegas(self, tmp_path):
        rng = np.random.default_rng(5)
        omegas = np.tile(rng.uniform(-3.0, 3.0, size=700), 3)
        rec = TraceRecord("many", "cheb700", rng.uniform(size=omegas.size + 1), omegas)
        self.assert_matches_oracle(tmp_path, [rec, *sample_records()])

    @pytest.mark.parametrize("text", ["a,b", 'say "hi"', "two\nlines", "cr\rhere", "100%", "%s%d", "{k}", ""])
    def test_run_id_and_solver_cells_are_quoted(self, text, tmp_path):
        recs = [
            TraceRecord(text, "plain", np.array([2.0, 1.0]), np.array([1.0])),
            TraceRecord("r", text, np.array([3.0, 2.0, 1.0]), np.array([0.5, 2.0])),
            TraceRecord(text, text, np.array([1.0]), np.array([])),
        ]
        self.assert_matches_oracle(tmp_path, recs)


class TestPgm:
    def test_header_and_quantization(self, tmp_path):
        p = tmp_path / "img.pgm"
        img = np.array([[0.0, 0.5], [1.0, 0.25]])
        write_pgm(p, img)
        raw = p.read_bytes()
        assert raw.startswith(b"P5\n2 2\n255\n")
        # floor(p*255 + 0.5): 0 -> 0, 0.5 -> 128, 1 -> 255, 0.25 -> 64
        assert list(raw[-4:]) == [0, 128, 255, 64]

    def test_roundtrip(self, tmp_path):
        p = tmp_path / "img.pgm"
        rng = np.random.default_rng(5)
        img = rng.uniform(size=(11, 7))
        write_pgm(p, img)
        back = read_pgm(p)
        assert back.shape == (11, 7)
        assert np.max(np.abs(back - img)) <= 0.5 / 255.0 + 1e-12

    def test_rewrite_byte_identical(self, tmp_path):
        p1, p2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
        img = np.random.default_rng(9).uniform(size=(5, 5))
        write_pgm(p1, img)
        write_pgm(p2, read_pgm(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_out_of_range_values_clip(self, tmp_path):
        p = tmp_path / "img.pgm"
        write_pgm(p, np.array([[-0.5, 1.5]]))
        assert list(p.read_bytes()[-2:]) == [0, 255]

    def test_comments_tolerated(self, tmp_path):
        p = tmp_path / "img.pgm"
        p.write_bytes(b"P5\n# a comment\n2 1\n# another\n255\n\x10\x20")
        img = read_pgm(p)
        assert img.shape == (1, 2)
        assert img[0, 0] == pytest.approx(16 / 255.0)

    def test_rejects_other_formats(self, tmp_path):
        p = tmp_path / "img.pgm"
        p.write_bytes(b"P2\n2 1\n255\n1 2\n")
        with pytest.raises(UnsupportedFormat):
            read_pgm(p)
        p.write_bytes(b"P5\n2 1\n65535\n\x00\x00\x00\x00")
        with pytest.raises(UnsupportedFormat):
            read_pgm(p)
        p.write_bytes(b"P5\n2 1\n255\n\x00")
        with pytest.raises(FormatError):
            read_pgm(p)  # truncated pixels
        with pytest.raises(InvalidInput):
            write_pgm(p, np.zeros(4))


class TestConfig:
    def test_parse_basics(self):
        text = "\n".join(
            [
                "# comment",
                "iters = 40",
                "",
                "solver=cheb",
                "label = two words ",
            ]
        )
        cfg = parse_config(text)
        assert cfg == {"iters": "40", "solver": "cheb", "label": "two words"}

    def test_errors(self):
        with pytest.raises(ConfigError):
            parse_config("novalue\n")
        with pytest.raises(ConfigError):
            parse_config("=4\n")
        with pytest.raises(ConfigError):
            parse_config("a=1\na=2\n")

    def test_load_from_file(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("n = 64\nperiod = 8\n")
        assert load_config(p) == {"n": "64", "period": "8"}
        with pytest.raises(OSError):
            load_config(tmp_path / "missing.cfg")

    def test_non_utf8_file_is_a_config_error(self, tmp_path):
        p = tmp_path / "latin.cfg"
        p.write_bytes(b"n = 64\nlabel = caf\xe9\n")
        with pytest.raises(ConfigError, match="latin.cfg"):
            load_config(p)
        p.write_bytes("label = caf\u00e9\n".encode("utf-8"))
        assert load_config(p) == {"label": "caf\u00e9"}
