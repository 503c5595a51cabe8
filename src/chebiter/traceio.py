"""File formats for experiment outputs: error-trace CSV, summary tables,
binary PGM images, and flat key=value config files.

Floats are written with %.17g so a written file reads back bit for bit,
and images quantize with floor(p * 255 + 0.5), which makes outputs
byte-identical across runs of the same experiment.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from .errors import ConfigError, FormatError, InvalidInput, UnsupportedFormat

__all__ = [
    "TRACE_HEADER",
    "TraceRecord",
    "write_trace_csv",
    "read_trace_csv",
    "write_pgm",
    "read_pgm",
    "parse_config",
    "load_config",
]

TRACE_HEADER = ("run_id", "solver", "k", "error", "omega")


@dataclass
class TraceRecord:
    """One run's error curve for serialization.

    errors[k] is the error at iterate k, so it has one more entry than
    omegas; omegas[k-1] is the relaxation factor that produced iterate k.
    """

    run_id: str
    solver: str
    errors: np.ndarray
    omegas: np.ndarray

    def __post_init__(self) -> None:
        self.errors = np.asarray(self.errors, dtype=float)
        self.omegas = np.asarray(self.omegas, dtype=float)
        if len(self.errors) != len(self.omegas) + 1:
            raise InvalidInput(
                f"record needs len(errors) == len(omegas) + 1, got "
                f"{len(self.errors)} and {len(self.omegas)}"
            )
        if not (np.all(np.isfinite(self.errors)) and np.all(np.isfinite(self.omegas))):
            raise InvalidInput("trace records must be finite")


# The one float format of every output file: 17 significant digits read
# back bit for bit.
_FLOAT_SPEC = ".17g"


def _fmt(x: float) -> str:
    return format(x, _FLOAT_SPEC)


class _Echo:
    """A file whose write returns its text, so that writerow on a
    csv.writer over it returns the line it would have written."""

    @staticmethod
    def write(text: str) -> str:
        return text


_CSV_LINE = csv.writer(_Echo, lineterminator="\n")


def _omega_cells(omegas: np.ndarray) -> List[str]:
    """_fmt of each omega, formatting each distinct value once. Values are
    keyed by their bits, which keeps 0.0 and -0.0 apart."""
    bits = omegas.view(np.int64).tolist()
    distinct = list(dict.fromkeys(bits))
    floats = np.array(distinct, dtype=np.int64).view(float).tolist()
    text = dict(zip(distinct, map(_fmt, floats)))
    return [text[b] for b in bits]


def write_trace_csv(path, records: Sequence[TraceRecord]) -> None:
    """Write runs as rows (run_id, solver, k, error, omega).

    Every iterate gets a row; the omega cell of row k holds the factor
    that produced that iterate and is empty at k = 0. Each record is
    built as one string, with its csv-quoted run_id and solver cells made
    once, and written in one call.
    """
    with open(path, "w", newline="") as fh:
        fh.write(_CSV_LINE.writerow(TRACE_HEADER))
        for rec in records:
            prefix = _CSV_LINE.writerow((rec.run_id, rec.solver, ""))[:-1]
            errors = rec.errors.tolist()
            rows = [f"{prefix}0,{errors[0]:{_FLOAT_SPEC}},\n"]
            rows += [
                f"{prefix}{k},{err:{_FLOAT_SPEC}},{omega}\n"
                for k, err, omega in zip(range(1, len(errors)), errors[1:], _omega_cells(rec.omegas))
            ]
            fh.write("".join(rows))


def write_rows_csv(path, rows: Sequence[dict]) -> None:
    """Write a non-empty list of same-keyed dicts as CSV, one row each,
    under a header of the first row's keys. Floats are written like
    trace values."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(rows[0])
        for row in rows:
            writer.writerow([_fmt(v) if isinstance(v, float) else v for v in row.values()])


def read_trace_csv(path) -> List[TraceRecord]:
    """Read a trace CSV back into records, in file order.

    The header must match exactly; each run's k column must count up from
    zero with the omega cell empty only on the k = 0 row.
    """
    with open(path, "r", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise FormatError("trace file is empty") from None
        if tuple(header) != TRACE_HEADER:
            raise FormatError(
                f"bad trace header {header!r}, expected {list(TRACE_HEADER)!r}"
            )
        order: List[str] = []
        solvers: Dict[str, str] = {}
        errors: Dict[str, List[float]] = {}
        omegas: Dict[str, List[float]] = {}
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 5:
                raise FormatError(f"line {lineno}: expected 5 cells, got {len(row)}")
            run_id, solver, k_str, err_str, omega_str = row
            try:
                k = int(k_str)
                err = float(err_str)
            except ValueError:
                raise FormatError(f"line {lineno}: malformed numeric cell") from None
            if run_id not in errors:
                order.append(run_id)
                solvers[run_id] = solver
                errors[run_id] = []
                omegas[run_id] = []
            elif solvers[run_id] != solver:
                raise FormatError(f"line {lineno}: run {run_id!r} changes solver")
            if k != len(errors[run_id]):
                raise FormatError(
                    f"line {lineno}: expected k = {len(errors[run_id])}, got {k}"
                )
            if k == 0:
                if omega_str != "":
                    raise FormatError(f"line {lineno}: k = 0 row must leave omega empty")
            else:
                try:
                    omegas[run_id].append(float(omega_str))
                except ValueError:
                    raise FormatError(f"line {lineno}: malformed omega cell") from None
            errors[run_id].append(err)
    return [
        TraceRecord(
            run_id=rid,
            solver=solvers[rid],
            errors=np.asarray(errors[rid]),
            omegas=np.asarray(omegas[rid]),
        )
        for rid in order
    ]


def write_pgm(path, image) -> None:
    """Write a 2-D array of intensities in [0, 1] as binary PGM (maxval 255).

    Values are clipped to [0, 1] and quantized with floor(p * 255 + 0.5).
    """
    img = np.asarray(image, dtype=float)
    if img.ndim != 2:
        raise InvalidInput(f"image must be 2-D, got shape {img.shape}")
    if not np.all(np.isfinite(img)):
        raise InvalidInput("image must be finite")
    h, w = img.shape
    levels = np.floor(np.clip(img, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(levels.tobytes())


def _pgm_header(data: bytes, path) -> tuple:
    """The four header tokens (magic, width, height, maxval) and the offset
    just past the last one, skipping whitespace and # comments."""
    tokens: List[bytes] = []
    i = 0
    while len(tokens) < 4:
        if i >= len(data):
            raise FormatError(f"{path}: truncated header")
        ch = data[i : i + 1]
        if ch in b" \t\r\n":
            i += 1
        elif ch == b"#":
            while i < len(data) and data[i : i + 1] != b"\n":
                i += 1
        else:
            start = i
            while i < len(data) and data[i : i + 1] not in b" \t\r\n#":
                i += 1
            tokens.append(data[start:i])
    return tokens, i


def read_pgm(path) -> np.ndarray:
    """Read a binary PGM written by write_pgm back to floats in [0, 1].

    Comments in the header are tolerated; only maxval 255 is supported.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(b"P5"):
        magic = data[:2].decode("ascii", errors="replace")
        raise UnsupportedFormat(f"{path}: magic {magic!r} is not binary PGM (P5)")
    tokens, offset = _pgm_header(data, path)
    try:
        w, h, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    except ValueError:
        raise FormatError(f"{path}: malformed header tokens {tokens[1:]!r}") from None
    if maxval != 255:
        raise UnsupportedFormat(f"{path}: maxval {maxval} unsupported, expected 255")
    if w < 1 or h < 1:
        raise FormatError(f"{path}: bad dimensions {w}x{h}")
    pixels = data[offset + 1 : offset + 1 + w * h]
    if len(pixels) != w * h:
        raise FormatError(f"{path}: expected {w * h} pixel bytes, found {len(pixels)}")
    levels = np.frombuffer(pixels, dtype=np.uint8).reshape(h, w)
    return levels.astype(float) / 255.0


def parse_config(text: str) -> Dict[str, str]:
    """Parse flat key=value lines into a dict.

    Blank lines and # comments are skipped; values keep internal spaces
    but are stripped at the ends. Duplicate keys and lines without '='
    are errors rather than silent surprises.
    """
    out: Dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key in {raw!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def load_config(path) -> Dict[str, str]:
    """parse_config over a file's UTF-8 contents; I/O errors propagate,
    and a file that is not UTF-8 raises ConfigError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text ({exc})") from None
    return parse_config(text)
