"""File formats: the experiment outputs (error-trace CSV, summary tables,
binary PGM images), which the package writes and never reads, and flat
key=value config files, which it reads.

Floats are written with %.17g so a written file reads back bit for bit,
and images quantize with floor(p * 255 + 0.5), which makes outputs
byte-identical across runs of the same experiment.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from .errors import ConfigError, InvalidInput

__all__ = [
    "TRACE_HEADER",
    "TraceRecord",
    "write_trace_csv",
    "write_pgm",
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
