"""Command line front end for the reference experiments.

Every subcommand prints a short summary to stdout. When --out is given,
it first writes trace/summary CSV files (plus PGM images for deblur) into
that directory, so an I/O failure prints no summary. Reruns with
identical arguments reproduce the output files byte for byte.

A subcommand's flags and config keys are the keyword parameters of its
driver, typed by their defaults; a tuple default takes a comma list. A
key that the study chosen by --map does not take is refused.
Settings resolve in three layers: the driver's defaults, then a --config
file of flat key = value lines, then explicit flags. Exit codes: 0 on
success (a diverging run prints a warning but still exits 0), 2 on I/O
failure, 64 on a usage error, 65 on a config file error.
"""
from __future__ import annotations

import argparse
import inspect
import os
import sys
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import __version__
from .errors import ChebiterError, ConfigError
from .experiments import (
    ExperimentResult,
    bounds_rows,
    run_deblur,
    run_ista,
    run_jacobi,
    run_tanh_gram,
    run_tanh_solve,
    run_toy_power,
)
from .traceio import load_config, write_rows_csv

EX_OK = 0
EX_IOERR = 2
EX_USAGE = 64
EX_CONFIG = 65

# Subcommand -> (help, drivers by name in this module). A subcommand with
# several drivers picks one with --map, the first by default. Drivers are
# looked up by name on each call, so a wrapper installed over the module
# attribute is the one that runs.
STUDIES: Dict[str, Tuple[str, Dict[str, str]]] = {
    "bounds": ("print the contraction bound table for a range", {"": "bounds_rows"}),
    "jacobi": ("Jacobi iteration on a random dominant system", {"": "run_jacobi"}),
    "toy": (
        "small nonlinear maps (power / tanh / gram)",
        {"power": "run_toy_power", "tanh": "run_tanh_solve", "gram": "run_tanh_gram"},
    ),
    "ista": ("sparse recovery sweep with smooth shrinkage", {"": "run_ista"}),
    "deblur": ("image deblurring through a saturating blur", {"": "run_deblur"}),
}


def _int_list(text: str) -> Tuple[int, ...]:
    values = tuple(int(p) for p in text.split(",") if p.strip())
    if not values:
        raise ValueError(f"empty list {text!r}")
    return values


def _keywords(driver: Callable) -> Dict[str, Callable[[str], object]]:
    """Keyword parameter -> converter from text, by the type of its default."""
    return {
        p.name: _int_list if isinstance(p.default, tuple) else type(p.default)
        for p in inspect.signature(driver).parameters.values()
        if p.default is not p.empty
    }


# Read once, from the drivers as defined, so a wrapper installed later
# need not keep the signature of the driver it replaces.
KEYWORDS = {
    name: _keywords(globals()[name])
    for _, drivers in STUDIES.values()
    for name in drivers.values()
}


def _flags(drivers: Dict[str, str]) -> Dict[str, Callable[[str], object]]:
    """The union of the drivers' keywords, after --map if there is a choice."""
    flags: Dict[str, Callable[[str], object]] = {"map": str} if len(drivers) > 1 else {}
    for name in drivers.values():
        flags.update(KEYWORDS[name])
    return flags


FLAGS = {command: _flags(drivers) for command, (_, drivers) in STUDIES.items()}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse parser that reports usage problems as exceptions so the
    caller can map them to exit code 64."""

    def error(self, message):
        raise _UsageError(message)


@lru_cache(maxsize=None)
def build_parser() -> _Parser:
    parser = _Parser(prog="chebiter", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for command, (help_text, drivers) in STUDIES.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", default=None, help="flat key = value settings file")
        p.add_argument("--out", default=None, help="directory for trace/summary files")
        for key, convert in FLAGS[command].items():
            kwargs = {"default": argparse.SUPPRESS, "type": convert}
            if key == "map":
                kwargs["choices"] = tuple(drivers)
            p.add_argument(f"--{key.replace('_', '-')}", dest=key, **kwargs)
    return parser


def merge_settings(command: str, args: argparse.Namespace) -> Dict[str, object]:
    """The settings given by the config file, then overridden by flags.
    Settings given by neither are left to the driver's defaults."""
    flags = FLAGS[command]
    drivers = STUDIES[command][1]
    settings: Dict[str, object] = {}
    if args.config is not None:
        for key, raw in load_config(args.config).items():
            key = key.replace("-", "_")
            if key not in flags:
                raise ConfigError(f"unknown config key {key!r} for command {command!r}")
            try:
                settings[key] = flags[key](raw)
            except ValueError:
                raise ConfigError(f"config value for {key!r} is invalid: {raw!r}") from None
            if key == "map" and raw not in drivers:
                raise ConfigError(f"config value for 'map' must be one of {tuple(drivers)}")
    settings.update((key, value) for key, value in vars(args).items() if key in flags)
    return settings


def _hfmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _print_rows(rows: List[dict]) -> None:
    for row in rows:
        print("  " + " ".join(f"{k}={_hfmt(v)}" for k, v in row.items()))


def _print_bounds(rows: List[dict], path: Optional[str]) -> None:
    print(f"bounds: range [{_hfmt(rows[0]['range_a'])}, {_hfmt(rows[0]['range_b'])}]")
    _print_rows(rows)
    if path is not None:
        print(f"wrote {path}")


def _print_result(result: ExperimentResult, out_dir: Optional[str]) -> None:
    head = " ".join(f"{k}={_hfmt(v)}" for k, v in result.headline.items())
    print(f"{result.name}: {head}")
    _print_rows(result.summary)
    if out_dir is not None:
        print(f"wrote {result.trace_path(out_dir)} and {result.summary_path(out_dir)}")
    for message in result.warnings:
        print(f"warning: {message}", file=sys.stderr)


def _dispatch(args: argparse.Namespace, settings: Dict[str, object]) -> None:
    """Run the study that --map picks on the settings, refusing any it
    does not take: a stray flag is a usage error, a stray config key a
    config error."""
    command, out_dir = args.command, args.out
    drivers = STUDIES[command][1]
    choice = settings.pop("map", next(iter(drivers)))
    name = drivers[choice]
    for key in settings:
        if key in KEYWORDS[name]:
            continue
        if key in vars(args):
            raise _UsageError(f"--{key.replace('_', '-')} does not apply to --map {choice}")
        raise ConfigError(f"config key {key!r} does not apply to map {choice!r}")
    result = globals()[name](**settings)
    if command == "bounds":
        path = None
        if out_dir is not None:
            os.makedirs(out_dir, exist_ok=True)
            path = os.path.join(out_dir, "bounds.csv")
            write_rows_csv(path, result)
        _print_bounds(result, path)
    else:
        if out_dir is not None:
            result.write(out_dir)
        _print_result(result, out_dir)


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _dispatch(args, merge_settings(args.command, args))
    except SystemExit as exc:  # --help / --version
        return exc.code if isinstance(exc.code, int) else EX_OK
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EX_USAGE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EX_CONFIG
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EX_IOERR
    except ChebiterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_USAGE
    return EX_OK


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
