"""Command-line front end.

Subcommands: ``transform`` (recover a spectrum from a signal spec file),
``verify`` (recover and check against the file's ground truth), and
``bench-n`` and ``bench-r`` (scaling sweeps).
Reports are deterministic for a fixed seed except for timing fields.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import functools
import inspect
import json
import os
import sys

from . import __version__
from .bench import bench_n_rows, bench_r_rows, rows_to_csv, scored_run
from .errors import (CandidateBlowup, ContractionFailure, EnvelopeError,
                     ParseError)
from .md_transform import RankOneLattice
from .signal import load_signal_spec
from .support_recovery import SupportParams

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_SUPPORT = 3
EXIT_VALUES = 4
EXIT_ENVELOPE = 5

# How main reports a failure: the first row whose class matches sets the
# message prefix and the exit code.
FAILURES = (
    (ParseError, "error", EXIT_PARSE),
    (CandidateBlowup, "support recovery failed", EXIT_SUPPORT),
    (ContractionFailure, "value recovery failed", EXIT_VALUES),
    (EnvelopeError, "outside the supported envelope", EXIT_ENVELOPE),
    (ValueError, "error", EXIT_PARSE),
)

# SupportParams fields settable from transform/verify; unset ones keep its
# defaults.  R defaults to the file's support size and the file alone sets
# the noise level eta.
TUNING_FLAGS = (
    ("--mu", "mu", float, "lower bound on the smallest amplitude"),
    ("--delta-ratio", "delta_ratio", float, "dynamic range bound"),
)

# bench_n_rows/bench_r_rows parameters settable from bench-n/bench-r; unset
# ones keep those functions' defaults.
BENCH_COMMANDS = {"bench-n": bench_n_rows, "bench-r": bench_r_rows}
BENCH_FLAGS = (
    ("--r", "sparsity", int, "sparsity R"),
    ("--m", "axis_size", int, "axis size M"),
    ("--d", "dims", int, "dimensions d"),
    ("--eta", "eta", float, "noise level"),
    ("--trials", "trials", int, "trials per configuration"),
)


def _seed(text: str) -> int:
    """--seed's type: numpy seeds are nonnegative integers."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False everywhere: a prefix such as --m must not silently
    # select --mu.
    parser = argparse.ArgumentParser(
        prog="smfft", allow_abbrev=False,
        description="Sparse multidimensional FFT for nonnegative spectra.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = {f.name: f.default for f in dataclasses.fields(SupportParams)}

    def add_run(p: argparse.ArgumentParser):
        p.add_argument("--seed", type=_seed, default=0, help="base seed (default 0)")
        p.add_argument("--out", metavar="FILE", help="write report here "
                       "instead of stdout")

    for name, text in (("transform", "recover the sparse spectrum of a signal"),
                       ("verify", "recover and check against ground truth")):
        p = sub.add_parser(name, help=text, allow_abbrev=False)
        p.add_argument("--signal", metavar="FILE",
                       help="signal spec JSON file (sets d, M and the noise)")
        p.add_argument("--r", type=int, help="sparsity bound R")
        for flag, dest, kind, what in TUNING_FLAGS:
            p.add_argument(flag, type=kind, dest=dest,
                           help=f"{what} (default {defaults[dest]:g})")
        add_run(p)
        p.set_defaults(run=functools.partial(_run_file, check=name == "verify"))

    for name, text in (("bench-n", "timing sweep over the ambient size N"),
                       ("bench-r", "timing sweep over the sparsity R")):
        p = sub.add_parser(name, help=text, allow_abbrev=False)
        params = inspect.signature(BENCH_COMMANDS[name]).parameters
        for flag, dest, kind, what in BENCH_FLAGS:
            if dest in params:
                p.add_argument(flag, type=kind, dest=dest,
                               help=f"{what} (default {params[dest].default:g})")
        p.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="report format (default csv)")
        add_run(p)
        p.set_defaults(run=_run_bench)
    return parser


def _emit(text: str, out: str | None) -> None:
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParseError(f"cannot write report {out}: {exc.strerror or exc}") from exc


def _check_out(out: str | None) -> None:
    """Refuse a report path that cannot be written before any sample is
    drawn: a directory, or a file in a missing or read-only directory."""
    if not out:
        return
    folder = os.path.dirname(out) or "."
    if os.path.isdir(out):
        reason = errno.EISDIR
    elif not os.path.isdir(folder):
        reason = errno.ENOENT
    elif not os.access(folder, os.W_OK):
        reason = errno.EACCES
    else:
        return
    raise ParseError(f"cannot write report {out}: {os.strerror(reason)}")


def _run_file(args, check: bool) -> tuple[str, int]:
    if not args.signal:
        raise ParseError("--signal FILE is required for this command")
    dims, axis, entries, noise = load_signal_spec(args.signal)
    r_bound = args.r if args.r is not None else len(entries)
    tuning = {dest: getattr(args, dest) for _, dest, _, _ in TUNING_FLAGS
              if getattr(args, dest) is not None}
    params = SupportParams(r_bound=r_bound, eta=noise.eta, **tuning)
    recovered, report = scored_run(entries, RankOneLattice(dims, axis), noise,
                                   params, args.seed, args.seed)
    report.update(time_ms=round(report["time_ms"], 3),
                  success=bool(report["success"]),
                  support=[list(k) for k in sorted(recovered)],
                  values=[recovered[k] for k in sorted(recovered)])
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if check and not report["success"]:
        return text, EXIT_SUPPORT if set(recovered) != set(entries) else EXIT_VALUES
    return text, EXIT_OK


def _run_bench(args) -> tuple[str, int]:
    kwargs = {dest: getattr(args, dest) for _, dest, _, _ in BENCH_FLAGS
              if getattr(args, dest, None) is not None}
    rows = BENCH_COMMANDS[args.command](base_seed=args.seed, **kwargs)
    if args.format == "csv":
        return rows_to_csv(rows), EXIT_OK
    return json.dumps(rows, indent=2, sort_keys=True) + "\n", EXIT_OK


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else 0
    try:
        _check_out(args.out)
        text, code = args.run(args)
        _emit(text, args.out)
    except tuple(row[0] for row in FAILURES) as exc:
        _, prefix, code = next(row for row in FAILURES if isinstance(exc, row[0]))
        print(f"{prefix}: {exc}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
