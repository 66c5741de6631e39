"""Command-line front end.

Subcommands: ``transform`` (recover a spectrum from a signal spec file),
``verify`` (recover and check against the file's ground truth), ``bench-n``
and ``bench-r`` (scaling sweeps), and ``selftest`` (the lemma battery).
Reports are deterministic for a fixed seed except for timing fields.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .bench import bench_n_rows, bench_r_rows, meets_success_rule, rows_to_csv
from .errors import CandidateBlowup, ContractionFailure, ParseError
from .md_transform import (RankOneLattice, md_sample_adapter, md_sfft,
                           relative_l2_error)
from .selftest import run_selftest
from .signal import NoiseModel, SampleLedger, load_signal_spec
from .support_recovery import SupportParams

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_SUPPORT = 3
EXIT_VALUES = 4

# SupportParams fields settable from transform/verify; unset ones keep its defaults.
TUNING_FLAGS = (
    ("--alpha", "alpha", float, "probe survival rate per round"),
    ("--delta", "delta", float, "threshold fraction"),
    ("--rho", "rho", int, "max ladder growth factor"),
    ("--p", "p_fail", float, "per-stage failure probability"),
    ("--mu", "mu", float, "lower bound on the smallest amplitude"),
    ("--delta-ratio", "delta_ratio", float, "dynamic range bound"),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smfft",
        description="Sparse multidimensional FFT for nonnegative spectra.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = {f.name: f.default for f in dataclasses.fields(SupportParams)}

    def add_run(p: argparse.ArgumentParser):
        p.add_argument("--seed", type=int, default=0,
                       help="base seed (SMFFT_SEED overrides)")
        p.add_argument("--out", metavar="FILE", help="write report here "
                       "instead of stdout")

    for name, text in (("transform", "recover the sparse spectrum of a signal"),
                       ("verify", "recover and check against ground truth")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--signal", metavar="FILE",
                       help="signal spec JSON file")
        p.add_argument("--m", type=int, help="axis size M")
        p.add_argument("--d", type=int, help="dimensions d")
        p.add_argument("--r", type=int, help="sparsity bound R")
        for flag, dest, kind, what in TUNING_FLAGS:
            p.add_argument(flag, type=kind, dest=dest,
                           help=f"{what} (default {defaults[dest]:g})")
        p.add_argument("--eta", type=float, help="noise level / value accuracy")
        add_run(p)

    for name, text, flag, flag_help in (
            ("bench-n", "timing sweep over the ambient size N",
             "--r", "sparsity R (default 50)"),
            ("bench-r", "timing sweep over the sparsity R",
             "--m", "axis size M (default 465)")):
        p = sub.add_parser(name, help=text)
        p.add_argument(flag, type=int, help=flag_help)
        p.add_argument("--d", type=int, help="dimensions d (default 3)")
        p.add_argument("--eta", type=float, default=1e-2,
                       help="noise level (default 1e-2)")
        p.add_argument("--trials", type=int, default=5,
                       help="trials per configuration (default 5)")
        p.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="report format (default csv)")
        add_run(p)

    add_run(sub.add_parser("selftest", help="run the built-in lemma checks"))
    return parser


def _effective_seed(args) -> int:
    env = os.environ.get("SMFFT_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ParseError(f"SMFFT_SEED must be an integer, got {env!r}") from exc
    return args.seed


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _run_file(args, check: bool) -> tuple[str, int]:
    if not args.signal:
        raise ParseError("--signal FILE is required for this command")
    dims, axis, entries, noise = load_signal_spec(args.signal)
    if args.d is not None and args.d != dims:
        raise ParseError(f"--d {args.d} contradicts file dims {dims}")
    if args.m is not None and args.m != axis:
        raise ParseError(f"--m {args.m} contradicts file axis_size {axis}")
    if args.eta is not None:
        eta = args.eta
        noise = NoiseModel(eta=eta, kind="gaussian", seed=noise.seed) if (
            eta > 0) else NoiseModel()
    else:
        eta = noise.eta
    lattice = RankOneLattice(dims, axis)
    r_bound = args.r if args.r is not None else len(entries)
    tuning = {dest: getattr(args, dest) for _, dest, _, _ in TUNING_FLAGS
              if getattr(args, dest) is not None}
    params = SupportParams(r_bound=r_bound, eta=eta, **tuning)
    seed = _effective_seed(args)
    ledger = SampleLedger()
    sampler = md_sample_adapter(entries, lattice, noise, ledger)
    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    recovered = md_sfft(sampler, lattice, params, rng)
    time_ms = (time.perf_counter() - start) * 1e3

    err = relative_l2_error(recovered, entries, lattice)
    success = meets_success_rule(recovered, entries, err, eta)
    report = {
        "N": lattice.total, "R": r_bound, "d": dims, "eta": eta, "seed": seed,
        "time_ms": round(time_ms, 3), "samples": ledger.unique_count,
        "rel_l2_error": err, "success": bool(success),
        "support": [list(k) for k in sorted(recovered)],
        "values": [recovered[k] for k in sorted(recovered)],
    }
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    code = EXIT_OK
    if check and not success:
        code = EXIT_SUPPORT if set(recovered) != set(entries) else EXIT_VALUES
    return text, code


def _run_bench(args, which: str) -> tuple[str, int]:
    kwargs = dict(eta=args.eta, trials=args.trials, base_seed=_effective_seed(args))
    if args.d is not None:
        kwargs["dims"] = args.d
    if which == "n":
        if args.r is not None:
            kwargs["sparsity"] = args.r
        rows = bench_n_rows(**kwargs)
    else:
        if args.m is not None:
            kwargs["axis_size"] = args.m
        rows = bench_r_rows(**kwargs)
    if args.format == "csv":
        return rows_to_csv(rows), EXIT_OK
    return json.dumps(rows, indent=2, sort_keys=True) + "\n", EXIT_OK


def _run_selftest(args) -> tuple[str, int]:
    results = run_selftest(seed=_effective_seed(args))
    lines = [f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}"
             for r in results]
    ok = all(r.passed for r in results)
    lines.append(f"{'all suites passed' if ok else 'SELFTEST FAILED'}")
    return "\n".join(lines) + "\n", EXIT_OK if ok else 1


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else 0
    try:
        if args.command == "transform":
            text, code = _run_file(args, check=False)
        elif args.command == "verify":
            text, code = _run_file(args, check=True)
        elif args.command == "bench-n":
            text, code = _run_bench(args, "n")
        elif args.command == "bench-r":
            text, code = _run_bench(args, "r")
        else:
            text, code = _run_selftest(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CandidateBlowup as exc:
        print(f"support recovery failed: {exc}", file=sys.stderr)
        return EXIT_SUPPORT
    except ContractionFailure as exc:
        print(f"value recovery failed: {exc}", file=sys.stderr)
        return EXIT_VALUES
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    _emit(text, args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
