"""Benchmark of smfft's end-to-end sparse transform, with a per-layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload deep-ladder --seed 1 --seconds 30 --trace 0

Progress and diagnostics go to standard error.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  See README.md in this directory.
"""

import time

_STARTED = time.perf_counter()  # a set-up probe counts its imports from here

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS/OpenMP thread, fixed before numpy is first imported: the
# libraries would otherwise size their pools from the host, not the VM.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("deep-ladder", "wide-support", "exact-shallow")

# Fresh processes that each import and warm up once, spread between the
# passes of the run; setup_s is their median.
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 150


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_harness():
    """Import the harness against the smfft sources of this checkout."""
    if not (SRC / "smfft" / "__init__.py").is_file():
        raise SystemExit(f"error: no smfft sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import harness
    import smfft

    if Path(smfft.__file__).resolve().parent != SRC / "smfft":
        raise SystemExit(f"error: imported smfft from {smfft.__file__}, not {SRC}")
    return harness


def setup_probe(args) -> None:
    """Child mode: import, warm up once, print the elapsed seconds."""
    harness = import_harness()
    harness.warm_up(harness.WORKLOADS[args.workload], args.seed)
    print(repr(time.perf_counter() - _STARTED))


def measure_setup_s(args) -> float:
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", args.workload, "--seed", str(args.seed), "--seconds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if done.returncode != 0:
        raise SystemExit(f"error: set-up probe failed:\n{done.stderr}")
    return float(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0
    harness = import_harness()
    workload = harness.WORKLOADS[args.workload]
    instances = harness.build_instances(workload, args.seed)
    harness.warm_up(workload, args.seed)
    setup_times = []

    def setup_probe_between_passes():
        if not args.trace and len(setup_times) < SETUP_PROBES:
            setup_times.append(measure_setup_s(args))

    passes = workload.passes(args.seconds, bool(args.trace))
    record = harness.timed_passes(instances, passes, args.seed,
                                  trace=bool(args.trace),
                                  after_pass=setup_probe_between_passes)
    while not args.trace and len(setup_times) < SETUP_PROBES:
        setup_times.append(measure_setup_s(args))
    setup_s = statistics.median(setup_times) if setup_times else 0.0
    result = harness.summarize(record, bool(args.trace), setup_s)
    for line in harness.failure_report(record):
        print(line, file=sys.stderr)
    print(f"{args.workload}: {len(record.trials)} trials in {record.passes} passes "
          f"over {len(instances)} instances, {record.seconds:.1f} s; tail is the "
          f"{harness.TAIL_TRIALS + 1}th-slowest of {len(record.untraced)} untraced trials",
          file=sys.stderr)
    if not all(math.isfinite(v) for v in result["metrics"].values()):
        raise SystemExit(f"error: non-finite metric in {result['metrics']}")
    result["metrics"] = {name: {"value": value, "unit": harness.METRIC_UNITS[name]}
                         for name, value in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
