"""Timed, checked passes of ``md_sfft`` over a seeded instance set.

A workload is one problem shape (dims, axis size, sparsity, noise level).
A run builds a fixed set of instances from the workload seed, sets up once,
then makes whole passes over the set, in a new seeded order each pass, so
every instance is timed at several points of the run.  The number of passes
follows from the time budget and the workload's nominal trial time, never
from the clock, so one seed and budget always make the same trials and the
same failures.  Every trial is checked with the success rule of
``smfft.bench.run_trial``.

On a shared 2-vCPU VM the host flips between a fast and a slow state (about
1.35x) for seconds at a time, so a median over all trials jumps between the
two modes from run to run.  The typical-time metrics therefore average each instance over its
repeats, which spreads across the whole run, and report the median of those
averages over the instance set.

Instance ``i`` of a run with seed ``s`` is exactly the trial
``run_trial(axis_size, dims, sparsity, eta, 1000 * s + i)``: same instance,
same noise, same algorithm randomness.
"""

from __future__ import annotations

import gc
import random
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from smfft.bench import make_params, random_instance
from smfft.errors import CandidateBlowup, ContractionFailure, SmfftError
from smfft.md_transform import md_sample_adapter, md_sfft, relative_l2_error
from smfft.signal import SampleLedger

from layers import LAYER_COUNTS, LAYER_SHARES, LAYER_TIMES, LayerTracer

# Instance seeds are 1000 * seed + i; the warm-up uses the last slot.
SEED_STRIDE = 1000
WARMUP_SLOT = SEED_STRIDE - 1

# Below this success fraction a run is a broken program, not the rare
# value-stage misses that success_frac and failed already report.
MIN_SUCCESS_FRAC = 0.8

# Trials beyond the tail percentile (the 11th-slowest trial).
TAIL_TRIALS = 10

# No pass starts once the run has measured this long, so a much slower
# program still exits in time; at nominal speed the limit is never reached.
HARD_LIMIT_S = 110.0

LAYER_FAILURES = ("signal.guard_failures", "support_recovery.failures",
                  "value_recovery.failures")


METRIC_UNITS = {
    "recover_ms_p50": "ms", "recover_ms_tail": "ms", "algo_ms_p50": "ms",
    "samples_per_trial": "count", "success_frac": "ratio",
    "peak_rss_mb": "MB", "setup_s": "s",
    **{name: "ms" for name in LAYER_TIMES + ("bench.unattributed_ms",)},
    **{name: "count" for name in LAYER_COUNTS + LAYER_FAILURES},
    **{name: "ratio" for name in LAYER_SHARES},
    "value_recovery.final_ratio_max": "ratio",
    "coef_err_p50": "ratio", "coef_err_max": "ratio",
    "bench.trace_overhead_pct": "%", "bench.host_calib_ms": "ms",
}


@dataclass(frozen=True)
class Workload:
    axis_size: int
    dims: int
    sparsity: int
    eta: float
    instances: int  # sized so a default run makes several passes
    trial_ms: float  # nominal wall time of one checked trial, sets the passes

    def passes(self, seconds: float, trace: bool) -> int:
        """Whole passes that fill ``seconds`` at the nominal trial time.

        A traced pass runs each instance twice, traced and untraced.
        """
        pass_ms = self.instances * self.trial_ms * (2 if trace else 1)
        return max(1, int(seconds * 1e3 / pass_ms))


WORKLOADS = {
    # N = 10321^3 ~ 2^40, R = 50: 31 ladder levels, oracle on the direct path.
    "deep-ladder": Workload(10321, 3, 50, 1e-2, 10, 470.0),
    # N = 465^3 ~ 1e8, R = 256: widest candidate sets, oracle through nufft.
    "wide-support": Workload(465, 3, 256, 1e-2, 8, 870.0),
    # N = 256^2 = 2^16, R = 256, noiseless: 5 levels, 34 Neumann terms,
    # success needs error <= 1e-8.
    "exact-shallow": Workload(256, 2, 256, 0.0, 20, 320.0),
}


@dataclass
class Instance:
    seed: int
    workload: Workload
    entries: dict
    lattice: object
    noise: object
    params: object

    @classmethod
    def build(cls, workload: Workload, seed: int) -> "Instance":
        w = workload
        entries, lattice, noise = random_instance(w.axis_size, w.dims,
                                                  w.sparsity, w.eta, seed)
        return cls(seed, w, entries, lattice, noise,
                   make_params(w.sparsity, w.eta))


@dataclass
class Trial:
    """One timed ``md_sfft`` call and its checked outcome."""

    seed: int
    total_ms: float
    oracle_ms: float
    samples: int
    coef_err: float
    success: bool
    failure: str | None  # layer failure metric, or None when nothing raised
    fingerprint: tuple
    layers: dict | None = None  # traced trials only

    @property
    def algo_ms(self) -> float:
        return self.total_ms - self.oracle_ms


class OracleClock:
    """Thin timer at the oracle boundary: two clock reads per call."""

    def __init__(self, sampler):
        self.seconds = 0.0
        inner = sampler.sample_progression

        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                self.seconds += time.perf_counter() - start

        sampler.sample_progression = timed


def classify_failure(exc: Exception) -> str:
    if isinstance(exc, CandidateBlowup):
        return "support_recovery.failures"
    if isinstance(exc, ContractionFailure):
        return "value_recovery.failures"
    if type(exc) is ValueError:
        return "signal.guard_failures"
    return "bench.other_failures"


def run_trial(inst: Instance, tracer: LayerTracer | None = None) -> Trial:
    """Time one ``md_sfft`` call on ``inst`` and check it like run_trial."""
    w = inst.workload
    ledger = SampleLedger()
    if tracer is not None:
        tracer.begin(ledger)
    sampler = md_sample_adapter(inst.entries, inst.lattice, inst.noise, ledger)
    clock = OracleClock(sampler)
    rng = np.random.default_rng(inst.seed + 2)
    recovered, failure = {}, None
    gc.collect()
    start = time.perf_counter()
    try:
        recovered = md_sfft(sampler, inst.lattice, inst.params, rng)
    except (SmfftError, ValueError) as exc:
        failure = classify_failure(exc)
    total_ms = (time.perf_counter() - start) * 1e3
    # A call that raised returned nothing: relative error 1.
    err = relative_l2_error(recovered, inst.entries, inst.lattice)
    err_cap = 1e-8 if w.eta == 0 else 3 * w.eta
    rec_keys = set(recovered) if w.dims > 1 else {k[0] for k in recovered}
    success = failure is None and rec_keys == set(inst.entries) and err <= err_cap
    layers = tracer.finish(total_ms) if tracer is not None else None
    return Trial(inst.seed, total_ms, clock.seconds * 1e3, ledger.unique_count,
                 err, success, failure,
                 (tuple(sorted(recovered.items())), ledger.unique_count, failure),
                 layers)


_CALIB_VECTOR = np.exp(2j * np.pi * np.arange(1 << 14) / 7.0)


def host_calibration_ms() -> float:
    """A fixed numpy-FFT plus Python-set kernel; shows a slow host, never a divisor."""
    start = time.perf_counter()
    for _ in range(8):
        np.fft.ifft(_CALIB_VECTOR)
    points = set()
    points.update(zip(range(40000), range(1, 40001)))
    return (time.perf_counter() - start) * 1e3


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def build_instances(workload: Workload, seed: int) -> list[Instance]:
    return [Instance.build(workload, SEED_STRIDE * seed + i)
            for i in range(workload.instances)]


def warm_up(workload: Workload, seed: int) -> None:
    """One untimed call: fills the prime sieve and FFT plans."""
    run_trial(Instance.build(workload, SEED_STRIDE * seed + WARMUP_SLOT))


@dataclass
class RunRecord:
    """Every trial of a run, plus the host calibration between passes."""

    untraced: list[Trial] = field(default_factory=list)
    traced: list[Trial] = field(default_factory=list)
    calib_ms: list[float] = field(default_factory=list)
    passes: int = 0
    seconds: float = 0.0

    @property
    def trials(self) -> list[Trial]:
        return self.untraced + self.traced


def timed_passes(instances, passes: int, seed: int, trace: bool,
                 after_pass=None) -> RunRecord:
    """``passes`` whole passes over ``instances``, fewer only past HARD_LIMIT_S.

    With ``trace``, each instance runs twice per pass, traced and untraced,
    in alternating order, so the tracing overhead is measured on the same
    instances at the same point of the run.  ``after_pass`` runs between
    passes, outside the time budget.
    """
    record = RunRecord()
    tracer = LayerTracer() if trace else None
    while True:
        start = time.perf_counter()
        order = list(range(len(instances)))
        random.Random(seed * 7919 + record.passes).shuffle(order)
        for pos, i in enumerate(order):
            inst = instances[i]
            if not trace:
                record.untraced.append(run_trial(inst))
                continue
            traced_first = (record.passes + pos) % 2 == 0
            for traced in (traced_first, not traced_first):
                if traced:
                    with tracer.installed():
                        record.traced.append(run_trial(inst, tracer))
                else:
                    record.untraced.append(run_trial(inst))
        record.calib_ms.append(host_calibration_ms())
        record.passes += 1
        record.seconds += time.perf_counter() - start
        if record.passes == passes or record.seconds > HARD_LIMIT_S:
            return record
        if after_pass is not None:
            after_pass()


def median_of_instance_means(trials: list[Trial], key) -> float:
    """Median over instances of ``key(trial)`` averaged over each one's repeats."""
    repeats = {}
    for t in trials:
        repeats.setdefault(t.seed, []).append(key(t))
    return statistics.median(statistics.fmean(v) for v in repeats.values())


def first_by_instance(trials: list[Trial]) -> list[Trial]:
    seen = {}
    for t in trials:
        seen.setdefault(t.seed, t)
    return [seen[s] for s in sorted(seen)]


def reproducible(record: RunRecord) -> bool:
    """Every repeat of an instance, traced or not, gave the identical result."""
    first = {}
    for t in record.trials:
        if first.setdefault(t.seed, t.fingerprint) != t.fingerprint:
            return False
    return True


def tail_ms(times: list[float]) -> float:
    """The highest percentile with at least TAIL_TRIALS trials beyond it."""
    ordered = sorted(times)
    return ordered[max(0, len(ordered) - TAIL_TRIALS - 1)]


def end_to_end_metrics(record: RunRecord, setup_s: float) -> dict[str, float]:
    trials = record.untraced
    per_instance = first_by_instance(trials)
    return {
        "recover_ms_p50": median_of_instance_means(trials, lambda t: t.total_ms),
        "recover_ms_tail": tail_ms([t.total_ms for t in trials]),
        "algo_ms_p50": median_of_instance_means(trials, lambda t: t.algo_ms),
        "samples_per_trial": statistics.median(t.samples for t in per_instance),
        "success_frac": sum(t.success for t in trials) / len(trials),
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": setup_s,
    }


def layer_metrics(record: RunRecord) -> dict[str, float]:
    traced = record.traced
    per_instance = first_by_instance(traced)
    out = {name: median_of_instance_means(traced, lambda t: t.layers[name])
           for name in LAYER_TIMES + ("bench.unattributed_ms",)}
    for name in LAYER_COUNTS + LAYER_SHARES:
        out[name] = statistics.median(t.layers[name] for t in per_instance)
    out["value_recovery.final_ratio_max"] = max(
        t.layers["value_recovery.final_ratio"] for t in per_instance)
    for name in LAYER_FAILURES:
        out[name] = sum(t.failure == name for t in per_instance)
    errors = [t.coef_err for t in first_by_instance(record.untraced)]
    out["coef_err_p50"] = statistics.median(errors)
    out["coef_err_max"] = max(errors)
    untraced_p50, traced_p50 = (
        median_of_instance_means(trials, lambda t: t.total_ms)
        for trials in (record.untraced, traced))
    out["bench.trace_overhead_pct"] = 100.0 * (traced_p50 / untraced_p50 - 1.0)
    out["bench.host_calib_ms"] = statistics.median(record.calib_ms)
    return out


def summarize(record: RunRecord, trace: bool, setup_s: float) -> dict:
    trials = record.trials
    success_frac = sum(t.success for t in trials) / len(trials)
    correct = reproducible(record) and success_frac >= MIN_SUCCESS_FRAC
    return {
        "correct": correct,
        "attempted": len(trials),
        "failed": sum(not t.success for t in trials),
        "metrics": layer_metrics(record) if trace else end_to_end_metrics(record, setup_s),
    }


def failure_report(record: RunRecord) -> list[str]:
    """One line per instance that missed the success rule."""
    return [f"instance seed {t.seed} failed: {t.failure or f'coef_err {t.coef_err:.3g}'}"
            for t in first_by_instance(record.trials) if not t.success]
