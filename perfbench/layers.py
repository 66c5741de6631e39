"""Per-layer spans and counts, wrapped around smfft's public functions.

Each wrapped function is a span.  A span's self time is its duration minus
the time of the spans it encloses, so the self times of one ``md_sfft`` call
plus its unattributed remainder add up to the call's wall time.  Functions
are patched where their caller looks them up (``md_transform.find_support``,
``signal.make_noise``, ...), and put back when the context ends; nothing in
``src/`` knows about the tracer.

Layer spans:

- ``signal.oracle_ms``: ``Sampler.sample_progression`` (direct exponential
  sum, phase set-up), less its ledger, noise and nufft children.
- ``signal.ledger_ms``: ``SampleLedger.record``.
- ``signal.noise_ms``: ``make_noise``.
- ``nufft.ms``: ``nufft_exp_sum``, the oracle's gridded path.
- ``support_recovery.base_ms``: ``initial_aliased_support``, less sampling.
- ``support_recovery.probe_ms``: ``compute_phi`` (window, fold, FFT).
- ``support_recovery.prune_ms``: ``find_aliased_support`` (coprime draw,
  thresholding) and ``find_support`` (ladder plan, candidate translates).
- ``value_recovery.draw_ms``: ``draw_measurement`` (prime pool, residues).
- ``value_recovery.solve_ms``: ``neumann_solve`` and ``compute_values``
  (contraction check, dropping spurious entries).
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

from smfft import md_transform, signal, support_recovery, value_recovery

LAYER_TIMES = (
    "signal.oracle_ms", "signal.noise_ms", "signal.ledger_ms", "nufft.ms",
    "support_recovery.base_ms", "support_recovery.probe_ms",
    "support_recovery.prune_ms", "value_recovery.draw_ms",
    "value_recovery.solve_ms",
)

LAYER_COUNTS = (
    "signal.oracle_calls", "signal.points_requested", "nufft.calls",
    "support_recovery.levels", "support_recovery.probe_calls",
    "support_recovery.candidates", "support_recovery.survivors",
    "support_recovery.samples", "value_recovery.draws",
    "value_recovery.samples", "value_recovery.dropped",
)

LAYER_SHARES = ("signal.dup_frac", "support_recovery.survivor_frac")


class LayerTracer:
    """Self-time spans and counts for one traced ``md_sfft`` call at a time."""

    def __init__(self):
        self._stack: list[list[float]] = []
        self._ledger = None
        self.times: dict[str, float] = {}
        self.counts: dict[str, float] = {}
        self.final_ratio = 0.0

    def begin(self, ledger) -> None:
        """Start a trial whose oracle records into ``ledger``."""
        self._ledger = ledger
        self.times = defaultdict(float)
        self.counts = defaultdict(float)
        self.final_ratio = 0.0

    def finish(self, total_ms: float) -> dict[str, float]:
        """The trial's layer metrics; ``total_ms`` is its wall time."""
        out = {name: self.times[name] * 1e3 for name in LAYER_TIMES}
        out["bench.unattributed_ms"] = total_ms - sum(out.values())
        out.update({name: self.counts[name] for name in LAYER_COUNTS})
        requested = self._ledger.total_requests
        out["signal.dup_frac"] = (1.0 - self._ledger.unique_count / requested
                                  if requested else 0.0)
        candidates = self.counts["support_recovery.candidates"]
        out["support_recovery.survivor_frac"] = (
            self.counts["support_recovery.survivors"] / candidates
            if candidates else 0.0)
        out["value_recovery.final_ratio"] = self.final_ratio
        return out

    def _span(self, name, fn, before=None, after=None):
        stack, tracer = self._stack, self

        def wrapper(*args, **kwargs):
            state = before(*args, **kwargs) if before else None
            frame = [0.0]  # time of enclosed spans
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                tracer.times[name] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
            if after:
                after(state, args, result)
            return result

        return wrapper

    def _count(self, name, amount=1.0):
        self.counts[name] += amount

    def _unique(self, *args, **kwargs):
        return self._ledger.unique_count

    def _patches(self):
        """(owner, attribute, wrapper) for every traced function."""
        count = self._count

        def oracle_call(sampler, start, step, n, den):
            count("signal.oracle_calls")
            count("signal.points_requested", n)

        def level(candidate, *args, **kwargs):
            count("support_recovery.levels")
            count("support_recovery.candidates", len(candidate))

        def survivors(state, args, result):
            count("support_recovery.survivors", len(result))

        def support_samples(before, args, result):
            count("support_recovery.samples", self._ledger.unique_count - before)

        def value_samples(before, args, result):
            count("value_recovery.samples", self._ledger.unique_count - before)
            count("value_recovery.dropped", len(set(args[0])) - len(result))

        def residual_ratio(state, args, result):
            norms = result[1]
            self.final_ratio = norms[-1] / norms[-2] if norms[-2] > 0 else 0.0

        span = self._span
        return [
            (signal.Sampler, "sample_progression",
             span("signal.oracle_ms", signal.Sampler.sample_progression, oracle_call)),
            (signal.SampleLedger, "record",
             span("signal.ledger_ms", signal.SampleLedger.record)),
            (signal, "make_noise", span("signal.noise_ms", signal.make_noise)),
            (signal, "nufft_exp_sum",
             span("nufft.ms", signal.nufft_exp_sum,
                  lambda *a, **k: count("nufft.calls"))),
            (md_transform, "find_support",
             span("support_recovery.prune_ms", md_transform.find_support,
                  self._unique, support_samples)),
            (support_recovery, "initial_aliased_support",
             span("support_recovery.base_ms", support_recovery.initial_aliased_support,
                  lambda *a, **k: count("support_recovery.levels"))),
            (support_recovery, "find_aliased_support",
             span("support_recovery.prune_ms", support_recovery.find_aliased_support,
                  level, survivors)),
            (support_recovery, "compute_phi",
             span("support_recovery.probe_ms", support_recovery.compute_phi,
                  lambda *a, **k: count("support_recovery.probe_calls"))),
            (md_transform, "compute_values",
             span("value_recovery.solve_ms", md_transform.compute_values,
                  self._unique, value_samples)),
            (value_recovery, "draw_measurement",
             span("value_recovery.draw_ms", value_recovery.draw_measurement,
                  lambda *a, **k: count("value_recovery.draws"))),
            (value_recovery, "neumann_solve",
             span("value_recovery.solve_ms", value_recovery.neumann_solve,
                  after=residual_ratio)),
        ]

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced function for the duration of the block."""
        originals = []
        try:
            for owner, attr, wrapper in self._patches():
                originals.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)
