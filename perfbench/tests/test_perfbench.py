"""Self-tests of the benchmark harness.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness
from layers import LAYER_TIMES
from smfft import bench
from smfft.errors import CandidateBlowup, ContractionFailure

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Instance 12 of exact-shallow's seed 0 is the known value-stage miss: its
# contraction check accepts a draw whose residuals shrink by only 0.75 per
# term, and the error ends at 4.1e-6 against a 1e-8 rule.
CROSS_CHECK = [("deep-ladder", (0, 1)), ("wide-support", (0, 1)),
               ("exact-shallow", (0, 1, 12))]


def small_record(name, count, trace):
    """One pass over the first ``count`` instances of seed 0."""
    w = harness.WORKLOADS[name]
    instances = [harness.Instance.build(w, i) for i in range(count)]
    return harness.timed_passes(instances, 1, 0, trace=trace)


@pytest.mark.parametrize("name,slots", CROSS_CHECK)
def test_trials_match_bench_run_trial(name, slots):
    w = harness.WORKLOADS[name]
    for seed in slots:  # instance slots of workload seed 0
        trial = harness.run_trial(harness.Instance.build(w, seed))
        row = bench.run_trial(w.axis_size, w.dims, w.sparsity, w.eta, seed)
        assert trial.samples == row["samples"]
        assert trial.coef_err == row["rel_l2_error"]
        assert trial.success == bool(row["success"])


def test_failed_trials_are_counted_and_reported():
    w = harness.WORKLOADS["exact-shallow"]
    record = harness.RunRecord(untraced=[
        harness.run_trial(harness.Instance.build(w, slot)) for slot in (0, 12)])
    missed = [t for t in record.untraced if not t.success]
    result = harness.summarize(record, trace=False, setup_s=1.0)
    assert result["failed"] == len(missed)
    assert result["metrics"]["success_frac"] == 1 - len(missed) / 2
    assert harness.failure_report(record) == [
        f"instance seed {t.seed} failed: coef_err {t.coef_err:.3g}" for t in missed]


def test_traced_and_untraced_trials_agree():
    record = small_record("exact-shallow", 3, trace=True)
    assert len(record.traced) == len(record.untraced) == 3
    assert harness.reproducible(record)
    plain = {t.seed: t.fingerprint for t in record.untraced}
    assert {t.seed: t.fingerprint for t in record.traced} == plain


def test_counts_repeat_across_runs_with_one_seed():
    first, second = (small_record("exact-shallow", 2, trace=True) for _ in range(2))
    counts = [name for name, unit in harness.METRIC_UNITS.items()
              if unit in ("count", "ratio") and name in first.traced[0].layers]
    for a, b in zip(first.traced, second.traced):
        assert a.fingerprint == b.fingerprint
        assert {n: a.layers[n] for n in counts} == {n: b.layers[n] for n in counts}
    ends = [harness.end_to_end_metrics(r, 1.0) for r in (first, second)]
    for name in ("samples_per_trial", "success_frac"):
        assert ends[0][name] == ends[1][name]


def test_layer_self_times_add_up_to_wall_time():
    record = small_record("wide-support", 1, trace=True)
    for trial in record.traced:
        layers = trial.layers
        parts = [layers[n] for n in LAYER_TIMES]
        assert all(p >= 0 for p in parts)
        assert layers["bench.unattributed_ms"] >= 0
        assert math.isclose(sum(parts) + layers["bench.unattributed_ms"],
                            trial.total_ms, rel_tol=1e-9)
        assert layers["bench.unattributed_ms"] < 0.05 * trial.total_ms
        assert layers["signal.oracle_calls"] > 0 and layers["nufft.calls"] > 0
        samples = layers["support_recovery.samples"] + layers["value_recovery.samples"]
        assert samples == trial.samples


def test_layer_metrics_cover_benchmark_spec():
    record = small_record("exact-shallow", 1, trace=True)
    metrics = harness.summarize(record, trace=True, setup_s=0.0)["metrics"]
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["per_layer"])
    for m in SPEC["per_layer"] + SPEC["end_to_end"]:
        assert harness.METRIC_UNITS[m["name"]] == m["unit"]


def test_raised_errors_are_classified_failures(monkeypatch):
    assert harness.classify_failure(CandidateBlowup("x")) == "support_recovery.failures"
    assert harness.classify_failure(ContractionFailure("x")) == "value_recovery.failures"
    assert harness.classify_failure(ValueError("guard")) == "signal.guard_failures"

    def blow_up(*args, **kwargs):
        raise ContractionFailure("every draw rejected")

    monkeypatch.setattr(harness, "md_sfft", blow_up)
    trial = harness.run_trial(harness.Instance.build(harness.WORKLOADS["exact-shallow"], 0))
    assert not trial.success
    assert trial.failure == "value_recovery.failures"
    assert trial.coef_err == pytest.approx(1.0)


def test_passes_follow_the_budget_not_the_clock():
    # The pass counts README.md states for a run of --seconds 30.
    expected = {"deep-ladder": (6, 3), "wide-support": (4, 2), "exact-shallow": (4, 2)}
    for name, (plain, traced) in expected.items():
        w = harness.WORKLOADS[name]
        assert (w.passes(30, trace=False), w.passes(30, trace=True)) == (plain, traced)
        assert w.passes(1e-3, trace=False) == 1


def test_tail_leaves_ten_trials_beyond():
    assert harness.tail_ms([float(i) for i in range(1, 31)]) == 20.0
    assert harness.tail_ms([3.0, 1.0, 2.0]) == 1.0


def test_cli_prints_end_to_end_metrics():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact-shallow",
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_cli_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "deep-ladder",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert done.stdout == ""
