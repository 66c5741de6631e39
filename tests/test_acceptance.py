"""End-to-end acceptance gate.

Thirteen checks covering exact recovery, noise robustness, noise stability
up to the envelope's edge, its far corner, structured supports at R = 50 and
at that corner, the failure probability, runtime scaling in N and R, sample
complexity, lattice exactness, the lemma battery, and byte-level
reproducibility.  Each emits a single PASS/FAIL summary line on the real
stdout so it stays visible even under pytest capture.

The lemma battery (lemma_checks.py) checks the number-theoretic facts the
guarantees rest on against brute force at small sizes.  test_lemma_suite
reports five of its measurements and test_rank1_lattice_exactness the
rank-1 one; each is measured once per test run and shared with
test_properties.py::TestLemmaBattery.  One more test shows that the
isomorphism check fails on a wrong inverse.
"""

import json
import math
import statistics
import sys

import numpy as np

from smfft.bench import (bench_n_rows, bench_r_rows, make_params, meets_success_rule,
                         random_instance, run_trial, scored_run)
from smfft.cli import main as cli_main
from smfft.errors import SmfftError
from smfft.md_transform import (RankOneLattice, md_sample_adapter, md_sfft,
                                relative_l2_error)
from smfft.signal import NoiseModel
from smfft.support_recovery import NOISE_EDGE, SupportParams, plan_attempts

from lemma_checks import LEMMAS, measure, shuffle_isomorphism_failures


def _report(name, ok, detail):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})",
          file=sys.__stdout__, flush=True)
    assert ok, f"{name}: {detail}"


def test_noiseless_oracle_equivalence():
    """>= 98/100 exact recoveries (support equality and rel error <= 1e-8)
    across 1-D/2-D/3-D configurations, noiseless."""
    configs = ([(1 << 16, 1, r) for r in (1, 4, 16)]
               + [(64, 2, 16), (16, 3, 16)])
    successes = trials = 0
    for i, (m, d, r) in enumerate(configs):
        for t in range(20):
            row = run_trial(m, d, r, 0.0, 10_000 * i + t)
            trials += 1
            successes += row["success"]
    _report("noiseless-equivalence", successes >= 98,
            f"{successes}/{trials} exact, threshold 98")


def test_noisy_recovery_error():
    """Relative l2 error <= 3e-2 in >= 95% of 50 noisy 3-D trials
    (M = 2^7, R = 50, eta = 1e-2)."""
    good = sum(run_trial(128, 3, 50, 1e-2, 500 + t)["rel_l2_error"] <= 3e-2
               for t in range(50))
    _report("noisy-error", good >= 48, f"{good}/50 within 3e-2, threshold 48")


def test_noise_stability_to_envelope_edge():
    """All 40 trials at each noise level up to the envelope's edge
    eta = NOISE_EDGE*mu meet the success rule with relative l2 error <= eta
    (M = 2^7, d = 2, R = 50)."""
    edge = NOISE_EDGE * SupportParams(r_bound=50).mu
    worst, good = [], 0
    for eta in (1e-3, 1e-2, 2e-2, edge):
        rows = [run_trial(128, 2, 50, eta, 7000 + s) for s in range(40)]
        good += sum(row["success"] and row["rel_l2_error"] <= eta
                    for row in rows)
        worst.append(max(row["rel_l2_error"] for row in rows) / eta)
    _report("noise-stability", good == 160,
            f"{good}/160 within eta, eta up to {edge:g}; worst error/eta "
            + " / ".join(f"{w:.2f}" for w in worst))


def test_envelope_corners():
    """At the envelope's far corner, R = 7322 (K = 130680, the largest
    below 2^17) on grids padded to just under 2^46 in d = 1, 2 and 3, every
    trial meets the success rule: noiseless and at the noise edge
    eta = NOISE_EDGE*mu, with amplitudes drawn in [mu, delta_ratio*mu], all
    at mu, or all at delta_ratio*mu.  (One line more, R = 7323, gives
    K = 2^17, which test_lattice.py::TestEnvelope shows is rejected before
    the first sample.)"""
    r, params = 7322, SupportParams(r_bound=7322)
    edge = NOISE_EDGE * params.mu
    top = params.delta_ratio * params.mu
    # (axis, dims, eta, amplitude or None for drawn, seed); the d = 1 and
    # d = 3 grids pad to 130680 * 4 * 8^9 = 0.99701 * 2^46, from K and
    # from K/2 alike.
    trials = ((5_000_000, 2, 0.0, None, 1), (5_000_000, 2, edge, None, 1),
              (70_158_290_780_160, 1, edge, params.mu, 2),
              (41_243, 3, 0.0, top, 3), (41_243, 3, edge, params.mu, 4))
    worst, good = [], 0
    for axis, dims, eta, amp, seed in trials:
        entries, lattice, noise = random_instance(axis, dims, r, eta, seed)
        if amp is not None:
            entries = dict.fromkeys(entries, amp)
        _, row = scored_run(entries, lattice, noise, make_params(r, eta),
                            seed, seed + 2)
        good += row["success"]
        worst.append(row["rel_l2_error"] / max(eta, 1e-8))
    _report("envelope-corners", good == len(trials),
            f"{good}/{len(trials)} succeed at R = {r}, K = {params.k_base}; "
            f"worst error/max(eta, 1e-8) {max(worst):.3g}")


def structured_supports(n, r, k, deepest, rng):
    """Four supports of r flat indices on a grid of n points that a uniform
    draw almost never gives: a contiguous block, r lines in one residue
    class of ``deepest`` (n/deepest > r), r in one class mod K, and an
    arithmetic progression of step n//r."""
    step = n // r
    return {
        "block": rng.integers(0, n - r + 1) + np.arange(r),
        "deep class": rng.integers(0, deepest)
        + deepest * rng.choice(n // deepest, r, replace=False),
        "class mod K": rng.integers(0, k) + k * rng.choice(n // k, r, replace=False),
        "progression": rng.integers(0, step) + step * np.arange(r),
    }


def check_structured_supports(name, r, grids, etas, seeds):
    """Each structured support of r lines (structured_supports) on each
    (axis, dims) grid, at each noise level and seed, meets the success rule
    on the first attempt with a certified fit and no prime-grid fallback.
    The deep class is one of the deepest modulus M_j of the first search's
    ladder with N/M_j > r."""
    runs, failed, deepest_seen = 0, [], []
    for axis, dims in grids:
        lattice = RankOneLattice(dims, axis)
        n = lattice.total
        for eta in etas:
            params = make_params(r, eta)
            ladder, _ = plan_attempts(n, params)[0]
            deepest = max(m for m in ladder if n / m > r)
            deepest_seen.append(deepest)
            for seed in seeds:
                rng = np.random.default_rng(seed)
                for shape, flat in structured_supports(n, r, params.k_base, deepest,
                                                       rng).items():
                    entries = dict(zip(lattice.unflatten(flat),
                                       rng.uniform(0.5, 1.5, r).tolist()))
                    stats = {}
                    got = md_sfft(md_sample_adapter(entries, lattice, NoiseModel(eta, seed + 1)),
                                  lattice, params, np.random.default_rng(seed + 2), stats)
                    err = relative_l2_error(got, entries, lattice)
                    runs += 1
                    if not (meets_success_rule(got, entries, err, eta)
                            and stats["attempts"] == 1 and stats["fallbacks"] == 0
                            and stats["certified"]):
                        failed.append((axis, eta, seed, shape))
    _report(name, not failed,
            f"{runs - len(failed)}/{runs} succeed at R = {r} on the first attempt, "
            f"certified; deepest classes mod "
            f"{', '.join(map(str, sorted(set(deepest_seen))))}; failed: {failed}")


def test_structured_supports():
    """check_structured_supports at R = 50 on 465^3 and 10321^3,
    noiseless and at eta = 0.025 (the noise edge at mu = 0.5), seeds 0 and
    1."""
    check_structured_supports("structured-supports", 50, ((465, 3), (10321, 3)),
                              (0.0, NOISE_EDGE * 0.5), (0, 1))


def test_structured_supports_at_the_corner():
    """check_structured_supports at the envelope's far corner, R = 7322,
    on test_envelope_corners' grids (70,158,290,780,160 in d = 1, 5,000,000^2
    and 41,243^3), noiseless and at the noise edge eta = NOISE_EDGE*mu,
    seed 0.  N/K is about 5.4e8 > R, so every shape fits."""
    check_structured_supports(
        "structured-supports-corner", 7322,
        ((70_158_290_780_160, 1), (5_000_000, 2), (41_243, 3)),
        (0.0, NOISE_EDGE * SupportParams(r_bound=7322).mu), (0,))


def test_failure_probability_within_p():
    """The trials of 160 that raise a typed error or miss the success rule
    number at most p*160 plus three binomial standard deviations, at p =
    2^-14, on a noiseless shape (M = 2^8, d = 2, R = 256) and a noisy one
    (M = 2^7, d = 2, R = 50, eta = 1e-2).  p bounds the chance that all 14
    draws of the prime-grid fallback fail (value_recovery.DRAWS); the bound
    allows 0 failures per shape."""
    runs, p, counts, ok = 160, 2.0**-14, [], True
    for shape in ((256, 2, 256, 0.0), (128, 2, 50, 1e-2)):
        failed = 0
        for s in range(runs):
            try:
                failed += not run_trial(*shape, 8000 + s)["success"]
            except SmfftError:
                failed += 1
        ok &= failed <= p * runs + 3 * math.sqrt(p * (1 - p) * runs)
        counts.append(f"R = {shape[2]}: {failed}/{runs}")
    _report("failure-probability", ok, "; ".join(counts))


def test_runtime_flat_in_n():
    """Median runtime at N ~ 2^40 at most 4x the median at N ~ 2^20
    (d = 3, R = 50, 20 trials each)."""
    sizes = (102, 10321)  # 102^3 ~ 2^20, 10321^3 ~ 2^40
    for m in sizes:
        run_trial(m, 3, 50, 1e-2, 1)  # warm-up, discarded
    times = {m: [] for m in sizes}
    for t in range(20):
        # The sizes alternate trial by trial, so host drift hits both alike.
        for m in sizes:
            times[m].append(run_trial(m, 3, 50, 1e-2, 600 + t)["time_ms"])
    medians = {m: statistics.median(times[m]) for m in sizes}
    ratio = medians[10321] / medians[102]
    _report("runtime-flat-in-n", ratio <= 4.0,
            f"median {medians[102]:.0f} ms at 2^20 vs "
            f"{medians[10321]:.0f} ms at 2^40, ratio {ratio:.2f} <= 4")


def test_runtime_quasilinear_in_r():
    """Runtime at R = 256 at most 16x the runtime at R = 32 (N ~ 1e8)."""
    medians = {}
    for r in (32, 256):
        run_trial(465, 3, r, 1e-2, 2)  # warm-up, discarded
        times = [run_trial(465, 3, r, 1e-2, 700 + t)["time_ms"]
                 for t in range(5)]
        medians[r] = statistics.median(times)
    ratio = medians[256] / medians[32]
    _report("runtime-quasilinear-in-r", ratio <= 16.0,
            f"median {medians[32]:.0f} ms at R=32 vs "
            f"{medians[256]:.0f} ms at R=256, ratio {ratio:.2f} <= 16")


def test_sample_complexity_regression():
    """Distinct-sample counts fit c1 * R log R log N + c2 with R^2 >= 0.9."""
    rows = (bench_n_rows(trials=2, base_seed=5)
            + bench_r_rows(trials=2, base_seed=11))
    x = np.array([row["R"] * math.log(max(row["R"], 2)) * math.log(row["N"])
                  for row in rows])
    y = np.array([row["samples"] for row in rows], dtype=float)
    design = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    r2 = 1.0 - np.sum(resid**2) / np.sum((y - y.mean()) ** 2)
    _report("sample-complexity", r2 >= 0.9,
            f"R^2 = {r2:.3f} for samples ~ {coef[0]:.1f} * R log R log N "
            f"+ {coef[1]:.0f}, threshold 0.9")


def test_rank1_lattice_exactness():
    """Rank-1 quadrature recovers every coefficient to 1e-10 for all
    M <= 8, d <= 3."""
    worst, bound = measure("rank-1 error")
    _report("rank1-exactness", worst <= bound,
            f"all M<=8, d<=3; max coefficient error {worst:.3e}")


def test_lemma_suite():
    """Each lemma holds at its stated size: the isomorphism exhaustive to
    M = 200, the spectrum identity to 1e-10 over 200 spectra of M <= 64,
    prime separation over 50 supports with N <= 2^14, and the contraction
    rate over 200 dense-norm draws within 1/2 + 3 sigma."""
    measured = {name: measure(name) for name in LEMMAS if name != "rank-1 error"}
    failed = [name for name, (value, bound) in measured.items() if not value <= bound]
    _report("lemma-suite", not failed,
            f"{len(measured) - len(failed)}/{len(measured)} lemmas hold: "
            + ", ".join(f"{name} {value:.3g} (bound {bound:.3g})"
                        for name, (value, bound) in measured.items()))


def test_isomorphism_check_detects_broken_inverse():
    # The battery must catch a wrong inverse, not accept it silently: every
    # coprime pair fails with an inverse that is off by one.
    pairs = sum(math.gcd(q, m) == 1 for m in range(2, 21) for q in range(1, m))
    assert shuffle_isomorphism_failures(20, lambda q, m: pow(q, -1, m) + 1) == pairs


def test_reproducibility(tmp_path, capsys):
    """Identical seeds give byte-identical reports modulo timing fields."""
    doc = {"dims": 2, "axis_size": 32, "support": [[1, 2], [30, 17]],
           "values": [1.0, 0.75],
           "noise": {"kind": "gaussian", "eta": 0.01, "seed": 3}}
    sig = tmp_path / "sig.json"
    sig.write_text(json.dumps(doc))

    def strip_timing(text):
        return "\n".join(line for line in text.splitlines()
                         if '"time_ms"' not in line)

    outs = []
    for run in range(2):
        assert cli_main(["transform", "--signal", str(sig),
                         "--seed", "42"]) == 0
        outs.append(strip_timing(capsys.readouterr().out))
    json_ok = outs[0] == outs[1] and len(outs[0]) > 0

    csvs = []
    for run in range(2):
        assert cli_main(["bench-r", "--trials", "1", "--m", "32",
                         "--seed", "42"]) == 0
        raw = capsys.readouterr().out.strip().splitlines()
        cols = raw[0].split(",")
        drop = cols.index("time_ms")
        csvs.append([",".join(c for i, c in enumerate(line.split(","))
                              if i != drop) for line in raw])
    csv_ok = csvs[0] == csvs[1]
    _report("reproducibility", json_ok and csv_ok,
            f"transform bytes equal: {json_ok}, bench csv equal: {csv_ok}")
