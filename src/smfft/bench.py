"""Randomized experiment runners behind the benchmark commands.

Every trial is fully determined by its seed: the instance (support and
amplitudes), the noise realization, and the algorithm's random choices all
derive from it.
"""

from __future__ import annotations

import time

import numpy as np

from .md_transform import (RankOneLattice, md_sample_adapter, md_sfft,
                           relative_l2_error)
from .signal import NoiseModel, SampleLedger
from .support_recovery import SupportParams

CSV_COLUMNS = ("N", "R", "d", "eta", "seed", "time_ms", "samples",
               "rel_l2_error", "success")

# Default sweeps: N = M^3 over a geometric grid (cost is N-independent, so
# the sweep extends far past any dense baseline), and an R sweep at N ~ 1e8.
BENCH_N_AXIS_SIZES = (102, 256, 645, 1626, 4096, 10321)
BENCH_R_AXIS_SIZE = 465
BENCH_R_VALUES = (8, 16, 32, 64, 128, 256)


def random_instance(axis_size: int, dims: int, sparsity: int, eta: float,
                    seed: int):
    """A random sparse nonnegative instance with amplitudes in [0.5, 1.5]."""
    lattice = RankOneLattice(dims, axis_size)
    if sparsity > lattice.total:
        raise ValueError(f"sparsity R = {sparsity} exceeds the grid size N = {lattice.total}")
    rng = np.random.default_rng(seed)
    if lattice.total < 1 << 30:
        flat = rng.choice(lattice.total, size=sparsity, replace=False)
    else:  # the R smallest distinct of 4R draws, topped up after collisions
        flat = np.empty(0, dtype=np.int64)
        while len(flat) < sparsity:  # sorted and distinct; np.unique imports numpy.ma
            flat = np.sort(np.concatenate([flat, rng.integers(0, lattice.total, 4 * sparsity)]))
            flat = flat[np.diff(flat, prepend=-1) > 0][:sparsity]
    amps = rng.uniform(0.5, 1.5, size=len(flat))
    entries = dict(zip(lattice.unflatten(flat), amps.tolist()))
    noise = NoiseModel(eta, seed + 1)
    return entries, lattice, noise


def meets_success_rule(recovered: dict, truth: dict, err: float,
                       eta: float) -> bool:
    """Exact support, and relative error <= max(3*eta, 1e-8)."""
    return set(recovered) == set(truth) and err <= max(3 * eta, 1e-8)


def make_params(sparsity: int, eta: float) -> SupportParams:
    return SupportParams(r_bound=sparsity, eta=eta)


def scored_run(entries: dict, lattice: RankOneLattice, noise: NoiseModel,
               params: SupportParams, seed: int, rng_seed: int):
    """Recover ``entries`` from its samples and score the result.

    Returns (recovered, row): the recovered spectrum and a CSV-schema row
    whose ``time_ms`` covers ``md_sfft`` alone.
    """
    ledger = SampleLedger()
    sampler = md_sample_adapter(entries, lattice, noise, ledger)
    rng = np.random.default_rng(rng_seed)
    start = time.perf_counter()
    recovered = md_sfft(sampler, lattice, params, rng)
    elapsed_ms = (time.perf_counter() - start) * 1e3
    err = relative_l2_error(recovered, entries, lattice)
    success = meets_success_rule(recovered, entries, err, params.eta)
    return recovered, {
        "N": lattice.total, "R": params.r_bound, "d": lattice.dims,
        "eta": params.eta, "seed": seed, "time_ms": elapsed_ms,
        "samples": ledger.unique_count, "rel_l2_error": err,
        "success": int(success),
    }


def run_trial(axis_size: int, dims: int, sparsity: int, eta: float,
              seed: int) -> dict:
    """One recovery trial; returns a CSV-schema row dict."""
    entries, lattice, noise = random_instance(axis_size, dims, sparsity, eta, seed)
    return scored_run(entries, lattice, noise, make_params(sparsity, eta),
                      seed, seed + 2)[1]


def sweep(configs, trials: int, base_seed: int) -> list[dict]:
    """Run ``trials`` seeded trials per (axis_size, dims, sparsity, eta) config."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rows = []
    for i, (axis_size, dims, sparsity, eta) in enumerate(configs):
        # Discard a warm-up run so timings exclude one-time costs.
        run_trial(axis_size, dims, sparsity, eta, base_seed + 1000003 * i)
        for t in range(trials):
            rows.append(run_trial(axis_size, dims, sparsity, eta,
                                  base_seed + 1000003 * i + 17 * (t + 1)))
    return rows


def bench_n_rows(sparsity: int = 50, dims: int = 3, eta: float = 1e-2,
                 trials: int = 5, base_seed: int = 0) -> list[dict]:
    configs = [(m, dims, sparsity, eta) for m in BENCH_N_AXIS_SIZES]
    return sweep(configs, trials, base_seed)


def bench_r_rows(axis_size: int = BENCH_R_AXIS_SIZE, dims: int = 3,
                 eta: float = 1e-2, trials: int = 5, base_seed: int = 0) -> list[dict]:
    configs = [(axis_size, dims, r, eta) for r in BENCH_R_VALUES]
    return sweep(configs, trials, base_seed)


def rows_to_csv(rows: list[dict]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(_format(row[c]) for c in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def _format(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)
