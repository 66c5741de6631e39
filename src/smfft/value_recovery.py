"""Value recovery on a known support via prime-modulus measurements.

Samples the signal on T prime-size grids, which yields a block system
FB fhat = f0 where each B^(t) aliases the support mod a random prime and
F^(t) is a dense DFT block.  (1/T) B*B is a small perturbation of the
identity with probability >= 1/2 per draw, so the system is solved by a
truncated Neumann series; draws failing an observable contraction test are
rejected and redrawn.

Each prime grid k/p is requested for k = 0..p//2 only; the spectrum is
real, so the other half of the grid is the conjugate of the first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core_math import primes_greater_than
from .errors import ContractionFailure
from .signal import Sampler
from .support_recovery import SupportParams, sample_period

BLOCKS = 4  # T; the contraction probability bound needs T >= 4


@dataclass
class MeasurementSystem:
    """T prime-modulus sample blocks plus the implicit aliasing maps."""

    primes: list[int]
    # Per block: the distinct residues of the support mod p, sorted, and for
    # each support index the position of its residue among them.
    classes: list[np.ndarray]
    class_ids: list[np.ndarray]
    rhs: list[np.ndarray]  # per block: the P^(t) samples


def prime_pool_size(r_bound: int, n_total: int) -> int:
    """Size 4*R*log_R(N) of the prime drawing pool (base clamped to 2)."""
    base = max(r_bound, 2)
    size = 4 * max(r_bound, 1) * math.log(n_total) / math.log(base)
    # Tolerate float noise so exact powers (e.g. N = R^3) don't round up.
    return max(1, math.ceil(size - 1e-9))


def draw_measurement(support: np.ndarray, r_bound: int, n_total: int,
                     rng: np.random.Generator, sampler: Sampler) -> MeasurementSystem:
    """Draw T primes i.i.d. from the pool and sample the corresponding grids.

    ``support`` is an int64 array.  Draws are with replacement; a repeated
    prime simply weights its residue blocks twice in the normal equations.
    """
    if not support.size:
        raise ValueError("support must be nonempty")
    pool = primes_greater_than(r_bound, prime_pool_size(r_bound, n_total))
    picks = [pool[int(i)] for i in rng.integers(0, len(pool), BLOCKS)]
    rhs = [sample_period(sampler, 1, p, p) for p in picks]
    classes, class_ids = zip(*(np.unique(support % p, return_inverse=True)
                               for p in picks))
    return MeasurementSystem(picks, list(classes), list(class_ids), rhs)


def apply_normal(system: MeasurementSystem, x: np.ndarray) -> np.ndarray:
    """(1/T) B*B x, computed class-wise in O(T*R)."""
    x = np.asarray(x, dtype=complex)
    out = np.zeros_like(x)
    for ids in system.class_ids:
        # bincount adds in index order, so each class sum is the same
        # sequence of additions as an np.add.at scatter.
        out.real += np.bincount(ids, weights=x.real)[ids]
        out.imag += np.bincount(ids, weights=x.imag)[ids]
    return out / len(system.primes)


def back_project(system: MeasurementSystem) -> np.ndarray:
    """(1/T) (FB)* f0: per block, correlate the samples with the DFT kernel
    at the support residues, then average the blocks."""
    out = np.zeros(len(system.class_ids[0]), dtype=complex)
    for classes, ids, block in zip(system.classes, system.class_ids, system.rhs):
        # ifft folds the spectrum mod p: u_l = sum_{j = l mod p} fhat_j,
        # which is exactly B^(t) fhat read off at the residue classes.
        correlation = np.fft.ifft(block)
        out += correlation[classes][ids]
    return out / len(system.primes)


def neumann_solve(system: MeasurementSystem, terms: int):
    """Truncated Neumann series sum_{n=0}^{Z} (I - (1/T)B*B)^n f0hat.

    Returns (solution, residual_norms).  The residual norms certify the
    contraction: an accepted draw must halve them at each recorded step.
    """
    residual = back_project(system)
    solution = residual.copy()
    norms = [float(np.linalg.norm(residual))]
    for _ in range(terms):
        residual = residual - apply_normal(system, residual)
        solution += residual
        norms.append(float(np.linalg.norm(residual)))
    return solution, norms


def contraction_ok(norms: list[float]) -> bool:
    """Observable certificate for ||I - (1/T)B*B||_2 < 1/2.

    Checks geometric halving of the first two Neumann residuals.  A zero
    initial residual (exactly consistent data) is trivially accepted.
    """
    if len(norms) < 3 or norms[0] == 0.0:
        return True
    return norms[1] <= norms[0] / 2 and norms[2] <= max(norms[1] / 2, 1e-300)


def compute_values(support: np.ndarray, n_total: int, params: SupportParams,
                   sampler: Sampler, rng: np.random.Generator,
                   stats: dict | None = None) -> dict[int, float]:
    """Recover the spectrum values on the int64 array ``support`` to
    accuracy O(eta), or to 1e-10 when the samples are noiseless (eta = 0).

    Up to L = ceil(log2(1/p)) measurement draws are attempted; each accepted
    draw is solved with Z = ceil(log2(1/accuracy)) Neumann terms.  Recovered
    entries below mu/2 are dropped: with mu a valid lower bound on the
    smallest true amplitude, such entries can only be spurious support
    survivors (their exact value is zero).
    """
    support = np.sort(support)
    if not support.size:
        return {}
    accuracy = params.eta or 1e-10
    z_terms = max(2, math.ceil(math.log2(1.0 / accuracy)))
    attempts = max(1, math.ceil(math.log2(1.0 / params.p_fail)))
    for attempt in range(attempts):
        system = draw_measurement(support, params.r_bound, n_total, rng, sampler)
        solution, norms = neumann_solve(system, z_terms)
        if contraction_ok(norms):
            if stats is not None:
                stats["redraws"] = attempt
            return {j: float(v) for j, v in zip(support.tolist(), solution.real)
                    if v > params.mu / 2}
    raise ContractionFailure(
        f"all {attempts} measurement draws rejected for |support|={len(support)}")
