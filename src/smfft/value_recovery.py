"""Value recovery on a known support via prime-modulus measurements.

Samples the signal on T prime-size grids, which yields a block system
FB fhat = f0 where each B^(t) aliases the support mod a random prime and
F^(t) is a dense DFT block.  (1/T) B*B is a small perturbation of the
identity with probability >= 1/2 per draw, so the system is solved by a
truncated Neumann series; draws failing an observable contraction test are
rejected and redrawn.

The spectrum is real, so f(-x) = conj f(x), and each prime grid k/p is
requested for k = 0..p//2 only.  The whole system is real: each grid is
read at the support residues as soon as it is sampled, with one gridded sum
(:func:`nufft.hermitian_exp_sum`, a real FFT of an 11-smooth size), never a
prime-length FFT, and the Neumann series runs on float64 vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core_math import primes_below
from .errors import ContractionFailure
from .nufft import hermitian_exp_sum
from .signal import Sampler
from .support_recovery import SupportParams

BLOCKS = 4  # T; the contraction probability bound needs T >= 4
_primes = np.zeros(0, dtype=np.int64)  # every prime up to the largest pool yet


@dataclass
class MeasurementSystem:
    """The normal equations (1/T) B*B fhat = f0hat of T prime-modulus blocks:
    f0hat = (1/T) (FB)* f0 as float64, and per block each support index's
    position among the sorted distinct residues mod p, all B*B needs."""

    primes: list[int]
    class_ids: list[np.ndarray]
    f0hat: np.ndarray


def prime_pool(r_bound: int, n_total: int) -> np.ndarray:
    """The pool measurement blocks are drawn from: the 4*R*log_R(N) smallest
    primes above R (R clamped to 1, the log base to 2), ascending, cut from
    one prime array that is sieved again only when a pool passes its end."""
    global _primes
    r = max(r_bound, 1)
    size = 4 * r * math.log(n_total) / math.log(max(r_bound, 2))
    # Tolerate float noise so exact powers (e.g. N = R^3) don't round up.
    count = max(1, math.ceil(size - 1e-9))
    while (start := int(np.searchsorted(_primes, r, side="right"))) + count > len(_primes):
        n = r + count  # the pool ends by the n-th prime, below 2.2 n log(n + 10)
        _primes = primes_below(int(4.4 * n * math.log(n + 10)))  # twice: room to grow
    return _primes[start:start + count].copy()  # a copy: the array is shared


def draw_measurement(support: np.ndarray, r_bound: int, n_total: int,
                     rng: np.random.Generator, sampler: Sampler) -> MeasurementSystem:
    """Draw T primes i.i.d. from the pool, sample each grid and fold it into
    the right-hand side f0hat at the support residues.

    ``support`` is an int64 array.  Draws are with replacement; a repeated
    prime simply weights its residue blocks twice in the normal equations.
    """
    if not support.size:
        raise ValueError("support must be nonempty")
    pool = prime_pool(r_bound, n_total)
    picks = pool[rng.integers(0, len(pool), BLOCKS)].tolist()
    class_ids = []
    f0hat = np.zeros(len(support))
    for p in picks:
        half = sampler.sample_progression(0, 1, p // 2 + 1, p)
        classes, ids = np.unique(support % p, return_inverse=True)
        # The correlation folds the spectrum mod p: u_l = (1/p) sum_k y_k
        # exp(2*pi*i*k*l/p) = sum_{j = l mod p} fhat_j, which is exactly
        # B^(t) fhat read off at the residue classes.
        f0hat += (hermitian_exp_sum(half, p, classes / p) / p)[ids]
        class_ids.append(ids)
    return MeasurementSystem(picks, class_ids, f0hat / len(picks))


def apply_normal(system: MeasurementSystem, x: np.ndarray) -> np.ndarray:
    """(1/T) B*B x for a float64 vector x, computed class-wise in O(T*R)."""
    out = np.zeros(len(x))
    for ids in system.class_ids:
        # bincount adds in index order, so each class sum is the same
        # sequence of additions as an np.add.at scatter.
        out += np.bincount(ids, weights=x)[ids]
    return out / len(system.primes)


def neumann_solve(system: MeasurementSystem, terms: int):
    """Truncated Neumann series sum_{n=0}^{Z} (I - (1/T)B*B)^n f0hat.

    Returns (solution, residual_norms).  The norms are in units of the power
    of two at the largest |f0hat| entry, so their squares stay finite; they
    certify the contraction: an accepted draw must halve them at each
    recorded step.
    """
    # The series is linear, so solving in those units is exact.
    unit = math.ldexp(1.0, -math.frexp(float(np.abs(system.f0hat).max()))[1])
    residual = system.f0hat * unit
    solution = residual.copy()
    norms = [float(np.linalg.norm(residual))]
    for _ in range(terms):
        residual = residual - apply_normal(system, residual)
        solution += residual
        norms.append(float(np.linalg.norm(residual)))
    return solution / unit, norms


def contraction_ok(norms: list[float]) -> bool:
    """Observable certificate for ||I - (1/T)B*B||_2 < 1/2.

    Checks geometric halving of the first two Neumann residuals, and that
    the last of the Z recorded after the first is at most 2^-Z times it,
    as that event implies.  A zero first residual (all-zero data) leaves
    every later one zero, which all three checks accept.
    """
    if len(norms) < 3:
        return True
    return (norms[1] <= norms[0] / 2 and norms[2] <= max(norms[1] / 2, 1e-300)
            and norms[-1] <= math.ldexp(norms[0], 1 - len(norms)))


def compute_values(support: np.ndarray, n_total: int, params: SupportParams,
                   sampler: Sampler, rng: np.random.Generator,
                   stats: dict | None = None) -> dict[int, float]:
    """Recover the spectrum values on the int64 array ``support`` to
    accuracy O(max(eta, 1e-10)); an empty support gives ``{}``.

    Up to A = max(1, ceil(-log2 p)) measurement draws are attempted; each
    accepted draw is solved with Z = max(2, ceil(-log2 max(eta, 1e-10)))
    Neumann terms.  The prime pool is sized by max(R, |support|), so a
    support larger than R (an R set too low, or spurious survivors) does
    not lower the chance of a contracting draw.  Entries below mu/2 are
    dropped: mu bounds every true amplitude from below, so they can only be
    spurious survivors, whose exact value is zero.
    """
    support = np.sort(support)
    if not support.size:
        return {}
    z_terms = max(2, math.ceil(-math.log2(max(params.eta, 1e-10))))
    attempts = max(1, math.ceil(-math.log2(params.p_fail)))
    for attempt in range(attempts):
        system = draw_measurement(support, max(params.r_bound, len(support)),
                                  n_total, rng, sampler)
        solution, norms = neumann_solve(system, z_terms)
        if contraction_ok(norms):
            if stats is not None:
                stats["redraws"] = attempt
            return {j: float(v) for j, v in zip(support.tolist(), solution)
                    if v > params.mu / 2}
    raise ContractionFailure(
        f"all {attempts} measurement draws rejected for |support|={len(support)}")
