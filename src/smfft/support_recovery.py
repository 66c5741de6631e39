"""Support recovery: the dealiasing ladder and the shuffle/filter/probe test.

The ladder starts at a base modulus K sized so a full size-K DFT is cheap,
then grows the working modulus by bounded factors.  At each level the
candidate set (translated copies of the previous aliased support) is pruned
by L randomized probe rounds, run as one batch: shuffle frequencies by L
random coprime multipliers q (one oracle call each), weight the L x K
samples by a wrapped-Gaussian window, take one batched size-K FFT, and keep
the candidates whose probe clears the threshold in every round.
Nonnegativity of the spectrum guarantees true support always survives;
random shuffling makes spurious candidates fail some round with high
probability.  compute_phi, probe_index and core_math.mulmod take q as an
int64 array that broadcasts.

The spectrum is real, so f(-x) = conj f(x): every period of samples, the
base level's and each probe round's, is requested for its offsets
0..P//2 only (:func:`sample_period`) and the rest filled by conjugation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core_math import (gaussian_window, mulmod, next_fast_len, sample_coprime,
                        window_offsets)
from .errors import CandidateBlowup
from .signal import Sampler

# Candidate sets beyond this multiple of K signal parameter misuse.
CANDIDATE_CAP_FACTOR = 8


@dataclass(frozen=True)
class SupportParams:
    """Tunables of the support search plus the user-supplied estimates.

    mu is a lower bound on the smallest nonzero amplitude, delta_ratio an
    upper bound on the dynamic range ||fhat||_inf / mu.  Neither is estimated
    from data; defaults match an amplitude range of [0.5, 1.5].  eta is the
    samples' noise level (0 when noiseless), at most delta*mu/2.
    """

    r_bound: int
    alpha: float = 0.15
    delta: float = 0.1
    rho: int = 2
    p_fail: float = 1e-4
    mu: float = 0.5
    delta_ratio: float = 3.0
    eta: float = 0.0

    def __post_init__(self):
        if self.r_bound < 0:
            raise ValueError("r_bound must be nonnegative")
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must lie in (0, 1)")
        if not 0 < self.delta < 1:
            raise ValueError("delta must lie in (0, 1)")
        if self.rho < 2:
            raise ValueError("rho must be >= 2")
        if not 0 < self.p_fail < 1:
            raise ValueError("p_fail must lie in (0, 1)")
        if self.mu <= 0 or self.delta_ratio < 1:
            raise ValueError("mu must be > 0 and delta_ratio >= 1")
        if not 0 <= self.eta <= self.delta * self.mu / 2:
            raise ValueError(f"noise level eta = {self.eta} violates "
                             "0 <= eta <= delta*mu/2")

    @property
    def k_base(self) -> int:
        """Base modulus K: the paper's bound ceil(max{8, 2/a}/pi * R *
        sqrt(log(2RD/d) log(2D/d))) rounded up to the next 11-smooth size,
        so every size-K FFT takes a fast radix path (a larger K only
        widens the filter's margin)."""
        r = max(self.r_bound, 1)
        l1 = math.log(2 * r * self.delta_ratio / self.delta)
        l2 = math.log(2 * self.delta_ratio / self.delta)
        c = max(8.0, 2.0 / self.alpha) / math.pi
        return next_fast_len(math.ceil(c * r * math.sqrt(l1 * l2)))

    @property
    def probe_rounds(self) -> int:
        """L = ceil(log_alpha(p)) independent shuffle rounds per level."""
        return max(1, math.ceil(math.log(self.p_fail) / math.log(self.alpha)))

    @property
    def threshold(self) -> float:
        """delta*mu/2 probe threshold, halved again when noise is present."""
        t = self.delta * self.mu / 2
        return t / 2 if self.eta > 0 else t

    def sigma(self, modulus: int) -> float:
        """Gaussian width alpha*(M/2R)/sqrt(log(2*R*Delta/delta))."""
        r = max(self.r_bound, 1)
        l1 = math.log(2 * r * self.delta_ratio / self.delta)
        return self.alpha * (modulus / (2 * r)) / math.sqrt(l1)


def _min_product_with_factors(target: int, count: int, rho: int) -> tuple[int, ...]:
    """Smallest product >= target using exactly ``count`` factors in [2, rho]."""
    best: list[tuple[int, ...] | None] = [None]

    def recur(chosen: list[int], product: int, remaining: int, min_f: int):
        if product * (rho**remaining) < target:
            return
        if remaining == 0:
            if best[0] is None or product < math.prod(best[0]):
                best[0] = tuple(chosen)
            return
        # Nondecreasing factors avoid enumerating permutations.
        for f in range(min_f, rho + 1):
            recur(chosen + [f], product * f, remaining - 1, f)

    recur([], 1, count, 2)
    assert best[0] is not None
    return best[0]


def plan_ladder(requested_n: int, k_base: int, rho: int) -> tuple[int, ...]:
    """The ladder moduli M_1 = K, M_{k+1} = rho_k * M_k, rho_k in [2, rho].

    The last modulus is the padded size N >= requested_n.  The number of
    ladder steps is minimized first (factors as large as allowed), then the
    overshoot: among plans with that many steps, the smallest padded N wins.
    """
    if requested_n < 1:
        raise ValueError("requested_n must be positive")
    if k_base >= requested_n:
        return (k_base,)
    target = -(-requested_n // k_base)  # ceil division
    steps = max(1, math.ceil(math.log(target) / math.log(rho)))
    while rho**steps < target:  # guard against float log rounding
        steps += 1
    moduli = [k_base]
    for f in _min_product_with_factors(target, steps, rho):
        moduli.append(moduli[-1] * f)
    return tuple(moduli)


def dealias_candidates(aliased: np.ndarray, m_k: int, rho_k: int) -> np.ndarray:
    """The rho_k translated copies n + m*m_k of the aliased support, as an
    int64 array; sorted when ``aliased`` is."""
    aliased = np.asarray(aliased, dtype=np.int64)
    if aliased.size and (aliased.min() < 0 or aliased.max() >= m_k):
        raise ValueError("aliased indices must lie in [0, m_k)")
    return (m_k * np.arange(rho_k, dtype=np.int64)[:, None] + aliased).ravel()


def sample_period(sampler: Sampler, step: int, period: int, den: int) -> np.ndarray:
    """Samples of f at offsets i*step/den for one period of P = ``period``
    offsets, in mod-P order: entry i holds offset i, or offset i - P once i
    passes P//2.

    Only offsets 0..P//2 are requested, in one oracle call; the others are
    their conjugates, since a real spectrum gives f(-x) = conj f(x).
    """
    half = sampler.sample_progression(0, step, period // 2 + 1, den)
    return np.concatenate([half, half[(period + 1) // 2 - 1:0:-1].conj()])


def initial_aliased_support(sampler: Sampler, m1: int,
                            params: SupportParams) -> np.ndarray:
    """Aliased support at the base level via one full size-M_1 DFT, as a
    sorted int64 array.

    The aliased coefficients are sums of nonnegative entries, so an index is
    in the aliased support iff its coefficient clears the threshold.
    """
    fhat = np.fft.ifft(sample_period(sampler, 1, m1, m1))
    return np.flatnonzero(np.abs(fhat) > params.threshold).astype(np.int64, copy=False)


def probe_window(sigma: float, m_k: int, k_base: int) -> np.ndarray:
    """Wrapped-Gaussian weights at the K window offsets lo..hi of
    :func:`window_offsets`; they depend only on the level, not the round."""
    lo, hi = window_offsets(k_base)
    return gaussian_window(np.arange(lo, hi + 1), sigma, m_k)


def compute_phi(sampler: Sampler, m_k: int, k_base: int, qs,
                weights: np.ndarray) -> np.ndarray:
    """Probe spectra phi at the K grid points j*M_k/K, one row per Q in the
    ints or int64 array ``qs``.

    Row Q takes the K window samples at (m*Q mod M)/M, m = lo..hi, which
    under the exp(-2*pi*i*x*j) convention relabels line l to l*Q; one oracle
    call per row covers m = 0..K//2 (:func:`sample_period`).  All rows are
    weighted by ``weights`` (:func:`probe_window`), folded mod K and
    transformed by a size-K DFT with kernel exp(+2*pi*i*n*m/K), so a peak at
    grid point n of a row certifies a line near n*M/K in that row's shuffled
    spectrum, matching :func:`probe_index`.
    """
    if m_k % k_base != 0:
        raise ValueError("k_base must divide m_k")
    lo, _ = window_offsets(k_base)
    samples = np.empty((len(qs), k_base), dtype=complex)
    for row, q in zip(samples, qs):
        row[:] = sample_period(sampler, q, k_base, m_k)
    # The samples sit at offset m mod K.  The offsets lo..hi are one full
    # residue system mod K, so folding the weights is a rotation.
    samples *= np.roll(weights, lo) / m_k
    return np.fft.ifft(samples, axis=1, norm="forward")


def probe_index(n, q, m_k: int, k_base: int):
    """Grid index nearest (n*Q mod M_k)*K/M_k, rounding half up, mod K.

    ``n`` is an int or int64 array in [0, M_k), ``q`` an int or int64 array
    that broadcasts against it.  Exact for M_k <= MAX_MODULUS = 2^46 and
    K < 2^17: n*Q is reduced by :func:`mulmod`, and s*K + M_k/2 <
    (2^46 - 1)(2^17 - 1) + 2^45 < 2^63.
    """
    s = mulmod(n, q, m_k)
    return ((s * k_base + m_k // 2) // m_k) % k_base


def find_aliased_support(candidate: np.ndarray, m_k: int, k_base: int,
                         params: SupportParams, sampler: Sampler,
                         rng: np.random.Generator) -> np.ndarray:
    """Prune a sorted int64 candidate array down to the aliased support at
    modulus m_k, returned as a sorted int64 array.

    Probes L independent shuffle rounds as one batch; a candidate survives
    only if its probe clears the threshold in every round.  True aliased
    support always survives (noiseless); each spurious candidate survives
    all rounds with probability at most about alpha^L = p_fail.
    """
    qs = np.array([sample_coprime(m_k, rng) for _ in range(params.probe_rounds)])
    phi = compute_phi(sampler, m_k, k_base, qs, probe_window(params.sigma(m_k), m_k, k_base))
    probes = np.take_along_axis(phi, probe_index(candidate, qs[:, None], m_k, k_base), 1)
    return candidate[(np.abs(probes) >= params.threshold).all(axis=0)]


def find_support(sampler: Sampler, requested_n: int, params: SupportParams,
                 rng: np.random.Generator) -> np.ndarray:
    """Full support search: plan the ladder, then dealias level by level.

    Returns the support as a sorted int64 array.
    """
    moduli = plan_ladder(requested_n, params.k_base, params.rho)
    k_base = moduli[0]
    aliased = initial_aliased_support(sampler, k_base, params)
    cap = CANDIDATE_CAP_FACTOR * params.rho * k_base
    for level, (m_prev, m_k) in enumerate(zip(moduli, moduli[1:]), 1):
        if not aliased.size:  # an empty support stays empty
            break
        candidate = dealias_candidates(aliased, m_prev, m_k // m_prev)
        if len(candidate) > cap:
            raise CandidateBlowup(
                f"{len(candidate)} candidates at level {level} exceed cap {cap}; "
                "check mu/delta_ratio estimates")
        aliased = find_aliased_support(candidate, m_k, k_base, params, sampler, rng)
    return aliased
