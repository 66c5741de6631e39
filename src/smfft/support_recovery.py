"""Support recovery: the dealiasing ladder and the shuffle/filter/probe test.

The ladder starts at a base modulus K sized so a full size-K DFT is cheap,
then grows the working modulus by bounded factors.  At each level the
candidate set (translated copies of the previous aliased support) is pruned
by L randomized probe rounds, run as one batch: shuffle frequencies by L
random coprime multipliers q (one oracle call each), weight each round's
samples by a wrapped-Gaussian window, take one batched size-K transform,
and keep the candidates whose probe clears the threshold in every round.
Nonnegativity of the spectrum guarantees true support always survives;
random shuffling makes spurious candidates fail some round with high
probability.  compute_phi, probe_index and core_math.mulmod take q as an
int64 array that broadcasts.

The spectrum is real, so f(-x) = conj f(x): every period of samples, the
base level's and each probe round's, is requested for its offsets 0..P//2
only, in one oracle call, and transformed from that half by a real inverse
FFT of size K.  The window is even, so it is evaluated on that half alone,
the weighted period stays Hermitian, and irfft reads only the real part of
the K/2 sample when K is even.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core_math import (MAX_MODULUS, gaussian_window, mulmod, next_fast_len,
                        sample_coprime)
from .errors import CandidateBlowup, EnvelopeError
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
        if not 0 < self.mu < math.inf:
            raise ValueError(f"mu must be finite and > 0, got {self.mu}")
        if not 1 <= self.delta_ratio < math.inf:
            raise ValueError(f"delta_ratio must be finite and >= 1, got {self.delta_ratio}")
        if not 0 <= self.eta <= self.delta * self.mu / 2:
            raise ValueError(f"noise level eta = {self.eta} violates "
                             "0 <= eta <= delta*mu/2")

    @functools.cached_property
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

    This is where the envelope is decided, before any sample is drawn: a K
    of 2^17 or more, or a padded N above MAX_MODULUS = 2^46, raises
    EnvelopeError.  Both bounds keep probe_index exact (s*K + M/2 < 2^63),
    and with them every request of the pipeline passes the sampler's guard.
    """
    if requested_n < 1:
        raise ValueError("requested_n must be positive")
    if k_base >= 1 << 17:
        raise EnvelopeError(f"base modulus K {k_base} reaches 2^17")
    if k_base >= requested_n:
        return (k_base,)
    target = -(-requested_n // k_base)  # ceil division
    steps = max(1, math.ceil(math.log(target) / math.log(rho)))
    while rho**steps < target:  # guard against float log rounding
        steps += 1
    moduli = [k_base]
    for f in _min_product_with_factors(target, steps, rho):
        moduli.append(moduli[-1] * f)
    if moduli[-1] > MAX_MODULUS:
        raise EnvelopeError(f"padded grid size {moduli[-1]} exceeds 2^46")
    return tuple(moduli)


def dealias_candidates(aliased: np.ndarray, m_k: int, rho_k: int) -> np.ndarray:
    """The rho_k translated copies n + m*m_k of the aliased support, as an
    int64 array; sorted when ``aliased`` is."""
    aliased = np.asarray(aliased, dtype=np.int64)
    if aliased.size and (aliased.min() < 0 or aliased.max() >= m_k):
        raise ValueError("aliased indices must lie in [0, m_k)")
    return (m_k * np.arange(rho_k, dtype=np.int64)[:, None] + aliased).ravel()


def initial_aliased_support(sampler: Sampler, m1: int,
                            params: SupportParams) -> np.ndarray:
    """Aliased support at the base level via one full size-M_1 DFT, as a
    sorted int64 array.

    The aliased coefficients are sums of nonnegative entries, so an index is
    in the aliased support iff its coefficient clears the threshold.
    """
    fhat = np.fft.irfft(sampler.sample_progression(0, 1, m1 // 2 + 1, m1), n=m1)
    return np.flatnonzero(np.abs(fhat) >= params.threshold).astype(np.int64, copy=False)


def compute_phi(sampler: Sampler, m_k: int, k_base: int, qs,
                sigma: float) -> np.ndarray:
    """Probe spectra phi at the K grid points j*M_k/K, one row per Q in the
    ints or int64 array ``qs``.

    Row Q samples f at (m*Q mod M)/M, which under the exp(-2*pi*i*x*j)
    convention relabels line l to l*Q.  One oracle call per row requests
    the half m = 0..K//2 of the K-point window -(K-1)//2..K//2; the rest
    are its conjugates.  The half is weighted by the even wrapped Gaussian
    of width ``sigma`` and transformed by a real size-K inverse DFT (kernel
    exp(+2*pi*i*n*m/K)), so a peak at grid point n of a row certifies a
    line near n*M/K in that row's shuffled spectrum, matching
    :func:`probe_index`.
    """
    if m_k % k_base != 0:
        raise ValueError("k_base must divide m_k")
    offsets = np.arange(k_base // 2 + 1)
    half = np.empty((len(qs), len(offsets)), dtype=complex)
    for row, q in zip(half, qs):
        row[:] = sampler.sample_progression(0, q, len(offsets), m_k)
    half *= gaussian_window(offsets, sigma, m_k) / m_k
    return np.fft.irfft(half, n=k_base, axis=1, norm="forward")


def probe_index(n, q, m_k: int, k_base: int):
    """Grid index nearest (n*Q mod M_k)*K/M_k, rounding half up, mod K.

    ``n`` is an int or int64 array in [0, M_k), ``q`` an int or int64 array
    that broadcasts against it.  Exact for M_k <= MAX_MODULUS = 2^46 and
    K < 2^17: n*Q is reduced by :func:`mulmod`, and s*K + M_k/2 <
    (2^46 - 1)(2^17 - 1) + 2^45 < 2^63.
    """
    s = mulmod(n, q, m_k)
    return ((s * k_base + m_k // 2) // m_k) % k_base


def find_aliased_support(candidate: np.ndarray, m_k: int,
                         params: SupportParams, sampler: Sampler,
                         rng: np.random.Generator) -> np.ndarray:
    """Prune a sorted int64 candidate array down to the aliased support at
    modulus m_k, returned as a sorted int64 array.

    Probes L independent shuffle rounds as one batch; a candidate survives
    only if its probe clears the threshold in every round.  True aliased
    support always survives (noiseless); each spurious candidate survives
    all rounds with probability at most about alpha^L = p_fail.
    """
    k_base = params.k_base
    qs = np.array([sample_coprime(m_k, rng) for _ in range(params.probe_rounds)])
    phi = compute_phi(sampler, m_k, k_base, qs, params.sigma(m_k))
    probes = np.take_along_axis(phi, probe_index(candidate, qs[:, None], m_k, k_base), 1)
    return candidate[(np.abs(probes) >= params.threshold).all(axis=0)]


def find_support(sampler: Sampler, moduli: tuple[int, ...],
                 params: SupportParams, rng: np.random.Generator) -> np.ndarray:
    """Full support search: dealias level by level along the ladder
    ``moduli`` planned by :func:`plan_ladder`, whose first modulus is K.

    Returns the support as a sorted int64 array.
    """
    aliased = initial_aliased_support(sampler, moduli[0], params)
    cap = CANDIDATE_CAP_FACTOR * params.rho * moduli[0]
    for level, (m_prev, m_k) in enumerate(zip(moduli, moduli[1:]), 1):
        if not aliased.size:  # an empty support stays empty
            break
        candidate = dealias_candidates(aliased, m_prev, m_k // m_prev)
        if len(candidate) > cap:
            raise CandidateBlowup(
                f"{len(candidate)} candidates at level {level} exceed cap {cap}; "
                "check mu/delta_ratio estimates")
        aliased = find_aliased_support(candidate, m_k, params, sampler, rng)
    return aliased
