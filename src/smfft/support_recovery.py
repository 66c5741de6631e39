"""Support recovery: the dealiasing ladder and the shuffle/filter/probe test.

The ladder starts at a base modulus K sized so a full size-K DFT is cheap,
then grows the working modulus by bounded factors.  At each level the
candidate set (translated copies of the previous aliased support) is pruned
by randomized probe rounds, run as one batch: shuffle frequencies by one
random coprime multiplier q per round (one oracle call each), weight each
round's samples by a wrapped-Gaussian window, take one batched size-K
transform, and keep the candidates whose probe clears the threshold in
every round.  Nonnegativity of the spectrum guarantees true support always
survives; random shuffling makes spurious candidates fail some round with
high probability.  The inner levels run just enough rounds that spurious
survivors do not compound from level to level (:data:`INNER_ROUNDS`).  Only
the last level's spurious survivors reach the output, and the value stage
drops them, so it runs just enough rounds that few reach it
(:data:`LAST_ROUNDS`).  compute_phi, probe_index and core_math.mulmod take
q as an int64 array that broadcasts.

The spectrum is real, so f(-x) = conj f(x): every period of samples, the
base level's and each probe round's, is requested for its offsets 0..P//2
only, in one oracle call, and transformed from that half by a real inverse
FFT of size K.  The window is even, so it is evaluated on that half alone,
the weighted period stays Hermitian, and irfft reads only the real part of
the K/2 sample when K is even.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core_math import (MAX_MODULUS, gaussian_window, mulmod, next_fast_len,
                        sample_coprime)
from .errors import CandidateBlowup, EnvelopeError
from .signal import Sampler

# Candidate sets beyond this multiple of K signal parameter misuse.
CANDIDATE_CAP_FACTOR = 8

# ALPHA bounds a spurious candidate's chance to pass one probe round at the
# width SupportParams.sigma gives (measured 0.10-0.19).  K's bound scales
# with max(8, 2/ALPHA), so a larger ALPHA samples less per round; 0.2 is
# the largest tried that a round still honours at the smallest K (at 0.22
# and R = 1 a round passes 0.24).  RHO, the largest ladder growth factor,
# is the largest at which that bound holds, and the one of those that costs
# fewest samples: above 8 a parent's translates can sit so few probe-grid
# steps from its true line that they pass most rounds.
ALPHA = 0.2
RHO = 8

# DELTA sets the probe threshold DELTA*mu/2.  At the width SupportParams.sigma
# gives, a line of amplitude mu half a probe step off reads at least 13 times
# it, whatever delta_ratio is.  A larger DELTA shrinks K but narrows the
# probe: that reading falls to 1.24 times the threshold at 0.7, where true
# lines start to be lost, and below it at 0.8.
DELTA = 0.1

# L_in, the fewest shuffle rounds with RHO * ALPHA^L_in <= 1/2, run at every
# ladder level but the last: 8 * 0.2 = 1.6, 8 * 0.2^2 = 0.32.  A level's
# spurious candidates are the (RHO - 1) R translates of its true parents,
# plus RHO translates of each spurious survivor of the level before, and each
# survives a round with probability at most ALPHA.  With RHO * ALPHA^L_in <=
# 1/2 the expected spurious survivors of a level stay below
# 2 ALPHA^L_in (RHO - 1) R <= (RHO - 1) R / RHO however deep the ladder, so
# the last level sees at most 2 (RHO - 1) R spurious candidates.
INNER_ROUNDS = 2

# L, the fewest shuffle rounds at the last level with 2 (RHO - 1) ALPHA^L <=
# 1/20 (14 * 0.2^3 = 0.11, 14 * 0.2^4 = 0.022), so at most R/20 of the
# spurious candidates it sees (above) reach the output in expectation.  The
# value stage fits every line it is given from these rounds' samples; a
# spurious line's value is 0, so it is dropped, but each adds an unknown to
# the fit.  3 rounds would pass 11%: 4-14% fewer samples on the benchmark
# shapes, for more spurious lines and CG iterations in the fit.
LAST_ROUNDS = 4


@dataclass(frozen=True)
class SupportParams:
    """What the caller knows of the problem: the sparsity bound, the
    failure probability it accepts, and estimates of the spectrum.

    p_fail sets how many prime-grid draws, ceil(-log2 p_fail), the value
    stage's fallback may make, so it bounds the chance that the fallback
    fails; it bounds nothing else.  The support search and the fit from the
    last level's rounds do not read it.  mu is a lower bound on the
    smallest nonzero amplitude, delta_ratio an upper bound on the dynamic
    range ||fhat||_inf / mu.  Neither is estimated from data; defaults match
    an amplitude range of [0.5, 1.5].  eta is the samples' noise level, at
    most DELTA*mu/2; the value stage recovers to max(eta, 1e-10).
    """

    r_bound: int
    p_fail: float = 1e-4
    mu: float = 0.5
    delta_ratio: float = 3.0
    eta: float = 0.0

    def __post_init__(self):
        if self.r_bound < 0:
            raise ValueError("r_bound must be nonnegative")
        if not 0 < self.p_fail < 1:
            raise ValueError("p_fail must lie in (0, 1)")
        if not 0 < self.mu < math.inf:
            raise ValueError(f"mu must be finite and > 0, got {self.mu}")
        if not 1 <= self.delta_ratio < math.inf:
            raise ValueError(f"delta_ratio must be finite and >= 1, got {self.delta_ratio}")
        if not 0 <= self.eta <= self.threshold:
            raise ValueError(f"noise level eta = {self.eta} violates "
                             "0 <= eta <= DELTA*mu/2")

    @functools.cached_property
    def k_base(self) -> int:
        """Base modulus K: the paper's bound ceil(max{8, 2/ALPHA}/pi * R *
        sqrt(log(2R*Delta/DELTA) log(2*Delta/DELTA))) rounded up to the next
        11-smooth size, so every size-K FFT takes a fast radix path (a
        larger K only widens the filter's margin).  A bound of 2^17 or more,
        an infinite one included, raises EnvelopeError before it is rounded.
        A bound just below 2^17 can round up to exactly 2^17 (R = 5697-5700
        at the defaults); that K is returned, and plan_ladder rejects it."""
        r = max(self.r_bound, 1)
        l1 = math.log(2 * r * self.delta_ratio / DELTA)
        l2 = math.log(2 * self.delta_ratio / DELTA)
        c = max(8.0, 2.0 / ALPHA) / math.pi
        bound = c * r * math.sqrt(l1 * l2)
        if not bound < 1 << 17:
            raise EnvelopeError(f"base modulus K bound {bound:.4g} reaches 2^17")
        return next_fast_len(math.ceil(bound))

    @property
    def threshold(self) -> float:
        """Probe threshold t = DELTA*mu/2, with or without noise.

        The noise is complex Gaussian with standard deviation eta per sample
        (NoiseModel), so a probe's noise is Gaussian with standard deviation
        eta*||w||_2/M, about 1.1*eta/sqrt(K) at the width :meth:`sigma`
        gives.  With eta <= t that is below t/3 once K >= 12, while a true
        line of amplitude mu half a grid step off its probe point reads
        about 0.77*mu, which is 15t at DELTA.  A true line then fails a
        round only beyond about 40 standard deviations, so the threshold is
        not lowered for noise.  (Halving it would cover noise
        bounded by eta, which can move a probe by 0.85*eta.)
        """
        return DELTA * self.mu / 2

    def sigma(self, modulus: int) -> float:
        """Width of the probe's Gaussian response exp(-(d/sigma)^2) to a
        line at distance d, for the window cut at the K sampled offsets.

        A line of amplitude a lights the probe points where its response
        reaches the threshold t.  The main lobe reaches sigma*sqrt(log(a/t)).
        The cut adds sidelobes of envelope a*sigma*exp(-x^2)/(sqrt(pi)*d),
        x = pi*sigma*K/(2M) being the cut in the window's exponent.  At the
        probe points they scale with |sin(pi*f)| for the line's offset f
        from the grid, 2/pi on average, so they reach
        (2/pi)*a*sigma*exp(-x^2)/(sqrt(pi)*t).  A wider sigma lengthens the
        main lobe and shortens the sidelobes.  For the largest amplitude,
        a/t = 2*Delta/DELTA = exp(l2), the two reaches are equal at
        x^2 = l2 - log(pi^1.5*sqrt(l2)/2).  There the share of probe points
        one line lights is least, and with it a spurious candidate's chance
        to pass a round.
        """
        l2 = math.log(2 * self.delta_ratio / DELTA)
        x = math.sqrt(l2 - math.log(math.pi**1.5 * math.sqrt(l2) / 2))
        return 2 * x * modulus / (math.pi * self.k_base)


@functools.cache
def plan_ladder(requested_n: int, k_base: int) -> tuple[int, ...]:
    """The ladder moduli M_1 = K, M_{k+1} = rho_k * M_k, rho_k in [2, RHO].

    The last modulus is the padded size N >= requested_n.  The number of
    ladder steps is minimized first (factors as large as allowed), then the
    overshoot: of every nondecreasing tuple of that many factors, the first
    in lexicographic order with the smallest padded N wins.  The plan is a
    pure function of (requested_n, k_base), computed once for each pair.

    This is where the envelope is decided, before any sample is drawn: a K
    of 2^17 or more, or a padded N above MAX_MODULUS = 2^46, raises
    EnvelopeError (a requested_n above 2^46 before any tuple is tried).  Both
    bounds keep probe_index exact (s*K + M/2 < 2^63), and with them every
    request of the pipeline passes the sampler's guard.
    """
    if requested_n < 1:
        raise ValueError("requested_n must be positive")
    if k_base >= 1 << 17:
        raise EnvelopeError(f"base modulus K {k_base} reaches 2^17")
    if requested_n > MAX_MODULUS:
        raise EnvelopeError(f"padded grid size of at least {requested_n} exceeds 2^46")
    target = -(-requested_n // k_base)  # ceil division
    steps = 0
    while RHO**steps < target:  # exact: a float log overshoots at powers of RHO
        steps += 1
    factors = min((c for c in itertools.combinations_with_replacement(
        range(2, RHO + 1), steps) if math.prod(c) >= target), key=math.prod)
    moduli = tuple(k_base * math.prod(factors[:i]) for i in range(steps + 1))
    if moduli[-1] > MAX_MODULUS:
        raise EnvelopeError(f"padded grid size {moduli[-1]} exceeds 2^46")
    return moduli


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
                         rng: np.random.Generator, rounds: int) -> np.ndarray:
    """Prune a sorted int64 candidate array down to the aliased support at
    modulus m_k, returned as a sorted int64 array.

    Probes ``rounds`` independent shuffle rounds as one batch; a candidate
    survives only if its probe clears the threshold in every round.  True
    aliased support always survives (noiseless); each spurious candidate
    survives all rounds with probability at most ALPHA^rounds.
    """
    k_base = params.k_base
    qs = np.array([sample_coprime(m_k, rng) for _ in range(rounds)])
    phi = compute_phi(sampler, m_k, k_base, qs, params.sigma(m_k))
    probes = np.take_along_axis(phi, probe_index(candidate, qs[:, None], m_k, k_base), 1)
    return candidate[(np.abs(probes) >= params.threshold).all(axis=0)]


class LastLevel:
    """An oracle that passes every request on to ``sampler`` and keeps those
    at the last modulus of the ladder ``moduli``: the shuffles q_r (the
    steps) and raw half periods of the last level's probe rounds, before
    any window, or the base level's one period when the ladder has one
    level.  find_support runs on it, and the value stage fits what it kept.
    """

    def __init__(self, sampler: Sampler, moduli: tuple[int, ...]):
        self.sampler, self.modulus = sampler, moduli[-1]
        self.qs: list[int] = []
        self.halves: list[np.ndarray] = []

    def sample_progression(self, start, step, count, den):
        samples = self.sampler.sample_progression(start, step, count, den)
        if den == self.modulus:
            self.qs.append(step)
            self.halves.append(samples)
        return samples


def find_support(sampler: Sampler, moduli: tuple[int, ...],
                 params: SupportParams, rng: np.random.Generator) -> np.ndarray:
    """Full support search: dealias level by level along the ladder
    ``moduli`` planned by :func:`plan_ladder`, whose first modulus is K.

    Every level but the last runs :data:`INNER_ROUNDS` probe rounds, the
    last :data:`LAST_ROUNDS`.  Returns the support as a sorted int64 array.
    Run on a :class:`LastLevel`, it leaves there the samples the value
    stage fits.
    """
    aliased = initial_aliased_support(sampler, moduli[0], params)
    cap = CANDIDATE_CAP_FACTOR * RHO * moduli[0]
    for level, (m_prev, m_k) in enumerate(zip(moduli, moduli[1:]), 1):
        if not aliased.size:  # an empty support stays empty
            break
        candidate = dealias_candidates(aliased, m_prev, m_k // m_prev)
        if len(candidate) > cap:
            raise CandidateBlowup(
                f"{len(candidate)} candidates at level {level} exceed cap {cap}; "
                "check mu/delta_ratio estimates")
        rounds = LAST_ROUNDS if m_k == moduli[-1] else INNER_ROUNDS
        aliased = find_aliased_support(candidate, m_k, params, sampler, rng, rounds)
    return aliased
