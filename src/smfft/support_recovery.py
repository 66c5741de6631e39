"""Support recovery: the dealiasing ladder and the shuffle/filter/probe test.

The ladder starts at a base modulus K sized so a full size-K DFT is cheap,
then grows the working modulus by bounded factors.  At each level the
candidate set (translated copies of the previous aliased support) is pruned
by randomized probe rounds, run as one batch: shuffle frequencies by one
random coprime multiplier q per round (one oracle call each), weight each
round's samples by a Gaussian window, take one batched size-K transform,
and keep the candidates whose probe clears the threshold in every round.
Nonnegativity of the spectrum guarantees true support always survives;
random shuffling makes spurious candidates fail some round with high
probability.  The inner levels run just enough rounds that spurious
survivors do not compound from level to level (:data:`INNER_ROUNDS`).  Only
the last level's spurious survivors reach the output, and the value stage
fits each to about 0 and drops it, so the last level runs just enough
rounds that those few extra unknowns leave the fit well conditioned
(:data:`LAST_ROUNDS`).  compute_phi, probe_index and core_math.mulmod take
q as an int64 array that broadcasts.

From R = :data:`HALF_K_FROM` on, md_sfft first searches with K/2-point
windows at the inner levels and the K-point one at the last, on the ladder
from K where that has fewer levels than the one from K/2, else on that one
(:func:`plan_attempts`).

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

from .core_math import (MAX_MODULUS, gaussian_half, mulmod, next_fast_len,
                        sample_coprime)
from .errors import CandidateBlowup, EnvelopeError

# Candidate sets beyond this multiple of K signal parameter misuse.
CANDIDATE_CAP_FACTOR = 8

# ALPHA bounds a spurious candidate's chance to pass one probe round at the
# width SupportParams.probe_x gives (measured 0.11-0.19 at delta_ratio 1, 2,
# 3 and 5, eta up to NOISE_EDGE*mu; it fails past delta_ratio 10, see the
# README).  K's bound scales with max(8, 2/ALPHA), so a larger ALPHA
# samples less per round; 0.2 is the largest tried that a round still
# honours at the smallest K: at 0.22 it is 6 (R = 1, delta_ratio 1), and
# at the noise edge a round passed 0.238.  RHO, the
# largest ladder growth factor, is the largest at which that bound holds,
# and the one of those that costs fewest samples: above 8 a parent's
# translates can sit so few probe-grid steps from its true line that they
# pass most rounds.
ALPHA = 0.2
RHO = 8

# The envelope's noise edge, eta <= NOISE_EDGE*mu, is its own constant, not
# tied to SupportParams.delta: a fourth of the threshold delta*mu/2 at the
# default delta_ratio (delta = 0.4), a third where delta is 0.3, the edge
# the guarantees were stated and measured at (see SupportParams.threshold).
NOISE_EDGE = 0.05

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
# 1/8 (14 * 0.2^2 = 0.56, 14 * 0.2^3 = 0.11), so at most R/8 of the
# spurious candidates it sees (above) reach the output in expectation.  The
# value stage fits every line it is given from these rounds' samples; a
# spurious line's value is 0, so it is dropped, but each adds an unknown to
# the fit.  That many cost the fit little: on the benchmark shapes CG takes a
# median of 13-29 iterations (at most 39, inside value_recovery's cap of
# 100).  2 rounds would pass 0.56 R: over the benchmark's seeds 0-4 at
# delta 0.3 they still succeed in all 50, 40 and 100 trials, with 4%, 9%
# and 17% fewer median samples, but 2 of exact-shallow's 100 fits miss CG's
# cap and fall back to the prime grids, never run in the envelope at 3.
LAST_ROUNDS = 3

# The R from which md_sfft first searches at K/2 under a K-point last level,
# and K is rounded to an even size so that K/2 is whole.  Replayed ladders
# (noiseless and at the noise edge) pass a spurious candidate in an inner
# round at K/2 far more often than ALPHA: 0.52-0.56, 0.40 and 0.32 of
# rounds at R = 1, 2 and 5, 0.295 at 16, 0.287 at 50 and 0.268 at 256,
# against 0.14-0.16 at K.  From R = 16 on RHO * 0.3^INNER_ROUNDS = 0.72 < 1,
# so spurious survivors stay bounded from level to level; below it that
# product is 0.8-2.5.  True lines lose a round at K/2 rarely (none in those
# replays); the value stage's certificate catches the result, and the
# retry at K recovers it.
HALF_K_FROM = 16


@dataclass(frozen=True)
class SupportParams:
    """What the caller knows of the problem: the sparsity bound and
    estimates of the spectrum.

    mu is a lower bound on the smallest nonzero amplitude, delta_ratio an
    upper bound on the dynamic range ||fhat||_inf / mu.  Neither is
    estimated from data; defaults match an amplitude range of [0.5, 1.5].
    eta is the samples' noise level, at most NOISE_EDGE*mu; the value stage
    recovers to max(eta, 1e-10).
    """

    r_bound: int
    mu: float = 0.5
    delta_ratio: float = 3.0
    eta: float = 0.0

    def __post_init__(self):
        if self.r_bound < 0:
            raise ValueError("r_bound must be nonnegative")
        if not 0 < self.mu < math.inf:
            raise ValueError(f"mu must be finite and > 0, got {self.mu}")
        if not 1 <= self.delta_ratio < math.inf:
            raise ValueError(f"delta_ratio must be finite and >= 1, got {self.delta_ratio}")
        if not 0 <= self.eta <= NOISE_EDGE * self.mu:
            raise ValueError(f"noise level eta = {self.eta} violates "
                             f"0 <= eta <= {NOISE_EDGE}*mu")

    @functools.cached_property
    def delta(self) -> float:
        """delta of the probe threshold delta*mu/2: the largest multiple of
        0.1, at most 0.4, at which a line of amplitude mu half a bin off its
        probe point, at the width :attr:`probe_x` gives, reads at least
        twice the threshold.  That reading grows with delta_ratio, and 0.3
        reads 2.19 times it at delta_ratio 1, so delta is 0.3, or 0.4 from
        delta_ratio 1.566 on (2.97 times at the default 3).  A larger delta
        shrinks K (R = 50: 726 at 0.3, 675 at 0.4) but narrows the probe: at
        0.5 (2.17 times at delta_ratio 3) R = 1 passed 0.199-0.201 of its
        spurious rounds, ALPHA with no margin, so 0.4 is the cap.
        """
        x = _window_cut(self.delta_ratio, 0.4)
        return 0.4 if math.exp(-(math.pi / (4 * x)) ** 2) >= 0.4 else 0.3

    @functools.cached_property
    def k_base(self) -> int:
        """Base modulus K: the paper's bound ceil(max{8, 2/ALPHA}/pi * R *
        sqrt(log(2R*Delta/delta) log(2*Delta/delta))) rounded up to the next
        11-smooth size, so every size-K FFT takes a fast radix path (a
        larger K only widens the filter's margin); from R = HALF_K_FROM on,
        to the next even one, so that the first attempt's K/2 is whole too
        (R = 50: 686 = 2 * 7^3).  A bound of 2^17 or more, an infinite one
        included, raises EnvelopeError before it is rounded.  A bound just
        below 2^17 can round up to exactly 2^17 (R = 7323-7343 at the
        defaults); that K is returned, and plan_ladder rejects it."""
        r = max(self.r_bound, 1)
        l1 = math.log(2 * r * self.delta_ratio / self.delta)
        l2 = math.log(2 * self.delta_ratio / self.delta)
        c = max(8.0, 2.0 / ALPHA) / math.pi
        bound = c * r * math.sqrt(l1 * l2)
        if not bound < 1 << 17:
            raise EnvelopeError(f"base modulus K bound {bound:.4g} reaches 2^17")
        if self.r_bound >= HALF_K_FROM:
            return 2 * next_fast_len(-(-math.ceil(bound) // 2))
        return next_fast_len(math.ceil(bound))

    @property
    def threshold(self) -> float:
        """Probe threshold t = delta*mu/2 (:attr:`delta`), with or without
        noise.

        The noise is complex Gaussian with standard deviation eta per sample
        (NoiseModel), so a probe's noise is Gaussian with standard deviation
        eta*||w||_2, w being the K weights (2x/sqrt(pi))*exp(-(2x*m/K)^2)/K
        of compute_phi's transform: about 0.92*eta/sqrt(K) at the width
        :attr:`probe_x` gives at the defaults (0.72 at delta_ratio 1).  With
        eta <= NOISE_EDGE*mu = t/4 (t/3 where delta is 0.3) that is under
        0.08t at the smallest K (9 at the defaults, 7 at delta_ratio 1; 0.09t
        there), while a true line of amplitude mu half a bin off its probe
        point reads at least 2t.  A true line then fails a round only beyond
        about 13 standard deviations, so the threshold is not lowered for
        noise.  Noise bounded by eta moves a probe by at most ||w||_1*eta =
        erf(x)*eta < t/3, so such a line still clears it.
        """
        return self.delta * self.mu / 2

    @property
    def probe_x(self) -> float:
        """The cut x of the probe's window exp(-(2x*m/K)^2) at the sampled
        offsets |m| <= K/2, where it is exp(-x^2) of its peak.

        In bins of the K-point probe grid, a line d bins from a probe point
        reads a*exp(-(d/s)^2) there, s = 2x/pi, and lights the points where
        that reaches the threshold t: the main lobe reaches s*sqrt(log(a/t))
        bins.  The cut adds sidelobes of envelope a*s*exp(-x^2)/(sqrt(pi)*d).
        At the probe points they scale with |sin(pi*f)| for the line's offset
        f from the grid, 2/pi on average, so they reach
        (2/pi)*a*s*exp(-x^2)/(sqrt(pi)*t) bins.  A larger x lengthens the
        main lobe and shortens the sidelobes.  For the largest amplitude,
        a/t = 2*Delta/delta = exp(l2), the two reaches are equal at
        x^2 = l2 - log(pi^1.5*sqrt(l2)/2).  There the share of probe points
        one line lights is least, and with it a spurious candidate's chance
        to pass a round.
        """
        return _window_cut(self.delta_ratio, self.delta)


def _window_cut(delta_ratio: float, delta: float) -> float:
    """:attr:`SupportParams.probe_x` at this delta_ratio and delta."""
    l2 = math.log(2 * delta_ratio / delta)
    return math.sqrt(l2 - math.log(math.pi**1.5 * math.sqrt(l2) / 2))


@functools.cache
def plan_ladder(requested_n: int, k_base: int, half: bool = False) -> tuple[int, ...]:
    """The ladder moduli M_1 = K, M_{k+1} = rho_k * M_k, rho_k in [2, RHO];
    with ``half``, M_1 = K/2 for an even K, and K divides the last modulus.

    The last modulus is the padded size N >= requested_n.  The number of
    ladder steps is minimized first (factors as large as allowed), then the
    overshoot: of every nondecreasing tuple of that many factors (with an
    even product under ``half``), the first in lexicographic order with the
    smallest padded N wins.  The plan is a pure function of its arguments,
    computed once for each.

    A grid of at most 5K/2 points is sampled whole instead, as the one level
    next_fast_len(requested_n), ``half`` or not: about N/2 samples, where
    the ladder (K, 3K) draws about 1.55K; past 5K/2 the padded grid can draw
    more than it.

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
    if half and k_base % 2:
        raise ValueError(f"a ladder from K/2 needs an even K, got {k_base}")
    if 2 * requested_n <= 5 * k_base:
        return (next_fast_len(requested_n),)
    base = k_base // 2 if half else k_base
    target = -(-requested_n // base)  # ceil division
    steps = 0
    while RHO**steps < target:  # exact: a float log overshoots at powers of RHO
        steps += 1
    # RHO is even, so the largest tuple, RHO^steps, always qualifies.
    factors = min((c for c in itertools.combinations_with_replacement(
        range(2, RHO + 1), steps) if math.prod(c) >= target
        and base * math.prod(c) % k_base == 0), key=math.prod)
    moduli = tuple(base * math.prod(factors[:i]) for i in range(steps + 1))
    if moduli[-1] > MAX_MODULUS:
        raise EnvelopeError(f"padded grid size {moduli[-1]} exceeds 2^46")
    return moduli


def plan_attempts(requested_n: int, params: SupportParams) -> list[tuple[tuple[int, ...], int]]:
    """The searches md_sfft runs, in order, before any sample is drawn, as
    (ladder, inner window) pairs for :func:`find_support`.

    Where R >= HALF_K_FROM and the plan from K has more than one level, the
    first search is probed with K/2-point windows at its inner levels, on
    the ladder from K where that has fewer levels than the one from K/2,
    else on the one from K/2.  That is the one of the two that requests
    fewer points: the ladder from K/2 has as many levels, and a base of
    K//4 + 1 points where the one from K has K/2 + 1, or one more, whose
    INNER_ROUNDS = 2 periods of K//4 + 1 outweigh the K/2 - K//4 its base
    saves.  That search is skipped where it probes nothing at K/2 (a ladder
    from K with no inner level), and where the ladder from K/2 pads past
    2^46 and the one from K does not.  The last search, a retry or the only
    one, is the ladder from K with K-point windows.
    """
    k = params.k_base
    full = plan_ladder(requested_n, k)
    attempts = [(full, k)]
    if params.r_bound >= HALF_K_FROM and len(full) > 1:
        try:
            half = plan_ladder(requested_n, k, half=True)
        except EnvelopeError:
            return attempts
        first = full if len(full) < len(half) else half
        if first[0] != k or len(first) > 2:
            attempts.insert(0, (first, k // 2))
    return attempts


def dealias_candidates(aliased: np.ndarray, m_k: int, rho_k: int) -> np.ndarray:
    """The rho_k translated copies n + m*m_k of the aliased support, as an
    int64 array; sorted when ``aliased`` is."""
    aliased = np.asarray(aliased, dtype=np.int64)
    if aliased.size and (aliased.min() < 0 or aliased.max() >= m_k):
        raise ValueError("aliased indices must lie in [0, m_k)")
    return (m_k * np.arange(rho_k, dtype=np.int64)[:, None] + aliased).ravel()


def initial_aliased_support(sampler, m1: int, params: SupportParams) -> np.ndarray:
    """Aliased support at the base level via one full size-M_1 DFT, as a
    sorted int64 array.

    The aliased coefficients are sums of nonnegative entries, so an index is
    in the aliased support iff its coefficient clears the threshold.
    """
    fhat = np.fft.irfft(sampler.sample_progression(0, 1, m1 // 2 + 1, m1), n=m1)
    return np.flatnonzero(np.abs(fhat) >= params.threshold).astype(np.int64, copy=False)


def compute_phi(sampler, m_k: int, k_base: int, qs, x: float) -> np.ndarray:
    """Probe spectra phi at the K grid points j*M_k/K, one row per Q in the
    ints or int64 array ``qs``.

    Row Q samples f at (m*Q mod M)/M, which under the convention
    f(y) = sum_l fhat_l*exp(-2*pi*i*l*y) relabels line l to l*Q.  One
    oracle call per row requests the half m = 0..K//2 of the K-point window
    -(K-1)//2..K//2; the rest are its conjugates.  The half is weighted by
    the even Gaussian (2x/sqrt(pi))*exp(-(2x*m/K)^2) and transformed by a
    real size-K inverse DFT (kernel exp(+2*pi*i*n*m/K)/K), so a line of
    amplitude a, d bins from grid point n of a row's shuffled spectrum,
    reads about a*exp(-(d*pi/(2x))^2) there, matching :func:`probe_index`.
    """
    if m_k % k_base != 0:
        raise ValueError("k_base must divide m_k")
    half = np.empty((len(qs), k_base // 2 + 1), dtype=complex)
    for row, q in zip(half, qs):
        row[:] = sampler.sample_progression(0, q, half.shape[1], m_k)
    half *= 2 * x / math.sqrt(math.pi) * gaussian_half(k_base, x)
    return np.fft.irfft(half, n=k_base, axis=1)


def probe_index(n, q, m_k: int, k_base: int):
    """Grid index nearest (n*Q mod M_k)*K/M_k, rounding half up, mod K.

    ``n`` is an int or int64 array in [0, M_k), ``q`` an int or int64 array
    that broadcasts against it.  Exact for M_k <= MAX_MODULUS = 2^46 and
    K < 2^17: n*Q is reduced by :func:`mulmod`, and s*K + M_k/2 <
    (2^46 - 1)(2^17 - 1) + 2^45 < 2^63.
    """
    s = mulmod(n, q, m_k)
    return ((s * k_base + m_k // 2) // m_k) % k_base


def find_aliased_support(candidate: np.ndarray, m_k: int, params: SupportParams,
                         sampler, rng: np.random.Generator, rounds: int,
                         k_base: int | None = None) -> np.ndarray:
    """Prune a sorted int64 candidate array down to the aliased support at
    modulus m_k, returned as a sorted int64 array.

    Probes ``rounds`` independent shuffle rounds as one batch, each with a
    window of ``k_base`` points (K = params.k_base by default), which must
    divide m_k; a candidate survives only if its probe clears the threshold
    in every round.  True aliased support always survives (noiseless); each
    spurious candidate survives all rounds with probability at most
    ALPHA^rounds at K.
    """
    k_base = k_base or params.k_base
    qs = np.array([sample_coprime(m_k, rng) for _ in range(rounds)])
    phi = compute_phi(sampler, m_k, k_base, qs, params.probe_x)
    probes = np.take_along_axis(phi, probe_index(candidate, qs[:, None], m_k, k_base), 1)
    return candidate[(np.abs(probes) >= params.threshold).all(axis=0)]


class LastLevel:
    """A run's one oracle: it passes every request on to ``sampler``,
    scales the samples by ``scale``, and keeps those at the last modulus of
    the ladder ``moduli``: the shuffles q_r (the steps) and raw half periods
    of the last level's probe rounds, or the base level's one period when
    the ladder has one level.  find_support runs on it, and the value stage
    reads the plan (one level or a ladder) and the kept rounds from it.
    """

    def __init__(self, sampler, moduli: tuple[int, ...], scale: float = 1.0):
        self.sampler, self.moduli, self.scale = sampler, moduli, scale
        self.qs: list[int] = []
        self.halves: list[np.ndarray] = []

    def sample_progression(self, start, step, count, den):
        samples = self.sampler.sample_progression(start, step, count, den)
        if self.scale != 1.0:
            samples = samples * self.scale
        if den == self.moduli[-1]:
            self.qs.append(step)
            self.halves.append(samples)
        return samples


def find_support(sampler, moduli: tuple[int, ...], params: SupportParams,
                 rng: np.random.Generator, window: int | None = None) -> np.ndarray:
    """Full support search: dealias level by level along the ladder
    ``moduli`` from :func:`plan_ladder`, whose first is K, K/2 or a small
    grid.

    The base level is one DFT of moduli[0] points.  Every later level but
    the last runs :data:`INNER_ROUNDS` probe rounds with a window of
    ``window`` points (K = params.k_base by default; K/2 on md_sfft's first
    search, see :func:`plan_attempts`), the last :data:`LAST_ROUNDS` with
    one of K points whatever ``window`` is.  Returns the support as a
    sorted int64 array.  Run on a :class:`LastLevel`, it leaves there the
    samples the value stage reads, in the window K.
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
                "check the sparsity bound R and the mu/delta_ratio estimates")
        last = m_k == moduli[-1]
        aliased = find_aliased_support(
            candidate, m_k, params, sampler, rng, LAST_ROUNDS if last else INNER_ROUNDS,
            None if last else window)
    return aliased
