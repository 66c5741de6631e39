import collections
import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smfft import support_recovery
from smfft.bench import random_instance
from smfft.core_math import next_fast_len, sample_coprime
from smfft.errors import CandidateBlowup, EnvelopeError
from smfft.md_transform import (RankOneLattice, flatten_index, md_sample_adapter,
                                md_sfft, relative_l2_error)
from smfft.signal import NoiseModel, SampleLedger, Sampler, SparseSpectrum
from smfft.support_recovery import (ALPHA, HALF_K_FROM, INNER_ROUNDS, LAST_ROUNDS,
                                    NOISE_EDGE, RHO, SupportParams, compute_phi,
                                    dealias_candidates, find_aliased_support,
                                    find_support, initial_aliased_support,
                                    plan_attempts, plan_ladder, probe_index)

from reference import aliased_spectrum, trial_division_primes


def reference_probe_index(n, q, m, k):
    """Grid index nearest (n*q mod m)*k/m, rounding half up, in Python ints."""
    s = (n * q) % m
    return ((2 * s * k + m) // (2 * m)) % k


def reference_phi(sampler, m, k, q, x):
    """Probe spectrum by brute force: the plain Gaussian
    (2x/sqrt(pi))*exp(-(2x*o/K)^2) written out at every signed offset o of
    the K-point window, one request for the offsets 0..K//2, the negative
    offsets conjugated here, an np.add.at fold and a complex inverse DFT
    as a dense K x K matrix product."""
    # The alias window {n : n <= K/2 or |n - M| < K/2} as signed offsets:
    # -(K-1)//2..K//2, one full residue system mod K.
    offsets = np.arange(k // 2 - k + 1, k // 2 + 1)
    weights = [2 * x / math.sqrt(math.pi) * math.exp(-(2 * x * o / k) ** 2)
               for o in offsets]
    half = sampler.sample_progression(0, q, k // 2 + 1, m)
    samples = np.array([half[o] if o >= 0 else np.conj(half[-o]) for o in offsets])
    folded = np.zeros(k, dtype=complex)
    np.add.at(folded, offsets % k, samples * weights)
    kernel = np.exp(2j * np.pi * np.outer(np.arange(k), np.arange(k)) / k)
    return kernel @ folded / k


def reference_find_aliased_support(candidate, m, params, sampler, rng, rounds):
    """The set-based probe loop: a window and an np.add.at fold per round, and
    one Python-int probe index per candidate."""
    k = params.k_base
    survivors = set(candidate)
    for _ in range(rounds):
        if not survivors:
            break
        q = sample_coprime(m, rng)
        phi = reference_phi(sampler, m, k, q, params.probe_x)
        survivors = {n for n in survivors
                     if abs(phi[reference_probe_index(n, q, m, k)]) >= params.threshold}
    return survivors


def reference_plan(requested_n, k_base, half=False):
    """(first modulus, steps, product of the factors).  A grid of at most
    5K/2 points is one level, its least 11-smooth size, found by counting
    up; otherwise K (K/2 with ``half``), the fewest steps, then the
    smallest padded N, from the set of every product of that many factors
    in [2, RHO], built by multiplying (an even one with ``half``, so that
    K divides the last modulus)."""
    if requested_n <= 2.5 * k_base:
        size = requested_n
        while any(size % p == 0 for p in trial_division_primes(size + 1) if p > 11):
            size += 1
        return size, 0, 1
    first = k_base // 2 if half else k_base
    target = -(-requested_n // first)
    steps, products = 0, {1}
    while max(products) < target:
        steps += 1
        products = {p * f for p in products for f in range(2, RHO + 1)}
    return first, steps, min(p for p in products
                             if p >= target and (p % 2 == 0 or not half))


def factorizations(n, count, least=2):
    """Every nondecreasing tuple of ``count`` factors in [least, RHO] whose
    product is n."""
    if count == 0:
        return [()] if n == 1 else []
    return [(f, *rest) for f in range(least, RHO + 1) if n % f == 0
            for rest in factorizations(n // f, count - 1, f)]


# The requests that had the largest searches of the pruned recursive planner
# plan_ladder replaced, and the three benchmark shapes (deep-ladder is
# (50, 10321**3), wide-support (256, 465**3) and exact-shallow
# (256, 256**2)), each planned from its default K; every plan matches
# reference_plan and is the least factorization of its product (K = 9, 20,
# 198, 686 and 3872).
PINNED_PLANS = {
    (1, 9952744261968): (6, 6, 7, 7, 7, 7, 7, 7, 8, 8, 8, 8, 8, 8),
    (2, 21990232555520): (2, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8),
    (16, 25160244722316): (3, 5, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8),
    (50, 10436770529280): (5, 5, 6, 7, 7, 8, 8, 8, 8, 8, 8, 8),
    (256, 58926951301120): (5, 5, 6, 7, 7, 8, 8, 8, 8, 8, 8, 8),
    (1, 61970091588132): (5, 5, 6, 7, 7, 7, 8, 8, 8, 8, 8, 8, 8, 8, 8),
    (1, 61675272240708): (4, 5, 5, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8),
    (2, 16520162207310): (5, 7, 7, 7, 7, 7, 7, 7, 7, 7, 8, 8, 8, 8),
    (16, 19062002596725): (5, 5, 7, 7, 7, 7, 7, 7, 8, 8, 8, 8, 8),
    (50, 64038991937844): (4, 5, 5, 7, 8, 8, 8, 8, 8, 8, 8, 8, 8),
    (256, 45079976734720): (4, 5, 5, 7, 8, 8, 8, 8, 8, 8, 8, 8),
    (50, 1099424306161): (5, 5, 5, 7, 7, 8, 8, 8, 8, 8, 8),
    (256, 100544625): (7, 8, 8, 8, 8),
    (256, 65536): (3, 6),
}


def first_search_requests(moduli, k):
    """The points find_support requests on the first search's ladder
    ``moduli``: a base period of b//2 + 1 at b = moduli[0], INNER_ROUNDS
    periods of K/4 + 1 at each inner level and LAST_ROUNDS of K/2 + 1 at
    the last."""
    return (moduli[0] // 2 + 1 + INNER_ROUNDS * (k // 4 + 1) * (len(moduli) - 2)
            + LAST_ROUNDS * (k // 2 + 1))


def request_count_attempts(requested_n, params):
    """plan_attempts by request count: the first search on whichever of
    the ladders from K/2 and from K requests fewer points
    (:func:`first_search_requests`), the one from K/2 on a tie, with
    plan_attempts' gates."""
    k = params.k_base
    full = plan_ladder(requested_n, k)
    attempts = [(full, k)]
    if params.r_bound >= HALF_K_FROM and len(full) > 1:
        try:
            half = plan_ladder(requested_n, k, half=True)
        except EnvelopeError:
            return attempts
        first = min(half, full, key=lambda moduli: first_search_requests(moduli, k))
        if first[0] != k or len(first) > 2:
            attempts.insert(0, (first, k // 2))
    return attempts


def level_probe(moduli, window, m, params):
    """The probe rounds and window find_support runs at modulus m of the
    ladder: the last level's with K points, the others' with ``window``."""
    if m == moduli[-1]:
        return LAST_ROUNDS, params.k_base
    return INNER_ROUNDS, window


def probe_survival(shape, eta, seeds, delta_ratio=3.0, first=False):
    """Replay find_support's ladder on random instances of ``shape`` =
    (N, R), amplitudes in [mu, delta_ratio*mu], with its rounds, windows
    and survivors at each level, and count the probe rounds that spurious
    and true candidates pass: (spurious passes, spurious rounds, true
    failures).  The search is the retry's, from K with K-point windows,
    or with ``first`` the one md_sfft runs first (K/2-point inner windows
    where R >= HALF_K_FROM, :func:`plan_attempts`)."""
    n, r = shape
    passed = rounds = true_failures = 0
    for seed in seeds:
        rng = np.random.default_rng(seed)
        params = SupportParams(r_bound=r, delta_ratio=delta_ratio, eta=eta)
        lines = rng.choice(n, r, replace=False)
        amps = rng.uniform(params.mu, delta_ratio * params.mu, r)
        spectrum = SparseSpectrum(n, {int(j): float(a) for j, a in zip(lines, amps)})
        sampler = Sampler(spectrum, NoiseModel(eta, seed))
        moduli, window = plan_attempts(n, params)[0 if first else -1]
        aliased = initial_aliased_support(sampler, moduli[0], params)
        for m_prev, m in zip(moduli, moduli[1:]):
            candidate = dealias_candidates(aliased, m_prev, m // m_prev)
            level_rounds, k = level_probe(moduli, window, m, params)
            qs = np.array([sample_coprime(m, rng) for _ in range(level_rounds)])
            phi = compute_phi(sampler, m, k, qs, params.probe_x)
            probes = np.take_along_axis(phi, probe_index(candidate, qs[:, None], m, k), 1)
            passes = np.abs(probes) >= params.threshold
            true = np.isin(candidate, lines % m)
            passed += int(passes[:, ~true].sum())
            rounds += passes[:, ~true].size
            true_failures += int((~passes[:, true]).sum())
            aliased = candidate[passes.all(axis=0)]
    return passed, rounds, true_failures


class TestSupportParams:
    def test_k_base_default_sparsity_3(self):
        # ceil(10/pi * 3 * sqrt(ln(45) * ln(15))) = 31, rounded up to the
        # 11-smooth 32 = 2^5
        assert SupportParams(r_bound=3).k_base == 32

    def test_k_base_table_defaults_r50(self):
        # ceil(10/pi * 50 * sqrt(ln(750) * ln(15))) = 674 = 2 * 337, rounded
        # up to the even 11-smooth 686 = 2 * 7^3, so that K/2 = 343 is whole
        # (the 11-smooth 675 = 3^3 * 5^2 is odd).
        assert SupportParams(r_bound=50).k_base == 686

    def test_k_base_is_next_smooth_size_over_bound(self):
        # Over R = 1..7322 (K < 2^17) rounding up costs at most 6%: most at
        # R = 28, where the bound 361 rounds up to the even 378 (4.7%); below
        # R = 16, at R = 6, where 67 rounds up to 70 (4.5%).  From R = 16 on
        # K is even.
        def smooth(n):
            for f in (2, 3, 5, 7, 11):
                while n % f == 0:
                    n //= f
            return n == 1

        for r in range(1, 7323):
            p = SupportParams(r_bound=r)
            l1 = math.log(2 * r * p.delta_ratio / p.delta)
            l2 = math.log(2 * p.delta_ratio / p.delta)
            bound = math.ceil(max(8, 2 / ALPHA) / math.pi * r * math.sqrt(l1 * l2))
            assert bound <= p.k_base <= 1.06 * bound and smooth(p.k_base), r
            assert r < HALF_K_FROM or p.k_base % 2 == 0, r
        assert SupportParams(r_bound=7323).k_base == 1 << 17

    @pytest.mark.parametrize("fields", [
        {"r_bound": 10**12}, {"r_bound": 4, "delta_ratio": 1e307}],
        ids=["r-1e12", "delta-ratio-1e307"])
    def test_k_bound_checked_before_rounding(self, fields):
        # A bound past 1e13 would take minutes to round up to an 11-smooth
        # size, and an infinite one (2R*Delta/delta = 2e308 overflows at
        # delta = 0.4) cannot be rounded; both raise at once.
        with pytest.raises(EnvelopeError, match="base modulus K bound"):
            SupportParams(**fields).k_base

    def test_probe_rounds(self):
        # The last level's rounds are the fewest that leave at most R/8 of
        # its 2 (RHO - 1) R spurious candidates in expectation, the extra
        # unknowns the value fit absorbs: 14 * 0.2^2 = 0.56 needs a third
        # round (0.11).
        spurious_per_line = 2 * (RHO - 1)
        assert (spurious_per_line * ALPHA**LAST_ROUNDS <= 1 / 8
                < spurious_per_line * ALPHA**(LAST_ROUNDS - 1))
        assert LAST_ROUNDS == 3
        assert not hasattr(SupportParams(r_bound=3), "probe_rounds")

    def test_inner_rounds(self):
        # The fewest rounds with RHO * ALPHA^L_in <= 1/2: 8 * 0.2 = 1.6
        # needs a second round (0.32).
        assert RHO * ALPHA**INNER_ROUNDS <= 0.5 < RHO * ALPHA**(INNER_ROUNDS - 1)

    def test_threshold(self):
        # delta*mu/2 for Gaussian noise as for none: a probe's noise is
        # about 0.92*eta/sqrt(K), far below the margin of a true line.
        p = SupportParams(r_bound=3)
        assert p.threshold == pytest.approx(0.1)
        noisy = SupportParams(r_bound=3, eta=0.025)
        assert noisy.threshold == p.threshold

    def test_noise_cap(self):
        # The noise edge is its own constant, not delta*mu/2 = 0.1.
        assert NOISE_EDGE * SupportParams(r_bound=3).mu == 0.025
        with pytest.raises(ValueError, match=r"eta <= 0\.05\*mu"):
            SupportParams(r_bound=3, eta=0.03)  # > NOISE_EDGE*mu = 0.025

    def test_rejects_negative_eta(self):
        # A negative noise level used to construct, and then every run
        # failed the success rule's negative error cap.
        with pytest.raises(ValueError, match="0 <= eta"):
            SupportParams(r_bound=3, eta=-1.0)

    @pytest.mark.parametrize("field,value", [
        ("mu", math.inf), ("mu", math.nan),
        ("delta_ratio", math.inf), ("delta_ratio", math.nan)])
    def test_rejects_non_finite_estimates(self, field, value):
        # An infinite delta_ratio used to overflow in k_base, an infinite mu
        # to threshold every line away, and a NaN mu to read as an eta
        # violation; the message names the field, checked before eta.
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            SupportParams(r_bound=3, eta=0.01, **{field: value})

    @pytest.mark.parametrize("r_bound", [1, 50, 256])
    def test_window_cut_where_reaches_balance(self, r_bound):
        # At the defaults, exp(-x^2) = pi^1.5*sqrt(l2)/2 * delta/(2*Delta)
        # = 0.305: the window's edge at offset K/2 sits at 31% of its peak
        # whatever R is (the paper's width cut it at 36%).
        x = SupportParams(r_bound=r_bound).probe_x
        assert x == pytest.approx(1.089, abs=1e-3)
        assert math.exp(-x**2) == pytest.approx(0.3054, abs=1e-4)

    @pytest.mark.parametrize("delta_ratio", [1.0, 3.0, 1e3, 1e300])
    def test_true_line_off_grid_clears_threshold(self, delta_ratio):
        # The search keeps every true line only if a line of amplitude mu
        # half a bin off its probe point still clears the threshold: it
        # reads mu*exp(-(0.5/s)^2) there, s = 2x/pi bins.  delta is the
        # largest multiple of 0.1, at most 0.4, at which that is at least
        # twice the threshold (2.19 at delta_ratio 1 and delta 0.3, 2.97 at
        # 3 and 0.4).  At delta_ratio 1 and 0.34, a reading of 1.55,
        # spurious candidates passed 0.209 of their rounds at R = 1, more
        # than ALPHA.
        p = SupportParams(r_bound=3, delta_ratio=delta_ratio)
        width = 2 * p.probe_x / math.pi
        reading = math.exp(-(0.5 / width) ** 2) * p.mu
        assert reading >= 2 * p.threshold

    @pytest.mark.parametrize("delta_ratio,delta", [
        (1.0, 0.3), (1.5, 0.3), (1.9, 0.4), (2.0, 0.4), (3.0, 0.4), (10.0, 0.4),
        (1e300, 0.4)])
    def test_delta_is_the_largest_that_reads_twice_the_threshold(self, delta_ratio,
                                                                  delta):
        # A line of amplitude mu half a bin off its probe point reads
        # mu*exp(-(0.5/s)^2), s = 2x/pi bins, x the window cut at delta;
        # twice the threshold delta*mu/2 is delta*mu.  The chosen delta
        # reads at least that; one step more reads less or passes the cap
        # of 0.4.  delta_ratio 1.5 reads 1.91 times the threshold at 0.4.
        def clears_twice(d):
            l2 = math.log(2 * delta_ratio / d)
            x = math.sqrt(l2 - math.log(math.pi**1.5 * math.sqrt(l2) / 2))
            return math.exp(-(math.pi / (4 * x)) ** 2) >= d

        p = SupportParams(r_bound=3, delta_ratio=delta_ratio)
        assert p.delta == delta
        assert clears_twice(delta)
        step_up = round(delta + 0.1, 1)
        assert step_up > 0.4 or not clears_twice(step_up)

    def test_k_base_computed_once(self, monkeypatch):
        calls = []

        def counting(n):
            calls.append(n)
            return next_fast_len(n)

        monkeypatch.setattr(support_recovery, "next_fast_len", counting)
        p, q = SupportParams(r_bound=50), SupportParams(r_bound=50)
        assert p.k_base == p.k_base == 686
        assert len(calls) == 1
        assert p == q and hash(p) == hash(q)

    def test_validation(self):
        # ALPHA and RHO are constants of the search, and delta is read off
        # delta_ratio: none of them is a field.
        assert [f.name for f in dataclasses.fields(SupportParams)] == [
            "r_bound", "mu", "delta_ratio", "eta"]
        for fields in ({"r_bound": -1}, {"mu": 0.0}, {"delta_ratio": 0.5}):
            with pytest.raises(ValueError, match="must"):
                SupportParams(**{"r_bound": 3, **fields})
        for field in ("delta", "p_fail"):
            with pytest.raises(TypeError, match=field):
                SupportParams(r_bound=3, **{field: 0.1})


class TestLadder:
    def test_degenerate_when_k_exceeds_n(self):
        # A grid of at most 5K/2 points is one level of its least 11-smooth
        # size, however K compares with it.
        assert plan_ladder(40, 59) == (40,)
        assert plan_ladder(59, 59) == (60,)
        assert plan_ladder(118, 59) == (120,)
        assert plan_ladder(119, 59) == (120,)
        assert plan_ladder(147, 59) == (147,)
        assert plan_ladder(148, 59)[0] == 59

    def test_growth_factors_bounded(self):
        moduli = plan_ladder(10**6, 100)
        assert all(b % a == 0 and 2 <= b // a <= RHO for a, b in zip(moduli, moduli[1:]))
        assert moduli[-1] >= 10**6
        assert moduli[0] == 100

    def test_minimal_depth_then_size(self):
        # ceil(250/5) = 50: two steps reach 5 * 7 * 8 = 280, the least with
        # two factors of at most RHO = 8; 250 = 5 * 2 * 5 * 5 would use three.
        assert plan_ladder(250, 5) == (5, 35, 280)

    def test_doubling_ladder(self):
        # Of the three-step factors with product 128, (2, 8, 8) and
        # (4, 4, 8), the first in order is taken: the doubling comes first.
        assert plan_ladder(361 * 128, 361) == (361, 722, 5776, 46208)

    def test_plan_ladder_uses_params(self):
        p = SupportParams(r_bound=3)
        assert plan_ladder(40, p.k_base) == (40,)
        assert plan_ladder(71, p.k_base) == (72,)
        assert plan_ladder(80, p.k_base) == (80,)  # 5K/2 at K = 32
        assert plan_ladder(81, p.k_base) == (32, 96)

    def test_envelope(self):
        # probe_index is exact for K < 2^17 and a padded N <= 2^46.
        assert plan_ladder(1 << 46, 1 << 10)[-1] == 1 << 46
        with pytest.raises(EnvelopeError, match="padded grid size"):
            plan_ladder((1 << 46) + 1, 1 << 10)
        assert plan_ladder(1 << 20, (1 << 17) - 1)[0] == (1 << 17) - 1
        with pytest.raises(EnvelopeError, match="base modulus K"):
            plan_ladder(10, 1 << 17)

    @pytest.mark.parametrize("seed", [2, 3, 5, 8, 16])
    def test_plans_match_brute_force(self, seed):
        # Seeded requests of 1 to 5 steps, and the edges of each step count.
        rng = np.random.default_rng(seed)
        k = 7
        requests = {k + 1, 2 * k, 2 * k + 1, 5 * k // 2, 5 * k // 2 + 1, k * RHO + 1}
        for steps in range(1, 6):
            top = k * RHO**steps
            requests.update({top - 1, top, *rng.integers(k + 1, top, 6).tolist()})
        for n in sorted(requests):
            moduli = plan_ladder(n, k)
            factors = tuple(b // a for a, b in zip(moduli, moduli[1:]))
            first, steps, product = reference_plan(n, k)
            assert moduli[0] == first and len(factors) == steps, n
            assert list(factors) == sorted(factors) and math.prod(factors) == product, n
            assert factors == min(factorizations(product, steps)), n

    @pytest.mark.parametrize("seed", [2, 3, 5, 8])
    def test_half_plans_match_brute_force(self, seed):
        # From K/2 = 7 (K = 14): the fewest steps, then the smallest padded
        # N whose factors have an even product, so that K divides it.  A
        # grid of at most 5K/2 points is still one level.
        rng = np.random.default_rng(seed)
        k = 14
        requests = {k + 1, 5 * k // 2, 5 * k // 2 + 1, 4 * k + 1, k * RHO + 1}
        for steps in range(1, 6):
            top = k // 2 * RHO**steps
            requests.update({top - 1, top, top + 1, *rng.integers(k + 1, top, 6).tolist()})
        for n in sorted(requests):
            moduli = plan_ladder(n, k, half=True)
            factors = tuple(b // a for a, b in zip(moduli, moduli[1:]))
            first, steps, product = reference_plan(n, k, half=True)
            assert moduli[0] == first and len(factors) == steps, n
            assert list(factors) == sorted(factors) and math.prod(factors) == product, n
            assert factors == min(factorizations(product, steps)), n
            assert moduli[-1] >= n and (steps == 0 or moduli[-1] % k == 0), n

    def test_half_plan_needs_an_even_k(self):
        with pytest.raises(ValueError, match="even K"):
            plan_ladder(1000, 7, half=True)

    def test_attempts_planned_from_half_k_from_r_16(self):
        # md_sfft searches with K/2-point inner windows first from R =
        # HALF_K_FROM on, and only on a ladder: a grid of at most 5K/2
        # points is sampled whole.  At N = 10^9 the ladders from K/2 and
        # from K both take 9 levels at R = 16, so the first search runs
        # from K/2; at R = 50 the one from K takes 8 against 9, so it runs
        # on that one.
        for r, first_from_k in ((15, None), (16, False), (50, True)):
            params = SupportParams(r_bound=r)
            k = params.k_base
            full = plan_ladder(10**9, k)
            first = [] if first_from_k is None else [
                (full if first_from_k else plan_ladder(10**9, k, half=True), k // 2)]
            assert plan_attempts(10**9, params) == [*first, (full, k)], r
            assert plan_attempts(2 * k, params) == [((2 * k,), k)], r

    @pytest.mark.parametrize("r_bound,requested_n,first", [
        # wide-support (465^3) and the 3-D demo's grid (128^3): from K the
        # ladder takes a level fewer, 12 oracle calls instead of 14 at R =
        # 256, and the retry shares its base period.
        (256, 465**3, (3872, 27104, 216832, 1734656, 13877248, 111017984)),
        (50, 128**3, (686, 4116, 32928, 263424, 2107392)),
        # deep-ladder (10321^3) and exact-shallow (256^2) take as many
        # levels from K/2 as from K, so they keep the ladder from K/2.
        (50, 10321**3, (343, 1029, 8232, 65856, 526848, 4214784, 33718272, 269746176,
                        2157969408, 17263755264, 138110042112, 1104880336896)),
        (256, 256**2, (1936, 11616, 69696)),
    ])
    def test_first_search_from_k_where_it_saves_a_level(self, r_bound, requested_n, first):
        params = SupportParams(r_bound=r_bound)
        k = params.k_base
        full = plan_ladder(requested_n, k)
        assert plan_attempts(requested_n, params) == [(first, k // 2), (full, k)]
        half = plan_ladder(requested_n, k, half=True)
        assert (first == full) == (len(half) == len(full) + 1)

    def test_no_first_search_that_probes_nothing_at_k_half(self):
        # N in (4K, 8K]: from K the ladder (K, M) saves a level and has no
        # inner level, so the first search would be the retry's: it runs
        # once.  On (5K/2, 4K] the one from K/2 has a single step and runs
        # first.
        params = SupportParams(r_bound=50)
        k = params.k_base
        assert plan_attempts(5 * k, params) == [((k, 5 * k), k)]
        assert plan_attempts(3 * k, params) == [((k // 2, 3 * k), k // 2),
                                                ((k, 3 * k), k)]

    @pytest.mark.parametrize("r_bound", [*range(16, 40), 50, 64, 100, 256, 1000, 7322])
    def test_level_rule_matches_the_request_count(self, r_bound):
        # plan_attempts takes the ladder from K where it has fewer levels
        # than the one from K/2; that is the ladder of the two that requests
        # fewer points.  Checked at the one-level edge 5K/2, the 4K and 8K
        # edges of the skipped first search, each power-of-RHO edge of
        # either ladder, seeded sizes, and 2^46, past which either ladder
        # can pad (raising EnvelopeError, or dropping the first search).
        params = SupportParams(r_bound=r_bound)
        k, top = params.k_base, 1 << 46
        sizes = {k + 1, 5 * k // 2, 5 * k // 2 + 1, 4 * k, 4 * k + 1, 8 * k, 8 * k + 1,
                 top - 1, top}
        for base in (k // 2, k):
            edges = itertools.takewhile(lambda n: n < top, (base * RHO**s for s in range(1, 20)))
            sizes.update(n + d for n in edges for d in (0, 1))
        rng = np.random.default_rng(r_bound)
        sizes.update(int(2**e) for e in rng.uniform(math.log2(k + 1), 46, 6))

        def outcome(plan, n):
            try:
                return plan(n, params)
            except EnvelopeError:
                return EnvelopeError

        for n in sorted(n for n in sizes if k < n <= top):
            assert outcome(plan_attempts, n) == outcome(request_count_attempts, n), n

    @pytest.mark.parametrize("r_bound,requested_n", list(PINNED_PLANS))
    def test_pinned_plans(self, r_bound, requested_n):
        k = SupportParams(r_bound=r_bound).k_base
        moduli = plan_ladder(requested_n, k)
        factors = tuple(b // a for a, b in zip(moduli, moduli[1:]))
        assert factors == PINNED_PLANS[r_bound, requested_n]
        assert reference_plan(requested_n, k) == (k, len(factors), math.prod(factors))

    def test_planned_once_per_request(self):
        first = plan_ladder(10321**3, 924)
        before = plan_ladder.cache_info()
        assert plan_ladder(10321**3, 924) is first
        after = plan_ladder.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)

    def test_rejects_large_request_before_enumerating(self, monkeypatch):
        # 2^100 / 14 would take 33 factors, about 3.3 million tuples.
        def enumerate_tuples(*args):
            raise AssertionError("factor tuples enumerated")

        monkeypatch.setattr(itertools, "combinations_with_replacement",
                            enumerate_tuples)
        with pytest.raises(EnvelopeError, match="padded grid size"):
            plan_ladder(2**100, 14)


class TestDealias:
    def test_doubling_translates(self):
        got = dealias_candidates(np.array([1, 3, 5]), 10, 2)
        assert got.tolist() == [1, 3, 5, 11, 13, 15]

    def test_triple_factor(self):
        got = dealias_candidates(np.array([0, 2]), 4, 3)
        assert got.tolist() == [0, 2, 4, 6, 8, 10]

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            dealias_candidates(np.array([10]), 10, 2)


class TestProbeIndex:
    def test_round_half_up(self):
        # n*Q mod M scaled by K/M, rounded half-up, wrapped mod K.
        assert probe_index(1, 1, 10, 4) == 0   # 0.4 -> 0
        assert probe_index(2, 1, 10, 4) == 1   # 0.8 -> 1
        assert probe_index(5, 1, 10, 4) == 2   # 2.0 -> 2
        assert probe_index(9, 1, 10, 4) == 0   # 3.6 -> 4 -> 0 mod K

    def test_exact_grid_when_k_divides_m(self):
        for n in range(20):
            assert probe_index(n, 1, 20, 10) == round(n / 2 + 1e-9) % 10

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_array_matches_python_ints(self, data):
        m = data.draw(st.integers(2, 1 << 46))
        k = data.draw(st.integers(1, min(m, (1 << 17) - 1)))
        if data.draw(st.booleans()):
            m -= m % k  # the ladder's case: K divides M_k
        q = data.draw(st.integers(1, m - 1))
        ns = data.draw(st.lists(st.integers(0, m - 1), max_size=20)) + [0, m - 1]
        got = probe_index(np.array(ns, dtype=np.int64), q, m, k)
        assert got.dtype == np.int64
        assert got.tolist() == [probe_index(n, q, m, k) for n in ns]
        assert got.tolist() == [reference_probe_index(n, q, m, k) for n in ns]

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_multiplier_column_matches_python_ints(self, data):
        # A column of L multipliers against the candidate row gives one row
        # of grid indices per multiplier, up to M_k = 2^46.
        m = data.draw(st.integers(2, 1 << 46))
        k = data.draw(st.integers(1, min(m, (1 << 17) - 1)))
        qs = data.draw(st.lists(st.integers(1, m - 1), min_size=1, max_size=6))
        ns = data.draw(st.lists(st.integers(0, m - 1), max_size=20)) + [0, m - 1]
        got = probe_index(np.array(ns, dtype=np.int64),
                          np.array(qs, dtype=np.int64)[:, None], m, k)
        assert got.dtype == np.int64 and got.shape == (len(qs), len(ns))
        assert got.tolist() == [[reference_probe_index(n, q, m, k) for n in ns]
                                for q in qs]


class CountingSampler(Sampler):
    """A sampler that counts the points requested over each denominator."""

    def __init__(self, spectrum):
        super().__init__(spectrum)
        self.requested = collections.Counter()

    def sample_progression(self, start, step, count, den):
        self.requested[den] += count
        return super().sample_progression(start, step, count, den)


class TestSamplePeriod:
    @pytest.mark.parametrize("r_bound", [15, 16, 17, 18])
    def test_request_counts(self, r_bound):
        # One request of w//2 + 1 points per period of a w-point window: the
        # base level, then each of a level's probe rounds, INNER_ROUNDS = 2
        # at the inner moduli and LAST_ROUNDS = 3 at the last, whose window
        # is K.  Below R = 16 the one search runs from K (odd K = 189).
        # From there the ladder from K/2 would take a level more at N =
        # 512K, so the first search runs on the ladder from K with K/2-point
        # inner windows (K = 198, 210 and 224, so odd K/2 = 99 and 105 and
        # even 112), then the retry with K-point ones.
        params = SupportParams(r_bound=r_bound)
        k = params.k_base
        n = 512 * k
        spectrum = SparseSpectrum(n, {3: 1.0, 5 * k + 7: 0.75, n - 1: 1.25})
        ladder = (k, 8 * k, 64 * k, n)
        first = [(ladder, k // 2)] if r_bound >= HALF_K_FROM else []
        assert plan_attempts(n, params) == [*first, (ladder, k)]
        assert INNER_ROUNDS == 2
        for moduli, window in plan_attempts(n, params):
            sampler = CountingSampler(spectrum)
            got = find_support(sampler, moduli, params, np.random.default_rng(0), window)
            assert got.tolist() == sorted(spectrum.entries)
            assert sampler.requested == {moduli[0]: moduli[0] // 2 + 1,
                                         **dict.fromkeys(moduli[1:-1], 2 * (window // 2 + 1)),
                                         n: LAST_ROUNDS * (k // 2 + 1)}

    @pytest.mark.parametrize("r_bound,requested_n", [
        (16, 256 * 198), (16, 512 * 198), (50, 128**3), (50, 10321**3),
        (256, 465**3), (256, 256**2)])
    def test_first_search_requests_the_planned_count(self, r_bound, requested_n):
        # The first search's requested points are the closed-form count
        # first_search_requests gives, and no other ladder of the two costs
        # fewer: the level rule plan_attempts applies picks the cheaper one
        # (test_level_rule_matches_the_request_count).
        params = SupportParams(r_bound=r_bound)
        k = params.k_base
        rng = np.random.default_rng(r_bound)
        lines = rng.choice(requested_n, r_bound, replace=False)
        spectrum = SparseSpectrum(requested_n, {int(j): 1.0 for j in lines})
        (moduli, window), _ = plan_attempts(requested_n, params)
        assert window == k // 2
        sampler = CountingSampler(spectrum)
        find_support(sampler, moduli, params, rng, window)
        count = first_search_requests(moduli, k)
        assert sum(sampler.requested.values()) == count
        assert count == min(first_search_requests(plan_ladder(requested_n, k, half=True), k),
                            first_search_requests(plan_ladder(requested_n, k), k))


class TestComputePhi:
    def test_peaks_at_shuffled_lines(self):
        # phi evaluated at each aliased line's probe point clears the
        # threshold; far from any line it stays below it.
        n = 5776
        rng = np.random.default_rng(4)
        support = rng.choice(n, 16, replace=False)
        spectrum = SparseSpectrum(n, {int(j): 1.0 for j in support})
        params = SupportParams(r_bound=16)
        k = params.k_base
        m = 2 * k
        sampler = Sampler(spectrum)
        q = 137  # coprime to m = 550
        phi, = compute_phi(sampler, m, k, [q], params.probe_x)
        assert len(phi) == k
        hot = set()
        for line in aliased_spectrum(spectrum, m):
            idx = probe_index(line, q, m, k)
            hot.update((idx + d) % k for d in (-2, -1, 0, 1, 2))
            assert abs(phi[idx]) > params.threshold
        cold = [abs(phi[i]) for i in range(k) if i not in hot]
        assert np.median(cold) < params.threshold

    @pytest.mark.parametrize("k", [361, 362])
    def test_matches_add_at_fold(self, k):
        # Odd and even K: each row of the batch is the real part of the
        # one-multiplier complex transform of the np.add.at fold.  For odd K
        # the weighted period is Hermitian, so that transform is real; for
        # even K its imaginary part comes from the K/2 sample alone, whose
        # real part is all the real transform reads.  M = 2K is where a
        # window wrapped round M would differ most from the plain Gaussian.
        spectrum = SparseSpectrum(8 * k, {3: 1.0, 5 * k + 7: 0.75})
        sampler, x = Sampler(spectrum), 1.5
        for m in (2 * k, 4 * k):
            qs = (1, 3, m - 1)
            phi = compute_phi(sampler, m, k, qs, x)
            assert phi.shape == (len(qs), k) and phi.dtype == np.float64
            for row, q in zip(phi, qs):
                reference = reference_phi(sampler, m, k, q, x)
                assert np.abs(row - reference.real).max() <= 1e-12, m
                if k % 2:
                    assert np.abs(reference.imag).max() <= 1e-12, m

    def test_requires_divisibility(self):
        sampler = Sampler(SparseSpectrum(40, {1: 1.0}))
        with pytest.raises(ValueError):
            compute_phi(sampler, 10, 4, [3], 1.0)


class TestFindAliasedSupport:
    def test_prunes_spurious_keeps_true(self):
        n = 5776
        rng = np.random.default_rng(7)
        support = rng.choice(n, 16, replace=False)
        spectrum = SparseSpectrum(n, {int(j): 1.0 for j in support})
        params = SupportParams(r_bound=16)
        m = 2 * params.k_base
        truth = set(aliased_spectrum(spectrum, m))
        candidates = set(truth)
        while len(candidates) < 3 * len(truth):
            candidates.add(int(rng.integers(0, m)))
        got = find_aliased_support(np.array(sorted(candidates)), m, params,
                                   Sampler(spectrum), np.random.default_rng(1),
                                   LAST_ROUNDS)
        assert got.tolist() == sorted(truth)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("doublings", [1, 30])
    def test_matches_set_reference(self, seed, doublings):
        # Same rng, same samples, same survivors as the set-based loop, at
        # M_k ~ 2^10 and ~ 2^39, where n*Q no longer fits in int64.
        rng = np.random.default_rng(seed)
        params = SupportParams(r_bound=16, eta=0.01)
        k = params.k_base
        m = k << doublings
        lines = np.unique(rng.integers(0, 2 * m, 16))
        spectrum = SparseSpectrum(2 * m, {int(j): float(a) for j, a in
                                          zip(lines, rng.uniform(0.5, 1.5, lines.size))})
        noise = NoiseModel(eta=0.01, seed=seed)
        truth = list(aliased_spectrum(spectrum, m))
        candidate = np.unique(np.concatenate([truth, rng.integers(0, m, 48)]))

        def run(find, cand):
            ledger, probe_rng = SampleLedger(), np.random.default_rng(seed + 10)
            survivors = find(cand, m, params, Sampler(spectrum, noise, ledger),
                             probe_rng, LAST_ROUNDS)
            return (sorted(int(n) for n in survivors), ledger.unique_count,
                    ledger.total_requests, probe_rng.integers(1 << 62))

        got = run(find_aliased_support, candidate)
        # Python ints for the reference, whose n*q must not wrap.
        assert got == run(reference_find_aliased_support, candidate.tolist())
        assert set(truth) <= set(got[0])

    def test_every_round_prunes(self):
        # Every index of [0, M) is a candidate.  For each round some spurious
        # index fails that round alone, so a threshold that skipped any round
        # would keep it; the survivors match the round-by-round set loop.
        # Three rounds leave such indices in every round; with many more
        # rounds an index that fails only one is rare (with these draws a
        # fourth round leaves a round with none).
        rng = np.random.default_rng(3)
        params = SupportParams(r_bound=16, eta=0.01)
        rounds = 3
        k = params.k_base
        m = 2 * k
        spectrum = SparseSpectrum(4 * m, {int(j): 1.0 for j in
                                          rng.choice(4 * m, 16, replace=False)})
        sampler = Sampler(spectrum, NoiseModel(eta=0.01, seed=3))
        candidate = np.arange(m, dtype=np.int64)
        got = find_aliased_support(candidate, m, params, sampler,
                                   np.random.default_rng(5), rounds)
        assert got.tolist() == sorted(reference_find_aliased_support(
            candidate.tolist(), m, params, sampler, np.random.default_rng(5), rounds))
        probe_rng = np.random.default_rng(5)
        qs = [sample_coprime(m, probe_rng) for _ in range(rounds)]
        phi = compute_phi(sampler, m, k, qs, params.probe_x)
        passes = np.array([np.abs(row[probe_index(candidate, q, m, k)]) >= params.threshold
                           for row, q in zip(phi, qs)])
        assert len(passes) == rounds
        fails_once = (~passes).sum(axis=0) == 1
        assert all((fails_once & ~row).any() for row in passes)


class TestProbeSurvival:
    @pytest.mark.parametrize("eta", [0.0, 0.01])
    def test_spurious_rate_per_round_within_alpha(self, eta):
        # A spurious candidate passes one probe round with probability at
        # most ALPHA = 0.2, which the rounds per level assume, on the ladder
        # from K that a retry runs and that bounds it.  Measured
        # here over at least 2000 candidate-rounds per shape; the margin
        # 0.02 is about two binomial standard deviations at 2000 rounds and
        # three at 4700.  N = 2^20, R = 16 reads 0.144 over 3252 rounds of
        # three seeds.  With the paper's width and a threshold halved under
        # noise it read 0.25 noiseless and 0.45 at eta = 0.01.  At R = 1 and
        # 2 K is smallest (9 and 20), so a parent's RHO translates sit only
        # K/RHO = 1.125 and 2.5 probe-grid steps apart: 0.15-0.16 and 0.13.
        # No true line fails a round.
        for shape, seeds in (((1 << 20, 16), (31, 32, 33)),
                             ((1 << 40, 1), range(25)),
                             ((1 << 40, 2), range(5))):
            passed, rounds, true_failures = probe_survival(shape, eta, seeds)
            assert rounds >= 2000, shape
            assert passed / rounds <= ALPHA + 0.02, shape
            assert true_failures == 0, shape

    def test_tightest_margin_at_the_noise_edge(self):
        # delta_ratio = 1 narrows the probe most: a line of amplitude mu
        # half a bin off reads only 2.19 times the threshold, and K is
        # smallest (7 at R = 1).  At eta = NOISE_EDGE*mu no true line fails
        # a round, and spurious candidates pass 0.177 (R = 1, 10026 rounds)
        # and 0.169 (R = 16, 4212 rounds) of theirs.
        eta = NOISE_EDGE * SupportParams(r_bound=1).mu
        for shape, seeds in (((1 << 40, 1), range(40)),
                             ((1 << 20, 16), range(4))):
            passed, rounds, true_failures = probe_survival(shape, eta, seeds,
                                                           delta_ratio=1.0)
            assert rounds >= 4000, shape
            assert passed / rounds <= ALPHA + 0.02, shape
            assert true_failures == 0, shape

    @pytest.mark.parametrize("eta", [0.0, NOISE_EDGE * 0.5])  # mu = 0.5
    def test_no_true_line_fails_on_the_first_ladder(self, eta):
        # md_sfft's first ladder runs from K/2 (R >= HALF_K_FROM), where a
        # spurious candidate passes many more rounds than ALPHA: 0.235 of
        # all rounds at R = 16 (N = 2^20, 3 seeds; 0.144 from K) and 0.264
        # at R = 50 (N = 2^40, 4 seeds; 0.152), the last level's at K
        # included, and 0.295 and 0.287 of the inner rounds alone,
        # noiseless and at the noise edge alike.  No bound is set on those:
        # the certificate and the retry from K stand behind that ladder.
        # But no true line may fail a round there.
        for shape, seeds in (((1 << 20, 16), (31, 32, 33)), ((1 << 40, 50), (0,))):
            passed, rounds, true_failures = probe_survival(shape, eta, seeds, first=True)
            assert rounds >= 2000, shape
            assert true_failures == 0, shape

    @pytest.mark.parametrize("delta_ratio", [2.0, 5.0])
    @pytest.mark.parametrize("eta", [0.0, NOISE_EDGE * 0.5])  # mu = 0.5
    def test_spurious_rate_away_from_the_default_range(self, delta_ratio, eta):
        # The same bound, noiseless and at the noise edge, where delta is 0.4
        # but the probe is narrower (delta_ratio 2: K = 8, 18 and 175) or
        # wider (5: K = 11, 24 and 224) than at the default.  R = 1, 2 and
        # 16 read 0.181, 0.122 and 0.155 at delta_ratio 2, and 0.130, 0.110
        # and 0.163 at 5, noiseless and at the noise edge alike; R = 2 takes
        # a sixth seed to reach 2000 rounds.  No true line fails a round.
        assert SupportParams(r_bound=1, delta_ratio=delta_ratio).delta == 0.4
        for shape, seeds in (((1 << 20, 16), (31, 32, 33)),
                             ((1 << 40, 1), range(25)),
                             ((1 << 40, 2), range(6))):
            passed, rounds, true_failures = probe_survival(shape, eta, seeds,
                                                           delta_ratio)
            assert rounds >= 2000, shape
            assert passed / rounds <= ALPHA + 0.02, shape
            assert true_failures == 0, shape


def base_window(r):
    """The window of the inner levels md_sfft probes first at the
    defaults: K/2 from R = HALF_K_FROM on, K below (the base level's DFT
    is K/2 or K points from R = HALF_K_FROM on)."""
    k = SupportParams(r_bound=r).k_base
    return k // 2 if r >= HALF_K_FROM else k


# Sparsity bounds up to 24 whose first search's inner window is even (parity
# 0) or odd: K below R = 16, K/2 from there (99 at R = 16, 343 at R = 50).
R_BY_WINDOW_PARITY = {parity: [r for r in range(1, 25) if base_window(r) % 2 == parity]
                      for parity in (0, 1)}


def assert_true_lines_clear(spectrum, params, rng):
    """Replay the search md_sfft runs first, noiseless, and check that
    every true aliased line clears the threshold at the base level and in
    every probe round of every level."""
    sampler = Sampler(spectrum)
    moduli, window = plan_attempts(spectrum.ambient_size, params)[0]
    base = initial_aliased_support(sampler, moduli[0], params)
    assert set(aliased_spectrum(spectrum, moduli[0])) <= set(base.tolist())
    for m in moduli[1:]:
        level_rounds, k = level_probe(moduli, window, m, params)
        qs = np.array([sample_coprime(m, rng) for _ in range(level_rounds)])
        phi = compute_phi(sampler, m, k, qs, params.probe_x)
        truth = np.array(sorted(aliased_spectrum(spectrum, m)), dtype=np.int64)
        probes = np.take_along_axis(phi, probe_index(truth, qs[:, None], m, k), 1)
        assert (probes >= params.threshold).all(), (m, probes.min())


class TestFindSupport:
    @pytest.mark.parametrize("parity", [0, 1])
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_true_lines_clear_every_probe(self, parity, data):
        # The nonnegativity invariant, for odd and even windows (for an even
        # one the real transform reads only the real part of its middle
        # sample).
        r = data.draw(st.sampled_from(R_BY_WINDOW_PARITY[parity]))
        n = data.draw(st.integers(2, 1 << 20))
        lines = data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                                   max_size=r, unique=True))
        amps = data.draw(st.lists(st.floats(0.5, 1.5), min_size=len(lines),
                                  max_size=len(lines)))
        spectrum = SparseSpectrum(n, dict(zip(lines, amps)))
        rng = np.random.default_rng(data.draw(st.integers(0, 1 << 32)))
        assert_true_lines_clear(spectrum, SupportParams(r_bound=r), rng)

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_true_lines_clear_every_probe_at_any_delta_ratio(self, data):
        # The same invariant as the probe narrows: delta_ratio in [1, 3],
        # amplitudes in [mu, delta_ratio*mu].  A line of amplitude mu half a
        # bin off its probe point reads 2.19 times the threshold at
        # delta_ratio 1 (delta 0.3), 2.0 at 1.57 where delta turns 0.4, and
        # 2.97 at 3.
        delta_ratio = data.draw(st.floats(1.0, 3.0))
        params = SupportParams(r_bound=data.draw(st.integers(1, 24)),
                               delta_ratio=delta_ratio)
        n = data.draw(st.integers(2, 1 << 40))
        lines = data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                                   max_size=params.r_bound, unique=True))
        amps = data.draw(st.lists(st.floats(params.mu, delta_ratio * params.mu),
                                  min_size=len(lines), max_size=len(lines)))
        spectrum = SparseSpectrum(n, dict(zip(lines, amps)))
        rng = np.random.default_rng(data.draw(st.integers(0, 1 << 32)))
        assert_true_lines_clear(spectrum, params, rng)

    @pytest.mark.parametrize("n,r", [(1 << 20, 16), (1 << 40, 1), (1 << 40, 50)])
    @pytest.mark.parametrize("seed", range(3))
    def test_true_lines_clear_every_probe_at_equal_amplitudes(self, n, r, seed):
        # The tightest margin: delta_ratio 1 and every amplitude mu.
        rng = np.random.default_rng(seed)
        params = SupportParams(r_bound=r, delta_ratio=1.0)
        lines = rng.choice(n, r, replace=False)
        spectrum = SparseSpectrum(n, {int(j): params.mu for j in lines})
        assert_true_lines_clear(spectrum, params, rng)

    def test_initial_level(self):
        spectrum = SparseSpectrum(40, {1: 1.0, 23: 1.0, 35: 1.0})
        params = SupportParams(r_bound=3)
        got = initial_aliased_support(Sampler(spectrum), params.k_base, params)
        assert got.tolist() == [1, 3, 23]  # K = 32 < 40: line 35 folds to 3

    @pytest.mark.parametrize("seed", range(5))
    def test_full_ladder_random_instances(self, seed):
        # find_support keeps every true line; it may keep spurious ones too
        # (at seeds 1 and 4), which the value stage fits to about 0 and
        # drops, so md_sfft on the same instance returns exactly the truth.
        rng = np.random.default_rng(seed)
        n = 1 << 16
        support = rng.choice(n, 16, replace=False)
        amps = rng.uniform(0.5, 1.5, 16)
        truth = {int(j): float(a) for j, a in zip(support, amps)}
        params = SupportParams(r_bound=16)
        got = find_support(Sampler(SparseSpectrum(n, truth)),
                           plan_ladder(n, params.k_base), params,
                           np.random.default_rng(seed + 100))
        assert set(truth) <= set(got.tolist())
        lattice = RankOneLattice(dims=1, axis_size=n)
        entries = {(j,): v for j, v in truth.items()}
        recovered = md_sfft(md_sample_adapter(entries, lattice), lattice, params,
                            np.random.default_rng(seed + 100))
        assert set(recovered) == set(entries)
        assert relative_l2_error(recovered, entries, lattice) <= 1e-8

    def test_empty_spectrum(self):
        spectrum = SparseSpectrum(64, {})
        params = SupportParams(r_bound=4)
        assert find_support(Sampler(spectrum), plan_ladder(64, params.k_base),
                            params, np.random.default_rng(0)).size == 0

    def test_candidate_blowup_guard(self):
        # A wildly wrong mu makes every index pass the initial threshold.
        n = 1 << 14
        rng = np.random.default_rng(2)
        support = rng.choice(n, 300, replace=False)
        spectrum = SparseSpectrum(n, {int(j): 1.0 for j in support})
        params = SupportParams(r_bound=2, mu=0.01)
        with pytest.raises(CandidateBlowup):
            find_support(Sampler(spectrum), plan_ladder(n, params.k_base),
                         params, np.random.default_rng(0))

    def test_spurious_output_within_p(self):
        # At most 2 (RHO - 1) R ALPHA^LAST_ROUNDS spurious lines reach the
        # output in expectation, which bounds the chance that any does.  On
        # a 13-level ladder (N = 2^40, R = 4, K = 44, eta = 1e-2) the inner
        # levels' two rounds must keep spurious survivors from compounding
        # and the last level's three must catch the rest: over 250 seeded
        # runs, at most 56 * 0.2^3 * 250 = 112 may hold a spurious line.
        # 38 do, with 42 lines in all.  No true line is missed.
        params = SupportParams(r_bound=4, eta=1e-2)
        runs = 250
        spurious = missed = 0
        for seed in range(runs):
            entries, lattice, noise = random_instance(1 << 20, 2, 4, 1e-2, seed)
            moduli = plan_ladder(lattice.total, params.k_base)
            got = set(find_support(md_sample_adapter(entries, lattice, noise), moduli,
                                   params, np.random.default_rng(seed)).tolist())
            truth = {flatten_index(key, lattice) for key in entries}
            spurious += bool(got - truth)
            missed += bool(truth - got)
        assert len(moduli) == 13
        assert spurious <= 2 * (RHO - 1) * params.r_bound * ALPHA**LAST_ROUNDS * runs
        assert missed == 0
