import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smfft import support_recovery
from smfft.core_math import gaussian_window, next_fast_len, sample_coprime
from smfft.errors import CandidateBlowup, EnvelopeError
from smfft.signal import (NoiseModel, SampleLedger, Sampler, SparseSpectrum,
                          aliased_spectrum)
from smfft.support_recovery import (SupportParams, compute_phi,
                                    dealias_candidates,
                                    find_aliased_support, find_support,
                                    initial_aliased_support, plan_ladder,
                                    probe_index)


def reference_probe_index(n, q, m, k):
    """Grid index nearest (n*q mod m)*k/m, rounding half up, in Python ints."""
    s = (n * q) % m
    return ((2 * s * k + m) // (2 * m)) % k


def reference_phi(sampler, m, k, q, sigma):
    """Probe spectrum with the full K-point window built here, one request
    for the offsets 0..K//2, the negative offsets conjugated here, and an
    np.add.at fold."""
    # The alias window {n : n <= K/2 or |n - M| < K/2} as signed offsets:
    # -(K-1)//2..K//2, one full residue system mod K.
    offsets = np.arange(k // 2 - k + 1, k // 2 + 1)
    weights = gaussian_window(offsets, sigma, m)
    half = sampler.sample_progression(0, q, k // 2 + 1, m)
    samples = np.array([half[o] if o >= 0 else np.conj(half[-o]) for o in offsets])
    folded = np.zeros(k, dtype=complex)
    np.add.at(folded, offsets % k, samples * (weights / m))
    return np.fft.ifft(folded, norm="forward")


def reference_find_aliased_support(candidate, m, params, sampler, rng):
    """The set-based probe loop: a window and an np.add.at fold per round, and
    one Python-int probe index per candidate."""
    k = params.k_base
    survivors = set(candidate)
    for _ in range(params.probe_rounds):
        if not survivors:
            break
        q = sample_coprime(m, rng)
        phi = reference_phi(sampler, m, k, q, params.sigma(m))
        survivors = {n for n in survivors
                     if abs(phi[reference_probe_index(n, q, m, k)]) >= params.threshold}
    return survivors


class TestSupportParams:
    def test_k_base_default_sparsity_3(self):
        # ceil(13.333/pi * 3 * sqrt(ln(180) * ln(60))) = 59, rounded up to
        # the 11-smooth 60
        assert SupportParams(r_bound=3).k_base == 60

    def test_k_base_table_defaults_r50(self):
        assert SupportParams(r_bound=50).k_base == 1215

    def test_k_base_is_next_smooth_size_over_bound(self):
        # Over R = 1..4300 (K < 2^17) rounding up costs at most 6%.
        def smooth(n):
            for f in (2, 3, 5, 7, 11):
                while n % f == 0:
                    n //= f
            return n == 1

        for r in range(1, 4301):
            p = SupportParams(r_bound=r)
            l1 = math.log(2 * r * p.delta_ratio / p.delta)
            l2 = math.log(2 * p.delta_ratio / p.delta)
            bound = math.ceil(max(8, 2 / p.alpha) / math.pi * r * math.sqrt(l1 * l2))
            assert bound <= p.k_base <= 1.06 * bound and smooth(p.k_base), r

    def test_probe_rounds(self):
        # ceil(ln(1e-4) / ln(0.15)) = 5
        assert SupportParams(r_bound=3).probe_rounds == 5
        assert SupportParams(r_bound=3, p_fail=1e-2).probe_rounds == 3

    def test_threshold(self):
        p = SupportParams(r_bound=3)
        assert p.threshold == pytest.approx(0.025)
        noisy = SupportParams(r_bound=3, eta=0.01)
        assert noisy.threshold == pytest.approx(0.0125)

    def test_noise_cap(self):
        with pytest.raises(ValueError):
            SupportParams(r_bound=3, eta=0.03)  # > delta*mu/2 = 0.025

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

    def test_sigma_scales_with_modulus(self):
        p = SupportParams(r_bound=50)
        assert p.sigma(2430) == pytest.approx(2 * p.sigma(1215))

    def test_k_base_computed_once(self, monkeypatch):
        calls = []

        def counting(n):
            calls.append(n)
            return next_fast_len(n)

        monkeypatch.setattr(support_recovery, "next_fast_len", counting)
        p, q = SupportParams(r_bound=50), SupportParams(r_bound=50)
        assert p.k_base == p.k_base == 1215
        assert len(calls) == 1
        assert p == q and hash(p) == hash(q)

    def test_validation(self):
        with pytest.raises(ValueError):
            SupportParams(r_bound=3, alpha=1.5)
        with pytest.raises(ValueError):
            SupportParams(r_bound=3, rho=1)


class TestLadder:
    def test_degenerate_when_k_exceeds_n(self):
        assert plan_ladder(40, 59, 2) == (59,)

    def test_growth_factors_bounded(self):
        moduli = plan_ladder(10**6, 100, 4)
        assert all(b % a == 0 and 2 <= b // a <= 4 for a, b in zip(moduli, moduli[1:]))
        assert moduli[-1] >= 10**6
        assert moduli[0] == 100

    def test_minimal_depth_then_size(self):
        # 5 -> 45 needs two factor-3 steps; 40 = 5*2*2*2 would use three.
        assert plan_ladder(40, 5, 3) == (5, 15, 45)

    def test_doubling_ladder(self):
        assert plan_ladder(4096, 361, 2) == (361, 722, 1444, 2888, 5776)

    def test_plan_ladder_uses_params(self):
        p = SupportParams(r_bound=3)
        assert plan_ladder(40, p.k_base, p.rho) == (60,)

    def test_envelope(self):
        # probe_index is exact for K < 2^17 and a padded N <= 2^46.
        assert plan_ladder(1 << 46, 1 << 10, 2)[-1] == 1 << 46
        with pytest.raises(EnvelopeError, match="padded grid size"):
            plan_ladder((1 << 46) + 1, 1 << 10, 2)
        assert plan_ladder(10, (1 << 17) - 1, 2) == ((1 << 17) - 1,)
        with pytest.raises(EnvelopeError, match="base modulus K"):
            plan_ladder(10, 1 << 17, 2)


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


class TestSamplePeriod:
    @pytest.mark.parametrize("r_bound", [16, 18])
    def test_request_counts(self, r_bound):
        # One request of K//2 + 1 points per period: the base level, then
        # each of a level's L probe rounds (odd K = 363, even K = 420).
        params = SupportParams(r_bound=r_bound)
        k = params.k_base
        m = 2 * k
        spectrum = SparseSpectrum(4 * m, {3: 1.0, m + 7: 0.75})
        ledger = SampleLedger()
        sampler = Sampler(spectrum, ledger=ledger)
        aliased = initial_aliased_support(sampler, k, params)
        assert ledger.total_requests == k // 2 + 1
        find_aliased_support(dealias_candidates(aliased, k, 2), m, params,
                             sampler, np.random.default_rng(0))
        assert ledger.total_requests == (1 + params.probe_rounds) * (k // 2 + 1)


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
        q = 137  # coprime to m = 726
        phi, = compute_phi(sampler, m, k, [q], params.sigma(m))
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
        # real part is all the real transform reads.
        spectrum = SparseSpectrum(8 * k, {3: 1.0, 5 * k + 7: 0.75})
        sampler, m, sigma = Sampler(spectrum), 4 * k, 40.0
        qs = (1, 3, 4 * k - 1)
        phi = compute_phi(sampler, m, k, qs, sigma)
        assert phi.shape == (len(qs), k) and phi.dtype == np.float64
        for row, q in zip(phi, qs):
            reference = reference_phi(sampler, m, k, q, sigma)
            assert np.abs(row - reference.real).max() <= 1e-12
            if k % 2:
                assert np.abs(reference.imag).max() <= 1e-12

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
                                   Sampler(spectrum), np.random.default_rng(1))
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
            survivors = find(cand, m, params, Sampler(spectrum, noise, ledger), probe_rng)
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
        rng = np.random.default_rng(3)
        params = SupportParams(r_bound=16, eta=0.01)
        k = params.k_base
        m = 2 * k
        spectrum = SparseSpectrum(4 * m, {int(j): 1.0 for j in
                                          rng.choice(4 * m, 16, replace=False)})
        sampler = Sampler(spectrum, NoiseModel(eta=0.01, seed=3))
        candidate = np.arange(m, dtype=np.int64)
        got = find_aliased_support(candidate, m, params, sampler,
                                   np.random.default_rng(5))
        assert got.tolist() == sorted(reference_find_aliased_support(
            candidate.tolist(), m, params, sampler, np.random.default_rng(5)))
        probe_rng = np.random.default_rng(5)
        qs = [sample_coprime(m, probe_rng) for _ in range(params.probe_rounds)]
        phi = compute_phi(sampler, m, k, qs, params.sigma(m))
        passes = np.array([np.abs(row[probe_index(candidate, q, m, k)]) >= params.threshold
                           for row, q in zip(phi, qs)])
        fails_once = (~passes).sum(axis=0) == 1
        assert all((fails_once & ~row).any() for row in passes)


# Sparsity bounds up to 24 whose base modulus K is even (parity 0) or odd.
R_BY_K_PARITY = {parity: [r for r in range(1, 25)
                          if SupportParams(r_bound=r).k_base % 2 == parity]
                 for parity in (0, 1)}


class TestFindSupport:
    @pytest.mark.parametrize("parity", [0, 1])
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_true_lines_clear_every_probe(self, parity, data):
        # The nonnegativity invariant, noiseless: replaying find_support's
        # ladder, every true aliased line clears the threshold at the base
        # level and in every probe round of every level, for odd and even K
        # (for even K the real transform reads only the real part of the
        # K/2 sample).
        r = data.draw(st.sampled_from(R_BY_K_PARITY[parity]))
        n = data.draw(st.integers(2, 1 << 20))
        lines = data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                                   max_size=r, unique=True))
        amps = data.draw(st.lists(st.floats(0.5, 1.5), min_size=len(lines),
                                  max_size=len(lines)))
        spectrum = SparseSpectrum(n, dict(zip(lines, amps)))
        params, sampler = SupportParams(r_bound=r), Sampler(spectrum)
        rng = np.random.default_rng(data.draw(st.integers(0, 1 << 32)))
        moduli = plan_ladder(n, params.k_base, params.rho)
        k = moduli[0]
        base = initial_aliased_support(sampler, k, params)
        assert set(aliased_spectrum(spectrum, k)) <= set(base.tolist())
        for m in moduli[1:]:
            qs = np.array([sample_coprime(m, rng) for _ in range(params.probe_rounds)])
            phi = compute_phi(sampler, m, k, qs, params.sigma(m))
            truth = np.array(sorted(aliased_spectrum(spectrum, m)), dtype=np.int64)
            probes = np.take_along_axis(phi, probe_index(truth, qs[:, None], m, k), 1)
            assert (probes >= params.threshold).all(), (m, probes.min())

    def test_initial_level(self):
        spectrum = SparseSpectrum(40, {1: 1.0, 23: 1.0, 35: 1.0})
        params = SupportParams(r_bound=3)
        got = initial_aliased_support(Sampler(spectrum), params.k_base, params)
        assert got.tolist() == [1, 23, 35]  # K=60 > 40: no folding at all

    @pytest.mark.parametrize("seed", range(5))
    def test_full_ladder_random_instances(self, seed):
        rng = np.random.default_rng(seed)
        n = 1 << 16
        support = rng.choice(n, 16, replace=False)
        amps = rng.uniform(0.5, 1.5, 16)
        spectrum = SparseSpectrum(n, {int(j): float(a)
                                      for j, a in zip(support, amps)})
        params = SupportParams(r_bound=16)
        got = find_support(Sampler(spectrum), plan_ladder(n, params.k_base, params.rho),
                           params, np.random.default_rng(seed + 100))
        assert got.tolist() == sorted(int(j) for j in support)

    def test_empty_spectrum(self):
        spectrum = SparseSpectrum(64, {})
        params = SupportParams(r_bound=4)
        assert find_support(Sampler(spectrum), plan_ladder(64, params.k_base, params.rho),
                            params, np.random.default_rng(0)).size == 0

    def test_candidate_blowup_guard(self):
        # A wildly wrong mu makes every index pass the initial threshold.
        n = 1 << 14
        rng = np.random.default_rng(2)
        support = rng.choice(n, 300, replace=False)
        spectrum = SparseSpectrum(n, {int(j): 1.0 for j in support})
        params = SupportParams(r_bound=2, mu=0.01)
        with pytest.raises(CandidateBlowup):
            find_support(Sampler(spectrum), plan_ladder(n, params.k_base, params.rho),
                         params, np.random.default_rng(0))
