"""Randomized property checks and the built-in lemma battery."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import smfft.selftest
from smfft.core_math import mod_inverse
from smfft.md_transform import RankOneLattice, flatten_index, unflatten_index
from smfft.selftest import (check_contraction_probability, check_crt_separation,
                            check_rank1_exactness,
                            check_shuffle_isomorphism,
                            check_shuffle_spectrum_identity, check_window,
                            run_selftest)
from smfft.signal import Sampler, SparseSpectrum


class TestLemmaBattery:
    def test_shuffle_isomorphism_exhaustive(self):
        result = check_shuffle_isomorphism(max_modulus=200)
        assert result.passed, result.detail

    def test_shuffle_spectrum_identity(self):
        result = check_shuffle_spectrum_identity(max_modulus=64, seed=0)
        assert result.passed, result.detail

    def test_crt_separation(self):
        result = check_crt_separation(max_n=1 << 14, seed=0)
        assert result.passed, result.detail

    def test_contraction_probability(self):
        result = check_contraction_probability(draws=200, seed=0)
        assert result.passed, result.detail

    def test_rank1_exactness(self):
        result = check_rank1_exactness(max_axis=8, max_dims=3, tol=1e-10)
        assert result.passed, result.detail

    def test_window(self):
        result = check_window(seed=0)
        assert result.passed, result.detail

    def test_full_battery(self):
        results = run_selftest(seed=0)
        assert len(results) == 6
        assert all(r.passed for r in results)

    def test_battery_detects_broken_inverse(self, monkeypatch):
        # Sanity of the battery itself: a corrupted modular inverse must
        # be caught, not silently accepted.
        def bad_inverse(q, m):
            r = mod_inverse(q, m)
            return r % m + 1 if r + 1 < m else 1

        monkeypatch.setattr(smfft.selftest, "mod_inverse", bad_inverse)
        results = run_selftest(seed=0)
        assert not all(r.passed for r in results)


@given(st.integers(min_value=2, max_value=5000), st.data())
@settings(max_examples=80, deadline=None)
def test_mod_inverse_property(m, data):
    coprimes = [q for q in range(1, min(m, 60)) if math.gcd(q, m) == 1]
    q = data.draw(st.sampled_from(coprimes))
    assert (q * mod_inverse(q, m)) % m == 1


@given(st.integers(min_value=1, max_value=4),
       st.integers(min_value=2, max_value=12),
       st.data())
@settings(max_examples=60, deadline=None)
def test_flatten_roundtrip_property(dims, axis, data):
    lat = RankOneLattice(dims, axis)
    flat = data.draw(st.integers(min_value=0, max_value=lat.total - 1))
    assert flatten_index(unflatten_index(flat, lat), lat) == flat


@given(st.integers(min_value=0, max_value=10**6),
       st.integers(min_value=0, max_value=10**6),
       st.integers(min_value=1, max_value=64))
@settings(max_examples=40, deadline=None)
def test_progression_consistent_with_single_samples(start, step, count):
    entries = {3: 1.0, 700001: 0.5}
    sampler = Sampler(SparseSpectrum(1 << 20, entries))
    den = 999983
    batch = sampler.sample_progression(start, step, count, den)
    for k in (0, count // 2, count - 1):
        assert batch[k] == pytest.approx(
            sampler.sample_progression(start + k * step, 0, 1, den)[0], abs=1e-9)


def test_probe_false_positive_rate_is_small():
    # Empirical check of the pruning mechanism: a spurious candidate
    # survives a single shuffle round with probability bounded away from 1
    # (the design rate is alpha up to constant-factor slack from grid
    # rounding and window truncation), so the intersection over L rounds
    # drives the false-positive rate toward zero geometrically.
    from smfft.core_math import sample_coprime
    from smfft.signal import aliased_spectrum
    from smfft.support_recovery import SupportParams, compute_phi, probe_index

    rng = np.random.default_rng(0)
    n = 1 << 14
    params = SupportParams(r_bound=16)
    k = params.k_base
    m = 4 * k
    survived = total = 0
    for trial in range(8):
        support = rng.choice(n, 16, replace=False)
        spectrum = SparseSpectrum(n, {int(j): 1.0 for j in support})
        sampler = Sampler(spectrum)
        truth = set(aliased_spectrum(spectrum, m))
        spurious = [x for x in rng.integers(0, m, 60) if x not in truth]
        q = sample_coprime(m, rng)
        phi, = compute_phi(sampler, m, k, [q], params.sigma(m))
        for x in spurious:
            total += 1
            if abs(phi[probe_index(int(x), q, m, k)]) >= params.threshold:
                survived += 1
    rate = survived / total
    assert rate < 0.5
    # L independent rounds then leave roughly rate^L < 4% of spurious
    # candidates, which the value-recovery pruning mops up.
    assert rate ** params.probe_rounds < 0.04
