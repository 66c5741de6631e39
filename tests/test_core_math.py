import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smfft import core_math
from smfft.core_math import (gaussian_window, mod_inverse, primes_greater_than,
                             sample_coprime, window_offsets)
from smfft.errors import NotCoprime
from smfft.signal import Sampler, SparseSpectrum


def naive_dft(values, inverse=False):
    """Independent O(L^2) reference transform."""
    v = np.asarray(values, dtype=complex)
    n = len(v)
    sign = 2j if inverse else -2j
    kernel = np.exp(sign * np.pi * np.outer(np.arange(n), np.arange(n)) / n)
    out = kernel @ v
    return out / n if inverse else out


class TestModInverse:
    def test_inverse_of_13_mod_40(self):
        assert mod_inverse(13, 40) == 37

    def test_small_cases(self):
        assert mod_inverse(1, 2) == 1
        assert mod_inverse(3, 7) == 5
        assert mod_inverse(7, 10) == 3

    def test_all_coprime_pairs_up_to_50(self):
        for m in range(2, 51):
            for q in range(1, m):
                if math.gcd(q, m) == 1:
                    assert (q * mod_inverse(q, m)) % m == 1

    def test_not_coprime_raises(self):
        with pytest.raises(NotCoprime):
            mod_inverse(6, 40)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            mod_inverse(0, 5)
        with pytest.raises(ValueError):
            mod_inverse(5, 5)


def test_sample_coprime_is_coprime_and_hits_all():
    rng = np.random.default_rng(0)
    seen = set()
    for _ in range(300):
        q = sample_coprime(12, rng)
        assert math.gcd(q, 12) == 1
        seen.add(q)
    assert seen == {1, 5, 7, 11}


class TestPrimes:
    def test_first_past_sparsity(self):
        assert primes_greater_than(5, 5) == [7, 11, 13, 17, 19]

    def test_pool_is_prime_and_sorted(self):
        pool = primes_greater_than(50, 500)
        assert len(pool) == 500
        assert pool == sorted(pool)
        assert pool[0] > 50
        for p in pool[:40]:
            assert all(p % d for d in range(2, int(p**0.5) + 1))

    def test_large_r(self):
        pool = primes_greater_than(256, 10)
        assert pool[0] == 257

    def test_second_identical_call_does_not_sieve(self, monkeypatch):
        # From an empty cache: the first call sieves, a repeat reads the
        # cache, though its largest prime lies below the sieved limit.
        sieves = []

        class CountingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def ones(self, *args, **kwargs):
                sieves.append(args)
                return np.ones(*args, **kwargs)

        monkeypatch.setattr(core_math, "np", CountingNumpy())
        monkeypatch.setattr(core_math, "_PRIME_CACHE", [2, 3, 5, 7, 11, 13])
        monkeypatch.setattr(core_math, "_SIEVED_LIMIT", 13)
        first = primes_greater_than(256, 100)
        assert len(sieves) == 1
        assert primes_greater_than(256, 100) == first
        assert len(sieves) == 1


class TestWindow:
    def test_known_small_window(self):
        assert window_offsets(4) == (-1, 2)  # indices {9, 0, 1, 2} mod 10

    def test_single_point(self):
        assert window_offsets(1) == (0, 0)

    def test_window_offsets_contiguous(self):
        for k in range(1, 40):
            lo, hi = window_offsets(k)
            assert hi - lo + 1 == k
            assert hi == k // 2

    def test_offsets_match_alias_window(self):
        # The alias window is {n : n <= k/2 or |n - m| < k/2} within [0, m).
        for k, m in [(4, 10), (5, 11), (7, 7), (16, 64), (9, 10)]:
            lo, hi = window_offsets(k)
            expected = {n for n in range(m) if 2 * n <= k or 2 * (m - n) < k}
            assert {o % m for o in range(lo, hi + 1)} == expected


class TestGaussianWindow:
    def test_matches_direct_wrap_sum(self):
        sigma, m = 2.5, 32
        weights = gaussian_window(np.arange(m), sigma, m)
        for idx in range(m):
            expected = math.sqrt(math.pi) * sigma * sum(
                math.exp(-math.pi**2 * sigma**2 * ((idx + h * m) / m) ** 2)
                for h in range(-50, 51))
            assert weights[idx] == pytest.approx(expected, abs=1e-13)

    def test_vectorized_agrees_with_scalar(self):
        # One call over signed offsets equals point-by-point calls at the
        # offsets reduced mod M.
        offs = np.arange(-25, 26)
        vec = gaussian_window(offs, 1.3, 100)
        for o, v in zip(offs, vec):
            scalar = gaussian_window(np.array([int(o) % 100]), 1.3, 100)[0]
            assert v == pytest.approx(scalar, abs=1e-12)

    def test_symmetry(self):
        w = gaussian_window(np.arange(-10, 11), 3.0, 64)
        assert np.allclose(w, w[::-1])

    def test_invalid_spec(self):
        for sigma in (-1.0, 0.0):
            with pytest.raises(ValueError):
                gaussian_window(np.arange(4), sigma, 8)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_wrap_count_covers_any_offset(self, data):
        # Offsets anywhere in (-3M, 3M), not only the window's: the wrap
        # count comes from the largest |offset|, and must match a |h| <= 64
        # wrap.
        m = data.draw(st.integers(2, 1 << 20))
        sigma = data.draw(st.floats(0.5, m / 2))
        offs = data.draw(st.lists(st.integers(-3 * m + 1, 3 * m - 1), min_size=1, max_size=8))
        h = np.arange(-64, 65)
        brute = [math.sqrt(math.pi) * sigma * np.sum(
            np.exp(-math.pi**2 * sigma**2 * ((o + h * m) / m) ** 2)) for o in offs]
        got = gaussian_window(np.array(offs), sigma, m)
        # o/M + h cancels when h ~ -o/M, which costs about eps*pi*sigma of
        # the peak; a missing wrap term near |o| ~ M would cost all of it.
        peak = math.sqrt(math.pi) * sigma
        tol = peak * (1e-13 + 8 * np.finfo(float).eps * math.pi * sigma)
        assert np.allclose(got, brute, rtol=0, atol=tol)


class TestDft:
    """The oracle's full-rate samples are the dense DFT of the spectrum, and
    the inverse FFT the pipeline applies to them reads the spectrum back, at
    any length, prime or composite."""

    @pytest.mark.parametrize("length", [1, 2, 3, 8, 12, 17, 31, 97, 128])
    def test_matches_naive(self, length):
        rng = np.random.default_rng(length)
        fhat = rng.uniform(0.5, 1.5, size=length)
        sampler = Sampler(SparseSpectrum(length, dict(enumerate(fhat.tolist()))))
        samples = sampler.sample_progression(0, 1, length, length)
        assert np.allclose(samples, naive_dft(fhat), atol=1e-9)
        assert np.allclose(np.fft.ifft(samples), naive_dft(samples, inverse=True),
                           atol=1e-9)

    def test_roundtrip_prime_length(self):
        rng = np.random.default_rng(1)
        fhat = rng.uniform(0.5, 1.5, size=101)
        sampler = Sampler(SparseSpectrum(101, dict(enumerate(fhat.tolist()))))
        samples = sampler.sample_progression(0, 1, 101, 101)
        assert np.allclose(np.fft.ifft(samples), fhat, atol=1e-10)


def test_dense_oracle_matches_naive():
    entries = {1: 1.0, 5: 0.5, 11: 2.0}
    n = 16
    dense = np.zeros(n, dtype=complex)
    for j, v in entries.items():
        dense[j] = v
    samples = Sampler(SparseSpectrum(n, entries)).sample_progression(0, 1, n, n)
    assert np.allclose(samples, naive_dft(dense), atol=1e-10)
