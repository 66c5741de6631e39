import math

import numpy as np
import pytest

from smfft.core_math import (FilterSpec, gaussian_window, mod_inverse,
                             primes_greater_than, sample_coprime, window_offsets)
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
        spec = FilterSpec.create(sigma, m, 16)
        weights = gaussian_window(np.arange(m), spec)
        for idx in range(m):
            expected = math.sqrt(math.pi) * sigma * sum(
                math.exp(-math.pi**2 * sigma**2 * ((idx + h * m) / m) ** 2)
                for h in range(-50, 51))
            assert weights[idx] == pytest.approx(expected, abs=1e-13)

    def test_vectorized_agrees_with_scalar(self):
        # One call over signed offsets equals point-by-point calls at the
        # offsets reduced mod M.
        spec = FilterSpec.create(1.3, 100, 50)
        offs = np.arange(-25, 26)
        vec = gaussian_window(offs, spec)
        for o, v in zip(offs, vec):
            scalar = gaussian_window(np.array([int(o) % 100]), spec)[0]
            assert v == pytest.approx(scalar, abs=1e-12)

    def test_symmetry(self):
        spec = FilterSpec.create(3.0, 64, 32)
        w = gaussian_window(np.arange(-10, 11), spec)
        assert np.allclose(w, w[::-1])

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            FilterSpec(sigma=-1.0, modulus=8, wrap_terms=2, bandwidth=4)
        with pytest.raises(ValueError):
            FilterSpec(sigma=1.0, modulus=8, wrap_terms=2, bandwidth=9)


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
