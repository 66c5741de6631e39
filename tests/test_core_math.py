import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smfft.core_math import mulmod, primes_below, sample_coprime
from smfft.signal import Sampler, SparseSpectrum
from smfft.value_recovery import prime_pool

from reference import trial_division_primes


def naive_dft(values, inverse=False):
    """Independent O(L^2) reference transform."""
    v = np.asarray(values, dtype=complex)
    n = len(v)
    sign = 2j if inverse else -2j
    kernel = np.exp(sign * np.pi * np.outer(np.arange(n), np.arange(n)) / n)
    out = kernel @ v
    return out / n if inverse else out


def test_sample_coprime_is_coprime_and_hits_all():
    rng = np.random.default_rng(0)
    seen = set()
    for _ in range(300):
        q = sample_coprime(12, rng)
        assert math.gcd(q, 12) == 1
        seen.add(q)
    assert seen == {1, 5, 7, 11}


# Where (m - 1)^2 crosses 2^63: below it every q in [0, m) takes mulmod's
# one-product path, above it the largest q take the 16-bit limbs.
_SQRT_2_63 = math.isqrt((1 << 63) - 1)


class TestMulmod:
    @staticmethod
    def _check(n, q, m):
        got = mulmod(n, q, m)
        want = np.vectorize(lambda a, b: (int(a) * int(b)) % m, otypes=[object])(
            *np.broadcast_arrays(n, q))
        assert np.array_equal(np.asarray(got, dtype=object), want)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_exact_on_both_paths(self, data):
        m = data.draw(st.one_of(
            st.integers(1, 1 << 12),
            st.integers(_SQRT_2_63 - (1 << 20), _SQRT_2_63 + (1 << 20)),
            st.integers((1 << 46) - (1 << 20), 1 << 46)))
        residue = st.one_of(st.integers(0, m - 1), st.integers(max(0, m - 64), m - 1))
        n = np.array(data.draw(st.lists(residue, min_size=1, max_size=20)), dtype=np.int64)
        q = data.draw(residue)
        self._check(n, q, m)
        self._check(int(n[0]), q, m)
        # q as an int64 column against a row of n, as probe_index passes it.
        qs = np.array(data.draw(st.lists(residue, min_size=1, max_size=4)), dtype=np.int64)
        self._check(n, qs[:, None], m)

    @pytest.mark.parametrize("m,q", [
        (4398048608257 + 1, 2097151),  # (m - 1) * q = 2^63 - 1: one product
        ((1 << 45) + 1, 1 << 18),      # (m - 1) * q = 2^63: limbs
        ((1 << 32) + 1, 1 << 31),
    ])
    def test_edge_of_one_product(self, m, q):
        n = np.array([m - 1, m - 2, 1, 0], dtype=np.int64)
        assert (m - 1) * q in ((1 << 63) - 1, 1 << 63)
        self._check(n, q, m)
        self._check(n, np.array([[q], [q - 1], [1]], dtype=np.int64), m)


class TestPrimes:
    def test_first_past_sparsity(self):
        # A pool starts at the first prime past R.
        assert prime_pool(5, 5**3)[:5].tolist() == [7, 11, 13, 17, 19]

    def test_pool_is_prime_and_sorted(self):
        assert primes_below(5000).tolist() == trial_division_primes(5000)
        for limit in (0, 1, 2, 3, 4, 49, 50):
            assert primes_below(limit).tolist() == trial_division_primes(limit), limit

    def test_large_r(self):
        assert prime_pool(256, 1 << 20)[0] == 257

    def test_pools_match_naive_reference(self):
        # Pools over many (R, N), asked for in a random order; each is the
        # len(pool) smallest primes above R.
        primes = trial_division_primes(40000)
        rng = np.random.default_rng(4)
        for r, n_total in zip(rng.integers(0, 300, 60).tolist(),
                              (1 << rng.integers(1, 21, 60)).tolist()):
            pool = prime_pool(r, n_total).tolist()
            above = [p for p in primes if p > max(r, 1)]
            assert len(pool) < len(above)
            assert pool == above[:len(pool)], (r, n_total)


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
