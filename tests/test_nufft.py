import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from smfft import nufft
from smfft.core_math import next_fast_len
from smfft.nufft import nufft_exp_sum


def direct(coeffs, nu, k0, count):
    k = k0 + np.arange(count)
    return np.exp(-2j * np.pi * np.mod(np.outer(k, nu), 1.0)) @ coeffs


def from_index(coeffs, nu, k0, count):
    """F(k0 + k) for k = 0..count-1: the sum is centred on k = middle(count),
    so the middle index k0 + middle(count) is folded into the coefficients,
    as the sampler folds its centre point into its phases."""
    centre = k0 + nufft.middle(count)
    return nufft_exp_sum(coeffs * np.exp(-2j * np.pi * np.mod(centre * nu, 1.0)),
                         nu, count)


# The oracle's own shapes are (R, count) = (50, 364) and (256, 2063).
@pytest.mark.parametrize("r,count,k0", [(1, 150, 0), (16, 700, -350),
                                        (64, 2048, -1024), (256, 6826, -3413),
                                        (50, 364, 0), (256, 2063, 0)])
def test_matches_direct(r, count, k0):
    rng = np.random.default_rng(r + count)
    nu = rng.uniform(0, 1, r)
    coeffs = rng.uniform(0.5, 1.5, r) * np.exp(2j * np.pi * rng.uniform(0, 1, r))
    got = from_index(coeffs, nu, k0, count)
    scale = np.sum(np.abs(coeffs))
    assert np.max(np.abs(got - direct(coeffs, nu, k0, count))) / scale < 1e-11


def test_rational_frequencies_near_wraparound():
    # Frequencies just below 1 wrap onto the grid without artifacts.
    nu = np.array([1 - 1e-9, 1e-9, 0.5])
    coeffs = np.array([1.0, 1.0, 1.0], dtype=complex)
    got = nufft_exp_sum(coeffs, nu, 400)
    assert np.max(np.abs(got - direct(coeffs, nu, -nufft.middle(400), 400))) < 1e-10


def test_clustered_frequencies():
    nu = 0.3 + np.linspace(0, 1e-6, 32)
    coeffs = np.ones(32, dtype=complex)
    got = from_index(coeffs, nu, -500, 1000)
    assert np.max(np.abs(got - direct(coeffs, nu, -500, 1000))) / 32 < 1e-12


def test_planned_counts_match_unplanned(monkeypatch):
    # Each request size's grid and correction are planned once and shared;
    # calls that interleave sizes return exactly what a fresh plan gives.
    rng = np.random.default_rng(3)
    nu = rng.uniform(0, 1, 40)
    coeffs = rng.uniform(0.5, 1.5, 40) * np.exp(2j * np.pi * rng.uniform(0, 1, 40))
    counts = [463, 150, 463, 2561, 150, 463]
    planned = [nufft_exp_sum(coeffs, nu, count) for count in counts]
    monkeypatch.setattr(nufft, "_plan", nufft._plan.__wrapped__)
    for count, got in zip(counts, planned):
        assert np.array_equal(got, nufft_exp_sum(coeffs, nu, count)), count


def _is_11_smooth(n):
    for p in (2, 3, 5, 7, 11):
        while n % p == 0:
            n //= p
    return n == 1


@given(st.integers(1, 1 << 20))
def test_next_fast_len_is_next_11_smooth(n):
    got = next_fast_len(n)
    assert got >= n and _is_11_smooth(got)
    assert not any(_is_11_smooth(m) for m in range(n, got))


def test_next_fast_len_matches_scipy():
    scipy_fft = pytest.importorskip("scipy.fft")
    # Every size up to 2^14, and the grids of the largest batches (2^16).
    for n in [*range(1, 1 << 14), *range((1 << 17) - 512, (1 << 17) + 512)]:
        assert next_fast_len(n) == scipy_fft.next_fast_len(n), n
