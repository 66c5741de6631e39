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
    """F(k0 + k) for k = 0..count-1: the offset k0 is folded into the
    coefficients, as the sampler folds a progression's start into its
    amplitudes."""
    return nufft_exp_sum(coeffs * np.exp(-2j * np.pi * np.mod(k0 * nu, 1.0)), nu, count)


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


# The oracle's own shapes (R, count): the base and inner levels of
# deep-ladder, its last level, and wide-support's inner and last levels.
@pytest.mark.parametrize("r,count", [(50, 172), (50, 344), (256, 969), (256, 1937)])
def test_real_amplitudes_match_direct(r, count):
    # The sampler's path: real amplitudes, several rows of frequencies.
    rng = np.random.default_rng(r * count)
    nu = rng.uniform(0, 1, (3, r))
    amps = rng.uniform(0.5, 1.5, r)
    got = nufft_exp_sum(amps, nu, count)
    want = np.array([direct(amps, row, 0, count) for row in nu])
    assert np.max(np.abs(got - want)) <= 1e-12 * np.sum(amps)


def test_complex_coefficients_are_two_real_passes():
    # A progression's start makes the coefficients complex; they broadcast
    # against the rows like the real amplitudes, one pass per part.
    rng = np.random.default_rng(11)
    nu = rng.uniform(0, 1, (2, 40))
    coeffs = rng.uniform(0.5, 1.5, 40) * np.exp(2j * np.pi * rng.uniform(0, 1, 40))
    got = nufft_exp_sum(coeffs, nu, 300)
    assert np.array_equal(got, nufft_exp_sum(coeffs.real, nu, 300)
                          + 1j * nufft_exp_sum(coeffs.imag, nu, 300))
    want = np.array([direct(coeffs, row, 0, 300) for row in nu])
    assert np.max(np.abs(got - want)) <= 1e-12 * np.sum(np.abs(coeffs))


@pytest.mark.parametrize("count", [1, 172, 969, 6826])
def test_correction_is_the_kernels_transform(count):
    # 1/correction is the kernel's continuous transform at the modes, here
    # by 60-node Gauss-Legendre quadrature of phi(t/h) cos(2*pi*k*t/G)
    # over [-h, h], h = W/2.
    from numpy.polynomial.legendre import leggauss

    grid, correction = nufft._plan(count)
    x, w = leggauss(60)
    half = nufft._WIDTH / 2
    phi = np.exp(nufft._BETA * (np.sqrt(1 - x**2) - 1))
    psi = half * np.cos(2 * np.pi * np.outer(np.arange(count), half * x) / grid) @ (w * phi)
    assert np.max(np.abs(correction * psi - 1)) <= 1e-13


def test_rational_frequencies_near_wraparound():
    # Frequencies just below 1 wrap onto the grid without artifacts.
    nu = np.array([1 - 1e-9, 1e-9, 0.5])
    coeffs = np.array([1.0, 1.0, 1.0], dtype=complex)
    got = nufft_exp_sum(coeffs, nu, 400)
    assert np.max(np.abs(got - direct(coeffs, nu, 0, 400))) < 1e-10


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
