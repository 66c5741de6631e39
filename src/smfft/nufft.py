"""Fast exponential sums between integer modes and arbitrary frequencies.

:func:`nufft_exp_sum` (type 1) computes F(k) = sum_j c_j exp(-2*pi*i*k*nu_j)
at k = 0..count-1 by Gaussian gridding (Dutt-Rokhlin / Greengard-Lee):
spread each source onto a 2x oversampled grid, take one FFT, and divide out
the kernel's transform.

One call costs O(R + count log count).  With spreading width 28 the
relative error is ~1e-13 of the l1 norm of the input, far below the
accuracy targets of the recovery pipeline.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .core_math import next_fast_len

# Half-width of the spreading kernel in fine-grid points.  The aliasing and
# truncation errors balance at exp(-pi * MSP / (2 * sqrt(2))) ~ 3e-14.
_SPREAD_HALF = 14
_MSP = 2 * _SPREAD_HALF
_OFFSETS = np.arange(-_SPREAD_HALF, _SPREAD_HALF + 1)


def _grid(half_span: int) -> tuple[int, float]:
    """Fine grid size, 2x oversampled for modes |s| <= half_span, and the
    Gaussian's parameter tau on it."""
    grid = next_fast_len(max(4 * half_span + 2, 4 * _MSP))
    return grid, math.pi * _MSP / (math.sqrt(2.0) * grid * grid)


def _spread(nu: np.ndarray, grid: int, tau: float):
    """The 2*_SPREAD_HALF+1 fine-grid cells nearest each nu*grid, and the
    Gaussian kernel's weight at each, both of shape (R, _MSP + 1)."""
    pos = nu * grid
    near = np.rint(pos).astype(np.int64)[:, None] + _OFFSETS
    dist = (2 * np.pi / grid) * (near - pos[:, None])
    return near % grid, np.exp(-(dist * dist) / (4.0 * tau))


def _correction(modes: np.ndarray, grid: int, tau: float) -> np.ndarray:
    """Inverse of the spread Gaussian's DFT at integer ``modes``.

    Poisson summation: the DFT of the spread Gaussian is (grid/2pi) *
    sqrt(4 pi tau) * exp(-s^2 tau) * exp(-i s x), plus aliasing below the
    spreading truncation level.
    """
    return np.exp(tau * modes.astype(float) ** 2) * (
        2.0 * np.pi / (grid * math.sqrt(4.0 * math.pi * tau)))


@functools.lru_cache(maxsize=16)
def _plan(count: int):
    """For a request of ``count`` modes: the fine grid, tau, each mode's
    index on the grid and the kernel correction there.  A run requests few
    distinct counts (K//2 + 1 outside the fallback), so each is planned once;
    the arrays are shared, so they are read-only."""
    s = np.arange(count) - count // 2  # modes in [-count//2, count - count//2)
    grid, tau = _grid(count - count // 2)
    index, correction = s % grid, _correction(s, grid, tau)
    index.flags.writeable = correction.flags.writeable = False
    return grid, tau, index, correction


def nufft_exp_sum(coeffs: np.ndarray, nu: np.ndarray,
                  count: int) -> np.ndarray:
    """Approximate F(k) = sum_j coeffs_j * exp(-2*pi*i*k*nu_j).

    Parameters
    ----------
    coeffs : complex array (R,)
    nu : float array (R,), frequencies in [0, 1)
    count : int, number of grid indices k = 0..count-1
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    nu = np.asarray(nu, dtype=float)
    # Center the mode range at zero so the kernel correction stays tame.
    kc = count // 2
    shifted = coeffs * np.exp(-2j * np.pi * ((kc * nu) % 1.0))
    grid, tau, index, correction = _plan(count)
    cells, kernel = _spread(nu, grid, tau)
    fine = np.zeros(grid, dtype=complex)
    np.add.at(fine, cells.ravel(), (shifted[:, None] * kernel).ravel())

    spectrum = np.fft.fft(fine)
    return spectrum[index] * correction

