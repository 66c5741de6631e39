"""Fast exponential sums between integer modes and arbitrary frequencies.

:func:`nufft_exp_sum` (type 1) computes F(k) = sum_j c_j *
exp(-2*pi*i*(k - middle(count))*nu_j) at k = 0..count-1 by Gaussian
gridding (Dutt-Rokhlin / Greengard-Lee): spread each source onto a 2x
oversampled grid, take one FFT, and divide out the kernel's transform.
The caller phases c_j to the middle mode, where it can make that phase exact.

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
# The kernel's exponent per squared cell, (pi/grid)^2 / tau: the grid cancels.
_KERNEL_RATE = math.pi * math.sqrt(2.0) / _MSP


def middle(count: int) -> int:
    """The mode k on which the sum of ``count`` modes is centred."""
    return count // 2


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
    """For a request of ``count`` modes: the fine grid, 2x oversampled for
    them, each mode's index on the grid and the kernel correction there.
    A run requests few distinct counts (K//2 + 1 outside the fallback), so
    each is planned once; the arrays are shared, so they are read-only."""
    s = np.arange(count) - middle(count)  # modes in [-middle, count - middle)
    grid = next_fast_len(max(4 * (count - middle(count)) + 2, 4 * _MSP))
    tau = math.pi * _MSP / (math.sqrt(2.0) * grid * grid)
    index, correction = s % grid, _correction(s, grid, tau)
    index.flags.writeable = correction.flags.writeable = False
    return grid, index, correction


def nufft_exp_sum(coeffs: np.ndarray, nu: np.ndarray,
                  count: int) -> np.ndarray:
    """Approximate F(k) = sum_j c_j * exp(-2*pi*i*(k - middle(count))*nu_j),
    c = coeffs.  For sum_j c_j * exp(-2*pi*i*(k0 + k)*nu_j), pass the
    coefficients c_j * exp(-2*pi*i*(k0 + middle(count))*nu_j).

    Parameters
    ----------
    coeffs : complex array (R,), phased to the middle mode middle(count)
    nu : float array (R,), frequencies in [0, 1)
    count : int, number of grid indices k = 0..count-1
    """
    grid, index, correction = _plan(count)
    pos = np.asarray(nu, dtype=float) * grid
    near = np.rint(pos)
    # The Gaussian at the _MSP + 1 cells nearest each source, in place.
    kernel = np.add.outer(near - pos, _OFFSETS)
    np.square(kernel, out=kernel)
    kernel *= -_KERNEL_RATE
    np.exp(kernel, out=kernel)
    # Spread into the grid padded _SPREAD_HALF cells a side, fold the wings.
    cells = (near.astype(np.int64) % grid)[:, None] + (_OFFSETS + _SPREAD_HALF)
    padded = np.zeros(grid + _MSP, dtype=complex)
    np.add.at(padded, cells.ravel(),
              (np.asarray(coeffs, dtype=complex)[:, None] * kernel).ravel())
    fine = padded[_SPREAD_HALF:grid + _SPREAD_HALF]
    fine[:_SPREAD_HALF] += padded[grid + _SPREAD_HALF:]
    fine[-_SPREAD_HALF:] += padded[:_SPREAD_HALF]
    return np.fft.fft(fine)[index] * correction
