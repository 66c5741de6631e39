"""Fast exponential sums between integer modes and arbitrary frequencies.

:func:`nufft_exp_sum` (type 1) computes F(k) = sum_j c_j *
exp(-2*pi*i*(k - middle(count))*nu_j) at k = 0..count-1 by Gaussian
gridding (Dutt-Rokhlin / Greengard-Lee): spread each source onto a 2x
oversampled grid, take one FFT, and divide out the kernel's transform.
The caller phases c_j to the middle mode, where it can make that phase exact.

One row of sources costs O(R + count log count), and a call may hold many
rows of one count.  With spreading width 28 the
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
# Kernel cells spread per block of rows (at least one row): numpy's ufunc
# buffer size, so that a batch's temporaries stay the size of about one
# row of R = 256, under the heap sizes at which glibc trims and re-faults.
_BLOCK = 1 << 13


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
    A run requests few distinct counts outside the fallback: K//2 + 1, and
    K//4 + 1 when it searches from K/2 (the base DFT at K/2 and the inner
    rounds).  Each is planned once; the arrays are shared, so read-only."""
    s = np.arange(count) - middle(count)  # modes in [-middle, count - middle)
    grid = next_fast_len(max(4 * (count - middle(count)) + 2, 4 * _MSP))
    tau = math.pi * _MSP / (math.sqrt(2.0) * grid * grid)
    index, correction = s % grid, _correction(s, grid, tau)
    index.flags.writeable = correction.flags.writeable = False
    return grid, index, correction


def nufft_exp_sum(coeffs: np.ndarray, nu: np.ndarray,
                  count: int) -> np.ndarray:
    """Approximate F(k) = sum_j c_j * exp(-2*pi*i*(k - middle(count))*nu_j),
    c = coeffs, for each row of sources.  For sum_j c_j *
    exp(-2*pi*i*(k0 + k)*nu_j), pass the coefficients c_j *
    exp(-2*pi*i*(k0 + middle(count))*nu_j).

    Parameters
    ----------
    coeffs : complex array (..., R), phased to the middle mode middle(count)
    nu : float array (..., R), frequencies in [0, 1)
    count : int, number of grid indices k = 0..count-1

    Returns the complex array (..., count).  Rows are spread and
    transformed a block at a time (:data:`_BLOCK`), row r of a block into
    its slice r*(grid + _MSP) of one padded grid, and each block takes one
    FFT along its rows.
    """
    grid, index, correction = _plan(count)
    shape, width = np.shape(nu), grid + _MSP
    pos = np.asarray(nu, dtype=float).reshape(math.prod(shape[:-1]), shape[-1]) * grid
    near = np.rint(pos)
    coeffs = np.asarray(coeffs, dtype=complex).reshape(pos.shape)
    out = np.empty((len(pos), count), dtype=complex)
    step = max(1, _BLOCK // ((_MSP + 1) * shape[-1] or 1))
    for lo in range(0, len(pos), step):
        rows = slice(lo, lo + step)
        # The Gaussian at the _MSP + 1 cells nearest each source, in place.
        kernel = np.empty(near[rows].shape + (_MSP + 1,))
        kernel[...] = _OFFSETS
        kernel += (near[rows] - pos[rows])[..., None]
        np.square(kernel, out=kernel)
        kernel *= -_KERNEL_RATE
        np.exp(kernel, out=kernel)
        # Spread into the grid padded _SPREAD_HALF cells a side, viewed as
        # interleaved floats, the real parts and then the imaginary ones
        # (the sums a complex spread makes); then fold the wings.
        padded = np.zeros((len(kernel), width), dtype=complex)
        flat = padded.reshape(-1).view(float)
        first = near[rows].astype(np.int64) % grid
        first += width * np.arange(len(first))[:, None]
        cells = np.empty(kernel.shape, dtype=np.int64)
        cells[...] = 2 * (_OFFSETS + _SPREAD_HALF)
        cells += 2 * first[..., None]
        weights = np.multiply(kernel, coeffs[rows].real[..., None])
        np.add.at(flat, cells.ravel(), weights.ravel())
        cells += 1
        np.multiply(kernel, coeffs[rows].imag[..., None], out=weights)
        np.add.at(flat, cells.ravel(), weights.ravel())
        del kernel, cells, weights
        fine = padded[:, _SPREAD_HALF:grid + _SPREAD_HALF]
        fine[:, :_SPREAD_HALF] += padded[:, grid + _SPREAD_HALF:]
        fine[:, -_SPREAD_HALF:] += padded[:, :_SPREAD_HALF]
        np.multiply(np.fft.fft(fine)[:, index], correction, out=out[rows])
    return out.reshape(shape[:-1] + (count,))
