"""Fast exponential sums between integer modes and arbitrary frequencies.

:func:`nufft_exp_sum` (type 1) computes F(k) = sum_j c_j *
exp(-2*pi*i*k*nu_j) at k = 0..count-1 by gridding: spread each source onto
a fine grid of G points, take one FFT, and divide out the kernel's
transform.  The kernel is the exponential of semicircle (ES) of Barnett,
Magland and af Klinteberg (FINUFFT, SIAM J. Sci. Comput. 41(5), 2019),
phi(z) = exp(beta*(sqrt(1 - z^2) - 1)) on |z| <= 1, z = (cell - nu*G)/(W/2),
over W = 15 cells with beta = 2.30*W, FINUFFT's value at 2x oversampling.
Real coefficients spread into a real grid, whose rfft holds the modes
0..count-1, 2x oversampled by G = next_fast_len(max(4*count, 4*W)).  ES has
no closed-form transform: each plan reads it off an rfft of the kernel
sampled every half cell on a ring of 2G points, within 1e-14 of a 60-node
Gauss-Legendre quadrature.

One row of sources costs O(R + count log count), and a call may hold many
rows of one count.  The error is 3e-14 to 3e-13 of the l1 norm of the
coefficients over the tested shapes (W = 13 reaches 7e-12), far below the
accuracy targets of the recovery pipeline.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .core_math import BUFFER, next_fast_len

_WIDTH = 15
_HALF = _WIDTH / 2  # the kernel's half-width in cells, where z = +-1
_BETA = 2.30 * _WIDTH
# The cells around the nearest one, along the first axis of a block's
# kernel, so that each ufunc loops over a row of sources.
_OFFSETS = (np.arange(_WIDTH) - _WIDTH // 2)[:, None, None]


def _kernel(dist: np.ndarray) -> np.ndarray:
    """phi(dist/(W/2)), in place on a float array of distances |dist| <= W/2
    in cells.  h^2 - dist^2 is never negative, where 1 - z^2 could round so."""
    np.square(dist, out=dist)
    np.subtract(_HALF * _HALF, dist, out=dist)
    np.sqrt(dist, out=dist)
    dist *= _BETA / _HALF
    dist -= _BETA
    return np.exp(dist, out=dist)


@functools.lru_cache(maxsize=16)
def _plan(count: int):
    """For a request of ``count`` modes: the grid G and the correction
    1/psi(k), k = 0..count-1, psi(k) being the integral of phi(t/(W/2)) *
    exp(-2*pi*i*k*t/G) dt, by the trapezoid rule at half cells.  A run
    requests few distinct counts outside the fallback, each planned once
    and shared, so read-only."""
    grid = next_fast_len(max(4 * count, 4 * _WIDTH))
    half_cells = np.arange(-_WIDTH, _WIDTH + 1)
    ring = np.zeros(2 * grid)
    ring[half_cells] = _kernel(half_cells / 2.0)
    correction = 2.0 / np.fft.rfft(ring)[:count].real
    correction.flags.writeable = False
    return grid, correction


def nufft_exp_sum(coeffs: np.ndarray, nu: np.ndarray,
                  count: int) -> np.ndarray:
    """Approximate F(k) = sum_j c_j * exp(-2*pi*i*k*nu_j), c = coeffs, at
    k = 0..count-1 for each row of sources.  For sum_j c_j *
    exp(-2*pi*i*(k0 + k)*nu_j), pass the coefficients c_j *
    exp(-2*pi*i*k0*nu_j).

    ``nu`` is a float array (..., R) of frequencies in [0, 1), and
    ``coeffs`` broadcasts to it; complex coefficients take two real passes,
    F(c.real) + 1j*F(c.imag).  Returns the complex array (..., count).
    Rows are spread in blocks of at least one row and at most BUFFER
    kernel or grid cells, row r of a block into its slice r*(G + W - 1) of
    one padded real grid by one bincount, then one rfft along the rows.
    """
    if np.iscomplexobj(coeffs):
        return (nufft_exp_sum(coeffs.real, nu, count)
                + 1j * nufft_exp_sum(coeffs.imag, nu, count))
    grid, correction = _plan(count)
    shape, reach = np.shape(nu), _WIDTH // 2
    pos = np.reshape(nu, (math.prod(shape[:-1]), shape[-1])) * grid
    coeffs = np.broadcast_to(coeffs, shape).reshape(pos.shape)
    near = np.rint(pos)
    width = grid + 2 * reach
    out = np.empty((len(pos), count), dtype=complex)
    step = max(1, min(BUFFER // (_WIDTH * shape[-1] or 1), BUFFER // grid))
    for lo in range(0, len(pos), step):
        rows = slice(lo, lo + step)
        # The kernel at the W cells nearest each source, times its
        # coefficient; cell c of row r lands at r*width + c + reach.
        weights = _kernel(np.subtract(_OFFSETS, pos[rows] - near[rows]))
        weights *= coeffs[rows]
        first = near[rows].astype(np.int64) % grid
        first += width * np.arange(len(first))[:, None]
        cells = np.add(_OFFSETS + reach, first)
        padded = np.bincount(cells.ravel(), weights.ravel(),
                             len(first) * width).reshape(len(first), width)
        del weights, cells
        # Fold the wings, reach cells a side, onto the grid they wrap to.
        fine = padded[:, reach:grid + reach]
        fine[:, :reach] += padded[:, grid + reach:]
        fine[:, -reach:] += padded[:, :reach]
        np.multiply(np.fft.rfft(fine)[:, :count], correction, out=out[rows])
    return out.reshape(shape[:-1] + (count,))
