"""Number-theoretic and transform primitives.

Exact modular products, coprime sampling, the primes below a limit, fast
FFT sizes and the wrapped (periodized) Gaussian window.
"""

from __future__ import annotations

import math

import numpy as np

# Largest modulus for which mulmod stays exact in int64: with operands
# below 2^46, its 16-bit limb products stay below 2^62.
MAX_MODULUS = 1 << 46


def mulmod(n, q, m: int):
    """(n * q) mod m, exact in int64 for m <= MAX_MODULUS = 2^46.

    ``n`` is an int or an int64 array with entries in [0, m), and q is an
    int or an int64 array in [0, m) that broadcasts against n.  The product
    is reduced in 16-bit limbs of q, so no intermediate exceeds 2^62.
    """
    s = 0
    for shift in (32, 16, 0):
        s = ((s << 16) + n * ((q >> shift) & 0xFFFF)) % m
    return s


def sample_coprime(m: int, rng: np.random.Generator) -> int:
    """Draw Q uniformly from {q in [1, m) : gcd(q, m) = 1}.

    Rejection sampling; the acceptance rate phi(m)/m is bounded well away
    from zero, so this terminates quickly for any m >= 2.
    """
    if m < 2:
        raise ValueError("modulus must be >= 2")
    while True:
        q = int(rng.integers(1, m))
        if math.gcd(q, m) == 1:
            return q


def primes_below(limit: int) -> np.ndarray:
    """Every prime below ``limit``, ascending, by the sieve of Eratosthenes."""
    sieve = np.ones(max(limit, 2), dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(len(sieve) - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.flatnonzero(sieve)


def next_fast_len(n: int) -> int:
    """Smallest 11-smooth integer >= n: a size pocketfft transforms fast."""
    while True:
        rest = n
        for p in (2, 3, 5, 7, 11):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return n
        n += 1


def gaussian_window(offsets: np.ndarray, sigma: float, modulus: int) -> np.ndarray:
    """Wrapped Gaussian sqrt(pi)*sigma*sum_h exp(-(pi*sigma*(m/M+h))^2) at
    integer offsets m (mod M implied), vectorized.

    The sum runs over |h| <= floor((reach + max|m|)/M), reach = sqrt(35)*M/
    (pi*sigma): the least range keeping every term above e^-35 of the peak.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    x = np.asarray(offsets, dtype=float)
    reach = math.sqrt(35.0) * modulus / (math.pi * sigma)
    wrap = math.floor((reach + np.abs(x).max(initial=0.0)) / modulus)
    h = np.arange(-wrap, wrap + 1, dtype=float)[None, :]
    s = math.pi * sigma
    return math.sqrt(math.pi) * sigma * np.exp(-((s * (x[:, None] / modulus + h)) ** 2)).sum(axis=1)

