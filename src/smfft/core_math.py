"""Number-theoretic and transform primitives.

Exact modular products, modular inverses, coprime sampling, a growing
prime sieve, fast FFT sizes and the wrapped (periodized) Gaussian window.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

from .errors import NotCoprime

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


def mod_inverse(q: int, m: int) -> int:
    """Return the unique r in (0, m) with (q * r) % m == 1."""
    if not 0 < q < m:
        raise ValueError(f"require 0 < q < m, got q={q}, m={m}")
    try:
        return pow(q, -1, m)
    except ValueError as exc:
        raise NotCoprime(f"gcd({q}, {m}) = {math.gcd(q, m)} != 1") from exc


def sample_coprime(m: int, rng: np.random.Generator) -> int:
    """Draw Q uniformly from {q in [1, m) : gcd(q, m) = 1}.

    Rejection sampling; the acceptance rate phi(m)/m is bounded well away
    from zero, so this terminates quickly for any m >= 2.
    """
    if m < 2:
        raise ValueError("modulus must be >= 2")
    if m == 2:
        return 1
    while True:
        q = int(rng.integers(1, m))
        if math.gcd(q, m) == 1:
            return q


# Every prime up to _SIEVED_LIMIT, ascending.  The limit is kept apart
# because the largest prime below it is almost never the limit itself.
_PRIME_CACHE: list[int] = [2, 3, 5, 7, 11, 13]
_SIEVED_LIMIT = 13


def _extend_sieve(limit: int) -> None:
    global _SIEVED_LIMIT
    if _SIEVED_LIMIT >= limit:
        return
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, int(limit**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    _PRIME_CACHE[:] = np.flatnonzero(sieve).tolist()
    _SIEVED_LIMIT = limit


def primes_greater_than(r: int, count: int) -> list[int]:
    """The ``count`` smallest primes strictly greater than r, ascending."""
    if r < 1 or count < 1:
        raise ValueError("require r >= 1 and count >= 1")
    # Rough upper bound on the count-th prime past r, grown on demand.
    limit = max(64, 2 * r, int(2.2 * (r + count) * math.log(r + count + 10)))
    while True:
        _extend_sieve(limit)
        start = bisect.bisect_right(_PRIME_CACHE, r)
        if len(_PRIME_CACHE) - start >= count:
            return _PRIME_CACHE[start:start + count]
        limit *= 2


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

