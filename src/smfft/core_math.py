"""Number-theoretic and transform primitives.

The one integer rule for indices, exact modular products, coprime
sampling, the primes below a limit, fast FFT sizes and the Gaussian window
that the probe and the value fit lay on a half period of K samples.
"""

from __future__ import annotations

import math
import operator

import numpy as np

# Largest modulus for which mulmod stays exact in int64: with operands
# below 2^46, its 16-bit limb products stay below 2^62.
MAX_MODULUS = 1 << 46


def as_index(value) -> int:
    """An integer index, component or count, by Python's index protocol:
    1.5 is rejected where int() would truncate it, and a boolean, numpy's
    included, is rejected too, although Python's bool is an int."""
    if isinstance(value, (bool, np.bool_)):
        raise TypeError(f"boolean {str(value).lower()} is not an integer")
    return operator.index(value)


def mulmod(n, q, m: int):
    """(n * q) mod m, exact in int64 for m <= MAX_MODULUS = 2^46.

    ``n`` is an int or an int64 array with entries in [0, m), and q is an
    int or an int64 array in [0, m) that broadcasts against n.  While
    (m - 1) * max(q) < 2^63 the product is one int64 product; otherwise it
    is reduced in 16-bit limbs of q, so no intermediate exceeds 2^62.
    """
    top = q.max(initial=0) if isinstance(q, np.ndarray) else q
    if (int(m) - 1) * int(top) < 1 << 63:
        return n * q % m
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


def gaussian_half(k: int, x: float) -> np.ndarray:
    """The window exp(-(2x*m/K)^2) at the sampled offsets m = 0..K//2 of a
    half period: cut at m = K/2, where it is exp(-x^2) of its peak."""
    return np.exp(-(2 * x / k * np.arange(k // 2 + 1)) ** 2)
