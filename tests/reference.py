"""Ground-truth helpers that tests check the package's results against."""

import math

import numpy as np


def aliased_spectrum(spectrum, modulus: int) -> dict[int, float]:
    """Ground-truth aliasing: fold the SparseSpectrum's map mod ``modulus``."""
    out: dict[int, float] = {}
    for j, v in spectrum.entries.items():
        out[j % modulus] = out.get(j % modulus, 0.0) + v
    return out


def trial_division_primes(limit: int) -> list[int]:
    """Every prime below ``limit``, each found by trial division."""
    return [n for n in range(2, limit)
            if all(n % d for d in range(2, int(n**0.5) + 1))]


_TWO_PI = 2.0 * math.pi


def _splitmix64(x: np.ndarray) -> np.ndarray:
    x = x + np.uint64(0x9E3779B97F4A7C15)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


def make_noise(noise, nums: np.ndarray, den: int) -> np.ndarray:
    """The noise realization as first defined, three splitmix64 chains over
    fresh arrays: the package's make_noise must match it bit for bit, since
    the realization is part of every noisy instance."""
    nums = np.asarray(nums, dtype=np.int64)
    bits = (nums / den).view(np.uint64)
    with np.errstate(over="ignore"):
        key = _splitmix64(bits ^ np.uint64(noise.seed * 0x9E3779B97F4A7C15 & 0xFFFFFFFFFFFFFFFF))
        u1 = (_splitmix64(key) >> np.uint64(11)).astype(float) * 2.0**-53
        u2 = (_splitmix64(key ^ np.uint64(0xD1B54A32D192ED03)) >> np.uint64(11)).astype(float) * 2.0**-53
    u1 = np.clip(u1, 2.0**-53, None)
    # Box-Muller: two unit Gaussians become the real/imag parts.
    radius = np.sqrt(-2.0 * np.log(u1))
    scale = noise.eta / math.sqrt(2.0)
    z = np.empty(nums.shape, dtype=complex)
    z.real = scale * (radius * np.cos(_TWO_PI * u2))
    z.imag = scale * (radius * np.sin(_TWO_PI * u2))
    return z
