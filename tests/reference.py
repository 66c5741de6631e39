"""Ground-truth helpers that tests check the package's results against."""


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
