"""Ground-truth helpers that tests check the package's results against."""


def aliased_spectrum(spectrum, modulus: int) -> dict[int, float]:
    """Ground-truth aliasing: fold the SparseSpectrum's map mod ``modulus``."""
    out: dict[int, float] = {}
    for j, v in spectrum.entries.items():
        out[j % modulus] = out.get(j % modulus, 0.0) + v
    return out
