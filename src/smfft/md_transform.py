"""Rank-1 lattice reduction of d-dimensional problems to 1-D, and the
end-to-end sparse transform driver.

A cubic grid of size N = M^d with generator g = (1, M, ..., M^(d-1)) turns
the d-dimensional DFT into a 1-D DFT of the same coefficients reordered by
the base-M digit isomorphism, with no oversampling: distinct multi-indices
never collide because |(k - j) . g| < N.  The driver flattens the spectrum,
runs the 1-D support and value recovery, and unflattens the result.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core_math import MAX_MODULUS, MAX_REQUEST
from .errors import EnvelopeError, IndexOutOfRange
from .signal import NoiseModel, SampleLedger, Sampler, SparseSpectrum
from .support_recovery import SupportParams, find_support, plan_ladder
from .value_recovery import compute_values, prime_pool


@dataclass(frozen=True)
class RankOneLattice:
    """Cubic grid [0, M)^d with the rank-1 generator (1, M, ..., M^(d-1))."""

    dims: int
    axis_size: int

    def __post_init__(self):
        if self.dims < 1 or self.axis_size < 1:
            raise ValueError("dims and axis_size must be positive")

    @property
    def generator(self) -> tuple[int, ...]:
        return tuple(self.axis_size**i for i in range(self.dims))

    @property
    def total(self) -> int:
        return self.axis_size**self.dims


def flatten_index(multi, lattice: RankOneLattice) -> int:
    """Base-M digits to flat index: sum multi[i] * M^i.

    Components must be integers (numpy integers included); a float such as
    1.5 is rejected, never truncated.
    """
    try:
        multi = tuple(operator.index(c) for c in multi)
    except (TypeError, ValueError) as exc:
        raise IndexOutOfRange(
            f"{multi!r} is not a {lattice.dims}-tuple of integers") from exc
    if len(multi) != lattice.dims:
        raise IndexOutOfRange(f"expected {lattice.dims} components")
    if any(not 0 <= c < lattice.axis_size for c in multi):
        raise IndexOutOfRange(f"components of {multi} outside [0, {lattice.axis_size})")
    return sum(c * g for c, g in zip(multi, lattice.generator))


def unflatten_index(flat: int, lattice: RankOneLattice) -> tuple[int, ...]:
    """Flat index to base-M digits, least significant first."""
    if not 0 <= flat < lattice.total:
        raise IndexOutOfRange(f"{flat} outside [0, {lattice.total})")
    digits = []
    for _ in range(lattice.dims):
        flat, digit = divmod(flat, lattice.axis_size)
        digits.append(digit)
    return tuple(digits)


def lattice_point(n: int, lattice: RankOneLattice) -> tuple[Fraction, ...]:
    """The n-th rank-1 quadrature point ((n * M^i mod N) / N)_i in [0,1)^d."""
    if not 0 <= n < lattice.total:
        raise IndexOutOfRange(f"{n} outside [0, {lattice.total})")
    total = lattice.total
    return tuple(Fraction((n * g) % total, total) for g in lattice.generator)


def md_sample_adapter(entries: dict, lattice: RankOneLattice,
                      noise: NoiseModel | None = None,
                      ledger: SampleLedger | None = None) -> Sampler:
    """Wrap a d-dimensional sparse spectrum as a 1-D sampling oracle.

    Restricting f to the rank-1 line gives a 1-D signal whose spectrum is
    the original one re-indexed by flatten_index, so no geometric point
    evaluation is ever needed.  Keys are d-tuples, 1-D included.
    """
    flat_entries = {flatten_index(key, lattice): float(value)
                    for key, value in entries.items()}
    spectrum = SparseSpectrum(lattice.total, flat_entries)
    return Sampler(spectrum, noise, ledger)


def _planned_ladder(n_total: int, params: SupportParams) -> tuple[int, ...]:
    """The ladder's moduli for a grid of ``n_total`` points, once every
    request of the run is known to fit the sampler's guards."""
    moduli = plan_ladder(n_total, params.k_base, params.rho)
    if moduli[-1] > MAX_MODULUS:
        raise EnvelopeError(f"padded grid size {moduli[-1]} exceeds 2^46")
    for name, period in (("base modulus K", moduli[0]),
                         ("value-stage prime", prime_pool(params.r_bound, n_total)[-1])):
        if period // 2 + 1 > MAX_REQUEST:
            raise EnvelopeError(f"{name} {period} reaches 2^17: its half "
                                f"period exceeds the {MAX_REQUEST} points of a request")
    return moduli


def md_sfft(sampler: Sampler, lattice: RankOneLattice, params: SupportParams,
            rng: np.random.Generator,
            stats: dict | None = None) -> dict[tuple[int, ...], float]:
    """Recover a d-dimensional sparse nonnegative spectrum end to end.

    The sampler must be an oracle for the flattened 1-D problem (see
    :func:`md_sample_adapter`).  A padded N above MAX_MODULUS = 2^46, or a
    base modulus K or value-stage prime of 2^17 or more, raises EnvelopeError
    before any sample is drawn.
    """
    n_total = lattice.total
    moduli = _planned_ladder(n_total, params)
    support = find_support(sampler, n_total, params, rng)
    # Ladder padding can admit indices beyond M^d; those cannot be real.
    support = support[support < n_total]
    if stats is not None:
        stats["ladder_steps"] = len(moduli)
        stats["redraws"] = 0
    if not support.size:
        return {}
    values = compute_values(support, n_total, params, sampler, rng, stats=stats)
    return {unflatten_index(j, lattice): v for j, v in values.items()}


def relative_l2_error(recovered: dict, truth: dict, lattice: RankOneLattice) -> float:
    """|| fhat_rec - fhat_true ||_2 / || fhat_true ||_2 over the union support.

    Both spectra are keyed by d-tuples on ``lattice``.
    """
    keys = sorted(set(recovered) | set(truth))
    diff = math.sqrt(sum((recovered.get(k, 0.0) - truth.get(k, 0.0)) ** 2 for k in keys))
    denom = math.sqrt(sum(v * v for v in truth.values()))
    if denom == 0.0:
        return 0.0 if diff == 0.0 else math.inf
    return diff / denom
