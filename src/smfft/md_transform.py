"""Rank-1 lattice reduction of d-dimensional problems to 1-D, and the
end-to-end sparse transform driver.

A cubic grid of size N = M^d with generator g = (1, M, ..., M^(d-1)) turns
the d-dimensional DFT into a 1-D DFT of the same coefficients reordered by
the base-M digit isomorphism, with no oversampling: distinct multi-indices
never collide because |(k - j) . g| < N.  The driver flattens the spectrum,
runs the 1-D support recovery, fits the values from the last ladder level's
samples, and unflattens the result with RankOneLattice.unflatten.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core_math import as_index
from .errors import CandidateBlowup, EnvelopeError, IndexOutOfRange, Uncertified
from .signal import NoiseModel, SampleLedger, Sampler, SparseSpectrum
from .support_recovery import LastLevel, SupportParams, find_support, plan_attempts
from .value_recovery import compute_values


@dataclass(frozen=True)
class RankOneLattice:
    """Cubic grid [0, M)^d with the rank-1 generator (1, M, ..., M^(d-1)),
    whose d-tuples flatten_index maps to flat indices and unflatten back."""

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

    def unflatten(self, flat: np.ndarray) -> list[tuple[int, ...]]:
        """flatten_index's inverse: the d-tuples of the int array ``flat``, in order."""
        digits = np.unravel_index(flat, (self.axis_size,) * self.dims, order="F")
        return list(zip(*(d.tolist() for d in digits)))


def flatten_index(multi, lattice: RankOneLattice) -> int:
    """Base-M digits to flat index: sum multi[i] * M^i.

    Components must be integers by core_math.as_index, numpy's included: a
    float such as 1.5 or a boolean is rejected, never truncated.
    """
    try:
        multi = tuple(map(as_index, multi))
    except (TypeError, ValueError) as exc:
        raise IndexOutOfRange(
            f"{multi!r} is not a {lattice.dims}-tuple of integers") from exc
    if len(multi) != lattice.dims:
        raise IndexOutOfRange(f"expected {lattice.dims} components")
    if any(not 0 <= c < lattice.axis_size for c in multi):
        raise IndexOutOfRange(f"components of {multi} outside [0, {lattice.axis_size})")
    return sum(c * g for c, g in zip(multi, lattice.generator))


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


def md_sfft(sampler, lattice: RankOneLattice, params: SupportParams,
            rng: np.random.Generator,
            stats: dict | None = None) -> dict[tuple[int, ...], float]:
    """Recover a d-dimensional sparse nonnegative spectrum end to end.

    The sampler must be an oracle for the flattened 1-D problem (see
    :func:`md_sample_adapter`).  The ladders are planned before the first
    sample (:func:`plan_attempts`), so a padded N above 2^46 or a base
    modulus K of 2^17 or more raises EnvelopeError (see :func:`plan_ladder`)
    with nothing sampled.

    From R = HALF_K_FROM on, the support is first searched with K/2-point
    windows at the inner levels under a K-point last level, and its result
    stands only if the fit's residual certifies it.  On CandidateBlowup, a
    CG miss or an uncertified residual, the whole search runs once more
    from K, on the same oracle and ``rng``, with the prime-grid fallback.
    ``stats`` records the attempts made, 1 or 2, the ladder steps, fallbacks
    and redraws of the last, and the standing result's
    :class:`~smfft.value_recovery.Fit`: ``residual`` and ``bound`` in the
    caller's units, as the values are, and ``certified``, each None where no
    fit stands (a grid sampled whole, an empty support or a fallback).

    The recovery is homogeneous in (spectrum, mu, eta), so it runs in units
    of 2^e, the power of two at mu: mu, eta and the samples (by the run's
    one oracle, a :class:`LastLevel`) are scaled by 2^-e, and the values,
    residual and bound by 2^e, all exactly, and period sums near 1e306 stay
    in float64's range.  This is the run's one rescaling: neither stage
    keeps a unit of its own.  For mu in [0.5, 1), e = 0 and nothing is
    rescaled.  (e is held at -1023 and up, so that 2^-e is a float.)  A sum
    that still overflows, or turns invalid, in these units comes from
    amplitudes far above delta_ratio*mu: both stages run with numpy's
    overflow and invalid-value errors raised, and either becomes
    EnvelopeError.  The oracle itself runs under the caller's numpy error
    state, and samples it overflows or returns as inf or NaN are
    EnvelopeError too, naming the oracle's samples (:class:`LastLevel`).
    """
    e = max(math.frexp(params.mu)[1], -1023)
    if e:
        params = replace(params, mu=math.ldexp(params.mu, -e),
                         eta=math.ldexp(params.eta, -e))
    n_total = lattice.total
    plans = plan_attempts(n_total, params)
    if stats is None:
        stats = {}
    stats.update(redraws=0, fallbacks=0, residual=None, bound=None, certified=None)
    try:
        for attempt, (moduli, window) in enumerate(plans, 1):
            stats.update(attempts=attempt, ladder_steps=len(moduli))
            level = LastLevel(sampler, moduli, math.ldexp(1.0, -e))
            try:
                with np.errstate(over="raise", invalid="raise"):
                    support = find_support(level, moduli, params, rng, window)
                    # Ladder padding can admit indices beyond M^d; those
                    # cannot be real.
                    support = support[support < n_total]
                    values = compute_values(support, level, n_total, params, rng,
                                            stats, certify=attempt < len(plans))
                break
            except (CandidateBlowup, Uncertified):
                if attempt == len(plans):
                    raise
    except FloatingPointError as exc:
        raise EnvelopeError(f"a sum overflows in units of mu ({exc}): the "
                            "amplitudes lie far above mu") from exc
    if stats["residual"] is not None:
        stats.update(residual=math.ldexp(stats["residual"], e),
                     bound=math.ldexp(stats["bound"], e))
    return {key: math.ldexp(v, e) for key, v in
            zip(lattice.unflatten(np.fromiter(values, np.int64)), values.values())}


def relative_l2_error(recovered: dict, truth: dict, lattice: RankOneLattice) -> float:
    """|| fhat_rec - fhat_true ||_2 / || fhat_true ||_2 over the union support.

    Both spectra are keyed by d-tuples on ``lattice``, which is not read; it
    stays because ``perfbench/harness.py`` passes it positionally.
    """
    keys = sorted(set(recovered) | set(truth))
    diff = math.hypot(*(recovered.get(k, 0.0) - truth.get(k, 0.0) for k in keys))
    denom = math.hypot(*truth.values())
    if denom == 0.0:
        return 0.0 if diff == 0.0 else math.inf
    return diff / denom
