"""Sparse spectrum model, sampling oracle, noise, and sample accounting.

The ground truth always lives in frequency space; time-domain samples are
synthesized on demand, a batch of count points in O(R + count log count).
N is never materialized, which is what lets the ambient size run to
core_math.MAX_MODULUS = 2^46 after the ladder's padding.  A request of
count points over den is exact while (den - 1) * count < 2^63, the bound on
its largest numerator; support_recovery.plan_ladder keeps every request of
the pipeline inside it before the first sample.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .core_math import MAX_MODULUS, as_index, mulmod
from .errors import ParseError
from .nufft import nufft_exp_sum

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class SparseSpectrum:
    """R-sparse nonnegative spectrum on an ambient grid of size N."""

    ambient_size: int
    entries: dict[int, float]

    def __post_init__(self):
        if self.ambient_size < 1:
            raise ValueError("ambient_size must be positive")
        for j, v in self.entries.items():
            if not 0 <= j < self.ambient_size:
                raise ValueError(f"index {j} outside [0, {self.ambient_size})")
            if not 0 < v < math.inf:
                raise ValueError(f"amplitude at {j} must be finite and > 0, got {v}")


@dataclass(frozen=True)
class NoiseModel:
    """Per-sample complex Gaussian noise of standard deviation eta; eta = 0
    means noiseless samples.

    The realization is a fixed function of the sample location and the seed,
    so re-requesting the same point yields the same noisy value -- the
    oracle behaves like a single noisy signal, not a fresh draw per call.
    Locations are keyed by their float64 value, so 1/4 and 2/8 share a draw,
    as do distinct points that round to one float (denominator lcm > 2^53).
    """

    eta: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not self.eta >= 0:
            raise ValueError(f"eta must be nonnegative, got {self.eta}")
        if not 0 <= self.seed < 1 << 64:
            raise ValueError(f"noise seed must be in [0, 2^64), got {self.seed}")


# Integers below 2^53 convert to float64 exactly, which the ledger's float
# key needs.
_DEN_LIMIT = 1 << 53


class SampleLedger:
    """Counts sample requests and the distinct points they touch.

    A point is a rational nums/den in [0, 1), counted once however it is
    written (1/4 and 2/8 are one point).  ``record`` only logs its arguments;
    ``unique_count`` deduplicates the whole log when read and caches the
    count until the next ``record``.
    """

    def __init__(self):
        self.total_requests = 0
        self._log: dict[int, list[np.ndarray]] = {}  # den -> recorded nums
        self._unique: int | None = 0

    @property
    def unique_count(self) -> int:
        # Division is correctly rounded, so equal points give equal floats.
        # Distinct points a/d and b/e differ by at least 1/lcm(d, e), while
        # two values in [0, 1) that round to one float are at most 2^-53
        # apart, so below lcm 2^53 (the ladder's moduli divide one another)
        # distinct floats are distinct points.  Otherwise the reduced
        # denominator D splits a float's run, as distinct a/D and b/D are
        # over 2^-53 apart.
        if self._unique is None:
            dens = list(self._log)
            x = np.concatenate([n / d for d in dens for n in self._log[d]])
            if math.lcm(*dens) < _DEN_LIMIT:
                x.sort()
                new = x[1:] != x[:-1]
            else:
                nums = np.concatenate([n for d in dens for n in self._log[d]])
                den = np.repeat(dens, [sum(n.size for n in self._log[d]) for d in dens])
                reduced = den // np.gcd(nums, den)
                order = np.lexsort((reduced, x))
                x, reduced = x[order], reduced[order]
                new = (x[1:] != x[:-1]) | (reduced[1:] != reduced[:-1])
            self._unique = int(np.count_nonzero(new)) + (x.size > 0)
        return self._unique

    def record(self, nums: np.ndarray, den: int) -> None:
        """Log the points nums/den, 0 <= nums < den < 2^53; nums is copied."""
        nums = np.array(nums, dtype=np.int64).ravel()
        den = int(den)
        if not 0 < den < _DEN_LIMIT or (
                nums.size and (nums.min() < 0 or nums.max() >= den)):
            raise ValueError(f"sample points must satisfy 0 <= num < den < 2^53, den={den}")
        self.total_requests += nums.size
        self._log.setdefault(den, []).append(nums)
        self._unique = None


# splitmix64's increment (the seed's multiplier too), multipliers, u2's key.
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U2_KEY = np.uint64(0xD1B54A32D192ED03)


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """splitmix64's finaliser, in place on the uint64 array x."""
    x += _GOLDEN
    x ^= x >> np.uint64(30)
    x *= _MIX1
    x ^= x >> np.uint64(27)
    x *= _MIX2
    x ^= x >> np.uint64(31)
    return x


def make_noise(noise: NoiseModel, nums: np.ndarray, den: int) -> np.ndarray:
    """Deterministic complex Gaussian draws for sample points nums/den.

    Each point's draw is keyed by the float64 bits of nums/den and the seed
    (counter-based generation; no sequential RNG state), scaled so the
    per-sample standard deviation is eta.
    """
    nums = np.asarray(nums, dtype=np.int64)
    # The key's chain, then u1's and u2's in one; arrays wrap without warning.
    keys = np.empty((2, nums.size), dtype=np.uint64)
    np.divide(nums.ravel(), den, out=keys[0].view(float))
    keys[0] ^= np.uint64(noise.seed * int(_GOLDEN) & 0xFFFFFFFFFFFFFFFF)
    np.bitwise_xor(_splitmix64(keys[0]), _U2_KEY, out=keys[1])
    u1, u2 = (_splitmix64(keys) >> np.uint64(11)) * 2.0**-53
    # Box-Muller: two unit Gaussians become the real/imag parts.
    radius = np.sqrt(-2.0 * np.log(np.maximum(u1, 2.0**-53, out=u1), out=u1))
    u2 *= _TWO_PI
    scale = noise.eta / math.sqrt(2.0)
    z = np.empty(nums.size, dtype=complex)
    for part, wave in ((z.real, np.cos), (z.imag, np.sin)):
        # Contiguous wave output: a strided one may run another SIMD loop.
        np.multiply(wave(u2) * radius, scale, out=part)
    return z.reshape(nums.shape)


class Sampler:
    """Oracle access to f(x) = sum_j exp(-2*pi*i*x*j) fhat_j at rationals q/P.

    Wraps a sparse spectrum (possibly the flattened image of a d-dimensional
    one), a noise model, and the ledger that records its requests, if one is
    given.  Every batch request is an arithmetic progression mod the
    denominator, so sample k is a sum over lines j with phases
    (start*j + k*step*j) mod den: one exponential sum in k over the
    frequencies (step*j mod den)/den, evaluated by gridded nufft in
    O(R + count log count) on the real amplitudes, phased by the exact
    (start*j mod den)/den where start != 0.  A request may hold one such
    progression per entry of an int64 array of steps, all of one length
    over one denominator: (a*f)/(d*f) is the point a/d, with the same
    sample, noise and ledger entry.
    """

    def __init__(self, spectrum: SparseSpectrum, noise: NoiseModel | None = None,
                 ledger: SampleLedger | None = None):
        self.noise = noise or NoiseModel()
        self.ledger = ledger
        support = [int(j) for j in sorted(spectrum.entries)]
        self._amps = np.array([spectrum.entries[j] for j in support], dtype=float)
        # Indices past int64 stay Python ints; either dtype reduces mod den
        # exactly.
        wide = support and support[-1] >= 1 << 63
        self._support = np.array(support, dtype=object if wide else np.int64)

    def sample_progression(self, start: int, step: int | np.ndarray, count: int,
                           den: int) -> np.ndarray:
        """Samples of f at ((start + k*step) mod den)/den for k = 0..count-1,
        one row per step: ``step`` is an int or an int64 array, and the
        result has shape np.shape(step) + (count,).  A batch of rows is one
        ledger record, one noise hash and one nufft pass.

        Whatever the caller's numpy error state, a sum that overflows
        float64 or turns invalid raises FloatingPointError."""
        if den < 1 or count < 1:
            raise ValueError("need den >= 1 and count >= 1")
        # In Python ints: the largest numerator, start + (count-1)*step, is
        # at most (den - 1) * count, and int64 must hold it.
        if den > MAX_MODULUS or (int(den) - 1) * int(count) >= 1 << 63:
            raise ValueError("progression exceeds exact-arithmetic guards")
        start %= den
        step = np.asarray(step % den, dtype=np.int64)[..., None]
        nums = np.multiply(step, np.arange(count, dtype=np.int64))
        nums += start
        nums %= den
        if self.ledger is not None:
            self.ledger.record(nums, den)

        with np.errstate(over="raise", invalid="raise"):
            jr = (self._support % den).astype(np.int64)
            coeffs = (self._amps * np.exp((-_TWO_PI * mulmod(jr, start, den)) / den * 1j)
                      if start else self._amps)
            out = nufft_exp_sum(coeffs, mulmod(jr, step, den) / den, count)
            if self.noise.eta > 0:
                out += make_noise(self.noise, nums, den)
        return out


def _known_keys(section: dict, keys: tuple[str, ...], name: str) -> None:
    """Reject a key of a spec file's ``section`` outside ``keys``: a typo
    would otherwise fall back to the key's default."""
    unknown = sorted(set(section) - set(keys))
    if unknown:
        raise ParseError(f"unknown {name} key {', '.join(map(repr, unknown))}; "
                         f"expected {', '.join(keys)}")


def _spec_float(value) -> float:
    """A real field of a spec file: a JSON number, not a boolean or string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{json.dumps(value)} is not a number")
    return float(value)


def load_signal_spec(path: str):
    """Parse a signal spec JSON file.

    Returns (dims, axis_size, entries, noise) where entries maps multi-index
    tuples to amplitudes.  A 1-D file may list scalar indices; they become
    1-tuples.  An index with the wrong number of components, a component
    outside [0, axis_size), or a repeated index is a ParseError, as is a
    boolean or fractional dims, axis_size, index or noise seed, a noise
    seed outside [0, 2^64), a value or eta that is not a JSON number or is
    an integer too large for a float, or a noise section that is not an
    object or whose "kind" is not "gaussian" when eta > 0 and "none" when
    eta = 0.  So is a key the loader does not read: at the top level any
    but "dims", "axis_size", "support", "values" and "noise", in the noise
    section any but "kind", "eta" and "seed".
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read signal spec {path}: {exc}") from exc
    try:
        dims = as_index(doc["dims"])
        axis = as_index(doc["axis_size"])
        support = doc["support"]
        values = doc["values"]
        _known_keys(doc, ("dims", "axis_size", "support", "values", "noise"), "top-level")
        if len(support) != len(values):
            raise ParseError("support and values lengths differ")
        entries = {}
        for idx, val in zip(support, values):
            key = tuple(map(as_index, [idx] if dims == 1 and
                            not isinstance(idx, list) else idx))
            if len(key) != dims or not all(0 <= c < axis for c in key):
                raise ParseError(f"index {idx} is not {dims} integers in [0, {axis})")
            if key in entries:
                raise ParseError(f"index {idx} is listed twice")
            entries[key] = _spec_float(val)
        noise_doc = doc.get("noise", {})
        if not isinstance(noise_doc, dict):
            raise ParseError(f"noise section {json.dumps(noise_doc)} is not an object")
        _known_keys(noise_doc, ("kind", "eta", "seed"), "noise")
        noise = NoiseModel(eta=_spec_float(noise_doc.get("eta", 0.0)),
                           seed=as_index(noise_doc.get("seed", 0)))
        kind = noise_doc.get("kind", "none")
        if kind != ("gaussian" if noise.eta > 0 else "none"):
            raise ParseError(f"noise kind {kind!r} does not match eta {noise.eta}: "
                             'use "gaussian" when eta > 0, "none" when eta = 0')
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"malformed signal spec {path}: {exc}") from exc
    return dims, axis, entries, noise
