"""Self-contained checks of the number-theoretic facts the algorithm rests on.

Each suite verifies one ingredient against brute force on small sizes:
the coprime-shuffle isomorphism, the spectrum-permutation identity behind
the shuffled sampling, prime separation of support differences, the
contraction probability of the value-recovery normal operator, rank-1
lattice exactness, and the wrapped-Gaussian window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core_math import gaussian_window, mod_inverse
from .md_transform import RankOneLattice, lattice_point
from .value_recovery import BLOCKS, prime_pool


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    detail: str


def check_shuffle_isomorphism(max_modulus: int = 200) -> SuiteResult:
    """j -> j*Q mod M permutes [0, M) with inverse j -> j*Q^-1, exhaustively."""
    identity_failures = 0
    checked = 0
    for m in range(2, max_modulus + 1):
        n = np.arange(m, dtype=np.int64)
        for q in range(1, m):
            if math.gcd(q, m) != 1:
                continue
            checked += 1
            q_inv = mod_inverse(q, m)
            forward = (n * q) % m
            if not np.array_equal(np.sort(forward), n):
                identity_failures += 1
            elif not np.array_equal((forward * q_inv) % m, n):
                identity_failures += 1
    passed = identity_failures == 0
    return SuiteResult(
        "shuffle-isomorphism", passed,
        f"{checked} (M, Q) pairs exhaustive to M={max_modulus}, "
        f"{identity_failures} failures")


def check_shuffle_spectrum_identity(max_modulus: int = 64, trials: int = 200,
                                    seed: int = 0) -> SuiteResult:
    """Sampling at (n*Q mod M)/M permutes the spectrum by j -> j*Q mod M.

    With g(n) = f((n*Q mod M)/M) under the exp(-2*pi*i*x*j) convention, the
    identity is ghat[(j*Q) mod M] = fhat[j] for every j -- equivalently
    fhat[(j*Q^-1) mod M] = ghat[j] -- checked to 1e-10 on random spectra.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        m = int(rng.integers(2, max_modulus + 1))
        coprimes = [q for q in range(1, m) if math.gcd(q, m) == 1]
        q = int(coprimes[rng.integers(0, len(coprimes))])
        q_inv = mod_inverse(q, m)
        fhat = rng.uniform(0.0, 1.0, m)
        f = np.fft.fft(fhat)  # f(n/M) = sum_j fhat_j exp(-2 pi i n j / M)
        g = f[(np.arange(m) * q) % m]
        ghat = np.fft.ifft(g)
        j = np.arange(m)
        err = float(np.max(np.abs(ghat[(j * q) % m] - fhat)))
        err = max(err, float(np.max(np.abs(fhat[(j * q_inv) % m] - ghat))))
        worst = max(worst, err)
    passed = worst <= 1e-10
    return SuiteResult("shuffle-spectrum-identity", passed,
                       f"{trials} random spectra, max error {worst:.3e}")


def check_crt_separation(max_n: int = 1 << 14, trials: int = 50,
                         seed: int = 0) -> SuiteResult:
    """Few pool primes can collide any fixed pair of distinct frequencies.

    A difference 0 < |j - j'| < N has fewer than log_R(N) prime factors
    exceeding R, so at most that many of the pool primes alias the pair;
    with pool size 4*R*log_R(N) a uniform draw collides with probability
    below 1/(4R).
    """
    rng = np.random.default_rng(seed)
    violations = 0
    for _ in range(trials):
        r_bound = int(rng.integers(4, 21))
        n_total = int(rng.integers(r_bound * r_bound, max_n + 1))
        pool = np.array(prime_pool(r_bound, n_total), dtype=np.int64)
        support = rng.choice(n_total, size=min(r_bound, n_total), replace=False)
        limit = math.log(n_total) / math.log(r_bound)
        for i in range(len(support)):
            diff = np.abs(support[i] - support[:i])
            colliding = (diff[:, None] % pool[None, :] == 0).sum(axis=1)
            if np.any(colliding >= limit):
                violations += 1
    passed = violations == 0
    return SuiteResult("crt-separation", passed,
                       f"{trials} random supports, {violations} pairs with "
                       ">= log_R(N) colliding pool primes")


def check_contraction_probability(draws: int = 200, sparsity: int = 12,
                                  n_total: int = 1 << 14,
                                  seed: int = 0) -> SuiteResult:
    """P(||I - (1/T) B*B||_2 >= 1/2) <= 1/2 for T i.i.d. pool primes.

    The normal operator is materialized densely (R x R) and its spectral
    norm computed exactly; the empirical failure rate over ``draws``
    independent prime draws must not exceed 1/2 plus three binomial
    standard deviations.
    """
    rng = np.random.default_rng(seed)
    pool = prime_pool(sparsity, n_total)
    failures = 0
    for _ in range(draws):
        support = rng.choice(n_total, size=sparsity, replace=False)
        normal = np.zeros((sparsity, sparsity))
        for t in range(BLOCKS):
            p = pool[int(rng.integers(0, len(pool)))]
            res = support % p
            normal += (res[:, None] == res[None, :])
        normal /= BLOCKS
        gap = np.linalg.norm(np.eye(sparsity) - normal, 2)
        if gap >= 0.5:
            failures += 1
    bound = 0.5 + 3 * math.sqrt(0.25 / draws)
    rate = failures / draws
    passed = rate <= bound
    return SuiteResult("contraction-probability", passed,
                       f"failure rate {rate:.3f} over {draws} draws "
                       f"(bound {bound:.3f})")


def check_rank1_exactness(max_axis: int = 8, max_dims: int = 3,
                          seed: int = 0, tol: float = 1e-10) -> SuiteResult:
    """Rank-1 lattice quadrature recovers every coefficient exactly.

    For all M <= 8 and d <= 3, a dense random nonnegative spectrum is
    evaluated pointwise on the lattice line and each coefficient recovered
    by the plain quadrature sum; no two frequencies collide, so the worst
    error is pure floating-point noise.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for dims in range(1, max_dims + 1):
        for axis in range(2, max_axis + 1):
            lattice = RankOneLattice(dims, axis)
            n = lattice.total
            fhat = rng.uniform(0.0, 1.0, (axis,) * dims)
            points = np.array([[float(c) for c in lattice_point(i, lattice)]
                               for i in range(n)])  # n x d in [0,1)^d
            freqs = np.stack(np.meshgrid(*[np.arange(axis)] * dims,
                                         indexing="ij"), -1).reshape(-1, dims)
            phases = points @ freqs.T  # n x n
            samples = np.exp(-2j * np.pi * phases) @ fhat.reshape(-1)
            quad = (np.exp(2j * np.pi * phases.T) @ samples) / n
            worst = max(worst, float(np.max(np.abs(quad - fhat.reshape(-1)))))
    passed = worst <= tol
    return SuiteResult("rank1-exactness", passed,
                       f"all M<={max_axis}, d<={max_dims}; "
                       f"max coefficient error {worst:.3e}")


def check_window(seed: int = 0) -> SuiteResult:
    """Wrapped Gaussian matches a wide brute-force wrap at offsets -K//2..K//2."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(50):
        m = int(rng.integers(16, 256))
        k = int(rng.integers(4, m))
        sigma = float(rng.uniform(0.5, m / 4))
        offsets = np.arange(-(k // 2), k // 2 + 1)
        got = gaussian_window(offsets, sigma, m)
        h = np.arange(-64, 65)
        brute = np.array([
            math.sqrt(math.pi) * sigma * np.sum(
                np.exp(-np.pi**2 * sigma**2 * ((o + h * m) / m) ** 2))
            for o in offsets])
        scale = math.sqrt(math.pi) * sigma
        worst = max(worst, float(np.max(np.abs(got - brute))) / scale)
    passed = worst <= 1e-12
    return SuiteResult("gaussian-window", passed, f"max wrap error {worst:.3e}")


def run_selftest(seed: int = 0) -> list[SuiteResult]:
    """Run every suite; all-passed iff the returned results all pass."""
    return [
        check_shuffle_isomorphism(),
        check_shuffle_spectrum_identity(seed=seed),
        check_crt_separation(seed=seed),
        check_contraction_probability(seed=seed),
        check_rank1_exactness(seed=seed),
        check_window(seed=seed),
    ]
