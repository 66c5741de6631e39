"""The lemma battery: the number-theoretic facts the guarantees rest on,
each measured against brute force at a small size.

The facts are the coprime-shuffle isomorphism, the spectrum-permutation
identity, prime separation of support differences, the contraction rate of
the prime-grid normal operator and rank-1 lattice exactness.  LEMMAS pairs
each measurement, at its size, seed and tolerance, with the bound it must
meet; measure() runs each one once per test run, however many tests read
it (test_acceptance.py reports them, test_properties.py::TestLemmaBattery
asserts them one by one).
"""

import functools
import itertools
import math

import numpy as np

from smfft.md_transform import RankOneLattice
from smfft.value_recovery import BLOCKS, prime_pool


def shuffle_isomorphism_failures(max_modulus, inverse):
    """Coprime pairs (M, Q), 2 <= M <= max_modulus, for which j -> j*Q mod M
    is not a permutation of [0, M) undone by j -> j*inverse(Q, M) mod M."""
    failures = 0
    for m in range(2, max_modulus + 1):
        n = np.arange(m, dtype=np.int64)
        for q in range(1, m):
            if math.gcd(q, m) == 1:
                forward = (n * q) % m
                failures += not (np.array_equal(np.sort(forward), n) and
                                 np.array_equal((forward * inverse(q, m)) % m, n))
    return failures


def spectrum_identity_error(max_modulus, trials, seed):
    """Largest deviation from ghat[j*Q mod M] = fhat[j] and
    fhat[j*Q^-1 mod M] = ghat[j] over random spectra, where g(n) =
    f((n*Q mod M)/M) under the exp(-2*pi*i*x*j) convention."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        m = int(rng.integers(2, max_modulus + 1))
        coprimes = [q for q in range(1, m) if math.gcd(q, m) == 1]
        q = int(coprimes[rng.integers(0, len(coprimes))])
        fhat = rng.uniform(0.0, 1.0, m)
        f = np.fft.fft(fhat)  # f(n/M) = sum_j fhat_j exp(-2 pi i n j / M)
        ghat = np.fft.ifft(f[(np.arange(m) * q) % m])
        j = np.arange(m)
        worst = max(worst, float(np.max(np.abs(ghat[(j * q) % m] - fhat))),
                    float(np.max(np.abs(fhat[(j * pow(q, -1, m)) % m] - ghat))))
    return worst


def separation_violations(max_n, trials, seed):
    """Support points that at least log_R(N) pool primes collide with an
    earlier point of the same random support.

    A difference 0 < |j - j'| < N has fewer than log_R(N) prime factors
    exceeding R, so fewer pool primes than that alias the pair; with pool
    size 4*R*log_R(N) a uniform draw collides with probability below 1/(4R).
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
            violations += bool(np.any(colliding >= limit))
    return violations


def contraction_failure_rate(draws, seed):
    """Share of draws of T = BLOCKS i.i.d. pool primes, each for a random
    12-sparse support on N = 2^14, with ||I - (1/T) B*B||_2 >= 1/2, the
    normal operator taken densely."""
    rng = np.random.default_rng(seed)
    sparsity, n_total = 12, 1 << 14
    pool = prime_pool(sparsity, n_total)
    failures = 0
    for _ in range(draws):
        support = rng.choice(n_total, size=sparsity, replace=False)
        normal = np.zeros((sparsity, sparsity))
        for _ in range(BLOCKS):
            res = support % pool[int(rng.integers(0, len(pool)))]
            normal += res[:, None] == res[None, :]
        normal /= BLOCKS
        failures += np.linalg.norm(np.eye(sparsity) - normal, 2) >= 0.5
    return failures / draws


def rank1_quadrature_error(max_axis, max_dims, seed):
    """Largest coefficient error of the plain rank-1 quadrature sum over
    dense random spectra, for every 2 <= M <= max_axis and d <= max_dims.
    No two frequencies collide on the lattice, so this is rounding alone."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for dims in range(1, max_dims + 1):
        for axis in range(2, max_axis + 1):
            lattice = RankOneLattice(dims, axis)
            n = lattice.total
            fhat = rng.uniform(0.0, 1.0, n)
            points = np.outer(np.arange(n), lattice.generator) % n / n
            freqs = np.array(list(itertools.product(range(axis), repeat=dims)))
            phases = points @ freqs.T  # points x frequencies
            samples = np.exp(-2j * np.pi * phases) @ fhat
            quad = (np.exp(2j * np.pi * phases.T) @ samples) / n
            worst = max(worst, float(np.max(np.abs(quad - fhat))))
    return worst


LEMMAS = {
    "isomorphism failures": (
        lambda: shuffle_isomorphism_failures(200, lambda q, m: pow(q, -1, m)), 0),
    "spectrum identity error": (lambda: spectrum_identity_error(64, 200, seed=0), 1e-10),
    "separation violations": (lambda: separation_violations(1 << 14, 50, seed=0), 0),
    "contraction failure rate": (lambda: contraction_failure_rate(200, seed=0),
                                 0.5 + 3 * math.sqrt(0.25 / 200)),
    "rank-1 error": (lambda: rank1_quadrature_error(8, 3, seed=0), 1e-10),
}


@functools.cache
def measure(name):
    """(measured value, bound) of one lemma in LEMMAS; it holds when
    value <= bound."""
    run, bound = LEMMAS[name]
    return run(), bound
