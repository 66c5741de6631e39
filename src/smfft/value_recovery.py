"""Value recovery on a known support, from the last ladder level's samples.

The last ladder level requests L half periods y_r[m] = f((m*q_r mod M)/M),
m = 0..K/2, one per shuffle q_r, and support_recovery.LastLevel keeps them.
In round r, line j sits at bin u_rj = K*(q_r*j mod M)/M of K bins.  Each
half is weighted by the Gaussian g(m) = exp(-(2x*m/K)^2), the probe's window
at a larger x cut at CG's tolerance (:func:`fit_window`), and transformed by
one batched real inverse FFT of size K.
By Poisson summation a line of amplitude a then reads
a*C*exp(-((n - u_rj)/s)^2) at bin n, summed over its wrapped images, with
s = 2x/pi and C = K*sqrt(pi)/(2x): the gridding of
Dutt-Rokhlin and Greengard-Lee ("Accelerating the nonuniform FFT", SIAM
Review 46, 2004).  The values are the least-squares fit of these responses,
whose sparse normal matrix has a closed form (:func:`normal_matrix`),
solved by conjugate gradients (CG).  The support holds the spurious lines
the last level's 3 rounds let through as well, at most R/8 in expectation;
each is one more unknown, fitted to about 0.  The stage draws no sample.  A
grid of at most 5K/2 points is sampled whole: its DFT is the spectrum.

The fit's residual over every bin of the last level's rounds, with the
dropped entries at 0, certifies the result of md_sfft's first attempt
(:class:`Fit`): noise of level eta leaves about
eta*sqrt(L*sum_m g(m)^2/K) of it, and a true line of amplitude a left out
of the result about a/2.

If CG misses its tolerance within :data:`CG_ITERATIONS`, prime-modulus
measurements give the values instead (:func:`prime_grid_values`): T grids of
random prime size p, each requested for k/p, k = 0..p//2, and read at the
support residues by one real inverse FFT of size p.  They yield a block
system FB fhat = f0 where each B^(t) aliases the support mod its prime;
(1/T) B*B is a small perturbation of the identity with probability >= 1/2
per draw, so a truncated Neumann series solves it, and draws failing an
observable contraction test are redrawn, up to :data:`DRAWS` of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core_math import gaussian_half, mulmod, primes_below
from .errors import ContractionFailure, Uncertified
from .support_recovery import LastLevel, SupportParams

BLOCKS = 4  # T; the contraction probability bound needs T >= 4
# A, the prime-grid draws made before ContractionFailure.  Each draw passes
# its contraction check with probability at least 1/2, so all A fail with
# probability at most 2^-A; A = ceil(-log2 1e-4) puts that below 1e-4.
DRAWS = 14

# x: noiseless, the fit's window g(m) = exp(-(2x*m/K)^2) is cut at |m| = K/2,
# where it is exp(-x^2) = 6e-13 of its peak (see fit_window).
WINDOW_X = 5.3
# CG's iteration cap.  Inside the envelope, with the last level's 3 rounds,
# CG takes a median of 13 iterations on deep-ladder and wide-support (at
# most 20 and 18) and 29 on exact-shallow (at most 39) over perfbench's
# seeds 0-60; a support of twice R (512 lines at R = 256) takes 47-59, one
# of 4R 283-341, and falls back to the prime grids.
CG_ITERATIONS = 100


@dataclass
class MeasurementSystem:
    """The normal equations (1/T) B*B fhat = f0hat of T prime-modulus blocks:
    f0hat = (1/T) (FB)* f0 as float64, and per block each support index's
    position among the sorted distinct residues mod p, all B*B needs."""

    primes: list[int]
    class_ids: list[np.ndarray]
    f0hat: np.ndarray


def prime_pool(r_bound: int, n_total: int) -> np.ndarray:
    """The pool measurement blocks are drawn from: the 4*R*log_R(N) smallest
    primes above R (R clamped to 1, the log base to 2), ascending."""
    r = max(r_bound, 1)
    size = 4 * r * math.log(n_total) / math.log(max(r_bound, 2))
    # Tolerate float noise so exact powers (e.g. N = R^3) don't round up.
    count = max(1, math.ceil(size - 1e-9))
    n = r + count  # the pool ends by the n-th prime, below 2.2 n log(n + 10)
    primes = primes_below(int(2.2 * n * math.log(n + 10)))
    start = int(np.searchsorted(primes, r, side="right"))
    return primes[start:start + count]


def draw_measurement(support: np.ndarray, r_bound: int, n_total: int,
                     rng: np.random.Generator, sampler) -> MeasurementSystem:
    """Draw T primes i.i.d. from the pool, sample each grid and fold it into
    the right-hand side f0hat at the support residues.

    ``support`` is an int64 array.  Draws are with replacement; a repeated
    prime simply weights its residue blocks twice in the normal equations.
    """
    pool = prime_pool(r_bound, n_total)
    picks = pool[rng.integers(0, len(pool), BLOCKS)].tolist()
    class_ids = []
    f0hat = np.zeros(len(support))
    for p in picks:
        half = sampler.sample_progression(0, 1, p // 2 + 1, p)
        residues = support % p
        # The correlation folds the spectrum mod p: u_l = (1/p) sum_k y_k
        # exp(2*pi*i*k*l/p) = sum_{j = l mod p} fhat_j, which is exactly
        # B^(t) fhat read off at the residue classes.
        f0hat += np.fft.irfft(half, n=p)[residues]
        class_ids.append(np.unique(residues, return_inverse=True)[1])
    return MeasurementSystem(picks, class_ids, f0hat / len(picks))


def apply_normal(system: MeasurementSystem, x: np.ndarray) -> np.ndarray:
    """(1/T) B*B x for a float64 vector x, computed class-wise in O(T*R)."""
    out = np.zeros(len(x))
    for ids in system.class_ids:
        # bincount adds in index order, so each class sum is the same
        # sequence of additions as an np.add.at scatter.
        out += np.bincount(ids, weights=x)[ids]
    return out / len(system.primes)


def neumann_solve(system: MeasurementSystem, terms: int):
    """Truncated Neumann series sum_{n=0}^{Z} (I - (1/T)B*B)^n f0hat.

    Returns (solution, residual_norms).  The norms are in units of the power
    of two at the largest |f0hat| entry (2^-1022 at the least), so their
    squares stay finite; they certify the contraction: an accepted draw
    must halve them at each recorded step.
    """
    # The series is linear, so solving in those units is exact.  (The unit
    # is held at 2^1022 and below, as in fit_values, for subnormal data.)
    unit = math.ldexp(1.0, -max(math.frexp(float(np.abs(system.f0hat).max()))[1], -1022))
    residual = system.f0hat * unit
    solution = residual.copy()
    norms = [float(np.linalg.norm(residual))]
    for _ in range(terms):
        residual = residual - apply_normal(system, residual)
        solution += residual
        norms.append(float(np.linalg.norm(residual)))
    return solution / unit, norms


def contraction_ok(norms: list[float]) -> bool:
    """Observable certificate for ||I - (1/T)B*B||_2 < 1/2.

    Checks geometric halving of the first two Neumann residuals, and that
    the last of the Z recorded after the first is at most 2^-Z times it,
    as that event implies.  A zero first residual (all-zero data) leaves
    every later one zero, which all three checks accept.
    """
    return (norms[1] <= norms[0] / 2 and norms[2] <= max(norms[1] / 2, 1e-300)
            and norms[-1] <= math.ldexp(norms[0], 1 - len(norms)))


def prime_grid_values(support: np.ndarray, n_total: int, params: SupportParams,
                      sampler, rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """Values on the sorted nonempty int64 ``support`` from prime-grid
    measurements, to accuracy O(max(eta, 1e-10)), and the redraws: the
    number of draws rejected before the accepted one.

    Up to DRAWS measurement draws are attempted; each accepted draw is
    solved with Z = max(2, ceil(-log2 max(eta, 1e-10))) Neumann terms.
    The prime pool is sized by max(R, |support|), so a support larger than
    R does not lower the chance of a contracting draw.  Raises
    ContractionFailure when every draw is rejected.
    """
    z_terms = max(2, math.ceil(-math.log2(max(params.eta, 1e-10))))
    for attempt in range(DRAWS):
        system = draw_measurement(support, max(params.r_bound, len(support)),
                                  n_total, rng, sampler)
        solution, norms = neumann_solve(system, z_terms)
        if contraction_ok(norms):
            return solution, attempt
    raise ContractionFailure(
        f"all {DRAWS} measurement draws rejected for |support|={len(support)}")


def normal_matrix(bins: np.ndarray, k_base: int, width: float, reach: float):
    """The fit's normal matrix for lines at the L x |S| float array ``bins``
    (u_rj), at the response width s = ``width``, in units of
    C^2*s*sqrt(pi/2): sum_r sum_h exp(-(d_r + h*K)^2/(2s^2)), with d_r two
    lines' bin distance in round r, wrapped into [-K/2, K/2], and h*K its
    images.

    Returns (diag, rows, cols, vals).  The diagonal, L times the kernel at
    0, is the same for every line.  Off it, each round lists the pairs
    within D = ``reach`` bins of each other, in both orders; a pair listed in
    several rounds adds up.  The images kept, |h| <= D/K + 1/2, follow from
    K, so a small K, where a line's footprint wraps, takes the same path.
    """
    wraps = int(reach / k_base + 0.5)
    images = k_base * np.arange(-wraps, wraps + 1)

    def kernel(d):
        return np.exp(-(d[:, None] + images) ** 2 / (2 * width**2)).sum(axis=1)

    rounds, n = bins.shape
    order = np.argsort(bins, axis=1)
    # Each round's sorted bins, the rounds laid end to end with gaps wider
    # than K + D, so that no search below crosses into another round.
    p = (np.take_along_axis(bins, order, 1)
         + 2 * (k_base + reach) * np.arange(rounds)[:, None]).ravel()
    line = np.arange(p.size)
    end = line - line % n + n
    # Sorted line a pairs with the b > a of its round within D ahead of it,
    # and with those within D behind it across the wrap: two index ranges.
    near = np.searchsorted(p, p + reach, "right")
    far = np.maximum(np.searchsorted(p, p + k_base - reach), near)
    starts = np.concatenate([line + 1, far])
    counts = np.concatenate([near, end]) - starts
    a = np.repeat(np.concatenate([line, line]), counts)
    b = np.arange(counts.sum()) + np.repeat(starts + counts - np.cumsum(counts), counts)
    d = p[b] - p[a]
    vals = kernel(d - k_base * (d > k_base / 2))
    order = order.ravel()
    rows, cols = order[a], order[b]
    diag = rounds * kernel(np.zeros(1))[0]
    return (diag, np.concatenate([rows, cols]), np.concatenate([cols, rows]),
            np.concatenate([vals, vals]))


class FitWindow(NamedTuple):
    """The fit's window at a CG tolerance tol, and what follows from its x."""

    x: float  # g(m) = exp(-(2x*m/K)^2) is exp(-x^2) of its peak at |m| = K/2
    width: float  # s = 2x/pi, the response's width in bins
    footprint: int  # the bins on either side of a line its rhs is read from
    reach: float  # D, the farthest two lines in a round pair in the matrix


def fit_window(tol: float) -> FitWindow:
    """The fit's :class:`FitWindow` at the CG tolerance ``tol`` in
    [1e-11, 1e-5] (:func:`fit_tolerance`).

    x^2 = WINDOW_X^2 - ln(tol/1e-11) cuts the window at 6e-13 of its peak
    noiseless (x = 5.3) and at 0.063*tol at every tol, a fixed share below
    what CG resolves: x = 3.78 at 1e-5.  The smaller x narrows the response,
    s = 3.37 bins noiseless and 2.41 at 1e-5, so each line's right-hand side
    reads fewer bins, ceil(s*sqrt(35)) = 20 and 15, where its response has
    fallen to exp(-35) = 6e-16, and the normal matrix holds fewer pairs:
    two lines farther apart than s*sqrt(2 ln 1e14) = 27.1 and 19.3 bins in
    a round add below 1e-14 of the diagonal there.
    """
    x = math.sqrt(WINDOW_X**2 - math.log(tol / 1e-11))
    width = 2 * x / math.pi
    return FitWindow(x, width, math.ceil(width * math.sqrt(35)),
                     width * math.sqrt(2 * math.log(1e14)))


def fit_tolerance(params: SupportParams) -> float:
    """CG's tolerance on the fit's normal equations: 1e-11 noiseless and
    1e-5 at the noise levels the workloads run; in between, eta/(10*mu)
    keeps the fit's error, about the residual, below the eta-sized error a
    noisy run is allowed."""
    return min(1e-5, max(1e-11, params.eta / (10 * params.mu)))


class Fit(NamedTuple):
    """The fitted values and the certificate of the kept ones."""

    values: np.ndarray
    # ||phi - A*a|| over every bin of the last level's L rounds, a being the
    # values with those at most mu/2 set to 0, and the bound it must meet:
    # max(2*eta*sqrt(L*sum_m g(m)^2/K), 1e-5*||phi||).  Noise of modulus at
    # most eta in every sample leaves at most half the bound (Parseval), and
    # correct noisy fits read 0.87-1.03 of that half (perfbench seeds 0-10).
    # A lost true line of amplitude 0.51-0.52 at the noise edge reads
    # 8.8-10.4 times the bound: the noisy window (x = 3.78) raises the bound
    # and a line's response norm alike, by about 1.18.  The floor covers the
    # cancellation of the residual's identity, about 1e-7*||phi||.
    residual: float
    bound: float

    @property
    def certified(self) -> bool:
        return self.residual <= self.bound


def fit_values(support: np.ndarray, level: LastLevel, params: SupportParams) -> Fit | None:
    """Least-squares values on the sorted int64 ``support`` from the last
    ladder level's half periods; None if CG has not brought the residual of
    the normal equations to tol (:func:`fit_tolerance`) times their
    right-hand side's norm within CG_ITERATIONS iterations.  The window is
    :func:`fit_window`'s at that tol, over the last level's K =
    params.k_base points (:func:`~smfft.support_recovery.find_support`).

    The normal matrix's diagonal is constant, so CG with a Jacobi
    preconditioner is plain CG; it starts from rhs/diag.
    """
    tol = fit_tolerance(params)
    cut, width, footprint, reach = fit_window(tol)
    k_base, modulus = params.k_base, level.moduli[-1]
    bins = mulmod(support, np.array(level.qs)[:, None], modulus) / (modulus // k_base)
    window = gaussian_half(k_base, cut)
    phi = np.fft.irfft(np.array(level.halves) * window, n=k_base, axis=1)
    # A^T phi, in units of C*s*sqrt(pi/2) = K/sqrt(2) (irfft's 1/K and the
    # sqrt(2)), read from the bins floor(u) + offsets around each line, out
    # of each round's spectrum wrapped as often as K needs.
    offsets = np.arange(-footprint, footprint + 2)
    wrapped = np.take(phi, np.arange(-footprint, k_base + footprint + 1), axis=1, mode="wrap")
    first = np.floor(bins)
    reads = sliding_window_view(wrapped, len(offsets), axis=1)[
        np.arange(len(bins))[:, None], first.astype(np.int64)]
    weights = np.subtract.outer((bins - first) / width, offsets / width)
    # In place: a fresh array of this size per step costs its page faults.
    np.exp(np.negative(np.square(weights, out=weights), out=weights), out=weights)
    rhs = math.sqrt(2) * np.einsum("rjt,rjt->j", weights, reads)
    diag, rows, cols, vals = normal_matrix(bins, k_base, width, reach)

    def normal(v):
        return diag * v + np.bincount(rows, vals * v[cols], len(v))

    # Solved in units of the power of two at the largest |rhs| entry, so the
    # norms stay finite; the system is linear, so that is exact.  (The unit
    # is held at 2^1022 and below, so that it is a float for subnormal data.)
    unit = math.ldexp(1.0, -max(math.frexp(float(np.abs(rhs).max()))[1], -1022))
    rhs = rhs * unit
    x = rhs / diag
    residual = rhs - normal(x)
    direction, rr = residual, residual @ residual
    target = tol * np.linalg.norm(rhs)
    for _ in range(CG_ITERATIONS):
        if math.sqrt(rr) <= target:
            break
        image = normal(direction)
        alpha = rr / (direction @ image)
        x = x + alpha * direction
        residual = residual - alpha * image
        rr, rr_old = residual @ residual, rr
        direction = residual + (rr / rr_old) * direction
    if math.sqrt(rr) > target:
        return None
    # ||phi - A*a||^2 = ||phi||^2 - 2 a.A^T phi + a.A^T A a, and A^T phi and
    # A^T A are rhs and the normal matrix times 1/(s*sqrt(2*pi)), all in the
    # fit's units, where the squares stay finite.
    kept = np.where(x > unit * params.mu / 2, x, 0.0)
    flat = phi.ravel() * unit
    phi_norm = math.sqrt(flat @ flat)
    square = (phi_norm**2 - (2 * kept @ rhs - kept @ normal(kept))
              / (width * math.sqrt(2 * math.pi)))
    # sum_m g(m)^2 over the K offsets -(K-1)//2..K//2, g(0) = 1 counted once.
    noise = unit * params.eta * math.sqrt(len(bins) * (2 * window @ window - 1) / k_base)
    return Fit(x / unit, math.sqrt(max(square, 0.0)) / unit,
               max(2 * noise, 1e-5 * phi_norm) / unit)


def compute_values(support: np.ndarray, level: LastLevel, n_total: int,
                   params: SupportParams, rng: np.random.Generator,
                   stats: dict | None = None, certify: bool = False) -> dict[int, float]:
    """Recover the spectrum values on the int64 array ``support`` from the
    rounds ``level`` kept of the last ladder level, to accuracy
    O(max(eta, 1e-10)); an empty support gives ``{}``.

    On a one-level plan, a grid of at most 5K/2 points sampled whole, the
    values are its full DFT at the support.  Otherwise they are fitted
    (:func:`fit_values`).  With ``certify``, a CG miss or a residual above
    its bound raises Uncertified.  Without it, a CG miss makes
    :func:`prime_grid_values` draw through ``level`` and ``rng`` instead
    (a prime p is never the last modulus, so the kept rounds stay), and
    ``stats`` records fallbacks = 1 and the redraws it returns; after a fit
    that stands, it records the fit's residual and bound, certified or
    not.  Entries
    below mu/2 are dropped: mu bounds every true amplitude from below, so
    they can only be spurious survivors, whose exact value is zero.
    """
    support = np.sort(support)
    if not support.size:
        return {}
    if len(level.moduli) == 1:
        values = np.fft.irfft(level.halves[0], n=level.moduli[0])[support]
    else:
        fit = fit_values(support, level, params)
        if certify and (fit is None or not fit.certified):
            raise Uncertified("CG missed its tolerance" if fit is None else
                              f"fit residual {fit.residual:.3g} above {fit.bound:.3g}")
        if fit is None:
            values, redraws = prime_grid_values(support, n_total, params, level, rng)
            if stats is not None:
                stats.update(fallbacks=1, redraws=redraws)
        else:
            values = fit.values
            if stats is not None:
                stats.update(residual=fit.residual, bound=fit.bound)
    return {j: float(v) for j, v in zip(support.tolist(), values) if v > params.mu / 2}
