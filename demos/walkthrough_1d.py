"""Step-by-step 1-D walkthrough on a tiny signal.

Recovers the spectrum of f(x) = e^{-2 pi i x} + e^{-46 pi i x} + e^{-70 pi i x}
(support {1, 23, 35} on a grid of 40) and prints what each stage sees:
the aliased supports at coarse moduli, the effect of a coprime shuffle,
and the final recovered values.
"""

import numpy as np

from smfft import (LastLevel, SampleLedger, Sampler, SparseSpectrum,
                   SupportParams, dealias_candidates, find_support, plan_ladder)
from smfft.value_recovery import compute_values

N = 40
truth = {1: 1.0, 23: 1.0, 35: 1.0}
spectrum = SparseSpectrum(N, truth)

# Aliasing: sampling at rate M folds the support mod M.
for m in (10, 20):
    print(f"aliased support mod {m}: {sorted({j % m for j in truth})}")

# Dealiasing doubles the modulus and considers both translated copies.
cands = dealias_candidates(np.array([1, 3, 5]), 10, 2)
print("candidates when going 10 -> 20:", cands.tolist())

# A coprime shuffle Q relabels line j to j*Q mod N, spreading out clusters.
q = 13
print(f"shuffle by Q={q}: {sorted((j * q) % N for j in truth)} "
      f"(inverse multiplier {pow(q, -1, N)})")

# End-to-end recovery.
params = SupportParams(r_bound=3)
moduli = plan_ladder(N, params.k_base)
if len(moduli) == 1:  # N <= 5K/2: one level of the whole grid beats a ladder
    print(f"base modulus K={params.k_base}, plan {moduli}: N = {N} <= 5K/2, "
          f"so the grid is sampled whole at modulus {moduli[0]}")
else:
    print(f"base modulus K={params.k_base}, ladder moduli {moduli}: "
          f"{len(moduli) - 1} growth step(s) pad N = {N} to {moduli[-1]}")

ledger = SampleLedger()
sampler = Sampler(spectrum, ledger=ledger)
rng = np.random.default_rng(0)
# The search runs on an oracle that keeps the last level's samples; the
# value stage reads the values from them and draws nothing more.
level = LastLevel(sampler, moduli)
support = find_support(level, moduli, params, rng)
print("recovered support:", support.tolist())
values = compute_values(support, level, N, params, rng)
for j in support:
    print(f"  fhat[{j}] = {values[j]:.12f}")
print(f"{ledger.unique_count} distinct samples of a length-{N} signal")
