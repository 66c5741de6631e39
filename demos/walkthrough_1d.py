"""Step-by-step 1-D walkthrough on a tiny signal.

Recovers the spectrum of f(x) = e^{-2 pi i x} + e^{-46 pi i x} + e^{-70 pi i x}
(support {1, 23, 35} on a grid of 40) and prints what each stage sees:
the aliased supports at coarse moduli, the effect of a coprime shuffle,
and the final recovered values.
"""

import numpy as np

from smfft import (RankOneLattice, SampleLedger, SupportParams,
                   md_sample_adapter, md_sfft)
from smfft.support_recovery import dealias_candidates, plan_ladder

N = 40
truth = {1: 1.0, 23: 1.0, 35: 1.0}

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

lattice = RankOneLattice(1, N)
ledger = SampleLedger()
sampler = md_sample_adapter({(j,): a for j, a in truth.items()}, lattice,
                            ledger=ledger)
recovered = md_sfft(sampler, lattice, params, np.random.default_rng(0))
print("recovered support:", [j for (j,) in recovered])
for (j,), value in recovered.items():
    print(f"  fhat[{j}] = {value:.12f}")
print(f"{ledger.unique_count} distinct samples of a length-{N} signal")
