"""3-D recovery from noisy samples.

A 50-sparse nonnegative spectrum on a 128^3 grid (N ~ 2 million) is
recovered from a few thousand noisy point samples.  The cubic
grid is mapped to one dimension along a rank-1 lattice, so the whole
pipeline runs on the flattened problem.
"""

import numpy as np

from smfft import (NoiseModel, RankOneLattice, SampleLedger, SupportParams,
                   md_sample_adapter, md_sfft, relative_l2_error)

M, D, R, ETA = 128, 3, 50, 1e-2

rng = np.random.default_rng(12345)
lattice = RankOneLattice(D, M)
flat = rng.choice(lattice.total, size=R, replace=False)
# One amplitude per key, drawn in the order of the flat draws.
truth = {key: float(rng.uniform(0.5, 1.5)) for key in lattice.unflatten(flat)}

noise = NoiseModel(eta=ETA, seed=7)
ledger = SampleLedger()
sampler = md_sample_adapter(truth, lattice, noise, ledger)

params = SupportParams(r_bound=R, eta=ETA)
stats = {}
recovered = md_sfft(sampler, lattice, params, np.random.default_rng(0),
                    stats=stats)

err = relative_l2_error(recovered, truth, lattice)
print(f"N = {lattice.total:,}  (grid {M}^{D}),  R = {R},  eta = {ETA}")
print(f"support exact: {set(recovered) == set(truth)}")
print(f"relative l2 error: {err:.2e}")
print(f"samples used: {ledger.unique_count:,} "
      f"({ledger.unique_count / lattice.total:.2%} of the grid)")
print(f"ladder levels: {stats['ladder_steps']}, "
      f"prime-grid fallbacks: {stats['fallbacks']}, "
      f"measurement redraws: {stats['redraws']}")
print(f"attempts: {stats['attempts']}")
print(f"certified: {stats['certified']}")
