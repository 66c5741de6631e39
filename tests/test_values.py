import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import smfft.value_recovery as vr
from smfft import bench, support_recovery
from smfft.core_math import gaussian_half, next_fast_len, sample_coprime
from smfft.errors import ContractionFailure, EnvelopeError, SmfftError, Uncertified
from smfft.md_transform import (RankOneLattice, flatten_index, md_sample_adapter,
                                md_sfft, relative_l2_error)
from smfft.signal import NoiseModel, SampleLedger, Sampler, SparseSpectrum
from smfft.support_recovery import (LAST_ROUNDS, NOISE_EDGE, LastLevel, SupportParams,
                                    find_support, plan_attempts, plan_ladder)
from smfft.value_recovery import (BLOCKS, apply_normal, compute_values,
                                  contraction_ok, draw_measurement, neumann_solve,
                                  normal_matrix, prime_grid_values, prime_pool)

from reference import trial_division_primes


def primes_above(r, count):
    """The ``count`` smallest primes above r, by trial division."""
    return [p for p in trial_division_primes(40000) if p > r][:count]


def make_instance(n, support, amps):
    spectrum = SparseSpectrum(n, dict(zip(support, amps)))
    return spectrum, Sampler(spectrum)


def search(sampler, n, params, rng):
    """The support find_support returns, and the LastLevel it ran on."""
    moduli = plan_ladder(n, params.k_base)
    level = LastLevel(sampler, moduli)
    return find_support(level, moduli, params, rng, params.k_base), level


class TestPrimePool:
    def test_pool_size_exact_power(self):
        # 4 * 5 * log_5(5^3) = 60
        assert len(prime_pool(5, 5**3)) == 60

    def test_base_clamped_for_tiny_r(self):
        assert len(prime_pool(1, 1024)) == 40  # 4 * 1 * log2(1024)

    def test_pools_are_the_primes_above_r(self):
        pool = prime_pool(3, 4096)
        assert len(pool) == 91 and pool.tolist() == primes_above(3, 91)
        assert prime_pool(400, 4096).tolist() == primes_above(400, 2222)


class TestMeasurement:
    def test_residue_maps_and_rhs_shapes(self):
        _, sampler = make_instance(200, [3, 77, 150], [1.0, 1.0, 1.0])
        sys_ = draw_measurement(np.array([3, 77, 150]), prime_pool(3, 200),
                                np.random.default_rng(0), sampler)
        assert len(sys_.primes) == BLOCKS
        assert sys_.f0hat.shape == (3,) and sys_.f0hat.dtype == np.float64
        for p, ids in zip(sys_.primes, sys_.class_ids):
            assert p > 3
            residues = np.array([3, 77, 150]) % p
            # ids ranks each residue among the block's distinct residues.
            assert np.array_equal(np.unique(residues)[ids], residues)

    def test_one_request_per_conjugate_pair(self):
        spectrum = SparseSpectrum(200, {3: 1.0, 77: 1.0, 150: 1.0})
        ledger = SampleLedger()
        sys_ = draw_measurement(np.array([3, 77, 150]), prime_pool(3, 200),
                                np.random.default_rng(0), Sampler(spectrum, ledger=ledger))
        assert ledger.total_requests == sum(p // 2 + 1 for p in sys_.primes)

    @pytest.mark.parametrize("axis,dims,sparsity", [
        (1024, 2, 1024), (1024, 3, 1024), (256, 2, 2100)])
    def test_prime_grids_above_2_16(self, axis, dims, sparsity, monkeypatch):
        # The prime pools reach 86017, 133541 and 133999, so some grids hold
        # more than 2^16 points; every request is exact all the same, as
        # (den - 1) * count stays far below 2^63.  The fit is made to miss,
        # so that the prime grids give the values.
        monkeypatch.setattr(vr, "fit_values", lambda *args: None)
        row = bench.run_trial(axis, dims, sparsity, 0.0, 40)
        assert row["success"] == 1


class TestOperators:
    def _dense_normal(self, system, support):
        r = len(support)
        a = np.zeros((r, r))
        for p in system.primes:
            res = np.asarray(support) % p
            a += (res[:, None] == res[None, :])
        return a / len(system.primes)

    def test_apply_normal_matches_dense(self):
        rng = np.random.default_rng(1)
        support = sorted(int(j) for j in rng.choice(4096, 20, replace=False))
        _, sampler = make_instance(4096, support, [1.0] * 20)
        system = draw_measurement(np.array(support), prime_pool(20, 4096), rng, sampler)
        dense = self._dense_normal(system, support)
        x = rng.normal(size=20)
        got = apply_normal(system, x)
        assert got.dtype == np.float64
        assert np.allclose(got, dense @ x, atol=1e-12)

    def test_apply_normal_matches_add_at_scatter(self):
        # bincount adds each class in index order, as a size-p np.add.at
        # scatter does, so the two agree bit for bit.  300 indices over the
        # primes of an r_bound = 5 pool (below 2500) share classes of three
        # and more, where the order of additions shows.
        rng = np.random.default_rng(5)
        support = np.sort(rng.choice(1 << 40, 300, replace=False))
        _, sampler = make_instance(1 << 40, support.tolist(), [1.0] * 300)
        system = draw_measurement(support, prime_pool(5, 1 << 40), rng, sampler)
        x = rng.normal(size=300)
        expected = np.zeros_like(x)
        for p, ids in zip(system.primes, system.class_ids):
            assert np.bincount(ids).max() >= 3
            sums = np.zeros(p)
            np.add.at(sums, support % p, x)
            expected += sums[support % p]
        assert np.array_equal(apply_normal(system, x), expected / BLOCKS)

    def test_f0hat_noiseless_is_normal_times_truth(self):
        # With exact samples, f0hat = (1/T)(FB)* f0 equals (1/T) B*B fhat.
        rng = np.random.default_rng(2)
        support = sorted(int(j) for j in rng.choice(4096, 15, replace=False))
        amps = rng.uniform(0.5, 1.5, 15)
        _, sampler = make_instance(4096, support, amps)
        system = draw_measurement(np.array(support), prime_pool(15, 4096), rng, sampler)
        expected = self._dense_normal(system, support) @ amps
        assert np.allclose(system.f0hat, expected, atol=1e-9)

    @pytest.mark.parametrize("eta", [0.0, 0.01])
    def test_f0hat_matches_prime_length_ifft(self, eta):
        # The fold, a real inverse FFT of each prime period's half, agrees
        # with the real part of a complex ifft of the conjugate-filled
        # period, noisy samples included.  The oracle
        # is deterministic per point, so each grid is sampled again here.
        rng = np.random.default_rng(6)
        support = np.sort(rng.choice(1 << 30, 40, replace=False))
        spectrum = SparseSpectrum(1 << 30, {int(j): 1.0 for j in support})
        sampler = Sampler(spectrum, NoiseModel(eta, 1))
        system = draw_measurement(support, prime_pool(40, 1 << 30), rng, sampler)
        expected = np.zeros(len(support))
        for p in system.primes:
            half = sampler.sample_progression(0, 1, p // 2 + 1, p)
            full = np.concatenate([half, half[(p + 1) // 2 - 1:0:-1].conj()])
            expected += np.fft.ifft(full).real[support % p]
        got = system.f0hat
        assert got.dtype == np.float64
        assert np.abs(got - expected / BLOCKS).max() <= 1e-12 * len(support)

    def test_neumann_converges_to_solution(self):
        rng = np.random.default_rng(3)
        support = sorted(int(j) for j in rng.choice(10000, 12, replace=False))
        amps = rng.uniform(0.5, 1.5, 12)
        _, sampler = make_instance(10000, support, amps)
        system = draw_measurement(np.array(support), prime_pool(12, 10000), rng, sampler)
        solution, norms = neumann_solve(system, 40)
        if contraction_ok(norms):
            assert np.allclose(solution, amps, atol=1e-8)
            assert norms[-1] < norms[0] * 2**-30


class TestContractionCertificate:
    def test_accepts_halving(self):
        assert contraction_ok([1.0, 0.5, 0.25])
        assert contraction_ok([1.0, 0.3, 0.01, 0.1, 0.05])

    def test_rejects_a_stalled_tail(self):
        # The first two ratios halve but the last of Z = 3 terms is above
        # 2^-3 of the first: ||I - A|| < 1/2 would rule that out.  Such
        # draws were accepted, and exact-shallow trials ended 1e-8 to
        # 1.2e-5 off.
        assert not contraction_ok([1.0, 0.3, 0.01, 0.5])
        assert not contraction_ok([1.0, 0.5, 0.25, 0.2])

    def test_rejects_slow_decay(self):
        assert not contraction_ok([1.0, 0.9, 0.8])
        assert not contraction_ok([1.0, 0.4, 0.3])

    def test_zero_residual_accepted(self):
        assert contraction_ok([0.0, 0.0, 0.0])


class TestComputeValues:
    @pytest.mark.parametrize("seed", range(6))
    def test_noiseless_exact(self, seed):
        rng = np.random.default_rng(seed)
        n = 1 << 16
        support = sorted(int(j) for j in rng.choice(n, 30, replace=False))
        amps = rng.uniform(0.5, 1.5, 30)
        _, sampler = make_instance(n, support, amps)
        params, rng = SupportParams(r_bound=30), np.random.default_rng(seed + 50)
        found, level = search(sampler, n, params, rng)
        values = compute_values(found, level, n, params, rng, {})
        assert sorted(values) == support
        for j, a in zip(support, amps):
            assert values[j] == pytest.approx(a, abs=1e-8)

    def test_spurious_support_entries_pruned(self):
        # Indices passed in that carry no energy fit to about 0 and are
        # dropped.
        n = 1 << 14
        true = [100, 5000, 12000]
        _, sampler = make_instance(n, true, [1.0, 1.0, 1.0])
        params, rng = SupportParams(r_bound=5), np.random.default_rng(1)
        found, level = search(sampler, n, params, rng)
        assert found.tolist() == true
        padded = np.array(sorted(true + [7, 9999]))
        fitted = vr.fit_values(padded, level, params).values
        assert np.abs(fitted[[0, 3]]).max() < 1e-10
        values = compute_values(padded, level, n, params, rng, {})
        assert sorted(values) == true

    def test_noisy_accuracy(self):
        rng = np.random.default_rng(11)
        n = 1 << 18
        support = sorted(int(j) for j in rng.choice(n, 50, replace=False))
        amps = rng.uniform(0.5, 1.5, 50)
        spectrum = SparseSpectrum(n, dict(zip(support, amps)))
        sampler = Sampler(spectrum, NoiseModel(0.01, 3))
        params, rng = SupportParams(r_bound=50, eta=0.01), np.random.default_rng(2)
        found, level = search(sampler, n, params, rng)
        values = compute_values(found, level, n, params, rng, {})
        err = np.sqrt(sum((values.get(j, 0.0) - a) ** 2
                          for j, a in zip(support, amps)))
        assert err / np.linalg.norm(amps) < 3e-2

    def test_stats_records_redraws(self):
        # On this instance and algorithm seed the first prime-grid draw after
        # md_sfft's support search fails the contraction check; the second
        # is accepted and recovers the spectrum.  (Seed 2: the draws follow
        # the last level's coprimes in the rng stream, so the seed picks the
        # draw, and at seeds 0-1 the first is accepted.)
        entries, lattice, noise = bench.random_instance(256, 2, 256, 0.0, 0)
        params, rng = bench.make_params(256, 0.0), np.random.default_rng(2)
        sampler = md_sample_adapter(entries, lattice, noise)
        support = find_support(sampler, plan_ladder(lattice.total, params.k_base),
                               params, rng, params.k_base)
        support = support[support < lattice.total]
        values, redraws = prime_grid_values(support, lattice.total, params, sampler, rng)
        assert redraws == 1
        # The support holds 3 spurious lines as well; their values are 0.
        truth = {j + 256 * k: a for (j, k), a in entries.items()}
        assert set(truth) < set(support.tolist())
        expected = [truth.get(j, 0.0) for j in support.tolist()]
        assert np.abs(values - expected).max() <= 1e-8

    @pytest.mark.parametrize("r_true", [512, 1024])
    def test_support_past_r_bound(self, r_true):
        # R = 256 underestimates the support.  The support stage still finds
        # it, and each trial meets the success rule or raises a typed error,
        # never a silently wrong value: with the prime pool sized by R and
        # a contraction check of two ratios, 5 of 12 at 1024 ended 2e-8 to
        # 9e-6 off.  The pool is sized by the support found, so the draws
        # keep contracting: sized by R, 7 of 12 at 1024 raised
        # ContractionFailure.
        params = bench.make_params(256, 0.0)
        recovered = 0
        for seed in range(5000, 5012):
            entries, lattice, noise = bench.random_instance(256, 2, r_true, 0.0, seed)
            try:
                row = bench.scored_run(entries, lattice, noise, params, seed, seed + 2)[1]
            except SmfftError:
                continue
            assert row["success"] == 1, (seed, row["rel_l2_error"])
            recovered += 1
        assert recovered >= 11

    def test_huge_amplitudes(self):
        # md_sfft runs the fit in units of mu, where 1e200 amplitudes are
        # near 1 and the fit's sums of squares stay finite; the value stage
        # keeps no unit of its own.
        support = [5, 300, 900]
        amps = [1e200, 0.75e200, 1.25e200]
        lattice = RankOneLattice(1, 1024)
        sampler = md_sample_adapter({(j,): a for j, a in zip(support, amps)}, lattice)
        stats = {}
        values = md_sfft(sampler, lattice, SupportParams(r_bound=3, mu=5e199),
                         np.random.default_rng(0), stats)
        assert sorted(values) == [(j,) for j in support]
        assert stats["residual"] <= stats["bound"]
        for j, a in zip(support, amps):
            assert values[(j,)] == pytest.approx(a, rel=1e-12)

    @pytest.mark.parametrize("shape", [(465, 3, 50, 1e-2), (256, 2, 256, 0.0)])
    def test_values_below_the_declared_range(self, shape):
        # mu = 2.0 on lines in [0.5, 1.5]: these runs returned 22-147 values
        # below mu, wrong and uncertified, with no error.
        axis, dims, r, eta = shape
        for seed in range(3):
            entries, lattice, noise = bench.random_instance(axis, dims, r, eta, 8100 + seed)
            with pytest.raises(EnvelopeError, match="mu lies outside the declared range"):
                md_sfft(md_sample_adapter(entries, lattice, noise), lattice,
                        SupportParams(r_bound=r, mu=2.0, eta=eta), np.random.default_rng(seed))

    def test_fallback_draws_through_the_level(self, monkeypatch):
        # When the fit misses, the prime grids are drawn through the
        # LastLevel: every grid request reaches the wrapped oracle's ledger,
        # and the rounds the level kept stay as find_support left them.
        n, true, amps = 1 << 14, [100, 5000, 12000], [1.0, 0.75, 1.25]
        ledger = SampleLedger()
        sampler = Sampler(SparseSpectrum(n, dict(zip(true, amps))), ledger=ledger)
        params, rng = SupportParams(r_bound=3), np.random.default_rng(1)
        found, level = search(sampler, n, params, rng)
        qs, halves = level.qs.copy(), level.halves.copy()
        before = ledger.total_requests
        draw, systems = vr.draw_measurement, []
        monkeypatch.setattr(vr, "draw_measurement",
                            lambda *args: systems.append(draw(*args)) or systems[-1])
        monkeypatch.setattr(vr, "fit_values", lambda *args: None)
        stats = {}
        values = compute_values(found, level, n, params, rng, stats)
        assert stats["fallbacks"] == 1 and systems
        assert values == pytest.approx(dict(zip(true, amps)), abs=1e-8)
        assert np.array_equal(level.qs, qs) and np.array_equal(level.halves, halves)
        assert ledger.total_requests - before == sum(
            p // 2 + 1 for system in systems for p in system.primes)

    def test_empty_support(self):
        _, sampler = make_instance(64, [1], [1.0])
        assert compute_values(np.array([], dtype=np.int64), LastLevel(sampler, (64,)),
                              64, SupportParams(r_bound=1),
                              np.random.default_rng(0), {}) == {}

    def test_contraction_failure_raised(self, monkeypatch):
        # If no draw ever certifies contraction, the redraw loop gives up
        # after its 14 draws, all from the one prime pool it builds.
        monkeypatch.setattr(vr, "contraction_ok", lambda norms: False)
        draw, picks = vr.draw_measurement, []
        monkeypatch.setattr(vr, "draw_measurement",
                            lambda *args: picks.append(1) or draw(*args))
        pool, pools = vr.prime_pool, []
        monkeypatch.setattr(vr, "prime_pool", lambda *args: pools.append(1) or pool(*args))
        _, sampler = make_instance(4096, [1, 2000], [1.0, 1.0])
        with pytest.raises(ContractionFailure, match="all 14 measurement draws"):
            prime_grid_values(np.array([1, 2000]), 4096, SupportParams(r_bound=2),
                              sampler, np.random.default_rng(0))
        assert len(picks) == vr.DRAWS == 14 and len(pools) == 1


def dense_normal(bins, k_base, width):
    """A^T A / (s*sqrt(pi/2)) from explicit footprints: column j of A holds
    line j's response exp(-((n - u_rj + h*K)/s)^2), s = ``width``, summed
    over every image h that reaches the K bins of round r."""
    images = k_base * np.arange(-(80 // k_base) - 2, 80 // k_base + 3)
    grid = np.arange(k_base)[:, None, None]
    columns = [np.exp(-((grid - u[None, :, None] + images) / width) ** 2).sum(axis=2)
               for u in bins]
    a = np.concatenate(columns)
    return a.T @ a / (width * math.sqrt(math.pi / 2))


class TestFit:
    @pytest.mark.parametrize("tol,x,footprint,reach", [(1e-11, 5.3, 20, 27.1),
                                                       (1e-5, 3.78, 15, 19.3)])
    def test_window_cut_at_the_tolerance(self, tol, x, footprint, reach):
        # Noiseless the window is cut at x = 5.3, exactly; at the workloads'
        # noisy tolerance at 3.78, where it is the same 0.063*tol of its peak.
        window = vr.fit_window(tol)
        assert window.x == pytest.approx(x, abs=5e-3) and window.footprint == footprint
        assert window.width == 2 * window.x / math.pi
        assert window.reach == pytest.approx(reach, abs=0.05)
        assert math.exp(-window.x**2) == pytest.approx(math.exp(-5.3**2) * tol / 1e-11)
        assert vr.fit_window(1e-11).x == vr.WINDOW_X
        for eta, expected in ((0.0, 1e-11), (1e-2, 1e-5), (1e-9, 2e-10)):
            assert vr.fit_tolerance(SupportParams(r_bound=1, eta=eta)) == pytest.approx(expected)

    @pytest.mark.parametrize("k_base,lines", [(7, 2), (9, 3), (10, 3), (14, 3), (30, 5),
                                              (45, 6), (924, 40), (5120, 60)])
    def test_normal_matrix_matches_dense(self, k_base, lines):
        # Lines crowd into a few bins too, so most pairs are near in some
        # round.  K = 7 and 9 are the smallest K the defaults give at
        # R = 1, at delta_ratio 1 and 3, where images wrap most.  Both the
        # noiseless window and the workloads' noisy one.
        rng = np.random.default_rng(k_base)
        bins = rng.uniform(0, k_base, (LAST_ROUNDS, lines))
        bins[:, :lines // 2] = rng.uniform(0, min(k_base, 60), (LAST_ROUNDS, lines // 2))
        for tol in (1e-11, 1e-5):
            window = vr.fit_window(tol)
            diag, rows, cols, vals = normal_matrix(bins, k_base, window.width, window.reach)
            sparse = np.diag(np.full(lines, diag))
            np.add.at(sparse, (rows, cols), vals)
            dense = dense_normal(bins, k_base, window.width)
            assert np.abs(sparse - dense).max() <= 1e-12 * np.abs(dense).max()

    @pytest.mark.parametrize("axis,dims,sparsity,k_base", [(128, 2, 50, 686),
                                                           (256, 2, 256, 3872)])
    def test_noiseless_recovery(self, axis, dims, sparsity, k_base):
        params = bench.make_params(sparsity, 0.0)
        assert params.k_base == k_base
        for seed in range(3):
            entries, lattice, noise = bench.random_instance(axis, dims, sparsity, 0.0, seed)
            stats = {}
            got = md_sfft(md_sample_adapter(entries, lattice, noise), lattice, params,
                          np.random.default_rng(seed + 2), stats=stats)
            assert set(got) == set(entries) and stats["fallbacks"] == 0
            assert relative_l2_error(got, entries, lattice) <= 1e-10

    @pytest.mark.parametrize("sparsity,k_base,eta", [(1, 9, 0.0), (2, 20, 0.0),
                                                     (3, 32, 0.0), (3, 32, 0.025)])
    def test_small_k_wrapped_footprint(self, sparsity, k_base, eta):
        # N = 2^40: a line's footprint of 2 * 20 + 2 bins wraps round K.
        params = bench.make_params(sparsity, eta)
        assert params.k_base == k_base
        for seed in range(5):
            entries, lattice, noise = bench.random_instance(1 << 20, 2, sparsity, eta, seed)
            stats = {}
            got = md_sfft(md_sample_adapter(entries, lattice, noise), lattice, params,
                          np.random.default_rng(seed + 2), stats=stats)
            assert set(got) == set(entries) and stats["fallbacks"] == 0
            assert relative_l2_error(got, entries, lattice) <= max(eta, 1e-10)

    @pytest.mark.parametrize("eta", [1e-12, 1e-9])
    def test_tiny_eta_meets_the_success_rule(self, eta):
        # At the noisy tolerance of 1e-5 these trials end 6e-6 to 1.1e-5 off,
        # far above the max(3*eta, 1e-8) the success rule allows.
        for seed in range(2):
            assert bench.run_trial(256, 2, 256, eta, seed)["success"] == 1

    def test_one_level_ladder_reads_the_base_dft(self):
        lattice, params = RankOneLattice(1, 16), SupportParams(r_bound=2)
        assert params.k_base == 20 and plan_ladder(16, params.k_base) == (16,)
        entries = {(3,): 1.0, (11,): 0.7}
        ledger = SampleLedger()
        got = md_sfft(md_sample_adapter(entries, lattice, ledger=ledger), lattice,
                      params, np.random.default_rng(0))
        assert ledger.unique_count == 16 // 2 + 1
        assert got == pytest.approx(entries, abs=1e-14)
        # Every index filled: adjacent lines overlap in the one round q = 1,
        # where the fit reads 1.6e-4 off and the DFT 1e-14.  The lines reach
        # 2.0, so the declared range is [0.5, 2.0]: delta_ratio 4.
        entries = {(j,): 0.5 + 0.1 * j for j in range(16)}
        got = md_sfft(md_sample_adapter(entries, lattice), lattice,
                      SupportParams(r_bound=16, delta_ratio=4), np.random.default_rng(0))
        assert got == pytest.approx(entries, abs=1e-12)

    @pytest.mark.parametrize("axis,dims,sparsity", [
        (36, 1, 3), (70, 1, 3), (7, 2, 3), (101, 1, 8), (20, 2, 16), (1089, 1, 50),
        (80, 1, 3), (8, 2, 3), (240, 1, 8), (21, 2, 16), (1687, 1, 50), (11, 3, 50)])
    def test_small_grid_sampled_whole(self, axis, dims, sparsity):
        # K < N <= 5K/2: the grid is one level of its least 11-smooth size,
        # so the run draws that level's half period and nothing more, where
        # the ladder (K, 2K) or (K, 3K) drew a base level and three probe
        # rounds (R = 50, N = 1089: 923 distinct samples against 545; N =
        # 1687: 1044 against 848).
        entries, lattice, noise = bench.random_instance(axis, dims, sparsity, 0.0, axis)
        params, n = SupportParams(r_bound=sparsity), lattice.total
        assert params.k_base < n and 2 * n <= 5 * params.k_base
        ledger = SampleLedger()
        got = md_sfft(md_sample_adapter(entries, lattice, noise, ledger), lattice,
                      params, np.random.default_rng(0))
        assert ledger.unique_count == next_fast_len(n) // 2 + 1
        assert got == pytest.approx(entries, abs=1e-12)

    def test_last_level_kept(self):
        # LastLevel keeps the last level's L shuffled half periods, raw.
        n = 1 << 20
        spectrum, sampler = make_instance(n, [5, 70000, 800000], [1.0, 0.6, 1.2])
        params = SupportParams(r_bound=3)
        found, level = search(sampler, n, params, np.random.default_rng(4))
        moduli = plan_ladder(n, params.k_base)
        assert level.moduli == moduli and len(level.qs) == LAST_ROUNDS
        for q, half in zip(level.qs, level.halves):
            assert math.gcd(int(q), moduli[-1]) == 1
            assert np.array_equal(half, sampler.sample_progression(
                0, q, params.k_base // 2 + 1, moduli[-1]))

    @pytest.mark.parametrize("r_true,fallbacks", [(512, 0), (1024, 1)])
    def test_fallback_counted(self, r_true, fallbacks):
        # R = 256 underestimates the support.  CG converges on 2R lines
        # within its cap (47-59 iterations over instances 5000-5005) and not
        # on 4R (283-341), where the prime grids give the values instead,
        # and stats counts it.
        entries, lattice, noise = bench.random_instance(256, 2, r_true, 0.0, 5000)
        stats = {}
        got = md_sfft(md_sample_adapter(entries, lattice, noise), lattice,
                      bench.make_params(256, 0.0), np.random.default_rng(5002),
                      stats=stats)
        assert stats["fallbacks"] == fallbacks
        assert relative_l2_error(got, entries, lattice) <= 1e-8

    def test_cap_covers_the_envelope(self):
        # The most CG iterations seen inside the envelope (perfbench seeds
        # 0-60 of all three workloads, 2,318 trials): 39 on this exact-shallow
        # instance (seed 41), where 8 spurious lines reach the fit.  A cap
        # of 38 would reject its first attempt and search again from K.
        entries, lattice, noise = bench.random_instance(256, 2, 256, 0.0, 41009)
        stats = {}
        got = md_sfft(md_sample_adapter(entries, lattice, noise), lattice,
                      bench.make_params(256, 0.0), np.random.default_rng(41011),
                      stats=stats)
        assert stats["fallbacks"] == 0 and stats["attempts"] == 1
        assert relative_l2_error(got, entries, lattice) <= 1e-8


def first_attempt(entries, lattice, noise, params, rng):
    """The support md_sfft's first attempt finds, and the LastLevel it ran
    on: K/2-point inner windows under a K-point last level where R >= 16."""
    moduli, window = plan_attempts(lattice.total, params)[0]
    level = LastLevel(md_sample_adapter(entries, lattice, noise), moduli)
    support = find_support(level, moduli, params, rng, window)
    return np.sort(support[support < lattice.total]), level


def fit_window(params):
    """The window fit_values uses at these params."""
    return vr.fit_window(vr.fit_tolerance(params))


def noise_formula(params, level):
    """eta*sqrt(L*sum_o g(o)^2/K), the fit's window g written out at every
    offset o = -(K-1)//2..K//2 of its K: by Parseval, the norm over the L
    rounds' K bins that noise of modulus eta in every sample reaches."""
    k = params.k_base
    offsets = np.arange(k // 2 - k + 1, k // 2 + 1)
    window = np.exp(-(2 * fit_window(params).x * offsets / k) ** 2)
    return params.eta * math.sqrt(len(level.halves) * (window @ window) / k)


def windowed_rounds(level, params):
    """phi: the last level's rounds as the fit windows and transforms them."""
    k = params.k_base
    return np.fft.irfft(np.array(level.halves) * gaussian_half(k, fit_window(params).x),
                        n=k, axis=1)


def direct_residual(values, support, level, params):
    """||phi - A*a|| written out: phi the last level's windowed rounds, A's
    column j in round r line j's response exp(-((n - u_rj + h*K)/s)^2)/(s*
    sqrt(pi)) at every bin n, summed over the images h that reach the K
    bins, and a the values with those at most mu/2 set to 0."""
    k, m = params.k_base, level.moduli[-1]
    width = fit_window(params).width
    kept = np.where(values > params.mu / 2, values, 0.0)
    images = k * np.arange(-(80 // k) - 2, 80 // k + 3)
    grid = np.arange(k)[:, None, None]
    model = []
    for q in level.qs:
        bins = np.array([int(j) * int(q) % m * k / m for j in support])
        model.append(np.exp(-((grid - bins[None, :, None] + images) / width) ** 2)
                     .sum(axis=2) @ kept)
    return np.linalg.norm(windowed_rounds(level, params)
                          - np.array(model) / (width * math.sqrt(math.pi)))


class BoundedNoise:
    """An oracle whose every sample is off by at most eta: by exactly eta
    with ``on_circle``, else by eta times a uniform radius, at a uniform
    phase."""

    def __init__(self, sampler, eta, rng, on_circle):
        self.sampler, self.eta, self.rng, self.on_circle = sampler, eta, rng, on_circle

    def sample_progression(self, start, step, count, den):
        shape = np.shape(step) + (count,)
        radius = 1.0 if self.on_circle else self.rng.uniform(0, 1, shape)
        return (self.sampler.sample_progression(start, step, count, den)
                + self.eta * radius * np.exp(2j * np.pi * self.rng.uniform(0, 1, shape)))


class TestFirstAttempt:
    """md_sfft's first attempt from K/2 and the certificate that gates it."""

    def test_r_sweep_no_certified_result_is_wrong(self, monkeypatch):
        # The first attempt from K/2 forced at every R (K even at every R),
        # on M = 4096, d = 2 and M = 465, d = 3, noiseless and at the noise
        # edge, seeds 6000-6009.  Every run meets the success rule: 260 of
        # 280 first attempts certify, and the 20 rejected ones, all at
        # R <= 2, are retried from K.  Accepted without the certificate, 5
        # of those 20 return a wrong result (R = 1 and 2) with no error.
        monkeypatch.setattr(support_recovery, "HALF_K_FROM", 1)
        retries = 0
        for r in (1, 2, 5, 12, 30, 100, 256):
            for axis, dims in ((4096, 2), (465, 3)):
                for eta in (0.0, NOISE_EDGE * 0.5):
                    for seed in range(6000, 6010):
                        entries, lattice, noise = bench.random_instance(axis, dims, r, eta, seed)
                        stats = {}
                        got = md_sfft(md_sample_adapter(entries, lattice, noise), lattice,
                                      bench.make_params(r, eta),
                                      np.random.default_rng(seed + 2), stats)
                        err = relative_l2_error(got, entries, lattice)
                        assert bench.meets_success_rule(got, entries, err, eta), (
                            r, axis, dims, eta, seed, stats)
                        retries += stats["attempts"] - 1
        assert retries > 0

    @pytest.mark.parametrize("eta", [0.0, NOISE_EDGE * 0.5])
    def test_a_lost_line_reads_uncertified(self, eta):
        # The first attempt's support holds every true line and certifies;
        # without the weakest one it does not, noiseless and at the noise
        # edge, and compute_values raises for md_sfft to retry.  The lost
        # line (amplitude 0.51-0.52) leaves a residual of 0.26-0.31 in the
        # noiseless window and 0.31-0.37 in the noisy one: 4800-6200 times
        # the bound's floor noiseless, and 8.8-10.4 times the bound at the
        # noise edge.  The noisy window's x = 3.78 raises the noise bound by
        # about sqrt(5.3/3.78) = 1.18, and a line's response norm by as much.
        params = bench.make_params(50, eta)
        for seed in range(7100, 7103):
            entries, lattice, noise = bench.random_instance(465, 3, 50, eta, seed)
            truth = {flatten_index(key, lattice): a for key, a in entries.items()}
            support, level = first_attempt(entries, lattice, noise, params,
                                           np.random.default_rng(seed + 2))
            assert set(truth) <= set(support.tolist())
            assert vr.fit_values(support, level, params).certified
            lost = support[support != min(truth, key=truth.get)]
            fit = vr.fit_values(lost, level, params)
            assert fit.residual > 5 * fit.bound, seed
            with pytest.raises(Uncertified, match="residual"):
                compute_values(lost, level, lattice.total, params,
                               np.random.default_rng(0), {}, certify=True)

    def test_identity_matches_the_direct_residual(self):
        # The certificate's residual, from the fit's own rhs and normal
        # matrix, against ||phi - A*a|| written out, on 12 noisy fits: the
        # same to 2e-8 (1e-6 is asked), and 0.89-1.01 of the noise formula.
        for axis, eta in ((10321, 0.01), (465, NOISE_EDGE * 0.5)):
            params = bench.make_params(50, eta)
            for seed in range(6):
                entries, lattice, noise = bench.random_instance(axis, 3, 50, eta, seed)
                support, level = first_attempt(entries, lattice, noise, params,
                                               np.random.default_rng(seed + 2))
                fit = vr.fit_values(support, level, params)
                direct = direct_residual(fit.values, support, level, params)
                assert fit.residual == pytest.approx(direct, rel=1e-6), (axis, seed)
                assert 0.8 <= fit.residual / noise_formula(params, level) <= 1.05
                assert fit.certified

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_bounded_noise_reads_at_most_the_formula(self, data):
        # Noise of modulus at most eta in every sample, alone: every fitted
        # value is dropped, so the residual is the norm the noise leaves in
        # phi, which Parseval bounds by the formula, half the certificate's
        # bound (noise of modulus eta at every sample reads up to 0.99999
        # of it).  With true lines on top the fit certifies: CG's tolerance,
        # eta/(10*mu) at small eta, can leave more than the formula (1.25
        # times it was seen), and up to 0.60 of the bound over 3000 draws.
        r = data.draw(st.integers(1, 60))
        n = data.draw(st.integers(10**4, 1 << 40))
        eta = NOISE_EDGE * 0.5 * data.draw(st.floats(0.0, 1.0))
        on_circle = data.draw(st.booleans())
        params = SupportParams(r_bound=r, eta=eta)
        rng = np.random.default_rng(data.draw(st.integers(0, 1 << 32)))
        lines = np.sort(rng.choice(n, r, replace=False))
        moduli = plan_ladder(n, params.k_base)
        for entries in ({}, dict(zip(lines.tolist(), rng.uniform(0.5, 1.5, r).tolist()))):
            level = LastLevel(BoundedNoise(Sampler(SparseSpectrum(n, entries)), eta, rng,
                                           on_circle), moduli)
            # The last level's rounds, handed to the level as find_support does.
            level.qs = np.array([sample_coprime(moduli[-1], rng) for _ in range(LAST_ROUNDS)])
            level.halves = level.sample_progression(0, level.qs, params.k_base // 2 + 1,
                                                    moduli[-1])
            fit = vr.fit_values(lines, level, params)
            formula = noise_formula(params, level)
            assert fit.bound >= 2 * formula * (1 - 1e-12)
            if entries:
                assert fit.certified
            else:
                assert (fit.values <= params.mu / 2).all()
                assert fit.residual <= formula * (1 + 1e-9)

    @pytest.mark.parametrize("r,axis,dims,eta,samples,draw,steps", [
        (1, 1 << 20, 2, 0.0, 111, 2027757538693294664, 14),
        (3, 465, 3, 0.025, 274, 1680693843047655609, 9),
        (8, 4096, 2, 0.0, 662, 3260820092798964121, 7),
        (15, 10321, 3, 0.01, 2228, 3638137664777985864, 12)])
    def test_below_r_16_runs_as_before(self, r, axis, dims, eta, samples, draw, steps):
        # Below R = 16 the one attempt is the search from K: the distinct
        # samples, the rng's next draw after the run, the ladder and the
        # result are those of the code before the first attempt from K/2.
        entries, lattice, noise = bench.random_instance(axis, dims, r, eta, 7000 + r)
        ledger, rng, stats = SampleLedger(), np.random.default_rng(7002 + r), {}
        got = md_sfft(md_sample_adapter(entries, lattice, noise, ledger), lattice,
                      bench.make_params(r, eta), rng, stats)
        assert (ledger.unique_count, int(rng.integers(1 << 62))) == (samples, draw)
        residual, bound = stats.pop("residual"), stats.pop("bound")
        assert stats.pop("certified") is True
        assert stats == {"attempts": 1, "ladder_steps": steps, "fallbacks": 0, "redraws": 0}
        assert residual <= bound
        assert set(got) == set(entries)
