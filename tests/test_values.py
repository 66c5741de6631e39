import numpy as np
import pytest

from smfft import bench
from smfft.errors import ContractionFailure
from smfft.signal import NoiseModel, SampleLedger, Sampler, SparseSpectrum
from smfft.support_recovery import SupportParams
from smfft.value_recovery import (BLOCKS, MeasurementSystem, apply_normal,
                                  back_project, compute_values,
                                  contraction_ok, draw_measurement,
                                  neumann_solve, prime_pool)


def make_instance(n, support, amps):
    spectrum = SparseSpectrum(n, dict(zip(support, amps)))
    return spectrum, Sampler(spectrum)


class TestPrimePool:
    def test_pool_size_exact_power(self):
        # 4 * 5 * log_5(5^3) = 60
        assert len(prime_pool(5, 5**3)) == 60

    def test_base_clamped_for_tiny_r(self):
        assert len(prime_pool(1, 1024)) == 40  # 4 * 1 * log2(1024)


class TestMeasurement:
    def test_residue_maps_and_rhs_shapes(self):
        _, sampler = make_instance(200, [3, 77, 150], [1.0, 1.0, 1.0])
        sys_ = draw_measurement(np.array([3, 77, 150]), 3, 200,
                                np.random.default_rng(0), sampler)
        assert len(sys_.primes) == BLOCKS
        for p, classes, ids, rhs in zip(sys_.primes, sys_.classes,
                                        sys_.class_ids, sys_.rhs):
            assert p > 3
            assert len(rhs) == p // 2 + 1
            assert np.array_equal(classes[ids], np.array([3, 77, 150]) % p)
            assert np.array_equal(classes, np.unique(classes))

    def test_one_request_per_conjugate_pair(self):
        spectrum = SparseSpectrum(200, {3: 1.0, 77: 1.0, 150: 1.0})
        ledger = SampleLedger()
        sys_ = draw_measurement(np.array([3, 77, 150]), 3, 200,
                                np.random.default_rng(0), Sampler(spectrum, ledger=ledger))
        assert ledger.total_requests == sum(p // 2 + 1 for p in sys_.primes)

    @pytest.mark.parametrize("axis,dims,sparsity", [
        (1024, 2, 1024), (1024, 3, 1024), (256, 2, 2100)])
    def test_prime_grids_above_2_16(self, axis, dims, sparsity):
        # The prime pools reach 86017, 133541 and 133999, so some grids hold
        # more than 2^16 points; every request is exact all the same, as
        # (den - 1) * count stays far below 2^63.
        row = bench.run_trial(axis, dims, sparsity, 0.0, 40)
        assert row["success"] == 1

    def test_empty_support_rejected(self):
        _, sampler = make_instance(8, [1], [1.0])
        with pytest.raises(ValueError):
            draw_measurement(np.array([], dtype=np.int64), 1, 8,
                             np.random.default_rng(0), sampler)


class TestOperators:
    def _dense_normal(self, system):
        r = len(system.class_ids[0])
        a = np.zeros((r, r))
        for classes, ids in zip(system.classes, system.class_ids):
            res = classes[ids]
            a += (res[:, None] == res[None, :])
        return a / len(system.primes)

    def test_apply_normal_matches_dense(self):
        rng = np.random.default_rng(1)
        support = sorted(int(j) for j in rng.choice(4096, 20, replace=False))
        _, sampler = make_instance(4096, support, [1.0] * 20)
        system = draw_measurement(np.array(support), 20, 4096, rng, sampler)
        dense = self._dense_normal(system)
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
        system = draw_measurement(support, 5, 1 << 40, rng, sampler)
        x = rng.normal(size=300)
        expected = np.zeros_like(x)
        for p, classes, ids in zip(system.primes, system.classes, system.class_ids):
            assert np.bincount(ids).max() >= 3
            sums = np.zeros(p)
            np.add.at(sums, classes[ids], x)
            expected += sums[classes[ids]]
        assert np.array_equal(apply_normal(system, x), expected / BLOCKS)

    def test_back_project_noiseless_is_normal_times_truth(self):
        # With exact samples, (1/T)(FB)* f0 equals (1/T) B*B fhat.
        rng = np.random.default_rng(2)
        support = sorted(int(j) for j in rng.choice(4096, 15, replace=False))
        amps = rng.uniform(0.5, 1.5, 15)
        _, sampler = make_instance(4096, support, amps)
        system = draw_measurement(np.array(support), 15, 4096, rng, sampler)
        got = back_project(system)
        expected = self._dense_normal(system) @ amps
        assert np.allclose(got, expected, atol=1e-9)

    @pytest.mark.parametrize("eta", [0.0, 0.01])
    def test_back_project_matches_prime_length_ifft(self, eta):
        # The gridded sum agrees with the real part of a complex ifft of the
        # conjugate-filled prime period, noisy samples included.
        rng = np.random.default_rng(6)
        support = np.sort(rng.choice(1 << 30, 40, replace=False))
        spectrum = SparseSpectrum(1 << 30, {int(j): 1.0 for j in support})
        system = draw_measurement(support, 40, 1 << 30, rng,
                                  Sampler(spectrum, NoiseModel(eta, 1)))
        expected = np.zeros(len(support))
        for p, classes, ids, half in zip(system.primes, system.classes,
                                         system.class_ids, system.rhs):
            full = np.concatenate([half, half[(p + 1) // 2 - 1:0:-1].conj()])
            expected += np.fft.ifft(full).real[classes][ids]
        got = back_project(system)
        assert got.dtype == np.float64
        assert np.abs(got - expected / BLOCKS).max() <= 1e-12 * len(support)

    def test_neumann_converges_to_solution(self):
        rng = np.random.default_rng(3)
        support = sorted(int(j) for j in rng.choice(10000, 12, replace=False))
        amps = rng.uniform(0.5, 1.5, 12)
        _, sampler = make_instance(10000, support, amps)
        system = draw_measurement(np.array(support), 12, 10000, rng, sampler)
        solution, norms = neumann_solve(system, 40)
        if contraction_ok(norms):
            assert np.allclose(solution, amps, atol=1e-8)
            assert norms[-1] < norms[0] * 2**-30


class TestContractionCertificate:
    def test_accepts_halving(self):
        assert contraction_ok([1.0, 0.5, 0.25])
        assert contraction_ok([1.0, 0.3, 0.01, 0.5])  # only first two checked

    def test_rejects_slow_decay(self):
        assert not contraction_ok([1.0, 0.9, 0.8])
        assert not contraction_ok([1.0, 0.4, 0.3])

    def test_zero_residual_accepted(self):
        assert contraction_ok([0.0, 0.0, 0.0])

    def test_short_history_accepted(self):
        assert contraction_ok([1.0, 0.9])


class TestComputeValues:
    @pytest.mark.parametrize("seed", range(6))
    def test_noiseless_exact(self, seed):
        rng = np.random.default_rng(seed)
        n = 1 << 16
        support = sorted(int(j) for j in rng.choice(n, 30, replace=False))
        amps = rng.uniform(0.5, 1.5, 30)
        _, sampler = make_instance(n, support, amps)
        values = compute_values(np.array(support), n, SupportParams(r_bound=30),
                                sampler, np.random.default_rng(seed + 50))
        assert sorted(values) == support
        for j, a in zip(support, amps):
            assert values[j] == pytest.approx(a, abs=1e-8)

    def test_spurious_support_entries_pruned(self):
        # Indices passed in that carry no energy recover ~0 and are dropped.
        rng = np.random.default_rng(9)
        n = 1 << 14
        true = [100, 5000, 12000]
        _, sampler = make_instance(n, true, [1.0, 1.0, 1.0])
        padded = sorted(true + [7, 9999])
        values = compute_values(np.array(padded), n, SupportParams(r_bound=5),
                                sampler, np.random.default_rng(1))
        assert sorted(values) == true

    def test_noisy_accuracy(self):
        rng = np.random.default_rng(11)
        n = 1 << 18
        support = sorted(int(j) for j in rng.choice(n, 50, replace=False))
        amps = rng.uniform(0.5, 1.5, 50)
        spectrum = SparseSpectrum(n, dict(zip(support, amps)))
        sampler = Sampler(spectrum, NoiseModel(0.01, 3))
        values = compute_values(np.array(support), n,
                                SupportParams(r_bound=50, eta=0.01), sampler,
                                np.random.default_rng(2))
        err = np.sqrt(sum((values.get(j, 0.0) - a) ** 2
                          for j, a in zip(support, amps)))
        assert err / np.linalg.norm(amps) < 3e-2

    def test_stats_records_redraws(self):
        _, sampler = make_instance(4096, [1, 2000], [1.0, 1.0])
        stats = {}
        compute_values(np.array([1, 2000]), 4096, SupportParams(r_bound=2),
                       sampler, np.random.default_rng(0), stats=stats)
        assert stats["redraws"] >= 0

    def test_empty_support(self):
        _, sampler = make_instance(64, [1], [1.0])
        assert compute_values(np.array([], dtype=np.int64), 64,
                              SupportParams(r_bound=1), sampler,
                              np.random.default_rng(0)) == {}

    def test_contraction_failure_raised(self, monkeypatch):
        # If no draw ever certifies contraction, the redraw loop gives up.
        import smfft.value_recovery as vr
        monkeypatch.setattr(vr, "contraction_ok", lambda norms: False)
        _, sampler = make_instance(4096, [1, 2000], [1.0, 1.0])
        with pytest.raises(ContractionFailure):
            compute_values(np.array([1, 2000]), 4096,
                           SupportParams(r_bound=2, p_fail=1e-2), sampler,
                           np.random.default_rng(0))
