import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smfft.errors import ParseError
from smfft.md_transform import RankOneLattice, md_sample_adapter
from smfft.signal import (NoiseModel, SampleLedger, Sampler, SparseSpectrum,
                          load_signal_spec, make_noise)

from reference import aliased_spectrum
from reference import make_noise as pinned_make_noise


def direct_sample(entries, n, num, den):
    """Independent evaluation of f((num mod den)/den).

    The phase num*j/den is reduced mod 1 in exact integer arithmetic first,
    so the reference stays accurate even for huge frequency indices.
    """
    return sum(v * np.exp(-2j * np.pi * ((int(num) * int(j)) % den) / den)
               for j, v in entries.items())


class TestSparseSpectrum:
    def test_basic(self):
        s = SparseSpectrum(40, {1: 1.0, 23: 2.0})
        assert s.ambient_size == 40
        assert s.entries == {1: 1.0, 23: 2.0}

    def test_rejects_negative_amplitude(self):
        with pytest.raises(ValueError):
            SparseSpectrum(10, {3: -0.5})

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_rejects_non_finite_amplitude(self, value):
        with pytest.raises(ValueError, match="must be finite and > 0"):
            SparseSpectrum(10, {3: value})

    def test_rejects_out_of_range_index(self):
        with pytest.raises(ValueError):
            SparseSpectrum(10, {10: 1.0})


class TestSampler:
    def test_single_points_match_direct(self):
        entries = {1: 1.0, 23: 1.5, 35: 0.5}
        sampler = Sampler(SparseSpectrum(40, entries))
        for num, den in [(0, 1), (1, 40), (7, 40), (3, 10), (39, 40), (5, 13)]:
            got = sampler.sample_progression(num, 0, 1, den)[0]
            assert got == pytest.approx(direct_sample(entries, 40, num, den),
                                        abs=1e-12)

    def test_progression_matches_pointwise(self):
        entries = {2: 1.0, 17: 0.7, 90: 1.2}
        sampler = Sampler(SparseSpectrum(100, entries))
        got = sampler.sample_progression(3, 7, 50, 101)
        for k in range(50):
            assert got[k] == pytest.approx(
                direct_sample(entries, 100, 3 + 7 * k, 101), abs=1e-10)

    def test_progression_resync_long_run(self):
        # A long run: phase drift along k must stay at rounding level.
        entries = {12345: 1.0, 999983: 0.5}
        sampler = Sampler(SparseSpectrum(1 << 21, entries))
        count = 5000
        got = sampler.sample_progression(11, 13, count, 1 << 21)
        for k in (0, 1, 2047, 2048, 2049, 4095, 4999):
            assert got[k] == pytest.approx(
                direct_sample(entries, 1 << 21, 11 + 13 * k, 1 << 21),
                abs=1e-9)

    def test_indices_past_int64_match_direct(self):
        # A flat index of 2^63 or more keeps the support as Python ints.
        entries = {(1 << 79) + 5: 1.0, 3: 0.5}
        sampler = Sampler(SparseSpectrum(1 << 80, entries))
        got = sampler.sample_progression(0, 1, 4, 7)
        for k in range(4):
            assert got[k] == pytest.approx(direct_sample(entries, 1 << 80, k, 7),
                                           abs=1e-12)

    def test_large_batch_nufft_path_matches_direct(self):
        rng = np.random.default_rng(3)
        n = 465**3
        entries = {int(j): float(v) for j, v in zip(
            rng.choice(n, 64, replace=False), rng.uniform(0.5, 1.5, 64))}
        sampler = Sampler(SparseSpectrum(n, entries))
        count = 4096
        got = sampler.sample_progression(5, 97, count, 10007)
        for k in (0, 1, 100, 2048, 4095):
            assert got[k] == pytest.approx(
                direct_sample(entries, n, 5 + 97 * k, 10007), abs=1e-9)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_progression_matches_exact_reference(self, data):
        # Small moduli, and moduli near 2^46 with start, step and indices
        # near the modulus, where mulmod's products are largest.
        den = data.draw(st.one_of(st.integers(1, 1 << 12),
                                  st.integers((1 << 46) - (1 << 20), 1 << 46)))
        residue = st.one_of(st.integers(0, den - 1),
                            st.integers(max(0, den - 64), den - 1))
        start, step = data.draw(residue), data.draw(residue)
        # Short batches, batches with count * R <= 2^17, and single points.
        count, r = data.draw(st.one_of(
            st.tuples(st.integers(1, 112), st.integers(1, 64)),
            st.tuples(st.integers(1, 2048), st.integers(1, 64)).filter(
                lambda shape: shape[0] * shape[1] <= 1 << 17),
            st.tuples(st.just(1), st.integers(1, 64))))
        # Indices beyond int64 take the sampler's Python-int reduction.
        top = 1 << (70 if data.draw(st.booleans()) else 62)
        index = st.one_of(residue, st.integers(den, top))
        support = data.draw(st.lists(index, min_size=1, max_size=r, unique=True))
        entries = {j: data.draw(st.floats(0.5, 1.5)) for j in support}
        sampler = Sampler(SparseSpectrum(max(support) + 1, entries))
        got = sampler.sample_progression(start, step, count, den)
        ks = np.arange(count, dtype=object)[:, None]
        js = np.array(support, dtype=object)[None, :]
        phase = ((start + ks * step) * js % den).astype(float) / den
        want = np.exp(-2j * np.pi * phase) @ np.array(list(entries.values()))
        scale = sum(entries.values())
        assert np.max(np.abs(got - want)) <= 1e-11 * scale

    def test_longest_request_at_top_of_grid(self):
        # count 2^16 + 1 at den near 2^46: the nufft's centred sum spans
        # +-2^15 modes, and the centre phase is exact integer arithmetic.
        den = (1 << 46) - 59
        rng = np.random.default_rng(46)
        support = [den - 1, den - 2, *rng.integers(1 << 40, den, 6).tolist(), (1 << 62) + 7]
        entries = {j: float(v) for j, v in zip(support, rng.uniform(0.5, 1.5, len(support)))}
        sampler = Sampler(SparseSpectrum(max(support) + 1, entries))
        start, step, count = den - 3, int(rng.integers(1 << 45, den)), (1 << 16) + 1
        got = sampler.sample_progression(start, step, count, den)
        ks = np.arange(count, dtype=object)
        want = np.array([direct_sample(entries, None, num, den)
                         for num in (start + ks * step) % den])
        assert np.max(np.abs(got - want)) <= 1e-11 * sum(entries.values())

    def test_batch_subsampled_is_aliased_spectrum(self):
        # Inverse DFT of the rate-M batch recovers the spectrum folded mod M.
        entries = {1: 1.0, 23: 2.0, 35: 0.25}
        spectrum = SparseSpectrum(40, entries)
        sampler = Sampler(spectrum)
        for m in (10, 20, 40, 7):
            batch = sampler.sample_progression(0, 1, m, m)
            fhat = np.fft.ifft(batch)
            expected = np.zeros(m)
            for j, v in aliased_spectrum(spectrum, m).items():
                expected[j] = v
            assert np.allclose(fhat, expected, atol=1e-10)

    def test_guards(self):
        # A request is exact while den <= 2^46 and its largest numerator,
        # at most (den - 1) * count, stays below 2^63.
        sampler = Sampler(SparseSpectrum(8, {1: 1.0}))
        den = 1 << 46
        out = sampler.sample_progression(0, den - 1, 1 << 17, den)
        assert len(out) == 1 << 17
        last = (1 << 17) - 1
        assert out[last] == pytest.approx(direct_sample({1: 1.0}, 8, last * (den - 1), den))
        with pytest.raises(ValueError, match="exact-arithmetic guards"):
            sampler.sample_progression(0, 1, (1 << 17) + 1, den)
        assert len(sampler.sample_progression(0, 1, (1 << 17) + 1, 8)) == (1 << 17) + 1
        with pytest.raises(ValueError, match="exact-arithmetic guards"):
            sampler.sample_progression(0, 1, 4, (1 << 46) + 2)


class TestBatchedRequests:
    """The oracle contract a batch of rows keeps: the same points, noise and
    ledger entries as one request per row."""

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_array_step_stacks_scalar_requests(self, data):
        # An int64 array of steps returns the scalar requests' rows stacked,
        # bit for bit, noiseless and noisy, and the ledger counts the same
        # points; a 2-D array of steps keeps its shape.
        den = data.draw(st.one_of(st.integers(2, 1 << 12),
                                  st.integers((1 << 46) - (1 << 20), 1 << 46)))
        steps = data.draw(st.lists(st.integers(0, den - 1), min_size=1, max_size=6))
        start = data.draw(st.integers(0, den - 1))
        count = data.draw(st.integers(1, 300))
        lines = data.draw(st.lists(st.integers(0, (1 << 50) - 1), min_size=1, max_size=40,
                                   unique=True))
        spectrum = SparseSpectrum(1 << 50, {j: 0.5 + (j % 7) / 7 for j in lines})
        for noise in (NoiseModel(), NoiseModel(eta=0.01, seed=data.draw(st.integers(0, 99)))):
            one, each = SampleLedger(), SampleLedger()
            got = Sampler(spectrum, noise, one).sample_progression(
                start, np.array(steps, dtype=np.int64), count, den)
            want = np.array([Sampler(spectrum, noise, each).sample_progression(
                start, q, count, den) for q in steps])
            assert got.shape == (len(steps), count)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
            assert (one.total_requests, one.unique_count) == (
                each.total_requests, each.unique_count)
        grid = np.array(steps * 2, dtype=np.int64).reshape(2, len(steps))
        assert Sampler(spectrum).sample_progression(start, grid, count, den).shape == (
            2, len(steps), count)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_point_over_a_multiple_of_its_denominator(self, data):
        # (j*q mod d)/d written as (j*q*f mod d*f)/(d*f), as the support
        # search writes every level over the last modulus: the noise is the
        # same bit for bit, the sample agrees to 2e-14 of the amplitudes'
        # sum, and the ledger counts each point once.  Only the phases
        # round differently over d*f, by about 1e-16 each, and the nufft's
        # kernel correction scales that up at the edge modes: 8.7e-15 was
        # the most over 3000 random draws of these shapes.
        d = data.draw(st.integers(2, 1 << 20))
        f = data.draw(st.integers(1, (1 << 46) // d))
        q = data.draw(st.integers(1, d - 1))
        count = data.draw(st.integers(1, 200))
        lines = data.draw(st.lists(st.integers(0, (1 << 50) - 1), min_size=1, max_size=40,
                                   unique=True))
        spectrum = SparseSpectrum(1 << 50, {j: 0.5 + (j % 7) / 7 for j in lines})
        noise = NoiseModel(eta=0.01, seed=3)
        ledger = SampleLedger()
        low = Sampler(spectrum, noise, ledger).sample_progression(0, q, count, d)
        high = Sampler(spectrum, noise, ledger).sample_progression(0, q * f, count, d * f)
        nums = q * np.arange(count, dtype=np.int64) % d
        assert np.array_equal(make_noise(noise, nums, d).view(np.uint64),
                              make_noise(noise, nums * f, d * f).view(np.uint64))
        assert np.abs(high - low).max() <= 2e-14 * sum(spectrum.entries.values())
        assert ledger.unique_count == len(set(nums.tolist()))
        assert ledger.total_requests == 2 * count


class TestAliasedSpectrum:
    def test_folding_known_signal(self):
        s = SparseSpectrum(40, {1: 1.0, 23: 1.0, 35: 1.0})
        assert sorted(aliased_spectrum(s, 10)) == [1, 3, 5]
        assert sorted(aliased_spectrum(s, 20)) == [1, 3, 15]

    def test_amplitudes_add_on_collision(self):
        s = SparseSpectrum(20, {3: 1.0, 13: 2.0})
        assert aliased_spectrum(s, 10) == {3: 3.0}


class TestNoise:
    def test_deterministic_per_point(self):
        noise = NoiseModel(eta=0.1, seed=5)
        a = make_noise(noise, np.array([3, 7, 9]), 20)
        b = make_noise(noise, np.array([3, 7, 9]), 20)
        assert np.array_equal(a, b)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_reduced_fraction_identified(self, data):
        # 6/20 and 3/10 are the same sample point -> same noise draw; so are
        # n/d and nk/(dk) for any dk up to MAX_MODULUS = 2^46.
        noise = NoiseModel(eta=0.1, seed=5)
        a = make_noise(noise, np.array([6]), 20)
        b = make_noise(noise, np.array([3]), 10)
        assert a[0] == b[0]
        d = data.draw(st.integers(1, 1 << 45))
        k = data.draw(st.integers(1, (1 << 46) // d))
        n = data.draw(st.integers(0, d - 1))
        noise = NoiseModel(eta=0.1, seed=data.draw(st.integers(0, 99)))
        assert make_noise(noise, np.array([n]), d)[0] == \
            make_noise(noise, np.array([n * k]), d * k)[0]

    def test_seed_changes_draw(self):
        a = make_noise(NoiseModel(0.1, 1), np.array([3]), 20)
        b = make_noise(NoiseModel(0.1, 2), np.array([3]), 20)
        assert a[0] != b[0]

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_pinned_reference(self, data):
        # The realization is part of every noisy instance: bit for bit the
        # three-chain formula it was first defined by, at any den, seed and
        # eta, for empty, one-point, 0-d and progression inputs.
        den = data.draw(st.one_of(st.integers(1, 1 << 12),
                                  st.integers(1, 1 << 46),
                                  st.integers((1 << 46) - (1 << 20), 1 << 46)))
        residue = st.integers(0, den - 1)
        noise = NoiseModel(eta=data.draw(st.floats(1e-12, 10.0)),
                           seed=data.draw(st.integers(0, 1 << 32)))
        kind = data.draw(st.sampled_from(["empty", "one", "0-d", "list", "progression"]))
        if kind == "empty":
            nums = np.array([], dtype=np.int64)
        elif kind == "one":
            nums = np.array([data.draw(residue)])
        elif kind == "0-d":
            nums = np.array(data.draw(residue))
        elif kind == "list":
            nums = np.array(data.draw(st.lists(residue, max_size=64)), dtype=np.int64)
        else:
            count = data.draw(st.integers(1, 3000))
            start, step = data.draw(residue), data.draw(residue)
            nums = (start + step * np.arange(count, dtype=object)) % den
            nums = nums.astype(np.int64)
        got, want = make_noise(noise, nums, den), pinned_make_noise(noise, nums, den)
        assert got.shape == want.shape == nums.shape
        assert np.array_equal(np.atleast_1d(got).view(np.uint64),
                              np.atleast_1d(want).view(np.uint64))

    def test_scale(self):
        noise = NoiseModel(eta=0.05, seed=0)
        draws = make_noise(noise, np.arange(1, 20001), 1 << 30)
        std = np.sqrt(np.mean(np.abs(draws) ** 2))
        assert std == pytest.approx(0.05, rel=0.05)

    def test_none_kind_is_zero(self):
        # eta = 0 is the noiseless model, whatever the seed.
        assert not make_noise(NoiseModel(), np.array([1, 2]), 7).any()
        assert not make_noise(NoiseModel(0.0, 3), np.array([1, 2]), 7).any()

    def test_positive_eta_draws_noise(self):
        # Noise is its level: eta > 0 alone makes the samples noisy.
        assert make_noise(NoiseModel(eta=0.1), np.array([1, 2]), 7).all()
        spectrum = SparseSpectrum(64, {3: 1.0})
        clean = Sampler(spectrum).sample_progression(0, 1, 16, 16)
        noisy = Sampler(spectrum, NoiseModel(eta=0.1)).sample_progression(0, 1, 16, 16)
        assert (clean != noisy).all()

    def test_invalid(self):
        with pytest.raises(ValueError):
            NoiseModel(eta=-0.1)
        with pytest.raises(ValueError):
            NoiseModel(eta=float("nan"))

    def test_seed_outside_64_bits(self):
        # The noise is keyed by the seed modulo 2^64; a seed outside
        # [0, 2^64) would alias one inside it.
        for seed in (-1, 2**64):
            with pytest.raises(ValueError, match=r"noise seed must be in \[0, 2\^64\)"):
                NoiseModel(0.0, seed)
        assert NoiseModel(0.0, 2**64 - 1).seed == 2**64 - 1

    def test_sampler_noise_is_repeatable(self):
        spectrum = SparseSpectrum(64, {3: 1.0})
        noise = NoiseModel(eta=0.01, seed=9)
        s1 = Sampler(spectrum, noise).sample_progression(0, 1, 16, 16)
        s2 = Sampler(spectrum, noise).sample_progression(0, 1, 16, 16)
        assert np.array_equal(s1, s2)


@st.composite
def ledger_log(draw):
    """Records (nums, den) rich in repeats: equal points written over several
    denominators, and near pairs n/d, (n - j)/(d - k) with n close to j*d/k,
    which are distinct points sharing one float unless k*n == j*d."""
    log = []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):
            base = draw(st.integers(1, 60))
            scale = draw(st.sampled_from((1, 2, 3, 12, 1 << 20, (1 << 40) + 1)))
            nums = draw(st.lists(st.integers(0, base - 1), max_size=40))
            log.append(([n * scale for n in nums], base * scale))
        else:
            k = draw(st.integers(2, 8))
            j = draw(st.integers(1, k - 1))
            d = draw(st.integers(1 << 45, (1 << 46) - 1))
            if draw(st.booleans()):
                d -= d % k
            n = j * d // k + draw(st.integers(-(1 << 20), 1 << 20))
            log.append(([n, draw(st.integers(0, d - 1))], d))
            log.append(([n - j], d - k))
    return log


class TestLedger:
    def test_counts_reduced_points(self):
        ledger = SampleLedger()
        ledger.record(np.array([2, 4, 6]), 8)   # 1/4, 1/2, 3/4
        ledger.record(np.array([1, 2, 3]), 4)   # same three points
        assert ledger.unique_count == 3
        assert ledger.total_requests == 6

    def test_sampler_records(self):
        ledger = SampleLedger()
        sampler = Sampler(SparseSpectrum(16, {1: 1.0}), ledger=ledger)
        sampler.sample_progression(0, 1, 8, 8)
        sampler.sample_progression(0, 1, 4, 4)  # all 4 points already seen at rate 8
        assert ledger.unique_count == 8
        assert ledger.total_requests == 12

    def test_sampler_without_ledger_records_nothing(self):
        # A ledger no caller can read would keep a copy of every request's
        # points for the sampler's lifetime.
        for sampler in (Sampler(SparseSpectrum(16, {1: 1.0})),
                        md_sample_adapter({(1,): 1.0}, RankOneLattice(1, 16))):
            sampler.sample_progression(0, 1, 8, 8)
            assert sampler.ledger is None

    @given(ledger_log())
    @settings(max_examples=150, deadline=None)
    def test_matches_fraction_count(self, log):
        # Read after every record: each read must see the records before it.
        ledger, points, requests = SampleLedger(), set(), 0
        for nums, den in log:
            ledger.record(np.array(nums, dtype=np.int64), den)
            points.update(Fraction(n, den) for n in nums)
            requests += len(nums)
            assert ledger.unique_count == len(points)
            assert ledger.total_requests == requests
            assert type(ledger.unique_count) is int

    def test_distinct_points_sharing_a_float(self):
        a, b = (23456248071566, (1 << 46) - 1), (23456248071565, (1 << 46) - 4)
        assert a[0] / a[1] == b[0] / b[1] and Fraction(*a) != Fraction(*b)
        ledger = SampleLedger()
        ledger.record(np.array([a[0], 0]), a[1])
        ledger.record(np.array([b[0]]), b[1])
        assert ledger.unique_count == 3
        ledger.record(np.array([2 * b[0]]), 2 * b[1])  # b again
        assert ledger.unique_count == 3

    def test_record_copies_nums(self):
        ledger = SampleLedger()
        nums = np.array([1, 2, 3])
        ledger.record(nums, 8)
        nums[:] = 1  # the caller reuses its buffer
        assert ledger.unique_count == 3

    @pytest.mark.parametrize("nums,den", [([4], 4), ([-1], 4), ([0], 0),
                                          ([0], 1 << 53)])
    def test_rejects_point_outside_exact_range(self, nums, den):
        with pytest.raises(ValueError):
            SampleLedger().record(np.array(nums), den)


class TestLoadSignalSpec:
    def test_roundtrip_3d(self, tmp_path):
        doc = {"dims": 3, "axis_size": 16,
               "support": [[1, 2, 3], [0, 0, 1]], "values": [1.0, 0.5],
               "noise": {"kind": "gaussian", "eta": 0.01, "seed": 4}}
        path = tmp_path / "sig.json"
        path.write_text(json.dumps(doc))
        dims, axis, entries, noise = load_signal_spec(str(path))
        assert (dims, axis) == (3, 16)
        assert entries == {(1, 2, 3): 1.0, (0, 0, 1): 0.5}
        assert noise == NoiseModel(eta=0.01, seed=4)

    def test_scalar_support_1d(self, tmp_path):
        doc = {"dims": 1, "axis_size": 40, "support": [1, 23], "values": [1, 2]}
        path = tmp_path / "sig.json"
        path.write_text(json.dumps(doc))
        dims, axis, entries, noise = load_signal_spec(str(path))
        assert entries == {(1,): 1.0, (23,): 2.0}
        assert noise == NoiseModel()

    @pytest.mark.parametrize("noise", [
        {"kind": "none", "eta": 0.01}, {"eta": 0.01},
        {"kind": "gaussian", "eta": 0.0}, {"kind": "gaussian"},
        {"kind": "pink", "eta": 0.01},
    ], ids=["none-with-eta", "no-kind-with-eta", "gaussian-zero-eta",
            "gaussian-no-eta", "unknown-kind"])
    def test_noise_kind_must_match_eta(self, tmp_path, noise):
        # "none" with eta > 0 used to run noiseless samples against an eta
        # target; the kind now only confirms what eta says.
        path = tmp_path / "sig.json"
        path.write_text(json.dumps({"dims": 1, "axis_size": 8, "support": [1],
                                    "values": [1.0], "noise": noise}))
        with pytest.raises(ParseError, match="does not match eta"):
            load_signal_spec(str(path))

    @pytest.mark.parametrize("extra,message", [
        ({"nosie": {"kind": "gaussian", "eta": 0.01, "seed": 4}},
         "unknown top-level key 'nosie'"),
        ({"noise": {"kind": "gaussian", "eta": 0.01, "sed": 4}}, "unknown noise key 'sed'")],
        ids=["top-level", "noise"])
    def test_unknown_key(self, tmp_path, extra, message):
        # A misspelt key used to fall back to its default: noiseless samples
        # for "nosie", seed 0 for "sed".
        path = tmp_path / "sig.json"
        path.write_text(json.dumps({"dims": 3, "axis_size": 16,
                                    "support": [[1, 2, 3], [0, 0, 1]],
                                    "values": [1.0, 0.5], **extra}))
        with pytest.raises(ParseError, match=message):
            load_signal_spec(str(path))

    def test_length_mismatch(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dims": 1, "axis_size": 4,
                                    "support": [1], "values": [1, 2]}))
        with pytest.raises(ParseError):
            load_signal_spec(str(path))

    @pytest.mark.parametrize("dims,axis,support", [(1, 8, [1.5]), (2, 8, [[1, 2.9]]),
                                                   (2.5, 8, [[1, 2]]), (2, 8.5, [[1, 2]])])
    def test_rejects_non_integer(self, tmp_path, dims, axis, support):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dims": dims, "axis_size": axis,
                                    "support": support, "values": [1.0]}))
        with pytest.raises(ParseError):
            load_signal_spec(str(path))

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load_signal_spec(str(path))

    def test_missing_file(self):
        with pytest.raises(ParseError):
            load_signal_spec("/nonexistent/sig.json")
