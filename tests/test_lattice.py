from fractions import Fraction

import numpy as np
import pytest

from smfft.errors import EnvelopeError, IndexOutOfRange
from smfft.md_transform import (RankOneLattice, flatten_index, lattice_point,
                                md_sample_adapter, md_sfft, relative_l2_error,
                                unflatten_index)
from smfft.signal import NoiseModel, SampleLedger
from smfft.support_recovery import SupportParams


class TestLattice:
    def test_generator(self):
        assert RankOneLattice(3, 16).generator == (1, 16, 256)
        assert RankOneLattice(1, 40).generator == (1,)

    def test_total(self):
        assert RankOneLattice(3, 16).total == 4096

    def test_flatten_known_pair(self):
        lat = RankOneLattice(2, 4)
        assert flatten_index((1, 2), lat) == 9

    def test_flatten_unflatten_roundtrip(self):
        lat = RankOneLattice(3, 5)
        for flat in range(lat.total):
            assert flatten_index(unflatten_index(flat, lat), lat) == flat

    def test_lattice_point_known_value(self):
        lat = RankOneLattice(2, 4)
        assert lattice_point(3, lat) == (Fraction(3, 16), Fraction(12, 16))

    def test_bounds(self):
        lat = RankOneLattice(2, 4)
        with pytest.raises(IndexOutOfRange):
            flatten_index((4, 0), lat)
        with pytest.raises(IndexOutOfRange):
            unflatten_index(16, lat)
        with pytest.raises(IndexOutOfRange):
            lattice_point(-1, lat)

    def test_no_collisions(self):
        # Distinct multi-indices flatten to distinct 1-D frequencies.
        lat = RankOneLattice(3, 7)
        seen = {flatten_index((a, b, c), lat)
                for a in range(7) for b in range(7) for c in range(7)}
        assert len(seen) == lat.total


class TestAdapter:
    def test_line_restriction_equals_md_signal(self):
        # Sampling the flattened 1-D spectrum at n/N equals evaluating the
        # d-dimensional signal at the n-th lattice point.
        lat = RankOneLattice(2, 8)
        entries = {(1, 2): 1.0, (7, 0): 0.5, (3, 3): 2.0}
        sampler = md_sample_adapter(entries, lat)
        for n in (0, 1, 5, 17, 63):
            x = [float(c) for c in lattice_point(n, lat)]
            expected = sum(v * np.exp(-2j * np.pi * (k[0] * x[0] + k[1] * x[1]))
                           for k, v in entries.items())
            got = sampler.sample_progression(n, 0, 1, lat.total)[0]
            assert got == pytest.approx(expected, abs=1e-10)

    def test_int_keys_for_1d(self):
        # 1-D spectra are keyed by 1-tuples like every other dimension.
        lat = RankOneLattice(1, 32)
        sampler = md_sample_adapter({(5,): 1.0}, lat)
        assert sampler.spectrum.entries == {5: 1.0}
        with pytest.raises(IndexOutOfRange):
            md_sample_adapter({5: 1.0}, lat)

    def test_rejects_non_integer_components(self):
        # Truncating (1.5, 2.9) to (1, 2) would build a wrong spectrum silently.
        with pytest.raises(IndexOutOfRange):
            md_sample_adapter({(1.5, 2.9): 1.0}, RankOneLattice(2, 8))
        sampler = md_sample_adapter({(np.int64(1), np.int32(2)): 1.0},
                                    RankOneLattice(2, 8))
        assert sampler.spectrum.entries == {17: 1.0}

    @pytest.mark.parametrize("key", [5, np.int64(5), (5,), (1, 2), (1, 2, 3, 4)])
    def test_rejects_key_that_is_not_a_d_tuple(self, key):
        with pytest.raises(IndexOutOfRange):
            md_sample_adapter({key: 1.0}, RankOneLattice(3, 8))


class TestRelativeL2Error:
    def test_zero_for_equal(self):
        lat = RankOneLattice(2, 4)
        d = {(1, 2): 1.0}
        assert relative_l2_error(d, d, lat) == 0.0

    def test_missing_entry(self):
        lat = RankOneLattice(1, 8)
        assert relative_l2_error({}, {(3,): 2.0}, lat) == pytest.approx(1.0)

    def test_huge_amplitudes(self):
        # Squaring 1e300 overflows a float; the norms must not.
        lat = RankOneLattice(1, 8)
        truth = {(3,): 1e300, (5,): 2e300}
        assert relative_l2_error({}, truth, lat) == pytest.approx(1.0)
        assert relative_l2_error({(3,): 1e300}, truth, lat) == pytest.approx(2 / 5**0.5)


class TestMdSfft:
    @pytest.mark.parametrize("dims,axis", [(1, 4096), (2, 64), (3, 16)])
    def test_noiseless_recovery(self, dims, axis):
        rng = np.random.default_rng(dims * 7)
        lat = RankOneLattice(dims, axis)
        flat = rng.choice(lat.total, 12, replace=False)
        entries = {unflatten_index(int(j), lat): float(a)
                   for j, a in zip(flat, rng.uniform(0.5, 1.5, 12))}
        sampler = md_sample_adapter(entries, lat)
        got = md_sfft(sampler, lat, SupportParams(r_bound=12),
                      np.random.default_rng(1))
        assert set(got) == set(entries)
        assert relative_l2_error(got, entries, lat) < 1e-9

    def test_noisy_recovery_and_stats(self):
        lat = RankOneLattice(3, 32)
        rng = np.random.default_rng(5)
        flat = rng.choice(lat.total, 20, replace=False)
        entries = {unflatten_index(int(j), lat): float(a)
                   for j, a in zip(flat, rng.uniform(0.5, 1.5, 20))}
        ledger = SampleLedger()
        sampler = md_sample_adapter(entries, lat,
                                    NoiseModel(0.01, 2), ledger)
        stats = {}
        got = md_sfft(sampler, lat, SupportParams(r_bound=20, eta=0.01),
                      np.random.default_rng(3), stats=stats)
        assert set(got) == set(entries)
        assert relative_l2_error(got, entries, lat) < 3e-2
        assert stats["ladder_steps"] >= 1
        assert ledger.unique_count < lat.total

    def test_empty_spectrum(self):
        lat = RankOneLattice(2, 16)
        sampler = md_sample_adapter({}, lat)
        assert md_sfft(sampler, lat, SupportParams(r_bound=4),
                       np.random.default_rng(0)) == {}


class TestEnvelope:
    """A problem outside the envelope raises EnvelopeError while planning,
    before any sample is requested."""

    @pytest.mark.parametrize("dims,axis,r_bound,message", [
        (3, 1 << 16, 4, "padded grid size"),       # N = 2^48
        (5, 1 << 16, 4, "padded grid size"),       # N = 2^80
        (1, 1 << 20, 4400, "base modulus K"),      # K = 133650
    ])
    def test_rejected_before_sampling(self, dims, axis, r_bound, message):
        lat = RankOneLattice(dims, axis)
        ledger = SampleLedger()
        # The last component is the top digit, so at d = 5 the flat index
        # (2^16 - 1) * 2^64 is past int64 and the sampler holds Python ints.
        sampler = md_sample_adapter({(0,) * (dims - 1) + (axis - 1,): 1.0}, lat,
                                    ledger=ledger)
        with pytest.raises(EnvelopeError, match=message):
            md_sfft(sampler, lat, SupportParams(r_bound=r_bound),
                    np.random.default_rng(0))
        assert ledger.total_requests == 0

    def test_edge_of_envelope_runs(self):
        # At R = 1 (K = 18) the ladder pads N = 9 * 2^42 to itself, inside
        # 2^46, and one more point would pad to 9 * 2^43, past it.
        lat = RankOneLattice(1, 9 << 42)
        sampler = md_sample_adapter({(5,): 1.0}, lat)
        got = md_sfft(sampler, lat, SupportParams(r_bound=1), np.random.default_rng(0))
        assert set(got) == {(5,)}
        lat = RankOneLattice(1, (9 << 42) + 1)
        with pytest.raises(EnvelopeError, match="padded grid size"):
            md_sfft(md_sample_adapter({(5,): 1.0}, lat), lat,
                    SupportParams(r_bound=1), np.random.default_rng(0))
