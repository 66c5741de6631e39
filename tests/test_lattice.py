import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smfft import value_recovery
from smfft.errors import EnvelopeError, IndexOutOfRange, ParseError
from smfft.md_transform import (RankOneLattice, flatten_index, md_sample_adapter,
                                md_sfft, relative_l2_error)
from smfft.signal import (NoiseModel, SampleLedger, Sampler, SparseSpectrum,
                          load_signal_spec)
from smfft.support_recovery import SupportParams, plan_attempts, plan_ladder


def multi_indices(flat, lat):
    """Base-M digits, least significant first, of each flat index, by numpy's
    column-major unravel: an inverse independent of flatten_index."""
    digits = np.unravel_index(flat, (lat.axis_size,) * lat.dims, order="F")
    return list(zip(*(d.tolist() for d in digits)))


def same_oracle(sampler, flat_entries, total):
    """Whether ``sampler`` samples the 1-D spectrum ``flat_entries`` exactly."""
    expected = Sampler(SparseSpectrum(total, flat_entries))
    return np.array_equal(sampler.sample_progression(0, 1, total, total),
                          expected.sample_progression(0, 1, total, total))


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
        flat = np.arange(lat.total)
        assert [flatten_index(key, lat) for key in multi_indices(flat, lat)] == flat.tolist()

    def test_bounds(self):
        lat = RankOneLattice(2, 4)
        with pytest.raises(IndexOutOfRange):
            flatten_index((4, 0), lat)

    def test_no_collisions(self):
        # Distinct multi-indices flatten to distinct 1-D frequencies.
        lat = RankOneLattice(3, 7)
        seen = {flatten_index((a, b, c), lat)
                for a in range(7) for b in range(7) for c in range(7)}
        assert len(seen) == lat.total

    @given(st.integers(min_value=1, max_value=3),
           st.integers(min_value=1, max_value=40),
           st.data())
    @settings(max_examples=60, deadline=None)
    def test_unflatten_inverts_flatten_index(self, dims, axis, data):
        lat = RankOneLattice(dims, axis)
        flat = np.array(data.draw(st.lists(
            st.integers(min_value=0, max_value=lat.total - 1), max_size=20)), dtype=np.int64)
        keys = lat.unflatten(flat)
        assert keys == multi_indices(flat, lat)
        assert all(type(c) is int for key in keys for c in key)
        assert [flatten_index(key, lat) for key in keys] == flat.tolist()


# One table of index components for both readers of an index: the spec
# loader, which reads JSON values, and flatten_index, which reads Python and
# numpy ones.  id: (component, accepted)
INDEX_COMPONENTS = {
    "true": (True, False), "false": (False, False), "float": (1.5, False),
    "string": ("1", False), "null": (None, False),
    "numpy-bool": (np.bool_(True), False), "int": (1, True),
    "numpy-int": (np.int64(1), True),
}
JSON_COMPONENTS = {name: row for name, row in INDEX_COMPONENTS.items()
                   if not name.startswith("numpy")}


class TestIndexRule:
    @pytest.mark.parametrize("component,accepted", list(INDEX_COMPONENTS.values()),
                             ids=list(INDEX_COMPONENTS))
    def test_flatten_index(self, component, accepted):
        lat = RankOneLattice(2, 8)
        if accepted:
            assert flatten_index((component, 2), lat) == 17
        else:
            # A boolean used to flatten as 0 or 1: (True, 2) gave 17.
            with pytest.raises(IndexOutOfRange, match="not a 2-tuple of integers"):
                flatten_index((component, 2), lat)

    @pytest.mark.parametrize("component,accepted", list(JSON_COMPONENTS.values()),
                             ids=list(JSON_COMPONENTS))
    def test_load_signal_spec(self, component, accepted, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"dims": 2, "axis_size": 8,
                                    "support": [[component, 2]], "values": [1.0]}))
        if accepted:
            assert load_signal_spec(str(path))[2] == {(1, 2): 1.0}
        else:
            with pytest.raises(ParseError, match="malformed signal spec"):
                load_signal_spec(str(path))

    @pytest.mark.parametrize("component", [True, False, np.bool_(True)],
                             ids=["true", "false", "numpy-bool"])
    def test_boolean_reason(self, component):
        # Both readers refuse a boolean for the same stated reason.
        text = f"boolean {str(component).lower()} is not an integer"
        with pytest.raises(IndexOutOfRange) as raised:
            flatten_index((component, 2), RankOneLattice(2, 8))
        assert str(raised.value.__cause__) == text


class TestAdapter:
    def test_line_restriction_equals_md_signal(self):
        # Sampling the flattened 1-D spectrum at n/N equals evaluating the
        # d-dimensional signal at the n-th lattice point.
        lat = RankOneLattice(2, 8)
        entries = {(1, 2): 1.0, (7, 0): 0.5, (3, 3): 2.0}
        sampler = md_sample_adapter(entries, lat)
        for n in (0, 1, 5, 17, 63):
            x = [(n * g) % lat.total / lat.total for g in lat.generator]
            expected = sum(v * np.exp(-2j * np.pi * (k[0] * x[0] + k[1] * x[1]))
                           for k, v in entries.items())
            got = sampler.sample_progression(n, 0, 1, lat.total)[0]
            assert got == pytest.approx(expected, abs=1e-10)

    def test_int_keys_for_1d(self):
        # 1-D spectra are keyed by 1-tuples like every other dimension.
        lat = RankOneLattice(1, 32)
        sampler = md_sample_adapter({(5,): 1.0}, lat)
        assert same_oracle(sampler, {5: 1.0}, lat.total)
        with pytest.raises(IndexOutOfRange):
            md_sample_adapter({5: 1.0}, lat)

    def test_rejects_non_integer_components(self):
        # Truncating (1.5, 2.9) to (1, 2) would build a wrong spectrum silently.
        with pytest.raises(IndexOutOfRange):
            md_sample_adapter({(1.5, 2.9): 1.0}, RankOneLattice(2, 8))
        sampler = md_sample_adapter({(np.int64(1), np.int32(2)): 1.0},
                                    RankOneLattice(2, 8))
        assert same_oracle(sampler, {17: 1.0}, 64)

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
        entries = dict(zip(multi_indices(flat, lat), rng.uniform(0.5, 1.5, 12).tolist()))
        sampler = md_sample_adapter(entries, lat)
        got = md_sfft(sampler, lat, SupportParams(r_bound=12),
                      np.random.default_rng(1))
        assert set(got) == set(entries)
        assert relative_l2_error(got, entries, lat) < 1e-9

    def test_noisy_recovery_and_stats(self):
        lat = RankOneLattice(3, 32)
        rng = np.random.default_rng(5)
        flat = rng.choice(lat.total, 20, replace=False)
        entries = dict(zip(multi_indices(flat, lat), rng.uniform(0.5, 1.5, 20).tolist()))
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

    def test_any_object_with_sample_progression_is_an_oracle(self):
        # The pipeline calls the oracle's one method and nothing else, so a
        # plain delegating object gives the Sampler's own run.
        lat = RankOneLattice(2, 64)
        rng = np.random.default_rng(11)
        flat = rng.choice(lat.total, 12, replace=False)
        entries = dict(zip(multi_indices(flat, lat), rng.uniform(0.5, 1.5, 12).tolist()))

        class Delegate:
            def __init__(self, sampler):
                self.sampler = sampler

            def sample_progression(self, start, step, count, den):
                return self.sampler.sample_progression(start, step, count, den)

        runs = []
        for wrap in (lambda s: s, Delegate):
            ledger = SampleLedger()
            sampler = wrap(md_sample_adapter(entries, lat, NoiseModel(0.01, 2), ledger))
            got = md_sfft(sampler, lat, SupportParams(r_bound=12, eta=0.01),
                          np.random.default_rng(4))
            runs.append((got, ledger.unique_count))
        assert set(runs[0][0]) == set(entries)
        assert runs[1] == runs[0]

    @pytest.mark.parametrize("e", [-1000, -3, 2, 600, 1000])
    def test_runs_in_units_of_mu(self, e, monkeypatch):
        # The spectrum, mu and eta times 2^e give the same run in units of
        # 2^e: the same draws and exactly 2^e times the values recovered at
        # mu = 0.5, where no rescaling happens.  So do the prime grids, drawn
        # through the same rescaled oracle, when the fit is made to miss.
        lat = RankOneLattice(2, 64)
        rng = np.random.default_rng(9)
        flat = rng.choice(lat.total, 12, replace=False)
        entries = dict(zip(multi_indices(flat, lat), rng.uniform(0.5, 1.5, 12).tolist()))

        def recover(scale, fallback):
            sampler = md_sample_adapter({k: v * scale for k, v in entries.items()},
                                        lat, NoiseModel(0.01 * scale, 2))
            params = SupportParams(r_bound=12, mu=0.5 * scale, eta=0.01 * scale)
            stats = {}
            got = md_sfft(sampler, lat, params, np.random.default_rng(4), stats)
            assert stats["fallbacks"] == fallback
            return got

        for fallback in (0, 1):
            if fallback:
                monkeypatch.setattr(value_recovery, "fit_values", lambda *args: None)
            base = recover(1.0, fallback)
            assert set(base) == set(entries)
            assert recover(math.ldexp(1.0, e), fallback) == {
                k: math.ldexp(v, e) for k, v in base.items()}


class TestEnvelope:
    """A problem outside the envelope raises EnvelopeError while planning,
    before any sample is requested."""

    @pytest.mark.parametrize("dims,axis,r_bound,message", [
        (3, 1 << 16, 4, "padded grid size"),       # N = 2^48
        (5, 1 << 16, 4, "padded grid size"),       # N = 2^80
        (1, 1 << 20, 7339, "base modulus K 131072"),  # bound 130983 rounds up to 2^17
        (1, 1 << 20, 7344, "base modulus K bound"),   # bound 131076 >= 2^17
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

    def test_largest_base_modulus_is_planned(self):
        # R = 7322 has the largest K below 2^17 at the defaults: its bound
        # 130666 rounds up to the even 11-smooth 130680 = 2^3 * 3^3 * 5 *
        # 11^2 (R = 7323-7343 round up to 2^17).
        params = SupportParams(r_bound=7322)
        assert params.k_base == 130680
        assert plan_ladder(1 << 20, params.k_base) == (130680, 392040, 1176120)
        assert plan_ladder(1 << 20, params.k_base, half=True) == (65340, 196020, 1176120)

    def test_first_attempt_from_k_where_k_half_pads_past_the_envelope(self):
        # At R = 50 (K = 686) this 1-D grid pads to 0.99401 * 2^46 from K
        # but to 1.00488 * 2^46 from K/2 = 343, so the only ladder md_sfft
        # searches is the one from K, which no input it took before may lose.
        params, n = SupportParams(r_bound=50), 69_947_341_405_523
        with pytest.raises(EnvelopeError, match="padded grid size"):
            plan_ladder(n, params.k_base, half=True)
        assert plan_attempts(n, params) == [(plan_ladder(n, params.k_base), params.k_base)]
        lat = RankOneLattice(1, n)
        rng = np.random.default_rng(3)
        entries = {(int(j),): float(a) for j, a in
                   zip(rng.choice(n, 50, replace=False), rng.uniform(0.5, 1.5, 50))}
        stats = {}
        got = md_sfft(md_sample_adapter(entries, lat), lat, params,
                      np.random.default_rng(4), stats)
        assert got == pytest.approx(entries, abs=1e-8)
        assert stats["attempts"] == 1 and stats["ladder_steps"] == 14

    def test_edge_of_envelope_runs(self):
        # At R = 1 (K = 9) the ladder pads N = 9 * 6^2 * 7^7 * 8^6, about
        # 63.6 * 2^40, to itself: the largest padded N inside 2^46.  One
        # more point needs 15 growth factors of at most 8 with a larger
        # product, which pads past 2^46.  The line at edge - 1 has the
        # largest flat index, where mulmod's limb products are largest.
        params = SupportParams(r_bound=1)
        edge = 9 * 6**2 * 7**7 * 8**6
        lat = RankOneLattice(1, edge)
        for line in [(5,), (edge - 1,)]:
            sampler = md_sample_adapter({line: 1.0}, lat)
            got = md_sfft(sampler, lat, params, np.random.default_rng(0))
            assert set(got) == {line}
        lat = RankOneLattice(1, edge + 1)
        with pytest.raises(EnvelopeError, match="padded grid size"):
            md_sfft(md_sample_adapter({(5,): 1.0}, lat), lat, params,
                    np.random.default_rng(0))
