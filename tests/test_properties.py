"""Randomized property checks, and the lemma battery one lemma per test.

The battery's measurements (lemma_checks.py) are shared with
test_acceptance.py, which also holds the check that it catches a broken
modular inverse.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smfft.md_transform import RankOneLattice, flatten_index
from smfft.signal import Sampler, SparseSpectrum

from lemma_checks import LEMMAS, measure


def assert_holds(name):
    value, bound = measure(name)
    assert value <= bound, f"{name} {value:.3g} exceeds its bound {bound:.3g}"


class TestLemmaBattery:
    def test_shuffle_isomorphism_exhaustive(self):
        assert_holds("isomorphism failures")

    def test_shuffle_spectrum_identity(self):
        assert_holds("spectrum identity error")

    def test_crt_separation(self):
        assert_holds("separation violations")

    def test_contraction_probability(self):
        assert_holds("contraction failure rate")

    def test_rank1_exactness(self):
        assert_holds("rank-1 error")

    def test_full_battery(self):
        assert len(LEMMAS) == 5
        for name in LEMMAS:
            assert_holds(name)


@given(st.integers(min_value=1, max_value=4),
       st.integers(min_value=2, max_value=12),
       st.data())
@settings(max_examples=60, deadline=None)
def test_flatten_roundtrip_property(dims, axis, data):
    lat = RankOneLattice(dims, axis)
    flat = data.draw(st.integers(min_value=0, max_value=lat.total - 1))
    # numpy's column-major unravel is an inverse independent of flatten_index.
    digits = np.unravel_index(flat, (axis,) * dims, order="F")
    assert flatten_index(digits, lat) == flat


@given(st.integers(min_value=0, max_value=10**6),
       st.integers(min_value=0, max_value=10**6),
       st.integers(min_value=1, max_value=64))
@settings(max_examples=40, deadline=None)
def test_progression_consistent_with_single_samples(start, step, count):
    entries = {3: 1.0, 700001: 0.5}
    sampler = Sampler(SparseSpectrum(1 << 20, entries))
    den = 999983
    batch = sampler.sample_progression(start, step, count, den)
    for k in (0, count // 2, count - 1):
        assert batch[k] == pytest.approx(
            sampler.sample_progression(start + k * step, 0, 1, den)[0], abs=1e-9)


def test_probe_false_positive_rate_is_small():
    # Empirical check of the pruning mechanism: a spurious candidate
    # survives a single shuffle round with probability bounded away from 1
    # (the design rate is ALPHA up to constant-factor slack from grid
    # rounding and window truncation), so the intersection over a level's
    # rounds drives the false-positive rate toward zero geometrically.
    from smfft.core_math import sample_coprime
    from smfft.support_recovery import (INNER_ROUNDS, RHO, SupportParams,
                                        compute_phi, probe_index)

    from reference import aliased_spectrum

    rng = np.random.default_rng(0)
    n = 1 << 14
    params = SupportParams(r_bound=16)
    k = params.k_base
    m = 4 * k
    survived = total = 0
    for trial in range(8):
        support = rng.choice(n, 16, replace=False)
        spectrum = SparseSpectrum(n, {int(j): 1.0 for j in support})
        sampler = Sampler(spectrum)
        truth = set(aliased_spectrum(spectrum, m))
        spurious = [x for x in rng.integers(0, m, 60) if x not in truth]
        q = sample_coprime(m, rng)
        phi, = compute_phi(sampler, m, k, [q], params.probe_x)
        for x in spurious:
            total += 1
            if abs(phi[probe_index(int(x), q, m, k)]) >= params.threshold:
                survived += 1
    rate = survived / total
    assert rate < 0.5
    # The inner levels' rounds keep spurious survivors from compounding:
    # each spurious survivor adds RHO candidates to the next level, and
    # RHO * rate^INNER_ROUNDS <= 1/2 keeps their expected number bounded
    # however deep the ladder.
    assert RHO * rate ** INNER_ROUNDS <= 0.5
