import re
import runpy
import types
from pathlib import Path

import numpy as np
import pytest

import smfft
from smfft.core_math import sample_coprime
from smfft.md_transform import RankOneLattice
from smfft.signal import Sampler, SparseSpectrum
from smfft.support_recovery import plan_ladder


def test_all_lists_public_names_only():
    for name in smfft.__all__:
        assert hasattr(smfft, name), name
        assert not isinstance(getattr(smfft, name), types.ModuleType), name


def test_readme_library_example_runs():
    # The README's Python example is run as written, so it cannot drift
    # from the library's signatures.
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    (example,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    scope = {}
    exec(example, scope)
    assert set(scope["recovered"]) == set(scope["truth"])


@pytest.mark.parametrize("demo,lines,fragments", [
    # Seeded and inside the envelope: the exact support with no prime-grid
    # fallback, and its first search (from K/2 at R = 50) certified.
    ("recover_3d_noisy.py", ["support exact: True", "attempts: 1", "certified: True"],
     ["prime-grid fallbacks: 0,"]),
    # The 40-point grid is at most 5K/2, so it is sampled whole in 21
    # points, as plan_ladder states.
    ("walkthrough_1d.py", [
        "recovered support: [1, 23, 35]",
        "21 distinct samples of a length-40 signal",
        "base modulus K=32, plan (40,): N = 40 <= 5K/2, so the grid is sampled "
        "whole at modulus 40"], []),
], ids=["recover_3d_noisy", "walkthrough_1d"])
def test_demo_runs(demo, lines, fragments, capsys):
    # RuntimeWarnings are errors under pytest, so a NaN or an overflow in a
    # demo fails here.
    runpy.run_path(str(Path(__file__).parents[1] / "demos" / demo), run_name="__main__")
    out = capsys.readouterr().out
    assert set(lines) <= set(out.splitlines())
    assert all(fragment in out for fragment in fragments)


def test_readme_states_the_package_line_count():
    # The tracked size of the package is stated once, in the README; this
    # keeps that number equal to the source it describes.
    root = Path(__file__).parents[1]
    (stated,) = re.findall(r"The package under `src/` is (\d+) lines",
                           (root / "README.md").read_text())
    total = sum(len(path.read_text().splitlines())
                for path in (root / "src" / "smfft").glob("*.py"))
    assert int(stated) == total


def test_top_level_exports_the_library_only():
    # The stages (find_support, compute_values, LastLevel, ...) are the
    # driver's parts: they are imported from their modules, and md_sfft is
    # the one driver the top level offers.
    assert set(smfft.__all__) == {
        "CandidateBlowup", "ContractionFailure", "EnvelopeError", "IndexOutOfRange",
        "ParseError", "SmfftError",
        "RankOneLattice", "flatten_index", "md_sample_adapter", "md_sfft",
        "relative_l2_error",
        "NoiseModel", "SampleLedger", "Sampler", "SparseSpectrum", "load_signal_spec",
        "SupportParams",
    }


@pytest.mark.parametrize("call,message", [
    (lambda: sample_coprime(1, np.random.default_rng(0)), "modulus must be >= 2"),
    (lambda: RankOneLattice(0, 4), "dims and axis_size must be positive"),
    (lambda: RankOneLattice(2, 0), "dims and axis_size must be positive"),
    (lambda: SparseSpectrum(0, {}), "ambient_size must be positive"),
    (lambda: Sampler(SparseSpectrum(4, {1: 1.0})).sample_progression(0, 1, 0, 4),
     "need den >= 1 and count >= 1"),
    (lambda: Sampler(SparseSpectrum(4, {1: 1.0})).sample_progression(0, 1, 4, 0),
     "need den >= 1 and count >= 1"),
    (lambda: plan_ladder(0, 32), "requested_n must be positive"),
], ids=["coprime-modulus", "lattice-dims", "lattice-axis", "spectrum-size",
        "progression-count", "progression-den", "ladder-size"])
def test_sizes_below_the_minimum_are_value_errors(call, message):
    with pytest.raises(ValueError, match=message):
        call()
