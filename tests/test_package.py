import re
import types
from pathlib import Path

import smfft


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
