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
