import types

import smfft


def test_all_lists_public_names_only():
    for name in smfft.__all__:
        assert hasattr(smfft, name), name
        assert not isinstance(getattr(smfft, name), types.ModuleType), name
