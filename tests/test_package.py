"""The package's public names."""

import mmdreg


def test_every_export_resolves():
    # a name left in __all__ after its definition is gone fails here
    missing = [name for name in mmdreg.__all__ if not hasattr(mmdreg, name)]
    assert missing == []
    assert len(set(mmdreg.__all__)) == len(mmdreg.__all__)
