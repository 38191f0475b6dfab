"""The package's public names."""

import biopt


def test_every_export_resolves():
    missing = [name for name in biopt.__all__ if not hasattr(biopt, name)]
    assert missing == []
