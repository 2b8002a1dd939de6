"""The package's public names."""

import atlc


def test_public_names_resolve_and_do_not_repeat():
    assert len(set(atlc.__all__)) == len(atlc.__all__)
    assert [name for name in atlc.__all__ if not hasattr(atlc, name)] == []
