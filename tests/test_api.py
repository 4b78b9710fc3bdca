"""The package's public names."""

import labelalign


def test_public_names_resolve_once():
    names = labelalign.__all__
    assert len(names) == len(set(names))
    assert all(hasattr(labelalign, name) for name in names)
    namespace = {}
    exec("from labelalign import *", namespace)
    assert set(names) <= set(namespace)
