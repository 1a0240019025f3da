"""The package's public surface."""

import colored_prufer


def test_every_exported_name_resolves():
    names = colored_prufer.__all__
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(colored_prufer, name)] == []
    namespace: dict = {}
    exec("from colored_prufer import *", namespace)
    assert set(names) <= namespace.keys()
