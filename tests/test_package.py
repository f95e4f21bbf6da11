"""The package's export list."""

import ismkit


def test_every_exported_name_imports():
    namespace: dict = {}
    exec("from ismkit import *", namespace)
    del namespace["__builtins__"]
    assert len(set(ismkit.__all__)) == len(ismkit.__all__)
    assert sorted(namespace) == sorted(ismkit.__all__)
