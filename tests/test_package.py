"""The package's export list and what importing it loads."""

import os
import subprocess
import sys
from pathlib import Path

import ismkit


def test_every_exported_name_imports():
    namespace: dict = {}
    exec("from ismkit import *", namespace)
    del namespace["__builtins__"]
    assert len(set(ismkit.__all__)) == len(ismkit.__all__)
    assert sorted(namespace) == sorted(ismkit.__all__)


def test_importing_the_cli_loads_no_scipy():
    # scipy loads with the first filter design or sift, not at start-up
    package_root = str(Path(ismkit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, ismkit.cli; "
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out.strip() == "[]"
