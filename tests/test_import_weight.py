"""Import-weight guard: importing the package, or its command-line front
end, loads neither ``dataclasses`` nor ``inspect``, which ``dataclasses``
imports.  Every command starts a fresh interpreter and would pay their
import time, about 12 ms without cached bytecode, on each start."""

import os
import subprocess
import sys
from pathlib import Path

import rootsys

# the directory this test imports rootsys from, for the fresh interpreter
SRC = Path(rootsys.__file__).resolve().parent.parent
PROBE = """
import sys
heavy = ("dataclasses", "inspect")
import rootsys
print([m for m in heavy if m in sys.modules])
import rootsys.cli
print([m for m in heavy if m in sys.modules])
"""


def test_import_loads_neither_dataclasses_nor_inspect():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.splitlines() == ["[]", "[]"]
