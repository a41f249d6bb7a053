"""Interpreters that the tests start import the package from this checkout,
as the test process does through pytest's ``pythonpath`` setting."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
