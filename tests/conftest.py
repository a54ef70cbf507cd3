"""Tests that run the `newsmkl` CLI in a subprocess need the package under
test on that process's path too, also from a bare checkout: put the
checkout's src/ (the directory pyproject's pytest `pythonpath` adds) first
on PYTHONPATH."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
