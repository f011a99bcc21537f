"""Run the suite from a source checkout: the repository's src directory
goes first on sys.path, and on PYTHONPATH for the `python -m svlie.cli`
child processes, so a bare `python -m pytest` finds svlie."""

import os
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")

sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(
    [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]
)
