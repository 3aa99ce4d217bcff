"""Make ``benchmarks.e2e`` and the program under test importable when
these tests are run on their own (``python -m pytest benchmarks/e2e/tests``)."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[3]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)
