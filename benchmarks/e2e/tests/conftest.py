"""Self-tests of the benchmark: ``PYTHONPATH=src python -m pytest benchmarks/e2e/tests -q``.

Not collected by tier-1 (``testpaths = ["tests"]``).
"""

import pathlib
import sys

E2E = pathlib.Path(__file__).resolve().parents[1]
ROOT = E2E.parents[1]

for path in (E2E, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
