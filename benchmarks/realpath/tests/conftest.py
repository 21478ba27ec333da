"""Make the benchmark's modules importable from its tests.

Run by explicit path (``testpaths`` keeps these out of the tier-1 run):

    PYTHONPATH=src python -m pytest benchmarks/realpath/tests
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
