"""Layer micro-benchmarks (pytest-benchmark), kept out of the tier-1 suite.

    python -m pytest microbench --benchmark-only -q

Run from the repository root; the package is imported from ``src/``, with one
BLAS thread as ``perfbench/run.py`` pins.
"""

import os
import sys
from pathlib import Path

# Must precede numpy's import, which the test modules do.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
