#!/usr/bin/env python3
"""springopt time-to-target benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a springopt checkout; the package is imported from its
``src/`` directory, and the run exits with code 2 before printing anything
when that fails.  With ``--trace 0`` the command times every algorithm's
solves to their targets for ``--seconds`` seconds and prints the end-to-end
metrics; with ``--trace 1`` it repeats the same solves once untraced and once
with spans around every layer and prints the per-layer metrics.  Either way
every solve passes through the correctness gate, and the last line of stdout
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The
metric names and units come from ``BENCHMARK.json`` next to ``perfbench/``.
"""

import os
import sys

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread: multithreaded OpenBLAS makes the 200x500 NMF gradient an
# order of magnitude slower.  Must be set before numpy is imported.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

# A fixed string-hash seed, which Python reads only at start-up, so the
# script replaces itself (same process) once with it set.  Over eight
# interleaved pairs of toy-nmf-c11 runs, random hash seeds spread the
# end-to-end times 0.09-0.15 (quartile distance over median), a fixed one
# 0.06-0.10.
if os.environ.get("PYTHONHASHSEED") != "0":
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable, *sys.argv])

import argparse  # noqa: E402
import platform  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return ap.parse_args(argv)


def load_springopt():
    """Import springopt from this checkout's src/, or return None."""
    sys.path.insert(0, str(SOURCE))
    try:
        import springopt
    except ImportError as exc:
        print(f"perfbench: cannot import springopt from {SOURCE}: {exc}", file=sys.stderr)
        return None
    if Path(springopt.__file__).resolve().parent.parent != SOURCE:
        print(f"perfbench: springopt was imported from {springopt.__file__}, not {SOURCE}",
              file=sys.stderr)
        return None
    return springopt


def environment() -> str:
    import numpy

    threads = " ".join(f"{v}={os.environ.get(v)}" for v in (*THREAD_VARS, "PYTHONHASHSEED"))
    return (f"env: python={platform.python_version()} numpy={numpy.__version__} "
            f"nproc={os.cpu_count()} {threads}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if load_springopt() is None:
        return 2
    print(environment())
    import bench

    return bench.main(args, ROOT)


if __name__ == "__main__":
    sys.exit(main())
