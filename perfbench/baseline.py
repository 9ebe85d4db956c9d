#!/usr/bin/env python3
"""Re-take the benchmark's baseline and check that it is steady.

    python3 perfbench/baseline.py [--seeds 101-110] [--seconds 25] [WORKLOAD ...]

Run from the repository root.  For each workload (all of them by default)
this runs ``perfbench/run.py --trace 0`` once per seed, one process at a
time, then once with ``--trace 1`` on the first seed.  It writes every
end-to-end metric's values, median and quartiles, their spread (quartile
distance over the median), each run's ``machine_factor`` and the traced runs with
their split of self time by layer into ``perfbench/baseline.json``, keeping
the file's other keys and the workloads not run.  It exits with code 1 if a
run fails or a solve fails, or if a spread other than ``setup_s``'s exceeds
a third of the metric's bound in ``BENCHMARK.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "baseline.json"


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, list[str]]:
    """One benchmark run; returns (its JSON result, its other output lines)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} failed ({done.returncode}):\n{done.stderr}")
    return json.loads(lines[-1]), lines[:-1]


def field(lines: list[str], key: str) -> str:
    return next(line.split()[1] for line in lines if line.startswith(key + " "))


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": median, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None) -> int:
    table = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("workloads", nargs="*", default=[w["name"] for w in table["workloads"]])
    ap.add_argument("--seeds", default="101-110", help="first-last, inclusive")
    ap.add_argument("--seconds", type=float, default=table["run_seconds"])
    args = ap.parse_args(argv)
    first, last = (int(s) for s in args.seeds.split("-"))
    seeds = list(range(first, last + 1))
    bounds = {m["name"]: m["bound"] for m in table["end_to_end"]}

    data = json.loads(OUT.read_text()) if OUT.exists() else {}
    unsteady, failed = [], 0
    for workload in args.workloads:
        values = {name: [] for name in bounds}
        factors, attempted = [], None
        for seed in seeds:
            result, lines = run(workload, seed, args.seconds, 0)
            failed += result["failed"] + (not result["correct"])
            attempted = result["attempted"]
            factors.append(float(field(lines, "machine_factor")))
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: failed {result['failed']}, "
                  f"machine_factor {factors[-1]:.3f}", flush=True)
        metrics = {}
        for name, unit in ((m["name"], m["unit"]) for m in table["end_to_end"]):
            metrics[name] = {**quartiles(values[name]), "unit": unit, "values": values[name]}
            spread = metrics[name]["spread"]
            print(f"  {name}: median {metrics[name]['median']:.6g} {unit}, spread {spread:.3f}")
            if name != "setup_s" and spread > bounds[name] / 3:
                unsteady.append(f"{workload} {name} {spread:.3f}")
        data.setdefault("baseline", {})[workload] = {
            "runs": len(seeds), "seeds": seeds, "attempted_per_run": attempted,
            "machine_factor": {"min": min(factors), "median": statistics.median(factors),
                               "max": max(factors)},
            "metrics": metrics,
        }

        result, lines = run(workload, seeds[0], args.seconds, 1)
        failed += result["failed"] + (not result["correct"])
        data.setdefault("traced", {})[workload] = {
            "seed": seeds[0],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        }
        data.setdefault("traced_split", {})[workload] = {
            line.split()[0].split(".", 1)[1]: json.loads(line.split(maxsplit=1)[1])
            for line in lines if line.startswith("self_share.")
        }
        OUT.write_text(json.dumps(data, indent=1) + "\n")

    for line in unsteady:
        print(f"unsteady: {line}")
    print(f"failed solves or incorrect runs: {failed}")
    return 1 if unsteady or failed else 0


if __name__ == "__main__":
    sys.exit(main())
