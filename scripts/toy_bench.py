#!/usr/bin/env python3
"""Five-algorithm comparison on the bundled 50x20 sparse-NMF toy.

Writes per-algorithm trace CSVs, a bench summary, and objective plots
(against epochs and against SFO calls) into --out.
"""

import argparse
from pathlib import Path

from springopt.harness import svgplot
from springopt.harness.runner import ProblemSpec, RunSpec, bench
from springopt.solver import SolverConfig


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/toy_bench")
    ap.add_argument("--epochs", type=int, default=200)
    ap.add_argument("--batch", type=int, default=1)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    spec = RunSpec(
        problem=ProblemSpec("toy-nmf", rank=5, sparsity=10),
        config=SolverConfig(algorithm="palm", batch_size=args.batch, epochs=args.epochs,
                            seed=args.seed),
        out_dir=args.out,
    )
    result = bench(spec)
    for row in result["rows"]:
        extra = "" if row["algorithm"] == "palm" else \
            f"  epochs_to_palm={row['epochs_to_palm_objective']:.4g}"
        print(f"{row['algorithm']:<14s} final={row['final_objective']:.6g} "
              f"sfo={row['sfo_calls']}{extra}")

    out = Path(args.out)
    traces = sorted((f"{row['algorithm']}_seed{row['seed']}", row["trace"]) for row in result["rows"])
    svgplot.emit_plot(traces, out / "objective_vs_epoch.svg", mode="objective", xaxis="epoch")
    svgplot.emit_plot(traces, out / "objective_vs_sfo.svg", mode="objective", xaxis="sfo")
    svgplot.emit_plot(traces, out / "gradmap_vs_epoch.svg", mode="gradmap", xaxis="epoch")
    print(f"plots and traces in {out}")


if __name__ == "__main__":
    main()
