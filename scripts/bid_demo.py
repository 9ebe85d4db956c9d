#!/usr/bin/env python3
"""Blind deconvolution demo on a synthetic blurred image.

Blurs a 32x32 synthetic image with a 5x5 box kernel, runs SPRING-SARAH with
16 residual tiles, and writes the observation, the recovered image and
kernel (PGM), the trace CSV, and a convergence plot into --out.
"""

import argparse
from pathlib import Path

import numpy as np

from springopt.core import objective
from springopt.harness import io, svgplot
from springopt.harness.datasets import toy_blurred_image
from springopt.problems import BlindDeblurProblem
from springopt.solver import SolverConfig, run


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/bid_demo")
    ap.add_argument("--epochs", type=int, default=150)
    ap.add_argument("--size", type=int, default=32)
    ap.add_argument("--kernel", type=int, default=5)
    ap.add_argument("--tiles", type=int, default=16)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    Z, x_true, y_true = toy_blurred_image(seed=args.seed, size=args.size, kernel=args.kernel)
    adapter = BlindDeblurProblem(Z=Z, kernel_shape=(args.kernel, args.kernel), n_tiles=args.tiles)
    problem = adapter.block_problem()

    cfg = SolverConfig(algorithm="spring-sarah", batch_size=1, epochs=args.epochs, seed=args.seed)
    z0 = adapter.initial_iterate()
    result = run(problem, cfg, z0)
    trace = result.trace
    print(f"objective: {objective(problem, z0):.6f} -> {trace.rows[-1].objective:.6f} "
          f"({len(trace.rows)} epochs, {trace.rows[-1].sfo_calls} SFO)")

    X = result.z.x.reshape(adapter.image_shape)
    Y = result.z.y.reshape(args.kernel, args.kernel)
    print(f"kernel sum={Y.sum():.6f}, max abs error vs true box kernel: "
          f"{np.abs(Y - y_true).max():.4f}")

    io.save_image_pgm(out / "observed.pgm", Z)
    io.save_image_pgm(out / "true.pgm", x_true)
    io.save_image_pgm(out / "recovered.pgm", X)
    io.save_image_pgm(out / "kernel.pgm", Y / max(Y.max(), 1e-12))
    io.write_trace_csv(out / "trace.csv", trace)
    svgplot.emit_plot([("spring-sarah", trace)], out / "objective.svg", xaxis="sfo")
    print(f"artifacts in {out}")


if __name__ == "__main__":
    main()
