"""Command-line front end.

Subcommands: ``run`` (one algorithm, seed sweep), ``bench`` (multi-algorithm
comparison against the PALM baseline), ``check-grad``, ``estimate-lipschitz``
and ``plot``.  The problem parameter flags are generated from
``runner.ProblemSpec``'s fields.  A flat ``key=value`` config file
(``--config``) supplies defaults, each converted by its flag's type; explicit
flags override it, and a key that names none of the subcommand's flags is a
usage error.  No flag is abbreviated, and ``--algo`` is ``run``'s alone:
``bench`` takes its algorithms from ``--algos``.

``check-grad`` finite-differences the batch-mean oracles ``grad_x`` and
``grad_y`` on each singleton batch at feasible points near the initial one.
``estimate-lipschitz`` makes the solver's own Lipschitz draws at the initial
point: the full-batch draw is PALM's first, and the ``--batch`` draw, on a
batch from the ``lip_batch`` stream, is a SPRING run's first.

Exit codes: 0 success, 1 runtime failure, 2 usage error (including any
subcommand's solver settings that ``SolverConfig.validate`` rejects, and
``--repeat`` below 1); ``run`` and ``bench`` check their settings before
they create ``--out``, so a usage error writes nothing.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import typing
from pathlib import Path

import numpy as np

from .. import estimators as est
from ..core import Iterate
from ..diagnostics import fd_gradient_check
from ..lipschitz import ALGORITHMS, lipschitz_draw
from ..rng import is_seed, stream_rng
from ..solver import STEP_POLICIES, ConfigError, SolverConfig
from . import io, svgplot
from .runner import PROBLEM_KINDS, ProblemSpec, RunSpec, bench, run_experiment

# ProblemSpec's parameters (every field but the kind and the two paths) with
# their types: each becomes a flag of the same name and default.
_PARAM_TYPES = {
    f.name: next((t for t in typing.get_args(hint) if t is not type(None)), hint)
    for f, hint in zip(dataclasses.fields(ProblemSpec), typing.get_type_hints(ProblemSpec).values())
    if f.name not in ("kind", "data_path", "image_path")
}


def _parse_config_file(path: str) -> dict:
    """Flat key=value file; '#' starts a comment; keys use flag names.

    Values other than booleans stay strings, so argparse converts each with
    its flag's type, as it does a value given on the command line.
    """
    values: dict[str, object] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}: line {lineno}: expected key=value")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        key = key.replace("-", "_")
        low = raw.lower()
        if low in ("true", "yes", "on"):
            values[key] = True
        elif low in ("false", "no", "off"):
            values[key] = False
        else:
            values[key] = raw
    return values


def _problem_parent() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--problem", default="toy-nmf", choices=PROBLEM_KINDS)
    p.add_argument("--data", dest="data", default=None, help="matrix file (CSV or SPMX) for nmf/pca")
    p.add_argument("--image", dest="image", default=None, help="blurred PGM image for bid")
    for f in dataclasses.fields(ProblemSpec):
        if f.name in _PARAM_TYPES:
            p.add_argument("--" + f.name.replace("_", "-"), type=_PARAM_TYPES[f.name], default=f.default,
                           help=f.metadata.get("help"))
    p.add_argument("--config", default=None, help="key=value defaults file")
    return p


def _solver_parent() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--batch", type=int, default=1)
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--steps", default="practical", choices=STEP_POLICIES)
    p.add_argument("--gamma-x", type=float, default=None, help="x step for --steps fixed")
    p.add_argument("--gamma-y", type=float, default=None, help="y step for --steps fixed")
    p.add_argument("--sarah-p", type=float, default=None)
    p.add_argument("--warm-start", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--tol", type=float, default=None, help="gradient-map early-exit tolerance")
    p.add_argument("--lipschitz-const", type=float, default=None)
    return p


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(prog="springopt", allow_abbrev=False,
                                     description="stochastic proximal alternating minimization benchmarks")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", parents=[_problem_parent(), _solver_parent()], allow_abbrev=False,
                           help="run one algorithm over a seed sweep")
    run_p.add_argument("--algo", default="palm", choices=ALGORITHMS)
    run_p.add_argument("--out", default="out")
    run_p.add_argument("--repeat", type=int, default=1)
    run_p.add_argument("--deterministic-timing", action="store_true")

    bench_p = sub.add_parser("bench", parents=[_problem_parent(), _solver_parent()], allow_abbrev=False,
                             help="compare algorithms against the PALM baseline")
    bench_p.add_argument("--out", default="out")
    bench_p.add_argument("--repeat", type=int, default=1)
    bench_p.add_argument("--deterministic-timing", action="store_true")
    bench_p.add_argument("--algos", default=",".join(ALGORITHMS),
                         help="comma-separated list; must include palm")

    grad_p = sub.add_parser("check-grad", parents=[_problem_parent()], allow_abbrev=False,
                            help="finite-difference check of the component gradient oracles")
    grad_p.add_argument("--points", type=int, default=10)
    grad_p.add_argument("--h", type=float, default=1e-6)
    grad_p.add_argument("--grad-tol", type=float, default=1e-5)
    grad_p.add_argument("--seed", type=int, default=0)

    lip_p = sub.add_parser("estimate-lipschitz", parents=[_problem_parent()], allow_abbrev=False,
                           help="the solver's Lipschitz draws at the initial point")
    lip_p.add_argument("--batch", type=int, default=None, help="subsample size for stochastic estimates")
    lip_p.add_argument("--seed", type=int, default=0)

    plot_p = sub.add_parser("plot", allow_abbrev=False, help="render trace CSVs as an SVG")
    plot_p.add_argument("traces", nargs="+")
    plot_p.add_argument("--mode", default="objective", choices=("objective", "gradmap"))
    plot_p.add_argument("--x", dest="xaxis", default="epoch", choices=("epoch", "sfo"))
    plot_p.add_argument("--out", default="plot.svg")

    return parser, sub.choices


def _solver_config(args, algorithm: str) -> SolverConfig:
    # Without both steps the validator rejects --steps fixed; any other policy rejects a lone step here.
    gammas = (args.gamma_x, args.gamma_y)
    fixed = None if None in gammas else gammas
    if fixed is None and gammas != (None, None) and args.steps != "fixed":
        raise ConfigError(f"--gamma-x and --gamma-y need each other and --steps fixed, got --steps {args.steps}")
    return SolverConfig(
        algorithm=algorithm,
        batch_size=args.batch,
        sarah_p=args.sarah_p,
        epochs=args.epochs,
        seed=args.seed,
        step_policy=args.steps,
        fixed_steps=fixed,
        warm_start=args.warm_start,
        grad_map_tolerance=args.tol,
        lipschitz_const=args.lipschitz_const,
    )


def _problem_spec(args) -> ProblemSpec:
    return ProblemSpec(args.problem, args.data, args.image, **{name: getattr(args, name) for name in _PARAM_TYPES})


def _run_spec(args, config: SolverConfig) -> RunSpec:
    return RunSpec(_problem_spec(args), config, args.out, args.repeat, args.deterministic_timing)


def _feasible_points(args, count: int):
    # Point i starts from init_fn(seed + i), so every seed from seed to seed + count - 1 must be one.
    if not is_seed(args.seed):
        raise ConfigError(f"seed must be an integer in [0, 2**64), got {args.seed!r}")
    if count > 0 and not is_seed(last := args.seed + count - 1):
        raise ConfigError(f"the last point's seed {last} is outside [0, 2**64)")
    problem, init_fn = _problem_spec(args).build()
    rng = np.random.default_rng(args.seed)
    for i in range(count):
        z = init_fn(args.seed + i)
        x = problem.prox_x(1.0, z.x + 0.05 * rng.standard_normal(problem.dim_x))
        y = problem.prox_y(1.0, z.y + 0.05 * rng.standard_normal(problem.dim_y))
        yield problem, Iterate(x, y)


def cmd_run(args) -> int:
    summary = run_experiment(_run_spec(args, _solver_config(args, args.algo)))
    for r in summary["runs"]:
        print(
            f"{summary['algorithm']} seed={r['seed']} status={r['status']} "
            f"objective={r['final_objective']:.6g} sfo={r['sfo_calls']}"
        )
    print(f"traces written to {args.out}")
    return 0


def cmd_bench(args) -> int:
    algos = tuple(a.strip() for a in args.algos.split(",") if a.strip())
    # bench replaces the algorithm with each listed one in turn.
    result = bench(_run_spec(args, _solver_config(args, "palm")), algorithms=algos)
    for row in result["rows"]:
        extra = ""
        if row["algorithm"] != "palm":
            extra = f" epochs_to_palm={row['epochs_to_palm_objective']:.4g}"
        print(
            f"{row['algorithm']:<14s} seed={row['seed']} status={row['status']} "
            f"objective={row['final_objective']:.6g} sfo={row['sfo_calls']}{extra}"
        )
    print(f"bench summary written to {Path(args.out) / 'bench_summary.csv'}")
    return 0


def cmd_check_grad(args) -> int:
    worst = 0.0
    for problem, z in _feasible_points(args, args.points):
        worst = max(worst, fd_gradient_check(problem, z, h=args.h))
    print(f"max relative gradient error over {args.points} points: {worst:.3e}")
    if worst > args.grad_tol:
        print(f"FAIL: exceeds tolerance {args.grad_tol:g}", file=sys.stderr)
        return 1
    return 0


def cmd_estimate_lipschitz(args) -> int:
    b = args.batch if args.batch is not None else 1
    problem, init_fn = _problem_spec(args).build()
    SolverConfig(algorithm="spring-sgd", seed=args.seed, batch_size=b).validate(problem.n)
    z = init_fn(args.seed)
    lx, ly, _ = lipschitz_draw(problem, z, np.arange(problem.n))
    print(f"full-batch estimates: L_x={lx:.6g} L_y={ly:.6g}")
    if args.batch is not None:
        batch = est.sample_batch(est.BatchSampler(problem.n, b, stream_rng(args.seed, "lip_batch")))
        sx, sy, _ = lipschitz_draw(problem, z, batch)
        print(f"stochastic estimates (b={args.batch}): L_x={sx:.6g} L_y={sy:.6g}")
    return 0


def cmd_plot(args) -> int:
    traces = [(Path(p).stem, io.read_trace_csv(p)) for p in args.traces]
    svgplot.emit_plot(traces, args.out, mode=args.mode, xaxis=args.xaxis)
    print(f"wrote {args.out}")
    return 0


_COMMANDS = {
    "run": cmd_run,
    "bench": cmd_bench,
    "check-grad": cmd_check_grad,
    "estimate-lipschitz": cmd_estimate_lipschitz,
    "plot": cmd_plot,
}


def cli_dispatch(argv: list[str]) -> int:
    """Parse and execute; returns the process exit code (0/1/2)."""
    parser, subparsers = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None) is not None:
            # The file's keys become the subcommand's defaults; explicit flags still win.
            defaults = _parse_config_file(args.config)
            unknown = sorted(set(defaults) - (set(vars(args)) - {"command", "config"}))
            if unknown:
                raise ValueError(f"{args.config}: unknown keys for {args.command}: {', '.join(unknown)}")
            subparsers[args.command].set_defaults(**defaults)
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[args.command](args)
    except Exception as exc:  # runtime failure contract: exit code 1 ...
        print(f"error: {exc}", file=sys.stderr)
        # ... except for solver settings, which the validator checks.
        return 2 if isinstance(exc, ConfigError) else 1


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
