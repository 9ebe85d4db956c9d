"""Experiment orchestration: build problems, sweep seeds, persist traces."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path

from ..lipschitz import ALGORITHMS
from ..problems import BlindDeblurProblem, SparseNmfProblem, SparsePcaProblem
from ..solver import DivergenceError, SolverConfig, Trace, TraceRow, run
from . import datasets, io

PROBLEM_KINDS = ("toy-nmf", "toy-pca", "toy-bid", "nmf", "pca", "bid")


@dataclass
class RunSpec:
    """One experiment: a problem, a solver configuration, and a seed sweep.

    ``repeat`` runs use seeds seed, seed+1, ..., seed+repeat-1, each with its
    own independent RNG streams and (for the factorization problems) its own
    random initialization shared across algorithms.
    """

    problem: str
    config: SolverConfig
    out_dir: str
    repeat: int = 1
    problem_params: dict = field(default_factory=dict)
    data_path: str | None = None
    image_path: str | None = None
    deterministic_timing: bool = False

    def validate(self) -> None:
        if self.problem not in PROBLEM_KINDS:
            raise ValueError(f"unknown problem kind {self.problem!r}; expected one of {PROBLEM_KINDS}")
        if self.repeat < 1:
            raise ValueError(f"repeat must be >= 1, got {self.repeat}")
        if self.problem == "nmf" or self.problem == "pca":
            if self.data_path is None:
                raise ValueError(f"problem {self.problem!r} needs a data matrix path")
            if not Path(self.data_path).exists():
                raise FileNotFoundError(f"data matrix not found: {self.data_path}")
        if self.problem == "bid":
            if self.image_path is None:
                raise ValueError("problem 'bid' needs a blurred-image path")
            if not Path(self.image_path).exists():
                raise FileNotFoundError(f"image not found: {self.image_path}")


def build_problem(spec: RunSpec):
    """Instantiate the problem; returns (BlockProblem, init_fn(seed) -> Iterate)."""
    p = spec.problem_params

    if spec.problem in ("toy-nmf", "nmf", "toy-pca", "pca"):
        if spec.problem.startswith("toy"):
            A = datasets.toy_nmf_matrix(seed=p.get("data_seed", 0))
        else:
            A = io.load_matrix(spec.data_path)
        rank = int(p.get("rank", 5))
        if spec.problem.endswith("nmf"):
            adapter = SparseNmfProblem(A=A, r=rank, s=int(p.get("sparsity", max(1, A.shape[0] // 5))))
        else:
            adapter = SparsePcaProblem(
                A=A, r=rank, lam1=float(p.get("lam1", 0.1)), lam2=float(p.get("lam2", 0.1))
            )
        return adapter.block_problem(), adapter.initial_iterate

    ksize = int(p.get("kernel_size", 5))
    if spec.problem == "toy-bid":
        Z, _xt, _yt = datasets.toy_blurred_image(seed=p.get("data_seed", 0), kernel=ksize)
    else:
        Z = io.load_image(spec.image_path)
    adapter = BlindDeblurProblem(
        Z=Z,
        kernel_shape=(ksize, ksize),
        lam=float(p.get("lam", 5e-4)),
        theta=float(p.get("theta", 1e3)),
        n_tiles=int(p.get("tiles", 16)),
    )
    return adapter.block_problem(), lambda seed: adapter.initial_iterate()


def _strip_timing(trace: Trace) -> Trace:
    rows = [TraceRow(r.epoch, r.sfo_calls, r.objective, r.grad_map_norm_sq, 0.0, r.lipschitz_sfo)
            for r in trace.rows]
    return Trace(rows=rows, grad_map_mode=trace.grad_map_mode)


def run_experiment(spec: RunSpec) -> dict:
    """Run the seed sweep, write one trace CSV per run plus a summary.

    Divergence in one run is recorded in the summary and the sweep
    continues.  Returns {algorithm, runs: [{seed, status, trace, ...}]}, each
    ``trace`` being the one written to the run's CSV.
    """
    spec.validate()
    out = Path(spec.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    problem, init_fn = build_problem(spec)
    runs = []
    for seed in range(spec.config.seed, spec.config.seed + spec.repeat):
        try:
            status, trace = "ok", run(problem, replace(spec.config, seed=seed), init_fn(seed)).trace
        except DivergenceError as exc:
            status, trace = "diverged", exc.trace or Trace()
        if spec.deterministic_timing:
            trace = _strip_timing(trace)
        path = out / f"trace_{spec.config.algorithm}_seed{seed}.csv"
        io.write_trace_csv(path, trace)
        final_obj = trace.rows[-1].objective if trace.rows else math.nan
        gnorms = [r.grad_map_norm_sq for r in trace.rows if not math.isnan(r.grad_map_norm_sq)]
        runs.append(
            {
                "seed": seed,
                "status": status,
                "trace_path": str(path),
                "trace": trace,
                "final_objective": final_obj,
                "min_grad_map_norm_sq": min(gnorms) if gnorms else math.nan,
                "sfo_calls": trace.rows[-1].sfo_calls if trace.rows else 0,
            }
        )

    summary = {"algorithm": spec.config.algorithm, "problem": spec.problem, "runs": runs}
    with open(out / f"summary_{spec.config.algorithm}.csv", "w") as fh:
        fh.write("algorithm,seed,status,final_objective,min_grad_map_norm_sq,sfo_calls\n")
        for r in runs:
            fh.write(
                f"{spec.config.algorithm},{r['seed']},{r['status']},"
                f"{format(r['final_objective'], '.17g')},"
                f"{format(r['min_grad_map_norm_sq'], '.17g')},{r['sfo_calls']}\n"
            )
    return summary


def bench(spec: RunSpec, algorithms: tuple[str, ...] = ALGORITHMS) -> dict:
    """Compare algorithms on one problem against the PALM baseline.

    Every algorithm runs the same seeds from the same per-seed starting
    points.  For each stochastic method the summary reports the first traced
    epoch at which its objective reaches PALM's final objective for that
    seed (inf when never reached).  Each row carries its run's ``trace``.
    """
    if "palm" not in algorithms:
        raise ValueError("bench needs the palm baseline in the algorithm list")
    spec.validate()
    out = Path(spec.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    per_algo: dict[str, dict] = {}
    for algo in algorithms:
        sub = replace(spec, config=replace(spec.config, algorithm=algo))
        per_algo[algo] = run_experiment(sub)

    palm_final = {r["seed"]: r["final_objective"] for r in per_algo["palm"]["runs"]}
    rows = []
    for algo in algorithms:
        for r in per_algo[algo]["runs"]:
            target = palm_final.get(r["seed"], math.nan)
            epochs_to_target = math.inf
            if algo != "palm" and r["status"] == "ok":
                for row in r["trace"].rows:
                    if row.objective <= target:
                        epochs_to_target = row.epoch
                        break
            rows.append(
                {
                    "algorithm": algo,
                    "seed": r["seed"],
                    "status": r["status"],
                    "final_objective": r["final_objective"],
                    "sfo_calls": r["sfo_calls"],
                    "epochs_to_palm_objective": 0.0 if algo == "palm" else epochs_to_target,
                    "trace": r["trace"],
                }
            )

    with open(out / "bench_summary.csv", "w") as fh:
        fh.write("algorithm,seed,status,final_objective,sfo_calls,epochs_to_palm_objective\n")
        for r in rows:
            fh.write(
                f"{r['algorithm']},{r['seed']},{r['status']},"
                f"{format(r['final_objective'], '.17g')},{r['sfo_calls']},"
                f"{format(r['epochs_to_palm_objective'], '.17g')}\n"
            )
    return {"problem": spec.problem, "rows": rows, "palm_final": palm_final}
