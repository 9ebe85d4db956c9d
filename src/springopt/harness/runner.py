"""Experiment orchestration: specify and build problems, sweep seeds, persist traces.

A ``ProblemSpec`` names one problem and its parameters (the CLI's problem
flags are generated from its fields); ``RunSpec`` adds the solver
configuration and the seed sweep.  ``run_experiment`` sweeps one algorithm;
``bench`` builds the problem once and sweeps every algorithm on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path

from ..core import is_integer, is_real
from ..lipschitz import ALGORITHMS
from ..problems import BlindDeblurProblem, SparseNmfProblem, SparsePcaProblem
from ..rng import is_seed
from ..solver import ConfigError, DivergenceError, SolverConfig, Trace, run
from . import datasets, io

PROBLEM_KINDS = ("toy-nmf", "toy-pca", "toy-bid", "nmf", "pca", "bid")


@dataclass(frozen=True)
class ProblemSpec:
    """One problem: its kind, its input file and its parameters.

    ``data_path`` is the matrix for ``nmf``/``pca`` and ``image_path`` the
    blurred image for ``bid``; the ``toy-*`` kinds generate their data from
    ``data_seed``.  Each kind reads only its own parameters.
    """

    kind: str = "toy-nmf"
    data_path: str | None = None
    image_path: str | None = None
    rank: int = 5
    sparsity: int | None = field(default=None, metadata={"help": "nonzeros per dictionary column"})
    lam1: float = SparsePcaProblem.lam1
    lam2: float = SparsePcaProblem.lam2
    lam: float = BlindDeblurProblem.lam
    theta: float = BlindDeblurProblem.theta
    tiles: int = BlindDeblurProblem.n_tiles
    kernel_size: int = 5
    data_seed: int = 0

    def validate(self) -> None:
        """Raise ``ConfigError`` for a parameter no problem accepts, and ``ValueError`` or
        ``FileNotFoundError`` for an unknown kind or a missing input.  Bounds that depend
        on the data (r <= d, s <= m, a kernel that fits the image) are the adapters'."""
        if self.kind not in PROBLEM_KINDS:
            raise ValueError(f"unknown problem kind {self.kind!r}; expected one of {PROBLEM_KINDS}")
        if not is_seed(self.data_seed):
            raise ConfigError(f"data_seed must be an integer in [0, 2**64), got {self.data_seed!r}")
        counts = {"rank": self.rank, "tiles": self.tiles, "kernel_size": self.kernel_size}
        if self.sparsity is not None:
            counts["sparsity"] = self.sparsity
        for name, value in counts.items():
            if not (is_integer(value) and value >= 1):
                raise ConfigError(f"{name} must be an integer >= 1, got {value!r}")
        for name, zero_ok in (("lam", False), ("theta", False), ("lam1", True), ("lam2", True)):
            value = getattr(self, name)
            if not (is_real(value) and 0 <= value < math.inf and (zero_ok or value > 0)):
                raise ConfigError(f"{name} must be finite and {'>= 0' if zero_ok else '> 0'}, got {value!r}")
        if self.kind in ("nmf", "pca"):
            if self.data_path is None:
                raise ValueError(f"problem {self.kind!r} needs a data matrix path")
            if not Path(self.data_path).exists():
                raise FileNotFoundError(f"data matrix not found: {self.data_path}")
        if self.kind == "bid":
            if self.image_path is None:
                raise ValueError("problem 'bid' needs a blurred-image path")
            if not Path(self.image_path).exists():
                raise FileNotFoundError(f"image not found: {self.image_path}")

    def build(self):
        """Validate, then instantiate; returns (BlockProblem, init_fn(seed) -> Iterate)."""
        self.validate()
        if self.kind in ("toy-nmf", "nmf", "toy-pca", "pca"):
            A = datasets.toy_nmf_matrix(seed=self.data_seed) if self.kind.startswith("toy") \
                else io.load_matrix(self.data_path)
            if self.kind.endswith("nmf"):
                sparsity = max(1, A.shape[0] // 5) if self.sparsity is None else self.sparsity
                adapter = SparseNmfProblem(A=A, r=self.rank, s=sparsity)
            else:
                adapter = SparsePcaProblem(A=A, r=self.rank, lam1=self.lam1, lam2=self.lam2)
            return adapter.block_problem(), adapter.initial_iterate

        if self.kind == "toy-bid":
            Z, _xt, _yt = datasets.toy_blurred_image(seed=self.data_seed, kernel=self.kernel_size)
        else:
            Z = io.load_image(self.image_path)
        adapter = BlindDeblurProblem(Z=Z, kernel_shape=(self.kernel_size, self.kernel_size),
                                     lam=self.lam, theta=self.theta, n_tiles=self.tiles)
        return adapter.block_problem(), lambda seed: adapter.initial_iterate()


@dataclass
class RunSpec:
    """One experiment: a problem, a solver configuration, and a seed sweep.

    ``repeat`` runs use seeds seed, seed+1, ..., seed+repeat-1, each with its
    own independent RNG streams and (for the factorization problems) its own
    random initialization shared across algorithms.
    """

    problem: ProblemSpec
    config: SolverConfig
    out_dir: str
    repeat: int = 1
    deterministic_timing: bool = False

    def validate(self) -> None:
        if not is_integer(self.repeat):
            raise ConfigError(f"repeat must be an integer >= 1, got {self.repeat!r}")
        if self.repeat < 1:
            raise ConfigError(f"repeat must be >= 1, got {self.repeat}")
        # The first seed is SolverConfig.validate's; the sweep must not run past 2**64 - 1.
        if is_seed(self.config.seed) and not is_seed(last := int(self.config.seed) + self.repeat - 1):
            raise ConfigError(f"the sweep's last seed {last} is outside [0, 2**64)")
        self.problem.validate()


def run_experiment(spec: RunSpec) -> dict:
    """Run the seed sweep, write one trace CSV per run plus a summary.

    Divergence in one run is recorded in the summary and the sweep
    continues.  Returns {algorithm, runs: [{seed, status, trace, ...}]}, each
    ``trace`` being the one written to ``trace_{algorithm}_seed{seed}.csv``.
    A configuration the solver rejects raises ``ConfigError`` before anything
    is written.
    """
    spec.validate()
    problem, init_fn = spec.problem.build()
    spec.config.validate(problem.n)
    return _sweep(spec, problem, init_fn)


def _sweep(spec: RunSpec, problem, init_fn) -> dict:
    """``run_experiment`` on an already built problem."""
    out = Path(spec.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    algo = spec.config.algorithm
    runs = []
    # Python integers: a NumPy seed type would wrap past 2**64 - 1 and end the sweep early.
    for seed in range(int(spec.config.seed), int(spec.config.seed) + spec.repeat):
        try:
            status, trace = "ok", run(problem, replace(spec.config, seed=seed), init_fn(seed)).trace
        except DivergenceError as exc:
            status, trace = "diverged", exc.trace
        if spec.deterministic_timing:
            trace = Trace(rows=[row._replace(wall_ms=0.0) for row in trace.rows])
        io.write_trace_csv(out / f"trace_{algo}_seed{seed}.csv", trace)
        gnorms = [r.grad_map_norm_sq for r in trace.rows if not math.isnan(r.grad_map_norm_sq)]
        runs.append(
            {
                "seed": seed,
                "status": status,
                "trace": trace,
                "final_objective": trace.rows[-1].objective if trace.rows else math.nan,
                "min_grad_map_norm_sq": min(gnorms) if gnorms else math.nan,
                "sfo_calls": trace.rows[-1].sfo_calls if trace.rows else 0,
            }
        )

    columns = ("seed", "status", "final_objective", "min_grad_map_norm_sq", "sfo_calls")
    io.write_csv(out / f"summary_{algo}.csv", ("algorithm", *columns),
                 [(algo, *(r[c] for c in columns)) for r in runs])
    return {"algorithm": algo, "runs": runs}


def bench(spec: RunSpec, algorithms: tuple[str, ...] = ALGORITHMS) -> dict:
    """Compare algorithms on one problem against the PALM baseline.

    The problem is built once, and every algorithm runs the same seeds from
    the same per-seed starting points.  For each other method the summary
    reports the first traced epoch at which its objective reaches PALM's
    final objective for that seed (inf when never reached), and PALM's own
    row reports 0.  A seed whose PALM run diverged has no target: every row
    of that seed, PALM's included, reports nan.  An algorithm list without
    ``palm`` or with an unknown name, or a configuration the solver rejects
    for any listed algorithm, raises ``ConfigError`` before anything runs or
    is written.
    """
    unknown = [a for a in algorithms if a not in ALGORITHMS]
    if unknown:
        raise ConfigError(f"unknown algorithm(s) {', '.join(map(repr, unknown))}; expected names from {ALGORITHMS}")
    if "palm" not in algorithms:
        raise ConfigError(f"bench needs the palm baseline in the algorithm list, got {list(algorithms)}")
    spec.validate()
    problem, init_fn = spec.problem.build()
    specs = {algo: replace(spec, config=replace(spec.config, algorithm=algo)) for algo in algorithms}
    for algo_spec in specs.values():
        algo_spec.config.validate(problem.n)
    per_algo = {algo: _sweep(algo_spec, problem, init_fn) for algo, algo_spec in specs.items()}

    # A diverged PALM run's last objective is the blow-up that tripped the cap, not a target.
    targets = {r["seed"]: r["final_objective"] if r["status"] == "ok" else math.nan
               for r in per_algo["palm"]["runs"]}
    rows = []
    for algo in algorithms:
        for r in per_algo[algo]["runs"]:
            target = targets[r["seed"]]
            if math.isnan(target):
                epochs_to_target = math.nan
            elif algo == "palm":
                epochs_to_target = 0.0
            elif r["status"] != "ok":
                epochs_to_target = math.inf
            else:
                epochs_to_target = next((row.epoch for row in r["trace"].rows if row.objective <= target), math.inf)
            rows.append(
                {
                    "algorithm": algo,
                    "seed": r["seed"],
                    "status": r["status"],
                    "final_objective": r["final_objective"],
                    "sfo_calls": r["sfo_calls"],
                    "epochs_to_palm_objective": epochs_to_target,
                }
            )

    columns = ("algorithm", "seed", "status", "final_objective", "sfo_calls", "epochs_to_palm_objective")
    io.write_csv(Path(spec.out_dir) / "bench_summary.csv", columns, [[r[c] for c in columns] for r in rows])
    return {"rows": rows}
