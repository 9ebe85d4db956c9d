"""The benchmark's workloads and how their solves are planned and run.

Every input reaches the solver through springopt's public API: a dataset from
``harness.datasets`` is written to disk and read back with ``harness.io`` (the
CLI's ``--data``/``--image`` path), turned into a problem by an adapter's
``block_problem()``/``initial_iterate()``, and solved with
``solver.run(SolverConfig(...))``.

Each workload derives its data seed and its set of solver seeds from the
workload seed.  A solve's target is the objective PALM reaches after
``target_epochs`` epochs from the same start; a to-target solve runs exactly
the epochs up to the first trace row at or below that target.  Besides those,
every (algorithm, seed) pair makes a fixed-length solve: one epoch without
the warm start, so SAGA and SARAH run their variance-reduced steps from the
first step on, not the SGD steps the shallow targets are reached with.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from springopt import solver
from springopt.harness import datasets, io
from springopt.problems import BlindDeblurProblem, SparseNmfProblem

ALGORITHMS = ("palm", "ipalm", "spring-sgd", "spring-saga", "spring-sarah")
SHORT = {"palm": "palm", "ipalm": "ipalm", "spring-sgd": "sgd", "spring-saga": "saga",
         "spring-sarah": "sarah"}


@dataclass(frozen=True)
class Spec:
    """One workload: its input, its seed-set size and its target rule.

    ``target_epochs`` is PALM's epoch budget that defines each solve's target;
    ``budget_epochs`` is the most epochs any algorithm gets to reach it.
    The batch size is ceil(n / 40), the acceptance-c11 rule.
    """

    kind: str  # "nmf" or "bid"
    n_seeds: int
    target_epochs: int
    budget_epochs: int
    shape: tuple[int, int] = (0, 0)  # nmf: matrix shape
    data_rank: int = 0  # nmf: rank of the generated matrix
    rank: int = 0  # nmf: rank of the factorization
    sparsity: int = 0  # nmf: nonzeros allowed per column of X
    size: int = 0  # bid: side of the generated image
    kernel: int = 0  # bid: side of the blur kernel
    tiles: int = 0  # bid: components
    # Use the bundled dataset (seed 0) instead of a seed-derived one; the
    # workload seed then varies the solver seeds only.
    fixed_data: bool = False


SPECS = {
    "toy-nmf-c11": Spec(kind="nmf", n_seeds=10, target_epochs=2, budget_epochs=30,
                        shape=(50, 20), data_rank=3, rank=5, sparsity=10),
    "nmf-medium": Spec(kind="nmf", n_seeds=6, target_epochs=2, budget_epochs=10,
                       shape=(200, 500), data_rank=10, rank=10, sparsity=40),
    "bid-medium": Spec(kind="bid", n_seeds=8, target_epochs=1, budget_epochs=4,
                       size=64, kernel=9, tiles=16, fixed_data=True),
}


@dataclass
class Instance:
    """A workload's inputs, ready to solve."""

    name: str
    spec: Spec
    problem: object  # springopt.core.BlockProblem
    batch_size: int
    solver_seeds: list[int]
    starts: list  # one springopt.core.Iterate per solver seed
    gate_data: dict
    input_bytes: int


@dataclass
class Plan:
    """One (algorithm, solver seed) solve: its target and calibrated epochs.

    A fixed-length solve has no target and always runs ``epochs`` epochs.
    """

    algorithm: str
    seed: int
    start: object
    target: float | None
    epochs: int | None  # None: missed the target within the budget
    warm_start: bool = True
    diverged: bool = False
    notes: list[str] = field(default_factory=list)


def derive_seeds(name: str, spec: Spec, workload_seed: int) -> tuple[int, list[int]]:
    """(data seed, solver seeds), a fixed function of the workload seed."""
    entropy = [int(workload_seed) & 0xFFFFFFFF, zlib.crc32(name.encode())]
    state = np.random.SeedSequence(entropy).generate_state(1 + spec.n_seeds)
    return 0 if spec.fixed_data else int(state[0]), [int(s) for s in state[1:]]


def setup(name: str, workload_seed: int, workdir: Path) -> Instance:
    """Generate, write, load and construct one workload's inputs."""
    spec = SPECS[name]
    data_seed, seeds = derive_seeds(name, spec, workload_seed)
    if spec.kind == "nmf":
        path = workdir / f"{name}.csv"
        io.save_matrix_csv(path, datasets.toy_nmf_matrix(seed=data_seed, shape=spec.shape,
                                                         rank=spec.data_rank))
        A = io.load_matrix(path)
        adapter = SparseNmfProblem(A=A, r=spec.rank, s=spec.sparsity)
        starts = [adapter.initial_iterate(s) for s in seeds]
        gate_data = {"kind": "nmf", "A": A, "r": spec.rank, "s": spec.sparsity}
    else:
        path = workdir / f"{name}.pgm"
        Z, _image, _kernel = datasets.toy_blurred_image(seed=data_seed, size=spec.size,
                                                        kernel=spec.kernel)
        io.save_image_pgm(path, Z)
        Z = io.load_image(path)
        adapter = BlindDeblurProblem(Z=Z, kernel_shape=(spec.kernel, spec.kernel), n_tiles=spec.tiles)
        starts = [adapter.initial_iterate()] * len(seeds)
        gate_data = {"kind": "bid", "Z": Z, "kernel": spec.kernel, "lam": adapter.lam,
                     "theta": adapter.theta}
    problem = adapter.block_problem()
    batch = math.ceil(problem.n / 40)
    return Instance(name, spec, problem, batch, seeds, starts, gate_data, path.stat().st_size)


def config(inst: Instance, algorithm: str, seed: int, epochs: int, track: bool = True,
           warm_start: bool = True):
    return solver.SolverConfig(algorithm=algorithm, batch_size=inst.batch_size, epochs=epochs,
                               seed=seed, track_grad_map=track, warm_start=warm_start)


def first_hit(trace, target: float) -> int | None:
    """1-based index of the first trace row at or below ``target``."""
    return next((i + 1 for i, row in enumerate(trace.rows) if row.objective <= target), None)


def calibrate(inst: Instance) -> list[Plan]:
    """Targets and epochs-to-target for every (algorithm, seed) solve.

    Runs are bit-reproducible and a shorter run is a prefix of a longer one,
    so short runs are tried first and the full budget only if they miss;
    PALM's own plan comes from the run that set the target.  Calibration
    runs skip the gradient-map diagnostic, which does not change the
    iterates; the gate re-checks every timed solve against its target.
    """
    spec = inst.spec
    stages = sorted({1, min(spec.target_epochs + 1, spec.budget_epochs), spec.budget_epochs})
    plans = []
    for seed, z0 in zip(inst.solver_seeds, inst.starts):
        palm = solver.run(inst.problem, config(inst, "palm", seed, spec.target_epochs, False), z0)
        target = palm.trace.rows[-1].objective
        plans.append(Plan("palm", seed, z0, target, first_hit(palm.trace, target)))
        for algo in ALGORITHMS[1:]:  # every algorithm but PALM
            plan = Plan(algo, seed, z0, target, None)
            for epochs in stages:
                try:
                    result = solver.run(inst.problem, config(inst, algo, seed, epochs, False), z0)
                except solver.DivergenceError as exc:
                    plan.diverged = True
                    plan.notes.append(f"diverged: {exc}")
                    break
                plan.epochs = first_hit(result.trace, target)
                if plan.epochs is not None:
                    break
            if plan.epochs is None and not plan.diverged:
                plan.notes.append(f"missed the target within {spec.budget_epochs} epochs")
            plans.append(plan)
    return plans


def epoch_plans(inst: Instance) -> list[Plan]:
    """The fixed-length solves: one cold epoch of every (algorithm, seed).

    With SolverConfig defaults SAGA and SARAH step like SGD through their
    first (warm-start) epoch; without it SAGA steps with its corrected
    estimate from a zero table and SARAH refreshes, then recurses.
    """
    return [Plan(algo, seed, z0, None, 1, warm_start=False)
            for seed, z0 in zip(inst.solver_seeds, inst.starts) for algo in ALGORITHMS]


def solve(inst: Instance, plan: Plan, problem=None, run=None):
    """One solve of ``plan``; returns (RunResult or None, error or None).

    A plan that missed its target is solved for the full budget, so the miss
    is charged the budget's time.
    """
    epochs = plan.epochs if plan.epochs is not None else inst.spec.budget_epochs
    cfg = config(inst, plan.algorithm, plan.seed, epochs, warm_start=plan.warm_start)
    try:
        return (run or solver.run)(problem or inst.problem, cfg, plan.start), None
    except solver.DivergenceError as exc:
        return None, exc
