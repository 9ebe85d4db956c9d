"""Iteration engines: deterministic PALM, inertial PALM, and their
stochastic counterparts (SGD / SAGA / SARAH estimators).

One step updates the blocks in strict Gauss-Seidel order: the x-block moves
first using a gradient (estimate) at (x_k, y_k), then the y-block moves
using a gradient (estimate) at (x_{k+1}, y_k).

Cost accounting: ``sfo_calls`` counts stochastic first-order oracle queries:
2n per PALM step; 2b per SGD or SAGA step (the SAGA table refresh reuses the
estimate's evaluations); for SARAH, 2n on a refresh and 2b on a recursive
step.  A recursive SARAH query for component j is charged once per block
even though it evaluates the component's partial gradient at both the new
and the old point (the usual complexity convention for recursive
estimators), so raw gradient evaluations exceed ``sfo_calls`` by 2b on such
steps.  Per-epoch trace evaluations (objective and gradient map) and
Lipschitz estimation are excluded; Lipschitz work is reported in its own
trace column.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import estimators as est
from .core import BlockProblem, Iterate, NonFiniteIterateError, full_grad_x, full_grad_y, objective, prox_generic
from .diagnostics import generalized_gradient_map
from .lipschitz import (
    ALGORITHMS,
    EPS_LIPSCHITZ,
    ipalm_momentum,
    practical_step_sizes,
    theoretical_step_bound,
)
from .rng import all_streams

STEP_POLICIES = ("practical", "theoretical", "fixed")

# Abort when the objective exceeds this multiple of its initial magnitude.
DIVERGENCE_FACTOR = 1e6


class DivergenceError(RuntimeError):
    """Raised when a run produces non-finite iterates or a blown-up objective.

    Carries a diagnostic ``snapshot`` dict and, when raised from ``run``,
    the partial ``trace`` recorded so far.
    """

    def __init__(self, message: str, snapshot: dict | None = None, trace: "Trace | None" = None):
        super().__init__(message)
        self.snapshot = snapshot or {}
        self.trace = trace


@dataclass
class SolverConfig:
    """Everything a run needs besides the problem and the starting point."""

    algorithm: str
    batch_size: int = 1
    sarah_p: float | None = None  # defaults to n
    epochs: int = 1
    seed: int = 0
    step_policy: str = "practical"
    fixed_steps: tuple[float, float] | None = None
    warm_start: bool = True
    grad_map_tolerance: float | None = None
    lipschitz_refresh: bool = True
    lipschitz_const: float | None = None  # used by the theoretical policy
    power_iterations: int = 5
    track_grad_map: bool = True
    record_every_iteration: bool = False

    def validate(self, n: int) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}; expected one of {ALGORITHMS}")
        if self.step_policy not in STEP_POLICIES:
            raise ValueError(f"unknown step policy {self.step_policy!r}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if not 1 <= self.batch_size <= n:
            raise ValueError(f"batch size must satisfy 1 <= b <= n={n}, got {self.batch_size}")
        if self.sarah_p is not None and self.sarah_p < 1:
            raise ValueError(f"SARAH period must satisfy p >= 1, got {self.sarah_p}")
        if self.step_policy == "fixed" and self.fixed_steps is None:
            raise ValueError("fixed step policy needs fixed_steps=(gamma_x, gamma_y)")
        if self.step_policy == "theoretical" and self.algorithm == "spring-sgd":
            raise ValueError("the theoretical step policy applies to variance-reduced estimators only")


class TraceRow(NamedTuple):
    epoch: float
    sfo_calls: int
    objective: float
    grad_map_norm_sq: float
    wall_ms: float
    lipschitz_sfo: int


@dataclass
class Trace:
    """Per-epoch record of a run.  ``epoch`` is SFO-normalized: sfo/(2n)."""

    rows: list[TraceRow] = field(default_factory=list)
    grad_map_mode: str = "gauss-seidel"


class RunResult(NamedTuple):
    z: Iterate
    trace: Trace
    estimator_state: object | None


# ---------------------------------------------------------------------------
# Single steps
# ---------------------------------------------------------------------------


def _guarded_iterate(x: np.ndarray, y: np.ndarray, context: str) -> Iterate:
    """Build the iterate a half-step produced; ``Iterate``'s own finiteness
    check is the only scan, and its failure is reported as divergence."""
    try:
        return Iterate(x, y)
    except NonFiniteIterateError:
        raise DivergenceError(
            f"non-finite iterate after {context}",
            snapshot={"max_abs_x": float(np.max(np.abs(x))), "max_abs_y": float(np.max(np.abs(y)))},
        ) from None


def _palm_sweep(problem, z, gamma_x, gamma_y):
    """PALM step plus the full gradients it took, at z and at (x_next, y)."""
    gx = full_grad_x(problem, z)
    x_next = prox_generic(problem.prox_x, gamma_x, z.x - gamma_x * gx)
    mid = _guarded_iterate(x_next, z.y, "palm x-update")
    gy = full_grad_y(problem, mid)
    y_next = prox_generic(problem.prox_y, gamma_y, z.y - gamma_y * gy)
    return _guarded_iterate(x_next, y_next, "palm y-update"), (gx, gy)


def palm_step(problem: BlockProblem, z: Iterate, gamma_x: float, gamma_y: float) -> Iterate:
    """One deterministic alternating prox-gradient sweep."""
    return _palm_sweep(problem, z, gamma_x, gamma_y)[0]


def ipalm_step(
    problem: BlockProblem,
    z: Iterate,
    z_prev: Iterate,
    gamma_x: float,
    gamma_y: float,
    beta: float,
) -> Iterate:
    """PALM step from inertially extrapolated points.

    Each block extrapolates by beta * (current - previous) before its
    prox-gradient update; the y-gradient sees the already-updated x.
    """
    x_bar = z.x + beta * (z.x - z_prev.x)
    gx = full_grad_x(problem, Iterate(x_bar, z.y))
    x_next = prox_generic(problem.prox_x, gamma_x, x_bar - gamma_x * gx)
    y_bar = z.y + beta * (z.y - z_prev.y)
    gy = full_grad_y(problem, _guarded_iterate(x_next, y_bar, "ipalm x-update"))
    y_next = prox_generic(problem.prox_y, gamma_y, y_bar - gamma_y * gy)
    return _guarded_iterate(x_next, y_next, "ipalm y-update")


@dataclass
class EstimatorDriver:
    """Mutable estimator context threaded through spring steps.

    Owns the batch samplers, the SARAH coin stream, the estimator state and
    the previous iterate SARAH's recursion needs.  ``warm`` switches the
    estimates to plain SGD while still populating SAGA tables (the SARAH
    recursion then restarts with a forced refresh once warm ends).
    """

    kind: str  # sgd | saga | sarah
    sampler_x: est.BatchSampler
    sampler_y: est.BatchSampler
    coin_rng: np.random.Generator | None = None
    saga: est.SagaState | None = None
    sarah: est.SarahState | None = None
    z_prev: Iterate | None = None
    warm: bool = False
    sarah_needs_refresh: bool = True


def spring_step(
    problem: BlockProblem,
    z: Iterate,
    driver: EstimatorDriver,
    gamma_x: float,
    gamma_y: float,
) -> tuple[Iterate, int]:
    """One stochastic alternating step; returns (z_next, sfo_used).

    Estimator state inside ``driver`` is advanced as a side effect (SAGA
    table rows refreshed with the evaluations already made for the
    estimate; SARAH estimates and previous-iterate memory updated).
    """
    if gamma_x <= 0 or gamma_y <= 0:
        raise ValueError(f"step sizes must be positive, got ({gamma_x}, {gamma_y})")
    batch_x = est.sample_batch(driver.sampler_x)
    kind = "sgd" if driver.warm else driver.kind

    if kind == "sarah":
        refresh = est.sarah_refresh_coin(driver.sarah, driver.coin_rng) or driver.sarah_needs_refresh
        z_old = driver.z_prev if driver.z_prev is not None else z
        gx = est.sarah_estimate_x(problem, batch_x, z, z_old, driver.sarah, refresh=refresh)
    elif driver.saga is None:
        gx = est.sgd_estimate_x(problem, batch_x, z)
    else:
        fresh_x = est.batch_grads_x(problem, batch_x, z.x, z.y)
        saga_x, sgd_x = est.saga_update_table_x(driver.saga, batch_x, fresh_x)
        gx = saga_x if kind == "saga" else sgd_x
    sfo = problem.n if kind == "sarah" and refresh else len(batch_x)

    x_next = prox_generic(problem.prox_x, gamma_x, z.x - gamma_x * gx)
    mid = _guarded_iterate(x_next, z.y, "spring x-update")

    batch_y = est.sample_batch(driver.sampler_y)
    if kind == "sarah":
        z_old_y = Iterate(z.x, driver.z_prev.y) if driver.z_prev is not None else mid
        gy = est.sarah_estimate_y(problem, batch_y, mid, z_old_y, driver.sarah, refresh=refresh)
        driver.sarah_needs_refresh = False
    elif driver.saga is None:
        gy = est.sgd_estimate_y(problem, batch_y, mid)
    else:
        fresh_y = est.batch_grads_y(problem, batch_y, mid.x, mid.y)
        saga_y, sgd_y = est.saga_update_table_y(driver.saga, batch_y, fresh_y)
        gy = saga_y if kind == "saga" else sgd_y
    sfo += problem.n if kind == "sarah" and refresh else len(batch_y)

    y_next = prox_generic(problem.prox_y, gamma_y, z.y - gamma_y * gy)
    z_next = _guarded_iterate(x_next, y_next, "spring y-update")
    driver.z_prev = z
    return z_next, sfo


# ---------------------------------------------------------------------------
# Full runs
# ---------------------------------------------------------------------------


# The stochastic-Lipschitz envelope forgets old draws with a half-life of
# this many epochs.
_LIP_ENVELOPE_HALFLIFE_EPOCHS = 2.0


class _LipschitzEnvelope:
    """Track the supremum of subsampled curvature draws per block.

    The Lipschitz constant of a stochastic gradient must cover every batch
    realization; a size-b power-method draw only samples one batch.  Using
    each draw directly is unstable for small b (one weak dictionary column
    in the Lipschitz batch yields a near-zero estimate and hence an enormous
    step, while the gradient batch can realize much larger curvature), so
    step sizing uses a decaying running maximum of the draws: new draws lift
    it instantly, and it halves over ~2 epochs when the landscape genuinely
    flattens.  Full-batch draws (PALM, inertial PALM) bypass the envelope.

    Every draw of a run goes through ``pair``, which charges ``sfo`` with the
    power method's iterations + 1 operator applications per block.
    """

    def __init__(self, problem, z0, rng, iterations, decay):
        self.problem = problem
        self.rng = rng
        self.iterations = iterations
        self.decay = decay
        self.env_x = 0.0
        self.env_y = 0.0
        self.sfo = 0
        self._z0 = z0

    def pair(self, z, batch):
        """One (L_x, L_y) draw; an application on ``batch`` (None: all n) costs its size."""
        problem, iters = self.problem, self.iterations
        if problem.lipschitz_x is None or problem.lipschitz_y is None:
            raise ValueError(
                "the practical/theoretical step policies need the problem's Lipschitz hooks; "
                "use step_policy='fixed' for problems without them"
            )
        self.sfo += 2 * (iters + 1) * (problem.n if batch is None else len(batch))
        lx = float(problem.lipschitz_x(z.x, z.y, batch, self.rng, iters))
        ly = float(problem.lipschitz_y(z.x, z.y, batch, self.rng, iters))
        return lx, ly

    def estimate(self, z, batch):
        lx, ly = self.pair(z, batch)
        if batch is None:
            return lx, ly
        self.env_x = max(lx, self.decay * self.env_x)
        self.env_y = max(ly, self.decay * self.env_y)
        if min(self.env_x, self.env_y) <= EPS_LIPSCHITZ:
            # Degenerate from the start; anchor on the full-batch curvature.
            fx, fy = self.pair(self._z0, None)
            self.env_x = max(self.env_x, fx)
            self.env_y = max(self.env_y, fy)
        return self.env_x, self.env_y


def run(problem: BlockProblem, config: SolverConfig, z0: Iterate) -> RunResult:
    """Execute ``epochs`` passes of the configured algorithm from z0.

    Appends one trace row per epoch (or per iteration when
    ``record_every_iteration``): SFO-normalized epoch, cumulative SFO count,
    full objective, squared gradient-map norm evaluated with half the
    current step sizes and the actual post-update x, wall time, and the
    separately-counted Lipschitz-estimation work.  Exits early once the
    gradient-map norm drops below ``grad_map_tolerance``.
    """
    n = problem.n
    config.validate(n)
    algo = config.algorithm
    stochastic = algo.startswith("spring-")
    kind = algo.split("-", 1)[1] if stochastic else None
    b = config.batch_size if stochastic else n
    sarah_p = config.sarah_p if config.sarah_p is not None else float(n)
    streams = all_streams(config.seed)
    trace = Trace()

    driver = None
    if stochastic:
        driver = EstimatorDriver(
            kind=kind,
            sampler_x=est.BatchSampler(n, b, streams["batch_x"]),
            sampler_y=est.BatchSampler(n, b, streams["batch_y"]),
            coin_rng=streams["sarah_coin"],
            warm=config.warm_start and kind in ("saga", "sarah"),
        )
        if kind == "saga":
            driver.saga = est.SagaState.from_problem(problem)
        elif kind == "sarah":
            driver.sarah = est.SarahState(np.zeros(problem.dim_x), np.zeros(problem.dim_y), sarah_p)

    steps_per_epoch = 1 if not stochastic else math.ceil(n / b)
    lip_batch_sampler = est.BatchSampler(n, b, streams["lip_batch"]) if stochastic else None

    phi0 = objective(problem, z0)
    divergence_cap = DIVERGENCE_FACTOR * max(1.0, abs(phi0))

    lip_decay = 0.5 ** (b / (_LIP_ENVELOPE_HALFLIFE_EPOCHS * n))
    lip_guard = _LipschitzEnvelope(problem, z0, streams["power_init"], config.power_iterations, lip_decay)

    # Theoretical policy: constant steps from the variance-reduction bound.
    theo_steps = None
    if config.step_policy == "theoretical":
        L = config.lipschitz_const
        if L is None:
            L = max(lip_guard.pair(z0, None))
        if algo in ("palm", "ipalm"):
            theo_steps = (1.0 / L, 1.0 / L)
        else:
            v1, _v2, vu, rho = est.estimator_constants(kind, n=n, b=b, p=sarah_p, L=L, M=L)
            bound = theoretical_step_bound(L, v1, vu, rho, variant="rate")
            gamma = min(bound, (1.0 - 1e-9) / (4.0 * L))
            theo_steps = (gamma, gamma)

    frozen_practical = None
    if config.step_policy == "practical" and not config.lipschitz_refresh:
        batch = est.sample_batch(lip_batch_sampler) if stochastic else None
        frozen_practical = lip_guard.estimate(z0, batch)

    z = z0
    z_prev = z0
    sfo_calls = 0
    start = time.perf_counter()
    k = 0
    stop = False

    def append_row(z_now, z_pre_step, x_next, gx_step, gy_step, step_grads):
        nonlocal stop
        if config.track_grad_map:
            gmap = generalized_gradient_map(problem, z_pre_step, x_next, gx_step / 2.0, gy_step / 2.0,
                                            grads=step_grads)
            gnorm = gmap.norm_sq
        else:
            gnorm = float("nan")
        phi = objective(problem, z_now)
        wall = (time.perf_counter() - start) * 1e3
        trace.rows.append(TraceRow(sfo_calls / (2.0 * n), sfo_calls, phi, gnorm, wall, lip_guard.sfo))
        if phi > divergence_cap:
            raise DivergenceError(
                f"objective {phi:.3e} exceeded {DIVERGENCE_FACTOR:g} x its initial magnitude",
                snapshot={"iteration": k, "objective": phi, "initial": phi0},
                trace=trace,
            )
        if config.grad_map_tolerance is not None and gnorm <= config.grad_map_tolerance:
            stop = True

    try:
        for epoch in range(config.epochs):
            if driver is not None:
                driver.warm = config.warm_start and driver.kind in ("saga", "sarah") and epoch == 0
                if driver.kind == "sarah" and config.warm_start and epoch == 1:
                    driver.sarah_needs_refresh = True
            for _ in range(steps_per_epoch):
                k += 1
                # Step sizes for this iteration.
                if config.step_policy == "fixed":
                    gx_step, gy_step = config.fixed_steps
                elif config.step_policy == "theoretical":
                    gx_step, gy_step = theo_steps
                else:
                    if frozen_practical is not None:
                        lx, ly = frozen_practical
                    else:
                        batch = est.sample_batch(lip_batch_sampler) if stochastic else None
                        lx, ly = lip_guard.estimate(z, batch)
                    gx_step, gy_step = practical_step_sizes(algo, lx, ly, k=k, b=b, n=n)

                z_pre = z
                # A PALM step's gradients are the gradient map's: the trace reuses them.
                step_grads = None
                if algo == "palm":
                    z, step_grads = _palm_sweep(problem, z, gx_step, gy_step)
                    sfo_calls += 2 * n
                elif algo == "ipalm":
                    beta = ipalm_momentum(k)
                    z = ipalm_step(problem, z, z_prev, gx_step, gy_step, beta)
                    sfo_calls += 2 * n
                else:
                    z, used = spring_step(problem, z, driver, gx_step, gy_step)
                    sfo_calls += used
                z_prev = z_pre
                if config.record_every_iteration:
                    append_row(z, z_pre, z.x, gx_step, gy_step, step_grads)
                    if stop:
                        break
            if not config.record_every_iteration:
                append_row(z, z_pre, z.x, gx_step, gy_step, step_grads)
            if stop:
                break
    except DivergenceError as exc:
        if exc.trace is None:
            exc.trace = trace
        raise

    state = None
    if driver is not None:
        state = driver.saga if driver.kind == "saga" else driver.sarah
    return RunResult(z=z, trace=trace, estimator_state=state)
