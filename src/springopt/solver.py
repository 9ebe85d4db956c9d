"""Iteration engines: deterministic PALM, inertial PALM, and their
stochastic counterparts (SGD / SAGA / SARAH estimators).

All five algorithms take one alternating step, ``_step``; it differs only
in its ``EstimatorDriver``.  PALM and inertial PALM use the exact gradient,
the estimator kind ``full``, and inertial PALM extrapolates first.  One step
updates the blocks in strict Gauss-Seidel order: the x-block moves first
using a gradient (estimate) at (x_k, y_k), then the y-block moves using a
gradient (estimate) at (x_{k+1}, y_k).

Cost accounting: ``sfo_calls`` counts stochastic first-order oracle queries,
charged by each block's estimate: n per block for ``full`` (2n per PALM
step); 2b per SGD or SAGA step (the SAGA table refresh reuses the
estimate's evaluations); for SARAH, 2n on a refresh and 2b on a recursive
step.  A recursive SARAH query for component j is charged once per block
even though it evaluates the component's partial gradient at both the new
and the old point (the usual complexity convention for recursive
estimators), so raw gradient evaluations exceed ``sfo_calls`` by 2b on such
steps.  Per-epoch trace evaluations (objective and gradient map) and
Lipschitz estimation are excluded; Lipschitz work is reported in its own
trace column.

``run`` builds one ``_StepSizes`` provider per run (the step policy, its
Lipschitz draws and their tally) and one ``EstimatorDriver``; ``_step`` asks
the provider for gamma_x at z and for gamma_y after the x-update.  A
recursive SARAH step takes its old points from ``EstimatorDriver.sarah_prev``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import estimators as est
from .core import (
    BlockProblem,
    Iterate,
    NonFiniteIterateError,
    check_dims,
    full_batch,
    full_grad_x,
    full_grad_y,
    is_integer,
    is_real,
    objective,
)
from .diagnostics import generalized_gradient_map
from .lipschitz import (
    ALGORITHMS,
    EPS_LIPSCHITZ,
    ipalm_momentum,
    lipschitz_draw,
    practical_step_sizes,
    theoretical_step_bound,
)
from .rng import is_seed, stream_rng

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


class ConfigError(ValueError):
    """A usage error: a ``SolverConfig`` that ``SolverConfig.validate`` rejects, or a
    harness setting such as a ``RunSpec.repeat`` below 1 or ``bench``'s algorithm list."""


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
    lipschitz_const: float | None = None  # used by the theoretical policy
    track_grad_map: bool = True
    record_every_iteration: bool = False

    def validate(self, n: int) -> None:
        """Raise ``ConfigError`` unless this configuration can run on n components."""
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {self.algorithm!r}; expected one of {ALGORITHMS}")
        if self.step_policy not in STEP_POLICIES:
            raise ConfigError(f"unknown step policy {self.step_policy!r}")
        if not is_integer(self.epochs):
            raise ConfigError(f"epochs must be an integer, got {self.epochs!r}")
        if not is_integer(self.batch_size):
            raise ConfigError(f"batch size must be an integer, got {self.batch_size!r}")
        if not is_seed(self.seed):
            raise ConfigError(f"seed must be an integer in [0, 2**64), got {self.seed!r}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if not 1 <= self.batch_size <= n:
            raise ConfigError(f"batch size must satisfy 1 <= b <= n={n}, got {self.batch_size}")
        if self.sarah_p is not None and not (is_real(self.sarah_p) and 1 <= self.sarah_p < math.inf):
            raise ConfigError(f"SARAH period must satisfy 1 <= p < inf, got {self.sarah_p}")
        fixed = self.fixed_steps
        if self.step_policy == "fixed" and not (fixed and len(fixed) == 2
                                                and all(is_real(g) and 0 < g < math.inf for g in fixed)):
            raise ConfigError(f"fixed steps must be a positive finite (gamma_x, gamma_y), got {fixed}")
        if self.step_policy == "theoretical" and self.algorithm == "spring-sgd":
            raise ConfigError("the theoretical step policy applies to variance-reduced estimators only")
        if self.lipschitz_const is not None and not (is_real(self.lipschitz_const)
                                                     and 0 < self.lipschitz_const < math.inf):
            raise ConfigError(f"lipschitz_const must be finite and positive, got {self.lipschitz_const}")
        if self.grad_map_tolerance is not None and not (is_real(self.grad_map_tolerance)
                                                        and 0 <= self.grad_map_tolerance < math.inf):
            raise ConfigError(f"grad_map_tolerance must satisfy 0 <= tol < inf, got {self.grad_map_tolerance}")
        if self.grad_map_tolerance is not None and not self.track_grad_map:
            raise ConfigError("grad_map_tolerance needs track_grad_map=True")
        if fixed is not None and self.step_policy != "fixed":
            raise ConfigError(f"fixed_steps needs step_policy='fixed', got {self.step_policy!r}")
        if self.lipschitz_const is not None and self.step_policy != "theoretical":
            raise ConfigError(f"lipschitz_const needs step_policy='theoretical', got {self.step_policy!r}")


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


class RunResult(NamedTuple):
    z: Iterate
    trace: Trace
    estimator_state: object | None


# ---------------------------------------------------------------------------
# Single steps
# ---------------------------------------------------------------------------


def _divergence(context: str, x: np.ndarray, y: np.ndarray) -> DivergenceError:
    return DivergenceError(
        f"non-finite iterate after {context}",
        snapshot={"max_abs_x": float(np.max(np.abs(x))), "max_abs_y": float(np.max(np.abs(y)))},
    )


def _guarded_iterate(x: np.ndarray, y: np.ndarray, context: str) -> Iterate:
    """Build the iterate a half-step produced from two new blocks; ``Iterate``'s
    own finiteness check is the only scan, and its failure is reported as divergence."""
    try:
        return Iterate(x, y)
    except NonFiniteIterateError:
        raise _divergence(context, x, y) from None


def _guarded_block(base: Iterate, block: str, v: np.ndarray, context: str) -> Iterate:
    """``base`` with one block set to a half-step's new v, as ``_guarded_iterate``
    builds it; only v is scanned (``Iterate.with_block``)."""
    try:
        return base.with_block(block, v)
    except NonFiniteIterateError:
        raise _divergence(context, *((v, base.y) if block == "x" else (base.x, v))) from None


@dataclass(slots=True)
class EstimatorDriver:
    """Mutable estimator context threaded through the steps.

    ``kind`` picks each block's gradient estimate: ``full`` is the exact
    gradient (PALM and inertial PALM), the others are SPRING's estimators.
    Owns the batch samplers (None for ``full``), the SARAH coin stream and
    the estimator state.  ``warm`` switches the estimates to plain SGD while
    still populating SAGA tables.  ``sarah_prev`` holds the previous SARAH
    step's two points, z and its post-x-update point (x_{k+1}, y_k), the old
    points of the next step's recursion; it is None before the first SARAH
    step and after every warm step, and a SARAH step without it refreshes.
    """

    kind: str  # full | sgd | saga | sarah
    sampler_x: est.BatchSampler | None = None
    sampler_y: est.BatchSampler | None = None
    coin_rng: np.random.Generator | None = None
    saga: est.SagaState | None = None
    sarah: est.SarahState | None = None
    sarah_prev: tuple[Iterate, Iterate] | None = None
    warm: bool = False


def _estimate(problem, driver, kind, refresh, block, point, point_old):
    """One block's gradient estimate at ``point`` and its SFO charge.

    ``full`` takes the exact gradient, charged n.  Otherwise draws the
    block's batch and estimates the finite sum with ``kind``; a SARAH
    estimate recurses from ``point_old``.  This is the one place the
    problem's deterministic ``smooth_x`` term joins a stochastic x-estimate,
    with its exact gradient at ``point`` and no SFO charge (``full_grad_x``
    adds it itself).  The estimator functions are looked up on
    ``estimators`` at every call, so a patched one is seen.
    """
    on_x = block == "x"
    if kind == "full":
        return (full_grad_x if on_x else full_grad_y)(problem, point), problem.n
    batch = est.sample_batch(driver.sampler_x if on_x else driver.sampler_y)
    term = problem.smooth_x if on_x else None
    if kind == "sarah":
        sarah_estimate = est.sarah_estimate_x if on_x else est.sarah_estimate_y
        g = sarah_estimate(problem, batch, point, point_old, driver.sarah, refresh=refresh)
        # The state keeps the recursion of the finite sum alone, so the term goes on a copy.
        return (g if term is None else g + term.grad(point.x)), problem.n if refresh else len(batch)
    if driver.saga is None:
        g = (est.sgd_estimate_x if on_x else est.sgd_estimate_y)(problem, batch, point)
    else:
        fresh = (est.batch_grads_x if on_x else est.batch_grads_y)(problem, batch, point.x, point.y)
        update_table = est.saga_update_table_x if on_x else est.saga_update_table_y
        # (SAGA estimate, fresh batch mean): the one not stepped with is freed at once.
        g = update_table(driver.saga, batch, fresh)[0 if kind == "saga" else 1]
    if term is not None:
        g += term.grad(point.x)
    return g, len(batch)


def _step(problem, z, z_prev, driver, steps, k, beta, name):
    """Step k, one alternating prox-gradient step; returns (z_next, sfo_used, (gx, gy),
    (gamma_x, gamma_y)), asking ``steps.x(z, k)`` first and ``steps.y(mid, k)`` once mid is built.

    Each block extrapolates by beta * (current - previous) before its update,
    unless beta = 0: then the estimates are at z and at mid = (x_next, y).
    Estimator state inside ``driver`` is advanced as a side effect (SAGA
    table rows refreshed with the evaluations already made for the
    estimate; SARAH estimates and ``sarah_prev`` updated).  Every point
    built here, the extrapolated one included, has its new blocks scanned
    once, by ``_guarded_block`` where it keeps a block of z or mid;
    ``name`` labels its divergence messages.
    """
    gamma_x = steps.x(z, k)
    kind = "sgd" if driver.warm else driver.kind
    refresh, z_old, mid_old = False, None, None
    if kind == "sarah":
        refresh = est.sarah_refresh_coin(driver.sarah, driver.coin_rng) or driver.sarah_prev is None
        z_old, mid_old = (z, z) if refresh else driver.sarah_prev  # a refresh ignores them

    x_bar, y_bar, at = z.x, z.y, z
    if beta != 0:
        x_bar = z.x + beta * (z.x - z_prev.x)
        y_bar = z.y + beta * (z.y - z_prev.y)
        at = _guarded_block(z, "x", x_bar, f"{name} extrapolation")
    gx, sfo_x = _estimate(problem, driver, kind, refresh, "x", at, z_old)
    x_next = problem.prox_x(gamma_x, x_bar - gamma_x * gx)
    if beta != 0:  # y_bar is new too
        mid = _guarded_iterate(x_next, y_bar, f"{name} x-update")
    else:
        mid = _guarded_block(z, "x", x_next, f"{name} x-update")

    gamma_y = steps.y(mid, k)
    gy, sfo_y = _estimate(problem, driver, kind, refresh, "y", mid, mid_old)
    y_next = problem.prox_y(gamma_y, y_bar - gamma_y * gy)
    z_next = _guarded_block(mid, "y", y_next, f"{name} y-update")
    driver.sarah_prev = (z, mid) if kind == "sarah" else None
    return z_next, sfo_x + sfo_y, (gx, gy), (gamma_x, gamma_y)


def _fixed_steps(problem, gamma_x, gamma_y):
    """The fixed policy's provider for (gamma_x, gamma_y), validated as ``run`` validates it."""
    config = SolverConfig("palm", step_policy="fixed", fixed_steps=(gamma_x, gamma_y))
    config.validate(problem.n)
    return _StepSizes(problem, config, None, "full", problem.n, None)


def palm_step(problem: BlockProblem, z: Iterate, gamma_x: float, gamma_y: float) -> Iterate:
    """One deterministic alternating prox-gradient step."""
    return _step(problem, z, z, EstimatorDriver("full"), _fixed_steps(problem, gamma_x, gamma_y), 1, 0.0, "palm")[0]


def ipalm_step(
    problem: BlockProblem,
    z: Iterate,
    z_prev: Iterate,
    gamma_x: float,
    gamma_y: float,
    beta: float,
) -> Iterate:
    """PALM step from the inertially extrapolated points z + beta * (z - z_prev)."""
    return _step(problem, z, z_prev, EstimatorDriver("full"), _fixed_steps(problem, gamma_x, gamma_y), 1, beta, "ipalm")[0]


def spring_step(
    problem: BlockProblem,
    z: Iterate,
    driver: EstimatorDriver,
    gamma_x: float,
    gamma_y: float,
) -> tuple[Iterate, int]:
    """One alternating step with ``driver``'s estimator, advancing its state; returns (z_next, sfo_used)."""
    return _step(problem, z, z, driver, _fixed_steps(problem, gamma_x, gamma_y), 1, 0.0, "spring")[:2]


# ---------------------------------------------------------------------------
# Full runs
# ---------------------------------------------------------------------------


class _StepSizes:
    """Run-scoped step sizes: ``x(z, k)`` and ``y(mid, k)`` return ``pair``'s halves.

    The policy is set up once: ``fixed`` keeps the configured pair;
    ``theoretical`` a constant pair from the variance-reduction bound (1/L
    for PALM and inertial PALM), with L from ``lipschitz_const`` or a
    full-batch draw at z0; ``practical`` applies ``practical_step_sizes`` to
    a Lipschitz estimate of both blocks that ``x`` makes at z, every step.

    PALM and inertial PALM estimate with a full-batch draw.  A stochastic
    run draws on a batch from the ``lip_batch`` stream, one of the many
    realizations its constant must cover: one weak dictionary column in it
    can give a near-zero draw and an enormous step while the gradient batch
    realizes much larger curvature.  So its estimate is a running maximum of
    the draws, decaying by half over ~2 epochs when the landscape flattens,
    and anchored on a full-batch draw at the current iterate while
    degenerate.  A draw that is not finite raises ``DivergenceError``.

    ``warm`` is the run's store of the hooks' warm starts (``lipschitz_draw``),
    passed to every draw and kept by this provider alone, so a problem shared
    by several runs draws in each as in a fresh one.
    """

    __slots__ = ("problem", "config", "b", "sampler", "decay", "env_x", "env_y", "sfo", "pair", "warm")

    def __init__(self, problem, config, z0, kind, b, sarah_p):
        n = problem.n
        self.problem = problem
        self.config = config
        self.b = b
        self.sampler = est.BatchSampler(n, b, stream_rng(config.seed, "lip_batch")) if kind != "full" else None
        self.decay = 0.5 ** (b / (2.0 * n))  # a half-life of 2 epochs
        self.env_x = 0.0
        self.env_y = 0.0
        self.sfo = 0
        self.warm = {}
        self.pair = config.fixed_steps
        if config.step_policy == "theoretical":
            L = config.lipschitz_const or max(self.draw(z0, full_batch(n)))
            if not L > 0:
                raise ValueError(f"the full-batch Lipschitz draw at z0 is {L}, not positive; "
                                 "the theoretical step policy then needs a positive lipschitz_const")
            gamma = 1.0 / L
            if kind != "full":
                v1, _v2, vu, rho = est.estimator_constants(kind, n=n, b=b, p=sarah_p, L=L, M=L)
                bound = theoretical_step_bound(L, v1, vu, rho, variant="rate")
                gamma = min(bound, (1.0 - 1e-9) / (4.0 * L))
            self.pair = (gamma, gamma)

    def x(self, z, k):
        if self.config.step_policy == "practical":
            self.pair = practical_step_sizes(self.config.algorithm, *self._estimate(z), k=k, b=self.b, n=self.problem.n)
        return self.pair[0]

    def y(self, mid, k):
        return self.pair[1]

    def draw(self, z, batch):
        """``lipschitz_draw``, its charge added to ``sfo``."""
        lx, ly, charge = lipschitz_draw(self.problem, z, batch, self.warm)
        self.sfo += charge
        if not (math.isfinite(lx) and math.isfinite(ly)):
            raise DivergenceError(
                f"non-finite Lipschitz draw (L_x, L_y) = ({lx}, {ly})",
                snapshot={"lipschitz_x": lx, "lipschitz_y": ly, "batch_size": len(batch)},
            )
        return lx, ly

    def _estimate(self, z):
        if self.sampler is None:
            return self.draw(z, full_batch(self.problem.n))
        lx, ly = self.draw(z, est.sample_batch(self.sampler))
        self.env_x = max(lx, self.decay * self.env_x)
        self.env_y = max(ly, self.decay * self.env_y)
        if min(self.env_x, self.env_y) <= EPS_LIPSCHITZ:
            fx, fy = self.draw(z, full_batch(self.problem.n))
            self.env_x = max(self.env_x, fx)
            self.env_y = max(self.env_y, fy)
        return self.env_x, self.env_y


# run's guards report a diverging run as such; NumPy's overflow warnings would only repeat it.
@np.errstate(over="ignore", invalid="ignore")
def run(problem: BlockProblem, config: SolverConfig, z0: Iterate) -> RunResult:
    """Execute ``epochs`` passes of the configured algorithm from z0.

    An epoch is ceil(n/b) steps; PALM and inertial PALM take b = n.  Appends
    one trace row per epoch (or per iteration when ``record_every_iteration``):
    SFO-normalized epoch, cumulative SFO count, full objective, squared
    gradient-map norm evaluated with half the current step sizes and the
    actual post-update x, wall time, and the separately-counted
    Lipschitz-estimation work.  Exits early once the gradient-map norm drops
    below ``grad_map_tolerance``.
    """
    n = problem.n
    config.validate(n)
    algo = config.algorithm
    name, _, kind = algo.partition("-")
    kind = kind or "full"
    b = config.batch_size if kind != "full" else n
    sarah_p = config.sarah_p if config.sarah_p is not None else float(n)
    steps_per_epoch = math.ceil(n / b)
    check_dims(problem, z0)

    # Each named stream is built only where it is drawn from; they are independent.
    driver = EstimatorDriver(kind)
    if kind != "full":
        driver.sampler_x = est.BatchSampler(n, b, stream_rng(config.seed, "batch_x"))
        driver.sampler_y = est.BatchSampler(n, b, stream_rng(config.seed, "batch_y"))
    if kind == "saga":
        driver.saga = est.SagaState.from_problem(problem)
    elif kind == "sarah":
        driver.coin_rng = stream_rng(config.seed, "sarah_coin")
        driver.sarah = est.SarahState(np.zeros(problem.dim_x), np.zeros(problem.dim_y), sarah_p)
    # SAGA and SARAH step like SGD through a warm-start first epoch.
    warm_steps = steps_per_epoch if config.warm_start and kind in ("saga", "sarah") else 0

    # The divergence cap DIVERGENCE_FACTOR * max(1, |phi0|) is never below
    # DIVERGENCE_FACTOR, so phi0 is evaluated only once an objective passes that.  It is
    # phi(z0), or the first traced objective where phi(z0) is not finite (a start outside
    # an indicator's set), so that the cap stays finite.
    phi0 = None
    trace = Trace()
    z = z0
    z_prev = z0
    sfo_calls = 0
    try:
        # Built inside the try, so a DivergenceError from the draw at z0 carries the trace too.
        steps = _StepSizes(problem, config, z0, kind, b, sarah_p)
        start = time.perf_counter()
        for k in range(1, config.epochs * steps_per_epoch + 1):
            driver.warm = k <= warm_steps
            beta = ipalm_momentum(k) if algo == "ipalm" else 0.0
            z_next, used, grads, (gamma_x, gamma_y) = _step(problem, z, z_prev, driver, steps, k, beta, name)
            # The trace reuses exact gradients taken without momentum (the map's); others are freed now.
            grads = grads if kind == "full" and not beta else None
            sfo_calls += used
            z_prev, z = z, z_next
            if not config.record_every_iteration and k % steps_per_epoch != 0:
                continue

            gnorm = float("nan")
            if config.track_grad_map:
                gnorm = generalized_gradient_map(problem, z_prev, z.x, gamma_x / 2.0, gamma_y / 2.0,
                                                 grads=grads).norm_sq
            phi = objective(problem, z)
            wall = (time.perf_counter() - start) * 1e3
            trace.rows.append(TraceRow(sfo_calls / (2.0 * n), sfo_calls, phi, gnorm, wall, steps.sfo))
            if phi > DIVERGENCE_FACTOR:
                if phi0 is None:
                    phi0 = objective(problem, z0)
                    phi0 = phi0 if math.isfinite(phi0) else trace.rows[0].objective
                if phi > DIVERGENCE_FACTOR * max(1.0, abs(phi0)):
                    raise DivergenceError(
                        f"objective {phi:.3e} exceeded {DIVERGENCE_FACTOR:g} x its initial magnitude",
                        snapshot={"iteration": k, "objective": phi, "initial": phi0},
                    )
            if config.grad_map_tolerance is not None and gnorm <= config.grad_map_tolerance:
                break
    except DivergenceError as exc:
        if exc.trace is None:
            exc.trace = trace
        raise

    return RunResult(z=z, trace=trace, estimator_state=driver.saga if kind == "saga" else driver.sarah)
