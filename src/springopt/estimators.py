"""Stochastic partial-gradient estimators: SGD, SAGA, and loopless SARAH.

All three estimate the block partial gradients of a finite-sum coupling term
from a mini-batch drawn uniformly over all size-b subsets (without
replacement).  SAGA keeps a table of n historical component gradients per
block and corrects the mini-batch estimate by the table mean; SARAH keeps a
single recursive estimate per block that is reset to the exact full gradient
with probability 1/p each iteration.

The x-block and y-block draw independent batches each iteration, but SARAH's
refresh coin is a single shared event per iteration for both blocks.  SGD
and SARAH call the batch-mean oracle; SAGA's per-component table rows come
from singleton batches (``batch_grads_*``).

``probe_upsilon_*`` compute the variance-tracking quantities (the sum of
squared deviation norms and its unsquared companion) together with the
variance-reduction constants of each estimator; they are diagnostics and
never influence the iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import BlockProblem, Iterate, check_dims, full_grad_x, full_grad_y

# Rows updated between exact table-mean recomputations.  Incremental updates
# drift by O(eps) per row; recomputing keeps the mean within 1e-10 relative.
_MEAN_RECOMPUTE_PERIOD = 4096


@dataclass
class BatchSampler:
    """Uniform without-replacement mini-batch sampler over {0, ..., n-1}."""

    n: int
    b: int
    rng: np.random.Generator

    def __post_init__(self):
        if not 1 <= self.b <= self.n:
            raise ValueError(f"batch size must satisfy 1 <= b <= n, got b={self.b}, n={self.n}")


def sample_batch(sampler: BatchSampler) -> np.ndarray:
    """Draw one sorted b-subset of {0..n-1}, uniform over all such subsets."""
    idx = sampler.rng.choice(sampler.n, size=sampler.b, replace=False)
    return np.sort(idx)


def _stack_rows(grad_fn, batch, x, y, dim):
    out = np.empty((len(batch), dim))
    for row in range(len(batch)):
        out[row] = grad_fn(batch[row:row + 1], x, y)
    return out


def batch_grads_x(problem: BlockProblem, batch: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Stack grad_x F_j(x, y) for j in batch from singleton batches, shape (b, dim_x)."""
    return _stack_rows(problem.grad_x, batch, x, y, problem.dim_x)


def batch_grads_y(problem: BlockProblem, batch: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Stack grad_y F_j(x, y) for j in batch from singleton batches, shape (b, dim_y)."""
    return _stack_rows(problem.grad_y, batch, x, y, problem.dim_y)


def sgd_estimate_x(problem: BlockProblem, batch: np.ndarray, z: Iterate) -> np.ndarray:
    """Plain mini-batch mean (1/b) sum_{j in batch} grad_x F_j(x, y)."""
    if len(batch) == 0:
        raise ValueError("batch must be nonempty")
    check_dims(problem, z)
    return problem.grad_x(batch, z.x, z.y)


def sgd_estimate_y(problem: BlockProblem, batch: np.ndarray, z: Iterate) -> np.ndarray:
    """Mini-batch mean of grad_y F_j, evaluated at the supplied point."""
    if len(batch) == 0:
        raise ValueError("batch must be nonempty")
    check_dims(problem, z)
    return problem.grad_y(batch, z.x, z.y)


# ---------------------------------------------------------------------------
# SAGA
# ---------------------------------------------------------------------------


@dataclass
class SagaState:
    """Gradient history tables, one stored vector per component per block.

    ``mean_x``/``mean_y`` track the arithmetic mean of the table rows; they
    are maintained incrementally and recomputed exactly every
    ``_MEAN_RECOMPUTE_PERIOD`` row updates.
    """

    table_x: np.ndarray  # (n, dim_x)
    table_y: np.ndarray  # (n, dim_y)
    mean_x: np.ndarray
    mean_y: np.ndarray
    _updates: int = 0

    @classmethod
    def zeros(cls, n: int, dim_x: int, dim_y: int) -> "SagaState":
        """Cold start with all-zero tables (testing mode)."""
        return cls(
            table_x=np.zeros((n, dim_x)),
            table_y=np.zeros((n, dim_y)),
            mean_x=np.zeros(dim_x),
            mean_y=np.zeros(dim_y),
        )

    @classmethod
    def from_problem(cls, problem: BlockProblem, z: Iterate) -> "SagaState":
        """Warm tables holding the component gradients at z."""
        check_dims(problem, z)
        all_idx = np.arange(problem.n)
        tx = batch_grads_x(problem, all_idx, z.x, z.y)
        ty = batch_grads_y(problem, all_idx, z.x, z.y)
        return cls(table_x=tx, table_y=ty, mean_x=tx.mean(axis=0), mean_y=ty.mean(axis=0))


def _check_saga_state(problem: BlockProblem, state: SagaState) -> None:
    if state is None or state.table_x.shape != (problem.n, problem.dim_x):
        raise ValueError("SAGA table not initialized for this problem")


def saga_combine(fresh: np.ndarray, batch: np.ndarray, table: np.ndarray, table_mean: np.ndarray) -> np.ndarray:
    """(1/b) sum_j (fresh_j - table_j) + table mean, without state mutation."""
    return (fresh - table[batch]).mean(axis=0) + table_mean


def saga_estimate_x(problem: BlockProblem, batch: np.ndarray, z: Iterate, state: SagaState) -> np.ndarray:
    """SAGA x-estimate at z; reads the table, never mutates it."""
    _check_saga_state(problem, state)
    fresh = batch_grads_x(problem, batch, z.x, z.y)
    return saga_combine(fresh, batch, state.table_x, state.mean_x)


def saga_estimate_y(problem: BlockProblem, batch: np.ndarray, z: Iterate, state: SagaState) -> np.ndarray:
    """SAGA y-estimate at z (call with the post-x-update point)."""
    _check_saga_state(problem, state)
    fresh = batch_grads_y(problem, batch, z.x, z.y)
    return saga_combine(fresh, batch, state.table_y, state.mean_y)


def _update_table(table: np.ndarray, mean: np.ndarray, batch: np.ndarray, fresh: np.ndarray) -> None:
    n = table.shape[0]
    mean += (fresh - table[batch]).sum(axis=0) / n
    table[batch] = fresh


def saga_update_table_x(state: SagaState, batch: np.ndarray, fresh: np.ndarray) -> None:
    """Replace x-table rows in ``batch`` with ``fresh``; other rows untouched."""
    _update_table(state.table_x, state.mean_x, batch, fresh)
    _maybe_recompute(state)


def saga_update_table_y(state: SagaState, batch: np.ndarray, fresh: np.ndarray) -> None:
    """Replace y-table rows in ``batch`` with ``fresh``; other rows untouched."""
    _update_table(state.table_y, state.mean_y, batch, fresh)
    _maybe_recompute(state)


def _maybe_recompute(state: SagaState) -> None:
    state._updates += 1
    if state._updates >= _MEAN_RECOMPUTE_PERIOD:
        state.mean_x = state.table_x.mean(axis=0)
        state.mean_y = state.table_y.mean(axis=0)
        state._updates = 0


# ---------------------------------------------------------------------------
# Loopless SARAH
# ---------------------------------------------------------------------------


@dataclass
class SarahState:
    """Recursive gradient estimates for both blocks, refresh period p >= 1.

    Immediately after a refresh event the estimates equal the exact full
    partial gradients at their evaluation points.
    """

    est_x: np.ndarray
    est_y: np.ndarray
    p: float

    def __post_init__(self):
        if self.p < 1:
            raise ValueError(f"SARAH refresh period must satisfy p >= 1, got {self.p}")


def sarah_refresh_coin(state: SarahState, rng: np.random.Generator) -> bool:
    """One Bernoulli(1/p) draw, shared by both blocks within an iteration."""
    return bool(rng.random() < 1.0 / state.p)


def _sarah_estimate(problem, batch, z_new, z_old, prev_est, refresh, full_fn, grad_fn):
    if refresh:
        return full_fn(problem, z_new)
    return (grad_fn(batch, z_new.x, z_new.y) - grad_fn(batch, z_old.x, z_old.y)) + prev_est


def sarah_estimate_x(
    problem: BlockProblem,
    batch: np.ndarray,
    z_new: Iterate,
    z_old: Iterate,
    state: SarahState,
    rng: np.random.Generator | None = None,
    refresh: bool | None = None,
) -> np.ndarray:
    """SARAH x-estimate at z_new; updates ``state.est_x`` to the result.

    ``refresh`` overrides the coin (the solver draws one shared coin per
    iteration); when None it is drawn from ``rng``.
    """
    if refresh is None:
        refresh = sarah_refresh_coin(state, rng)
    est = _sarah_estimate(problem, batch, z_new, z_old, state.est_x, refresh,
                          full_grad_x, problem.grad_x)
    state.est_x = est
    return est


def sarah_estimate_y(
    problem: BlockProblem,
    batch: np.ndarray,
    z_new: Iterate,
    z_old: Iterate,
    state: SarahState,
    rng: np.random.Generator | None = None,
    refresh: bool | None = None,
) -> np.ndarray:
    """SARAH y-estimate at z_new = (post-x-update x, current y)."""
    if refresh is None:
        refresh = sarah_refresh_coin(state, rng)
    est = _sarah_estimate(problem, batch, z_new, z_old, state.est_y, refresh,
                          full_grad_y, problem.grad_y)
    state.est_y = est
    return est


# ---------------------------------------------------------------------------
# Variance instrumentation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VarianceProbe:
    """Snapshot of the variance-tracking quantities and estimator constants.

    ``upsilon`` is a sum of s squared deviation norms (s = 2n for SAGA, 2
    for SARAH); ``gamma_sum`` the matching sum of plain norms.  The constants
    (v1, v2, v_upsilon, rho) are the estimator's variance-reduction
    parameters.
    """

    upsilon: float
    gamma_sum: float
    v1: float
    v2: float
    v_upsilon: float
    rho: float
    s: int


def estimator_constants(
    kind: str,
    n: int | None = None,
    b: int | None = None,
    p: float | None = None,
    L: float = 1.0,
    M: float = 1.0,
) -> tuple[float, float, float, float]:
    """Variance-reduction constants (V1, V2, V_upsilon, rho) per estimator."""
    if kind == "saga":
        if n is None or b is None:
            raise ValueError("SAGA constants need n and b")
        return (
            6.0 * M * M / b,
            math.sqrt(6.0) * M / math.sqrt(b),
            134.0 * n * L * L / (b * b),
            b / (2.0 * n),
        )
    if kind == "sarah":
        if p is None:
            raise ValueError("SARAH constants need p")
        return (2.0 * L * L, 2.0 * L, 2.0 * L * L, 1.0 / p)
    raise ValueError(f"unknown estimator kind {kind!r}")


def probe_upsilon_saga(
    problem: BlockProblem,
    state: SagaState,
    z: Iterate,
    b: int,
    L: float = 1.0,
    M: float = 1.0,
) -> VarianceProbe:
    """Deviation of the SAGA tables from the current component gradients.

    upsilon = (1/(b n)) sum_i (||gx_i - table_x[i]||^2 + 4 ||gy_i - table_y[i]||^2)
    with the unsquared analog scaled by 1/sqrt(b n) and y-terms doubled.
    """
    _check_saga_state(problem, state)
    check_dims(problem, z)
    n = problem.n
    all_idx = np.arange(n)
    dx = batch_grads_x(problem, all_idx, z.x, z.y) - state.table_x
    dy = batch_grads_y(problem, all_idx, z.x, z.y) - state.table_y
    sq_x = np.einsum("ij,ij->i", dx, dx)
    sq_y = np.einsum("ij,ij->i", dy, dy)
    v1, v2, vu, rho = estimator_constants("saga", n=n, b=b, L=L, M=M)
    return VarianceProbe(
        upsilon=float((sq_x + 4.0 * sq_y).sum()) / (b * n),
        gamma_sum=float((np.sqrt(sq_x) + 2.0 * np.sqrt(sq_y)).sum()) / math.sqrt(b * n),
        v1=v1,
        v2=v2,
        v_upsilon=vu,
        rho=rho,
        s=2 * n,
    )


def probe_upsilon_sarah(
    state: SarahState,
    grad_x_full: np.ndarray,
    grad_y_full: np.ndarray,
    L: float = 1.0,
) -> VarianceProbe:
    """Deviation of the SARAH estimates from the supplied full gradients."""
    dx = state.est_x - np.asarray(grad_x_full, dtype=float)
    dy = state.est_y - np.asarray(grad_y_full, dtype=float)
    v1, v2, vu, rho = estimator_constants("sarah", p=state.p, L=L)
    return VarianceProbe(
        upsilon=float(dx @ dx + dy @ dy),
        gamma_sum=float(np.linalg.norm(dx) + np.linalg.norm(dy)),
        v1=v1,
        v2=v2,
        v_upsilon=vu,
        rho=rho,
        s=2,
    )
