"""Stochastic partial-gradient estimators: SGD, SAGA, and loopless SARAH.

All three estimate the block partial gradients of a finite-sum coupling term
from a mini-batch drawn uniformly over all size-b subsets (without
replacement).  SAGA keeps a table of n rows per block, each encoding one
component's gradient at its last visit, and corrects the mini-batch estimate
by the mean gradient the table encodes; SARAH keeps a single recursive
estimate per block that is reset to the exact full gradient with probability
1/p each iteration.  Every estimate here is of the finite sum alone: a
problem's deterministic ``smooth_x`` term needs no variance reduction, and
the solver adds its exact gradient to the x-estimate.

The x-block and y-block draw independent batches each iteration, but SARAH's
refresh coin is a single shared event per iteration for both blocks.  SGD
and SARAH call the batch-mean oracle.  SAGA rows come from
``batch_grads_*``: the problem's compact per-row data where it has a per-row
oracle (for an m x d factorization of rank r, m + r numbers per x-row and r
per y-row instead of dense gradients of m r and r d), else dense component
gradients from singleton batches.  A table is read only through the
problem's ``rows_mean``, which decodes the mean gradient of a set of rows.

``probe_upsilon_*`` compute the variance-tracking quantity Upsilon (a sum of
squared deviation norms) and its unsquared companion only; the
variance-reduction constants are ``estimator_constants``'.  The probes are
diagnostics and never influence the iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import BlockProblem, Iterate, RowsMeanFn, check_dims

# Table-update calls (one per block per step, whatever the batch size) between exact
# mean recomputations.  Each drifts the mean by O(eps); recomputing keeps it within 1e-10.
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
    """Draw one sorted b-subset of {0..n-1}, uniform over all such subsets.

    The batch is ``np.sort(rng.choice(n, b, replace=False))``.  At b = 1
    ``choice``'s Floyd pass makes one bounded draw from [0, n) and its
    shuffle none, so the same draw is taken with ``integers``, without
    ``choice``'s overhead: the stream is unchanged.
    """
    if sampler.b == 1:
        return np.array([sampler.rng.integers(sampler.n)])
    idx = sampler.rng.choice(sampler.n, size=sampler.b, replace=False)
    idx.sort()  # choice returns a fresh array: no copy needed
    return idx


def dense_rows_mean(_idx: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Batch mean of dense gradient rows: the decoder without a per-row oracle."""
    return rows.mean(axis=0)


def row_dims(problem: BlockProblem) -> tuple[int, int]:
    """Widths of a SAGA x-row and y-row (the block dims for dense rows)."""
    return problem.row_dim_x or problem.dim_x, problem.row_dim_y or problem.dim_y


def row_means(problem: BlockProblem) -> tuple[RowsMeanFn, RowsMeanFn]:
    """The problem's (rows_mean_x, rows_mean_y), dense decoders where absent."""
    return problem.rows_mean_x or dense_rows_mean, problem.rows_mean_y or dense_rows_mean


def expand_rows(rows_mean: RowsMeanFn, idx: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Dense component gradients encoded by ``rows``, decoded one row at a time."""
    return np.array([rows_mean(idx[j:j + 1], rows[j:j + 1]) for j in range(len(idx))])


def _stack_rows(grad_fn, batch, x, y, dim):
    out = np.empty((len(batch), dim))
    for row in range(len(batch)):
        out[row] = grad_fn(batch[row:row + 1], x, y)
    return out


def batch_grads_x(problem: BlockProblem, batch: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SAGA x-rows of the components in batch at (x, y), shape (b, row_dims[0]).

    The problem's ``rows_x`` where it has one, else grad_x F_j(x, y) stacked
    from singleton batches.
    """
    if problem.rows_x is not None:
        return problem.rows_x(batch, x, y)
    return _stack_rows(problem.grad_x, batch, x, y, problem.dim_x)


def batch_grads_y(problem: BlockProblem, batch: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SAGA y-rows of the components in batch at (x, y), shape (b, row_dims[1])."""
    if problem.rows_y is not None:
        return problem.rows_y(batch, x, y)
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
    """Gradient history tables, one row per component per block.

    A row encodes the component's gradient at its last visit in the
    problem's row format, decoded by ``rows_mean_x(idx, rows)`` (dense rows
    by default).  ``mean_x``/``mean_y`` track the mean gradient the tables
    encode; they are maintained incrementally and recomputed exactly every
    ``_MEAN_RECOMPUTE_PERIOD`` table-update calls, counted over both blocks.
    """

    table_x: np.ndarray  # (n, row width)
    table_y: np.ndarray  # (n, row width)
    mean_x: np.ndarray  # (dim_x,)
    mean_y: np.ndarray  # (dim_y,)
    _updates: int = 0
    rows_mean_x: RowsMeanFn = dense_rows_mean
    rows_mean_y: RowsMeanFn = dense_rows_mean

    @classmethod
    def zeros(cls, n: int, dim_x: int, dim_y: int) -> "SagaState":
        """Cold start with all-zero dense tables (testing mode)."""
        return cls(
            table_x=np.zeros((n, dim_x)),
            table_y=np.zeros((n, dim_y)),
            mean_x=np.zeros(dim_x),
            mean_y=np.zeros(dim_y),
        )

    @classmethod
    def from_problem(cls, problem: BlockProblem, z: Iterate | None = None) -> "SagaState":
        """Tables in the problem's row format: zero rows without z, the rows at z with it.

        An all-zero row encodes a zero gradient, so cold means start at zero.
        """
        n = problem.n
        mean_fx, mean_fy = row_means(problem)
        if z is None:
            width_x, width_y = row_dims(problem)
            return cls(table_x=np.zeros((n, width_x)), table_y=np.zeros((n, width_y)),
                       mean_x=np.zeros(problem.dim_x), mean_y=np.zeros(problem.dim_y),
                       rows_mean_x=mean_fx, rows_mean_y=mean_fy)
        check_dims(problem, z)
        all_idx = np.arange(n)
        tx = batch_grads_x(problem, all_idx, z.x, z.y)
        ty = batch_grads_y(problem, all_idx, z.x, z.y)
        return cls(table_x=tx, table_y=ty, mean_x=mean_fx(all_idx, tx), mean_y=mean_fy(all_idx, ty),
                   rows_mean_x=mean_fx, rows_mean_y=mean_fy)


def _check_saga_state(problem: BlockProblem, state: SagaState) -> None:
    width_x, width_y = row_dims(problem)
    if (state is None or state.table_x.shape != (problem.n, width_x)
            or state.table_y.shape != (problem.n, width_y)
            or (state.rows_mean_x, state.rows_mean_y) != row_means(problem)):
        raise ValueError("SAGA table not initialized for this problem")


def saga_combine(
    fresh: np.ndarray,
    batch: np.ndarray,
    table: np.ndarray,
    table_mean: np.ndarray,
    rows_mean: RowsMeanFn = dense_rows_mean,
) -> np.ndarray:
    """Batch mean of the fresh rows minus that of the stored rows, plus the
    table mean, without state mutation."""
    return rows_mean(batch, fresh) - rows_mean(batch, table[batch]) + table_mean


def saga_estimate_x(problem: BlockProblem, batch: np.ndarray, z: Iterate, state: SagaState) -> np.ndarray:
    """SAGA x-estimate at z; reads the table, never mutates it."""
    _check_saga_state(problem, state)
    fresh = batch_grads_x(problem, batch, z.x, z.y)
    return saga_combine(fresh, batch, state.table_x, state.mean_x, state.rows_mean_x)


def saga_estimate_y(problem: BlockProblem, batch: np.ndarray, z: Iterate, state: SagaState) -> np.ndarray:
    """SAGA y-estimate at z (call with the post-x-update point)."""
    _check_saga_state(problem, state)
    fresh = batch_grads_y(problem, batch, z.x, z.y)
    return saga_combine(fresh, batch, state.table_y, state.mean_y, state.rows_mean_y)


def _update_table(
    table: np.ndarray, mean: np.ndarray, batch: np.ndarray, fresh: np.ndarray, rows_mean: RowsMeanFn
) -> tuple[np.ndarray, np.ndarray]:
    fresh_mean = rows_mean(batch, fresh)
    delta = fresh_mean - rows_mean(batch, table[batch])
    estimate = delta + mean  # saga_combine's value, from the same two decodes
    mean += delta * len(batch) / table.shape[0]
    table[batch] = fresh
    return estimate, fresh_mean


def saga_update_table_x(state: SagaState, batch: np.ndarray, fresh: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Replace x-table rows in ``batch`` with ``fresh``; other rows untouched.

    Returns (SAGA estimate against the table as it was, batch mean of
    ``fresh``), so a step decodes each batch once.
    """
    out = _update_table(state.table_x, state.mean_x, batch, fresh, state.rows_mean_x)
    _maybe_recompute(state)
    return out


def saga_update_table_y(state: SagaState, batch: np.ndarray, fresh: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Replace y-table rows in ``batch`` with ``fresh``; returns as ``saga_update_table_x``."""
    out = _update_table(state.table_y, state.mean_y, batch, fresh, state.rows_mean_y)
    _maybe_recompute(state)
    return out


def _maybe_recompute(state: SagaState) -> None:
    state._updates += 1
    if state._updates >= _MEAN_RECOMPUTE_PERIOD:
        all_idx = np.arange(state.table_x.shape[0])
        state.mean_x = state.rows_mean_x(all_idx, state.table_x)
        state.mean_y = state.rows_mean_y(all_idx, state.table_y)
        state._updates = 0


# ---------------------------------------------------------------------------
# Loopless SARAH
# ---------------------------------------------------------------------------


@dataclass
class SarahState:
    """Recursive gradient estimates for both blocks, refresh period p >= 1.

    The estimates are of the finite sum alone, without the problem's
    ``smooth_x`` term.  Immediately after a refresh event they equal the
    full-batch oracles ``grad_x``/``grad_y`` on all n components at their
    evaluation points.
    """

    est_x: np.ndarray
    est_y: np.ndarray
    p: float

    def __post_init__(self):
        if not 1 <= self.p < math.inf:
            raise ValueError(f"SARAH refresh period must satisfy 1 <= p < inf, got {self.p}")


def sarah_refresh_coin(state: SarahState, rng: np.random.Generator) -> bool:
    """One Bernoulli(1/p) draw, shared by both blocks within an iteration."""
    return bool(rng.random() < 1.0 / state.p)


def _sarah_estimate(problem, batch, z_new, z_old, prev_est, refresh, grad_fn):
    if refresh:
        return grad_fn(np.arange(problem.n), z_new.x, z_new.y)
    return (grad_fn(batch, z_new.x, z_new.y) - grad_fn(batch, z_old.x, z_old.y)) + prev_est


def sarah_estimate_x(
    problem: BlockProblem,
    batch: np.ndarray,
    z_new: Iterate,
    z_old: Iterate,
    state: SarahState,
    *,
    refresh: bool,
) -> np.ndarray:
    """SARAH x-estimate at z_new; updates ``state.est_x`` to the result."""
    est = _sarah_estimate(problem, batch, z_new, z_old, state.est_x, refresh, problem.grad_x)
    state.est_x = est
    return est


def sarah_estimate_y(
    problem: BlockProblem,
    batch: np.ndarray,
    z_new: Iterate,
    z_old: Iterate,
    state: SarahState,
    *,
    refresh: bool,
) -> np.ndarray:
    """SARAH y-estimate at z_new = (post-x-update x, current y)."""
    est = _sarah_estimate(problem, batch, z_new, z_old, state.est_y, refresh, problem.grad_y)
    state.est_y = est
    return est


# ---------------------------------------------------------------------------
# Variance instrumentation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VarianceProbe:
    """Snapshot of the variance-tracking quantities.

    ``upsilon`` is a sum of s squared deviation norms (s = 2n for SAGA, 2
    for SARAH); ``gamma_sum`` the matching sum of plain norms.
    """

    upsilon: float
    gamma_sum: float
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
) -> VarianceProbe:
    """Deviation of the SAGA tables from the current component gradients.

    upsilon = (1/(b n)) sum_i (||gx_i - tx_i||^2 + 4 ||gy_i - ty_i||^2), where tx_i
    and ty_i are the gradients that table rows i encode,
    with the unsquared analog scaled by 1/sqrt(b n) and y-terms doubled.
    """
    _check_saga_state(problem, state)
    check_dims(problem, z)
    n = problem.n
    all_idx = np.arange(n)
    # Rows are decoded one at a time: this is a test-scale diagnostic.
    dx = (expand_rows(state.rows_mean_x, all_idx, batch_grads_x(problem, all_idx, z.x, z.y))
          - expand_rows(state.rows_mean_x, all_idx, state.table_x))
    dy = (expand_rows(state.rows_mean_y, all_idx, batch_grads_y(problem, all_idx, z.x, z.y))
          - expand_rows(state.rows_mean_y, all_idx, state.table_y))
    sq_x = np.einsum("ij,ij->i", dx, dx)
    sq_y = np.einsum("ij,ij->i", dy, dy)
    return VarianceProbe(
        upsilon=float((sq_x + 4.0 * sq_y).sum()) / (b * n),
        gamma_sum=float((np.sqrt(sq_x) + 2.0 * np.sqrt(sq_y)).sum()) / math.sqrt(b * n),
        s=2 * n,
    )


def probe_upsilon_sarah(
    state: SarahState,
    grad_x_full: np.ndarray,
    grad_y_full: np.ndarray,
) -> VarianceProbe:
    """Deviation of the SARAH estimates from the supplied full gradients.

    ``SarahState`` holds estimates of the finite sum alone, so compare them
    with ``problem.grad_x``/``grad_y`` on all n components; ``full_grad_x``
    also holds the gradient of a problem's ``smooth_x`` term.
    """
    dx = state.est_x - np.asarray(grad_x_full, dtype=float)
    dy = state.est_y - np.asarray(grad_y_full, dtype=float)
    return VarianceProbe(
        upsilon=float(dx @ dx + dy @ dy),
        gamma_sum=float(np.linalg.norm(dx) + np.linalg.norm(dy)),
        s=2,
    )
