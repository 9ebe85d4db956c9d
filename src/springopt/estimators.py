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

A batch is ``np.sort(Generator.choice(n, b, replace=False))`` on its
sampler's generator, draw for draw.  ``BatchSampler`` draws a chunk of an
epoch's batches with one ``Generator.integers`` call that makes choice's own
bounded draws in choice's order (``sample_batch``); each batch is a
read-only int64 row of its chunk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .core import BlockProblem, Iterate, RowsMeanFn, check_dims, full_batch, is_integer

# Table-update calls (one per block per step, whatever the batch size) between exact
# mean recomputations.  Each drifts the mean by O(eps); recomputing keeps it within 1e-10.
_MEAN_RECOMPUTE_PERIOD = 4096


# Batches drawn per generator call, at most: a chunk is one epoch, ceil(n/b) batches.
_CHUNK_CAP = 64
# The largest batch drawn in chunks (see _chunk_draw).
_CHUNK_MAX_B = 128


@lru_cache(maxsize=8)
def _chunk_draw(n: int, b: int) -> tuple[np.ndarray, np.ndarray, tuple[int, int]] | None:
    """``integers``' (low, high, size) for a chunk of ceil(n/b) batches, at most
    ``_CHUNK_CAP``.  ``high`` holds one batch's bounds in choice's order, read-only:
    Floyd's pass draws from [0, j] for j = n-b, ..., n-1, then the shuffle from
    [0, i] for i = b-1, ..., 1.  Built once per (n, b), like ``full_batch``, so a
    run's three samplers share them.

    None where a batch is choice's own: b > _CHUNK_MAX_B or b^2 >= n.  From
    b^2 = n on, about two in five of Floyd's passes meet a pick they made
    before; rebuilding those batches in Python, at O(b) each, then costs more
    than choice, and so do a large b's draws through ``integers``' broadcast
    path (measured with numpy 2.4.6, per batch, chunks against choice: 4.2
    against 8.4 us at n = 500, b = 22; 13.5 against 9.3 at b = 45; 13.2 against
    11.1 at n = 10000, b = 100; 16.1 against 14.8 at n = 100000, b = 200).  The
    region holds choice's tail regime, n > 10000 and b > n // 50, where it
    shuffles the tail of arange(n) instead of Floyd's pass.
    """
    if b > _CHUNK_MAX_B or b * b >= n:
        return None
    high = np.concatenate([np.arange(n - b + 1, n + 1), np.arange(b, 1, -1)])
    low = np.zeros_like(high)  # an array low makes integers' call cheaper than a scalar 0
    low.flags.writeable = high.flags.writeable = False
    return low, high, (min(-(-n // b), _CHUNK_CAP), 2 * b - 1)


@dataclass(slots=True)
class BatchSampler:
    """Uniform without-replacement mini-batch sampler over {0, ..., n-1}.

    The batches equal choice's only while nothing else draws from ``rng``,
    which is read up to a chunk ahead of the batches handed out.  ``_draw`` is
    ``_chunk_draw(n, b)``; ``_chunk`` holds the batches not yet handed out,
    from row ``_next`` on, or None.  n and b are kept as ``int``.
    """

    n: int
    b: int
    rng: np.random.Generator
    _draw: tuple[np.ndarray, np.ndarray, tuple[int, int]] | None = field(init=False, repr=False, compare=False)
    _chunk: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _next: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (is_integer(self.n) and is_integer(self.b)):
            raise ValueError(f"n and b must be integers, got n={self.n!r}, b={self.b!r}")
        if not 1 <= self.b <= self.n:
            raise ValueError(f"batch size must satisfy 1 <= b <= n, got b={self.b}, n={self.n}")
        self.n, self.b = int(self.n), int(self.b)
        self._draw = _chunk_draw(self.n, self.b)


def _draw_chunk(sampler: BatchSampler) -> np.ndarray:
    """The sampler's next batches, one per row: sorted, int64 and read-only."""
    n, b = sampler.n, sampler.b
    # A chunk's Floyd and shuffle draws in one call.  The shuffle's only move the
    # stream: a sorted batch does not depend on them.
    picks = sampler.rng.integers(*sampler._draw)[:, :b]
    chunk = picks.copy()
    chunk.sort(axis=1)
    # A row holds a repeated draw exactly when Floyd's pass met a pick it had already
    # made; it then took j instead, and from there on its set is not the draws'.
    for row in np.logical_or.reduce(chunk[:, 1:] == chunk[:, :-1], axis=1).nonzero()[0]:
        seen = set()
        for j, pick in zip(range(n - b, n), picks[row].tolist()):
            seen.add(j if pick in seen else pick)
        chunk[row] = sorted(seen)
    chunk.setflags(write=False)
    return chunk


def sample_batch(sampler: BatchSampler) -> np.ndarray:
    """Draw one sorted b-subset of {0..n-1}, uniform over all such subsets.

    The batches of a sampler are ``np.sort(rng.choice(n, b, replace=False))``
    draw for draw, read-only and int64, and no two share memory.  Where
    ``_chunk_draw`` allows, one ``integers`` call draws a chunk of batches, the
    first time a batch is asked for and again after the chunk's last batch,
    which drops it: at every chunk boundary the stream stands where choice
    leaves it.  Each batch is a row of its chunk.  Elsewhere a batch is
    choice's own.
    """
    chunk = sampler._chunk
    if chunk is None:
        if sampler._draw is None:
            batch = sampler.rng.choice(sampler.n, size=sampler.b, replace=False)
            batch.sort()  # choice returns a fresh array: no copy needed
            batch.setflags(write=False)
            return batch
        chunk = sampler._chunk = _draw_chunk(sampler)
        sampler._next = 0
    batch = chunk[sampler._next]
    sampler._next += 1
    if sampler._next == chunk.shape[0]:
        sampler._chunk = None
    return batch


def dense_rows_mean(_idx: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Batch mean of dense gradient rows: the decoder without a per-row oracle."""
    return rows.mean(axis=0)


def row_dims(problem: BlockProblem) -> tuple[int, int]:
    """Widths of a SAGA x-row and y-row (the block dims for dense rows)."""
    return problem.row_dim_x or problem.dim_x, problem.row_dim_y or problem.dim_y


def row_means(problem: BlockProblem) -> tuple[RowsMeanFn, RowsMeanFn]:
    """The problem's (rows_mean_x, rows_mean_y), dense decoders where absent."""
    return problem.rows_mean_x or dense_rows_mean, problem.rows_mean_y or dense_rows_mean


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
        all_idx = full_batch(n)
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
    delta *= len(batch)  # mean += delta * b / n, without two dim-sized temporaries
    delta /= table.shape[0]
    mean += delta
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
        all_idx = full_batch(state.table_x.shape[0])
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
        return grad_fn(full_batch(problem.n), z_new.x, z_new.y)
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
# Variance-reduction constants
# ---------------------------------------------------------------------------


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
