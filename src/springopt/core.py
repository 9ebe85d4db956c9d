"""Two-block composite problems.

The objective being minimized is

    Phi(x, y) = J(x) + G(x) + (1/n) * sum_i F_i(x, y) + R(y)

with smooth components ``F_i`` (given through batch-mean oracles), an
optional deterministic smooth x-term ``G`` (``BlockProblem.smooth_x``) and
prox-capable, possibly non-smooth regularizers ``J`` and ``R``.  Indicator
constraints are encoded as regularizers taking the value ``+inf`` outside the
feasible set, so ``objective`` may legitimately return ``inf``; a NaN
objective is always an error.

Oracle contract: ``grad_x(idx, x, y)`` is the mean of grad_x F_i over a sorted
array ``idx`` of distinct indices, ``grad_y`` and ``value`` likewise, and a
call costs ``len(idx)`` SFO.  Full gradients and the smooth value pass all n
indices and add G's exact value or x-gradient, which costs no SFO.  SAGA
tables store one row per component: the problem's compact per-row data where
it has a per-row oracle (see ``BlockProblem``), else the dense component
gradient from a singleton batch.

Problem objects are immutable after construction and safe to share between
threads.  Oracles are deterministic, so results are reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

GradFn = Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
ValueFn = Callable[[np.ndarray, np.ndarray, np.ndarray], float]
RowsFn = Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
RowsMeanFn = Callable[[np.ndarray, np.ndarray], np.ndarray]
RegFn = Callable[[np.ndarray], float]
ProxFn = Callable[[float, np.ndarray], np.ndarray]
LipschitzFn = Callable[[np.ndarray, np.ndarray, np.ndarray], tuple[float, int]]


class SmoothTerm(NamedTuple):
    """A deterministic smooth term of one block: ``value(v)`` and ``grad(v)``
    at the block vector v."""

    value: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]


def _zero_reg(_v: np.ndarray) -> float:
    return 0.0


def _identity_prox(_gamma: float, v: np.ndarray) -> np.ndarray:
    return np.asarray(v, dtype=float)


@dataclass(frozen=True)
class BlockProblem:
    """Finite-sum two-block problem: n components, block dims (dim_x, dim_y).

    ``grad_x(idx, x, y)`` returns the mean x-partial (length dim_x) of the
    F_i over the indices ``idx``, ``grad_y`` the mean y-partial (length
    dim_y) and ``value`` the mean F_i; singleton batches give per-row data,
    and a call costs ``len(idx)`` SFO.  ``prox_x(gamma, v)`` returns one
    element of the prox of J at v with parameter gamma (single-valued by a
    documented tie-break when J is non-convex), and likewise ``prox_y`` for R.

    The optional per-row oracle of a block comes as a triple: ``rows_x(idx,
    x, y)`` returns an array (len(idx), row_dim_x) holding each component's
    gradient data at (x, y), costing ``len(idx)`` SFO, and ``rows_mean_x(idx,
    rows)`` returns the mean x-gradient (length dim_x) that the rows of the
    components ``idx`` encode, at no oracle cost.  An all-zero row encodes a
    zero gradient.  Likewise ``rows_y``/``rows_mean_y``/``row_dim_y``.

    The optional ``smooth_x`` is a deterministic smooth term G(x) outside the
    finite sum, a ``SmoothTerm``.  ``value``, ``grad_x`` and the x-rows hold
    the components alone; ``smooth_value`` and ``full_grad_x`` add G, and
    the solver adds G's exact gradient to every stochastic x-estimate,
    uncharged, so it needs no variance reduction.  G's gradient is added in
    place to the arrays ``grad_x`` and ``rows_mean_x`` return, so these must
    be fresh.  G's curvature belongs in the x-hook's value.

    The optional hooks ``lipschitz_x/lipschitz_y(x, y, batch)`` return their
    block's Lipschitz value at (x, y) on the sorted indices ``batch``, the
    full batch being ``np.arange(n)`` as for the oracles, and the number of
    operator applications made for it; ``lipschitz.lipschitz_draw`` charges
    ``len(batch)`` SFO for each.  The value is exact or an upper bound, and a
    hook reads no random stream.
    """

    n: int
    dim_x: int
    dim_y: int
    value: ValueFn
    grad_x: GradFn
    grad_y: GradFn
    reg_x_value: RegFn = _zero_reg
    reg_y_value: RegFn = _zero_reg
    prox_x: ProxFn = _identity_prox
    prox_y: ProxFn = _identity_prox
    lipschitz_x: LipschitzFn | None = None
    lipschitz_y: LipschitzFn | None = None
    # Optional per-row oracles for SAGA tables; without them a row is dense.
    rows_x: RowsFn | None = None
    rows_mean_x: RowsMeanFn | None = None
    row_dim_x: int | None = None
    rows_y: RowsFn | None = None
    rows_mean_y: RowsMeanFn | None = None
    row_dim_y: int | None = None
    smooth_x: SmoothTerm | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n}")
        if self.dim_x < 1 or self.dim_y < 1:
            raise ValueError(f"block dims must be positive, got ({self.dim_x}, {self.dim_y})")
        for block, triple in (("x", (self.rows_x, self.rows_mean_x, self.row_dim_x)),
                              ("y", (self.rows_y, self.rows_mean_y, self.row_dim_y))):
            if any(part is None for part in triple) != all(part is None for part in triple):
                raise ValueError(f"rows_{block}, rows_mean_{block} and row_dim_{block} come together")
            if triple[2] is not None and triple[2] < 1:
                raise ValueError(f"row_dim_{block} must be positive, got {triple[2]}")


class NonFiniteIterateError(ValueError):
    """An ``Iterate`` was built from blocks holding NaN or infinite entries."""


@dataclass(frozen=True)
class Iterate:
    """One block pair z = (x, y), stored as flat float64 vectors.

    Construction validates both blocks once: a non-finite entry raises
    ``NonFiniteIterateError`` (a ``ValueError``).
    """

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))
        if self.x.ndim != 1 or self.y.ndim != 1:
            raise ValueError("iterate blocks must be flat vectors")
        # ``ndarray.all`` is a Python wrapper around this one reduction.
        if not (np.logical_and.reduce(np.isfinite(self.x)) and np.logical_and.reduce(np.isfinite(self.y))):
            raise NonFiniteIterateError("iterate contains non-finite entries")


def check_dims(problem: BlockProblem, z: Iterate) -> None:
    if z.x.shape != (problem.dim_x,) or z.y.shape != (problem.dim_y,):
        raise ValueError(
            f"iterate dims ({z.x.shape[0]}, {z.y.shape[0]}) do not match problem "
            f"({problem.dim_x}, {problem.dim_y})"
        )


def dist_sq(a: Iterate, b: Iterate) -> float:
    """Squared distance ||z_a - z_b||^2 over both blocks."""
    dx = a.x - b.x
    dy = a.y - b.y
    return float(dx @ dx + dy @ dy)


def smooth_value(problem: BlockProblem, z: Iterate) -> float:
    """G(x) + (1/n) sum_i F_i(x, y): the value oracle over all n components,
    plus the smooth x-term where there is one."""
    check_dims(problem, z)
    val = float(problem.value(np.arange(problem.n), z.x, z.y))
    if problem.smooth_x is not None:
        val += float(problem.smooth_x.value(z.x))
    return val


def objective(problem: BlockProblem, z: Iterate) -> float:
    """Full objective J(x) + G(x) + (1/n) sum F_i + R(y); +inf outside indicators."""
    check_dims(problem, z)
    jx = float(problem.reg_x_value(z.x))
    ry = float(problem.reg_y_value(z.y))
    if np.isnan(jx) or np.isnan(ry):
        raise FloatingPointError("regularizer value is NaN")
    if np.isinf(jx) or np.isinf(ry):
        return float("inf")
    val = jx + smooth_value(problem, z) + ry
    if np.isnan(val):
        raise FloatingPointError("objective evaluated to NaN (numerical failure)")
    return val


def _mean_grad(problem: BlockProblem, z: Iterate, grad_fn: GradFn, dim: int) -> np.ndarray:
    check_dims(problem, z)
    g = np.asarray(grad_fn(np.arange(problem.n), z.x, z.y), dtype=float)
    if g.shape != (dim,):
        raise ValueError(f"full gradient has shape {g.shape}, expected ({dim},)")
    return g


def full_grad_x(problem: BlockProblem, z: Iterate) -> np.ndarray:
    """grad G(x) + (1/n) sum_i grad_x F_i(x, y): the x-oracle over all n
    components, plus the smooth x-term's gradient where there is one."""
    g = _mean_grad(problem, z, problem.grad_x, problem.dim_x)
    if problem.smooth_x is not None:
        g += problem.smooth_x.grad(z.x)
    return g


def full_grad_y(problem: BlockProblem, z: Iterate) -> np.ndarray:
    """(1/n) sum_i grad_y F_i(x, y): the y-oracle over all n components."""
    return _mean_grad(problem, z, problem.grad_y, problem.dim_y)


def prox_generic(prox: ProxFn, gamma: float, v: np.ndarray) -> np.ndarray:
    """Apply a prox map to v as a float array after validating the step
    parameter gamma > 0; the prox returns a float array (``BlockProblem``)."""
    if not gamma > 0:
        raise ValueError(f"prox step must be positive, got {gamma}")
    return prox(gamma, np.asarray(v, dtype=float))


@dataclass
class OracleCounter:
    """Mutable tally of component evaluations (``len(idx)`` per oracle call).

    Used for double-entry bookkeeping against the solver's reported SFO
    count: ``grad_x + grad_y`` must equal ``sfo_calls`` exactly when the
    solver's diagnostic evaluations are disabled.
    """

    grad_x: int = 0
    grad_y: int = 0
    value: int = 0

    @property
    def total_grads(self) -> int:
        return self.grad_x + self.grad_y


def with_oracle_counter(problem: BlockProblem) -> tuple[BlockProblem, OracleCounter]:
    """Wrap a problem so every oracle call adds its batch size to a counter.

    Per-row calls (``rows_x``/``rows_y``) count as gradient evaluations of
    their block.
    """
    counter = OracleCounter()

    def counted(name, tally):
        inner = getattr(problem, name)

        def oracle(idx, x, y):
            setattr(counter, tally, getattr(counter, tally) + len(idx))
            return inner(idx, x, y)

        return oracle

    tallies = {"grad_x": "grad_x", "grad_y": "grad_y", "value": "value",
               "rows_x": "grad_x", "rows_y": "grad_y"}
    oracles = {name: counted(name, tally) for name, tally in tallies.items()
               if getattr(problem, name) is not None}
    return replace(problem, **oracles), counter
