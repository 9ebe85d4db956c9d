"""Convergence measures and brute-force verification oracles.

The generalized gradient map is the scaled displacement of a prox-gradient
step computed with exact full gradients; its squared norm is the criticality
measure traced by the solver.  Note the asymmetry inherited from the
Gauss-Seidel update order: the y-row is evaluated at the post-x-update
point, which the caller must supply (pass x itself for a symmetric
standalone check).

Everything in the second half of the module exists to check the fast paths
against slow, independent computations: finite differences of the
batch-mean gradient oracles and of the smooth x-term, support enumeration
for the sparse prox, exhaustive batch enumeration for estimator
mean-squared errors.  These run only at test scale (n <= 8, dim <= 12).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .core import BlockProblem, Iterate, check_dims, full_grad_x, full_grad_y
from .estimators import SagaState, SarahState, saga_estimate_x, saga_estimate_y


@dataclass(frozen=True)
class GradMapEval:
    """Both rows of the generalized gradient map and their squared norm."""

    g_x: np.ndarray
    g_y: np.ndarray
    norm_sq: float


def generalized_gradient_map(
    problem: BlockProblem,
    z: Iterate,
    z_x_next: np.ndarray,
    gamma1: float,
    gamma2: float,
    grads: tuple[np.ndarray, np.ndarray] | None = None,
) -> GradMapEval:
    """Evaluate the gradient map at z with parameters (gamma1, gamma2).

    g_x = (x - prox_{g1 J}(x - g1 grad_x F(x, y))) / g1
    g_y = (y - prox_{g2 R}(y - g2 grad_y F(x_next, y))) / g2

    where ``z_x_next`` is the post-x-update point the y-gradient is
    evaluated at.  ``grads``, when given, are those two full gradients
    already computed by the caller, and are not evaluated again.
    """
    if not (gamma1 > 0 and gamma2 > 0):
        raise ValueError(f"gradient-map parameters must be positive, got ({gamma1}, {gamma2})")
    check_dims(problem, z)
    if grads is None:
        grads = (full_grad_x(problem, z), full_grad_y(problem, Iterate(z_x_next, z.y)))
    # Each row divides the difference it makes in place: no further temporary.
    g_x = z.x - problem.prox_x(gamma1, z.x - gamma1 * grads[0])
    g_x /= gamma1
    g_y = z.y - problem.prox_y(gamma2, z.y - gamma2 * grads[1])
    g_y /= gamma2
    return GradMapEval(g_x=g_x, g_y=g_y, norm_sq=float(g_x @ g_x + g_y @ g_y))


def is_eps_critical(eval: GradMapEval, eps: float) -> bool:
    """True when the gradient-map norm is at most eps (boundary inclusive)."""
    return math.sqrt(eval.norm_sq) <= eps


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def fd_gradient_check(problem: BlockProblem, z: Iterate, h: float = 1e-6) -> float:
    """Worst relative error between the oracles and central-difference gradients.

    For each component i, ``grad_x`` and ``grad_y`` on the singleton batch
    [i] are compared with central differences of ``value`` on the same batch,
    and the gradient of the problem's ``smooth_x`` term, if any, with central
    differences of its value; each coordinate is perturbed by +-h.  The error
    is ||fd - grad|| / (1 + ||grad||), and the maximum over components,
    blocks and the term is returned.
    """
    check_dims(problem, z)
    checks = []
    for i in range(problem.n):
        one = np.array([i])
        checks.append((z.x, problem.grad_x(one, z.x, z.y), lambda v, one=one: problem.value(one, v, z.y)))
        checks.append((z.y, problem.grad_y(one, z.x, z.y), lambda v, one=one: problem.value(one, z.x, v)))
    if problem.smooth_x is not None:
        checks.append((z.x, problem.smooth_x.grad(z.x), problem.smooth_x.value))
    worst = 0.0
    for point, g, value_at in checks:
        fd = np.empty(len(point))
        for j in range(len(point)):
            plus, minus = point.copy(), point.copy()
            plus[j] += h
            minus[j] -= h
            fd[j] = (value_at(plus) - value_at(minus)) / (2.0 * h)
        err = float(np.linalg.norm(fd - g)) / (1.0 + float(np.linalg.norm(g)))
        worst = max(worst, err)
    return worst


def bruteforce_prox_l0_nonneg(v: np.ndarray, s: int) -> np.ndarray:
    """Exact projection onto {p >= 0, ||p||_0 <= s} by support enumeration.

    Enumerates supports in lexicographic order and keeps the first strict
    minimizer of 0.5 ||p - v||^2, matching the lowest-index tie-break of the
    fast prox.  The cost is an exactly rounded sum (``math.fsum``), so
    supports that swap equal entries tie exactly instead of by summation
    order.  Test-scale only: dim <= 12.
    """
    v = np.asarray(v, dtype=float)
    d = v.shape[0]
    if d > 12:
        raise ValueError(f"brute-force prox is limited to dim <= 12, got {d}")
    if s < 1:
        raise ValueError(f"sparsity level must be >= 1, got {s}")
    s = min(s, d)
    best_cost = math.inf
    best = np.zeros(d)
    for support in combinations(range(d), s):
        p = np.zeros(d)
        idx = list(support)
        p[idx] = np.maximum(v[idx], 0.0)
        diff = p - v
        cost = 0.5 * math.fsum(diff * diff)
        if cost < best_cost:
            best_cost = cost
            best = p
    return best


def _all_batches(n: int, b: int):
    if n > 8:
        raise ValueError(f"exhaustive enumeration is limited to n <= 8, got {n}")
    for batch in combinations(range(n), b):
        yield np.asarray(batch, dtype=int)


def exhaustive_mse(
    problem: BlockProblem,
    kind: str,
    b: int,
    z: Iterate,
    state: SagaState | SarahState | None = None,
    z_old: Iterate | None = None,
    block: str = "x",
) -> float:
    """Mean squared estimator error over ALL size-b batches.

    kind 'sgd' and 'saga' measure the estimate at z against the full partial
    gradient at z; 'sarah' measures one recursive step from the estimates in
    ``state`` (taken at ``z_old``) to ``z``.  Each estimate is the one the
    solver steps with: batch-mean oracle calls for SGD and SARAH, the
    problem's rows against the SagaState's tables for SAGA, plus on the
    x-block the exact gradient at z of the problem's ``smooth_x`` term, as
    ``full_grad_x`` has it.  The previous-estimate vectors in a SarahState
    are not mutated.
    """
    check_dims(problem, z)
    if block not in ("x", "y"):
        raise ValueError(f"block must be 'x' or 'y', got {block!r}")
    grad = problem.grad_x if block == "x" else problem.grad_y
    saga = saga_estimate_x if block == "x" else saga_estimate_y
    full = full_grad_x(problem, z) if block == "x" else full_grad_y(problem, z)
    term = problem.smooth_x.grad(z.x) if block == "x" and problem.smooth_x is not None else 0.0
    total = 0.0
    count = 0
    for batch in _all_batches(problem.n, b):
        if kind == "sgd":
            est = grad(batch, z.x, z.y)
        elif kind == "saga":
            est = saga(problem, batch, z, state)
        elif kind == "sarah":
            if z_old is None:
                raise ValueError("SARAH MSE needs the previous iterate z_old")
            prev = state.est_x if block == "x" else state.est_y
            est = grad(batch, z.x, z.y) - grad(batch, z_old.x, z_old.y) + prev
        else:
            raise ValueError(f"unknown estimator kind {kind!r}")
        err = est + term - full
        total += float(err @ err)
        count += 1
    return total / count
