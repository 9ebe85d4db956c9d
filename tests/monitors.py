"""Monitors from SPRING's convergence analysis, used only by the tests.

The variance probes Upsilon of the SAGA and SARAH estimators and the
Lyapunov function Psi are devices of the analysis: no solver path reads
them, and they never influence the iteration.  ``total_grads`` is the
gradient tally of an ``OracleCounter``, for double-entry bookkeeping against
a trace's ``sfo_calls``.  ``image_gradients`` is the blind-deconvolution edge
term's difference images, the reference its flat-image hooks are checked
against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from springopt.core import BlockProblem, Iterate, OracleCounter, RowsMeanFn, check_dims, objective
from springopt.estimators import SagaState, SarahState, _check_saga_state, batch_grads_x, batch_grads_y


def dist_sq(a: Iterate, b: Iterate) -> float:
    """Squared distance ||z_a - z_b||^2 over both blocks."""
    dx = a.x - b.x
    dy = a.y - b.y
    return float(dx @ dx + dy @ dy)


def total_grads(counter: OracleCounter) -> int:
    return counter.grad_x + counter.grad_y


def image_gradients(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Forward differences (horizontal, vertical) with zero boundary rows."""
    dh = np.zeros_like(X)
    dh[:, :-1] = X[:, 1:] - X[:, :-1]
    dv = np.zeros_like(X)
    dv[:-1, :] = X[1:, :] - X[:-1, :]
    return dh, dv


def expand_rows(rows_mean: RowsMeanFn, idx: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Dense component gradients encoded by ``rows``, decoded one row at a time."""
    return np.array([rows_mean(idx[j:j + 1], rows[j:j + 1]) for j in range(len(idx))])


@dataclass(frozen=True)
class VarianceProbe:
    """Snapshot of the variance-tracking quantities.

    ``upsilon`` is a sum of s squared deviation norms (s = 2n for SAGA, 2
    for SARAH); ``gamma_sum`` the matching sum of plain norms.
    """

    upsilon: float
    gamma_sum: float
    s: int


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


def lyapunov_psi(
    problem: BlockProblem,
    z_k: Iterate,
    z_prev: Iterate,
    upsilon: float,
    v1: float,
    v_upsilon: float,
    rho: float,
) -> float:
    """Objective plus variance and displacement penalties.

    Psi = Phi(z_k) + upsilon / (2 rho sqrt(2 A)) + sqrt(A/2) ||z_k - z_prev||^2
    with A = V1 + V_upsilon / rho.  A monitor only: its expected decrease is
    a statistical trend, never asserted per step.
    """
    if rho <= 0:
        raise ValueError(f"rho must be positive, got {rho}")
    a = v1 + v_upsilon / rho
    phi = objective(problem, z_k)
    if a == 0.0:
        return phi if upsilon == 0.0 else float("inf")
    return phi + upsilon / (2.0 * rho * math.sqrt(2.0 * a)) + math.sqrt(a / 2.0) * dist_sq(z_k, z_prev)
