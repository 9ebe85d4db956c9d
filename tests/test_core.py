from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from springopt.core import (
    BlockProblem,
    Iterate,
    NonFiniteIterateError,
    full_grad_x,
    full_grad_y,
    objective,
    smooth_value,
    with_oracle_counter,
)
from springopt.problems import (
    SparseNmfProblem,
    SparsePcaProblem,
    make_random_quadratic,
    make_separable_quadratic,
    prox_l1,
    prox_nonneg,
)

from monitors import dist_sq, total_grads


def test_iterate_rejects_non_finite():
    with pytest.raises(ValueError):
        Iterate(np.array([1.0, np.nan]), np.zeros(2))
    with pytest.raises(ValueError):
        Iterate(np.zeros(2), np.array([np.inf, 0.0]))



def test_iterate_non_finite_error_is_a_value_error():
    # The solver turns exactly this error into a DivergenceError; a public
    # Iterate still raises a ValueError, and a shape error stays a plain one.
    for x, y in ((np.array([np.nan]), np.zeros(1)), (np.zeros(1), np.array([-np.inf]))):
        with pytest.raises(NonFiniteIterateError) as exc_info:
            Iterate(x, y)
        assert isinstance(exc_info.value, ValueError)
    with pytest.raises(ValueError) as exc_info:
        Iterate(np.full((1, 2), np.nan), np.zeros(1))
    assert not isinstance(exc_info.value, NonFiniteIterateError)

def test_objective_dimension_mismatch(sep10):
    problem, _ = sep10
    with pytest.raises(ValueError):
        objective(problem, Iterate(np.zeros(3), np.zeros(4)))


def test_objective_zero_at_exact_nmf_factorization():
    # A = X Y exactly with feasible X, Y gives a vanishing residual.
    rng = np.random.default_rng(0)
    X = prox_nonneg(rng.random((6, 2)))
    Y = prox_nonneg(rng.random((2, 5)))
    A = X @ Y
    problem = SparseNmfProblem(A=A, r=2, s=6).block_problem()
    assert objective(problem, Iterate(X.ravel(), Y.ravel())) == pytest.approx(0.0, abs=1e-12)


def test_objective_zero_at_least_squares_optimum():
    problem, info = make_separable_quadratic(n=10, seed=7, spread=0.0)
    z = Iterate(info["a"], info["b"])
    assert objective(problem, z) == pytest.approx(0.0, abs=1e-12)


def test_objective_sparse_pca_l1_term_only():
    A = np.zeros((3, 4))
    problem = SparsePcaProblem(A=A, r=2, lam1=1.0, lam2=1.0).block_problem()
    assert objective(problem, Iterate(np.zeros(6), np.zeros(8))) == 0.0
    x = np.zeros(6)
    x[2] = 2.0
    assert objective(problem, Iterate(x, np.zeros(8))) == pytest.approx(2.0)


def test_objective_reports_inf_outside_indicator():
    problem = SparseNmfProblem(A=np.ones((3, 3)), r=2, s=1).block_problem()
    x = -np.ones(6)  # negative entries are infeasible
    assert objective(problem, Iterate(x, np.ones(6))) == np.inf


def test_objective_nan_is_numerical_failure():
    problem = BlockProblem(
        n=1, dim_x=1, dim_y=1,
        value=lambda idx, x, y: float("nan"),
        grad_x=lambda idx, x, y: np.zeros(1),
        grad_y=lambda idx, x, y: np.zeros(1),
    )
    with pytest.raises(FloatingPointError):
        objective(problem, Iterate(np.zeros(1), np.zeros(1)))


def test_full_grad_single_component_equals_component():
    problem, info = make_random_quadratic(n=1, seed=2)
    z = Iterate(np.ones(4), -np.ones(4))
    np.testing.assert_array_equal(full_grad_x(problem, z),
                                  problem.grad_x(np.array([0]), z.x, z.y))
    np.testing.assert_array_equal(full_grad_y(problem, z),
                                  problem.grad_y(np.array([0]), z.x, z.y))


def test_full_grad_identical_components():
    g = np.array([1.0, -2.0, 3.0])
    problem = BlockProblem(
        n=4, dim_x=3, dim_y=3,
        value=lambda idx, x, y: float(g @ x),
        grad_x=lambda idx, x, y: g.copy(),
        grad_y=lambda idx, x, y: 2 * g,
    )
    z = Iterate(np.zeros(3), np.zeros(3))
    np.testing.assert_allclose(full_grad_x(problem, z), g, rtol=1e-15)
    np.testing.assert_allclose(full_grad_y(problem, z), 2 * g, rtol=1e-15)


def test_full_grad_matches_finite_differences(quad5, random_iterate):
    # Independent oracle: central differences of the mean component value.
    problem, _ = quad5
    z = random_iterate(problem, seed=42)
    h = 1e-6
    fd = np.empty(problem.dim_x)
    for j in range(problem.dim_x):
        xp, xm = z.x.copy(), z.x.copy()
        xp[j] += h
        xm[j] -= h
        fd[j] = (smooth_value(problem, Iterate(xp, z.y)) - smooth_value(problem, Iterate(xm, z.y))) / (2 * h)
    g = full_grad_x(problem, z)
    assert np.linalg.norm(fd - g) <= 1e-5 * (1 + np.linalg.norm(g))


def test_objective_summation_order(quad5, random_iterate):
    problem, _ = quad5
    z = random_iterate(problem, seed=1)
    forward = smooth_value(problem, z)
    reverse = sum(problem.value(np.array([i]), z.x, z.y) for i in reversed(range(problem.n))) / problem.n
    assert abs(forward - reverse) <= 1e-12 * max(1.0, abs(forward))


@given(gamma=st.floats(1e-3, 10.0), seed=st.integers(0, 10_000))
def test_prox_variational_inequality(gamma, seed):
    # prox point p must satisfy gamma*J(p) + 0.5||p - v||^2 <= gamma*J(v)
    # whenever v is feasible (no worse than staying put).
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(5)

    def l1(w):
        return float(np.abs(w).sum())

    p = prox_l1(v, gamma)
    assert gamma * l1(p) + 0.5 * np.sum((p - v) ** 2) <= gamma * l1(v) + 1e-12

    feas = np.maximum(v, 0.0)
    proj = prox_nonneg(v)
    assert 0.5 * np.sum((proj - v) ** 2) <= 0.5 * np.sum((feas - v) ** 2) + 1e-12


def test_oracle_counter_counts_calls(quad5):
    problem, _ = quad5
    counted, counter = with_oracle_counter(problem)
    z = Iterate(np.zeros(4), np.zeros(4))
    full_grad_x(counted, z)
    full_grad_y(counted, z)
    assert counter.grad_x == problem.n
    assert counter.grad_y == problem.n
    assert total_grads(counter) == 2 * problem.n
    objective(counted, z)
    assert counter.value == problem.n
    assert total_grads(counter) == 2 * problem.n  # values do not count as grads


def test_oracle_counter_counts_row_calls_as_gradients():
    adapter = SparseNmfProblem(A=np.random.default_rng(0).random((4, 6)), r=2, s=4)
    problem = adapter.block_problem()
    counted, counter = with_oracle_counter(problem)
    z = adapter.initial_iterate(seed=1)
    counted.rows_x(np.array([0, 2, 5]), z.x, z.y)
    counted.rows_y(np.array([1, 3]), z.x, z.y)
    counted.rows_mean_x(np.array([0]), np.zeros((1, problem.row_dim_x)))  # decoding is free
    assert (counter.grad_x, counter.grad_y, counter.value) == (3, 2, 0)


def test_row_oracle_parts_come_together(quad5):
    problem, _ = quad5

    def rows(idx, x, y):
        return np.zeros((len(idx), 2))

    with pytest.raises(ValueError):
        replace(problem, rows_x=rows)
    with pytest.raises(ValueError):
        replace(problem, rows_y=rows, rows_mean_y=lambda idx, r: np.zeros(4), row_dim_y=0)


@pytest.mark.parametrize("fields, match", [
    (dict(n=0), "n must be positive, got 0"),
    (dict(dim_x=0), r"block dims must be positive, got \(0, 4\)"),
    (dict(dim_y=-1), r"block dims must be positive, got \(4, -1\)"),
])
def test_block_problem_rejects_empty_sizes(quad5, fields, match):
    problem, _ = quad5
    with pytest.raises(ValueError, match=match):
        replace(problem, **fields)


@pytest.mark.parametrize("block", ["x", "y"])
def test_full_gradient_of_the_wrong_shape_is_refused(quad5, block):
    problem, _ = quad5
    z = Iterate(np.zeros(problem.dim_x), np.zeros(problem.dim_y))
    wrong = replace(problem, **{f"grad_{block}": lambda idx, x, y: np.zeros(3)})
    with pytest.raises(ValueError, match=r"full gradient has shape \(3,\), expected \(4,\)"):
        (full_grad_x if block == "x" else full_grad_y)(wrong, z)


def test_objective_nan_regularizer_is_numerical_failure(quad5):
    problem, _ = quad5
    z = Iterate(np.zeros(problem.dim_x), np.zeros(problem.dim_y))
    for block in ("x", "y"):
        with pytest.raises(FloatingPointError, match="regularizer value is NaN"):
            objective(replace(problem, **{f"reg_{block}_value": lambda v: float("nan")}), z)


def test_dist_sq():
    a = Iterate(np.array([1.0, 0.0]), np.array([0.0]))
    b = Iterate(np.array([0.0, 0.0]), np.array([2.0]))
    assert dist_sq(a, b) == pytest.approx(5.0)
