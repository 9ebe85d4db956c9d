import math
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from springopt.core import BlockProblem, Iterate, SmoothTerm, full_grad_x, full_grad_y, objective
from springopt.diagnostics import (
    bruteforce_prox_l0_nonneg,
    exhaustive_mse,
    fd_gradient_check,
    generalized_gradient_map,
    is_eps_critical,
)
from springopt.estimators import (
    BatchSampler,
    SagaState,
    SarahState,
    batch_grads_x,
    batch_grads_y,
    estimator_constants,
    saga_combine,
    saga_update_table_x,
    saga_update_table_y,
    sample_batch,
)
from springopt.problems import (
    BlindDeblurProblem,
    SparseNmfProblem,
    SparsePcaProblem,
    make_random_quadratic,
    make_separable_quadratic,
    prox_l0_nonneg_columns,
)
from springopt.harness.datasets import toy_blurred_image
from springopt.rng import stream_rng

from monitors import dist_sq, lyapunov_psi, probe_upsilon_saga


def test_gradmap_unregularized_returns_gradients(quad5, random_iterate):
    problem, _ = quad5
    z = random_iterate(problem, seed=1)
    x_next = z.x + 0.1
    for g1, g2 in ((0.5, 0.25), (2.0, 1.0)):
        ev = generalized_gradient_map(problem, z, x_next, g1, g2)
        np.testing.assert_allclose(ev.g_x, full_grad_x(problem, z), rtol=1e-12)
        np.testing.assert_allclose(ev.g_y, full_grad_y(problem, Iterate(x_next, z.y)), rtol=1e-12)
        assert ev.norm_sq == pytest.approx(float(ev.g_x @ ev.g_x + ev.g_y @ ev.g_y), rel=1e-12)


def test_gradmap_gamma_scale_invariance_without_regularizers(quad5, random_iterate):
    problem, _ = quad5
    z = random_iterate(problem, seed=2)
    a = generalized_gradient_map(problem, z, z.x, 0.3, 0.7)
    b = generalized_gradient_map(problem, z, z.x, 3.0, 7.0)
    np.testing.assert_allclose(a.g_x, b.g_x, rtol=1e-9)
    np.testing.assert_allclose(a.g_y, b.g_y, rtol=1e-9)


def test_gradmap_fixed_point_is_zero():
    problem, info = make_separable_quadratic(n=4, seed=0, spread=0.5)
    z = Iterate(info["a"], info["b"])
    ev = generalized_gradient_map(problem, z, z.x, 0.5, 0.5)
    assert ev.norm_sq == pytest.approx(0.0, abs=1e-24)


def test_gradmap_box_constraint_scalar_oracle():
    # Hand-solved 1-d projection: F = 0.5 (x - 3)^2 + 0.5 (y - 3)^2 with a
    # box [0, 1].  At x = 1: grad = -2, step gamma = 0.5 gives
    # x - 0.5*grad = 2 -> projected to 1 -> g_x = (1 - 1)/0.5 = 0.
    # At x = 0.5: x - 0.5*(-2.5) = 1.75 -> 1 -> g_x = (0.5 - 1)/0.5 = -1.
    clip = lambda g, v: np.clip(v, 0.0, 1.0)
    problem = BlockProblem(
        n=1, dim_x=1, dim_y=1,
        value=lambda idx, x, y: 0.5 * float((x[0] - 3) ** 2 + (y[0] - 3) ** 2),
        grad_x=lambda idx, x, y: np.array([x[0] - 3.0]),
        grad_y=lambda idx, x, y: np.array([y[0] - 3.0]),
        reg_x_value=lambda x: 0.0 if 0 <= x[0] <= 1 else float("inf"),
        reg_y_value=lambda y: 0.0 if 0 <= y[0] <= 1 else float("inf"),
        prox_x=clip,
        prox_y=clip,
    )
    z = Iterate(np.array([1.0]), np.array([1.0]))
    ev = generalized_gradient_map(problem, z, z.x, 0.5, 0.5)
    assert ev.norm_sq == pytest.approx(0.0, abs=1e-24)

    z = Iterate(np.array([0.5]), np.array([1.0]))
    ev = generalized_gradient_map(problem, z, z.x, 0.5, 0.5)
    assert ev.g_x[0] == pytest.approx(-1.0)
    assert ev.g_y[0] == pytest.approx(0.0, abs=1e-15)


def test_gradmap_rejects_bad_gammas(quad5, random_iterate):
    problem, _ = quad5
    z = random_iterate(problem, seed=3)
    with pytest.raises(ValueError):
        generalized_gradient_map(problem, z, z.x, 0.0, 1.0)


@pytest.mark.parametrize("gammas", [(math.nan, 1.0), (1.0, math.nan)])
def test_gradmap_rejects_nan_gamma(quad5, random_iterate, gammas):
    # The map checks its own parameters; no prox call stands behind it to catch a NaN.
    problem, _ = quad5
    z = random_iterate(problem, seed=3)
    with pytest.raises(ValueError, match="gradient-map parameters must be positive"):
        generalized_gradient_map(problem, z, z.x, *gammas)


def test_is_eps_critical_boundary():
    from springopt.diagnostics import GradMapEval

    make = lambda ns: GradMapEval(np.zeros(1), np.zeros(1), ns)
    assert is_eps_critical(make(0.0), 0.0)
    assert is_eps_critical(make(4.0), 2.0)
    assert not is_eps_critical(make(4.0000001), 2.0)


def test_lyapunov_reduces_to_objective():
    problem, info = make_separable_quadratic(n=3, seed=1)
    z = Iterate(info["a"], info["b"])
    psi = lyapunov_psi(problem, z, z, upsilon=0.0, v1=1.0, v_upsilon=0.5, rho=0.5)
    assert psi == pytest.approx(objective(problem, z), rel=1e-12)


def test_lyapunov_arithmetic():
    # V1=1, V_ups=0, rho=1 -> A=1; ups = 2 sqrt(2) and ||dz||^2 = sqrt(2)
    # contribute exactly 1 each.
    problem, info = make_separable_quadratic(n=3, seed=2)
    z = Iterate(info["a"], info["b"])
    dz = math.sqrt(math.sqrt(2.0))  # ||dz||^2 = sqrt(2)
    z_prev = Iterate(info["a"] + np.array([dz, 0, 0, 0]), info["b"])
    psi = lyapunov_psi(problem, z, z_prev, upsilon=2.0 * math.sqrt(2.0), v1=1.0, v_upsilon=0.0, rho=1.0)
    assert psi == pytest.approx(objective(problem, z) + 2.0, rel=1e-9)


def test_lyapunov_trend_saga_epoch_averages():
    # Seed-averaged trend: with steps satisfying the decrease condition, the
    # epoch-averaged Lyapunov value is non-increasing after the warm epoch
    # in at least 90% of seeds.
    n, b, dim = 10, 2, 4
    ok = 0
    for seed in range(20):
        problem, info = make_separable_quadratic(dim_x=dim, dim_y=dim, n=n, seed=seed, spread=1.0)
        v1, _v2, vu, rho = estimator_constants("saga", n=n, b=b, L=1.0, M=1.0)
        gamma = 0.9 * math.sqrt(2.0) / (5.0 * (math.sqrt(v1 + vu / rho) + 1.0))
        sx = BatchSampler(n, b, stream_rng(seed, "batch_x"))
        sy = BatchSampler(n, b, stream_rng(seed, "batch_y"))
        rng0 = np.random.default_rng(seed)
        z = Iterate(rng0.standard_normal(dim), rng0.standard_normal(dim))
        z_prev = z
        state = SagaState.from_problem(problem, z)
        psis = []
        for _epoch in range(50):
            vals = []
            for _ in range(n // b):
                probe = probe_upsilon_saga(problem, state, z, b=b)
                vals.append(
                    objective(problem, z)
                    + probe.upsilon / (2 * rho * math.sqrt(2 * (v1 + vu / rho)))
                    + math.sqrt((v1 + vu / rho) / 2.0) * dist_sq(z, z_prev)
                )
                bx = sample_batch(sx)
                fx = batch_grads_x(problem, bx, z.x, z.y)
                gx = saga_combine(fx, bx, state.table_x, state.mean_x)
                saga_update_table_x(state, bx, fx)
                x1 = z.x - gamma * gx
                by = sample_batch(sy)
                fy = batch_grads_y(problem, by, x1, z.y)
                gy = saga_combine(fy, by, state.table_y, state.mean_y)
                saga_update_table_y(state, by, fy)
                z_prev, z = z, Iterate(x1, z.y - gamma * gy)
            psis.append(float(np.mean(vals)))
        drops = np.diff(psis[1:])  # skip the first (warm-up) epoch
        tol = 1e-9 * (abs(psis[1]) + 1.0)
        if np.all(drops <= tol):
            ok += 1
    assert ok >= 18


# ---------------------------------------------------------------------------
# Finite differences
# ---------------------------------------------------------------------------


def test_fd_check_linear_exact():
    g = np.array([1.0, -2.0])
    problem = BlockProblem(
        n=2, dim_x=2, dim_y=2,
        value=lambda idx, x, y: float(g @ x + 2 * g @ y),
        grad_x=lambda idx, x, y: g.copy(),
        grad_y=lambda idx, x, y: 2 * g,
    )
    z = Iterate(np.ones(2), np.ones(2))
    assert fd_gradient_check(problem, z) <= 1e-10


def test_fd_check_quadratic(quad5, random_iterate):
    problem, _ = quad5
    z = random_iterate(problem, seed=5)
    assert fd_gradient_check(problem, z, h=1e-6) <= 1e-5


def test_fd_check_constant_zero():
    problem = BlockProblem(
        n=1, dim_x=2, dim_y=2,
        value=lambda idx, x, y: 4.2,
        grad_x=lambda idx, x, y: np.zeros(2),
        grad_y=lambda idx, x, y: np.zeros(2),
    )
    assert fd_gradient_check(problem, Iterate(np.ones(2), np.ones(2))) == 0.0


def test_fd_check_flags_wrong_gradient(quad5, random_iterate):
    problem, _ = quad5
    broken = replace(problem, grad_x=lambda idx, x, y: problem.grad_x(idx, x, y) * 1.1)
    z = random_iterate(problem, seed=6)
    assert fd_gradient_check(broken, z) > 1e-3


@pytest.mark.parametrize("block", ["x", "y"])
@pytest.mark.parametrize("family", ["nmf", "pca"])
def test_fd_check_reads_the_oracles_not_the_saga_rows(family, block):
    # The factorization problems' SAGA rows still encode the true gradients; a 1% error in
    # the oracle the solvers step with must show.
    A = np.random.default_rng(505).random((10, 8))
    adapter = (SparseNmfProblem(A=A, r=3, s=4) if family == "nmf"
               else SparsePcaProblem(A=A, r=3, lam1=0.1, lam2=0.1))
    problem = adapter.block_problem()
    grad = getattr(problem, f"grad_{block}")
    broken = replace(problem, **{f"grad_{block}": lambda idx, x, y: 1.01 * grad(idx, x, y)})
    z = adapter.initial_iterate(0)
    assert fd_gradient_check(problem, z) <= 1e-5
    assert fd_gradient_check(broken, z) > 1e-3


def _bid_toy(lam=5e-4):
    Z, _, _ = toy_blurred_image(seed=5, size=16, kernel=3)
    adapter = BlindDeblurProblem(Z=Z, kernel_shape=(3, 3), lam=lam, n_tiles=4)
    return adapter, adapter.block_problem()


def test_fd_check_covers_the_smooth_x_term():
    # The edge regularizer lives outside the components' oracles; a 1% error in
    # its gradient must show.
    adapter, problem = _bid_toy()
    term = problem.smooth_x
    broken = replace(problem, smooth_x=SmoothTerm(term.value, lambda v: 1.01 * term.grad(v)))
    z = adapter.initial_iterate()
    assert fd_gradient_check(problem, z, h=1e-6) <= 1e-5
    assert fd_gradient_check(broken, z, h=1e-6) > 1e-4


# ---------------------------------------------------------------------------
# Brute-force prox oracle
# ---------------------------------------------------------------------------


def test_bruteforce_prox_examples():
    np.testing.assert_array_equal(bruteforce_prox_l0_nonneg(np.array([-1.0, 2.0, 0.5]), 1),
                                  [0.0, 2.0, 0.0])
    v = np.array([0.5, 1.0, 0.25])
    np.testing.assert_array_equal(bruteforce_prox_l0_nonneg(v, 3), v)
    np.testing.assert_array_equal(bruteforce_prox_l0_nonneg(-np.ones(3), 2), np.zeros(3))


def test_bruteforce_prox_limits():
    with pytest.raises(ValueError):
        bruteforce_prox_l0_nonneg(np.zeros(13), 2)
    with pytest.raises(ValueError):
        bruteforce_prox_l0_nonneg(np.zeros(3), 0)


@settings(max_examples=60)
@given(dim=st.integers(1, 8), s=st.integers(1, 3), seed=st.integers(0, 10_000))
def test_bruteforce_agrees_with_fast_prox(dim, s, seed):
    rng = np.random.default_rng(seed)
    v = np.round(rng.standard_normal(dim), 3)  # rounding provokes ties
    fast = prox_l0_nonneg_columns(v.reshape(-1, 1), s).ravel()
    slow = bruteforce_prox_l0_nonneg(v, s)
    np.testing.assert_array_equal(fast, slow)


# ---------------------------------------------------------------------------
# Exhaustive MSE
# ---------------------------------------------------------------------------


def test_exhaustive_mse_full_batch_sgd_is_zero(quad6, random_iterate):
    problem, _ = quad6
    z = random_iterate(problem, seed=7)
    assert exhaustive_mse(problem, "sgd", problem.n, z) == pytest.approx(0.0, abs=1e-22)


@pytest.mark.parametrize("kind, block, match", [
    ("sgd", "z", "block must be 'x' or 'y', got 'z'"),
    ("svrg", "x", "unknown estimator kind 'svrg'"),
    ("svrg", "y", "unknown estimator kind 'svrg'"),
])
def test_exhaustive_mse_rejects_unknown_block_and_kind(quad6, random_iterate, kind, block, match):
    problem, _ = quad6
    with pytest.raises(ValueError, match=match):
        exhaustive_mse(problem, kind, 2, random_iterate(problem, seed=9), block=block)


def test_exhaustive_mse_saga_exact_tables_zero(quad6, random_iterate):
    problem, _ = quad6
    z = random_iterate(problem, seed=8)
    state = SagaState.from_problem(problem, z)
    assert exhaustive_mse(problem, "saga", 2, z, state=state) == pytest.approx(0.0, abs=1e-20)


def test_exhaustive_mse_matches_manual_enumeration(quad6, random_iterate):
    problem, _ = quad6
    z = random_iterate(problem, seed=9)
    full = full_grad_x(problem, z)
    manual = []
    for batch in combinations(range(problem.n), 2):
        est = batch_grads_x(problem, np.asarray(batch), z.x, z.y).mean(axis=0)
        manual.append(float(np.sum((est - full) ** 2)))
    assert exhaustive_mse(problem, "sgd", 2, z) == pytest.approx(np.mean(manual), rel=1e-12)


def test_exhaustive_mse_sarah_needs_z_old(quad6, random_iterate):
    problem, _ = quad6
    z = random_iterate(problem, seed=10)
    state = SarahState(np.zeros(3), np.zeros(3), p=2.0)
    with pytest.raises(ValueError):
        exhaustive_mse(problem, "sarah", 2, z, state=state)


@pytest.mark.parametrize("b", [1, 2])
def test_bid_saga_mse_does_not_carry_the_edge_regularizer(b):
    # The regularizer is deterministic and held in no table row, so SAGA's error
    # against the full gradient is the same for lam and 100 lam, also when every
    # row was visited at another point; with rows taken at z it is zero.
    errors = []
    for lam in (5e-4, 5e-2):
        adapter, problem = _bid_toy(lam)
        assert problem.n == 4
        z = adapter.initial_iterate()
        rng = np.random.default_rng(41)
        state = SagaState.from_problem(problem)
        for i in range(problem.n):
            visit = np.clip(z.x + 0.05 * rng.standard_normal(z.x.shape), 0.0, 1.0)
            saga_update_table_x(state, np.array([i]), batch_grads_x(problem, np.array([i]), visit, z.y))
        errors.append(exhaustive_mse(problem, "saga", b, z, state=state))
        current = SagaState.from_problem(problem, z)
        assert exhaustive_mse(problem, "saga", b, z, state=current) <= 1e-28
    assert errors[0] > 1e-6
    assert errors[0] == pytest.approx(errors[1], rel=1e-12)


def test_exhaustive_mse_rejects_large_n():
    problem, _ = make_random_quadratic(dim_x=2, dim_y=2, n=9, seed=0)
    z = Iterate(np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError):
        exhaustive_mse(problem, "sgd", 2, z)
