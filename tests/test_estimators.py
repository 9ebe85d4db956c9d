import math
import tracemalloc
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import springopt.estimators as estimators
from springopt.core import Iterate, full_grad_x, full_grad_y
from springopt.diagnostics import exhaustive_mse
from springopt.estimators import (
    BatchSampler,
    SagaState,
    SarahState,
    batch_grads_x,
    batch_grads_y,
    estimator_constants,
    expand_rows,
    probe_upsilon_saga,
    probe_upsilon_sarah,
    saga_combine,
    saga_estimate_x,
    saga_estimate_y,
    saga_update_table_x,
    saga_update_table_y,
    sample_batch,
    sarah_estimate_x,
    sarah_estimate_y,
    sgd_estimate_x,
    sgd_estimate_y,
)
from springopt.harness.datasets import toy_blurred_image
from springopt.problems import BlindDeblurProblem, SparseNmfProblem, bid_component_split, make_random_quadratic
from springopt.rng import stream_rng
from springopt.solver import SolverConfig, run


# ---------------------------------------------------------------------------
# Sampler
# ---------------------------------------------------------------------------


def test_sample_full_batch_forced():
    sampler = BatchSampler(5, 5, np.random.default_rng(0))
    np.testing.assert_array_equal(sample_batch(sampler), np.arange(5))


def test_sample_single():
    sampler = BatchSampler(1, 1, np.random.default_rng(0))
    np.testing.assert_array_equal(sample_batch(sampler), [0])


def test_sampler_rejects_oversized_batch():
    with pytest.raises(ValueError):
        BatchSampler(4, 5, np.random.default_rng(0))


def test_sample_batches_sorted_distinct():
    sampler = BatchSampler(10, 4, np.random.default_rng(3))
    for _ in range(200):
        batch = sample_batch(sampler)
        assert len(set(batch.tolist())) == 4
        assert np.all(np.diff(batch) > 0)


def test_sampler_marginal_frequencies():
    # Monte Carlo: each index should appear with frequency b/n = 1/3.
    n, b, draws = 6, 2, 100_000
    sampler = BatchSampler(n, b, np.random.default_rng(7))
    counts = np.zeros(n)
    for _ in range(draws):
        counts[sample_batch(sampler)] += 1
    freq = counts / draws
    np.testing.assert_allclose(freq, b / n, atol=0.01)


def test_sampler_determinism():
    a = BatchSampler(20, 5, stream_rng(99, "batch_x"))
    b = BatchSampler(20, 5, stream_rng(99, "batch_x"))
    for _ in range(50):
        np.testing.assert_array_equal(sample_batch(a), sample_batch(b))


@pytest.mark.parametrize("n, b", [(500, 13), (16, 1), (20, 20), (1, 1), (2, 1), (20, 1), (2**32 + 5, 1)])
def test_sampler_stream_is_sorted_choice(n, b):
    # The batch sequence of a seed is np.sort(choice(n, b, replace=False)),
    # draw for draw, and each batch is a fresh array.
    sampler = BatchSampler(n, b, stream_rng(42, "batch_x"))
    ref = stream_rng(42, "batch_x")
    prev = None
    for _ in range(1000):
        batch = sample_batch(sampler)
        np.testing.assert_array_equal(batch, np.sort(ref.choice(n, b, replace=False)))
        assert prev is None or not np.shares_memory(batch, prev)
        prev = batch


# ---------------------------------------------------------------------------
# SGD
# ---------------------------------------------------------------------------


def test_sgd_full_batch_equals_full_gradient(quad5, random_iterate):
    problem, _ = quad5
    z = random_iterate(problem, seed=0)
    batch = np.arange(problem.n)
    np.testing.assert_allclose(sgd_estimate_x(problem, batch, z), full_grad_x(problem, z), rtol=1e-12)
    np.testing.assert_allclose(sgd_estimate_y(problem, batch, z), full_grad_y(problem, z), rtol=1e-12)


def test_sgd_identical_components():
    g = np.array([2.0, -1.0])
    from springopt.core import BlockProblem

    problem = BlockProblem(
        n=5, dim_x=2, dim_y=2,
        value=lambda idx, x, y: 0.0,
        grad_x=lambda idx, x, y: g.copy(),
        grad_y=lambda idx, x, y: g.copy(),
    )
    z = Iterate(np.zeros(2), np.zeros(2))
    for batch in ([0], [1, 3], [0, 2, 4]):
        np.testing.assert_allclose(sgd_estimate_x(problem, np.asarray(batch), z), g, rtol=1e-15)


def test_sgd_exhaustive_mean_is_unbiased(quad6, random_iterate):
    # Oracle: average the estimate over all C(6,2) = 15 batches.
    problem, _ = quad6
    z = random_iterate(problem, seed=4)
    full = full_grad_x(problem, z)
    acc = np.zeros(problem.dim_x)
    batches = list(combinations(range(problem.n), 2))
    assert len(batches) == 15
    for batch in batches:
        acc += sgd_estimate_x(problem, np.asarray(batch), z)
    np.testing.assert_allclose(acc / len(batches), full, rtol=1e-12, atol=1e-14)


# ---------------------------------------------------------------------------
# SAGA
# ---------------------------------------------------------------------------


def _saga_state_random(problem, rng):
    state = SagaState.zeros(problem.n, problem.dim_x, problem.dim_y)
    state.table_x[:] = rng.standard_normal(state.table_x.shape)
    state.table_y[:] = rng.standard_normal(state.table_y.shape)
    state.mean_x = state.table_x.mean(axis=0)
    state.mean_y = state.table_y.mean(axis=0)
    return state


def test_saga_with_current_tables_gives_full_gradient(quad5, random_iterate):
    problem, _ = quad5
    z = random_iterate(problem, seed=9)
    state = SagaState.from_problem(problem, z)
    batch = np.array([1, 3])
    np.testing.assert_allclose(saga_estimate_x(problem, batch, z, state),
                               full_grad_x(problem, z), rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(saga_estimate_y(problem, batch, z, state),
                               full_grad_y(problem, z), rtol=1e-12, atol=1e-14)


def test_saga_zero_tables_reduce_to_sgd(quad5, random_iterate):
    problem, _ = quad5
    z = random_iterate(problem, seed=10)
    state = SagaState.zeros(problem.n, problem.dim_x, problem.dim_y)
    batch = np.array([0, 2])
    np.testing.assert_allclose(saga_estimate_x(problem, batch, z, state),
                               sgd_estimate_x(problem, batch, z), rtol=1e-14)


def test_saga_estimate_does_not_mutate_state(quad5, random_iterate):
    problem, _ = quad5
    z = random_iterate(problem, seed=11)
    state = _saga_state_random(problem, np.random.default_rng(0))
    before = state.table_x.copy()
    saga_estimate_x(problem, np.array([0, 4]), z, state)
    np.testing.assert_array_equal(state.table_x, before)


def test_saga_exhaustive_unbiasedness(quad6, random_iterate):
    problem, _ = quad6
    z = random_iterate(problem, seed=12)
    state = _saga_state_random(problem, np.random.default_rng(1))
    acc = np.zeros(problem.dim_x)
    batches = list(combinations(range(problem.n), 2))
    for batch in batches:
        acc += saga_estimate_x(problem, np.asarray(batch), z, state)
    np.testing.assert_allclose(acc / len(batches), full_grad_x(problem, z), rtol=1e-12, atol=1e-14)


def test_saga_update_full_batch_syncs_tables(quad5, random_iterate):
    problem, _ = quad5
    z = random_iterate(problem, seed=13)
    state = _saga_state_random(problem, np.random.default_rng(2))
    batch = np.arange(problem.n)
    fresh = batch_grads_x(problem, batch, z.x, z.y)
    saga_update_table_x(state, batch, fresh)
    np.testing.assert_array_equal(state.table_x, fresh)
    np.testing.assert_allclose(state.mean_x, fresh.mean(axis=0), rtol=1e-10)


def test_saga_update_touches_only_batch_rows(quad5, random_iterate):
    problem, _ = quad5
    z = random_iterate(problem, seed=14)
    state = _saga_state_random(problem, np.random.default_rng(3))
    before = state.table_x.copy()
    batch = np.array([1])
    fresh = batch_grads_x(problem, batch, z.x, z.y)
    saga_update_table_x(state, batch, fresh)
    np.testing.assert_array_equal(state.table_x[1], fresh[0])
    for i in (0, 2, 3, 4):
        np.testing.assert_array_equal(state.table_x[i], before[i])


def test_saga_incremental_mean_matches_recompute(quad5, random_iterate):
    # Oracle: recompute the mean from scratch after many partial updates.
    problem, _ = quad5
    state = _saga_state_random(problem, np.random.default_rng(4))
    rng = np.random.default_rng(5)
    for k in range(300):
        z = random_iterate(problem, seed=100 + k)
        batch = np.sort(rng.choice(problem.n, size=2, replace=False))
        saga_update_table_x(state, batch, batch_grads_x(problem, batch, z.x, z.y))
        saga_update_table_y(state, batch, batch_grads_y(problem, batch, z.x, z.y))
    for mean, table in ((state.mean_x, state.table_x), (state.mean_y, state.table_y)):
        exact = table.mean(axis=0)
        assert np.linalg.norm(mean - exact) <= 1e-10 * (1 + np.linalg.norm(exact))


def test_saga_requires_initialized_tables(quad5, random_iterate):
    problem, _ = quad5
    z = random_iterate(problem, seed=15)
    bad = SagaState.zeros(problem.n - 1, problem.dim_x, problem.dim_y)
    with pytest.raises(ValueError):
        saga_estimate_x(problem, np.array([0]), z, bad)


# ---------------------------------------------------------------------------
# Compact SAGA rows (factorization problems)
# ---------------------------------------------------------------------------


def _toy_nmf(seed=0, m=5, d=6, r=2):
    rng = np.random.default_rng(seed)
    return SparseNmfProblem(A=rng.random((m, d)), r=r, s=m)


def _nmf_point(rng, m=5, d=6, r=2):
    return Iterate(rng.random(m * r), rng.random(r * d))


def _mixed_compact_state(problem, rng):
    """Compact tables whose rows were written at different points."""
    state = SagaState.from_problem(problem, _nmf_point(rng))
    for _ in range(8):
        z = _nmf_point(rng)
        batch = np.sort(rng.choice(problem.n, size=2, replace=False))
        saga_update_table_x(state, batch, batch_grads_x(problem, batch, z.x, z.y))
        saga_update_table_y(state, batch, batch_grads_y(problem, batch, z.x, z.y))
    return state


def _expanded(problem, state):
    """The dense-row problem and a dense SagaState encoding the same gradients."""
    dense = replace(problem, rows_x=None, rows_mean_x=None, row_dim_x=None,
                    rows_y=None, rows_mean_y=None, row_dim_y=None)
    all_idx = np.arange(problem.n)
    dense_state = SagaState(table_x=expand_rows(state.rows_mean_x, all_idx, state.table_x),
                            table_y=expand_rows(state.rows_mean_y, all_idx, state.table_y),
                            mean_x=state.mean_x.copy(), mean_y=state.mean_y.copy())
    return dense, dense_state


def test_nmf_saga_tables_are_compact():
    adapter = _toy_nmf()
    problem = adapter.block_problem()
    state = SagaState.from_problem(problem)
    assert state.table_x.shape == (problem.n, 5 + 2)
    assert state.table_y.shape == (problem.n, 2)
    assert not state.mean_x.any() and not state.mean_y.any()
    with pytest.raises(ValueError):  # a dense table does not fit compact rows
        saga_estimate_x(problem, np.array([0]), _nmf_point(np.random.default_rng(0)),
                        SagaState.zeros(problem.n, problem.dim_x, problem.dim_y))


@pytest.mark.parametrize("block", ["x", "y"])
def test_compact_saga_exhaustive_mse_matches_dense_table(block):
    # n = 6, b = 2 as in acceptance c02: the compact table gives the same
    # exhaustive MSE as the dense table of its decoded rows, and meets the
    # (1/(b n)) sum_i ||grad F_i - table_i||^2 bound with no tolerance.
    adapter = _toy_nmf()
    problem = adapter.block_problem()
    n, b = problem.n, 2
    rng = np.random.default_rng(31)
    all_idx = np.arange(n)
    for _ in range(20):
        state = _mixed_compact_state(problem, rng)
        dense, dense_state = _expanded(problem, state)
        z = _nmf_point(rng)
        mse = exhaustive_mse(problem, "saga", b, z, state=state, block=block)
        dense_mse = exhaustive_mse(dense, "saga", b, z, state=dense_state, block=block)
        assert mse == pytest.approx(dense_mse, rel=1e-12)
        grads = (batch_grads_x if block == "x" else batch_grads_y)(dense, all_idx, z.x, z.y)
        table = dense_state.table_x if block == "x" else dense_state.table_y
        assert mse <= float(((grads - table) ** 2).sum()) / (b * n)
        probe, dense_probe = (probe_upsilon_saga(pr, st, z, b=b) for pr, st in
                              ((problem, state), (dense, dense_state)))
        assert probe.upsilon == pytest.approx(dense_probe.upsilon, rel=1e-12)
        assert probe.gamma_sum == pytest.approx(dense_probe.gamma_sum, rel=1e-12)


def test_compact_saga_mean_recompute_decodes_table(monkeypatch):
    # Recomputing after every update, the tracked means are the table's decoded means.
    monkeypatch.setattr(estimators, "_MEAN_RECOMPUTE_PERIOD", 1)
    problem = _toy_nmf(seed=3).block_problem()
    rng = np.random.default_rng(32)
    state = SagaState.from_problem(problem)
    all_idx = np.arange(problem.n)
    for _ in range(50):
        z = _nmf_point(rng)
        batch = np.sort(rng.choice(problem.n, size=3, replace=False))
        saga_update_table_x(state, batch, batch_grads_x(problem, batch, z.x, z.y))
        saga_update_table_y(state, batch, batch_grads_y(problem, batch, z.x, z.y))
        for mean, exact in ((state.mean_x, problem.rows_mean_x(all_idx, state.table_x)),
                            (state.mean_y, problem.rows_mean_y(all_idx, state.table_y))):
            assert np.linalg.norm(mean - exact) <= 1e-12 * (1 + np.linalg.norm(exact))


@pytest.mark.parametrize("family", ["quadratic", "nmf"])
def test_saga_update_returns_combine_and_fresh_mean(family):
    # One pair of decodes serves the SAGA estimate, the SGD estimate and the update.
    rng = np.random.default_rng(34)
    if family == "quadratic":
        problem, _ = make_random_quadratic(dim_x=3, dim_y=2, n=6, seed=34)
        state = SagaState.from_problem(problem, Iterate(rng.standard_normal(3), rng.standard_normal(2)))
        z = Iterate(rng.standard_normal(3), rng.standard_normal(2))
    else:
        problem = _toy_nmf(seed=4).block_problem()
        state = _mixed_compact_state(problem, rng)
        z = _nmf_point(rng)
    batch = np.array([1, 4])
    for rows_fn, update, table, mean, rows_mean in (
        (batch_grads_x, saga_update_table_x, state.table_x, state.mean_x, state.rows_mean_x),
        (batch_grads_y, saga_update_table_y, state.table_y, state.mean_y, state.rows_mean_y),
    ):
        fresh = rows_fn(problem, batch, z.x, z.y)
        expected = saga_combine(fresh, batch, table, mean, rows_mean)
        estimate, fresh_mean = update(state, batch, fresh)
        np.testing.assert_array_equal(estimate, expected)
        np.testing.assert_array_equal(fresh_mean, rows_mean(batch, fresh))


def test_nmf_saga_state_memory_scales_with_rows():
    # 200 x 500 at r = 10: compact rows need n (m + r) + n r numbers (0.9 MB
    # with the means); dense rows would need n (m r + r n) (28 MB).
    rng = np.random.default_rng(33)
    adapter = SparseNmfProblem(A=rng.random((200, 500)), r=10, s=200)
    problem = adapter.block_problem()
    for state in (SagaState.from_problem(problem, adapter.initial_iterate(seed=0)),
                  SagaState.from_problem(problem)):
        held = sum(a.nbytes for a in (state.table_x, state.table_y, state.mean_x, state.mean_y))
        assert held <= 2e6


def test_bid_saga_table_holds_tiles_and_kernels():
    # bid-medium's shape: a 64 x 64 image, 9 x 9 kernel, 16 tiles, b = 1.  An x-row
    # is a tile's residual and a kernel, so the tables take O(image + n (tile +
    # kernel)) memory; dense image rows alone would take 0.52 MB.
    Z, _, _ = toy_blurred_image(seed=0, size=64, kernel=9)
    adapter = BlindDeblurProblem(Z=Z, kernel_shape=(9, 9), n_tiles=16)
    problem, z0 = adapter.block_problem(), adapter.initial_iterate()
    largest = max((rs.stop - rs.start) * (cs.stop - cs.start) for rs, cs in bid_component_split(Z.shape, 16))
    assert SagaState.from_problem(problem).table_x.shape == (16, largest + 9 * 9)
    config = SolverConfig(algorithm="spring-saga", batch_size=1, epochs=1, seed=1, warm_start=False)
    run(problem, config, z0)
    tracemalloc.start()
    try:
        run(problem, config, z0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.6e6


# ---------------------------------------------------------------------------
# SARAH
# ---------------------------------------------------------------------------


def test_sarah_refresh_returns_exact_full_gradient(quad5, random_iterate):
    problem, _ = quad5
    z = random_iterate(problem, seed=16)
    state = SarahState(np.ones(4), np.ones(4), p=4.0)
    out = sarah_estimate_x(problem, np.array([0]), z, z, state, refresh=True)
    np.testing.assert_array_equal(out, full_grad_x(problem, z))
    np.testing.assert_array_equal(state.est_x, out)


def test_sarah_stationary_recursion_keeps_estimate(quad5, random_iterate):
    problem, _ = quad5
    z = random_iterate(problem, seed=17)
    prev = np.array([1.0, -2.0, 0.5, 3.0])
    state = SarahState(prev.copy(), prev.copy(), p=4.0)
    out = sarah_estimate_x(problem, np.array([1, 2]), z, z, state, refresh=False)
    np.testing.assert_allclose(out, prev, atol=1e-14)


def test_sarah_rejects_p_below_one():
    with pytest.raises(ValueError):
        SarahState(np.zeros(2), np.zeros(2), p=0.5)


@pytest.mark.parametrize("p", [math.nan, math.inf], ids=["nan", "inf"])
def test_sarah_rejects_non_finite_p(p):
    # With p = NaN the refresh coin never comes up: SARAH would never refresh.
    with pytest.raises(ValueError):
        SarahState(np.zeros(2), np.zeros(2), p=p)


def test_sarah_exhaustive_recursive_mse_bound(quad6, random_iterate):
    # One recursive step from an exact estimate: exhaustive MSE over all
    # C(6,2) batches is bounded by (1/(b n)) sum_i ||grad F_i(new) - grad F_i(old)||^2.
    problem, _ = quad6
    n, b = problem.n, 2
    z_old = random_iterate(problem, seed=18)
    z_new = random_iterate(problem, seed=19)
    exact_prev = full_grad_x(problem, z_old)
    full_new = full_grad_x(problem, z_new)
    diffs = batch_grads_x(problem, np.arange(n), z_new.x, z_new.y) - batch_grads_x(
        problem, np.arange(n), z_old.x, z_old.y
    )
    bound = float((diffs**2).sum()) / (b * n)
    errs = []
    for batch in combinations(range(n), b):
        est = diffs[list(batch)].mean(axis=0) + exact_prev
        errs.append(float(np.sum((est - full_new) ** 2)))
    assert np.mean(errs) <= bound


def test_sarah_shared_refresh_updates_both_blocks(quad5, random_iterate):
    problem, _ = quad5
    z = random_iterate(problem, seed=20)
    mid = random_iterate(problem, seed=21)
    state = SarahState(np.zeros(4), np.zeros(4), p=2.0)
    sarah_estimate_x(problem, np.array([0]), z, z, state, refresh=True)
    sarah_estimate_y(problem, np.array([1]), mid, mid, state, refresh=True)
    np.testing.assert_array_equal(state.est_x, full_grad_x(problem, z))
    np.testing.assert_array_equal(state.est_y, full_grad_y(problem, mid))


# ---------------------------------------------------------------------------
# Variance probes and constants
# ---------------------------------------------------------------------------


def test_constants_saga_reference_values():
    v1, v2, vu, rho = estimator_constants("saga", n=10, b=1, L=1.0, M=1.0)
    assert v1 == pytest.approx(6.0)
    assert v2 == pytest.approx(math.sqrt(6.0))
    assert vu == pytest.approx(1340.0)
    assert rho == pytest.approx(0.05)


def test_constants_sarah_reference_values():
    v1, v2, vu, rho = estimator_constants("sarah", p=4, L=1.0)
    assert (v1, v2, vu, rho) == (2.0, 2.0, 2.0, 0.25)


def test_constants_saga_full_batch_rho():
    *_rest, rho = estimator_constants("saga", n=4, b=4, L=1.0, M=1.0)
    assert rho == pytest.approx(0.5)


def test_probe_saga_zero_when_tables_current(quad5, random_iterate):
    problem, _ = quad5
    z = random_iterate(problem, seed=22)
    state = SagaState.from_problem(problem, z)
    probe = probe_upsilon_saga(problem, state, z, b=2)
    assert probe.upsilon == pytest.approx(0.0, abs=1e-20)
    assert probe.gamma_sum == pytest.approx(0.0, abs=1e-12)
    assert probe.s == 2 * problem.n


def test_probe_saga_single_deviation_coefficients():
    # n = b = 1 with both tables off by the same vector v: 1 + 4 coefficients.
    from springopt.core import BlockProblem

    g = np.array([1.0, 2.0])
    problem = BlockProblem(
        n=1, dim_x=2, dim_y=2,
        value=lambda idx, x, y: 0.0,
        grad_x=lambda idx, x, y: g.copy(),
        grad_y=lambda idx, x, y: g.copy(),
    )
    z = Iterate(np.zeros(2), np.zeros(2))
    v = np.array([0.3, -0.4])
    state = SagaState(table_x=(g - v)[None, :].copy(), table_y=(g - v)[None, :].copy(),
                      mean_x=g - v, mean_y=g - v)
    probe = probe_upsilon_saga(problem, state, z, b=1)
    assert probe.upsilon == pytest.approx(5.0 * float(v @ v), rel=1e-12)
    # Unsquared companion carries 1 + 2 coefficients.
    assert probe.gamma_sum == pytest.approx(3.0 * math.sqrt(float(v @ v)), rel=1e-12)


def test_probe_saga_bounds_exhaustive_mse(quad6, random_iterate):
    # The exhaustive MSE E||est - full||^2 is bounded by the x-block part of
    # the deviation sum, (1/(b n)) sum_i ||grad_x F_i - table_i||^2.
    problem, _ = quad6
    n, b = problem.n, 2
    z = random_iterate(problem, seed=23)
    state = _saga_state_random(problem, np.random.default_rng(6))
    full = full_grad_x(problem, z)
    mse = 0.0
    batches = list(combinations(range(n), b))
    for batch in batches:
        err = saga_estimate_x(problem, np.asarray(batch), z, state) - full
        mse += float(err @ err)
    mse /= len(batches)
    grads = batch_grads_x(problem, np.arange(n), z.x, z.y)
    x_bound = float(((grads - state.table_x) ** 2).sum()) / (b * n)
    assert mse <= x_bound


def test_probe_sarah_values(quad5, random_iterate):
    problem, _ = quad5
    z = random_iterate(problem, seed=24)
    gx, gy = full_grad_x(problem, z), full_grad_y(problem, z)
    state = SarahState(gx.copy(), gy.copy(), p=5.0)
    probe = probe_upsilon_sarah(state, gx, gy)
    assert probe.upsilon == 0.0
    assert probe.s == 2
    v1, _v2, _vu, rho = estimator_constants("sarah", p=state.p, L=2.0)
    assert rho == pytest.approx(0.2)
    assert v1 == pytest.approx(8.0)

    e = np.zeros(4)
    e[0] = 1.0
    state = SarahState(gx + e, gy.copy(), p=5.0)
    probe = probe_upsilon_sarah(state, gx, gy)
    assert probe.upsilon == pytest.approx(1.0)


def test_sarah_geometric_decay_monte_carlo(quad6):
    # E Upsilon_{k+1} <= (1 - 1/p) Upsilon_k + 2 L^2 (||z_{k+1}-z_k||^2 +
    # ||z_k - z_{k-1}||^2) over the coin and batch randomness, with fixed
    # iterates; checked against the Monte Carlo mean with a 3-sigma margin.
    problem, info = quad6
    n, b, p = problem.n, 2, 4.0
    L = info["L_joint"]
    rng = np.random.default_rng(77)
    z_pre = Iterate(rng.standard_normal(3), rng.standard_normal(3))
    z_k = Iterate(z_pre.x + 0.1 * rng.standard_normal(3), z_pre.y + 0.1 * rng.standard_normal(3))
    z_next = Iterate(z_k.x + 0.1 * rng.standard_normal(3), z_k.y + 0.1 * rng.standard_normal(3))
    mid_prev = Iterate(z_k.x, z_pre.y)   # y-estimates anchor at (x_k, y_{k-1})
    mid_next = Iterate(z_next.x, z_k.y)

    est_x0 = full_grad_x(problem, z_pre) + 0.2 * rng.standard_normal(3)
    est_y0 = full_grad_y(problem, mid_prev) + 0.2 * rng.standard_normal(3)
    ups_k = float(np.sum((est_x0 - full_grad_x(problem, z_pre)) ** 2)
                  + np.sum((est_y0 - full_grad_y(problem, mid_prev)) ** 2))

    disp = (np.sum((z_next.x - z_k.x) ** 2) + np.sum((z_next.y - z_k.y) ** 2)
            + np.sum((z_k.x - z_pre.x) ** 2) + np.sum((z_k.y - z_pre.y) ** 2))
    rhs = (1 - 1 / p) * ups_k + 2 * L * L * disp

    gx_true = full_grad_x(problem, z_k)
    gy_true = full_grad_y(problem, mid_next)
    samples = []
    for _ in range(1000):
        state = SarahState(est_x0.copy(), est_y0.copy(), p=p)
        refresh = rng.random() < 1 / p
        bx = np.sort(rng.choice(n, size=b, replace=False))
        by = np.sort(rng.choice(n, size=b, replace=False))
        ex = sarah_estimate_x(problem, bx, z_k, z_pre, state, refresh=refresh)
        ey = sarah_estimate_y(problem, by, mid_next, mid_prev, state, refresh=refresh)
        samples.append(float(np.sum((ex - gx_true) ** 2) + np.sum((ey - gy_true) ** 2)))
    samples = np.asarray(samples)
    margin = 3 * samples.std(ddof=1) / math.sqrt(len(samples))
    assert samples.mean() <= rhs + margin


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


@settings(max_examples=20)
@given(n=st.integers(2, 8), b=st.integers(1, 3), seed=st.integers(0, 1000))
def test_unbiasedness_property(n, b, seed):
    b = min(b, n)
    problem, _ = make_random_quadratic(dim_x=3, dim_y=2, n=n, seed=seed)
    rng = np.random.default_rng(seed + 1)
    z = Iterate(rng.standard_normal(3), rng.standard_normal(2))
    state = SagaState.zeros(n, 3, 2)
    state.table_x[:] = rng.standard_normal((n, 3))
    state.mean_x = state.table_x.mean(axis=0)
    full = full_grad_x(problem, z)
    batches = list(combinations(range(n), b))
    sgd_acc = np.zeros(3)
    saga_acc = np.zeros(3)
    for batch in batches:
        arr = np.asarray(batch)
        sgd_acc += sgd_estimate_x(problem, arr, z)
        saga_acc += saga_estimate_x(problem, arr, z, state)
    scale = max(1.0, float(np.linalg.norm(full)))
    assert np.linalg.norm(sgd_acc / len(batches) - full) <= 1e-12 * scale
    assert np.linalg.norm(saga_acc / len(batches) - full) <= 1e-12 * scale


def test_estimate_determinism_bit_for_bit(quad5, random_iterate):
    problem, _ = quad5
    z = random_iterate(problem, seed=30)

    def sequence():
        rng = stream_rng(5, "batch_x")
        sampler = BatchSampler(problem.n, 2, rng)
        return [sgd_estimate_x(problem, sample_batch(sampler), z) for _ in range(20)]

    for a, b in zip(sequence(), sequence()):
        np.testing.assert_array_equal(a, b)
