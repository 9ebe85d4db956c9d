import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from springopt import estimators as est_module
from springopt import solver as solver_module
from springopt.core import BlockProblem, CurvatureOperator, Iterate, objective, with_oracle_counter
from springopt.diagnostics import generalized_gradient_map
from springopt.estimators import BatchSampler, SagaState, SarahState
from springopt.harness.datasets import toy_blurred_image, toy_nmf_matrix
from springopt.harness.runner import ProblemSpec
from springopt.lipschitz import ALGORITHMS, POWER_ITERATIONS, ipalm_momentum
from springopt.problems import BlindDeblurProblem, SparseNmfProblem, make_separable_quadratic
from springopt.rng import stream_rng
from springopt.solver import (
    ConfigError,
    DivergenceError,
    EstimatorDriver,
    SolverConfig,
    ipalm_step,
    palm_step,
    run,
    spring_step,
)


def _sgd_driver(problem, b, seed=0):
    return EstimatorDriver(
        kind="sgd",
        sampler_x=BatchSampler(problem.n, b, stream_rng(seed, "batch_x")),
        sampler_y=BatchSampler(problem.n, b, stream_rng(seed, "batch_y")),
        coin_rng=stream_rng(seed, "sarah_coin"),
    )


# ---------------------------------------------------------------------------
# Single steps
# ---------------------------------------------------------------------------


def test_palm_step_is_alternating_gradient_sweep(sep10):
    problem, info = sep10
    z = Iterate(np.zeros(4), np.zeros(4))
    gamma = 0.25
    out = palm_step(problem, z, gamma, gamma)
    # x-step: x - gamma * (x - a); y-step at the updated x is separable in y.
    np.testing.assert_allclose(out.x, gamma * info["a"], rtol=1e-14)
    np.testing.assert_allclose(out.y, gamma * info["b"], rtol=1e-14)


def test_spring_full_batch_matches_palm(sep10):
    problem, _ = sep10
    z = Iterate(np.ones(4), -np.ones(4))
    driver = _sgd_driver(problem, problem.n)
    z_spring, sfo = spring_step(problem, z, driver, 0.3, 0.4)
    z_palm = palm_step(problem, z, 0.3, 0.4)
    np.testing.assert_allclose(z_spring.x, z_palm.x, atol=1e-14)
    np.testing.assert_allclose(z_spring.y, z_palm.y, atol=1e-14)
    assert sfo == 2 * problem.n


def test_spring_step_with_exact_estimator_is_palm_step(quad5, random_iterate):
    # PALM is SPRING with the exact estimator: the same step, bit for bit, charged n per block.
    problem, _ = quad5
    z = random_iterate(problem, seed=44)
    z_spring, sfo = spring_step(problem, z, EstimatorDriver("full"), 0.3, 0.4)
    z_palm = palm_step(problem, z, 0.3, 0.4)
    np.testing.assert_array_equal(z_spring.x, z_palm.x)
    np.testing.assert_array_equal(z_spring.y, z_palm.y)
    assert sfo == 2 * problem.n


def test_step_fixed_point(quad5):
    # Zero gradients with no regularizers: z stays put.
    problem = BlockProblem(
        n=2, dim_x=3, dim_y=3,
        value=lambda idx, x, y: 0.0,
        grad_x=lambda idx, x, y: np.zeros(3),
        grad_y=lambda idx, x, y: np.zeros(3),
    )
    z = Iterate(np.ones(3), 2 * np.ones(3))
    out = palm_step(problem, z, 1.0, 1.0)
    np.testing.assert_array_equal(out.x, z.x)
    np.testing.assert_array_equal(out.y, z.y)


def test_spring_step_separable_half_step_oracle():
    # F = 0.5||x - a||^2 + 0.5||y - b||^2, n=1, gamma = 1/2:
    # one step lands exactly halfway to the targets.
    problem, info = make_separable_quadratic(n=1, seed=8, spread=0.0)
    z = Iterate(np.zeros(4), np.zeros(4))
    driver = _sgd_driver(problem, 1)
    out, _ = spring_step(problem, z, driver, 0.5, 0.5)
    np.testing.assert_allclose(out.x, 0.5 * info["a"], rtol=1e-14)
    np.testing.assert_allclose(out.y, 0.5 * info["b"], rtol=1e-14)


@pytest.mark.parametrize("gammas", [(math.nan, 0.1), (0.1, math.nan)])
def test_spring_step_rejects_nan_step_before_any_draw(gammas):
    # A NaN step fails the positivity check before a batch is drawn or a SAGA row refreshed.
    problem, _ = make_separable_quadratic(n=8, seed=10)
    saga = SagaState.from_problem(problem, Iterate(np.zeros(4), np.zeros(4)))
    driver = replace(_sgd_driver(problem, 2), kind="saga", saga=saga)

    def tables():
        return [saga.table_x.tobytes(), saga.table_y.tobytes(), saga.mean_x.tobytes(), saga.mean_y.tobytes()]

    before = tables()
    with pytest.raises(ValueError, match="step sizes must be positive"):
        spring_step(problem, Iterate(np.ones(4), -np.ones(4)), driver, *gammas)
    assert tables() == before
    fresh = _sgd_driver(problem, 2)
    for sampler, fresh_sampler in ((driver.sampler_x, fresh.sampler_x), (driver.sampler_y, fresh.sampler_y)):
        np.testing.assert_array_equal(est_module.sample_batch(sampler), est_module.sample_batch(fresh_sampler))


def test_gauss_seidel_ordering_spy():
    # The y-gradient must see the freshly updated x block.
    seen_by_y = []
    a = np.array([2.0, 0.0])
    b = np.array([0.0, 2.0])

    problem = BlockProblem(
        n=2, dim_x=2, dim_y=2,
        value=lambda idx, x, y: 0.0,
        grad_x=lambda idx, x, y: x - a,
        grad_y=lambda idx, x, y: (seen_by_y.extend(x.copy() for _ in idx), y - b)[1],
    )
    z = Iterate(np.zeros(2), np.zeros(2))
    out = palm_step(problem, z, 0.5, 0.5)
    assert len(seen_by_y) == 2
    for seen in seen_by_y:
        np.testing.assert_array_equal(seen, out.x)

    seen_by_y.clear()
    driver = _sgd_driver(problem, 1)
    out, _ = spring_step(problem, z, driver, 0.5, 0.5)
    assert all(np.array_equal(s, out.x) for s in seen_by_y)


def test_ipalm_zero_momentum_equals_palm(quad5, random_iterate):
    problem, _ = quad5
    z = random_iterate(problem, seed=40)
    z_prev = random_iterate(problem, seed=41)
    a = ipalm_step(problem, z, z_prev, 0.1, 0.1, beta=0.0)
    b = palm_step(problem, z, 0.1, 0.1)
    np.testing.assert_allclose(a.x, b.x, atol=1e-15)
    np.testing.assert_allclose(a.y, b.y, atol=1e-15)


def test_ipalm_stationary_history_is_noop(quad5, random_iterate):
    problem, _ = quad5
    z = random_iterate(problem, seed=42)
    a = ipalm_step(problem, z, z, 0.1, 0.1, beta=0.7)
    b = palm_step(problem, z, 0.1, 0.1)
    np.testing.assert_allclose(a.x, b.x, atol=1e-15)
    np.testing.assert_allclose(a.y, b.y, atol=1e-15)


def test_ipalm_two_step_scalar_recursion_oracle():
    # Hand-computed recursion for the separable quadratic with beta = 0.5,
    # gamma = 1/2: xbar = x + 0.5 (x - x_prev); x_next = (xbar + a) / 2.
    problem, info = make_separable_quadratic(n=1, seed=9, spread=0.0)
    a, b = info["a"], info["b"]
    z0 = Iterate(np.zeros(4), np.zeros(4))

    z1 = ipalm_step(problem, z0, z0, 0.5, 0.5, beta=0.5)
    np.testing.assert_allclose(z1.x, 0.5 * a, rtol=1e-14)

    z2 = ipalm_step(problem, z1, z0, 0.5, 0.5, beta=0.5)
    xbar = z1.x + 0.5 * (z1.x - z0.x)
    ybar = z1.y + 0.5 * (z1.y - z0.y)
    np.testing.assert_allclose(z2.x, 0.5 * (xbar + a), rtol=1e-14)
    np.testing.assert_allclose(z2.y, 0.5 * (ybar + b), rtol=1e-14)


def test_palm_sufficient_decrease_on_quadratic(quad5, random_iterate):
    problem, info = quad5
    gamma_x = 1.0 / info["lip_x"]
    gamma_y = 1.0 / info["lip_y"]
    z = random_iterate(problem, seed=43)
    prev = objective(problem, z)
    for _ in range(100):
        z = palm_step(problem, z, gamma_x, gamma_y)
        cur = objective(problem, z)
        assert cur <= prev + 1e-12
        prev = cur


# ---------------------------------------------------------------------------
# run()
# ---------------------------------------------------------------------------


def test_run_validates_config(sep10):
    problem, _ = sep10
    z0 = Iterate(np.zeros(4), np.zeros(4))
    with pytest.raises(ValueError):
        run(problem, SolverConfig(algorithm="nope"), z0)
    with pytest.raises(ValueError):
        run(problem, SolverConfig(algorithm="palm", epochs=0), z0)
    with pytest.raises(ValueError):
        run(problem, SolverConfig(algorithm="spring-sgd", batch_size=99), z0)
    with pytest.raises(ValueError):
        run(problem, SolverConfig(algorithm="palm", step_policy="fixed"), z0)
    with pytest.raises(ValueError):
        run(problem, SolverConfig(algorithm="spring-sgd", step_policy="theoretical"), z0)
    with pytest.raises(ValueError):
        run(problem, SolverConfig(algorithm="spring-sarah", sarah_p=0.5), z0)
    # Each of these failed late (at set-up, the first prox or the first draw) or
    # passed silently (a tolerance without the map it reads).
    fixed = dict(step_policy="fixed")
    for bad in (dict(lipschitz_const=0.0), dict(lipschitz_const=-1.0), dict(lipschitz_const=math.nan),
                dict(lipschitz_const=math.inf), dict(step_policy="theoretical", lipschitz_const=0.0),
                dict(fixed, fixed_steps=(0.0, 0.5)), dict(fixed, fixed_steps=(0.5, -1.0)),
                dict(fixed, fixed_steps=(math.nan, 0.5)), dict(fixed, fixed_steps=(0.5, math.inf)),
                dict(grad_map_tolerance=1e-3, track_grad_map=False),
                dict(sarah_p=math.nan), dict(sarah_p=math.inf), dict(grad_map_tolerance=math.nan),
                dict(grad_map_tolerance=-1.0), dict(grad_map_tolerance=math.inf),
                # Settings the chosen policy would ignore.
                dict(fixed_steps=(0.5, 0.5)), dict(step_policy="theoretical", fixed_steps=(0.5, 0.5)),
                dict(lipschitz_const=1.0), dict(fixed, fixed_steps=(0.5, 0.5), lipschitz_const=1.0)):
        with pytest.raises(ConfigError):
            run(problem, SolverConfig(algorithm="palm", **bad), z0)
    # The power method's length is the library's draw rule, not a setting.
    with pytest.raises(TypeError):
        SolverConfig(algorithm="palm", power_iterations=5)


def test_run_epoch_and_sfo_accounting(sep10):
    problem, _ = sep10
    z0 = Iterate(np.zeros(4), np.zeros(4))
    res = run(problem, SolverConfig(algorithm="palm", epochs=4, step_policy="fixed",
                                    fixed_steps=(0.5, 0.5)), z0)
    n = problem.n
    assert [r.sfo_calls for r in res.trace.rows] == [2 * n, 4 * n, 6 * n, 8 * n]
    assert [r.epoch for r in res.trace.rows] == [1.0, 2.0, 3.0, 4.0]
    sgd = run(problem, SolverConfig(algorithm="spring-sgd", batch_size=3, epochs=2,
                                    step_policy="fixed", fixed_steps=(0.1, 0.1)), z0)
    steps_per_epoch = math.ceil(n / 3)
    assert sgd.trace.rows[-1].sfo_calls == 2 * 3 * steps_per_epoch * 2


def test_run_trace_determinism(sep10):
    problem, _ = sep10
    z0 = Iterate(np.ones(4), np.ones(4))
    cfg = SolverConfig(algorithm="spring-saga", batch_size=2, epochs=6, seed=123,
                       step_policy="fixed", fixed_steps=(0.2, 0.2))
    a = run(problem, cfg, z0)
    b = run(problem, cfg, z0)
    for ra, rb in zip(a.trace.rows, b.trace.rows):
        assert ra.sfo_calls == rb.sfo_calls
        assert ra.objective == rb.objective  # bitwise
        assert ra.grad_map_norm_sq == rb.grad_map_norm_sq
    np.testing.assert_array_equal(a.z.x, b.z.x)
    np.testing.assert_array_equal(a.z.y, b.z.y)


def test_sfo_double_entry_exact(sep10):
    # The reported SFO count must match an independent counter inside the
    # problem adapter (diagnostic evaluations disabled).  SGD, SAGA, PALM and
    # inertial PALM charge every gradient evaluation; a recursive SARAH visit evaluates
    # two points per charged query, so raw calls exceed SFO by 2b per
    # recursive step.
    problem, _ = make_separable_quadratic(n=8, seed=10)
    z0 = Iterate(np.zeros(4), np.zeros(4))
    b, epochs = 2, 5
    steps = epochs * math.ceil(problem.n / b)
    for algo in ("palm", "ipalm", "spring-sgd", "spring-saga"):
        counted, counter = with_oracle_counter(problem)
        res = run(counted, SolverConfig(algorithm=algo, batch_size=b, epochs=epochs, seed=3,
                                        step_policy="fixed", fixed_steps=(0.2, 0.2),
                                        track_grad_map=False), z0)
        assert res.trace.rows[-1].sfo_calls == counter.total_grads

    counted, counter = with_oracle_counter(problem)
    res = run(counted, SolverConfig(algorithm="spring-sarah", batch_size=b, epochs=epochs,
                                    seed=3, step_policy="fixed", fixed_steps=(0.2, 0.2),
                                    track_grad_map=False, warm_start=False), z0)
    sfo = res.trace.rows[-1].sfo_calls
    n = problem.n
    # sfo = 2nR + 2b(S - R), grads = 2nR + 4b(S - R) with R refreshes.
    refreshes = (sfo - 2 * b * steps) // (2 * n - 2 * b)
    recursive = steps - refreshes
    assert counter.total_grads == sfo + 2 * b * recursive


def test_sfo_double_entry_compact_saga_rows():
    # Toy NMF stores compact SAGA rows; the counter charges each rows_x/rows_y
    # call len(idx) evaluations of its block, independently of the solver.
    adapter = SparseNmfProblem(A=toy_nmf_matrix(), r=5, s=10)
    problem = adapter.block_problem()
    for warm in (True, False):
        counted, counter = with_oracle_counter(problem)
        res = run(counted, SolverConfig(algorithm="spring-saga", batch_size=3, epochs=3, seed=4,
                                        warm_start=warm, track_grad_map=False),
                  adapter.initial_iterate(0))
        assert res.estimator_state.table_x.shape[1] == problem.row_dim_x
        assert res.trace.rows[-1].sfo_calls == counter.total_grads


def test_palm_gradient_map_reuses_step_gradients(sep10):
    # A step without momentum (every PALM step, and iPALM's first) takes its
    # full gradients at the points the traced gradient map is evaluated at, so
    # its row adds no oracle calls; every other iPALM row adds 2n.  Every row
    # equals a gradient map evaluated from scratch, bit for bit.
    problem, _ = sep10
    for algo in ("palm", "ipalm"):
        counted, counter = with_oracle_counter(problem)
        z = z_prev = Iterate(np.zeros(4), np.zeros(4))
        res = run(counted, SolverConfig(algorithm=algo, epochs=4, step_policy="fixed",
                                        fixed_steps=(0.5, 0.4), track_grad_map=True), z)
        rows = res.trace.rows
        extra = 0 if algo == "palm" else 2 * problem.n * (len(rows) - 1)
        assert counter.total_grads == rows[-1].sfo_calls + extra
        for k, row in enumerate(rows, start=1):
            if algo == "palm":
                z_next = palm_step(problem, z, 0.5, 0.4)
            else:
                z_next = ipalm_step(problem, z, z_prev, 0.5, 0.4, ipalm_momentum(k))
            assert row.grad_map_norm_sq == generalized_gradient_map(problem, z, z_next.x, 0.25, 0.2).norm_sq
            z_prev, z = z, z_next


def test_estimator_coincidence_full_batch(sep10):
    # b = n: SGD, warm-table SAGA, and forced-refresh SARAH all reproduce
    # the PALM trajectory.
    problem, _ = sep10
    z0 = Iterate(np.ones(4), np.zeros(4))
    fixed = dict(step_policy="fixed", fixed_steps=(0.4, 0.4), epochs=25, seed=5)
    palm = run(problem, SolverConfig(algorithm="palm", **fixed), z0)
    sgd = run(problem, SolverConfig(algorithm="spring-sgd", batch_size=problem.n, **fixed), z0)
    saga = run(problem, SolverConfig(algorithm="spring-saga", batch_size=problem.n,
                                     warm_start=True, **fixed), z0)
    sarah = run(problem, SolverConfig(algorithm="spring-sarah", batch_size=problem.n,
                                      sarah_p=1.0, warm_start=False, **fixed), z0)
    for other in (sgd, saga, sarah):
        assert abs(np.asarray(other.z.x) - palm.z.x).max() <= 1e-10
        assert abs(np.asarray(other.z.y) - palm.z.y).max() <= 1e-10


def test_saga_warm_epoch_follows_sgd(sep10):
    problem, _ = sep10
    z0 = Iterate(np.ones(4), np.ones(4))
    fixed = dict(step_policy="fixed", fixed_steps=(0.25, 0.25), seed=17, batch_size=2, epochs=1)
    warm = run(problem, SolverConfig(algorithm="spring-saga", warm_start=True, **fixed), z0)
    sgd = run(problem, SolverConfig(algorithm="spring-sgd", **fixed), z0)
    np.testing.assert_array_equal(warm.z.x, sgd.z.x)
    np.testing.assert_array_equal(warm.z.y, sgd.z.y)


def test_sarah_state_untouched_during_warm_epoch(sep10):
    problem, _ = sep10
    z0 = Iterate(np.ones(4), np.ones(4))
    res = run(problem, SolverConfig(algorithm="spring-sarah", warm_start=True, batch_size=2,
                                    epochs=1, seed=2, step_policy="fixed",
                                    fixed_steps=(0.2, 0.2)), z0)
    state = res.estimator_state
    np.testing.assert_array_equal(state.est_x, np.zeros(4))
    np.testing.assert_array_equal(state.est_y, np.zeros(4))

    two = run(problem, SolverConfig(algorithm="spring-sarah", warm_start=True, batch_size=2,
                                    epochs=2, seed=2, step_policy="fixed",
                                    fixed_steps=(0.2, 0.2)), z0)
    assert np.linalg.norm(two.estimator_state.est_x) > 0


def test_run_returns_estimator_state(sep10):
    problem, _ = sep10
    z0 = Iterate(np.zeros(4), np.zeros(4))
    fixed = dict(step_policy="fixed", fixed_steps=(0.2, 0.2), epochs=2, batch_size=2)
    saga = run(problem, SolverConfig(algorithm="spring-saga", **fixed), z0)
    assert isinstance(saga.estimator_state, SagaState)
    sarah = run(problem, SolverConfig(algorithm="spring-sarah", **fixed), z0)
    assert isinstance(sarah.estimator_state, SarahState)
    palm = run(problem, SolverConfig(algorithm="palm", **fixed), z0)
    assert palm.estimator_state is None


def test_early_exit_on_gradient_map_tolerance(sep10):
    problem, _ = sep10
    z0 = Iterate(np.zeros(4), np.zeros(4))
    res = run(problem, SolverConfig(algorithm="palm", epochs=50, step_policy="fixed",
                                    fixed_steps=(0.9, 0.9), grad_map_tolerance=1e-16), z0)
    assert len(res.trace.rows) < 50
    assert res.trace.rows[-1].grad_map_norm_sq <= 1e-16


def test_divergence_guard_records_partial_trace(sep10):
    problem, _ = sep10
    z0 = Iterate(np.ones(4), np.ones(4))
    with pytest.raises(DivergenceError) as exc_info:
        run(problem, SolverConfig(algorithm="palm", epochs=200, step_policy="fixed",
                                  fixed_steps=(4.0, 4.0)), z0)
    err = exc_info.value
    assert err.trace is not None and len(err.trace.rows) >= 1
    assert err.snapshot.get("objective", 0) > 0


def test_record_every_iteration(sep10):
    problem, _ = sep10
    z0 = Iterate(np.zeros(4), np.zeros(4))
    res = run(problem, SolverConfig(algorithm="spring-sgd", batch_size=2, epochs=2,
                                    step_policy="fixed", fixed_steps=(0.1, 0.1),
                                    record_every_iteration=True), z0)
    assert len(res.trace.rows) == 2 * math.ceil(problem.n / 2)


def test_record_every_iteration_stops_on_the_step_meeting_tolerance():
    # Identical components make every SGD step a full-gradient step, so the
    # gradient map shrinks at every step and the tolerance is met mid-epoch.
    problem, _ = make_separable_quadratic(n=8, seed=3, spread=0.0)
    z0 = Iterate(np.ones(4), -np.ones(4))
    cfg = dict(algorithm="spring-sgd", batch_size=2, epochs=3, step_policy="fixed",
               fixed_steps=(0.5, 0.5), record_every_iteration=True)
    full = run(problem, SolverConfig(**cfg), z0).trace.rows
    gnorms = [r.grad_map_norm_sq for r in full]
    assert all(a > b for a, b in zip(gnorms, gnorms[1:]))
    stop = 6  # the second of the second epoch's 4 steps
    rows = run(problem, SolverConfig(grad_map_tolerance=gnorms[stop - 1], **cfg), z0).trace.rows
    assert len(rows) == stop and len(rows) % math.ceil(problem.n / 2) != 0
    assert [r[:4] for r in rows] == [r[:4] for r in full[:stop]]


def test_warm_sarah_refreshes_once_when_the_coin_never_fires(sep10, monkeypatch):
    # p = 1e9: the coin never fires, so the one refresh is the forced one on
    # the first SARAH step after the warm (SGD) epoch.
    problem, _ = sep10
    n, b = problem.n, 2
    refreshes = []
    original = est_module.sarah_estimate_x

    def spy(*args, **kwargs):
        refreshes.append(kwargs["refresh"])
        return original(*args, **kwargs)

    monkeypatch.setattr(est_module, "sarah_estimate_x", spy)
    res = run(problem, SolverConfig(algorithm="spring-sarah", batch_size=b, sarah_p=1e9, epochs=3,
                                    seed=1, step_policy="fixed", fixed_steps=(0.2, 0.2),
                                    record_every_iteration=True), Iterate(np.ones(4), np.ones(4)))
    steps = math.ceil(n / b)
    charged = np.diff([0] + [r.sfo_calls for r in res.trace.rows]).tolist()
    assert charged == [2 * b] * steps + [2 * n] + [2 * b] * (2 * steps - 1)
    assert refreshes == [True] + [False] * (2 * steps - 1)


def test_practical_policy_requires_hooks():
    problem = BlockProblem(
        n=2, dim_x=2, dim_y=2,
        value=lambda idx, x, y: 0.0,
        grad_x=lambda idx, x, y: np.zeros(2),
        grad_y=lambda idx, x, y: np.zeros(2),
    )
    z0 = Iterate(np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError):
        run(problem, SolverConfig(algorithm="palm", step_policy="practical"), z0)


def test_theoretical_policy_converges_on_toy(sep10):
    problem, info = sep10
    z0 = Iterate(np.ones(4) * 2, np.ones(4) * 2)
    res = run(problem, SolverConfig(algorithm="spring-saga", batch_size=5, epochs=400,
                                    seed=1, step_policy="theoretical", lipschitz_const=1.0,
                                    track_grad_map=False), z0)
    assert res.trace.rows[-1].objective < res.trace.rows[0].objective


def test_non_finite_iterate_aborts():
    problem = BlockProblem(
        n=1, dim_x=1, dim_y=1,
        value=lambda idx, x, y: 0.0,
        grad_x=lambda idx, x, y: np.array([1e308]),
        grad_y=lambda idx, x, y: np.zeros(1),
    )
    z = Iterate(np.zeros(1), np.zeros(1))
    with np.errstate(over="ignore"), pytest.raises(DivergenceError):
        palm_step(problem, palm_step(problem, z, 10.0, 1.0), 10.0, 1.0)


def test_diverging_run_raises_without_numpy_warnings():
    # Its gradient overflows before the iterate guard reports the divergence.
    problem, init_fn = ProblemSpec("toy-pca").build()
    config = SolverConfig(algorithm="spring-sgd", batch_size=3, epochs=4, step_policy="fixed",
                          fixed_steps=(0.01, 0.01))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError):
            run(problem, config, init_fn(0))


def _blowup_problem(block, after):
    """Quadratic toy (n=4) whose ``block`` prox returns an infinite entry from
    its call number ``after + 1`` on; the other block's entries stay at most 1."""
    calls = [0]

    def shrink(_gamma, v):
        return 0.5 * v

    def blowup(_gamma, v):
        calls[0] += 1
        out = 0.5 * v
        if calls[0] > after:
            out[0] = np.inf
        return out

    return BlockProblem(
        n=4, dim_x=2, dim_y=2,
        value=lambda idx, x, y: float(x @ x + y @ y),
        grad_x=lambda idx, x, y: 2.0 * x,
        grad_y=lambda idx, x, y: 2.0 * y,
        prox_x=blowup if block == "x" else shrink,
        prox_y=blowup if block == "y" else shrink,
    )


def _stepper(algorithm, problem):
    """One step of ``algorithm`` from a fixed start, as a thunk."""
    z = Iterate(np.ones(2), -np.ones(2))
    if algorithm == "palm":
        return lambda: palm_step(problem, z, 0.1, 0.1)
    if algorithm == "ipalm":
        return lambda: ipalm_step(problem, z, z, 0.1, 0.1, 0.5)
    kind = algorithm.split("-", 1)[1]
    driver = replace(_sgd_driver(problem, 2), kind=kind)
    if kind == "saga":
        driver.saga = SagaState.from_problem(problem)
    elif kind == "sarah":
        driver.sarah = SarahState(np.zeros(2), np.zeros(2), float(problem.n))
    return lambda: spring_step(problem, z, driver, 0.1, 0.1)


@pytest.mark.parametrize("block", ["x", "y"])
@pytest.mark.parametrize("algorithm", ["palm", "ipalm", "spring-sgd", "spring-saga", "spring-sarah"])
def test_non_finite_half_step_raises_divergence(algorithm, block):
    step = _stepper(algorithm, _blowup_problem(block, after=0))
    with pytest.raises(DivergenceError) as exc_info:
        step()
    exc = exc_info.value
    assert str(exc) == f"non-finite iterate after {algorithm.split('-')[0]} {block}-update"
    assert set(exc.snapshot) == {"max_abs_x", "max_abs_y"}
    other = "y" if block == "x" else "x"
    assert exc.snapshot[f"max_abs_{block}"] == np.inf
    assert 0.0 < exc.snapshot[f"max_abs_{other}"] <= 1.0


def test_misshapen_half_step_is_not_divergence():
    # Only a non-finite iterate is divergence; a prox returning a matrix is a bug.
    problem = replace(_blowup_problem("y", after=10), prox_x=lambda _gamma, v: v.reshape(1, -1))
    with pytest.raises(ValueError, match="flat vectors"):
        _stepper("palm", problem)()


@pytest.mark.parametrize("block", ["x", "y"])
@pytest.mark.parametrize("algorithm", ["palm", "ipalm", "spring-sgd", "spring-saga", "spring-sarah"])
def test_run_attaches_partial_trace_to_non_finite_iterate(algorithm, block):
    # The prox blows up on the first half-step of the second epoch.
    b = 2
    steps_per_epoch = 1 if algorithm in ("palm", "ipalm") else 4 // b
    problem = _blowup_problem(block, after=steps_per_epoch)
    cfg = SolverConfig(algorithm=algorithm, batch_size=b, epochs=3, seed=0, step_policy="fixed",
                       fixed_steps=(0.1, 0.1))
    with pytest.raises(DivergenceError, match=f"non-finite iterate after .* {block}-update") as exc_info:
        run(problem, cfg, Iterate(np.ones(2), -np.ones(2)))
    exc = exc_info.value
    assert exc.trace is not None and len(exc.trace.rows) == 1
    assert exc.trace.rows[0].sfo_calls > 0
    assert set(exc.snapshot) == {"max_abs_x", "max_abs_y"}


@pytest.mark.parametrize("policy", [
    dict(algorithm="palm"),
    dict(algorithm="spring-saga", batch_size=2),
    dict(algorithm="ipalm", step_policy="theoretical"),
    dict(algorithm="spring-sarah", batch_size=2, step_policy="theoretical"),
], ids=["palm", "saga-anchor", "ipalm-theoretical", "sarah-theoretical"])
def test_lipschitz_sfo_counts_every_operator_application(policy):
    # Independent count: the hooks return an operator that tallies the
    # batch size (n for the full batch) at every application.
    # The first subsampled draw is degenerate, so the stochastic envelope
    # also anchors on a full-batch draw at z0.
    problem, _ = make_separable_quadratic(n=8, seed=10)
    applied = [0]

    def hook(x, y, batch):
        size = len(batch)
        scale = 1e-14 if size < problem.n and applied[0] == 0 else 1.0

        def apply(v):
            applied[0] += size
            return scale * v

        return CurvatureOperator(apply, len(x))

    counted = replace(problem, lipschitz_x=hook, lipschitz_y=hook)
    z0 = Iterate(np.ones(4), np.ones(4))
    res = run(counted, SolverConfig(epochs=3, seed=4, track_grad_map=False, **policy), z0)
    assert applied[0] > 0
    assert res.trace.rows[-1].lipschitz_sfo == applied[0]


def test_lipschitz_sfo_charges_only_the_applications_made():
    # An operator that annihilates every direction stops the power method after
    # one application per block: one PALM epoch (n = 8) is charged 2 x 8, not
    # the 2 x (5 + 1) x 8 of a full-length draw.
    # The run starts at the minimizer, so the floored estimate's huge step stays put.
    problem, info = make_separable_quadratic(n=8, seed=10)
    applied = [0]

    def hook(x, y, batch):
        def apply(v):
            applied[0] += problem.n
            return np.zeros_like(v)

        return CurvatureOperator(apply, len(x))

    zero = replace(problem, lipschitz_x=hook, lipschitz_y=hook)
    with pytest.warns(RuntimeWarning, match="at or below floor"):
        res = run(zero, SolverConfig(algorithm="palm", epochs=1, track_grad_map=False),
                  Iterate(info["a"], info["b"]))
    assert applied[0] == 16
    assert res.trace.rows[-1].lipschitz_sfo == 16


def test_lipschitz_sfo_charges_the_draw_rule():
    # One PALM epoch is one full-batch draw per block, each POWER_ITERATIONS + 1 applications.
    problem, _ = make_separable_quadratic(n=8, seed=10)
    res = run(problem, SolverConfig(algorithm="palm", epochs=1, track_grad_map=False),
              Iterate(np.ones(4), np.ones(4)))
    assert res.trace.rows[-1].lipschitz_sfo == 2 * (POWER_ITERATIONS + 1) * problem.n


@pytest.mark.parametrize("algorithm, purposes", [
    ("palm", {"power_init"}),
    ("ipalm", {"power_init"}),
    ("spring-sgd", {"batch_x", "batch_y", "power_init", "lip_batch"}),
    ("spring-saga", {"batch_x", "batch_y", "power_init", "lip_batch"}),
    ("spring-sarah", {"batch_x", "batch_y", "power_init", "lip_batch", "sarah_coin"}),
])
def test_run_builds_only_the_streams_it_draws_from(sep10, monkeypatch, algorithm, purposes):
    requested = []

    def spy(seed, purpose):
        requested.append(purpose)
        return stream_rng(seed, purpose)

    monkeypatch.setattr(solver_module, "stream_rng", spy)
    problem, _ = sep10
    run(problem, SolverConfig(algorithm=algorithm, batch_size=2, epochs=2, seed=3), Iterate(np.ones(4), np.ones(4)))
    assert sorted(requested) == sorted(purposes)


def _objective_spy(monkeypatch):
    """Record the iterate of every ``objective`` call the solver makes."""
    seen = []

    def spy(problem, z):
        seen.append(z)
        return objective(problem, z)

    monkeypatch.setattr(solver_module, "objective", spy)
    return seen


def test_run_without_divergence_never_evaluates_z0(sep10, monkeypatch):
    seen = _objective_spy(monkeypatch)
    problem, _ = sep10
    z0 = Iterate(np.ones(4), np.ones(4))
    res = run(problem, SolverConfig(algorithm="spring-saga", batch_size=2, epochs=3, seed=1), z0)
    assert len(seen) == len(res.trace.rows)
    assert all(z is not z0 for z in seen)


def test_divergence_reports_the_objective_at_z0(sep10, monkeypatch):
    seen = _objective_spy(monkeypatch)
    problem, _ = sep10
    z0 = Iterate(np.ones(4), np.ones(4))
    with pytest.raises(DivergenceError) as exc_info:
        run(problem, SolverConfig(algorithm="palm", epochs=200, step_policy="fixed", fixed_steps=(4.0, 4.0)), z0)
    assert exc_info.value.snapshot["initial"] == objective(problem, z0)
    assert sum(z is z0 for z in seen) == 1


def test_misshapen_z0_raises_before_any_oracle_call(sep10):
    problem, _ = sep10
    counted, counter = with_oracle_counter(problem)
    with pytest.raises(ValueError, match="do not match problem"):
        run(counted, SolverConfig(algorithm="spring-sgd", batch_size=2, seed=0), Iterate(np.ones(3), np.ones(4)))
    assert counter.total_grads == 0 and counter.value == 0


# Per-epoch (sfo_calls, objective) of fixed-seed runs, recorded before the
# component callbacks were replaced by the batch-mean oracle.
GOLDEN = {
    ('toy-nmf', 'palm'): [(40, 13287.681979609308), (80, 1333.9145178109109), (120, 356.71549580579506)],
    ('toy-nmf', 'ipalm'): [(40, 7965.783215716631), (80, 1812.0227569067652), (120, 416.2046930410671)],
    ('toy-nmf', 'spring-sgd'): [(40, 644.0840510488446), (80, 526.1890147548143), (120, 438.5394605864325)],
    ('toy-nmf', 'spring-saga'): [(40, 437.4621169938763), (80, 323.237259980523), (120, 294.72183711600485)],
    ('toy-nmf', 'spring-sarah'): [(40, 590.0396314423954), (152, 522.0397670821708), (192, 472.853866850736)],
    ('bid', 'palm'): [(8, 0.23137822157759735)],
    ('bid', 'ipalm'): [(8, 0.23248460328976966)],
    ('bid', 'spring-sgd'): [(8, 0.2209478725703468)],
    ('bid', 'spring-saga'): [(8, 0.23613023430552696)],
    ('bid', 'spring-sarah'): [(26, 0.22869028981930833)],
    # Per row (sfo_calls, objective, lipschitz_sfo) of the policies and trace
    # mode the cases above leave out (``POLICY_CASES``), recorded before the
    # step sizes moved into one run-scoped object.  Runs that diverge within
    # these epochs are left out: theoretical ipalm.
    ('toy-nmf-theoretical', 'palm'): [(40, 3437.8946444604635, 240), (80, 92075.2001557474, 240),
                                      (120, 2189.461936564895, 240)],
    ('toy-nmf-theoretical', 'spring-saga'): [(40, 772.2091822925604, 240), (80, 759.4222524227501, 240),
                                             (120, 747.1647056828683, 240)],
    ('toy-nmf-theoretical', 'spring-sarah'): [(40, 566.1889848640319, 240), (152, 398.1490939346894, 240),
                                              (192, 356.66061689087564, 240)],
    ('toy-nmf-fixed', 'palm'): [(40, 778.6383654606205, 0), (80, 773.0848265164703, 0),
                                (120, 767.3867476567546, 0)],
    ('toy-nmf-fixed', 'ipalm'): [(40, 778.6383654606205, 0), (80, 771.6987778933496, 0),
                                 (120, 763.1150283309798, 0)],
    ('toy-nmf-fixed', 'spring-sgd'): [(40, 722.2545976835663, 0), (80, 651.1818436628841, 0),
                                      (120, 586.8248026083072, 0)],
    ('toy-nmf-fixed', 'spring-saga'): [(40, 722.2545976835663, 0), (80, 642.9145186651488, 0),
                                       (120, 569.0916022539008, 0)],
    ('toy-nmf-fixed', 'spring-sarah'): [(40, 722.2545976835663, 0), (152, 651.3012765004395, 0),
                                        (192, 577.0153993338024, 0)],
    ('toy-nmf-every', 'palm'): [(40, 13287.6819796093, 240)],
    ('toy-nmf-every', 'ipalm'): [(40, 7965.783215716625, 240)],
    ('toy-nmf-every', 'spring-sgd'): [
        (4, 764.9294881065063, 24), (8, 1067.4473075502724, 48), (12, 675.1922154169076, 72),
        (16, 762.2314424326368, 96), (20, 3041.341867684023, 120), (24, 2157.290622846741, 144),
        (28, 1221.6695560119592, 168), (32, 741.8161746241931, 192), (36, 671.5125763346889, 216),
        (40, 644.0840510488447, 240)],
    ('toy-nmf-every', 'spring-saga'): [
        (4, 746.3627642636988, 24), (8, 670.9517202268325, 48), (12, 642.0510411057169, 72),
        (16, 595.5538927447327, 96), (20, 500.075448025046, 120), (24, 474.96346898900504, 144),
        (28, 467.8357838991319, 168), (32, 463.67258517523567, 192), (36, 445.9560963658035, 216),
        (40, 443.57933744705645, 240)],
    ('toy-nmf-every', 'spring-sarah'): [
        (40, 606.1735044987311, 24), (80, 526.3380324704858, 48), (84, 481.54374142592513, 72),
        (88, 445.863852669269, 96), (92, 419.2243659729212, 120), (96, 396.65819809712326, 144),
        (100, 384.26049448693516, 168), (104, 373.7428489814375, 192), (108, 364.7979790178414, 216),
        (112, 357.51532305570464, 240)],
}

# Toy-NMF settings (b=2, 3 epochs, seed 7 unless overridden) of the policy goldens.
POLICY_CASES = {
    "toy-nmf-theoretical": dict(step_policy="theoretical"),
    "toy-nmf-fixed": dict(step_policy="fixed", fixed_steps=(1e-3, 1e-3)),
    "toy-nmf-every": dict(epochs=1, warm_start=False, record_every_iteration=True),
}


def _golden_case(name):
    if name == "toy-nmf":
        adapter = SparseNmfProblem(A=toy_nmf_matrix(), r=5, s=10)
        return adapter.block_problem(), adapter.initial_iterate(0), dict(batch_size=2, epochs=3)
    Z, _, _ = toy_blurred_image(seed=0, size=16, kernel=3)
    adapter = BlindDeblurProblem(Z=Z, kernel_shape=(3, 3), n_tiles=4)
    return adapter.block_problem(), adapter.initial_iterate(), dict(batch_size=1, epochs=1, warm_start=False)


@pytest.mark.parametrize("name", ["toy-nmf", "bid"])
def test_fixed_seed_runs_match_golden(name):
    problem, z0, kw = _golden_case(name)
    for algo in ALGORITHMS:
        res = run(problem, SolverConfig(algorithm=algo, seed=7, **kw), z0)
        expected = GOLDEN[(name, algo)]
        assert [r.sfo_calls for r in res.trace.rows] == [sfo for sfo, _obj in expected]
        for row, (_sfo, obj) in zip(res.trace.rows, expected):
            assert abs(row.objective - obj) <= 1e-12 * abs(obj), (algo, row.objective, obj)


@pytest.mark.parametrize("name", POLICY_CASES)
def test_fixed_seed_policy_runs_match_golden(name):
    problem, z0, kw = _golden_case("toy-nmf")
    algos = [algo for case, algo in GOLDEN if case == name]
    assert algos
    for algo in algos:
        res = run(problem, SolverConfig(algorithm=algo, seed=7, **{**kw, **POLICY_CASES[name]}), z0)
        expected = GOLDEN[(name, algo)]
        assert [(r.sfo_calls, r.lipschitz_sfo) for r in res.trace.rows] == [(sfo, lip) for sfo, _, lip in expected]
        for row, (_sfo, obj, _lip) in zip(res.trace.rows, expected):
            assert abs(row.objective - obj) <= 1e-12 * abs(obj), (algo, row.objective, obj)
