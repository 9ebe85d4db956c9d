import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from springopt import estimators as est_module
from springopt import core as core_module
from springopt import solver as solver_module
from springopt.core import BlockProblem, Iterate, objective, smooth_value, with_oracle_counter
from springopt.diagnostics import generalized_gradient_map
from springopt.estimators import BatchSampler, SagaState, SarahState
from springopt.harness.datasets import toy_blurred_image, toy_nmf_matrix
from springopt.harness.runner import ProblemSpec
from springopt.lipschitz import (
    ALGORITHMS,
    collatz_wielandt_bound,
    ipalm_momentum,
    lipschitz_draw,
)
from springopt.problems import (
    X_BOUND_PASSES,
    Y_BOUND_PASSES,
    BlindDeblurProblem,
    SparseNmfProblem,
    make_separable_quadratic,
)
from springopt.rng import STREAMS, stream_rng
from springopt.solver import (
    DIVERGENCE_FACTOR,
    ConfigError,
    DivergenceError,
    EstimatorDriver,
    SolverConfig,
    ipalm_step,
    palm_step,
    run,
    spring_step,
)

from monitors import total_grads


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
    with pytest.raises(ValueError, match=r"fixed steps must be a positive finite \(gamma_x, gamma_y\)"):
        spring_step(problem, Iterate(np.ones(4), -np.ones(4)), driver, *gammas)
    assert tables() == before
    fresh = _sgd_driver(problem, 2)
    for sampler, fresh_sampler in ((driver.sampler_x, fresh.sampler_x), (driver.sampler_y, fresh.sampler_y)):
        np.testing.assert_array_equal(est_module.sample_batch(sampler), est_module.sample_batch(fresh_sampler))


@pytest.mark.parametrize("step", ["palm", "ipalm", "spring"])
@pytest.mark.parametrize("gammas", [(0.0, 0.1), (0.1, -1.0), (math.inf, 0.1), (0.1, math.inf)])
def test_single_steps_validate_their_pair_as_run_does(step, gammas):
    # The single-step functions take the fixed policy's path: SolverConfig.validate rejects
    # a non-positive or an infinite step, before any oracle is called.
    problem, _ = make_separable_quadratic(n=8, seed=10)
    problem, counter = with_oracle_counter(problem)
    z = Iterate(np.ones(4), -np.ones(4))
    call = {"palm": lambda: palm_step(problem, z, *gammas),
            "ipalm": lambda: ipalm_step(problem, z, z, *gammas, beta=0.5),
            "spring": lambda: spring_step(problem, z, _sgd_driver(problem, 2), *gammas)}[step]
    with pytest.raises(ConfigError, match=re.escape(f"fixed steps must be a positive finite (gamma_x, gamma_y), "
                                                    f"got {gammas}")):
        call()
    assert total_grads(counter) == 0


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_step_asks_the_provider_for_each_block_where_it_moves(monkeypatch, algorithm):
    # Step k asks x(z, k) first, before its lip_batch, batch_x or sarah_coin draw, and
    # y(mid, k) after the x-update, at mid = (x_{k+1}, y_bar), the point the y-estimate is
    # taken at: y_bar is y_k, or y_k + beta (y_k - y_{k-1}) under inertial PALM's momentum.
    # The step returns the pair the provider gave.
    problem, init_fn = ProblemSpec("toy-nmf").build()
    events, steps = [], []
    real_sample, real_coin, real_step = est_module.sample_batch, est_module.sarah_refresh_coin, solver_module._step

    class Recording(solver_module._StepSizes):
        def x(self, z, k):
            events.append(("x", z, k))
            gamma = super().x(z, k)
            events.append(("gamma_x", gamma))
            return gamma

        def y(self, mid, k):
            events.append(("y", mid, k))
            gamma = super().y(mid, k)
            events.append(("gamma_y", gamma))
            return gamma

    def sample(sampler):
        events.append(("draw", id(sampler)))
        return real_sample(sampler)

    def coin(state, rng):
        events.append(("draw", "coin"))
        return real_coin(state, rng)

    def spy(problem, z, z_prev, driver, step_sizes, k, beta, name):
        start = len(events)
        out = real_step(problem, z, z_prev, driver, step_sizes, k, beta, name)
        steps.append((z, z_prev, driver, step_sizes, k, beta, events[start:], out))
        return out

    monkeypatch.setattr(solver_module, "_StepSizes", Recording)
    monkeypatch.setattr(est_module, "sample_batch", sample)
    monkeypatch.setattr(est_module, "sarah_refresh_coin", coin)
    monkeypatch.setattr(solver_module, "_step", spy)
    run(problem, SolverConfig(algorithm=algorithm, batch_size=2, epochs=2, seed=0), init_fn(0))

    assert len(steps) == 2 * (1 if algorithm in ("palm", "ipalm") else math.ceil(problem.n / 2))
    for z, z_prev, driver, step_sizes, k, beta, seen, (z_next, _, _, pair) in steps:
        tags = [event[0] for event in seen]
        assert tags.count("x") == tags.count("y") == 1, tags
        assert seen[0][0] == "x" and seen[0][1] is z and seen[0][2] == k
        at_y = tags.index("y")
        assert {event[1] for event in seen[:at_y] if event[0] == "draw"} <= {
            id(step_sizes.sampler), id(driver.sampler_x), "coin"}
        assert {event[1] for event in seen[at_y:] if event[0] == "draw"} <= {id(driver.sampler_y)}
        _, mid, k_y = seen[at_y]
        assert k_y == k
        np.testing.assert_array_equal(mid.x, z_next.x)
        np.testing.assert_array_equal(mid.y, z.y + beta * (z.y - z_prev.y) if beta else z.y)
        assert pair == (seen[tags.index("gamma_x")][1], seen[tags.index("gamma_y")][1])
    drawn = {event[1] for *_, seen, _ in steps for event in seen if event[0] == "draw"}
    if algorithm.startswith("spring"):
        assert {id(steps[0][3].sampler), id(steps[0][2].sampler_x), id(steps[0][2].sampler_y)} <= drawn
    assert ("coin" in drawn) == (algorithm == "spring-sarah")
    assert any(beta for *_, beta, _, _ in steps) == (algorithm == "ipalm")


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
    with pytest.raises(ConfigError, match="unknown step policy 'adaptive'"):
        run(problem, SolverConfig(algorithm="palm", step_policy="adaptive"), z0)
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
    # No draw has an iteration count to set.
    with pytest.raises(TypeError):
        SolverConfig(algorithm="palm", power_iterations=5)


@pytest.mark.parametrize("bad, message", [
    (dict(step_policy="fixed", fixed_steps=(0.1,)), "fixed steps must be a positive finite (gamma_x, gamma_y), got (0.1,)"),
    (dict(step_policy="fixed", fixed_steps=(1e-3, 1e-3, 5.0)),
     "fixed steps must be a positive finite (gamma_x, gamma_y), got (0.001, 0.001, 5.0)"),
    (dict(epochs=2.5), "epochs must be an integer, got 2.5"),
    (dict(batch_size=2.5), "batch size must be an integer, got 2.5"),
    (dict(batch_size=True), "batch size must be an integer, got True"),
    (dict(epochs=True), "epochs must be an integer, got True"),
    (dict(sarah_p=True), "SARAH period must satisfy 1 <= p < inf, got True"),
    (dict(grad_map_tolerance=True), "grad_map_tolerance must satisfy 0 <= tol < inf, got True"),
    (dict(step_policy="fixed", fixed_steps=(True, True)),
     "fixed steps must be a positive finite (gamma_x, gamma_y), got (True, True)"),
    (dict(lipschitz_const=True), "lipschitz_const must be finite and positive, got True"),
], ids=["one-step", "three-steps", "fractional-epochs", "fractional-batch", "bool-batch", "bool-epochs",
        "bool-sarah-period", "bool-tolerance", "bool-steps", "bool-lipschitz-const"])
def test_run_rejects_malformed_steps_and_counts(sep10, bad, message):
    # Each of these validated, then failed inside run with a bare unpacking ValueError or a TypeError,
    # or, a bool read as the number 1, ran (epochs=True returned a 1-row trace).
    problem, _ = sep10
    with pytest.raises(ConfigError, match=re.escape(message)):
        run(problem, SolverConfig(algorithm="spring-sgd", **bad), Iterate(np.zeros(4), np.zeros(4)))


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
        assert res.trace.rows[-1].sfo_calls == total_grads(counter)

    counted, counter = with_oracle_counter(problem)
    res = run(counted, SolverConfig(algorithm="spring-sarah", batch_size=b, epochs=epochs,
                                    seed=3, step_policy="fixed", fixed_steps=(0.2, 0.2),
                                    track_grad_map=False, warm_start=False), z0)
    sfo = res.trace.rows[-1].sfo_calls
    n = problem.n
    # sfo = 2nR + 2b(S - R), grads = 2nR + 4b(S - R) with R refreshes.
    refreshes = (sfo - 2 * b * steps) // (2 * n - 2 * b)
    recursive = steps - refreshes
    assert total_grads(counter) == sfo + 2 * b * recursive


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
        assert res.trace.rows[-1].sfo_calls == total_grads(counter)


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
        assert total_grads(counter) == rows[-1].sfo_calls + extra
        for k, row in enumerate(rows, start=1):
            if algo == "palm":
                z_next = palm_step(problem, z, 0.5, 0.4)
            else:
                z_next = ipalm_step(problem, z, z_prev, 0.5, 0.4, ipalm_momentum(k))
            assert row.grad_map_norm_sq == generalized_gradient_map(problem, z, z_next.x, 0.25, 0.2).norm_sq
            z_prev, z = z, z_next


@pytest.mark.parametrize("shape, rank, r, s, rows_past_cap", [((50, 20), 3, 5, 10, 0),
                                                             ((200, 500), 10, 10, 40, 2)],
                         ids=["toy-nmf-c11", "nmf-medium"])
def test_palm_row_evaluates_one_objective_and_phi0_once(shape, rank, r, s, rows_past_cap):
    # Work counter: each trace row evaluates the value oracle on the n components of
    # its objective.  At the toy shape no row passes DIVERGENCE_FACTOR, so an E-epoch
    # PALM run evaluates E n components.  At nmf-medium's the overshoot of the first
    # two rows passes it, and phi(z0) is evaluated once for the run: (E + 1) n.
    adapter = SparseNmfProblem(A=toy_nmf_matrix(seed=0, shape=shape, rank=rank), r=r, s=s)
    problem, z0 = adapter.block_problem(), adapter.initial_iterate(0)
    epochs = 3
    counted, counter = with_oracle_counter(problem)
    rows = run(counted, SolverConfig(algorithm="palm", epochs=epochs, warm_start=False), z0).trace.rows
    assert [row.objective > DIVERGENCE_FACTOR for row in rows] == [k < rows_past_cap for k in range(epochs)]
    assert counter.value == (epochs + (rows_past_cap > 0)) * problem.n


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


@pytest.mark.parametrize("algorithm", ["palm", "spring-saga"])
def test_theoretical_policy_rejects_a_zero_lipschitz_draw(sep10, algorithm):
    # A zero operator draws L = 0 at z0; 1/L would be a bare ZeroDivisionError.
    problem, _ = sep10

    def zero(x, y, batch, warm):
        return 0.0, 1

    problem = replace(problem, lipschitz_x=zero, lipschitz_y=zero)
    z0 = Iterate(np.ones(4), np.ones(4))
    with pytest.raises(ValueError, match="not positive.*lipschitz_const"):
        run(problem, SolverConfig(algorithm=algorithm, batch_size=2, step_policy="theoretical"), z0)


@pytest.mark.parametrize("policy", ["practical", "theoretical"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_a_non_finite_lipschitz_draw_is_divergence(sep10, value, policy):
    # The floor turned a NaN draw into a 1e12 step, and an inf one gave a zero step
    # that escaped as a ValueError.  Either stops the run, with the draw in the
    # snapshot: the practical policy's first b = 2 draw, or the theoretical one at z0.
    # Both are raised before any trace row, and carry the empty trace.
    problem, _ = sep10
    problem = replace(problem, lipschitz_y=lambda x, y, batch, warm: (value, 1))
    config = SolverConfig(algorithm="spring-saga", batch_size=2, step_policy=policy)
    with pytest.raises(DivergenceError, match="non-finite Lipschitz draw") as exc_info:
        run(problem, config, Iterate(np.ones(4), np.ones(4)))
    snapshot = exc_info.value.snapshot
    assert snapshot["lipschitz_x"] == 1.0 and snapshot["batch_size"] == (2 if policy == "practical" else 10)
    np.testing.assert_equal(snapshot["lipschitz_y"], value)
    assert exc_info.value.trace.rows == []


def test_an_overflowing_lipschitz_draw_is_divergence():
    # At 1e155 x the toy-NMF start, the Gram matrices overflow.  A power-method draw
    # overflowed from 1e150 x on and read (0, 0), which the floor turned into 1e12
    # steps; the draw is inf now, and the run stops on it before its first step.
    adapter = SparseNmfProblem(A=toy_nmf_matrix(), r=5, s=10)
    z0 = adapter.initial_iterate(7)
    problem, huge = adapter.block_problem(), Iterate(1e155 * z0.x, 1e155 * z0.y)
    with np.errstate(over="ignore"):
        assert lipschitz_draw(problem, huge, np.arange(problem.n))[:2] == (math.inf,) * 2
    with pytest.raises(DivergenceError, match="non-finite Lipschitz draw") as exc_info:
        run(problem, SolverConfig(algorithm="palm"), huge)
    assert exc_info.value.snapshot == {"lipschitz_x": math.inf, "lipschitz_y": math.inf, "batch_size": problem.n}
    assert exc_info.value.trace.rows == []


def test_an_overflowing_nmf_step_is_divergence():
    # At 1e150 x the toy-NMF start the exact draw is finite (top Gram eigenvalue
    # 9.30e300), but PALM's x-step holds -inf entries.  The sparse-NMF prox returns
    # NaN for them, where clamping gave 0 and the run went on to a finite objective.
    adapter = SparseNmfProblem(A=toy_nmf_matrix(), r=5, s=10)
    z0 = adapter.initial_iterate(7)
    problem, huge = adapter.block_problem(), Iterate(1e150 * z0.x, 1e150 * z0.y)
    with np.errstate(over="ignore"):
        draw = lipschitz_draw(problem, huge, np.arange(problem.n))[:2]
    assert all(math.isfinite(lip) for lip in draw)
    with pytest.raises(DivergenceError, match="non-finite iterate after palm x-update") as exc_info:
        run(problem, SolverConfig(algorithm="palm"), huge)
    assert exc_info.value.trace.rows == []
    for prox, v in ((problem.prox_x, z0.x), (problem.prox_y, z0.y)):
        for bad in (-np.inf, np.nan):
            assert np.isnan(prox(1.0, np.concatenate(([bad], v[1:])))).all()
        assert prox(1.0, np.concatenate(([np.inf], v[1:])))[0] == np.inf


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


def test_ipalm_overflowing_extrapolation_is_divergence():
    # Step 2 extrapolates x_1 + (1/4)(x_1 - x_0) with x_1 = 1e308 and x_0 = -1e308: the
    # difference overflows, and the extrapolated point is guarded like the half-steps.
    problem = BlockProblem(
        n=2, dim_x=1, dim_y=1,
        value=lambda idx, x, y: 0.0,
        grad_x=lambda idx, x, y: np.zeros(1),
        grad_y=lambda idx, x, y: np.zeros(1),
        prox_x=lambda _gamma, v: np.full(1, 1e308),
    )
    config = SolverConfig(algorithm="ipalm", epochs=3, step_policy="fixed", fixed_steps=(1.0, 1.0))
    with pytest.raises(DivergenceError) as exc_info:
        run(problem, config, Iterate(np.full(1, -1e308), np.zeros(1)))
    exc = exc_info.value
    assert str(exc) == "non-finite iterate after ipalm extrapolation"
    assert exc.snapshot == {"max_abs_x": np.inf, "max_abs_y": 0.0}
    assert exc.trace is not None and len(exc.trace.rows) == 1


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


class _ScanCountingNumpy:
    """numpy as ``core`` sees it, counting the blocks ``np.isfinite`` scans."""

    def __init__(self, scans):
        self._scans = scans

    def __getattr__(self, name):
        return getattr(np, name)

    def isfinite(self, v):
        self._scans.append(v.shape)
        return np.isfinite(v)


@pytest.mark.parametrize("step, scans_per_step", [("spring", 2), ("palm", 2), ("ipalm", 4)])
def test_a_step_scans_each_new_block_once(monkeypatch, step, scans_per_step):
    # mid and z_next each keep a block already scanned (y_k, then x_{k+1}), so a step
    # without momentum scans two blocks; inertial PALM adds its extrapolated x_bar, and its
    # mid scans both x_{k+1} and the extrapolated y_bar.
    problem, _ = make_separable_quadratic(n=8, seed=10)
    z, z_prev = Iterate(np.ones(4), -np.ones(4)), Iterate(np.zeros(4), np.zeros(4))
    call = {"spring": lambda: spring_step(problem, z, _sgd_driver(problem, 2), 0.1, 0.1),
            "palm": lambda: palm_step(problem, z, 0.1, 0.1),
            "ipalm": lambda: ipalm_step(problem, z, z_prev, 0.1, 0.1, beta=0.5)}[step]
    scans = []
    monkeypatch.setattr(core_module, "np", _ScanCountingNumpy(scans))
    call()
    assert scans == [(4,)] * scans_per_step


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


@pytest.mark.parametrize("policy, closed_form_x, bound_y", [
    (dict(algorithm="palm"), False, False),
    (dict(algorithm="spring-saga", batch_size=2), False, False),
    (dict(algorithm="ipalm", step_policy="theoretical"), False, False),
    (dict(algorithm="spring-sarah", batch_size=2, step_policy="theoretical"), False, False),
    (dict(algorithm="palm"), True, False),
    (dict(algorithm="spring-saga", batch_size=2), True, False),
    (dict(algorithm="palm"), True, True),
    (dict(algorithm="spring-saga", batch_size=2), False, True),
], ids=["palm", "saga-anchor", "ipalm-theoretical", "sarah-theoretical", "palm-closed-form-x",
        "saga-anchor-closed-form-x", "palm-bound-y", "saga-anchor-bound-y"])
def test_lipschitz_sfo_counts_every_operator_application(policy, closed_form_x, bound_y):
    # Independent count: the hooks' operators tally the batch size (n for the
    # full batch) at every application.
    # The first subsampled draw is degenerate, so the stochastic envelope
    # also anchors on a full-batch draw at z0.  With ``closed_form_x`` the
    # x-hook returns a closed-form value on the full batch, with no application;
    # each other draw is a Collatz-Wielandt bound, from one pass (as a Gram draw is
    # charged one application) or, for the y-hook with ``bound_y``, from three.  Each
    # hook keeps a warm start per block and batch size in the run's store, so a draw
    # after the first of its kind is one pass.
    problem, _ = make_separable_quadratic(n=8, seed=10)
    applied = [0]

    def hook(x, y, batch, warm, block, passes=1):
        size = len(batch)
        scale = 1e-14 if size < problem.n and applied[0] == 0 else 1.0

        def apply(v):
            applied[0] += size
            return scale * v

        bound, made, warm[block, size] = collatz_wielandt_bound(apply, len(x), passes, warm.get((block, size)))
        return bound, made

    def hook_x(x, y, batch, warm):
        return (1.0, 0) if closed_form_x and len(batch) == problem.n else hook(x, y, batch, warm, "x")

    def hook_y(x, y, batch, warm):
        return hook(x, y, batch, warm, "y", 3 if bound_y else 1)

    counted = replace(problem, lipschitz_x=hook_x, lipschitz_y=hook_y)
    z0 = Iterate(np.ones(4), np.ones(4))
    res = run(counted, SolverConfig(epochs=3, seed=4, track_grad_map=False, **policy), z0)
    assert applied[0] > 0
    assert res.trace.rows[-1].lipschitz_sfo == applied[0]


def test_envelope_anchor_draws_at_the_current_iterate():
    # Every sampled draw is degenerate, and the full-batch draw is degenerate at z0 only.
    # The first step's anchor draws at z0 and is floored; the second step's draws at z_1.
    problem, _ = make_separable_quadratic(dim_x=1, dim_y=1, n=2, seed=3)
    z0 = Iterate(np.zeros(1), np.zeros(1))
    anchored_at, proxed = [], []

    def hook(x, y, batch, warm):
        full = len(batch) == problem.n
        if full:
            anchored_at.append(np.concatenate([x, y]))
        return (1.0 if full and (x.any() or y.any()) else 0.0), 1

    def box(_gamma, v):
        proxed.append(np.clip(v, -1.0, 1.0))
        return proxed[-1]

    problem = replace(problem, lipschitz_x=hook, lipschitz_y=hook, prox_x=box, prox_y=box)
    config = SolverConfig(algorithm="spring-sgd", epochs=1, track_grad_map=False)
    with pytest.warns(RuntimeWarning, match="at or below floor") as floored:
        run(problem, config, z0)
    assert len(floored) == 2  # the first step's two blocks; the second step is not floored
    z1 = np.concatenate(proxed[:2])
    assert z1.any()
    np.testing.assert_array_equal(anchored_at, [np.zeros(2)] * 2 + [z1] * 2)


def test_lipschitz_sfo_charges_only_the_applications_made():
    # An operator that annihilates every direction stops a 4-pass bound after one
    # application per block: one PALM epoch (n = 8) is charged 2 x 8, not the
    # 2 x 4 x 8 of a full-length draw.
    # The run starts at the minimizer, so the floored estimate's huge step stays put.
    problem, info = make_separable_quadratic(n=8, seed=10)
    applied = [0]

    def hook(x, y, batch, warm):
        def apply(v):
            applied[0] += problem.n
            return np.zeros_like(v)

        return collatz_wielandt_bound(apply, len(x), 4)[:2]

    zero = replace(problem, lipschitz_x=hook, lipschitz_y=hook)
    with pytest.warns(RuntimeWarning, match="at or below floor"):
        res = run(zero, SolverConfig(algorithm="palm", epochs=1, track_grad_map=False),
                  Iterate(info["a"], info["b"]))
    assert applied[0] == 16
    assert res.trace.rows[-1].lipschitz_sfo == 16


def test_lipschitz_sfo_charges_the_draw_rule():
    # One PALM epoch is one full-batch draw per block.  A quadratic toy's constant
    # costs no application; a toy-NMF Gram draw costs one per block, n SFO each.
    problem, _ = make_separable_quadratic(n=8, seed=10)
    config = SolverConfig(algorithm="palm", epochs=1, track_grad_map=False)
    res = run(problem, config, Iterate(np.ones(4), np.ones(4)))
    assert res.trace.rows[-1].lipschitz_sfo == 0
    adapter = SparseNmfProblem(A=toy_nmf_matrix(), r=5, s=10)
    nmf = adapter.block_problem()
    res = run(nmf, config, adapter.initial_iterate(0))
    assert res.trace.rows[-1].lipschitz_sfo == 2 * nmf.n


@pytest.mark.parametrize("algorithm, purposes", [
    ("palm", set()),
    ("ipalm", set()),
    ("spring-sgd", {"batch_x", "batch_y", "lip_batch"}),
    ("spring-saga", {"batch_x", "batch_y", "lip_batch"}),
    ("spring-sarah", {"batch_x", "batch_y", "lip_batch", "sarah_coin"}),
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


def test_stream_first_draws_are_pinned():
    # Each purpose keeps its stream index, so its first draws under a seed never move;
    # index 3, which seeded the deleted power method's start vectors, stays retired.
    assert STREAMS == {"batch_x": 0, "batch_y": 1, "sarah_coin": 2, "lip_batch": 4}
    pinned = {
        "batch_x": [0.048373749046626946, 0.8224166666374553, 0.09368511632803123],
        "batch_y": [0.27499624951633417, 0.890933072662108, 0.26646541261737866],
        "sarah_coin": [0.8169432743302534, 0.0009783559339044956, 0.7429153995850414],
        "lip_batch": [0.8762539046365145, 0.9337742476462183, 0.08132720840805197],
    }
    for purpose, first in pinned.items():
        assert stream_rng(7, purpose).random(3).tolist() == first, purpose
    with pytest.raises(ValueError, match="unknown RNG purpose"):
        stream_rng(7, "power_init")


@pytest.mark.parametrize("seed", [2.5, -1, 2**64, 2**64 + 2, True, np.float64(2.0), np.int64(-1)],
                         ids=["fraction", "minus-one", "two-to-64", "above-two-to-64", "bool", "numpy-float",
                              "numpy-minus-one"])
def test_a_seed_that_is_no_integer_in_range_is_rejected(seed):
    # 2.5 ran seed 2's streams, -1 those of 2**64 - 1, and 2**64 + 2 and True validated.
    message = re.escape(f"seed must be an integer in [0, 2**64), got {seed!r}")
    with pytest.raises(ConfigError, match=message):
        SolverConfig(algorithm="palm", seed=seed).validate(4)
    with pytest.raises(ValueError, match=message):
        stream_rng(seed, "batch_x")


_SEEDS_IN_RANGE = st.one_of(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1).map(np.uint64),
                            st.integers(0, 2**63 - 1).map(np.int64))
_SEEDS_OUT_OF_RANGE = st.one_of(st.integers(max_value=-1), st.integers(min_value=2**64),
                                st.integers(-2**63, -1).map(np.int64), st.floats(), st.booleans(), st.text(max_size=3))


@given(seed=_SEEDS_IN_RANGE)
def test_a_seed_in_range_keeps_its_streams(seed):
    SolverConfig(algorithm="palm", seed=seed).validate(4)
    for purpose, idx in STREAMS.items():
        # Philox under the seed masked to 64 bits: in range the mask changes nothing.
        ss = np.random.SeedSequence(entropy=int(seed) & 0xFFFFFFFFFFFFFFFF, spawn_key=(idx,))
        reference = np.random.Generator(np.random.Philox(ss))
        assert stream_rng(seed, purpose).bit_generator.random_raw(4).tolist() == \
            reference.bit_generator.random_raw(4).tolist()


@given(seed=_SEEDS_OUT_OF_RANGE)
def test_a_seed_out_of_range_is_a_config_error(seed):
    with pytest.raises(ConfigError, match=re.escape("seed must be an integer in [0, 2**64)")):
        SolverConfig(algorithm="palm", seed=seed).validate(4)
    with pytest.raises(ValueError):
        stream_rng(seed, "batch_x")


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


def test_divergence_cap_is_finite_from_an_infeasible_start():
    # One y-entry at -1e-9 puts the toy-NMF start outside its constraint set, so
    # phi(z0) = +inf and the cap DIVERGENCE_FACTOR * |phi(z0)| was +inf: theoretical
    # iPALM then ran on until its iterate overflowed, where the feasible start raises
    # at 8.9e22 on its third row.  The cap now comes from the first traced objective.
    adapter = SparseNmfProblem(A=toy_nmf_matrix(), r=5, s=10)
    problem, z0 = adapter.block_problem(), adapter.initial_iterate(7)
    y = z0.y.copy()
    y[0] = -1e-9
    start = Iterate(z0.x, y)
    assert objective(problem, start) == math.inf
    config = SolverConfig(algorithm="ipalm", step_policy="theoretical", epochs=200)
    for z in (z0, start):
        with pytest.raises(DivergenceError, match="exceeded") as exc_info:
            run(problem, config, z)
        err = exc_info.value
        assert err.snapshot["iteration"] == 3
        assert err.snapshot["initial"] == (objective(problem, z0) if z is z0 else err.trace.rows[0].objective)


def test_misshapen_z0_raises_before_any_oracle_call(sep10):
    problem, _ = sep10
    counted, counter = with_oracle_counter(problem)
    with pytest.raises(ValueError, match="do not match problem"):
        run(counted, SolverConfig(algorithm="spring-sgd", batch_size=2, seed=0), Iterate(np.ones(3), np.ones(4)))
    assert total_grads(counter) == 0 and counter.value == 0


# Per-epoch (sfo_calls, objective) of fixed-seed runs, recorded before the
# component callbacks were replaced by the batch-mean oracle.
# The bid rows were re-pinned when the kernel projection replaced its
# bisection with the closed form (relative moves of 5e-14 to 1.5e-11), and
# the spring-saga row again when the edge regularizer left the SAGA tables
# (0.23613023430556207 before: the rows no longer hold stale regularizer
# gradients).  The palm and ipalm rows were re-pinned when the full-batch
# x-draw became the closed-form bound 2 ||Y||_1^2 + 16 lam theta, at or above
# the power method's estimate from below (0.2313782215757764 and
# 0.2324846032863556 before).  All five bid rows were re-pinned when the
# remaining BID draws became Collatz-Wielandt bounds (palm 0.2317293570181209,
# ipalm 0.2328074254694939, spring-sgd 0.22094787257035747, spring-saga
# 0.23502238459368477 and spring-sarah 0.22869028981923561 before).  The
# 'toy-nmf', 'toy-nmf-theoretical' and 'toy-nmf-every' rows were re-pinned when
# the factorization draws became exact Gram eigenvalues, one application each,
# in place of the 5-iteration power method (old values in the change log).  The
# three SPRING bid rows were re-pinned when a run's later BID draws became one
# Collatz-Wielandt pass from the vector the previous draw of the same operator
# layout ended on (spring-sgd 0.2213207945480169, spring-saga 0.235287120597246 and
# spring-sarah 0.22915018319406547 before); the one-step PALM and iPALM runs make
# only a cold draw.
GOLDEN = {
    ('toy-nmf', 'palm'): [(40, 13109.580383440669), (80, 1318.1222134364048), (120, 391.7909997504507)],
    ('toy-nmf', 'ipalm'): [(40, 7857.272446902929), (80, 1788.4084085245909), (120, 445.0187753097318)],
    ('toy-nmf', 'spring-sgd'): [(40, 644.281918520951), (80, 528.1907818427127), (120, 439.4799124482799)],
    ('toy-nmf', 'spring-saga'): [(40, 438.0885249208228), (80, 324.2504079767847), (120, 295.04444219975574)],
    ('toy-nmf', 'spring-sarah'): [(40, 582.8636296735731), (152, 512.9093249160499), (192, 464.25437282693576)],
    ('bid', 'palm'): [(8, 0.23173014148340426)],
    ('bid', 'ipalm'): [(8, 0.23280813768833575)],
    ('bid', 'spring-sgd'): [(8, 0.22117554911118367)],
    ('bid', 'spring-saga'): [(8, 0.23520531187584673)],
    ('bid', 'spring-sarah'): [(26, 0.22903583916990028)],
    # Per row (sfo_calls, objective, lipschitz_sfo) of the policies and trace
    # mode the cases above leave out (``POLICY_CASES``), recorded before the
    # step sizes moved into one run-scoped object.  Runs that diverge within
    # these epochs are left out: theoretical ipalm.
    ('toy-nmf-theoretical', 'palm'): [(40, 3437.8946444528956, 40), (80, 92075.20015456446, 40),
                                      (120, 2189.4619365010735, 40)],
    ('toy-nmf-theoretical', 'spring-saga'): [(40, 772.209182292567, 40), (80, 759.4222524227641, 40),
                                             (120, 747.1647056828897, 40)],
    ('toy-nmf-theoretical', 'spring-sarah'): [(40, 566.1889848641235, 40), (152, 398.14909393476864, 40),
                                              (192, 356.66061689088417, 40)],
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
    ('toy-nmf-every', 'palm'): [(40, 13109.580383440669, 40)],
    ('toy-nmf-every', 'ipalm'): [(40, 7857.272446902929, 40)],
    ('toy-nmf-every', 'spring-sgd'): [
        (4, 763.164139291913, 4), (8, 1061.1361515061699, 8), (12, 674.637216788684, 12),
        (16, 761.2903685607894, 16), (20, 3037.016731078619, 20), (24, 2154.427863579833, 24),
        (28, 1220.2216231245236, 28), (32, 742.1368182946409, 32), (36, 671.5768945524642, 36),
        (40, 644.281918520951, 40)],
    ('toy-nmf-every', 'spring-saga'): [
        (4, 746.4490741490642, 4), (8, 671.1262528647974, 8), (12, 642.3328816223103, 12),
        (16, 595.7602707844169, 16), (20, 504.0237957653968, 20), (24, 479.71214815386776, 24),
        (28, 472.6374535536123, 28), (32, 468.1233472830071, 32), (36, 450.5867286851302, 36),
        (40, 448.1683925476897, 40)],
    ('toy-nmf-every', 'spring-sarah'): [
        (40, 606.6307707950346, 4), (80, 526.6449506989283, 8), (84, 482.1060917130129, 12),
        (88, 446.7037035725618, 16), (92, 419.9620037521821, 20), (96, 398.0381317184058, 24),
        (100, 385.42861867108036, 28), (104, 374.76343237219186, 32), (108, 365.71175925129756, 36),
        (112, 358.2910684193366, 40)],
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


@pytest.mark.parametrize("algorithm", ["palm", "ipalm"])
def test_bid_full_batch_steps_charge_the_y_draw_alone(algorithm):
    # The full-batch x-draw is closed-form, so each step's Lipschitz work is the
    # y-bound's applications of n components: Y_BOUND_PASSES (2n; it was 6n while the
    # y-block was power-iterated) at the run's first step, then one pass from the
    # vector the previous step's bound ended on (n).
    problem, z0, _kw = _golden_case("bid")
    res = run(problem, SolverConfig(algorithm=algorithm, seed=7, epochs=3), z0)
    n = problem.n
    assert Y_BOUND_PASSES == 2
    assert [row.lipschitz_sfo for row in res.trace.rows] == [2 * n, 3 * n, 4 * n]


@pytest.mark.parametrize("algorithm", ["spring-sgd", "spring-saga", "spring-sarah"])
def test_bid_subsampled_draws_charge_their_bound_passes(algorithm):
    # A b = 1 draw on the golden BID case is charged its passes.  A run's first draw is
    # cold: X_BOUND_PASSES (4) for the x-bound and Y_BOUND_PASSES (2) for the y-bound, 6
    # (12 while both blocks were power-iterated, and 6 at every step before the warm
    # starts).  Then each bound is one pass from the vector the last draw of its layout
    # ended on: all four tiles' 9 x 9 windows are one x-layout, and each tile is its own
    # y-layout, so a tile's first y-draw is cold.  No envelope anchors on these runs.
    problem, z0, kw = _golden_case("bid")
    res = run(problem, SolverConfig(algorithm=algorithm, seed=7, **{**kw, "epochs": 2}), z0)
    assert (X_BOUND_PASSES, Y_BOUND_PASSES) == (4, 2)
    sampler, seen, charged = BatchSampler(problem.n, 1, stream_rng(7, "lip_batch")), set(), []
    for k in range(2 * problem.n):
        (tile,) = est_module.sample_batch(sampler)
        charged.append((4 if k == 0 else 1) + (1 if tile in seen else 2))
        seen.add(tile)
    assert charged[0] == 6 and charged.count(2) >= 4
    assert [row.lipschitz_sfo for row in res.trace.rows] == [sum(charged[:4]), sum(charged)]


def _rows(result):
    # A run's trace rows and final iterate as bytes, wall time left out.
    rows = [(r.epoch, r.sfo_calls, r.objective.hex(), r.grad_map_norm_sq.hex(), r.lipschitz_sfo)
            for r in result.trace.rows]
    return rows, result.z.x.tobytes(), result.z.y.tobytes()


@pytest.mark.parametrize("algorithm", ["palm", "ipalm", "spring-sgd", "spring-saga", "spring-sarah"])
def test_bid_runs_sharing_a_problem_draw_as_on_a_fresh_one(algorithm):
    # A run's warm starts live in its own step-size provider, never in the problem: a
    # run on a problem that other runs use, here whole runs made inside its draws, gives
    # the trace and iterate of the same run on a fresh problem, bit for bit, and so does
    # each of those inner runs.  A shorter run is a prefix of a longer one.
    Z, _, _ = toy_blurred_image(seed=0, size=16, kernel=3)
    adapter = BlindDeblurProblem(Z=Z, kernel_shape=(3, 3), n_tiles=4)
    problem, z0 = adapter.block_problem(), adapter.initial_iterate()

    def config(name, epochs):
        return SolverConfig(algorithm=name, batch_size=1, epochs=epochs, seed=5)

    inner = []

    def interleaving(x, y, batch, warm):
        if len(inner) < 3:
            name = ("spring-sgd", "palm", algorithm)[len(inner)]
            inner.append((name, run(problem, config(name, 1), z0)))
        return problem.lipschitz_x(x, y, batch, warm)

    shared = run(replace(problem, lipschitz_x=interleaving), config(algorithm, 3), z0)
    assert len(inner) == 3
    assert _rows(shared) == _rows(run(adapter.block_problem(), config(algorithm, 3), z0))
    for name, result in inner:
        assert _rows(result) == _rows(run(adapter.block_problem(), config(name, 1), z0)), name
    shorter = run(problem, config(algorithm, 2), z0)
    assert _rows(shorter)[0] == _rows(shared)[0][:len(shorter.trace.rows)]


@pytest.mark.parametrize("size, kernel, tiles", [(16, 3, 4), (32, 5, 16), (64, 9, 16)])
def test_bid_palm_y_steps_descend(monkeypatch, size, kernel, tiles):
    # PALM's BID y-step is 1/L (inertial PALM's 0.9/L) for the Collatz-Wielandt bound L,
    # at or above the y-block's Lipschitz modulus, and the kernel prox is a projection,
    # so by the descent lemma no y-half-step raises the objective: phi at
    # (x_{k+1}, y_{k+1}) is at most phi at the point the y-step starts from,
    # (x_{k+1}, y_bar) with y_bar = y_k + beta (y_k - y_{k-1}).  That point may leave
    # the kernel's feasible set under momentum, so it is measured without R(y).
    Z, _, _ = toy_blurred_image(seed=0, size=size, kernel=kernel)
    adapter = BlindDeblurProblem(Z=Z, kernel_shape=(kernel, kernel), n_tiles=tiles)
    problem, z0 = adapter.block_problem(), adapter.initial_iterate()
    real_step = solver_module._step
    for algorithm in ("palm", "ipalm"):
        steps = []

        def spy(problem, z, z_prev, driver, step_sizes, k, beta, name):
            out = real_step(problem, z, z_prev, driver, step_sizes, k, beta, name)
            steps.append((z.y + beta * (z.y - z_prev.y), out[0]))
            return out

        monkeypatch.setattr(solver_module, "_step", spy)
        run(problem, SolverConfig(algorithm=algorithm, epochs=30, seed=0, track_grad_map=False), z0)
        assert len(steps) == 30
        for k, (y_bar, z_next) in enumerate(steps):
            before = problem.reg_x_value(z_next.x) + smooth_value(problem, Iterate(z_next.x, y_bar))
            after = objective(problem, z_next)
            assert after - before <= 1e-12 * abs(before), (algorithm, k, before, after)


@pytest.mark.parametrize("size, kernel, tiles", [(16, 3, 4), (32, 5, 16), (64, 9, 16)])
def test_bid_palm_x_steps_descend(monkeypatch, size, kernel, tiles):
    # PALM's BID x-step is 1/L for the closed-form bound L, at or above the x-block's
    # Lipschitz modulus, and the image prox is a projection, so by the descent lemma
    # no x-half-step raises the objective; an estimate from below does not ensure this.
    Z, _, _ = toy_blurred_image(seed=0, size=size, kernel=kernel)
    adapter = BlindDeblurProblem(Z=Z, kernel_shape=(kernel, kernel), n_tiles=tiles)
    problem, z0 = adapter.block_problem(), adapter.initial_iterate()
    steps, real_step = [], solver_module._step

    def spy(problem, z, *args):
        out = real_step(problem, z, *args)
        steps.append((z, out[0]))
        return out

    monkeypatch.setattr(solver_module, "_step", spy)
    run(problem, SolverConfig(algorithm="palm", epochs=30, seed=0, track_grad_map=False), z0)
    assert len(steps) == 30
    for k, (z, z_next) in enumerate(steps):
        before = objective(problem, z)
        after = objective(problem, Iterate(z_next.x, z.y))
        assert after - before <= 1e-12 * abs(before), (k, before, after)


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
