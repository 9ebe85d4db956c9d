import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from springopt.harness.datasets import toy_blurred_image
from springopt.lipschitz import (
    closed_form_step_cap,
    collatz_wielandt_bound,
    ipalm_momentum,
    practical_step_sizes,
    theoretical_step_bound,
)
from springopt.problems import BlindDeblurProblem, _constant_lipschitz


@settings(max_examples=50)
@given(lip=st.floats(1e-100, 1e100), batch=st.lists(st.integers(0, 9), min_size=1, max_size=10, unique=True))
def test_scalar_operator_estimate_is_exact(lip, batch):
    # The quadratic toys' hook returns its constant as it is, with no operator
    # application, on every batch.
    hook = _constant_lipschitz(lip)
    assert hook(np.ones(2), -np.ones(3), np.array(sorted(batch))) == (lip, 0)


# The Collatz-Wielandt bound, checked against dense eigvalsh.  A bound computed in
# floating point may sit below the exact eigenvalue by rounding alone: 1e-12 relative.
def _nonnegative_symmetric(draw_rng, dim, density):
    B = draw_rng.random((dim, dim)) * (draw_rng.random((dim, dim)) < density)
    return B + B.T


def _eigvalsh_max(G):
    return float(np.linalg.eigvalsh(G)[-1])


@settings(max_examples=50)
@given(dim=st.integers(1, 25), seed=st.integers(0, 10_000), density=st.sampled_from([0.05, 0.3, 1.0]),
       passes=st.integers(1, 8))
def test_bound_is_at_or_above_the_top_eigenvalue(dim, seed, density, passes):
    G = _nonnegative_symmetric(np.random.default_rng(seed), dim, density)
    assert collatz_wielandt_bound(G.dot, dim, passes)[0] >= _eigvalsh_max(G) * (1 - 1e-12)


@settings(max_examples=50)
@given(dim=st.integers(1, 25), seed=st.integers(0, 10_000), density=st.sampled_from([0.05, 0.3, 1.0]))
def test_bound_does_not_increase_with_passes(dim, seed, density):
    G = _nonnegative_symmetric(np.random.default_rng(seed), dim, density)
    bounds = [collatz_wielandt_bound(G.dot, dim, passes)[0] for passes in range(1, 12)]
    for fewer, more in zip(bounds, bounds[1:]):
        assert more <= fewer * (1 + 1e-12)
    # One pass from the ones vector is the largest row sum.
    assert bounds[0] == pytest.approx(float(G.sum(axis=1).max()), rel=1e-15)


@settings(max_examples=50)
@given(dim=st.integers(1, 25), seed=st.integers(0, 10_000), zeros=st.integers(0, 5))
def test_bound_is_exact_on_rank_one(dim, seed, zeros):
    # G = u u^T, with some zero entries in u (zero rows of G): v = G 1 is parallel to u,
    # and every ratio on its support is u.u.
    u = np.random.default_rng(seed).random(dim)
    u[:min(zeros, dim - 1)] = 0.0
    G = np.outer(u, u)
    for passes in (2, 3, 6):
        assert collatz_wielandt_bound(G.dot, dim, passes)[0] == pytest.approx(float(u @ u), rel=1e-13)


def test_bound_takes_the_ratio_on_the_support_only():
    # A zero row of G leaves a zero in v = G 1 (0/0 there would be NaN), and the
    # ratio on the rest bounds the nonzero block: here diag(3, 0, 1) is exact from
    # two passes, and a zero row inside a block is skipped as well.
    G = np.diag([3.0, 0.0, 1.0])
    assert collatz_wielandt_bound(G.dot, 3, 1) == (3.0, 1)
    assert collatz_wielandt_bound(G.dot, 3, 2) == (3.0, 2)
    block = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 0.0]])
    with np.errstate(all="raise"):
        for passes in (1, 2, 5):
            assert collatz_wielandt_bound(block.dot, 3, passes) == (3.0, passes)


def _toy_bid():
    Z, _, _ = toy_blurred_image(seed=0, size=16, kernel=5)
    adapter = BlindDeblurProblem(Z=Z, kernel_shape=(5, 5), n_tiles=16)
    return adapter, adapter.block_problem(), adapter.initial_iterate()


def test_bound_of_the_zero_operator_is_the_shift():
    for passes in (1, 2, 4):
        assert collatz_wielandt_bound(np.zeros((4, 4)).dot, 4, passes) == (0.0, 1)
    # Below the full batch, the BID x-value at the zero kernel is the bound of the zero
    # operator plus the edge term's curvature 16 lam theta, after one application.
    adapter, problem, z = _toy_bid()
    shift = 16.0 * adapter.lam * adapter.theta
    assert problem.lipschitz_x(z.x, np.zeros_like(z.y), np.array([3])) == (shift, 1)


@np.errstate(over="ignore")
def test_bound_reads_an_overflowing_pass_as_inf():
    # A pass whose maximum overflows stops with inf; dividing by it would leave NaN and
    # zeros, and the ratio on the remaining support would read 0.
    G = np.full((3, 3), 1e308)
    for passes in (2, 4):
        assert collatz_wielandt_bound(G.dot, 3, passes) == (math.inf, 1)
    assert collatz_wielandt_bound(G.dot, 3, 1) == (math.inf, 1)


def test_bound_reports_its_passes_and_draws_nothing():
    G = _nonnegative_symmetric(np.random.default_rng(7), 9, 0.5)
    for passes in (1, 2, 4):
        made = [0]

        def counted(v):
            made[0] += 1
            return G.dot(v)

        bound, applied = collatz_wielandt_bound(counted, 9, passes)
        assert applied == made[0] == passes
        assert bound >= _eigvalsh_max(G) * (1 - 1e-12)


def previous_collatz_wielandt_bound(apply, dim, passes):
    # The bound as it was before a full support skipped the gathers, verbatim: the
    # reference the bit-for-bit pins below and in test_problems compare against.
    if passes < 1:
        raise ValueError(f"the bound needs at least one pass, got {passes}")
    if dim < 1:
        raise ValueError(f"operator dimension must be >= 1, got {dim}")
    v = np.ones(dim)
    for applied in range(1, passes):
        w = apply(v)
        top = float(w.max())
        if top == 0.0 or not math.isfinite(top):
            return top, applied
        v = w / top
    w = apply(v)
    support = v > 0.0
    return float(np.max(w[support] / v[support], initial=0.0)), passes


def _bitwise_bound(got, want):
    return (got[0].hex(), got[1]) == (want[0].hex(), want[1])


@settings(max_examples=80)
@given(dim=st.integers(1, 25), seed=st.integers(0, 10_000), density=st.sampled_from([0.05, 0.3, 1.0]),
       zero_rows=st.integers(0, 3), passes=st.integers(1, 6))
def test_bound_matches_the_gathering_bound_bitwise(dim, seed, density, zero_rows, passes):
    # With full support the ratio is taken over all of v without the two gathers, and
    # a partial support (G's zero rows, v's zeros from the second pass) still gathers:
    # the same values and pass counts, bit for bit.
    draw_rng = np.random.default_rng(seed)
    G = _nonnegative_symmetric(draw_rng, dim, density)
    dead = draw_rng.choice(dim, size=min(zero_rows, dim), replace=False)
    G[dead], G[:, dead] = 0.0, 0.0
    assert _bitwise_bound(collatz_wielandt_bound(G.dot, dim, passes),
                          previous_collatz_wielandt_bound(G.dot, dim, passes))


@np.errstate(over="ignore", invalid="ignore")
def test_bound_edge_cases_match_the_gathering_bound_bitwise():
    # The zero operator, an overflowing pass, signed zeros, and a last pass with NaN,
    # inf or -0.0 on the support: the early stops and the ratio agree bit for bit.
    G = _nonnegative_symmetric(np.random.default_rng(3), 6, 0.5)
    G[2], G[:, 2] = 0.0, 0.0

    def last_pass(value):
        # G, except that every pass after the first writes ``value`` into entry 0.
        made = [0]

        def apply(v):
            made[0] += 1
            w = G.dot(v)
            if made[0] > 1:
                w[0] = value
            return w
        return apply

    operators = [lambda: np.zeros((6, 6)).dot, lambda: np.full((6, 6), 1e308).dot, lambda: G.dot,
                 lambda: (lambda v: -0.0 * v), lambda: (lambda v: np.zeros_like(v) - 0.0)]
    operators += [lambda value=value: last_pass(value) for value in (math.nan, math.inf, -0.0)]
    for passes in (1, 2, 3):
        for operator in operators:
            assert _bitwise_bound(collatz_wielandt_bound(operator(), 6, passes),
                                  previous_collatz_wielandt_bound(operator(), 6, passes))


def test_bound_rejects_bad_config():
    with pytest.raises(ValueError):
        collatz_wielandt_bound(lambda v: v, 3, 0)
    with pytest.raises(ValueError):
        collatz_wielandt_bound(lambda v: v, 0, 2)


def test_practical_steps_sgd_decay():
    gx, gy = practical_step_sizes("spring-sgd", 1.0, 1.0, k=4, b=1, n=1)
    assert gx == pytest.approx(0.5)
    assert gy == pytest.approx(0.5)


def test_practical_steps_saga():
    gx, _ = practical_step_sizes("spring-saga", 3.0, 3.0)
    assert gx == pytest.approx(1.0 / 9.0)


def test_practical_steps_palm_and_variants():
    assert practical_step_sizes("palm", 2.0, 4.0) == (pytest.approx(0.5), pytest.approx(0.25))
    gx, _ = practical_step_sizes("ipalm", 2.0, 2.0)
    assert gx == pytest.approx(0.45)
    gx, _ = practical_step_sizes("spring-sarah", 2.0, 2.0)
    assert gx == pytest.approx(0.25)


def test_practical_steps_floor_and_warning():
    with pytest.warns(RuntimeWarning):
        gx, gy = practical_step_sizes("palm", 0.0, -1.0)
    assert gx == pytest.approx(1e12)
    assert gy == pytest.approx(1e12)


def test_practical_steps_sgd_needs_counter():
    with pytest.raises(ValueError):
        practical_step_sizes("spring-sgd", 1.0, 1.0, k=0)


def test_practical_steps_unknown_algorithm():
    with pytest.raises(ValueError):
        practical_step_sizes("gd", 1.0, 1.0)


def test_theoretical_bound_matches_verbatim_formula():
    # The stable form must agree with the literal expression
    # (1/c) sqrt(L^2/A^2 + c/A) - L/(c A).
    for L in (0.5, 1.0, 3.0):
        for v1, vu, rho in ((2.0, 2.0, 0.25), (6.0, 1340.0, 0.05), (0.1, 0.0, 1.0)):
            A = v1 + vu / rho
            for variant, c in (("rate", 16.0), ("error_bound", 20.0)):
                literal = math.sqrt(L * L / (A * A) + c / A) / c - L / (c * A)
                stable = theoretical_step_bound(L, v1, vu, rho, variant)
                assert stable == pytest.approx(literal, rel=1e-12)


def test_theoretical_bound_degenerate_variance_limit():
    # V1 = V_upsilon = 0 (exact gradients): the formula tends to 1/(2L),
    # which exceeds the separate 1/(4L) cap the caller must apply.
    for L in (0.5, 1.0, 2.0):
        bound = theoretical_step_bound(L, 0.0, 0.0, 0.5)
        assert bound == pytest.approx(1.0 / (2.0 * L), rel=1e-12)
        assert bound > 1.0 / (4.0 * L)


def test_theoretical_bound_validation():
    with pytest.raises(ValueError):
        theoretical_step_bound(1.0, 1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        theoretical_step_bound(0.0, 1.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        theoretical_step_bound(1.0, 1.0, 1.0, 0.5, variant="bogus")


def test_closed_form_caps_exact():
    for L in (0.5, 1.0, 2.0):
        assert abs(closed_form_step_cap("sarah", L, n=30) - 1.0 / (2.0 * L * math.sqrt(900.0))) <= 1e-15
        assert abs(closed_form_step_cap("saga", L) - 1.0 / (2.0 * math.sqrt(2710.0) * L)) <= 1e-15
    assert closed_form_step_cap("sarah", 1.0, n=30) == pytest.approx(1.0 / 60.0, abs=1e-15)


def test_all_step_outputs_positive():
    for algo in ("palm", "ipalm", "spring-sgd", "spring-saga", "spring-sarah"):
        gx, gy = practical_step_sizes(algo, 7.3, 0.2, k=5, b=2, n=10)
        assert gx > 0 and gy > 0


def test_ipalm_momentum_values():
    assert ipalm_momentum(1) == 0.0
    assert ipalm_momentum(8) == pytest.approx(0.7)
    assert ipalm_momentum(10**9) < 1.0
    with pytest.raises(ValueError):
        ipalm_momentum(0)
