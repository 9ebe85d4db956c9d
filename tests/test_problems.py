import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from numpy.lib.stride_tricks import as_strided, sliding_window_view

import springopt.problems as problems_module
from springopt.core import Iterate, full_grad_x, full_grad_y, objective, smooth_value
from springopt.diagnostics import bruteforce_prox_l0_nonneg, fd_gradient_check
from springopt.estimators import batch_grads_x, batch_grads_y, row_dims
from springopt.harness.datasets import toy_blurred_image, toy_nmf_matrix
from springopt.lipschitz import collatz_wielandt_bound
from springopt.problems import (
    BlindDeblurProblem,
    SparseNmfProblem,
    SparsePcaProblem,
    ToeplitzFactors,
    bid_adjoint_image,
    bid_component_split,
    bid_forward,
    bid_kernel_gradient,
    bid_potential,
    make_random_quadratic,
    make_separable_quadratic,
    prox_l0_nonneg_columns,
    prox_l1,
    prox_nonneg,
    project_box_l1,
)
from springopt.solver import DivergenceError, SolverConfig, run

from monitors import expand_rows, image_gradients
from test_lipschitz import previous_collatz_wielandt_bound


# ---------------------------------------------------------------------------
# Proximal operators
# ---------------------------------------------------------------------------


def test_prox_nonneg():
    np.testing.assert_array_equal(prox_nonneg(np.array([-1.0, 2.0])), [0.0, 2.0])
    np.testing.assert_array_equal(prox_nonneg(np.zeros(3)), np.zeros(3))
    v = np.array([0.5, 1.0])
    np.testing.assert_array_equal(prox_nonneg(v), v)


def test_prox_l1():
    np.testing.assert_array_equal(prox_l1(np.array([3.0, -0.5]), 1.0), [2.0, 0.0])
    v = np.array([1.0, -2.0, 0.0])
    np.testing.assert_array_equal(prox_l1(v, 0.0), v)
    np.testing.assert_array_equal(prox_l1(v, 2.5), np.zeros(3))
    with pytest.raises(ValueError):
        prox_l1(v, -0.1)


def test_prox_l0_examples():
    col = np.array([[-1.0], [2.0], [0.5]])
    np.testing.assert_array_equal(prox_l0_nonneg_columns(col, 1), [[0.0], [2.0], [0.0]])
    ok = np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
    np.testing.assert_array_equal(prox_l0_nonneg_columns(ok, 1), ok)
    tie = np.array([[1.0], [1.0], [0.0]])
    np.testing.assert_array_equal(prox_l0_nonneg_columns(tie, 1), [[1.0], [0.0], [0.0]])
    with pytest.raises(ValueError):
        prox_l0_nonneg_columns(tie, 0)


def test_prox_l0_output_always_feasible(rng):
    for _ in range(200):
        v = rng.standard_normal((6, 3))
        s = int(rng.integers(1, 5))
        out = prox_l0_nonneg_columns(v, s)
        assert np.all(out >= 0)
        assert np.all(np.count_nonzero(out, axis=0) <= s)


def test_prox_l0_matches_bruteforce_batch(rng):
    for _ in range(300):
        dim = int(rng.integers(1, 9))
        s = int(rng.integers(1, 4))
        v = np.round(rng.standard_normal(dim), 2)
        fast = prox_l0_nonneg_columns(v.reshape(-1, 1), s).ravel()
        np.testing.assert_array_equal(fast, bruteforce_prox_l0_nonneg(v, s))


def test_prox_l0_on_a_vector_matches_bruteforce(rng):
    # A vector is one column, and comes back a vector.
    np.testing.assert_array_equal(prox_l0_nonneg_columns(np.array([3.0, 2.0, 1.0]), 1), [3.0, 0.0, 0.0])
    for _ in range(300):
        dim = int(rng.integers(1, 9))
        s = int(rng.integers(1, 4))
        v = np.round(rng.standard_normal(dim), 1)  # one decimal, so ties are frequent
        fast = prox_l0_nonneg_columns(v, s)
        assert fast.shape == v.shape
        np.testing.assert_array_equal(fast, bruteforce_prox_l0_nonneg(v, s))
    for bad in (np.float64(1.0), np.ones((2, 2, 2))):
        with pytest.raises(ValueError, match="vector or a matrix"):
            prox_l0_nonneg_columns(bad, 1)


def _column_loop_prox_l0(v, s):
    # The per-column loop the vectorized prox replaced, verbatim.
    v = np.atleast_2d(np.asarray(v, dtype=float))
    clipped = np.maximum(v, 0.0)
    if s >= v.shape[0]:
        return clipped
    out = np.zeros_like(clipped)
    for col in range(v.shape[1]):
        keep = np.argsort(-clipped[:, col], kind="stable")[:s]
        out[keep, col] = clipped[keep, col]
    return out


def test_prox_l0_matches_column_loop(rng):
    # Rounded entries give ties (and zeros), which keep the lowest row index.
    for m, r in ((1, 1), (7, 1), (7, 5), (40, 10)):
        for _ in range(30):
            v = np.round(rng.standard_normal((m, r)), 1)
            for s in sorted({1, max(m - 1, 1), m}):
                want = _column_loop_prox_l0(v, s)
                got = prox_l0_nonneg_columns(v, s)
                assert got.shape == want.shape
                assert np.array_equal(got, want), (m, r, s)
                assert np.array_equal(np.signbit(got), np.signbit(want))



def test_prox_l0_matches_column_loop_at_benchmark_shape(rng):
    # nmf-medium's factor X: 200 x 10 with s = 40, plus the edge sparsities.
    m, r = 200, 10
    for trial in range(40):
        v = rng.standard_normal((m, r))
        # Fewer than s positive entries: the threshold is 0, and zeros
        # (including -0.0 inputs, which clip to -0.0) tie lowest row first.
        v[:, 0] = -np.abs(v[:, 0])
        v[rng.choice(m, 10, replace=False), 0] *= -1.0
        v[rng.choice(m, 30, replace=False), 0] = -0.0
        v[rng.choice(m, 20, replace=False), 1] = 0.0
        # Exact ties at a positive threshold: 30 entries at 2 and 25 at 1.
        v[:, 2] = -1.0
        v[rng.choice(m, 55, replace=False), 2] = np.repeat([2.0, 1.0], [30, 25])
        # Rounded columns tie near their thresholds by chance.
        v[:, 3:6] = np.round(v[:, 3:6], 1)
        if trial % 4 == 0:
            # NaNs order after every number, as in the column loop's sort.
            v[rng.choice(m, 180, replace=False), 6] = np.nan
            v[rng.choice(m, 5, replace=False), 7] = np.nan
        for s in (1, 40, m - 1, m):
            want = _column_loop_prox_l0(v, s)
            got = prox_l0_nonneg_columns(v, s)
            assert got.shape == want.shape
            assert np.array_equal(got, want, equal_nan=True), (trial, s)
            assert np.array_equal(np.signbit(got), np.signbit(want)), (trial, s)

def test_project_box_l1_examples():
    inside = np.array([0.2, 0.3])
    np.testing.assert_array_equal(project_box_l1(inside), inside)
    out = project_box_l1(np.array([2.0, 2.0]))
    np.testing.assert_allclose(out, [0.5, 0.5], atol=1e-11)
    v = np.array([0.9, 0.05])
    np.testing.assert_array_equal(project_box_l1(v), v)


def test_project_box_l1_feasibility_exact(rng):
    for _ in range(300):
        v = rng.standard_normal(int(rng.integers(1, 12))) * 3.0
        p = project_box_l1(v)
        assert p.sum() <= 1.0
        assert np.all(p >= 0.0) and np.all(p <= 1.0)


def test_project_box_l1_grid_oracle(rng):
    # Dense grid search over the feasible set in 2-d.
    grid = np.linspace(0.0, 1.0, 201)
    gx, gy = np.meshgrid(grid, grid)
    mask = gx + gy <= 1.0
    pts = np.stack([gx[mask], gy[mask]], axis=1)
    for _ in range(25):
        v = rng.standard_normal(2) * 1.5
        p = project_box_l1(v)
        best = pts[np.argmin(((pts - v) ** 2).sum(axis=1))]
        assert np.linalg.norm(p - best) <= 2e-2  # grid resolution
        assert ((p - v) ** 2).sum() <= ((best - v) ** 2).sum() + 1e-12



def _bisection_project_box_l1(v, bound=1.0):
    # The projection before its closed form, verbatim: a bisection on the
    # threshold down to a 1e-12 bracket.  Slow, and it never ends once the
    # threshold passes 2^13, but accurate to 1e-12 below that.
    v = np.asarray(v, dtype=float)
    p = np.clip(v, 0.0, 1.0)
    if p.sum() <= bound:
        return p
    lo, hi = 0.0, float(v.max())
    while hi - lo > 1e-12:
        t = 0.5 * (lo + hi)
        if np.clip(v - t, 0.0, 1.0).sum() > bound:
            lo = t
        else:
            hi = t
    return np.clip(v - hi, 0.0, 1.0)


def test_project_box_l1_matches_bisection_oracle(rng):
    # 9 x 9, the bid-medium kernel shape: rounded entries (ties), one entry
    # above 2 (the projection is a vertex), and all-inside inputs (the early
    # return), rounded too.
    Z, _, _ = toy_blurred_image(seed=0, size=16, kernel=3)
    reg_y = BlindDeblurProblem(Z=Z, kernel_shape=(9, 9), n_tiles=4).block_problem().reg_y_value
    for i in range(20_000):
        kind = i % 4
        if kind == 0:
            v = np.round(rng.standard_normal((9, 9)) * 0.3, 1)
        elif kind == 1:
            v = rng.random((9, 9)) * 0.02
            v[rng.integers(9), rng.integers(9)] = 2.0 + rng.random()
        else:
            v = rng.random((9, 9)) * (1.0 / 81.0)
            if kind == 3:
                v = np.floor(v * 1e3) / 1e3
        want = _bisection_project_box_l1(v)
        got = project_box_l1(v)
        assert got.shape == v.shape
        # Exactly feasible, summed the way the kernel block's regularizer sums it.
        assert np.all(got >= 0.0) and np.all(got <= 1.0), i
        assert got.sum() <= 1.0 and got.ravel().sum() <= 1.0, i
        assert reg_y(got.ravel()) == 0.0, i
        if np.clip(v, 0.0, 1.0).sum() <= 1.0:
            assert np.array_equal(got, np.clip(v, 0.0, 1.0)), i
            assert np.array_equal(np.signbit(got), np.signbit(np.clip(v, 0.0, 1.0))), i
        # ||got - v||^2 - ||want - v||^2, as sum (got - want)(got + want - 2v):
        # the difference of the two sums of squares, without their rounding.
        assert float(((got - want) * (got + want - 2.0 * v)).sum()) <= 1e-15, i
        assert np.max(np.abs(got - want)) <= 1e-12, i


_TERMINATION_SCRIPT = """
import warnings
import numpy as np
from springopt.problems import project_box_l1

warnings.simplefilter("error")
for c in (9000.0, 2.0 ** 20):
    p = project_box_l1(c + np.array([0.5, 0.25, 0.0]))
    assert np.max(np.abs(p - [7 / 12, 1 / 3, 1 / 12])) <= 1e-12, (c, p)
    assert p.sum() <= 1.0
p = project_box_l1(np.array([1e300, 1e300, 0.0]))
assert np.array_equal(p, [0.5, 0.5, 0.0]), p
for bad in ([np.inf, 0.5, 0.25], [np.nan, 0.5, 0.25], [-np.inf, 2.0, 2.0]):
    p = project_box_l1(np.array(bad))
    assert p.shape == (3,) and not np.all(np.isfinite(p)), (bad, p)
print("ok")
"""


def test_project_box_l1_terminates_on_large_and_infinite_entries(run_python):
    # A subprocess with a timeout, so a projection that loops fails the test
    # instead of hanging the suite.  Thresholds above 2^13 leave neighbouring
    # doubles more than 1e-12 apart; any warning is an error in the script.
    done = run_python("-c", _TERMINATION_SCRIPT)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "ok\n" and done.stderr == ""


@pytest.mark.parametrize("v", [[np.inf, -1.0, 0.0], [-np.inf, 0.5], [np.inf, np.inf], [np.nan, 0.1],
                               [[0.0, np.inf], [-1.0, 0.0]]])
def test_project_box_l1_reports_non_finite_entries_as_nan(v):
    # Clipping would put an overflowed kernel step back in the box whenever its
    # clipped sum stays <= 1 ([inf, -1, 0] -> [1, 0, 0]); all-NaN is divergence.
    v = np.array(v)
    out = project_box_l1(v)
    assert out.shape == v.shape and np.isnan(out).all()


# ---------------------------------------------------------------------------
# Sparse NMF / PCA
# ---------------------------------------------------------------------------


def _nmf_instance(seed=0, m=10, d=8, r=3, s=4):
    rng = np.random.default_rng(seed)
    A = rng.random((m, d))
    return SparseNmfProblem(A=A, r=r, s=s), A


def nmf_component_grads(A, i, X, Y):
    """Gradients of F_i = d * ||A_i - X Y_i||^2 for column i: the slow reference.

    grad_X = 2d (X Y_i - A_i) Y_i^T; grad_Y is zero outside column i, where
    it equals 2d X^T (X Y_i - A_i).  The d factor makes the component mean
    equal ||A - XY||_F^2.
    """
    d = A.shape[1]
    resid = X @ Y[:, i] - A[:, i]
    grad_x = 2.0 * d * np.outer(resid, Y[:, i])
    grad_y = np.zeros_like(Y)
    grad_y[:, i] = 2.0 * d * (X.T @ resid)
    return grad_x, grad_y


def test_nmf_grads_zero_at_exact_fit():
    rng = np.random.default_rng(1)
    X = rng.random((6, 2))
    Y = rng.random((2, 5))
    A = X @ Y
    for i in range(A.shape[1]):
        gx, gy = nmf_component_grads(A, i, X, Y)
        np.testing.assert_allclose(gx, 0.0, atol=1e-12)
        np.testing.assert_allclose(gy, 0.0, atol=1e-12)


def test_nmf_grad_hand_algebra():
    # X = I, Y = 0, A_i = e_1: grad wrt Y on column i is -2 d e_1.
    d = 4
    A = np.zeros((3, d))
    A[0, :] = 1.0
    X = np.eye(3)
    Y = np.zeros((3, d))
    i = 2
    gx, gy = nmf_component_grads(A, i, X, Y)
    expected = np.zeros((3, d))
    expected[:, i] = -2.0 * d * A[:, i]
    np.testing.assert_allclose(gy, expected, atol=1e-14)
    np.testing.assert_allclose(gx, 0.0, atol=1e-14)  # residual times zero row


def test_nmf_fd_check(rng):
    adapter, _ = _nmf_instance(seed=2)
    problem = adapter.block_problem()
    z = adapter.initial_iterate(seed=3)
    assert fd_gradient_check(problem, z, h=1e-6) <= 1e-5


def test_pca_fd_check():
    rng = np.random.default_rng(4)
    adapter = SparsePcaProblem(A=rng.standard_normal((10, 8)), r=3, lam1=0.1, lam2=0.2)
    problem = adapter.block_problem()
    z = adapter.initial_iterate(seed=5)
    assert fd_gradient_check(problem, z, h=1e-6) <= 1e-5


def test_factorization_component_mean_equals_frobenius(rng):
    adapter, A = _nmf_instance(seed=6)
    problem = adapter.block_problem()
    for k in range(50):
        z = adapter.initial_iterate(seed=100 + k)
        X = z.x.reshape(10, 3)
        Y = z.y.reshape(3, 8)
        mono = float(((A - X @ Y) ** 2).sum())
        assert smooth_value(problem, z) == pytest.approx(mono, rel=1e-10)


@pytest.mark.parametrize("family", ["nmf", "pca"])
def test_factorization_oracle_matches_component_reference(family):
    # Batch sizes 1, r - 1, r + 1 and n hit the r-column block boundaries;
    # the reference is the per-column nmf_component_grads, meaned.
    rng = np.random.default_rng(21)
    m, d, r = 7, 11, 4
    A = rng.random((m, d))
    if family == "nmf":
        adapter = SparseNmfProblem(A=A, r=r, s=m)
        X, Y = rng.random((m, r)), rng.random((r, d))
    else:
        adapter = SparsePcaProblem(A=A, r=r)
        X, Y = rng.standard_normal((m, r)), rng.standard_normal((r, d))
    problem = adapter.block_problem()
    for b in (1, r - 1, r + 1, d):
        idx = np.sort(rng.choice(d, size=b, replace=False))
        grads = [nmf_component_grads(A, i, X, Y) for i in idx]
        ref_x = np.mean([gx for gx, _gy in grads], axis=0)
        ref_y = np.mean([gy for _gx, gy in grads], axis=0)
        ref_value = np.mean([d * float(((A[:, i] - X @ Y[:, i]) ** 2).sum()) for i in idx])
        np.testing.assert_allclose(problem.grad_x(idx, X.ravel(), Y.ravel()), ref_x.ravel(),
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(problem.grad_y(idx, X.ravel(), Y.ravel()), ref_y.ravel(),
                                   rtol=1e-12, atol=1e-12)
        assert problem.value(idx, X.ravel(), Y.ravel()) == pytest.approx(ref_value, rel=1e-12)


def _dense_rows(problem):
    """The same problem without its per-row oracles: SAGA rows are dense gradients."""
    return replace(problem, rows_x=None, rows_mean_x=None, row_dim_x=None,
                   rows_y=None, rows_mean_y=None, row_dim_y=None)


@pytest.mark.parametrize("family", ["nmf", "pca"])
def test_factorization_rows_encode_oracle_gradients(family):
    # The batch mean a set of compact rows decodes to is the batch-mean oracle;
    # one decoded row is the component's dense gradient, which is both the
    # dense-fallback SAGA row and the slow per-column reference.
    rng = np.random.default_rng(24)
    m, d, r = 7, 11, 4
    A = rng.random((m, d))
    if family == "nmf":
        adapter = SparseNmfProblem(A=A, r=r, s=m)
        X, Y = rng.random((m, r)), rng.random((r, d))
    else:
        adapter = SparsePcaProblem(A=A, r=r)
        X, Y = rng.standard_normal((m, r)), rng.standard_normal((r, d))
    problem = adapter.block_problem()
    dense = _dense_rows(problem)
    xv, yv = X.ravel(), Y.ravel()
    assert row_dims(problem) == (m + r, r)
    for b in (1, r - 1, r + 1, d):
        idx = np.sort(rng.choice(d, size=b, replace=False))
        for rows_fn, mean_fn, grad_fn, batch_grads, block in (
            (problem.rows_x, problem.rows_mean_x, problem.grad_x, batch_grads_x, 0),
            (problem.rows_y, problem.rows_mean_y, problem.grad_y, batch_grads_y, 1),
        ):
            rows = rows_fn(idx, xv, yv)
            assert rows.shape == (b, row_dims(problem)[block])
            np.testing.assert_allclose(mean_fn(idx, rows), grad_fn(idx, xv, yv), rtol=1e-12, atol=1e-12)
            expanded = expand_rows(mean_fn, idx, rows)
            np.testing.assert_allclose(expanded, batch_grads(dense, idx, xv, yv), rtol=1e-12, atol=1e-12)
            reference = [nmf_component_grads(A, i, X, Y)[block].ravel() for i in idx]
            np.testing.assert_allclose(expanded, reference, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("family", ["nmf", "pca"])
def test_factorization_gram_gradients_stay_accurate_near_a_fit(family):
    # The gradients are formed in Gram form, X (Y_B Y_B^T) - A_B Y_B^T and
    # (X^T X) Y_B - X^T A_B, whose two terms cancel at a fit; the per-column
    # reference forms the residual first.  Their gap must stay within
    # c * eps * (||X|| ||Y_B Y_B^T|| + ||A_B|| ||Y_B||) for grad_x and
    # c * eps * (||X^T X|| ||Y_B|| + ||X|| ||A_B||) for grad_y (Frobenius norms,
    # times the batch scale 2d/b) with c = 4.  Rounding in a k-term product is
    # at most k * eps in the worst case and about sqrt(k) * eps in practice;
    # the largest gap measured here is 0.6 of the c = 1 bound.
    rng = np.random.default_rng(25)
    m, d, r = 30, 40, 5
    eps = np.finfo(float).eps
    X_fit = rng.random((m, r)) if family == "nmf" else rng.standard_normal((m, r))
    Y = rng.random((r, d)) if family == "nmf" else rng.standard_normal((r, d))
    A = X_fit @ Y
    adapter = SparseNmfProblem(A=A, r=r, s=m) if family == "nmf" else SparsePcaProblem(A=A, r=r)
    problem = adapter.block_problem()
    for X in (X_fit, X_fit + 1e-6 * rng.standard_normal((m, r))):  # at the fit and beside it
        for b in (1, r - 1, r + 1, d):
            idx = np.sort(rng.choice(d, size=b, replace=False))
            grads = [nmf_component_grads(A, i, X, Y) for i in idx]
            ref_x = np.mean([gx for gx, _gy in grads], axis=0)
            ref_y = np.mean([gy for _gx, gy in grads], axis=0)
            YB, AB = Y[:, idx], A[:, idx]
            bound = 4.0 * eps * 2.0 * d / b
            bound_x = bound * (np.linalg.norm(X) * np.linalg.norm(YB @ YB.T) + np.linalg.norm(AB) * np.linalg.norm(YB))
            bound_y = bound * (np.linalg.norm(X.T @ X) * np.linalg.norm(YB) + np.linalg.norm(X) * np.linalg.norm(AB))
            gap_x = np.linalg.norm(problem.grad_x(idx, X.ravel(), Y.ravel()) - ref_x.ravel())
            gap_y = np.linalg.norm(problem.grad_y(idx, X.ravel(), Y.ravel()) - ref_y.ravel())
            assert gap_x <= bound_x, (b, gap_x, bound_x)
            assert gap_y <= bound_y, (b, gap_y, bound_y)


@pytest.mark.parametrize("family", ["nmf", "pca"])
def test_factorization_y_rows_decode_to_grad_y_bitwise(family):
    # rows_y holds grad_y's columns unscaled, and rows_mean_y scales them the
    # way grad_y does, so SAGA's fresh estimate is the oracle's bit for bit.
    rng = np.random.default_rng(26)
    m, d, r = 7, 11, 4
    A = rng.random((m, d))
    adapter = SparseNmfProblem(A=A, r=r, s=m) if family == "nmf" else SparsePcaProblem(A=A, r=r)
    problem = adapter.block_problem()
    z = adapter.initial_iterate(seed=3)
    for b in (1, r - 1, r + 1, d):
        idx = np.sort(rng.choice(d, size=b, replace=False))
        decoded = problem.rows_mean_y(idx, problem.rows_y(idx, z.x, z.y))
        assert np.array_equal(decoded, problem.grad_y(idx, z.x, z.y))


def _row_major_oracles(A, r):
    """The factorization oracles with A kept in its (m, d) row-major layout,
    gathering a batch's columns of A, as they were before A^T was stored."""
    m, d = A.shape

    def columns(idx, M):
        return M if len(idx) == d else M.take(idx, axis=1)

    def grad_x(idx, xv, yv):
        X = xv.reshape(m, r)
        cols, a = columns(idx, yv.reshape(r, d)), columns(idx, A)
        g = X @ (cols @ cols.T)
        g -= a @ cols.T
        g *= 2.0 * d / len(idx)
        return g.ravel()

    def rows_x(idx, xv, yv):
        X = xv.reshape(m, r)
        cols, a = columns(idx, yv.reshape(r, d)), columns(idx, A)
        rows = np.empty((len(idx), m + r))
        resid = rows[:, :m]
        np.matmul(cols.T, X.T, out=resid)
        resid -= a.T
        rows[:, m:] = cols.T
        return rows

    def rows_y(idx, xv, yv):
        X = xv.reshape(m, r)
        cols, a = columns(idx, yv.reshape(r, d)), columns(idx, A)
        g = (X.T @ X) @ cols
        g -= X.T @ a
        return g.T

    def rows_mean_y(idx, rows):
        scaled = (2.0 * d / len(idx)) * rows.T
        if len(idx) == d:
            return scaled.ravel()
        g = np.zeros((r, d))
        g[:, idx] = scaled
        return g.ravel()

    def grad_y(idx, xv, yv):
        return rows_mean_y(idx, rows_y(idx, xv, yv))

    return {"grad_x": grad_x, "grad_y": grad_y, "rows_x": rows_x, "rows_y": rows_y}


@pytest.mark.parametrize("family", ["nmf", "pca"])
def test_factorization_oracles_match_row_major_reference(family):
    # Every product keeps its operands' shapes and summation length, so a
    # sampled batch gives the row-major oracles' bits.  The full batch (500
    # terms) may block the sum differently inside BLAS: a rounding-level gap.
    rng = np.random.default_rng(27)
    m, d, r = 200, 500, 10
    A = rng.random((m, d))
    adapter = SparseNmfProblem(A=A, r=r, s=m) if family == "nmf" else SparsePcaProblem(A=A, r=r)
    problem = adapter.block_problem()
    reference = _row_major_oracles(A, r)
    z = adapter.initial_iterate(seed=4)
    for b in (1, 2, r + 1, 13, 50, d):
        idx = np.sort(rng.choice(d, size=b, replace=False))
        for name, oracle in reference.items():
            got, want = getattr(problem, name)(idx, z.x, z.y), oracle(idx, z.x, z.y)
            assert got.shape == want.shape
            if b < d:
                assert np.array_equal(got, want), (name, b)
            else:
                assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), name


@pytest.mark.parametrize("family", ["nmf", "pca"])
def test_factorization_value_matches_fsum_reference(family):
    # value sweeps 2r = 8 components at a time; these batch lengths leave a
    # ragged last part, and each mixes contiguous runs (sliced) with gathered
    # parts.  Beside a fit the residual's own rounding bounds the agreement
    # (1e-12 relative); the expanded Gram form errs by 6e-8 to 2e-4 there.
    rng = np.random.default_rng(28)
    m, d, r = 30, 97, 4
    X_fit = rng.random((m, r)) if family == "nmf" else rng.standard_normal((m, r))
    Y = rng.random((r, d)) if family == "nmf" else rng.standard_normal((r, d))
    noisy = X_fit @ Y + 0.1 * rng.standard_normal((m, d))
    batches = [np.arange(d), np.arange(3, 12), np.sort(rng.choice(d, size=13, replace=False)),
               np.concatenate([np.arange(0, 8), np.arange(20, 27), [40, 45, 91]]),
               np.concatenate([[2, 5], np.arange(10, 30), [70]])]
    for A, X, rel in ((noisy, X_fit, 1e-13), (X_fit @ Y, X_fit + 1e-6 * rng.standard_normal((m, r)), 1e-10)):
        adapter = SparseNmfProblem(A=A, r=r, s=m) if family == "nmf" else SparsePcaProblem(A=A, r=r)
        problem = adapter.block_problem()
        for idx in batches:
            assert len(idx) % (2 * r) != 0
            resid = A[:, idx] - X @ Y[:, idx]
            want = d * math.fsum((resid * resid).ravel()) / len(idx)
            assert problem.value(idx, X.ravel(), Y.ravel()) == pytest.approx(want, rel=rel), len(idx)


@pytest.mark.parametrize("oracle", [full_grad_x, full_grad_y, smooth_value])
def test_factorization_oracle_memory_stays_blocked(oracle):
    # At 200 x 500 with r = 10 a full-width residual is 0.8 MB; the blocked
    # oracle may hold at most four m x r temporaries besides its result.
    rng = np.random.default_rng(22)
    m, d, r = 200, 500, 10
    adapter = SparseNmfProblem(A=rng.random((m, d)), r=r, s=m)
    problem = adapter.block_problem()
    z = adapter.initial_iterate(seed=0)
    oracle(problem, z)
    tracemalloc.start()
    try:
        out = oracle(problem, z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    returned = out.nbytes if isinstance(out, np.ndarray) else 0
    assert peak <= returned + 4 * m * r * 8


@pytest.mark.parametrize("family", ["nmf", "pca"])
def test_factorization_lipschitz_hooks_match_eigvalsh(family):
    # Each hook's value is eigvalsh's top eigenvalue of its scaled Gram matrix, bit for
    # bit: 2 (d/b) Y_B Y_B^T and 2 (d/b) X^T X (full batch: 2 Y Y^T, 2 X^T X), formed
    # in one batch pass, so one application is charged.
    rng = np.random.default_rng(23)
    m, d, r = 9, 14, 4
    A = rng.random((m, d))
    adapter = SparseNmfProblem(A=A, r=r, s=m) if family == "nmf" else SparsePcaProblem(A=A, r=r)
    problem = adapter.block_problem()
    z = adapter.initial_iterate(seed=2)
    X, Y = z.x.reshape(m, r), z.y.reshape(r, d)
    for b in (1, 2, r + 1, d, None):
        batch = np.arange(d) if b is None else np.sort(rng.choice(d, size=b, replace=False))
        scale = 2.0 * d / len(batch)
        cols = Y[:, batch]
        for hook, G in zip((problem.lipschitz_x, problem.lipschitz_y), (scale * (cols @ cols.T), scale * (X.T @ X))):
            assert hook(z.x, z.y, batch) == (float(np.linalg.eigvalsh(G)[-1]), 1), b


@pytest.mark.numpy_floor
@pytest.mark.parametrize("r", [1, 2, 5, 10, 40])
def test_top_eigenvalue_is_eigvalsh_bit_for_bit(r):
    # The hooks' eigenvalue comes from the LAPACK gufunc behind np.linalg.eigvalsh,
    # called directly: the same value on Gram matrices across the float64 range, and
    # inf for a matrix holding an inf or a NaN.
    rng = np.random.default_rng(r)
    for scale in 10.0 ** np.arange(-150, 151, 50):
        for k in (1, r, 3 * r):
            B = scale * rng.standard_normal((r, k))
            G = B @ B.T
            assert problems_module._top_eigenvalue(G) == float(np.linalg.eigvalsh(G)[-1]), (scale, k)
    for bad in (np.inf, -np.inf, np.nan):
        G = np.eye(r)
        G[-1, 0] = G[0, -1] = bad
        assert problems_module._top_eigenvalue(G) == math.inf, bad


@pytest.mark.parametrize("family", ["nmf", "pca"])
def test_factorization_lipschitz_values_match_matrix_free_operators(family):
    # The slow reference: each block's Hessian on the batch, built densely column by
    # column from the matrix-free operators V -> (2d/b) V Y_B Y_B^T on X and
    # W -> (2d/b) X^T X W on Y's sampled columns (zero elsewhere).  It is the
    # Kronecker form I_m (x) G_x, and G_y (x) diag(1_B), in the row-major vector view,
    # and the oracle's gradient moves along it; its top eigenvalue is the hook's value
    # to 1e-12 relative.
    rng = np.random.default_rng(25)
    m, d, r = 9, 14, 4
    A = rng.random((m, d))
    adapter = SparseNmfProblem(A=A, r=r, s=m) if family == "nmf" else SparsePcaProblem(A=A, r=r)
    problem = adapter.block_problem()
    z = adapter.initial_iterate(seed=2)
    X, Y = z.x.reshape(m, r), z.y.reshape(r, d)
    for b in (1, 2, r + 1, d, None):
        batch = np.arange(d) if b is None else np.sort(rng.choice(d, size=b, replace=False))
        scale = 2.0 * d / len(batch)
        mask = np.zeros(d)
        mask[batch] = 1.0

        def apply_x(v):
            return scale * (v.reshape(m, r) @ Y[:, batch] @ Y[:, batch].T).ravel()

        def apply_y(w):
            return scale * ((X.T @ X) @ (w.reshape(r, d) * mask)).ravel()

        hessians = [np.column_stack([apply(e) for e in np.eye(dim)]) for apply, dim in ((apply_x, m * r),
                                                                                       (apply_y, r * d))]
        kronecker = (np.kron(np.eye(m), scale * Y[:, batch] @ Y[:, batch].T),
                     np.kron(scale * X.T @ X, np.diag(mask)))
        grads = (problem.grad_x, problem.grad_y)
        for block, (hook, H, K, grad) in enumerate(zip((problem.lipschitz_x, problem.lipschitz_y), hessians,
                                                       kronecker, grads)):
            np.testing.assert_allclose(H, K, rtol=1e-13, atol=1e-13 * np.abs(K).max())
            step = rng.standard_normal(len(H))
            moved = Iterate(z.x + step, z.y) if block == 0 else Iterate(z.x, z.y + step)
            np.testing.assert_allclose(grad(batch, moved.x, moved.y) - grad(batch, z.x, z.y), H @ step,
                                       rtol=1e-9, atol=1e-9 * np.abs(H @ step).max())
            lip, applied = hook(z.x, z.y, batch)
            assert lip == pytest.approx(float(np.linalg.eigvalsh(H)[-1]), rel=1e-12) and applied == 1, (b, block)


def test_pca_objective_includes_l1():
    A = np.zeros((3, 4))
    adapter = SparsePcaProblem(A=A, r=2, lam1=0.5, lam2=0.25)
    problem = adapter.block_problem()
    assert objective(problem, Iterate(np.ones(6), np.zeros(8))) == pytest.approx(0.5 * 6)
    x = np.ones(6)
    y = -np.ones(8)
    # Residual: XY = -2 * ones(3, 4), so the data term contributes 48.
    assert objective(problem, Iterate(x, y)) == pytest.approx(48.0 + 0.5 * 6 + 0.25 * 8)


def test_nmf_validation():
    with pytest.raises(ValueError):
        SparseNmfProblem(A=np.ones((3, 4)), r=2, s=0)
    with pytest.raises(ValueError):
        SparseNmfProblem(A=np.ones((3, 4)), r=5, s=2)


_NAN_MATRIX = np.where(np.eye(3, 4) > 0, np.nan, 1.0)


@pytest.mark.parametrize("make, match", [
    # Data that is not a finite 2-D array.
    (lambda: SparseNmfProblem(A=np.ones(4), r=1, s=1), "A must be a 2-D array"),
    (lambda: SparseNmfProblem(A=np.ones((2, 3, 4)), r=1, s=1), "A must be a 2-D array"),
    (lambda: SparseNmfProblem(A=_NAN_MATRIX, r=2, s=2), "A must have finite entries"),
    (lambda: SparsePcaProblem(A=np.ones(4), r=1), "A must be a 2-D array"),
    (lambda: SparsePcaProblem(A=np.full((3, 4), np.inf), r=2), "A must have finite entries"),
    (lambda: BlindDeblurProblem(Z=np.ones(16), kernel_shape=(3, 3)), "Z must be a 2-D array"),
    (lambda: BlindDeblurProblem(Z=_NAN_MATRIX, kernel_shape=(1, 1), n_tiles=1), "Z must have finite entries"),
    (lambda: BlindDeblurProblem(Z=-np.full((8, 8), np.inf), kernel_shape=(3, 3), n_tiles=1),
     "Z must have finite entries"),
    # Counts that are bool or not integers.
    (lambda: SparseNmfProblem(A=np.ones((3, 4)), r=2, s=True), "s must be an integer"),
    (lambda: SparseNmfProblem(A=np.ones((3, 4)), r=2.0, s=2), "r must be an integer"),
    (lambda: SparsePcaProblem(A=np.ones((3, 4)), r=True), "r must be an integer"),
    (lambda: BlindDeblurProblem(Z=np.ones((8, 8)), kernel_shape=(3, 3), n_tiles=True), "n_tiles must be an integer"),
    (lambda: BlindDeblurProblem(Z=np.ones((8, 8)), kernel_shape=(3, 3), n_tiles=4.0), "n_tiles must be an integer"),
    (lambda: BlindDeblurProblem(Z=np.ones((8, 8)), kernel_shape=(True, 3)), r"kernel_shape\[0\] must be an integer"),
    (lambda: BlindDeblurProblem(Z=np.ones((8, 8)), kernel_shape=(3, 2.5)), r"kernel_shape\[1\] must be an integer"),
    # Weights that are not finite numbers.
    (lambda: SparsePcaProblem(A=np.ones((3, 4)), r=2, lam1=np.nan), "lam1 must be a finite number"),
    (lambda: SparsePcaProblem(A=np.ones((3, 4)), r=2, lam2=np.inf), "lam2 must be a finite number"),
    (lambda: BlindDeblurProblem(Z=np.ones((8, 8)), kernel_shape=(3, 3), lam=np.inf), "lam must be a finite number"),
    (lambda: BlindDeblurProblem(Z=np.ones((8, 8)), kernel_shape=(3, 3), lam=np.nan), "lam must be a finite number"),
    (lambda: BlindDeblurProblem(Z=np.ones((8, 8)), kernel_shape=(3, 3), theta=np.nan), "theta must be a finite number"),
    (lambda: BlindDeblurProblem(Z=np.ones((8, 8)), kernel_shape=(3, 3), lam="1e-3"), "lam must be a finite number"),
    # The range checks after the type checks.
    (lambda: SparsePcaProblem(A=np.ones((3, 4)), r=2, lam1=-1.0), "l1 weights must be nonnegative"),
    (lambda: SparsePcaProblem(A=np.ones((3, 4)), r=5), "rank must satisfy"),
    (lambda: BlindDeblurProblem(Z=np.ones((8, 8)), kernel_shape=(0, 3)), "kernel must be at least 1x1"),
    (lambda: BlindDeblurProblem(Z=np.ones((8, 8)), kernel_shape=(3, 3), theta=0.0), "lam and theta must be positive"),
])
def test_adapters_reject_malformed_input(make, match):
    # An adapter checks its own fields at construction, each failure a ValueError that
    # names the field, before any oracle or initial iterate runs on them.
    with pytest.raises(ValueError, match=match):
        make()


def test_adapters_take_numpy_counts_and_weights():
    # numpy integers and floats are counts and weights like Python's.
    A = toy_nmf_matrix(seed=0, shape=(6, 5), rank=2)
    nmf = SparseNmfProblem(A=A, r=np.int64(2), s=np.int32(3))
    pca = SparsePcaProblem(A=A, r=np.int64(2), lam1=np.float32(0.5), lam2=np.float64(0.0))
    Z, _, _ = _toy_blur(seed=0, size=16, kernel=3)
    bid = BlindDeblurProblem(Z=Z, kernel_shape=(np.int64(3), 3), lam=np.float64(1e-3), n_tiles=np.int16(4))
    for adapter in (nmf, pca, bid):
        assert adapter.block_problem().n >= 1


# ---------------------------------------------------------------------------
# Blind deconvolution pieces
# ---------------------------------------------------------------------------


def test_bid_forward_identity_kernel(rng):
    X = rng.random((5, 6))
    np.testing.assert_array_equal(bid_forward(X, np.ones((1, 1))), X)


def test_bid_forward_constant_image():
    X = np.full((6, 6), 0.7)
    Y = np.full((3, 3), 1.0 / 9.0)
    out = bid_forward(X, Y)
    np.testing.assert_allclose(out, 0.7, rtol=1e-12)


def test_bid_forward_matches_quadruple_loop(rng):
    # Independent oracle: direct four-index summation.
    X = rng.random((4, 4))
    Y = rng.random((2, 2))
    out = bid_forward(X, Y)
    ref = np.zeros((3, 3))
    for p in range(3):
        for q in range(3):
            for a in range(2):
                for b in range(2):
                    ref[p, q] += X[p + a, q + b] * Y[a, b]
    np.testing.assert_allclose(out, ref, rtol=1e-13)


def test_bid_forward_rejects_large_kernel():
    with pytest.raises(ValueError):
        bid_forward(np.ones((2, 2)), np.ones((3, 3)))


def _window_view(X, kernel_shape):
    """Read-only view of X's kernel-sized windows, shape (out_h, out_w, kh, kw).

    The windows ``sliding_window_view`` gives, without its validation
    overhead.  A non-contiguous X is copied once, and the view reads the copy.
    """
    shape = problems_module._output_shape(X.shape, kernel_shape) + tuple(kernel_shape)
    X = np.ascontiguousarray(X)
    view = problems_module._strided(X, shape, (X.shape[1], 1) * 2)
    view.flags.writeable = False
    return view


def bid_patches(X, kernel_shape):
    """Patch matrix P of the correlation with a kernel of ``kernel_shape``: the slow reference.

    Row p * out_w + q holds the window X[p:p + kh, q:q + kw], so up to
    rounding bid_forward(X, W).ravel() == P @ W.ravel() and
    bid_adjoint_kernel(U, X).ravel() == P.T @ U.ravel().
    """
    kh, kw = kernel_shape
    return _window_view(np.asarray(X, dtype=float), kernel_shape).reshape(-1, kh * kw)


def bid_adjoint_kernel(U, X):
    """Adjoint of Y -> bid_forward(X, Y); correlation of X with U: the reference.

    ``bid_forward(X, U)``, which builds a Toeplitz factor of U: the faster
    form on a tile window, while ``bid_kernel_gradient`` is on an image.
    """
    return bid_forward(X, U)


def test_bid_adjoint_identities(rng):
    # <X (*) Y, U> = <X, adj_image(U, Y)> = <Y, adj_kernel(U, X)> = <Y, kernel_gradient(X, U)>,
    # the last also over several of its column blocks and on a non-contiguous image.
    X = rng.standard_normal((7, 6))
    Y = rng.standard_normal((3, 2))
    U = rng.standard_normal((5, 5))
    lhs = float((bid_forward(X, Y) * U).sum())
    assert lhs == pytest.approx(float((X * bid_adjoint_image(U, Y)).sum()), abs=1e-10)
    assert lhs == pytest.approx(float((Y * bid_adjoint_kernel(U, X)).sum()), abs=1e-10)
    assert lhs == pytest.approx(float((Y * bid_kernel_gradient(X, U)).sum()), abs=1e-10)
    for X, Y in ((rng.standard_normal((64, 64)), rng.standard_normal((9, 9))),
                 (rng.standard_normal((30, 50))[::2, 1::2], rng.standard_normal((4, 3)))):
        U = rng.standard_normal(problems_module._output_shape(X.shape, Y.shape))
        lhs = float((bid_forward(X, Y) * U).sum())
        assert float((Y * bid_kernel_gradient(X, U)).sum()) == pytest.approx(lhs, rel=1e-12)
    with pytest.raises(ValueError, match="larger than image"):
        bid_kernel_gradient(rng.standard_normal((5, 5)), rng.standard_normal((6, 3)))
    # The image adjoint to 1e-12 relative to the sum of the products' magnitudes (which
    # bounds both sides' rounding, where the signed sum may cancel): kernels of one
    # entry, one column, one row and bid-medium's 9 x 9 on a tile window; residuals one
    # row and one column wide; a non-contiguous residual; and images whose adjoint
    # spans several blocks, which keep the zero-padded product.
    image = rng.standard_normal((64, 64))
    window = image[14:36, 28:50]  # a bid-medium tile window: a 14 x 14 tile grown by the 9 x 9 kernel
    cases = [(window, rng.standard_normal(kernel)) for kernel in ((1, 1), (4, 1), (1, 5), (9, 9))]
    cases += [(rng.standard_normal((3, 12)), rng.standard_normal((3, 4))),   # a one-row residual
              (rng.standard_normal((10, 4)), rng.standard_normal((2, 4))),   # a one-column residual
              (rng.standard_normal((1, 9)), rng.standard_normal((1, 9))),    # a 1 x 1 residual
              (image, rng.standard_normal((9, 9))),                          # the whole image
              (rng.standard_normal((7, 2 * problems_module._BLOCK + 7)), rng.standard_normal((3, 2)))]
    for X, Y in cases:
        shape = problems_module._output_shape(X.shape, Y.shape)
        U = rng.standard_normal((2 * shape[0], 3 * shape[1]))[1::2, ::3]  # non-contiguous
        for residual in (U, np.ascontiguousarray(U)):
            lhs = float((bid_forward(X, Y) * residual).sum())
            rhs = float((X * bid_adjoint_image(residual, Y)).sum())
            scale = float((bid_forward(np.abs(X), np.abs(Y)) * np.abs(residual)).sum())
            assert abs(lhs - rhs) <= 1e-12 * scale, (X.shape, Y.shape)


def _swv_bid_forward(X, Y):
    # The sliding_window_view / np.pad kernels, verbatim, that a strided-view einsum
    # and then the Toeplitz products replaced.
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if Y.shape[0] > X.shape[0] or Y.shape[1] > X.shape[1]:
        raise ValueError(f"kernel {Y.shape} larger than image {X.shape}")
    windows = sliding_window_view(X, Y.shape)
    return np.einsum("pqab,ab->pq", windows, Y)


def _pad_bid_adjoint_image(U, Y):
    kh, kw = Y.shape
    padded = np.pad(U, ((kh - 1, kh - 1), (kw - 1, kw - 1)))
    return _swv_bid_forward(padded, Y[::-1, ::-1])


def _swv_bid_adjoint_kernel(U, X):
    return _swv_bid_forward(X, U)


def test_bid_kernels_match_sliding_window_versions(rng):
    # The Toeplitz-product kernels sum in another order than the einsum they
    # replaced: exact on small integers, where every order is exact, and equal
    # to rounding on random floats.
    for exact in (True, False):
        def draw(shape):
            return rng.integers(0, 8, size=shape).astype(float) if exact else rng.random(shape)

        def check(result, ref):
            if exact:
                assert np.array_equal(result, ref)
            else:
                np.testing.assert_allclose(result, ref, rtol=1e-13, atol=1e-14 * np.abs(ref).max())

        big = draw((40, 80))
        images = [
            draw((12, 15)),                   # contiguous
            big[3:17, 5:21],                  # a tile window of a larger image (non-contiguous)
            big[::2, 1::3],                   # strided in both axes
            np.asfortranarray(draw((9, 11))),
            draw((7, 2 * problems_module._BLOCK + 7)),  # two full column blocks and a narrower one
        ]
        for X in images:
            h, w = X.shape
            for kh, kw in ((3, 3), (2, 5), (4, 1), (1, 1), (h, w)):
                Y = draw((kh, kw))
                fwd = bid_forward(X, Y)
                check(fwd, _swv_bid_forward(X, Y))
                U = big[2:2 + h - kh + 1, 4:4 + w - kw + 1]  # non-contiguous residual
                for residual in (U, np.ascontiguousarray(U)):
                    check(bid_adjoint_image(residual, Y), _pad_bid_adjoint_image(residual, Y))
                    check(bid_adjoint_kernel(residual, X), _swv_bid_adjoint_kernel(residual, X))
                    check(bid_kernel_gradient(X, residual), _swv_bid_adjoint_kernel(residual, X))
                patches = bid_patches(X, (kh, kw))
                assert np.array_equal(patches, sliding_window_view(X, (kh, kw)).reshape(-1, kh * kw))
                np.testing.assert_allclose(patches @ Y.ravel(), fwd.ravel(), rtol=1e-13)


@pytest.mark.parametrize("correlation", ["forward", "adjoint_image"])
def test_bid_forward_memory_stays_blocked(correlation):
    # A 256 x 256 image and a 9 x 9 kernel: the column blocks keep the
    # Toeplitz factor and the stacked rows within four copies of the image
    # (2.6 MB).  One Toeplitz product over all output columns peaks at 5.6 MB.
    rng = np.random.default_rng(24)
    X, Y, U = rng.random((256, 256)), rng.random((9, 9)), rng.random((248, 248))
    call = (lambda: bid_forward(X, Y)) if correlation == "forward" else (lambda: bid_adjoint_image(U, Y))
    call()
    tracemalloc.start()
    try:
        out = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == ((248, 248) if correlation == "forward" else X.shape)
    assert peak <= out.nbytes + 4 * X.nbytes


@pytest.mark.parametrize("correlation", ["forward", "adjoint_image"])
def test_bid_correlation_temporaries_do_not_grow_with_the_image(correlation):
    # A 9 x 9 kernel on 64, 256 and 512-pixel images: the row and column blocks hold
    # S and T, the temporaries beyond the output (and the adjoint's zero-padded copy
    # of the residual), at one size, within 160 KB at every image size.  Blocking the
    # columns alone let S grow with the image height, to 1.3 MB at 512 pixels.
    rng = np.random.default_rng(29)
    Y = rng.random((9, 9))
    for size in (64, 256, 512):
        X, U = rng.random((size, size)), rng.random((size - 8, size - 8))
        call = (lambda: bid_forward(X, Y)) if correlation == "forward" else (lambda: bid_adjoint_image(U, Y))
        padded = 0 if correlation == "forward" else (size + 8) ** 2 * 8
        call()
        tracemalloc.start()
        try:
            out = call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - out.nbytes - padded <= 160_000, size


def test_bid_window_view_is_read_only(rng):
    X = rng.random((6, 7))
    view = _window_view(X, (2, 3))
    assert view.shape == (5, 5, 2, 3)
    assert not view.flags.writeable
    with pytest.raises(ValueError):
        view[0, 0, 0, 0] = 1.0
    for kernel in ((7, 1), (1, 8), (7, 8)):
        with pytest.raises(ValueError):
            bid_forward(X, np.ones(kernel))
        with pytest.raises(ValueError):
            bid_patches(X, kernel)


# The kernels, verbatim, that the cached-factor ones replaced: every call rebuilt
# its Toeplitz factor and stacked its rows through ``as_strided``.
def _asstrided_window_view(X, kernel_shape):
    shape = problems_module._output_shape(X.shape, kernel_shape) + tuple(kernel_shape)
    return as_strided(X, shape=shape, strides=X.strides * 2, writeable=False)


def _asstrided_toeplitz(Y, ncols):
    kh, kw = Y.shape
    width = ncols + kw - 1
    toeplitz = np.zeros((kh * width, ncols))
    step = toeplitz.itemsize
    strides = (width * ncols * step, ncols * step, (ncols + 1) * step)
    np.ndarray((kh, kw, ncols), buffer=toeplitz, strides=strides)[...] = Y[:, :, None]
    return toeplitz


def _asstrided_bid_forward(X, Y):
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    oh, ow = problems_module._output_shape(X.shape, Y.shape)
    kh, kw = Y.shape
    out = np.empty((oh, ow))
    for start in range(0, ow, problems_module._BLOCK):
        ncols = min(problems_module._BLOCK, ow - start)
        if start == 0 or ncols < problems_module._BLOCK:  # the last block may be narrower
            toeplitz = _asstrided_toeplitz(Y, ncols)
        cols = X[:, start:start + ncols + kw - 1]
        stacked = as_strided(cols, shape=(oh, kh, cols.shape[1]), strides=(cols.strides[0], *cols.strides),
                             writeable=False)
        out[:, start:start + ncols] = stacked.reshape(oh, -1) @ toeplitz
    return out


def _asstrided_bid_patches(X, kernel_shape):
    kh, kw = kernel_shape
    return _asstrided_window_view(np.asarray(X, dtype=float), kernel_shape).reshape(-1, kh * kw)


def _asstrided_bid_adjoint_image(U, Y):
    (h, w), (kh, kw) = np.shape(U), Y.shape
    padded = np.zeros((h + 2 * (kh - 1), w + 2 * (kw - 1)))
    padded[kh - 1:kh - 1 + h, kw - 1:kw - 1 + w] = U
    return _asstrided_bid_forward(padded, Y[::-1, ::-1])


def _asstrided_bid_adjoint_kernel(U, X):
    return _asstrided_bid_forward(X, U)


def _banded_adjoint_factor(Y, width):
    # F[a * width + c, j] = Y[kh - 1 - a, j - c] for 0 <= j - c < kw, one residual column at a time.
    kh, kw = Y.shape
    factor = np.zeros((kh * width, width + kw - 1))
    for a in range(kh):
        for c in range(width):
            factor[a * width + c, c:c + kw] = Y[kh - 1 - a]
    return factor


def _asstrided_banded_bid_adjoint_image(U, Y):
    """The image adjoint on the residual's own columns, transcribed through ``as_strided``.

    U between kh - 1 zero rows above and below, its overlapping row bands
    times ``_banded_adjoint_factor``: one product, as the correlation that
    ``problems._adjoint`` sets up makes it on an output of one block.  A
    larger output keeps the zero-padded correlation.
    """
    (h, w), (kh, kw) = np.shape(U), Y.shape
    if h + kh - 1 > problems_module._BLOCK or w + kw - 1 > problems_module._BLOCK:
        return _asstrided_bid_adjoint_image(U, Y)
    padded = np.zeros((h + 2 * (kh - 1), w))
    padded[kh - 1:kh - 1 + h] = U
    bands = as_strided(padded, shape=(h + kh - 1, kh * w), strides=(padded.strides[0], padded.itemsize),
                       writeable=False)
    return bands @ _banded_adjoint_factor(Y, w)


def _bitwise(result, ref):
    return result.shape == ref.shape and np.array_equal(result, ref) and np.array_equal(np.signbit(result),
                                                                                         np.signbit(ref))


@pytest.mark.numpy_floor
def test_bid_kernels_match_previous_kernels_bitwise(rng):
    # The layouts of the sliding-window comparison above, the one-block boundary and
    # a large window.  Each kernel shares one ToeplitzFactors across all layouts (so
    # across block widths) and both directions, and each call is repeated on warm
    # factors.  The row blocks leave every result bitwise but the last row of an
    # output that ends in a one-row block (25 rows here): its matrix-vector product
    # sums in another order than the reference's taller product, equal to 1e-13
    # there.  One layout is not bitwise: the reference kernel adjoint, a correlation
    # with the residual as the kernel, on a non-contiguous image when its output is
    # one column wide.  The previous kernel copied such an image's stacked rows into
    # C order, while bid_forward now reads them, overlapping, from one contiguous
    # copy of the image, and the matrix-vector product sums those in another order:
    # equal to 1e-13 there.
    def close(got, want):
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())

    def pinned(got, want):
        if len(got) > problems_module._BLOCK and len(got) % problems_module._BLOCK == 1:
            close(got[-1], want[-1])
            got, want = got[:-1], want[:-1]
        return _bitwise(got, want)

    big = rng.standard_normal((300, 300))
    images = [
        rng.standard_normal((12, 15)),    # contiguous
        big[3:17, 5:21],                  # a tile window of a larger image (non-contiguous)
        big[::2, 1::3],                   # strided in both axes
        np.asfortranarray(rng.standard_normal((9, 11))),
        rng.standard_normal((7, 2 * problems_module._BLOCK + 7)),  # two full column blocks and a narrower one
        # Image adjoints of exactly one block and of one row or column more (so are the
        # 1 x 1 kernel's forward outputs), and a forward output of exactly one block (3 x 3).
        rng.standard_normal((24, 24)),
        rng.standard_normal((25, 24)),
        rng.standard_normal((24, 25)),
        rng.standard_normal((26, 26)),
        big[4:140, 4:140],                # a large window: its kernel adjoint is one 136-column block
    ]
    for kernel in ((3, 3), (2, 5), (4, 1), (1, 1), (9, 9), "image"):
        Y = None if kernel == "image" else rng.standard_normal(kernel)
        factors = None if Y is None else ToeplitzFactors(Y)
        for X in images:
            h, w = X.shape
            if kernel == "image":  # one output entry; each image its own kernel and caches
                if X is images[-1]:
                    continue  # its image adjoint would stack ~25 MB
                Y = rng.standard_normal((h, w))
                factors = ToeplitzFactors(Y)
            kh, kw = Y.shape
            if kh > h or kw > w:
                continue
            want = _asstrided_bid_forward(X, Y)
            assert pinned(bid_forward(X, Y), want)
            for _ in range(2):
                assert pinned(bid_forward(X, Y, factors), want)
            U = big[2:2 + h - kh + 1, 4:4 + w - kw + 1]  # non-contiguous residual
            for residual in (U, np.ascontiguousarray(U)):
                want, got = _asstrided_banded_bid_adjoint_image(residual, Y), bid_adjoint_image(residual, Y)
                assert pinned(got, want)
                # The zero-padded correlation sums the same products with zeros between them;
                # BLAS may group the shorter inner product differently: equal to rounding.
                close(got, _asstrided_bid_adjoint_image(residual, Y))
                for _ in range(2):
                    assert pinned(bid_adjoint_image(residual, Y, factors), want)
                got, want = bid_adjoint_kernel(residual, X), _asstrided_bid_adjoint_kernel(residual, X)
                if kw == 1 and not X.flags.c_contiguous:
                    close(got, want)
                else:
                    assert pinned(got, want)
            assert _bitwise(bid_patches(X, (kh, kw)), _asstrided_bid_patches(X, (kh, kw)))


@pytest.mark.parametrize("shape, banded", [((24, 24), True), ((25, 24), False), ((24, 25), False)], ids=str)
def test_bid_image_adjoint_is_banded_up_to_one_block(monkeypatch, rng, shape, banded):
    # An image adjoint whose output (the image) is at most one _BLOCK in both directions
    # multiplies the residual's own columns by the adjoint factor; one row or column more
    # is the zero-padded correlation with the flipped kernel, whose factors are its
    # Toeplitz factors.  Both can give the same bits, so the factors built show which ran.
    built, toeplitz, adjoint_toeplitz = [], problems_module._toeplitz, problems_module._adjoint_toeplitz

    def counting_toeplitz(kernel, ncols):
        built.append("toeplitz")
        return toeplitz(kernel, ncols)

    def counting_adjoint_toeplitz(kernel, width):
        built.append("adjoint")
        return adjoint_toeplitz(kernel, width)

    monkeypatch.setattr(problems_module, "_toeplitz", counting_toeplitz)
    monkeypatch.setattr(problems_module, "_adjoint_toeplitz", counting_adjoint_toeplitz)
    U, Y = rng.standard_normal((shape[0] - 2, shape[1] - 3)), rng.standard_normal((3, 4))
    got = bid_adjoint_image(U, Y)
    assert set(built) == ({"adjoint"} if banded else {"toeplitz"})
    np.testing.assert_allclose(got, _pad_bid_adjoint_image(U, Y), rtol=1e-13, atol=1e-13)


def test_toeplitz_factors_refuse_another_kernel(rng):
    # Factors are bound to one kernel array: an equal copy, the flipped kernel and
    # a changed-shape array are all refused, in both directions.
    Y = rng.standard_normal((3, 4))
    factors = ToeplitzFactors(Y)
    X, U = rng.standard_normal((8, 9)), rng.standard_normal((6, 6))
    for other in (Y.copy(), Y[::-1, ::-1], factors.flipped().kernel, Y.T):
        with pytest.raises(ValueError, match="another kernel"):
            bid_forward(X, other, factors)
        with pytest.raises(ValueError, match="another kernel"):
            bid_adjoint_image(U, other, factors)
    assert _bitwise(bid_forward(X, Y, factors), _asstrided_bid_forward(X, Y))
    assert _bitwise(bid_adjoint_image(U, Y, factors), _asstrided_banded_bid_adjoint_image(U, Y))


def test_toeplitz_factors_are_fresh_builds_of_their_kernel(rng):
    # Each factor is a build of the kernel it was made from, bit for bit: the forward
    # factor per block width, the flipped kernel's and the adjoint's per residual
    # width, each equal to a fresh _toeplitz or _adjoint_toeplitz build and to an
    # independent transcription.  A kernel with zero entries shows that a build puts
    # nothing but the kernel on its bands.  A repeated width returns the factor built
    # for it, the flipped kernel's factors included.
    Y = rng.standard_normal((3, 4)) * (rng.random((3, 4)) < 0.5)
    factors = ToeplitzFactors(Y)
    flipped = Y[::-1, ::-1]
    for ncols in (1, 5, 24):
        got = factors.toeplitz(ncols)
        assert _bitwise(got, problems_module._toeplitz(Y, ncols))
        assert _bitwise(got, _asstrided_toeplitz(Y, ncols))
        assert factors.toeplitz(ncols) is got
        got = factors.flipped().toeplitz(ncols)
        assert _bitwise(got, problems_module._toeplitz(flipped, ncols))
        assert _bitwise(got, _asstrided_toeplitz(flipped, ncols))
        assert factors.flipped().toeplitz(ncols) is got
    assert factors.flipped() is factors.flipped()
    for width in (1, 6, 21):
        got = factors.adjoint(width)
        assert _bitwise(got, problems_module._adjoint_toeplitz(Y, width))
        assert _bitwise(got, _banded_adjoint_factor(Y, width))
        assert factors.adjoint(width) is got


class _CorrelationSpy:
    """Records every BID correlation and every correlation set-up, in order.

    ``bid_forward`` and ``bid_adjoint_image`` run their correlation through
    ``problems._Correlation``, the latter set up by ``problems._adjoint``, and
    ``bid_kernel_gradient`` through ``problems._KernelGradient``; the
    Lipschitz draws set those up once and run them on every pass, so spying
    on the two classes and the adjoint's set-up sees every correlation an
    oracle or a draw makes.  A set-up is recorded as "forward", "adjoint" or
    "gradient", the correlation an adjoint sets up counting as its own.  A
    run is recorded as ("forward", image, kernel, output size), ("adjoint",
    residual, kernel, output size) or ("gradient", image, residual, output
    size), with the arrays as the correlation reads them.
    """

    def __init__(self, monkeypatch):
        self.runs, self.set_ups, self._adjoints = [], [], {}
        self._spy(monkeypatch, "forward", problems_module._Correlation)
        self._spy(monkeypatch, "gradient", problems_module._KernelGradient)
        set_up_adjoint = problems_module._adjoint

        def counting_adjoint(shape, factors, out):
            start = len(self.set_ups)
            residual, correlation = set_up_adjoint(shape, factors, out)
            self.set_ups[start:] = ["adjoint"]  # the one _Correlation it set up
            self._adjoints[correlation] = (residual, factors.kernel)
            return residual, correlation

        monkeypatch.setattr(problems_module, "_adjoint", counting_adjoint)

    def _spy(self, monkeypatch, kind, cls):
        set_up, run_it = cls.__init__, cls.__call__

        def counting_set_up(correlation, *args):
            self.set_ups.append(kind)
            set_up(correlation, *args)

        def counting_run(correlation):
            if kind == "gradient":
                self.runs.append((kind, correlation.image, correlation.residual, correlation.out.size))
            elif correlation in self._adjoints:
                self.runs.append(("adjoint", *self._adjoints[correlation], correlation.out.size))
            else:  # a forward correlation's factor is its kernel's ToeplitzFactors.toeplitz
                self.runs.append((kind, correlation.image, correlation.factor.__self__.kernel, correlation.out.size))
            return run_it(correlation)

        monkeypatch.setattr(cls, "__init__", counting_set_up)
        monkeypatch.setattr(cls, "__call__", counting_run)

    def clear(self):
        self.runs.clear()
        self.set_ups.clear()


def test_bid_draws_and_oracles_build_each_factor_once(monkeypatch, rng):
    # Work counter: a b = 1 x-draw builds one forward Toeplitz factor of the kernel and
    # one adjoint factor, shared by every operator application (8 builds when each
    # correlation built its own), and sets its forward correlation and image adjoint up
    # once for its X_BOUND_PASSES passes (8 set-ups when each pass went through
    # bid_forward and bid_adjoint_image).
    # A y-draw builds the factors of each pass's iterate v, one per block width, and
    # sets up each region's forward correlation with them on every pass; each region's
    # kernel gradient is set up once per draw.  A cold draw is Y_BOUND_PASSES passes, a
    # warm one (from the vector its layout's last draw ended on) one pass.  The
    # kernel adjoint, bid_kernel_gradient, builds no factor (the window kernel adjoint
    # bid_forward(X, U) built one of the window's residual U, 4 builds per draw).
    # The full-batch x-draw is the closed-form bound: no correlation and no factor.
    # A b = 1 oracle correlates its window: grad_x builds one forward and one adjoint
    # factor, grad_y one forward factor.  The full batch correlates the whole image,
    # the one region whose 28 x 28 residual spans two forward column blocks (24 and
    # 4): value, grad_y and each y-draw pass build the two factors of their kernel; grad_x
    # also builds its flip's two (the 32-column image adjoint, more than one block,
    # is the zero-padded correlation with the flipped kernel: 24 and 8) and
    # correlates the image once forward and once back.  grad_y and a y-draw pass
    # correlate forward and then take one kernel gradient.  Window by window, the
    # full batch made 16 correlations for value, 32 for grad_x and grad_y, and 64 for
    # the y-draw, with 1, 2, 17 and 34 factor builds; by tile-row bands of the image
    # residual, grad_x made 5 correlations.  An oracle sets each correlation up as it
    # runs it.  Decoding SAGA x-rows takes one image adjoint per row, and rows whose
    # kernels are equal bit for bit (every row of one rows_x call) share that kernel's
    # adjoint factor: the full batch's 16 rows of 7 x 7 tiles build one (16 when each
    # row built its own).
    Z, _, _ = _toy_blur(seed=3, size=32, kernel=5)
    adapter = BlindDeblurProblem(Z=Z, kernel_shape=(5, 5), n_tiles=16)
    problem = adapter.block_problem()
    x = adapter.initial_iterate().x
    Y = project_box_l1(rng.random((5, 5)) / 25.0)  # not symmetric: a factor of Y is not one of its flip
    full = np.arange(16)
    x_passes, y_passes = problems_module.X_BOUND_PASSES, problems_module.Y_BOUND_PASSES
    toeplitz, adjoint_toeplitz = problems_module._toeplitz, problems_module._adjoint_toeplitz
    built = []

    def counting_toeplitz(kernel, ncols):
        built.append("forward" if np.array_equal(kernel, Y) else
                     "flipped" if np.array_equal(kernel, Y[::-1, ::-1]) else "other")
        return toeplitz(kernel, ncols)

    def counting_adjoint_toeplitz(kernel, width):
        built.append("adjoint" if np.array_equal(kernel, Y) else "other")
        return adjoint_toeplitz(kernel, width)

    monkeypatch.setattr(problems_module, "_toeplitz", counting_toeplitz)
    monkeypatch.setattr(problems_module, "_adjoint_toeplitz", counting_adjoint_toeplitz)
    spy = _CorrelationSpy(monkeypatch)

    def draw(hook, batch, warm=None):
        return lambda: hook(x, Y.ravel(), batch, warm)

    warm = {}  # the vectors of a cold y-draw at b = 1 and at the full batch
    problem.lipschitz_y(x, Y.ravel(), np.array([6]), warm)
    problem.lipschitz_y(x, Y.ravel(), full, warm)
    assert len(warm) == 2

    calls = {
        "x-draw b=1": (draw(problem.lipschitz_x, np.array([6])), ["adjoint", "forward"], x_passes * 2, 2),
        "x-draw full": (draw(problem.lipschitz_x, full), [], 0, 0),
        "y-draw b=1": (draw(problem.lipschitz_y, np.array([6])), ["other"] * y_passes, y_passes * 2, y_passes + 1),
        "y-draw full": (draw(problem.lipschitz_y, full), ["other"] * (2 * y_passes), y_passes * 2, y_passes + 1),
        "warm y-draw b=1": (draw(problem.lipschitz_y, np.array([6]), warm), ["other"], 2, 2),
        "warm y-draw full": (draw(problem.lipschitz_y, full, warm), ["other"] * 2, 2, 2),
        "grad_x b=1": (lambda: problem.grad_x(np.array([6]), x, Y.ravel()), ["adjoint", "forward"], 2, 2),
        "grad_y b=1": (lambda: problem.grad_y(np.array([6]), x, Y.ravel()), ["forward"], 2, 2),
        "grad_x full": (lambda: problem.grad_x(full, x, Y.ravel()), ["flipped"] * 2 + ["forward"] * 2, 2, 2),
        "grad_y full": (lambda: problem.grad_y(full, x, Y.ravel()), ["forward"] * 2, 2, 2),
        "value full": (lambda: problem.value(full, x, Y.ravel()), ["forward"] * 2, 1, 1),
        "rows_mean_x b=1": (lambda: problem.rows_mean_x(np.array([6]), rows[6:7]), ["adjoint"], 1, 1),
        "rows_mean_x full": (lambda: problem.rows_mean_x(full, rows), ["adjoint"], 16, 16),
    }
    rows = problem.rows_x(full, x, Y.ravel())
    for name, (call, factors, correlations, set_ups) in calls.items():
        built.clear()
        spy.clear()
        call()
        assert sorted(built) == factors, name
        assert len(spy.runs) == correlations, name
        assert len(spy.set_ups) == set_ups, name


@pytest.mark.numpy_floor
def test_bid_x_rows_decode_skips_zero_kernel_rows(monkeypatch, rng):
    # Rows whose kernel part is all zero (a SAGA table's unvisited tiles, here also
    # one with a residual left in it) add an exact zero: decoding makes no
    # correlation for them, and the mean is the previous decode's bit for bit.
    Z = rng.random((11, 13))
    adapter = BlindDeblurProblem(Z=Z, kernel_shape=(3, 4), lam=2e-3, theta=50.0, n_tiles=6)
    problem = adapter.block_problem()
    tiles = bid_component_split(Z.shape, 6)
    windows = [(slice(rs.start, rs.stop + 2), slice(cs.start, cs.stop + 3)) for rs, cs in tiles]
    areas = [(rs.stop - rs.start) * (cs.stop - cs.start) for rs, cs in tiles]
    width = max(areas)
    xv, yv = rng.random(adapter.image_shape).ravel(), rng.random(12) / 12.0
    idx = np.arange(6)
    rows = problem.rows_x(idx, xv, yv)
    rows[[1, 4]] = 0.0
    rows[2, width:] = 0.0
    spy = _CorrelationSpy(monkeypatch)
    decoded = problem.rows_mean_x(idx, rows)
    assert [kind for kind, *_rest in spy.runs] == ["adjoint"] * 3
    want, padded = np.zeros(adapter.image_shape), np.zeros(adapter.image_shape)
    for i, row in zip(idx, rows):
        resid = row[:areas[i]].reshape(tiles[i][0].stop - tiles[i][0].start, tiles[i][1].stop - tiles[i][1].start)
        want[windows[i]] += _asstrided_banded_bid_adjoint_image(resid, row[width:].reshape(3, 4))
        padded[windows[i]] += _asstrided_bid_adjoint_image(resid, row[width:].reshape(3, 4))
    want *= 2.0 * 6 / len(idx)
    padded *= 2.0 * 6 / len(idx)
    assert _bitwise(decoded, want.ravel())
    np.testing.assert_allclose(decoded, padded.ravel(), rtol=1e-13, atol=1e-13 * np.abs(padded).max())


def image_gradients_adjoint(Wh, Wv):
    """Adjoint of ``image_gradients`` (negative discrete divergence): the reference."""
    out = np.zeros_like(Wh)
    out[:, 1:] += Wh[:, :-1]
    out[:, :-1] -= Wh[:, :-1]
    out[1:, :] += Wv[:-1, :]
    out[:-1, :] -= Wv[:-1, :]
    return out


def bid_potential_deriv(v, theta):
    """Derivative 2 theta v / (1 + theta v^2) of the edge potential: the reference."""
    return 2.0 * theta * v / (1.0 + theta * v * v)


def test_image_gradient_adjoint(rng):
    X = rng.standard_normal((6, 7))
    Wh = rng.standard_normal((6, 7))
    Wv = rng.standard_normal((6, 7))
    Wh[:, -1] = 0.0
    Wv[-1, :] = 0.0
    dh, dv = image_gradients(X)
    lhs = float((dh * Wh).sum() + (dv * Wv).sum())
    rhs = float((X * image_gradients_adjoint(Wh, Wv)).sum())
    assert lhs == pytest.approx(rhs, abs=1e-10)


def bid_grads(X, Y, Z, lam, theta):
    """Full gradients of ||Z - X (*) Y||_F^2 + lam sum Phi(D(X)): the slow reference."""
    resid = bid_forward(X, Y) - Z
    grad_x = 2.0 * bid_adjoint_image(resid, Y)
    dh, dv = image_gradients(X)
    grad_x += lam * image_gradients_adjoint(
        bid_potential_deriv(dh, theta), bid_potential_deriv(dv, theta)
    )
    grad_y = 2.0 * bid_adjoint_kernel(resid, X)
    return grad_x, grad_y


def test_bid_grads_zero_at_exact_constant_fit():
    X = np.full((6, 6), 0.4)
    Y = np.full((3, 3), 1.0 / 9.0)
    Z = bid_forward(X, Y)
    gx, gy = bid_grads(X, Y, Z, lam=1e-3, theta=1e3)
    np.testing.assert_allclose(gx, 0.0, atol=1e-14)
    np.testing.assert_allclose(gy, 0.0, atol=1e-14)


def test_bid_regularizer_small_theta_limit(rng):
    # theta -> 0: gradient of the potential term approaches
    # 2 lam theta D^T D(X).
    X = rng.random((6, 6))
    lam, theta = 0.3, 1e-8
    dh, dv = image_gradients(X)
    reg_grad = lam * image_gradients_adjoint(bid_potential_deriv(dh, theta),
                                             bid_potential_deriv(dv, theta))
    quad = 2.0 * lam * theta * image_gradients_adjoint(dh, dv)
    assert np.abs(reg_grad - quad).max() <= 1e-6 * theta


def test_bid_fd_check(rng):
    Z, _, _ = _toy_blur(seed=7, size=8, kernel=3)
    adapter = BlindDeblurProblem(Z=Z, kernel_shape=(3, 3), lam=5e-4, theta=1e3, n_tiles=4)
    problem = adapter.block_problem()
    z0 = adapter.initial_iterate()
    gen = np.random.default_rng(8)
    x = np.clip(z0.x + 0.05 * gen.standard_normal(problem.dim_x), 0.0, 1.0)
    y = project_box_l1(z0.y + 0.05 * gen.standard_normal(problem.dim_y))
    assert fd_gradient_check(problem, Iterate(x, y), h=1e-6) <= 1e-5


def _toy_blur(seed, size, kernel):
    from springopt.harness.datasets import toy_blurred_image

    return toy_blurred_image(seed=seed, size=size, kernel=kernel)


def test_bid_component_split_shapes():
    tiles = bid_component_split((32, 32), 16)
    assert len(tiles) == 16
    covered = np.zeros((32, 32), dtype=int)
    for rs, cs in tiles:
        assert rs.stop - rs.start == 8 and cs.stop - cs.start == 8
        covered[rs, cs] += 1
    np.testing.assert_array_equal(covered, 1)


def test_bid_component_split_single_block():
    tiles = bid_component_split((5, 7), 1)
    assert tiles == [(slice(0, 5), slice(0, 7))]


def test_bid_component_split_turns_a_layout_that_only_fits_on_its_side():
    # 6 tiles are 2 x 3 (rows x columns), 3 columns more than a 6 x 2 grid has: 3 x 2.
    tiles = bid_component_split((6, 2), 6)
    assert [(rs.start, rs.stop, cs.start, cs.stop) for rs, cs in tiles] == [
        (0, 2, 0, 1), (0, 2, 1, 2), (2, 4, 0, 1), (2, 4, 1, 2), (4, 6, 0, 1), (4, 6, 1, 2)]


@pytest.mark.parametrize("shape, n_blocks, match", [
    ((4, 5), 0, r"need 1 <= n_blocks <= 20, got 0"),
    ((4, 5), 21, r"need 1 <= n_blocks <= 20, got 21"),
    ((2, 2), 3, r"cannot tile \(2, 2\) into 3 contiguous blocks"),
    ((2, 3), 5, r"cannot tile \(2, 3\) into 5 contiguous blocks"),
])
def test_bid_component_split_rejects_impossible_layouts(shape, n_blocks, match):
    with pytest.raises(ValueError, match=match):
        bid_component_split(shape, n_blocks)


def test_bid_component_split_covers_odd_shapes():
    covered = np.zeros((7, 9), dtype=int)
    for rs, cs in bid_component_split((7, 9), 6):
        covered[rs, cs] += 1
    np.testing.assert_array_equal(covered, 1)


def test_bid_component_mean_matches_monolithic(rng):
    Z, _, _ = _toy_blur(seed=9, size=10, kernel=3)
    adapter = BlindDeblurProblem(Z=Z, kernel_shape=(3, 3), lam=2e-3, theta=1e3, n_tiles=4)
    problem = adapter.block_problem()
    z0 = adapter.initial_iterate()
    X = z0.x.reshape(adapter.image_shape)
    Y = z0.y.reshape(3, 3)
    resid = bid_forward(X, Y) - Z
    dh, dv = image_gradients(X)
    mono = float((resid**2).sum()) + 2e-3 * float(
        np.log1p(1e3 * dh * dh).sum() + np.log1p(1e3 * dv * dv).sum()
    )
    assert smooth_value(problem, z0) == pytest.approx(mono, rel=1e-12)


def test_bid_full_grads_match_component_mean(rng):
    Z, _, _ = _toy_blur(seed=10, size=10, kernel=3)
    adapter = BlindDeblurProblem(Z=Z, kernel_shape=(3, 3), n_tiles=4)
    problem = adapter.block_problem()
    z0 = adapter.initial_iterate()
    X = z0.x.reshape(adapter.image_shape)
    Y = z0.y.reshape(3, 3)
    gx, gy = bid_grads(X, Y, Z, lam=adapter.lam, theta=adapter.theta)
    np.testing.assert_allclose(full_grad_x(problem, z0), gx.ravel(), rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(full_grad_y(problem, z0), gy.ravel(), rtol=1e-9, atol=1e-12)


def _bid_masked_reference(adapter, idx, X, Y):
    # The full-image formula: every tile is the whole residual masked to it.
    Z, lam, theta = adapter.Z, adapter.lam, adapter.theta
    tiles = bid_component_split(Z.shape, adapter.n_tiles)
    n = len(tiles)
    resid = bid_forward(X, Y) - Z
    value, gx, gy = 0.0, np.zeros_like(X), np.zeros_like(Y)
    for i in idx:
        masked = np.zeros_like(resid)
        masked[tiles[i]] = resid[tiles[i]]
        value += n * float((masked * masked).sum())
        gx += 2.0 * n * bid_adjoint_image(masked, Y)
        gy += 2.0 * n * bid_adjoint_kernel(masked, X)
    dh, dv = image_gradients(X)
    reg = lam * float(np.log1p(theta * dh * dh).sum() + np.log1p(theta * dv * dv).sum())
    reg_grad = lam * image_gradients_adjoint(bid_potential_deriv(dh, theta),
                                             bid_potential_deriv(dv, theta))
    b = len(idx)
    return value / b + reg, gx / b + reg_grad, gy / b


def test_bid_tile_windows_match_masked_full_image(rng):
    # Uneven 6-tile split of an 11 x 13 grid with a non-square kernel.
    Z = rng.random((11, 13))
    adapter = BlindDeblurProblem(Z=Z, kernel_shape=(3, 4), lam=2e-3, theta=50.0, n_tiles=6)
    problem = adapter.block_problem()
    X = rng.random(adapter.image_shape)
    Y = rng.random((3, 4)) / 12.0
    term = problem.smooth_x
    for b in (1, 2, 3, 5, 6):
        for _ in range(3):
            idx = np.sort(rng.choice(6, size=b, replace=False))
            value, gx, gy = _bid_masked_reference(adapter, idx, X, Y)
            # The reference carries the edge regularizer; the oracles leave it to smooth_x.
            np.testing.assert_allclose(problem.grad_x(idx, X.ravel(), Y.ravel()) + term.grad(X.ravel()),
                                       gx.ravel(), rtol=1e-12, atol=1e-13)
            np.testing.assert_allclose(problem.grad_y(idx, X.ravel(), Y.ravel()), gy.ravel(),
                                       rtol=1e-12, atol=1e-13)
            assert (problem.value(idx, X.ravel(), Y.ravel()) + term.value(X.ravel())
                    == pytest.approx(value, rel=1e-12))


def _per_tile_full_batch(adapter, xv, yv):
    """The full-batch value, grad_x, grad_y and y-draw summed tile window by tile window.

    The oracles' and y-hook's code, verbatim, from before the full batch became one
    image residual: the slow reference for the image path.
    """
    Z = adapter.Z
    kh, kw = adapter.kernel_shape
    hx, wx = adapter.image_shape
    tiles = bid_component_split(Z.shape, adapter.n_tiles)
    n = len(tiles)
    windows = [(slice(rs.start, rs.stop + kh - 1), slice(cs.start, cs.stop + kw - 1)) for rs, cs in tiles]
    idx = np.arange(n)
    X, Y = xv.reshape(hx, wx), yv.reshape(kh, kw)

    def tile_residuals(idx, X, Y, factors=None):
        factors = ToeplitzFactors(Y) if factors is None else factors
        for i in idx:
            yield windows[i], bid_forward(X[windows[i]], Y, factors) - Z[tiles[i]]

    def scatter_adjoints(parts, scale, factors=None):
        g = np.zeros((hx, wx))
        for window, resid, Y in parts:
            g[window] += bid_adjoint_image(resid, Y, factors)
        g *= scale
        return g.ravel()

    total = sum(float((resid * resid).sum()) for _w, resid in tile_residuals(idx, X, Y))
    value = n * total / len(idx)

    factors = ToeplitzFactors(Y)
    parts = ((window, resid, Y) for window, resid in tile_residuals(idx, X, Y, factors))
    grad_x = scatter_adjoints(parts, 2.0 * n / len(idx), factors)

    g = np.zeros((kh, kw))
    for window, resid in tile_residuals(idx, X, Y):
        g += bid_adjoint_kernel(resid, X[window])
    g *= 2.0 * n / len(idx)
    grad_y = g.ravel()

    sampled, scale = [np.abs(X[windows[j]]) for j in idx], 2.0 * n / len(idx)

    def apply(v):
        V, g = v.reshape(kh, kw), np.zeros((kh, kw))
        factors = ToeplitzFactors(V)  # shared by the windows
        for patch in sampled:
            g += bid_adjoint_kernel(bid_forward(patch, V, factors), patch)
        g *= scale
        return g.ravel()

    return value, grad_x, grad_y, collatz_wielandt_bound(apply, kh * kw, problems_module.Y_BOUND_PASSES)[:2]


def _close(got, want, rel):
    return np.abs(got - want).max() <= rel * np.abs(want).max()


@pytest.mark.parametrize("shape", ["uneven-1", "uneven-6", "uneven-16", "bid-medium"])
def test_bid_full_batch_image_path_matches_per_tile_sums(rng, shape):
    # The full batch's value, grad_x, grad_y and y-draw work on the one image residual;
    # they match the per-tile sums to 1e-13 relative.  The uneven 11 x 13 grid with a
    # 3 x 4 kernel in 1, 6 and 16 tiles, and bid-medium's shape, whose residual spans
    # three forward row blocks and three column blocks.  The y-bound stays at or above the dense top
    # eigenvalue of 2 P^T P, for P the patch matrix of X and of |X|.
    if shape == "bid-medium":
        Z, _, _ = _toy_blur(seed=0, size=64, kernel=9)
        adapter = BlindDeblurProblem(Z=Z, kernel_shape=(9, 9), n_tiles=16)
    else:
        adapter = BlindDeblurProblem(Z=rng.random((11, 13)), kernel_shape=(3, 4), lam=2e-3, theta=50.0,
                                     n_tiles=int(shape.split("-")[1]))
    problem = adapter.block_problem()
    full = np.arange(problem.n)
    kernel_size = int(np.prod(adapter.kernel_shape))
    points = [adapter.initial_iterate(),
              Iterate(rng.random(problem.dim_x), rng.random(kernel_size) / kernel_size),
              Iterate(rng.standard_normal(problem.dim_x), rng.standard_normal(kernel_size))]
    for z in points:
        value, grad_x, grad_y, (lip_y, applied) = _per_tile_full_batch(adapter, z.x, z.y)
        assert problem.value(full, z.x, z.y) == pytest.approx(value, rel=1e-13, abs=0.0)
        assert _close(problem.grad_x(full, z.x, z.y), grad_x, 1e-13)
        assert _close(problem.grad_y(full, z.x, z.y), grad_y, 1e-13)
        got, got_applied = problem.lipschitz_y(z.x, z.y, full)
        assert got == pytest.approx(lip_y, rel=1e-13, abs=0.0) and got_applied == applied
        X = z.x.reshape(adapter.image_shape)
        for image in (X, np.abs(X)):
            patches = bid_patches(image, adapter.kernel_shape)
            assert got >= np.linalg.eigvalsh(2.0 * patches.T @ patches)[-1] * (1 - 1e-12)


def _previous_full_batch(adapter):
    """The full-batch value, grad_x and grad_y and the edge term's value, verbatim but for
    the regions (the full batch's one) and the potential's name, from before grad_x formed
    the image residual in its adjoint's buffer and the edge value ran on the flat image."""
    Z, lam, theta = adapter.Z, adapter.lam, adapter.theta
    kh, kw = adapter.kernel_shape
    hx, wx = adapter.image_shape
    n = len(bid_component_split(Z.shape, adapter.n_tiles))
    image_region = [((slice(None), slice(None)), (slice(None), slice(None)))]

    def regions(idx):
        return image_region

    def potential(v, theta):
        return np.log1p(theta * v * v)

    def reg_value(xv):
        dh, dv = image_gradients(xv.reshape(hx, wx))
        # ndarray.sum's reduction, without the method's Python wrapper.
        return lam * float(np.add.reduce(potential(dh, theta), axis=None)
                           + np.add.reduce(potential(dv, theta), axis=None))

    def residuals(regions, X, Y):
        factors = ToeplitzFactors(Y)
        return [(window, bid_forward(X[window], Y, factors) - Z[tile]) for window, tile in regions]

    def scatter_adjoints(parts, scale):
        g = np.zeros((hx, wx))
        for window, resid, factors in parts:
            g[window] += bid_adjoint_image(resid, factors.kernel, factors)
        g *= scale
        return g.ravel()

    def value(idx, xv, yv):
        X, Y = xv.reshape(hx, wx), yv.reshape(kh, kw)
        total = sum(float(np.vdot(resid, resid)) for _w, resid in residuals(regions(idx), X, Y))
        return total * (n / len(idx))

    def grad_x(idx, xv, yv):
        X, Y = xv.reshape(hx, wx), yv.reshape(kh, kw)
        parts = residuals(regions(idx), X, Y)
        factors = ToeplitzFactors(Y)
        return scatter_adjoints(((window, resid, factors) for window, resid in parts), 2.0 * n / len(idx))

    def grad_y(idx, xv, yv):
        X, Y = xv.reshape(hx, wx), yv.reshape(kh, kw)
        factors, g = ToeplitzFactors(Y), np.zeros((kh, kw))
        for window, tile in regions(idx):
            patch = np.ascontiguousarray(X[window])
            g += bid_kernel_gradient(patch, bid_forward(patch, Y, factors) - Z[tile])
        g *= 2.0 * n / len(idx)
        return g.ravel()

    return {"value": value, "grad_x": grad_x, "grad_y": grad_y}, reg_value


def _with_specials(rng, v, specials, share):
    v = v.copy()
    at = rng.random(v.size) < share
    v[at] = rng.choice(specials, at.sum())
    return v


# (residual grid, kernel, tiles): one block each way on an uneven 6-tile grid; a forward
# correlation of one block written into a blocked adjoint's padded buffer; blocked both
# ways with a last block narrower than the others on a 7-tile grid; bid-medium's shape.
FULL_BATCH_SHAPES = {"one-block": ((11, 13), (3, 4), 6), "forward-one-block": ((20, 22), (9, 5), 4),
                     "blocked": ((41, 53), (5, 9), 7), "bid-medium": ((56, 56), (9, 9), 16)}


@pytest.mark.numpy_floor
@pytest.mark.parametrize("shape", FULL_BATCH_SHAPES)
def test_bid_full_batch_oracles_match_previous_code_bitwise(rng, shape):
    # Every byte of the full-batch value, grad_x and grad_y and of the edge value, NaN
    # payloads and zero signs included: on feasible and unconstrained iterates, kernels
    # with exact zeros and -0.0, entries -0.0, NaN of either sign and +-inf in X and Y,
    # and a residual that is -0.0 where the image is -0.0 over Z's exact zeros.
    Z_shape, kernel, tiles = FULL_BATCH_SHAPES[shape]
    Z = rng.random(Z_shape)
    Z[:Z_shape[0] // 2, :Z_shape[1] // 2] = 0.0
    adapter = BlindDeblurProblem(Z=Z, kernel_shape=kernel, lam=3e-3, theta=70.0, n_tiles=tiles)
    problem = adapter.block_problem()
    previous, previous_edge = _previous_full_batch(adapter)
    full = np.arange(problem.n)
    dim_x, dim_y = problem.dim_x, problem.dim_y
    z0 = adapter.initial_iterate()
    sparse_kernel = rng.random(kernel) / dim_y
    sparse_kernel[0], sparse_kernel[:, -1], sparse_kernel.flat[dim_y // 2] = 0.0, -0.0, 0.0
    negative_zeros = z0.x.reshape(adapter.image_shape).copy()
    negative_zeros[:Z_shape[0] // 2 + kernel[0] - 1, :Z_shape[1] // 2 + kernel[1] - 1] = -0.0
    specials = np.array([-0.0, np.nan, -np.nan, np.inf, -np.inf])
    points = [(z0.x, z0.y), (z0.x, sparse_kernel.ravel()), (negative_zeros.ravel(), z0.y),
              (np.full(dim_x, -0.0), sparse_kernel.ravel()),
              (rng.standard_normal(dim_x), rng.standard_normal(dim_y)),
              (_with_specials(rng, rng.random(dim_x), specials, 0.01), z0.y),
              (z0.x, _with_specials(rng, rng.random(dim_y), specials, 0.1)),
              (_with_specials(rng, rng.random(dim_x), specials[:1], 0.3),
               _with_specials(rng, rng.random(dim_y), specials, 0.05)),
              (_with_specials(rng, rng.standard_normal(dim_x), specials, 0.2), sparse_kernel.ravel())]
    with np.errstate(all="ignore"):
        for xv, yv in points:
            for name, oracle in previous.items():
                got, want = getattr(problem, name)(full, xv, yv), oracle(full, xv, yv)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), name
                assert np.shape(got) == np.shape(want)
            assert np.float64(problem.smooth_x.value(xv)).tobytes() == np.float64(previous_edge(xv)).tobytes()


def _previous_edge_terms(xv, shape, lam, theta):
    # smooth_x's value and gradient, verbatim, from before the gradient took one
    # difference direction at a time.
    dh, dv = image_gradients(xv.reshape(shape))
    value = lam * float(bid_potential(dh, theta).sum() + bid_potential(dv, theta).sum())
    g = image_gradients_adjoint(bid_potential_deriv(dh, theta), bid_potential_deriv(dv, theta))
    return value, (lam * g).ravel()


@pytest.mark.parametrize("Z_shape, kernel", [((11, 13), (3, 4)), ((56, 56), (9, 9)), ((1, 9), (1, 3)),
                                             ((9, 1), (3, 1)), ((1, 1), (1, 1))])
def test_bid_edge_regularizer_matches_previous_code_bitwise(rng, Z_shape, kernel):
    # Every bit of smooth_x's value and gradient, NaNs' included, on images of one row
    # or one column too, and on inputs holding NaN and infinities.
    adapter = BlindDeblurProblem(Z=rng.random(Z_shape), kernel_shape=kernel, lam=3e-3, theta=70.0, n_tiles=1)
    term, shape = adapter.block_problem().smooth_x, adapter.image_shape
    size = shape[0] * shape[1]
    inputs = [rng.random(size), 5.0 * rng.standard_normal(size), np.zeros(size)]
    for bad in (np.nan, np.inf, -np.inf):
        xv = rng.random(size)
        xv[rng.integers(size)] = bad
        inputs.append(xv)
    mixed = rng.random(size)
    mixed[::3], mixed[1::3] = np.inf, -np.inf
    inputs.append(mixed)
    with np.errstate(all="ignore"):
        for xv in inputs:
            value, grad = _previous_edge_terms(xv, shape, adapter.lam, adapter.theta)
            got = term.grad(xv)
            assert got.shape == grad.shape and got.tobytes() == grad.tobytes()
            assert np.float64(term.value(xv)).tobytes() == np.float64(value).tobytes()


def test_bid_x_rows_decode_to_grad_x_bitwise(rng):
    # An x-row is the tile's residual, zero-padded to the largest tile, then the
    # kernel; rows_mean_x scatters the image adjoints as grad_x does below the full
    # batch, so SAGA's fresh estimate is the oracle's bit for bit there.  The
    # full-batch grad_x takes one adjoint of the whole image residual, another
    # summation order than the rows' tile by tile: equal to 1e-14.
    Z = rng.random((11, 13))
    adapter = BlindDeblurProblem(Z=Z, kernel_shape=(3, 4), lam=2e-3, theta=50.0, n_tiles=6)
    problem = adapter.block_problem()
    tiles = bid_component_split(Z.shape, 6)
    areas = [(rs.stop - rs.start) * (cs.stop - cs.start) for rs, cs in tiles]
    assert row_dims(problem) == (max(areas) + 12, 12)
    xv, yv = rng.random(adapter.image_shape).ravel(), rng.random(12) / 12.0
    X = xv.reshape(adapter.image_shape)
    resids = [bid_forward(X[rs.start:rs.stop + 2, cs.start:cs.stop + 3], yv.reshape(3, 4)) - Z[rs, cs]
              for rs, cs in tiles]
    for b in (1, 2, 3, 6):
        idx = np.sort(rng.choice(6, size=b, replace=False))
        rows = problem.rows_x(idx, xv, yv)
        assert rows.shape == (b, max(areas) + 12)
        for row, i in zip(rows, idx):
            np.testing.assert_array_equal(row[:areas[i]], resids[i].ravel())
            assert not row[areas[i]:max(areas)].any()
            np.testing.assert_array_equal(row[max(areas):], yv)
        decoded, fresh = problem.rows_mean_x(idx, rows), problem.grad_x(idx, xv, yv)
        if b < 6:
            assert np.array_equal(decoded, fresh)
        else:
            assert np.abs(decoded - fresh).max() <= 1e-14 * np.abs(fresh).max()
        assert not problem.rows_mean_x(idx, np.zeros_like(rows)).any()


def _bid_masked_lipschitz_reference(adapter, batch, X, Y):
    # The full-image form: correlate the whole image and mask the residual to the batch's tiles.
    tiles = bid_component_split(adapter.Z.shape, adapter.n_tiles)
    mask = np.zeros(adapter.Z.shape, dtype=bool)
    for j in range(len(tiles)) if batch is None else batch:
        mask[tiles[j]] = True
    scale = 2.0 if batch is None else 2.0 * len(tiles) / len(batch)

    def apply_x(v):
        out = np.where(mask, bid_forward(v.reshape(X.shape), Y), 0.0)
        return (scale * bid_adjoint_image(out, Y)).ravel()

    def apply_y(w):
        out = np.where(mask, bid_forward(X, w.reshape(Y.shape)), 0.0)
        return (scale * bid_adjoint_kernel(out, X)).ravel()

    return apply_x, apply_y


def _dense_top_eigenvalue(apply, dim):
    dense = np.column_stack([apply(e) for e in np.eye(dim)])
    return float(np.linalg.eigvalsh(0.5 * (dense + dense.T))[-1])


def _bid_sampled_box(adapter, batch):
    # The bounding box of the batch's tile windows, where the sampled x-operator acts.
    kh, kw = adapter.kernel_shape
    tiles = [bid_component_split(adapter.Z.shape, adapter.n_tiles)[j] for j in batch]
    return (slice(min(rs.start for rs, _ in tiles), max(rs.stop for rs, _ in tiles) + kh - 1),
            slice(min(cs.start for _, cs in tiles), max(cs.stop for _, cs in tiles) + kw - 1))


def _bid_box_reference(adapter, batch, X, Y):
    # The masked full-image x-operator on vectors of the sampled box, and the box's size:
    # it vanishes outside the box, so this is its nonzero block.
    apply_x = _bid_masked_lipschitz_reference(adapter, batch, X, Y)[0]
    box = _bid_sampled_box(adapter, batch)

    def apply(u):
        v = np.zeros(X.shape)
        v[box] = u.reshape(v[box].shape)
        out = apply_x(v.ravel()).reshape(X.shape)
        outside = np.ones(X.shape, dtype=bool)
        outside[box] = False
        assert not out[outside].any()
        return out[box].ravel()

    return apply, X[box].size


def test_bid_lipschitz_hooks_match_masked_full_image(rng):
    # The uneven 6-tile grid above, whose tile windows overlap.  Every value the hooks
    # give, less the x-hook's regularizer curvature, is at or above the top eigenvalue
    # of the dense masked full-image operator, for every batch.  The bounds read their
    # data as |.|, so they are also checked on kernels and images with negative
    # entries, where Young's inequality and the majorization |M| are loosest.  Below
    # the full batch the x-hook's operator is the masked full-image one with |Y|,
    # restricted to the sampled windows' bounding box, and the y-hook's is the masked
    # one with |X|.
    Z = rng.random((11, 13))
    adapter = BlindDeblurProblem(Z=Z, kernel_shape=(3, 4), lam=2e-3, theta=50.0, n_tiles=6)
    problem = adapter.block_problem()
    shape = adapter.image_shape
    offset = 16.0 * adapter.lam * adapter.theta  # the x-hook adds the regularizer's curvature
    batches = [np.sort(rng.choice(6, size=b, replace=False)) for b in (1, 2, 3, 5, 6)] + [None]
    kernels = [rng.random((3, 4)) / 12.0, rng.standard_normal((3, 4)), rng.standard_normal((3, 4)) - 0.5,
               np.eye(3, 4) - 0.3]
    images = [rng.random(shape), rng.random(shape) - 0.5, rng.standard_normal(shape)]
    for batch in batches:
        full = batch is None or len(batch) == 6
        idx = np.arange(6) if batch is None else batch
        for Y in kernels:
            for X in images:
                xv, yv = X.ravel(), Y.ravel()
                apply_x, apply_y = _bid_masked_lipschitz_reference(adapter, batch, X, Y)
                lip_x, _ = problem.lipschitz_x(xv, yv, idx)
                lip_y, _ = problem.lipschitz_y(xv, yv, idx)
                assert lip_x - offset >= _dense_top_eigenvalue(apply_x, X.size) * (1 - 1e-12), batch
                assert lip_y >= _dense_top_eigenvalue(apply_y, Y.size) * (1 - 1e-12), batch

        Y, X = kernels[1], images[1]
        (lip_x, applied_x), (lip_y, applied_y) = (hook(X.ravel(), Y.ravel(), idx)
                                                  for hook in (problem.lipschitz_x, problem.lipschitz_y))
        abs_y = _bid_masked_lipschitz_reference(adapter, batch, np.abs(X), np.abs(Y))[1]
        want_y, want_applied_y, _last = collatz_wielandt_bound(abs_y, Y.size, problems_module.Y_BOUND_PASSES)
        assert lip_y == pytest.approx(want_y, rel=1e-12) and applied_y == want_applied_y
        if full:
            assert (lip_x, applied_x) == (2.0 * float(np.abs(Y).sum()) ** 2 + offset, 0)
            continue
        abs_x, box_size = _bid_box_reference(adapter, batch, np.abs(X), np.abs(Y))
        want_x, want_applied_x, _last = collatz_wielandt_bound(abs_x, box_size, problems_module.X_BOUND_PASSES)
        assert lip_x == pytest.approx(want_x + offset, rel=1e-12) and applied_x == want_applied_x


def _bid_window_operators(adapter, batch, X, Y):
    # M_B^T M_B applied window by window with the sliding-window kernels (the full
    # batch as one full-image correlation), the y-hook's former matrix-free operator.
    kh, kw = adapter.kernel_shape
    tiles = bid_component_split(adapter.Z.shape, adapter.n_tiles)
    windows = [(slice(rs.start, rs.stop + kh - 1), slice(cs.start, cs.stop + kw - 1)) for rs, cs in tiles]
    if batch is None:
        def apply_x(v):
            return (2.0 * _pad_bid_adjoint_image(_swv_bid_forward(v.reshape(X.shape), Y), Y)).ravel()

        def apply_y(w):
            return (2.0 * _swv_bid_adjoint_kernel(_swv_bid_forward(X, w.reshape(kh, kw)), X)).ravel()

        return apply_x, apply_y
    scale = 2.0 * len(tiles) / len(batch)

    def apply_x(v):
        V, g = v.reshape(X.shape), np.zeros(X.shape)
        for j in batch:
            g[windows[j]] += _pad_bid_adjoint_image(_swv_bid_forward(V[windows[j]], Y), Y)
        return (scale * g).ravel()

    def apply_y(w):
        W, g = w.reshape(kh, kw), np.zeros((kh, kw))
        for j in batch:
            patch = X[windows[j]]
            g += _swv_bid_adjoint_kernel(_swv_bid_forward(patch, W), patch)
        return (scale * g).ravel()

    return apply_x, apply_y


def test_bid_lipschitz_values_match_window_operators(rng):
    # The uneven, overlapping 6-tile grid above, on a nonnegative image and kernel (as
    # the prox keeps them).  Below the full batch each value is the Collatz-Wielandt
    # bound of the window-wise operator on the whole image, its rule's pass count from
    # the ones vector: iterating on the sampled windows' bounding box loses nothing,
    # since the operator vanishes outside it.  The full-batch x-value is the
    # closed-form bound.  Each is at or above the dense operator's top eigenvalue.
    Z = rng.random((11, 13))
    adapter = BlindDeblurProblem(Z=Z, kernel_shape=(3, 4), lam=2e-3, theta=50.0, n_tiles=6)
    problem = adapter.block_problem()
    X = rng.random(adapter.image_shape)
    Y = rng.random((3, 4)) / 12.0
    xv, yv = X.ravel(), Y.ravel()
    hooks = (problem.lipschitz_x, problem.lipschitz_y)
    offsets = (16.0 * adapter.lam * adapter.theta, 0.0)  # the x-hook adds the regularizer's curvature
    dims = (X.size, Y.size)
    passes = (problems_module.X_BOUND_PASSES, problems_module.Y_BOUND_PASSES)
    batches = [np.sort(rng.choice(6, size=b, replace=False)) for b in (1, 2, 3, 6)] + [None]
    for batch in batches:
        references = _bid_window_operators(adapter, batch, X, Y)
        for hook, reference, offset, dim, count in zip(hooks, references, offsets, dims, passes):
            got, applied = hook(xv, yv, np.arange(6) if batch is None else batch)
            if hook is problem.lipschitz_x and (batch is None or len(batch) == 6):
                assert (got, applied) == (2.0 * float(np.abs(Y).sum()) ** 2 + offset, 0)
            else:
                want, want_applied, _last = collatz_wielandt_bound(reference, dim, count)
                assert got == pytest.approx(want + offset, rel=1e-12) and applied == want_applied == count, batch
            lam_max = _dense_top_eigenvalue(reference, dim)
            assert got - offset >= lam_max * (1 - 1e-12), batch


def _previous_bid_draws(adapter, collatz=previous_collatz_wielandt_bound):
    """The BID Lipschitz hooks as they were before a draw set its correlations up
    once for all its passes, verbatim but for the bound, ``collatz(apply, dim,
    passes)``: every pass correlated each window through bid_forward,
    bid_adjoint_image and bid_kernel_gradient, and the y-draw built a new
    ToeplitzFactors of its iterate on each pass."""
    Z, lam, theta = adapter.Z, adapter.lam, adapter.theta
    kh, kw = adapter.kernel_shape
    hx, wx = adapter.image_shape
    tiles = bid_component_split(Z.shape, adapter.n_tiles)
    n = len(tiles)
    tile_regions = [((slice(rs.start, rs.stop + kh - 1), slice(cs.start, cs.stop + kw - 1)), (rs, cs))
                    for rs, cs in tiles]
    image_region = [((slice(None), slice(None)), (slice(None), slice(None)))]

    def regions(idx):
        return image_region if len(idx) == n else [tile_regions[i] for i in idx]

    edge_curvature = 16.0 * lam * theta

    def lip_x(xv, yv, batch):
        if len(batch) == n:
            return 2.0 * float(np.abs(yv).sum()) ** 2 + edge_curvature, 0
        Y = np.abs(yv.reshape(kh, kw))
        rows, cols = zip(*(tile_regions[j][0] for j in batch))
        top, left = min(rs.start for rs in rows), min(cs.start for cs in cols)
        box = (max(rs.stop for rs in rows) - top, max(cs.stop for cs in cols) - left)
        sampled = [(slice(rs.start - top, rs.stop - top), slice(cs.start - left, cs.stop - left))
                   for rs, cs in zip(rows, cols)]
        scale = 2.0 * n / len(batch)
        factors = ToeplitzFactors(Y)  # built once per draw

        def apply(v):
            V, g = v.reshape(box), np.zeros(box)
            for window in sampled:
                g[window] += bid_adjoint_image(bid_forward(V[window], Y, factors), Y, factors)
            g *= scale
            return g.ravel()

        bound, applied = collatz(apply, box[0] * box[1], problems_module.X_BOUND_PASSES)
        return bound + edge_curvature, applied

    def lip_y(xv, yv, batch):
        X, scale = xv.reshape(hx, wx), 2.0 * n / len(batch)
        sampled = [np.abs(X[window]) for window, _tile in regions(batch)]

        def apply(v):
            V, g = v.reshape(kh, kw), np.zeros((kh, kw))
            factors = ToeplitzFactors(V)  # shared by the regions
            for patch in sampled:
                g += bid_kernel_gradient(patch, bid_forward(patch, V, factors))
            g *= scale
            return g.ravel()

        return collatz(apply, kh * kw, problems_module.Y_BOUND_PASSES)

    return lip_x, lip_y


# (observation shape, kernel shape, tiles) of the draw pins below: uneven tiles, and
# windows of one block, of several row and column blocks (30 x 30 tiles: the x-draw's
# forward and adjoint correlations span two blocks of 24, the kernel gradient two of
# 16), and of a 9 x 9 kernel.
DRAW_PIN_SHAPES = [((11, 13), (3, 3), 6), ((17, 14), (2, 5), 6), ((15, 19), (4, 1), 4), ((40, 37), (9, 9), 6),
                   ((60, 60), (3, 3), 4)]


@pytest.mark.numpy_floor
@pytest.mark.parametrize("shape", DRAW_PIN_SHAPES, ids=str)
def test_bid_draws_match_previous_draws_bitwise(shape):
    # Every draw, as (value, applications), equals the previous hooks' bit for bit:
    # b = 1, 2 and 3 (adjacent tiles' windows overlap), the full batch, an image and a
    # kernel with zero entries, and data whose operator has zero rows, so the
    # Collatz-Wielandt ratio is taken on a partial support.
    Z_shape, kernel, tiles = shape
    rng = np.random.default_rng(sum(Z_shape) + 10 * kernel[0] + kernel[1])
    adapter = BlindDeblurProblem(Z=rng.random(Z_shape), kernel_shape=kernel, lam=2e-3, theta=50.0, n_tiles=tiles)
    problem = adapter.block_problem()
    previous_x, previous_y = _previous_bid_draws(adapter)
    kh, kw = kernel
    batches = [np.array([j]) for j in range(tiles)] + [np.array([0, 1]), np.array([0, tiles - 1]),
                                                      np.array([0, 1, 2]), np.arange(tiles)]
    sparse_kernel = rng.random(kernel) * (rng.random(kernel) < 0.5)
    edge_kernel = np.zeros(kernel)  # only its first row and column: the box's far pixels reach no residual
    edge_kernel[0], edge_kernel[:, 0] = rng.random(kw), rng.random(kh)
    dark_image = rng.random(adapter.image_shape)  # zero outside a corner: zero kernel rows for far windows
    dark_image[kh + 1:, :] = 0.0
    kernels = [rng.random(kernel) / (kh * kw), rng.standard_normal(kernel), sparse_kernel, edge_kernel]
    images = [rng.random(adapter.image_shape), rng.standard_normal(adapter.image_shape), dark_image]
    for Y in kernels:
        for X in images:
            for batch in batches:
                for hook, previous in ((problem.lipschitz_x, previous_x), (problem.lipschitz_y, previous_y)):
                    got, want = hook(X.ravel(), Y.ravel(), batch), previous(X.ravel(), Y.ravel(), batch)
                    assert (got[0].hex(), got[1]) == (want[0].hex(), want[1]), (Y, X, batch)


def _warm_reference_bound(apply, dim, passes, store):
    """The bound a run's warm BID draw takes, written out: one pass from the vector in
    ``store[0]`` when it is strictly positive and finite, else ``passes`` passes from
    the ones vector as ``previous_collatz_wielandt_bound`` makes them; the vector the
    last pass ends on, w / max(w), replaces ``store[0]``."""
    start = store[0]
    if start is not None and start.min() > 0.0 and np.isfinite(start).all():
        v, passes = start, 1
    else:
        v = np.ones(dim)
    store[0] = None
    for applied in range(1, passes):
        w = apply(v)
        top = float(w.max())
        if top == 0.0 or not math.isfinite(top):
            return top, applied
        v = w / top
    w = apply(v)
    top = float(w.max())
    if top > 0.0 and math.isfinite(top):
        store[0] = w / top
    support = v > 0.0
    return float(np.max(w[support] / v[support], initial=0.0)), passes


@pytest.mark.numpy_floor
@pytest.mark.parametrize("shape", DRAW_PIN_SHAPES, ids=str)
def test_bid_warm_draws_match_one_pass_of_the_previous_operators_bitwise(shape):
    # A draw with a run's store, then a second draw of the same batch at another point
    # from the vector the first ended on: each, as (value, applications) and the stored
    # vector, equals the previous hooks' operators under the warm rule bit for bit.
    # The second point is near the first (as a run's next draw is) or far from it;
    # kernels and images with zero entries leave zeros in the vector, so the next
    # draw is cold.  The batches and data of the cold pins above.
    Z_shape, kernel, tiles = shape
    rng = np.random.default_rng(sum(Z_shape) + 10 * kernel[0] + kernel[1])
    adapter = BlindDeblurProblem(Z=rng.random(Z_shape), kernel_shape=kernel, lam=2e-3, theta=50.0, n_tiles=tiles)
    problem = adapter.block_problem()
    reference_store = [None]
    reference_x, reference_y = _previous_bid_draws(
        adapter, lambda apply, dim, passes: _warm_reference_bound(apply, dim, passes, reference_store))
    kh, kw = kernel
    batches = [np.array([j]) for j in range(tiles)] + [np.array([0, 1]), np.array([0, tiles - 1]), np.arange(tiles)]
    sparse_kernel = rng.random(kernel) * (rng.random(kernel) < 0.5)
    dark_image = rng.random(adapter.image_shape)
    dark_image[kh + 1:, :] = 0.0
    kernels = [rng.random(kernel) / (kh * kw), rng.standard_normal(kernel), sparse_kernel]
    images = [rng.random(adapter.image_shape), rng.standard_normal(adapter.image_shape), dark_image]
    points = [(X, Y) for Y in kernels for X in images]
    pairs = [(point, (point[0] * (1.0 + 1e-3 * rng.standard_normal(point[0].shape)),
                      point[1] * (1.0 + 1e-3 * rng.standard_normal(point[1].shape)))) for point in points]
    pairs += list(zip(points, points[1:]))
    starts = {"positive": 0, "with zeros": 0}
    for first, second in pairs:
        for batch in batches:
            for hook, reference in ((problem.lipschitz_x, reference_x), (problem.lipschitz_y, reference_y)):
                store, reference_store[0] = {}, None
                for X, Y in (first, second):
                    start = reference_store[0]
                    got = hook(X.ravel(), Y.ravel(), batch, store)
                    want = reference(X.ravel(), Y.ravel(), batch)
                    assert (got[0].hex(), got[1]) == (want[0].hex(), want[1]), (X, Y, batch)
                    vectors = [vector for vector in store.values() if vector is not None]
                    if reference_store[0] is None:
                        assert not vectors
                    else:
                        assert [vector.tobytes() for vector in vectors] == [reference_store[0].tobytes()]
                    if start is not None:
                        starts["positive" if start.min() > 0.0 else "with zeros"] += 1
    assert min(starts.values()) > 0, starts


def _power_estimate(apply, dim, iterations):
    # ||G v|| after ``iterations`` normalized applications of the PSD G from a fixed
    # random start: a Rayleigh-type estimate of lambda_max(G), from below.
    v = np.random.default_rng(0).standard_normal(dim)
    for _ in range(iterations):
        v = apply(v / np.linalg.norm(v))
    return float(np.linalg.norm(apply(v / np.linalg.norm(v))))


def test_bid_full_batch_x_bound_is_tight_at_benchmark_shape():
    # At bid-medium's shape (9x9 kernel, 56x56 residual grid, 16 tiles), at z0 and
    # after 3 PALM epochs, the full-batch x-hook's Lipschitz value is within 1% of a
    # 300-iteration power estimate of the window-wise operator plus the same edge
    # curvature.  (The data term alone is 2 / 1.928 = 1.037x its top eigenvalue for
    # the uniform kernel.)  A dense eigvalsh at 4096 unknowns is too slow, and the
    # power estimate, from below, makes the 1% check conservative.
    Z, _, _ = _toy_blur(seed=0, size=64, kernel=9)
    adapter = BlindDeblurProblem(Z=Z, kernel_shape=(9, 9), n_tiles=16)
    problem, z0 = adapter.block_problem(), adapter.initial_iterate()
    offset = 16.0 * adapter.lam * adapter.theta
    for z in (z0, run(problem, SolverConfig(algorithm="palm", epochs=3, seed=0), z0).z):
        X, Y = z.x.reshape(adapter.image_shape), z.y.reshape(9, 9)
        apply_x, _ = _bid_window_operators(adapter, np.arange(16), X, Y)
        estimate = _power_estimate(apply_x, X.size, 300) + offset
        bound, applied = problem.lipschitz_x(z.x, z.y, np.arange(16))
        assert applied == 0 and estimate <= bound <= 1.01 * estimate


def test_bid_bounds_are_tight_at_benchmark_shape():
    # At bid-medium's shape, at z0 and after 3 PALM epochs, against the dense operators'
    # top eigenvalues: the y-bound from Y_BOUND_PASSES passes is within 0.5% at the full
    # batch, and on the b = 1 windows within 0.5% in the median and 1.1% on each (the
    # largest measured is 1.0062x); the x-bound's data term at b = 1, from
    # X_BOUND_PASSES passes on one 22x22 window, is within 1%.  The x-operator on a
    # window reads the kernel alone, so one window stands for all 16.
    Z, _, _ = _toy_blur(seed=0, size=64, kernel=9)
    adapter = BlindDeblurProblem(Z=Z, kernel_shape=(9, 9), n_tiles=16)
    problem, z0 = adapter.block_problem(), adapter.initial_iterate()
    offset = 16.0 * adapter.lam * adapter.theta
    for z in (z0, run(problem, SolverConfig(algorithm="palm", epochs=3, seed=0), z0).z):
        X, Y = np.abs(z.x.reshape(adapter.image_shape)), np.abs(z.y.reshape(9, 9))

        def y_ratio(batch):
            reference = _bid_window_operators(adapter, batch, X, Y)[1]
            return problem.lipschitz_y(z.x, z.y, batch)[0] / _dense_top_eigenvalue(reference, Y.size)

        full = y_ratio(np.arange(16))
        windows = [y_ratio(np.array([j])) for j in range(16)]
        assert 1.0 - 1e-12 <= full <= 1.005
        assert min(windows) >= 1.0 - 1e-12 and max(windows) <= 1.011 and np.median(windows) <= 1.005
        reference, box_size = _bid_box_reference(adapter, np.array([5]), X, Y)
        lip_x = problem.lipschitz_x(z.x, z.y, np.array([5]))[0]
        assert 1.0 - 1e-12 <= (lip_x - offset) / _dense_top_eigenvalue(reference, box_size) <= 1.01


# (observation shape, kernel shape, tiles) of the run certificates below: the uneven,
# overlapping 6-tile grid, a flat kernel on 4 tiles, and a small square case.
CERTIFIED_SHAPES = [((11, 13), (3, 4), 6), ((14, 12), (2, 5), 4), ((16, 16), (3, 3), 4)]


@pytest.mark.parametrize("shape", CERTIFIED_SHAPES, ids=str)
def test_bid_warm_draws_along_runs_are_certified(shape):
    # Along 3 epochs of PALM and of each SPRING algorithm at b = 1, 2 and n, from a
    # kernel with exact zeros, every draw the hooks make from a run's store, warm or
    # cold, is at or above the dense top eigenvalue of the operator it bounds at the
    # point it is drawn at: below the full batch the x-operator on the sampled box
    # (plus the edge term's 16 lam theta), and the y-operator on the sampled windows.
    # The full-batch x-value is the closed form, certified above.
    Z_shape, kernel, tiles = shape
    rng = np.random.default_rng(sum(Z_shape) + tiles)
    adapter = BlindDeblurProblem(Z=rng.random(Z_shape), kernel_shape=kernel, lam=2e-3, theta=50.0, n_tiles=tiles)
    problem, z0 = adapter.block_problem(), adapter.initial_iterate()
    sparse = project_box_l1(rng.random(kernel) * (rng.random(kernel) < 0.6)).ravel()
    assert (sparse == 0.0).any()
    z0 = Iterate(z0.x, sparse)
    offset = 16.0 * adapter.lam * adapter.theta
    draws = []

    def spied(block, hook):
        def spy(x, y, batch, warm):
            got = hook(x, y, batch, warm)
            draws.append((block, x.copy(), y.copy(), batch.copy(), got))
            return got
        return spy

    spied_problem = replace(problem, lipschitz_x=spied("x", problem.lipschitz_x),
                            lipschitz_y=spied("y", problem.lipschitz_y))
    runs = [("palm", tiles)] + [(algorithm, b) for algorithm in ("spring-sgd", "spring-saga", "spring-sarah")
                                for b in (1, 2, tiles)]
    for algorithm, b in runs:
        run(spied_problem, SolverConfig(algorithm=algorithm, batch_size=b, epochs=3, seed=2, track_grad_map=False), z0)
    warm = checked = 0
    for block, x, y, batch, (lip, applied) in draws:
        X, Y = np.abs(x.reshape(adapter.image_shape)), np.abs(y.reshape(kernel))
        if block == "x" and len(batch) == tiles:
            continue
        checked += 1
        if block == "x":
            reference, dim = _bid_box_reference(adapter, batch, X, Y)
            lam_max = _dense_top_eigenvalue(reference, dim)
            assert lip - offset >= lam_max * (1 - 1e-12), (batch, lip, lam_max)
        else:
            lam_max = _dense_top_eigenvalue(_bid_masked_lipschitz_reference(adapter, batch, X, Y)[1], Y.size)
            assert lip >= lam_max * (1 - 1e-12), (batch, lip, lam_max)
        warm += applied == 1
    assert 0 < warm < checked


def test_bid_subsampled_lipschitz_draw_costs_a_batch(monkeypatch):
    # Correlation work in the benchmark's form, 2 out_h out_w kh kw per forward
    # correlation and per image adjoint (counted as the zero-padded correlation it
    # replaced), whether an oracle makes it through bid_forward or bid_adjoint_image or
    # a draw runs it set up.
    Z, _, _ = _toy_blur(seed=3, size=32, kernel=5)
    adapter = BlindDeblurProblem(Z=Z, kernel_shape=(5, 5), n_tiles=16)
    problem = adapter.block_problem()
    z = adapter.initial_iterate()
    spy = _CorrelationSpy(monkeypatch)

    def work():
        return sum(2 * size * kernel.size for kind, _image, kernel, size in spy.runs if kind != "gradient")

    def oracle_work(oracle):
        spy.clear()
        oracle(np.arange(16), z.x, z.y)
        return work()

    def draw_work(batch):
        spy.clear()
        for hook in (problem.lipschitz_x, problem.lipschitz_y):
            hook(z.x, z.y, batch)
        return work()

    # The full-batch x-draw is closed-form and correlates nothing.  A pass of the
    # y-operator correlates each window as a full-batch grad_y does (the window with
    # the kernel, then with the result), so the full-batch draw costs Y_BOUND_PASSES
    # of those.  The reference for a sampled draw is six applications of the
    # full-batch x-operator, each correlating every window forward and back, as a
    # full-batch grad_x does.
    assert draw_work(np.arange(16)) == problems_module.Y_BOUND_PASSES * oracle_work(problem.grad_y) > 0
    full = 6 * oracle_work(problem.grad_x)
    assert full > 0
    for j in range(16):
        assert draw_work(np.array([j])) <= full / 4, j


def test_bid_y_draw_forms_patches_from_its_windows(monkeypatch):
    # Below the full batch the y-draw correlates the sampled tiles' windows of |X|
    # only, each twice per pass (forward with the iterate, then its kernel gradient
    # with the result), and forms no patch matrix: one window at b = 1.  The full
    # batch's one region is the whole image, so each pass correlates the whole |X|
    # twice instead, in the same two steps.
    Z, _, _ = _toy_blur(seed=3, size=32, kernel=5)
    adapter = BlindDeblurProblem(Z=Z, kernel_shape=(5, 5), n_tiles=16)
    problem = adapter.block_problem()
    z = adapter.initial_iterate()
    xv = z.x - 0.5  # signed, so the windows' |.| shows
    X = xv.reshape(adapter.image_shape)
    windows = [np.abs(X[rs.start:rs.stop + 4, cs.start:cs.stop + 4]) for rs, cs in bid_component_split(Z.shape, 16)]
    patched = []

    def counting_patches(image, kernel_shape):
        patched.append(image)
        return bid_patches(image, kernel_shape)

    # problems has no bid_patches (the patch matrix is a test reference), so this spy
    # catches one added there and called by the draw.
    monkeypatch.setattr(problems_module, "bid_patches", counting_patches, raising=False)
    spy = _CorrelationSpy(monkeypatch)

    def y_draw(batch):
        spy.clear()
        problem.lipschitz_y(xv, z.y, batch)
        assert not patched
        return [(kind, image) for kind, image, _other, _size in spy.runs]

    for j in range(16):
        seen = y_draw(np.array([j]))
        assert [kind for kind, _got in seen] == ["forward", "gradient"] * problems_module.Y_BOUND_PASSES, j
        assert all(np.array_equal(got, windows[j]) for _kind, got in seen), j
    seen = y_draw(np.arange(16))
    assert [kind for kind, _got in seen] == ["forward", "gradient"] * problems_module.Y_BOUND_PASSES
    assert all(np.array_equal(got, np.abs(X)) for _kind, got in seen)


@pytest.mark.parametrize("algorithm", ["palm", "spring-sgd"])
def test_bid_runs_correlate_tile_windows_only(monkeypatch, algorithm):
    # Every oracle and Lipschitz draw of a run below the full batch goes through the
    # tile windows: no correlation input is larger than a tile window (an image
    # adjoint reads a tile's residual).  A full-batch call (PALM's steps and draws,
    # every objective and gradient map) correlates the whole image a fixed number of
    # times: value once, grad_x once forward and once back (the image adjoint of the
    # whole residual); grad_y and each of the y-draw's passes once forward and once by
    # bid_kernel_gradient, Y_BOUND_PASSES passes in the run's first full-batch y-draw
    # and one, from its warm start, in each later one; the closed-form x-draw not at all.
    Z, _, _ = toy_blurred_image(seed=0, size=32, kernel=5)
    adapter = BlindDeblurProblem(Z=Z, kernel_shape=(5, 5), n_tiles=16)
    problem, z0 = adapter.block_problem(), adapter.initial_iterate()
    n, image, kernel = problem.n, adapter.image_shape, (5, 5)
    tiles = bid_component_split(Z.shape, 16)
    largest = np.max([(rs.stop - rs.start + 4, cs.stop - cs.start + 4) for rs, cs in tiles], axis=0)
    y_pass = [("forward", image, kernel), ("gradient", image, Z.shape)]
    per_call = {
        "value": [("forward", image, kernel)],
        "grad_x": [("forward", image, kernel), ("adjoint", Z.shape, kernel)],
        "grad_y": [("forward", image, kernel), ("gradient", image, Z.shape)],
        "lipschitz_x": [],
        "lipschitz_y": y_pass * problems_module.Y_BOUND_PASSES,
    }
    spy, calls = _CorrelationSpy(monkeypatch), {}

    def recording(name, hook):
        def call(*args):
            batch = args[2] if name.startswith("lipschitz") else args[0]
            start = len(spy.runs)
            out = hook(*args)
            seen = [(kind, image.shape, other.shape) for kind, image, other, _size in spy.runs[start:]]
            calls.setdefault((name, len(batch) == n), []).append(seen)
            return out
        return call

    hooks = ("value", "grad_x", "grad_y", "lipschitz_x", "lipschitz_y", "rows_x", "rows_mean_x")
    recorded = replace(problem, **{name: recording(name, getattr(problem, name)) for name in hooks})
    run(recorded, SolverConfig(algorithm=algorithm, epochs=2, seed=0), z0)
    assert spy.runs and ("value", True) in calls
    for (name, full), made in calls.items():
        for i, seen in enumerate(made):
            if full:
                assert seen == (y_pass if name == "lipschitz_y" and i > 0 else per_call[name]), name
            else:
                assert seen and all(h <= largest[0] and w <= largest[1] for _kind, (h, w), _kernel in seen), name
    assert ("grad_x", True) in calls and (("grad_x", False) in calls) == (algorithm != "palm")


# ---------------------------------------------------------------------------
# Quadratic toys
# ---------------------------------------------------------------------------


def test_quadratic_oracles_match_component_mean(rng):
    random_problem, info = make_random_quadratic(dim_x=3, dim_y=4, n=7, seed=5)
    separable, sep = make_separable_quadratic(dim_x=3, dim_y=4, n=7, seed=6)
    P, Q, R, s, t = info["P"], info["Q"], info["R"], info["s"], info["t"]
    a_i, b_i = sep["a_i"], sep["b_i"]
    components = {
        "random": (random_problem, lambda i, x, y: (
            0.5 * x @ P[i] @ x + 0.5 * y @ Q[i] @ y + x @ R[i] @ y + s[i] @ x + t[i] @ y,
            P[i] @ x + R[i] @ y + s[i],
            Q[i] @ y + R[i].T @ x + t[i],
        )),
        "separable": (separable, lambda i, x, y: (
            0.5 * float((x - a_i[i]) @ (x - a_i[i]) + (y - b_i[i]) @ (y - b_i[i])),
            x - a_i[i],
            y - b_i[i],
        )),
    }
    for problem, component in components.values():
        x, y = rng.standard_normal(3), rng.standard_normal(4)
        for b in (1, 3, 7):
            idx = np.sort(rng.choice(7, size=b, replace=False))
            values, gxs, gys = zip(*(component(i, x, y) for i in idx))
            assert problem.value(idx, x, y) == pytest.approx(np.mean(values), rel=1e-12)
            np.testing.assert_allclose(problem.grad_x(idx, x, y), np.mean(gxs, axis=0), rtol=1e-12)
            np.testing.assert_allclose(problem.grad_y(idx, x, y), np.mean(gys, axis=0), rtol=1e-12)


def test_prox_optimality_per_adapter():
    # Every adapter's prox must minimize gamma*reg(u) + 0.5||u - v||^2: its
    # value is no worse than staying at v or moving to any feasible
    # candidate, over 100 random (gamma, v) pairs per problem.
    rng = np.random.default_rng(77)
    Z, _, _ = _toy_blur(seed=12, size=8, kernel=3)
    adapters = [
        _nmf_instance(seed=13)[0],
        SparsePcaProblem(A=rng.standard_normal((6, 5)), r=2, lam1=0.3, lam2=0.2),
        BlindDeblurProblem(Z=Z, kernel_shape=(3, 3), n_tiles=2),
    ]
    for adapter in adapters:
        problem = adapter.block_problem()
        for _ in range(100):
            gamma = float(rng.uniform(0.05, 5.0))
            for dim, prox, reg in (
                (problem.dim_x, problem.prox_x, problem.reg_x_value),
                (problem.dim_y, problem.prox_y, problem.reg_y_value),
            ):
                v = rng.standard_normal(dim)
                p = np.asarray(prox(gamma, v))
                assert np.isfinite(reg(p))
                p_val = gamma * reg(p) + 0.5 * float(np.sum((p - v) ** 2))
                if np.isfinite(reg(v)):
                    assert p_val <= gamma * reg(v) + 1e-9
                # A feasible competitor: the prox output of a nearby point.
                u = np.asarray(prox(gamma, v + 0.3 * rng.standard_normal(dim)))
                u_val = gamma * reg(u) + 0.5 * float(np.sum((u - v) ** 2))
                assert p_val <= u_val + 1e-9


def test_bid_feasibility_indicators():
    Z, _, _ = _toy_blur(seed=11, size=8, kernel=3)
    adapter = BlindDeblurProblem(Z=Z, kernel_shape=(3, 3), n_tiles=2)
    problem = adapter.block_problem()
    z0 = adapter.initial_iterate()
    assert objective(problem, z0) < np.inf
    bad_kernel = np.full(9, 0.5)  # sums to 4.5
    assert objective(problem, Iterate(z0.x, bad_kernel)) == np.inf
    bad_image = z0.x.copy()
    bad_image[0] = 1.5
    assert objective(problem, Iterate(bad_image, z0.y)) == np.inf


def test_bid_image_prox_reports_non_finite_entries_as_nan(rng):
    problem = BlindDeblurProblem(Z=rng.random((6, 6)), kernel_shape=(3, 3), n_tiles=4).block_problem()
    v = 2.0 * rng.standard_normal(problem.dim_x)
    assert np.array_equal(problem.prox_x(1.0, v), np.clip(v, 0.0, 1.0))  # finite: the clip, bit for bit
    for bad in (np.inf, -np.inf, np.nan):
        w = v.copy()
        w[5] = bad
        assert np.isnan(problem.prox_x(1.0, w)).all()


def test_bid_run_with_an_overflowing_image_step_diverges():
    # At b = 1 the image gradient is n times the mean's, so a 1e308 step
    # overflows; clipping the infinities into [0, 1] used to hide that and
    # report a finite objective.
    Z, _, _ = _toy_blur(seed=0, size=16, kernel=3)
    adapter = BlindDeblurProblem(Z=Z, kernel_shape=(3, 3), n_tiles=4)
    cfg = SolverConfig(algorithm="spring-sgd", batch_size=1, epochs=2, seed=0, step_policy="fixed",
                       fixed_steps=(1e308, 0.01))
    with pytest.raises(DivergenceError, match="non-finite iterate after spring x-update"):
        run(adapter.block_problem(), cfg, adapter.initial_iterate())


# ---------------------------------------------------------------------------
# Lipschitz draws, pinned bitwise
# ---------------------------------------------------------------------------

# Each adapter's draw, its hook's (value, operator applications), over batches
# (full, 1, 2, 3 components), each drawn twice in a row: no draw reads a random
# stream, so the two agree.  The 'bid' values were recorded when each hook still
# ran the power method itself, and re-recorded when the correlations became
# Toeplitz products and the full-batch x-draw went window by window (largest
# relative change 1.9e-16).  The two full-batch ('bid', 'x') entries are the
# closed-form bound 2 ||Y||_1^2 + 16 lam theta since; the power method's were
# 9.626694593952784 and 9.59906745613644.  The other 'bid' entries are
# Collatz-Wielandt bounds since, each at or above the power method's 30-iteration
# value for its batch: x 15.81212413028749, 11.906062065143747, 12.871171533966555
# and y 313.7081508405044, 85.48523968837314, 209.5070681101507, 126.65835299378942.
# Two ('bid', 'y') entries moved one ulp down when every kernel adjoint became
# bid_kernel_gradient with 16-column blocks, which sums in another order: the full
# batch's 316.3192940576789 -> 316.31929405767886 and batch (1, 2, 5)'s
# 126.79029041356753 -> 126.79029041356752.
# The 'nmf' and 'pca' values are eigvalsh's exact top eigenvalues of the scaled
# Gram matrices since, each charged one application; the 5-iteration power
# method's, from two start vectors per batch, are in the change log.
DRAW_GRID = [batch for batch in (None, (1,), (0, 3), (1, 2, 5)) for _repeat in range(2)]
PINNED_DRAWS = {
    ('nmf', 'x'): ([9.3025490802467] * 2 + [4.913417114955097] * 2 + [9.536364523287347] * 2
                   + [10.208286700282414] * 2, [1] * 8),
    ('nmf', 'y'): ([5.280930718093053] * 2 + [105.61861436186109] * 2 + [52.809307180930546] * 2
                   + [35.20620478728702] * 2, [1] * 8),
    ('pca', 'x'): ([11.126788175102698] * 2 + [36.72455463836493] * 2 + [49.40704904851361] * 2
                   + [18.80327644463911] * 2, [1] * 8),
    ('pca', 'y'): ([23.39849097467013] * 2 + [467.9698194934025] * 2 + [233.98490974670125] * 2
                   + [155.98993983113417] * 2, [1] * 8),
    ('bid', 'x'): ([10.0] * 2 + [15.812631170599388] * 2 + [11.906315585299694] * 2 + [12.927133375888335] * 2,
                   [0] * 2 + [4] * 6),
    ('bid', 'y'): ([316.31929405767886] * 2 + [85.54543025583669] * 2 + [209.9962100421703] * 2
                   + [126.79029041356752] * 2, [2] * 8),
}


def _pinned_draw_problem(name):
    if name == "bid":
        Z, _, _ = toy_blurred_image(seed=0, size=16, kernel=5)
        adapter = BlindDeblurProblem(Z=Z, kernel_shape=(5, 5), n_tiles=16)
        return adapter.block_problem(), adapter.initial_iterate()
    A = toy_nmf_matrix(seed=0)
    adapter = SparseNmfProblem(A=A, r=5, s=10) if name == "nmf" else SparsePcaProblem(A=A, r=5)
    return adapter.block_problem(), adapter.initial_iterate(seed=7)


def _grid_draws(hook, z, n):
    return [hook(z.x, z.y, np.arange(n) if batch is None else np.array(batch)) for batch in DRAW_GRID]


@pytest.mark.parametrize("block", ["x", "y"])
@pytest.mark.parametrize("name", ["nmf", "pca", "bid"])
def test_lipschitz_draws_match_pinned_values(name, block):
    problem, z = _pinned_draw_problem(name)
    hook = problem.lipschitz_x if block == "x" else problem.lipschitz_y
    assert _grid_draws(hook, z, problem.n) == list(zip(*PINNED_DRAWS[name, block]))


def test_quadratic_lipschitz_draws_are_their_constants():
    separable, _ = make_separable_quadratic(n=8, seed=3)
    coupled, info = make_random_quadratic(n=8, seed=3)
    z = Iterate(np.ones(4), -np.ones(4))
    for problem, lip_x, lip_y in ((separable, 1.0, 1.0), (coupled, info["lip_x"], info["lip_y"])):
        assert _grid_draws(problem.lipschitz_x, z, problem.n) == [(lip_x, 0)] * len(DRAW_GRID)
        assert _grid_draws(problem.lipschitz_y, z, problem.n) == [(lip_y, 0)] * len(DRAW_GRID)
