"""The trace row's objective and gradient map, pinned bit for bit to their previous code.

``core.objective`` and ``core.smooth_value`` check Python floats with
``math``, the factorization ``value`` finds its runs on Python ints and sums
with ``ndarray.dot``, and every family's regularizer values are single ufunc
reductions.  The ``previous_*`` functions below are the code they replaced,
verbatim; each result must match theirs byte for byte, on feasible and
infeasible iterates, on NaN, infinite and negative-zero entries, and on
ragged, gathered and run-mixed batches.
"""

import math
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from springopt.core import Iterate, SmoothTerm, check_dims, full_grad_x, full_grad_y, objective, smooth_value
from springopt.diagnostics import generalized_gradient_map
from springopt.harness.datasets import toy_nmf_matrix
from springopt.problems import (
    BlindDeblurProblem,
    SparseNmfProblem,
    SparsePcaProblem,
    bid_potential,
)

from monitors import image_gradients

pytestmark = pytest.mark.numpy_floor

# ---------------------------------------------------------------------------
# The previous code, verbatim but for the names
# ---------------------------------------------------------------------------


def previous_smooth_value(problem, z):
    check_dims(problem, z)
    val = float(problem.value(np.arange(problem.n), z.x, z.y))
    if problem.smooth_x is not None:
        val += float(problem.smooth_x.value(z.x))
    return val


def previous_objective(problem, z):
    check_dims(problem, z)
    jx = float(problem.reg_x_value(z.x))
    ry = float(problem.reg_y_value(z.y))
    if np.isnan(jx) or np.isnan(ry):
        raise FloatingPointError("regularizer value is NaN")
    if np.isinf(jx) or np.isinf(ry):
        return float("inf")
    val = jx + previous_smooth_value(problem, z) + ry
    if np.isnan(val):
        raise FloatingPointError("objective evaluated to NaN (numerical failure)")
    return val


def previous_generalized_gradient_map(problem, z, gamma1, gamma2, grads):
    gx_full, gy_full = grads
    g_x = (z.x - problem.prox_x(gamma1, z.x - gamma1 * gx_full)) / gamma1
    g_y = (z.y - problem.prox_y(gamma2, z.y - gamma2 * gy_full)) / gamma2
    return g_x, g_y, float(g_x @ g_x + g_y @ g_y)


def previous_factorization_value(A, r):
    m, d = A.shape
    A_T = np.ascontiguousarray(A.T)

    def value(idx, xv, yv):
        X_T, Y_T = np.ascontiguousarray(xv.reshape(m, r).T), yv.reshape(r, d).T
        buf, total = np.empty((min(2 * r, len(idx)), m)), 0.0
        for start in range(0, len(idx), 2 * r):
            part = idx[start:start + 2 * r]
            resid = buf[:len(part)]
            if part[-1] - part[0] == len(part) - 1:
                part = slice(part[0], part[-1] + 1)
            np.matmul(Y_T[part], X_T, out=resid)
            resid -= A_T[part]
            total += float(np.vdot(resid, resid))
        return d * total / len(idx)

    return value


def previous_nmf_regs(m, r, s):
    def reg_x(xv):
        X = xv.reshape(m, r)
        feasible = np.all(X >= 0) and np.all(np.count_nonzero(X, axis=0) <= s)
        return 0.0 if feasible else float("inf")

    def reg_y(yv):
        return 0.0 if np.all(yv >= 0) else float("inf")

    return reg_x, reg_y


def previous_pca_regs(lam1, lam2):
    def reg_x(xv):
        return lam1 * float(np.abs(xv).sum())

    def reg_y(yv):
        return lam2 * float(np.abs(yv).sum())

    return reg_x, reg_y


def previous_bid_terms(hx, wx, lam, theta):
    def reg_value(xv):
        dh, dv = image_gradients(xv.reshape(hx, wx))
        return lam * float(bid_potential(dh, theta).sum() + bid_potential(dv, theta).sum())

    def reg_x(xv):
        return 0.0 if np.all(xv >= 0) and np.all(xv <= 1) else float("inf")

    def reg_y(yv):
        feasible = np.all(yv >= 0) and np.all(yv <= 1) and yv.sum() <= 1.0
        return 0.0 if feasible else float("inf")

    return reg_value, reg_x, reg_y


# ---------------------------------------------------------------------------
# The problems, each with its previous twin
# ---------------------------------------------------------------------------

# The shape of test_factorization_value_matches_fsum_reference: value sweeps 2r = 8
# components at a time, and these batches leave a ragged last part, gather parts
# that do not run, and mix runs (sliced) with gathered parts.
M, D, R = 30, 97, 4
BATCHES = [np.arange(D), np.arange(3, 12), np.sort(np.random.default_rng(28).choice(D, size=13, replace=False)),
           np.concatenate([np.arange(0, 8), np.arange(20, 27), [40, 45, 91]]),
           np.concatenate([[2, 5], np.arange(10, 30), [70]])]
FAMILIES = ("nmf", "pca", "bid")


def _twins(family):
    """(problem, the problem with the previous value and regularizer hooks)."""
    if family == "bid":
        Z = np.random.default_rng(5).random((11, 13))
        adapter = BlindDeblurProblem(Z=Z, kernel_shape=(3, 4), lam=2e-3, theta=50.0, n_tiles=6)
        problem = adapter.block_problem()
        reg_value, reg_x, reg_y = previous_bid_terms(*adapter.image_shape, adapter.lam, adapter.theta)
        return problem, replace(problem, reg_x_value=reg_x, reg_y_value=reg_y,
                                smooth_x=SmoothTerm(reg_value, problem.smooth_x.grad))
    A = toy_nmf_matrix(seed=4, shape=(M, D), rank=3)
    if family == "nmf":
        adapter = SparseNmfProblem(A=A, r=R, s=7)
        reg_x, reg_y = previous_nmf_regs(M, R, adapter.s)
    else:
        adapter = SparsePcaProblem(A=A - 0.5, r=R, lam1=0.3, lam2=0.07)
        reg_x, reg_y = previous_pca_regs(adapter.lam1, adapter.lam2)
    problem = adapter.block_problem()
    return problem, replace(problem, value=previous_factorization_value(adapter.A, R),
                            reg_x_value=reg_x, reg_y_value=reg_y)


TWINS = {family: _twins(family) for family in FAMILIES}


def _unchecked_iterate(x, y):
    # An Iterate that skips the finiteness check, so NaN and inf entries reach the hooks.
    z = object.__new__(Iterate)
    object.__setattr__(z, "x", x)
    object.__setattr__(z, "y", y)
    return z


def _outcome(call):
    """What a call gives, as bytes: its float's bits (and type), or its exception."""
    try:
        result = call()
    except FloatingPointError as exc:
        return ("raised", str(exc))
    if isinstance(result, tuple):
        return tuple(_outcome(lambda part=part: part) for part in result)
    if isinstance(result, np.ndarray):
        return ("array", result.dtype.str, result.shape, result.tobytes())
    return (type(result).__name__, struct.pack("<d", result))


SPECIALS = (math.nan, -math.nan, math.inf, -math.inf, -0.0, 0.0, -1.0, 2.0)
EDITS = st.lists(st.tuples(st.booleans(), st.integers(0, 10**6), st.sampled_from(SPECIALS)), max_size=6)


def _iterate(family, seed, feasible, edits):
    """A random iterate, projected onto the feasible set or not, with ``edits`` written in."""
    problem, _ = TWINS[family]
    rng = np.random.default_rng(seed)
    if family == "bid":
        # Around the box, and a kernel summing to about 2, whose projection sums to 1.
        x, y = 1.2 * rng.random(problem.dim_x) - 0.1, 4.0 * rng.random(problem.dim_y) / problem.dim_y
    else:
        x, y = rng.standard_normal(problem.dim_x), rng.standard_normal(problem.dim_y)
    if feasible:
        x, y = problem.prox_x(0.1, x), problem.prox_y(0.1, y)
    for on_x, position, special in edits:
        block = x if on_x else y
        block[position % block.size] = special
    return x, y


# Two infinite pixels whose forward difference is inf - inf: the edge term's value is NaN.
@example(family="bid", seed=0, feasible=False, edits=[(True, 22279, math.inf), (True, 385847, math.inf)])
@given(family=st.sampled_from(FAMILIES), seed=st.integers(0, 2**32 - 1), feasible=st.booleans(), edits=EDITS)
def test_trace_row_matches_the_previous_code_bitwise(family, seed, feasible, edits):
    problem, previous = TWINS[family]
    x, y = _iterate(family, seed, feasible, edits)
    z = _unchecked_iterate(x, y)
    # Inside the errstate, as the objective is: an edited entry may make a value NaN or inf.
    with np.errstate(over="ignore", invalid="ignore"):
        assert _outcome(lambda: problem.reg_x_value(x)) == _outcome(lambda: previous.reg_x_value(x))
        assert _outcome(lambda: problem.reg_y_value(y)) == _outcome(lambda: previous.reg_y_value(y))
        if problem.smooth_x is not None:
            assert _outcome(lambda: problem.smooth_x.value(x)) == _outcome(lambda: previous.smooth_x.value(x))
        assert _outcome(lambda: smooth_value(problem, z)) == _outcome(lambda: previous_smooth_value(previous, z))
        assert _outcome(lambda: objective(problem, z)) == _outcome(lambda: previous_objective(previous, z))


@given(family=st.sampled_from(("nmf", "pca")), seed=st.integers(0, 2**32 - 1), feasible=st.booleans(),
       edits=EDITS)
def test_factorization_value_matches_the_previous_value_bitwise(family, seed, feasible, edits):
    problem, previous = TWINS[family]
    x, y = _iterate(family, seed, feasible, edits)
    with np.errstate(over="ignore", invalid="ignore"):
        for idx in BATCHES:
            assert _outcome(lambda: problem.value(idx, x, y)) == _outcome(lambda: previous.value(idx, x, y)), idx


@pytest.mark.parametrize("value, want", [
    (math.nan, ("raised", "objective evaluated to NaN (numerical failure)")),
    (math.inf, ("float", struct.pack("<d", math.inf))),
    (-math.inf, ("float", struct.pack("<d", -math.inf))),
])
def test_objective_of_a_non_finite_value_matches_the_previous_code(value, want):
    # Finite regularizer values and a value oracle that is not finite: an iterate's
    # entries would make the regularizer's value NaN or inf first, so the oracle says it.
    problem, previous = TWINS["pca"]
    x, y = _iterate("pca", 0, False, [])
    z, hook = Iterate(x, y), lambda idx, xv, yv: value
    got = _outcome(lambda: objective(replace(problem, value=hook), z))
    assert got == _outcome(lambda: previous_objective(replace(previous, value=hook), z)) == want


@given(family=st.sampled_from(FAMILIES), seed=st.integers(0, 2**32 - 1), feasible=st.booleans(),
       gamma=st.floats(1e-4, 10.0))
def test_gradient_map_matches_the_previous_map_bitwise(family, seed, feasible, gamma):
    problem, _ = TWINS[family]
    x, y = _iterate(family, seed, feasible, [])
    z = Iterate(x, y)
    grads = (full_grad_x(problem, z), full_grad_y(problem, z))
    got = generalized_gradient_map(problem, z, z.x, gamma, gamma / 3.0, grads=grads)
    want = previous_generalized_gradient_map(problem, z, gamma, gamma / 3.0, grads)
    assert _outcome(lambda: (got.g_x, got.g_y, got.norm_sq)) == _outcome(lambda: want)
