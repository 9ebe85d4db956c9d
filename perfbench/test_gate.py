"""The correctness gate accepts real solves and rejects tampered ones.

    python3 -m pytest -q perfbench
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import gate  # noqa: E402
from springopt.harness.datasets import toy_blurred_image, toy_nmf_matrix  # noqa: E402
from springopt.problems import BlindDeblurProblem, SparseNmfProblem  # noqa: E402
from springopt.solver import SolverConfig, run  # noqa: E402


@pytest.fixture(scope="module")
def nmf():
    A = toy_nmf_matrix(seed=3)
    adapter = SparseNmfProblem(A=A, r=5, s=10)
    result = run(adapter.block_problem(), SolverConfig("spring-saga", epochs=3, seed=3),
                 adapter.initial_iterate(3))
    data = {"kind": "nmf", "A": A, "r": 5, "s": 10}
    return data, result.z.x.copy(), result.z.y.copy(), result.trace.rows[-1].objective


@pytest.fixture(scope="module")
def bid():
    Z, _, _ = toy_blurred_image(seed=3, size=16, kernel=3)
    adapter = BlindDeblurProblem(Z=Z, kernel_shape=(3, 3), n_tiles=4)
    result = run(adapter.block_problem(), SolverConfig("spring-sarah", epochs=2, seed=3),
                 adapter.initial_iterate())
    data = {"kind": "bid", "Z": Z, "kernel": 3, "lam": adapter.lam, "theta": adapter.theta}
    return data, result.z.x.copy(), result.z.y.copy(), result.trace.rows[-1].objective


@pytest.mark.parametrize("case", ["nmf", "bid"])
def test_accepts_a_real_solve(case, request):
    data, x, y, objective = request.getfixturevalue(case)
    assert gate.check(data, x, y, objective, target=objective) == []


@pytest.mark.parametrize("case", ["nmf", "bid"])
def test_rejects_a_tampered_objective(case, request):
    data, x, y, objective = request.getfixturevalue(case)
    tampered = objective * (1.0 - 1e-6)
    assert any("does not match" in p for p in gate.check(data, x, y, tampered, target=objective))


@pytest.mark.parametrize("case", ["nmf", "bid"])
def test_rejects_an_objective_above_the_target(case, request):
    data, x, y, objective = request.getfixturevalue(case)
    assert any("above the target" in p
               for p in gate.check(data, x, y, objective, target=objective * (1.0 - 1e-6)))


def test_rejects_infeasible_nmf_iterates(nmf):
    data, x, y, objective = nmf
    X = x.reshape(50, 5).copy()
    X[0, 0] = -1e-3
    assert any("negative" in p for p in gate.check(data, X.ravel(), y, objective, objective))
    dense = np.full((50, 5), 1e-3)
    assert any("nonzeros" in p for p in gate.check(data, dense.ravel(), y, objective, objective))


def test_rejects_infeasible_bid_iterates(bid):
    data, x, y, objective = bid
    heavy = np.full(9, 0.2)  # sums to 1.8
    assert any("kernel sum" in p for p in gate.check(data, x, heavy, objective, objective))
    bright = x.copy()
    bright[0] = 1.5
    assert any("image leaves" in p for p in gate.check(data, bright, y, objective, objective))


@pytest.mark.parametrize("case", ["nmf", "bid"])
def test_a_fixed_length_solve_has_no_target(case, request):
    data, x, y, objective = request.getfixturevalue(case)
    assert gate.check(data, x, y, objective, target=None) == []
