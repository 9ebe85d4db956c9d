"""The fixed cost of a SPRING step: which wrappers it avoids, and how many calls it makes."""

import cProfile
import pstats

import numpy as np
import pytest

from springopt import problems as problems_module
from springopt import solver as solver_module
from springopt.harness.datasets import toy_blurred_image, toy_nmf_matrix
from springopt.problems import BlindDeblurProblem, SparseNmfProblem, SparsePcaProblem
from springopt.rng import stream_rng
from springopt.solver import SolverConfig, run

SPRING = ("spring-sgd", "spring-saga", "spring-sarah")


@pytest.fixture(scope="module")
def toy_nmf():
    """The toy-nmf-c11 benchmark shape: 50 x 20, r = 5, s = 10."""
    adapter = SparseNmfProblem(A=toy_nmf_matrix(seed=0, shape=(50, 20), rank=3), r=5, s=10)
    return adapter.block_problem(), adapter.initial_iterate(0)


class _SpyRng:
    """A generator that records the name of every attribute read through it."""

    def __init__(self, rng, names):
        self._rng, self._names = rng, names

    def __getattr__(self, name):
        self._names.append(name)
        return getattr(self._rng, name)


@pytest.mark.parametrize("algorithm", SPRING)
def test_b1_epoch_calls_neither_choice_nor_eigvalsh(monkeypatch, toy_nmf, algorithm):
    # At b = 1 a batch is choice's one bounded draw, taken with integers, and the NMF
    # and PCA hooks call the LAPACK gufunc without np.linalg.eigvalsh's wrapper.
    problem, z0 = toy_nmf
    names, solves = [], []

    def no_eigvalsh(*args, **kwargs):
        raise AssertionError("np.linalg.eigvalsh called")

    def counting_eigvalsh(G, **kwargs):
        solves.append(G.shape)
        return lapack(G, **kwargs)

    lapack = problems_module._eigvalsh_lo
    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
    monkeypatch.setattr(problems_module, "_eigvalsh_lo", counting_eigvalsh)
    monkeypatch.setattr(solver_module, "stream_rng", lambda seed, purpose: _SpyRng(stream_rng(seed, purpose), names))
    run(problem, SolverConfig(algorithm=algorithm, batch_size=1, epochs=1, warm_start=False), z0)
    assert "choice" not in names
    assert names.count("integers") == 3 * problem.n  # batch_x, batch_y and lip_batch, once per step
    assert len(solves) >= 2 * problem.n and set(solves) == {(5, 5)}

    A = toy_nmf_matrix(seed=1, shape=(12, 9), rank=3)
    for adapter in (SparseNmfProblem(A=A, r=4, s=6), SparsePcaProblem(A=A, r=4)):
        factorization, z = adapter.block_problem(), adapter.initial_iterate(3)
        for batch in (np.array([4]), np.array([0, 7]), np.arange(9)):
            for hook in (factorization.lipschitz_x, factorization.lipschitz_y):
                assert hook(z.x, z.y, batch)[1] == 1


# Python calls per SPRING step on the toy-nmf-c11 shape at b = 1, as cProfile counts
# them (C functions included), measured with numpy 2.4.6 on CPython 3.11: SGD 110,
# SAGA 122, SARAH 131.  Other numpy versions wrap some functions differently.
CALL_BUDGETS = {"spring-sgd": 120, "spring-saga": 132, "spring-sarah": 142}


def _profiled_calls(problem, z0, config):
    profile = cProfile.Profile()
    profile.enable()
    try:
        run(problem, config, z0)
    finally:
        profile.disable()
    return pstats.Stats(profile).total_calls


def _calls_per_step(problem, z0, algorithm):
    # A cold-start solve with the gradient map traced, after one unprofiled warm-up
    # run: the calls of 3 epochs less those of 1, over the 2n steps between.  The
    # count repeats exactly for a fixed seed, so it catches added per-step overhead
    # without a timing run.
    def config(epochs):
        return SolverConfig(algorithm=algorithm, batch_size=1, epochs=epochs, warm_start=False,
                            track_grad_map=True)

    run(problem, config(3), z0)
    return (_profiled_calls(problem, z0, config(3)) - _profiled_calls(problem, z0, config(1))) / (2 * problem.n)


@pytest.mark.parametrize("algorithm", SPRING)
def test_spring_step_stays_within_its_call_budget(toy_nmf, algorithm):
    per_step = _calls_per_step(*toy_nmf, algorithm)
    assert per_step <= CALL_BUDGETS[algorithm], per_step


# The same count at bid-medium's shape (64 x 64 image, 9 x 9 kernel, 16 tiles, b = 1),
# measured with numpy 2.4.6 on CPython 3.11: SGD 374.6, SAGA 453.3, SARAH 487.2.  Most
# of a step's calls are its two Lipschitz draws, which set their correlations up once
# and run them on each pass of their bounds.
BID_CALL_BUDGETS = {"spring-sgd": 382, "spring-saga": 461, "spring-sarah": 495}


@pytest.mark.parametrize("algorithm", SPRING)
def test_bid_spring_step_stays_within_its_call_budget(algorithm):
    Z, _image, _kernel = toy_blurred_image(seed=0, size=64, kernel=9)
    adapter = BlindDeblurProblem(Z=Z, kernel_shape=(9, 9), n_tiles=16)
    per_step = _calls_per_step(adapter.block_problem(), adapter.initial_iterate(), algorithm)
    assert per_step <= BID_CALL_BUDGETS[algorithm], per_step
