"""Per-layer timings at the benchmark's shapes.

* the blind-deconvolution kernels on a bid-medium tile window (a 14 x 14 tile
  of the 56 x 56 residual grid grown by the 9 x 9 kernel to a 22 x 22 image),
  on the full 64 x 64 image, and on a 256 x 256 image, the size of a
  large deconvolution benchmark, where ``bid_forward`` runs several column
  blocks; ``bid_kernel_gradient``, the full batch's kernel adjoint, beside
  ``bid_adjoint_kernel``, the windows';
* the edge regularizer's gradient (``smooth_x.grad``) on bid-medium's 64 x 64
  image;
* the NMF/PCA batch oracles (``grad_x``, ``grad_y``, ``rows_x``, ``rows_y`` and
  ``value``) at toy-nmf-c11 shapes (50 x 20, r = 5; b = 1) and nmf-medium
  shapes (b = 13 and the full batch);
* the blind-deconvolution batch oracles (``grad_x``, ``grad_y`` and ``value``)
  and SAGA x-row oracle (``rows_x``, and ``rows_mean_x`` decoding its rows) at
  bid-medium shapes (16 tiles; b = 1 and the full batch, where the oracles
  work on the one image residual);
* each block's Lipschitz hook, the value the solver draws (the NMF hooks'
  exact r x r Gram eigenvalue, the BID hooks' bounds) at
  nmf-medium shapes (200 x 500, r = 10; b = 13 and the full batch) and
  bid-medium shapes (16 tiles; b = 1 and the full batch);
* the L0 prox on nmf-medium's 200 x 10 factor X, and the kernel projection
  on bid-medium's 9 x 9 kernel;
* one cold SPRING step (SGD, and SAGA's corrected estimate without the warm
  start) at nmf-medium shapes (b = 13) and bid-medium shapes (b = 1), with
  one-over-L steps from full-batch draws at the start;
* the fixed per-step costs: building an ``Iterate`` at nmf-medium's block
  sizes (2000, 5000), drawing one b = 13 batch of n = 500 and one b = 1
  batch of toy-nmf-c11's n = 20, and the NMF hooks' top eigenvalue of an
  r x r Gram matrix at toy-nmf-c11's r = 5 and nmf-medium's r = 10;
* one cold ``solver.run`` epoch (no warm start, practical steps, gradient
  map traced) per algorithm but inertial PALM at the toy-nmf-c11 shape
  (50 x 20, r = 5, b = 1), where per-run and per-step overheads dominate,
  and of PALM, inertial PALM, SGD and SAGA at bid-medium shapes (b = 1),
  whose draws are all bounds (as in ``test_bid_lipschitz_draw``).
"""

import numpy as np
import pytest

from springopt.core import Iterate
from springopt.estimators import BatchSampler, SagaState, sample_batch
from springopt.harness.datasets import toy_blurred_image, toy_nmf_matrix
from springopt.problems import (
    BlindDeblurProblem,
    SparseNmfProblem,
    _top_eigenvalue,
    bid_adjoint_image,
    bid_adjoint_kernel,
    bid_forward,
    bid_kernel_gradient,
    project_box_l1,
    prox_l0_nonneg_columns,
)
from springopt.rng import stream_rng
from springopt.solver import EstimatorDriver, SolverConfig, run, spring_step

pytestmark = pytest.mark.benchmark(max_time=0.25, warmup=True)

KERNEL = 9
IMAGE_SHAPES = {"tile": (22, 22), "full": (64, 64), "large": (256, 256)}


@pytest.fixture(scope="module")
def nmf():
    adapter = SparseNmfProblem(A=toy_nmf_matrix(seed=0, shape=(200, 500), rank=10), r=10, s=40)
    return adapter.block_problem(), adapter.initial_iterate(0)


@pytest.fixture(scope="module")
def toy_nmf():
    adapter = SparseNmfProblem(A=toy_nmf_matrix(seed=0, shape=(50, 20), rank=3), r=5, s=10)
    return adapter.block_problem(), adapter.initial_iterate(0)


@pytest.fixture(scope="module")
def bid():
    Z, _image, _kernel = toy_blurred_image(seed=0, size=64, kernel=KERNEL)
    adapter = BlindDeblurProblem(Z=Z, kernel_shape=(KERNEL, KERNEL), n_tiles=16)
    return adapter.block_problem(), adapter.initial_iterate()


@pytest.mark.parametrize("shape", IMAGE_SHAPES)
@pytest.mark.parametrize("kernel", ["forward", "adjoint_image", "adjoint_kernel", "kernel_gradient"])
def test_bid_kernel(benchmark, kernel, shape):
    rng = np.random.default_rng(0)
    h, w = IMAGE_SHAPES[shape]
    X = rng.random((h + 8, w + 8))[4:4 + h, 4:4 + w]  # a window of a larger image, as the tiles pass it
    Y = rng.random((KERNEL, KERNEL))
    U = rng.random((h - KERNEL + 1, w - KERNEL + 1))
    calls = {
        "forward": (bid_forward, X, Y),
        "adjoint_image": (bid_adjoint_image, U, Y),
        "adjoint_kernel": (bid_adjoint_kernel, U, X),
        "kernel_gradient": (bid_kernel_gradient, X, U),
    }
    fn, *args = calls[kernel]
    benchmark(fn, *args)


def test_bid_smooth_grad(benchmark, bid):
    problem, z = bid
    benchmark(problem.smooth_x.grad, z.x)


NMF_BATCHES = {"toy-b1": ("toy_nmf", 1), "medium-b13": ("nmf", 13), "medium-full": ("nmf", None)}


@pytest.mark.parametrize("batch", NMF_BATCHES)
@pytest.mark.parametrize("oracle", ["grad_x", "grad_y", "rows_x", "rows_y", "value"])
def test_nmf_oracle(benchmark, request, oracle, batch):
    fixture, b = NMF_BATCHES[batch]
    problem, z = request.getfixturevalue(fixture)
    idx = np.arange(problem.n) if b is None else np.sort(np.random.default_rng(1).choice(problem.n, b, replace=False))
    benchmark(getattr(problem, oracle), idx, z.x, z.y)


@pytest.mark.parametrize("b", [1, None], ids=["b1", "full"])
@pytest.mark.parametrize("oracle", ["grad_x", "grad_y", "value"])
def test_bid_oracle(benchmark, bid, oracle, b):
    problem, z = bid
    idx = np.arange(problem.n) if b is None else np.array([5])
    benchmark(getattr(problem, oracle), idx, z.x, z.y)


@pytest.mark.parametrize("b", [1, None], ids=["b1", "full"])
@pytest.mark.parametrize("oracle", ["rows_x", "rows_mean_x"])
def test_bid_row_oracle(benchmark, bid, oracle, b):
    problem, z = bid
    idx = np.arange(problem.n) if b is None else np.array([5])
    if oracle == "rows_x":
        benchmark(problem.rows_x, idx, z.x, z.y)
    else:
        benchmark(problem.rows_mean_x, idx, problem.rows_x(idx, z.x, z.y))


def _draw(benchmark, problem, z, block, batch):
    hook = problem.lipschitz_x if block == "x" else problem.lipschitz_y
    benchmark(hook, z.x, z.y, batch)


@pytest.mark.parametrize("block", ["x", "y"])
@pytest.mark.parametrize("b", [13, None], ids=["b13", "full"])
def test_nmf_lipschitz_draw(benchmark, nmf, block, b):
    problem, z = nmf
    batch = np.arange(problem.n) if b is None else np.sort(np.random.default_rng(1).choice(problem.n, size=b, replace=False))
    _draw(benchmark, problem, z, block, batch)


@pytest.mark.parametrize("block", ["x", "y"])
@pytest.mark.parametrize("b", [1, None], ids=["b1", "full"])
def test_bid_lipschitz_draw(benchmark, bid, block, b):
    problem, z = bid
    _draw(benchmark, problem, z, block, np.arange(problem.n) if b is None else np.array([5]))


def test_prox_l0(benchmark):
    V = np.random.default_rng(2).standard_normal((200, 10))
    benchmark(prox_l0_nonneg_columns, V, 40)


def test_project_box_l1(benchmark):
    V = np.random.default_rng(3).random((KERNEL, KERNEL))  # sums to ~40: the sum constraint is active
    benchmark(project_box_l1, V)


@pytest.mark.parametrize("kind", ["sgd", "saga"])
@pytest.mark.parametrize("workload", ["nmf", "bid"])
def test_spring_step(benchmark, request, workload, kind):
    problem, z = request.getfixturevalue(workload)
    b = 13 if workload == "nmf" else 1
    driver = EstimatorDriver(kind=kind, sampler_x=BatchSampler(problem.n, b, stream_rng(0, "batch_x")),
                             sampler_y=BatchSampler(problem.n, b, stream_rng(0, "batch_y")))
    if kind == "saga":
        driver.saga = SagaState.from_problem(problem)
    gamma_x = 1.0 / problem.lipschitz_x(z.x, z.y, np.arange(problem.n))[0]
    gamma_y = 1.0 / problem.lipschitz_y(z.x, z.y, np.arange(problem.n))[0]
    benchmark(spring_step, problem, z, driver, gamma_x, gamma_y)


def test_iterate(benchmark):
    rng = np.random.default_rng(4)
    x, y = rng.random(2000), rng.random(5000)
    benchmark(Iterate, x, y)


@pytest.mark.parametrize("n, b", [(500, 13), (20, 1)], ids=["medium-b13", "toy-b1"])
def test_sample_batch(benchmark, n, b):
    sampler = BatchSampler(n, b, np.random.default_rng(5))
    benchmark(sample_batch, sampler)


@pytest.mark.parametrize("r", [5, 10])
def test_top_eigenvalue(benchmark, r):
    cols = np.random.default_rng(6).random((r, 13))
    benchmark(_top_eigenvalue, cols @ cols.T)


@pytest.mark.parametrize("workload, algorithm", [
    ("toy_nmf", "palm"), ("toy_nmf", "spring-sgd"), ("toy_nmf", "spring-saga"), ("toy_nmf", "spring-sarah"),
    ("bid", "palm"), ("bid", "ipalm"), ("bid", "spring-sgd"), ("bid", "spring-saga"),
], ids=["palm", "spring-sgd", "spring-saga", "spring-sarah", "bid-palm", "bid-ipalm", "bid-spring-sgd",
        "bid-spring-saga"])
def test_run_epoch(benchmark, request, workload, algorithm):
    problem, z0 = request.getfixturevalue(workload)
    config = SolverConfig(algorithm=algorithm, batch_size=1, epochs=1, seed=0, warm_start=False)
    benchmark(run, problem, config, z0)
