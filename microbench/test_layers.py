"""Per-layer timings at the benchmark's shapes.

* the blind-deconvolution kernels on a bid-medium tile window (a 14 x 14 tile
  of the 56 x 56 residual grid grown by the 9 x 9 kernel to a 22 x 22 image)
  and on the full 64 x 64 image;
* each Lipschitz hook at nmf-medium shapes (200 x 500, r = 10; b = 13 and the
  full batch) and bid-medium shapes (16 tiles; b = 1 and the full batch);
* the L0 prox on nmf-medium's 200 x 10 factor X.
"""

import numpy as np
import pytest

from springopt.harness.datasets import toy_blurred_image, toy_nmf_matrix
from springopt.problems import (
    BlindDeblurProblem,
    SparseNmfProblem,
    bid_adjoint_image,
    bid_adjoint_kernel,
    bid_forward,
    prox_l0_nonneg_columns,
)

pytestmark = pytest.mark.benchmark(max_time=0.25, warmup=True)

KERNEL = 9
IMAGE_SHAPES = {"tile": (22, 22), "full": (64, 64)}


@pytest.fixture(scope="module")
def nmf():
    adapter = SparseNmfProblem(A=toy_nmf_matrix(seed=0, shape=(200, 500), rank=10), r=10, s=40)
    return adapter.block_problem(), adapter.initial_iterate(0)


@pytest.fixture(scope="module")
def bid():
    Z, _image, _kernel = toy_blurred_image(seed=0, size=64, kernel=KERNEL)
    adapter = BlindDeblurProblem(Z=Z, kernel_shape=(KERNEL, KERNEL), n_tiles=16)
    return adapter.block_problem(), adapter.initial_iterate()


@pytest.mark.parametrize("shape", IMAGE_SHAPES)
@pytest.mark.parametrize("kernel", ["forward", "adjoint_image", "adjoint_kernel"])
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
    }
    fn, *args = calls[kernel]
    benchmark(fn, *args)


def _draw(benchmark, problem, z, block, batch):
    hook = problem.lipschitz_x if block == "x" else problem.lipschitz_y
    rng = np.random.default_rng(0)
    benchmark(hook, z.x, z.y, batch, rng, 5)


@pytest.mark.parametrize("block", ["x", "y"])
@pytest.mark.parametrize("b", [13, None], ids=["b13", "full"])
def test_nmf_lipschitz_draw(benchmark, nmf, block, b):
    problem, z = nmf
    batch = None if b is None else np.sort(np.random.default_rng(1).choice(problem.n, size=b, replace=False))
    _draw(benchmark, problem, z, block, batch)


@pytest.mark.parametrize("block", ["x", "y"])
@pytest.mark.parametrize("b", [1, None], ids=["b1", "full"])
def test_bid_lipschitz_draw(benchmark, bid, block, b):
    problem, z = bid
    _draw(benchmark, problem, z, block, None if b is None else np.array([5]))


def test_prox_l0(benchmark):
    V = np.random.default_rng(2).standard_normal((200, 10))
    benchmark(prox_l0_nonneg_columns, V, 40)
