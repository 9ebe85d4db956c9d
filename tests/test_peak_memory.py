"""Peak memory of blind deconvolution at the bid-medium benchmark shape.

64 x 64 image, 9 x 9 kernel, 16 tiles: the full-batch hooks, the edge
regularizer's gradient, and one cold epoch of PALM, SAGA and SARAH at b = 1
with the gradient map traced, as the benchmark's ``peak_mb`` solves run.
Each peak is tracemalloc's, the smaller of two passes after a warm-up call,
so one-time allocations are left out.
"""

import tracemalloc

import numpy as np
import pytest

from springopt.harness.datasets import toy_blurred_image
from springopt.problems import BlindDeblurProblem
from springopt.solver import SolverConfig, run

# Peaks in bytes with numpy 2.4.6 on CPython 3.11, measured by this file's tests
# run alone while the full batch still summed its 16 tile windows (smooth_x.grad
# then built both difference images, their derivatives and the divergence at
# once, and set PALM's peak).  Other numpy versions allocate differently.
WINDOWED_PEAKS = {
    "value": 52_808,
    "grad_x": 134_864,
    "grad_y": 75_008,
    "lipschitz_x": 1_920,
    "lipschitz_y": 122_600,
    "smooth_x.grad": 262_552,
    "palm": 305_624,
    "spring-saga": 451_458,
    "spring-sarah": 403_232,
}
# A whole-image correlation's Toeplitz factor alone (55 KB at 24 columns) is
# above some windowed hooks' whole peak (value's 53 KB).  What holds a run's peak
# is that no full-batch call goes above the largest of them, smooth_x.grad's, so
# that is each full-batch hook's budget; the edge gradient and the epochs keep
# their own.
HOOK_BUDGET = max(WINDOWED_PEAKS[name] for name in ("value", "grad_x", "grad_y", "lipschitz_x",
                                                     "lipschitz_y", "smooth_x.grad"))
HOOKS = ("value", "grad_x", "grad_y", "lipschitz_x", "lipschitz_y")
EPOCHS = ("palm", "spring-saga", "spring-sarah")


@pytest.fixture(scope="module")
def bid_medium():
    Z, _image, _kernel = toy_blurred_image(seed=0, size=64, kernel=9)
    adapter = BlindDeblurProblem(Z=Z, kernel_shape=(9, 9), n_tiles=16)
    return adapter.block_problem(), adapter.initial_iterate()


def _peak(call):
    call()
    peaks = []
    for _ in range(2):
        tracemalloc.start()
        try:
            call()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return min(peaks)


def _call(problem, z0, name):
    full = np.arange(problem.n)
    if name in ("value", "grad_x", "grad_y"):
        return lambda: getattr(problem, name)(full, z0.x, z0.y)
    if name in ("lipschitz_x", "lipschitz_y"):
        return lambda: getattr(problem, name)(z0.x, z0.y, full)
    if name == "smooth_x.grad":
        return lambda: problem.smooth_x.grad(z0.x)
    config = SolverConfig(algorithm=name, batch_size=1, epochs=1, seed=0, warm_start=False, track_grad_map=True)
    return lambda: run(problem, config, z0)


@pytest.mark.parametrize("name", HOOKS)
def test_full_batch_hook_stays_within_the_windowed_peak(bid_medium, name):
    assert _peak(_call(*bid_medium, name)) <= HOOK_BUDGET


@pytest.mark.parametrize("name", ("smooth_x.grad",) + EPOCHS)
def test_peak_is_held(bid_medium, name):
    assert _peak(_call(*bid_medium, name)) <= WINDOWED_PEAKS[name]
