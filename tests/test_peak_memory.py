"""Peak memory of one cold epoch, and of blind deconvolution's hooks, at the benchmark's shapes.

* Blind deconvolution at the bid-medium shape (64 x 64 image, 9 x 9 kernel,
  16 tiles): the full-batch hooks, the edge regularizer's gradient, and one
  cold epoch of PALM, SAGA and SARAH at b = 1.
* Sparse NMF at the toy-nmf-c11 shape (50 x 20, r = 5, s = 10, b = 1) and
  the nmf-medium shape (200 x 500, r = 10, s = 40, b = 13): one cold epoch
  of PALM, SAGA and SARAH, whose trace row (objective and gradient map) is
  pinned with the rest of the epoch.

Each epoch traces the gradient map, as the benchmark's ``peak_mb`` solves
run.  Each peak is tracemalloc's, the smaller of two passes after a warm-up
call, so one-time allocations are left out.
"""

import tracemalloc

import numpy as np
import pytest

from springopt.harness.datasets import toy_blurred_image, toy_nmf_matrix
from springopt.problems import BlindDeblurProblem, SparseNmfProblem
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


def _epoch(problem, z0, algorithm, batch_size):
    config = SolverConfig(algorithm=algorithm, batch_size=batch_size, epochs=1, seed=0, warm_start=False,
                          track_grad_map=True)
    return lambda: run(problem, config, z0)


def _call(problem, z0, name):
    full = np.arange(problem.n)
    if name in ("value", "grad_x", "grad_y"):
        return lambda: getattr(problem, name)(full, z0.x, z0.y)
    if name in ("lipschitz_x", "lipschitz_y"):
        return lambda: getattr(problem, name)(z0.x, z0.y, full)
    if name == "smooth_x.grad":
        return lambda: problem.smooth_x.grad(z0.x)
    return _epoch(problem, z0, name, 1)


@pytest.mark.parametrize("name", HOOKS)
def test_full_batch_hook_stays_within_the_windowed_peak(bid_medium, name):
    assert _peak(_call(*bid_medium, name)) <= HOOK_BUDGET


@pytest.mark.parametrize("name", ("smooth_x.grad",) + EPOCHS)
def test_peak_is_held(bid_medium, name):
    assert _peak(_call(*bid_medium, name)) <= WINDOWED_PEAKS[name]


# (matrix shape, rank of the generated data, r, s, batch size) of the two NMF workloads.
NMF_SHAPES = {
    "toy-nmf-c11": ((50, 20), 3, 5, 10, 1),
    "nmf-medium": ((200, 500), 10, 10, 40, 13),
}
# Peaks in bytes with numpy 2.4.6 on CPython 3.11 before the trace row's objective and
# gradient map were trimmed, as upper bounds, so that no change to the trace row can
# raise a run's peak.  A peak's last few hundred bytes depend on what the process ran
# before (a full tier-1 run reads up to 1.2 KB less); each is the largest, with its
# test run alone.  nmf-medium's SAGA pin is measured the same way on SAGA's mean update
# that scales its delta in place, without two dim-sized temporaries.
NMF_PEAKS = {
    ("toy-nmf-c11", "palm"): 18_298,
    ("toy-nmf-c11", "spring-saga"): 38_214,
    ("toy-nmf-c11", "spring-sarah"): 29_415,
    ("nmf-medium", "palm"): 210_736,
    ("nmf-medium", "spring-saga"): 1_223_540,
    ("nmf-medium", "spring-sarah"): 328_157,
}


@pytest.fixture(scope="module")
def nmf_workloads():
    workloads = {}
    for name, (shape, data_rank, r, s, b) in NMF_SHAPES.items():
        adapter = SparseNmfProblem(A=toy_nmf_matrix(seed=0, shape=shape, rank=data_rank), r=r, s=s)
        workloads[name] = (adapter.block_problem(), adapter.initial_iterate(0), b)
    return workloads


@pytest.mark.parametrize("workload, algorithm", NMF_PEAKS)
def test_nmf_epoch_peak_is_held(nmf_workloads, workload, algorithm):
    problem, z0, b = nmf_workloads[workload]
    assert _peak(_epoch(problem, z0, algorithm, b)) <= NMF_PEAKS[workload, algorithm]
