"""Peak memory of one cold epoch, and of blind deconvolution's hooks, at the benchmark's shapes.

* Blind deconvolution at the bid-medium shape (64 x 64 image, 9 x 9 kernel,
  16 tiles): the full-batch hooks, the edge regularizer's value and gradient,
  and one cold epoch of PALM, SAGA and SARAH at b = 1; and at a 256 x 256
  image (64 tiles), the full-batch ``grad_x`` and the edge value against what
  their arrays need.
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
from springopt.problems import _BLOCK, BlindDeblurProblem, SparseNmfProblem
from springopt.solver import SolverConfig, run

# Peaks in bytes with numpy 2.4.6 on CPython 3.11, measured by this file's tests
# run alone while the full batch still summed its 16 tile windows (smooth_x.grad
# then built both difference images, their derivatives and the divergence at
# once, and set PALM's peak).  Other numpy versions allocate differently.  The
# grad_x, smooth_x.value and epoch entries are the peaks since the full-batch grad_x
# forms the image residual in its adjoint's padded buffer and the edge value runs on
# the flat image, the larger of each test run alone and with its file (grad_x
# 201,312, smooth_x.value 66,702, SAGA 367,217, SARAH 323,336), plus 2 KB: a peak's
# last few hundred bytes depend on what the process ran before, by up to 1.2 KB.  The
# lipschitz_y and PALM entries are the same rule's since each y-draw pass builds the
# factors of its own iterate, with no kernel buffer whose factors it rewrites: the
# full-batch y-draw 212,720 (before, 222,864), PALM, whose epoch peak is that draw,
# 213,616 (before, 223,760).
WINDOWED_PEAKS = {
    "value": 52_808,
    "grad_x": 203_360,
    "grad_y": 75_008,
    "lipschitz_x": 1_920,
    "lipschitz_y": 214_768,
    "smooth_x.grad": 262_552,
    "smooth_x.value": 68_750,
    "palm": 215_664,
    "spring-saga": 369_265,
    "spring-sarah": 325_384,
}
# A whole-image correlation's Toeplitz factor alone (55 KB at 24 columns) is
# above some windowed hooks' whole peak (value's 53 KB).  What holds a run's peak
# is that no full-batch call goes above the largest of them, smooth_x.grad's, so
# that is each full-batch hook's budget; grad_x, lipschitz_y, the edge terms and the
# epochs keep their own too.
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
    if name.startswith("smooth_x."):
        return lambda: getattr(problem.smooth_x, name.split(".")[1])(z0.x)
    return _epoch(problem, z0, name, 1)


@pytest.mark.parametrize("name", HOOKS)
def test_full_batch_hook_stays_within_the_windowed_peak(bid_medium, name):
    assert _peak(_call(*bid_medium, name)) <= HOOK_BUDGET


@pytest.mark.parametrize("name", ("grad_x", "lipschitz_y", "smooth_x.grad", "smooth_x.value") + EPOCHS)
def test_peak_is_held(bid_medium, name):
    assert _peak(_call(*bid_medium, name)) <= WINDOWED_PEAKS[name]


def test_full_batch_grad_x_and_edge_value_scale_with_the_image():
    # At a 256 x 256 image (a 524 KB array) the full-batch grad_x holds its output, the
    # image adjoint's padded buffer and a budget that does not grow with the image:
    # two banded factors (the widest block's and the last, narrower one's) and one
    # copied band block, each at most kh (B + kw - 1) B numbers for B = _BLOCK.  The
    # edge value holds two image-sized arrays, a difference and its potential, and a
    # few hundred bytes of Python objects (4 KB allowed).  Measured: 1,215,120 and
    # 1,049,688 B; before, 2,226,088 and 2,097,616 B.
    Z, _image, _kernel = toy_blurred_image(seed=0, size=256, kernel=9)
    adapter = BlindDeblurProblem(Z=Z, kernel_shape=(9, 9), n_tiles=64)
    problem, z0 = adapter.block_problem(), adapter.initial_iterate()
    (h, w), (kh, kw) = Z.shape, adapter.kernel_shape
    image, item = z0.x.nbytes, z0.x.itemsize
    padded = (h + 2 * (kh - 1)) * (w + 2 * (kw - 1)) * item
    block = kh * (_BLOCK + kw - 1) * _BLOCK * item
    assert _peak(_call(problem, z0, "grad_x")) <= image + padded + 3 * block
    assert _peak(_call(problem, z0, "smooth_x.value")) <= 2 * image + 4096


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
