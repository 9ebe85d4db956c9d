"""A solve that fails can never make a time metric read faster.

    python3 -m pytest -q perfbench
"""

import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import bench  # noqa: E402
import workloads  # noqa: E402
from springopt import solver  # noqa: E402


def test_a_diverged_solve_is_charged_infinite_time(tmp_path):
    inst = workloads.setup("toy-nmf-c11", 1, tmp_path)
    plan = workloads.epoch_plans(inst)[0]

    def diverge(_problem, _config, _z0):
        raise solver.DivergenceError("objective blew up")

    clock = bench.ProbedClock()
    marks, outcomes = bench.timed_round(inst, [plan], clock, run=diverge)
    assert [clock.seconds(m) for m in marks] == [math.inf]
    assert outcomes[0][0] is None and isinstance(outcomes[0][1], solver.DivergenceError)


def test_failures_only_raise_a_median():
    assert bench.median_time([1.0, 2.0, math.inf]) == 2.0
    assert bench.median_time([3.0, math.inf, math.inf]) == sys.float_info.max
