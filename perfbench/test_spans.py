"""Span bookkeeping: self time, absent surfaces, and patch cleanup.

    python3 -m pytest -q perfbench
"""

import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import spans  # noqa: E402
import springopt.core  # noqa: E402
import springopt.solver  # noqa: E402
from springopt.problems import make_separable_quadratic  # noqa: E402


def test_self_time_excludes_child_spans():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda: time.sleep(0.02))

    def outer_body():
        time.sleep(0.01)
        inner()
        inner()

    tracer.wrap("outer", outer_body)()
    own, whole = tracer.self_ms(), tracer.inclusive_ms()
    assert abs(own["outer"] + own["inner"] - whole["outer"]) < 1e-9
    assert own["inner"] >= 40.0 and 10.0 <= own["outer"] < 40.0
    assert [s[3] for s in tracer.spans] == [-1, 0, 0]


def test_absent_hooks_and_functions_are_reported_not_raised():
    @dataclass(frozen=True)
    class Reduced:  # a problem surface without the per-component hooks
        n: int
        prox_x: object

    tracer = spans.Tracer()
    wrapped = spans.wrap_problem(tracer, Reduced(n=1, prox_x=lambda g, v: v))
    assert wrapped.prox_x(1.0, 5) == 5
    assert "BlockProblem.component_grad_x" in tracer.absent
    with spans.Patches(tracer, {("springopt.core", "no_such_function"): "core"}):
        pass
    assert "springopt.core.no_such_function" in tracer.absent


def test_patches_cover_every_binding_and_are_undone():
    problem, _info = make_separable_quadratic(n=4)
    original = springopt.core.full_grad_x
    tracer = spans.Tracer()
    with spans.Patches(tracer, spans.FUNCTION_LAYERS):
        assert springopt.solver.full_grad_x is springopt.core.full_grad_x is not original
        zero = [0.0] * 4
        springopt.solver.palm_step(problem, springopt.core.Iterate(zero, zero), 0.5, 0.5)
    assert springopt.core.full_grad_x is original
    assert tracer.calls()["core"] == 2
