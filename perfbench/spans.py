"""In-memory span tracing around calls into springopt's layers.

Spans are recorded from the benchmark's side of each call, never from inside
the library: BlockProblem hooks are wrapped through ``dataclasses.replace``
(the way ``core.with_oracle_counter`` wraps them), and module functions are
patched in every loaded ``springopt`` module that binds them, for the
duration of a traced run only.  A hook or function that no longer exists is
recorded as absent rather than raising, so the traced run survives refactors
of the surfaces it wraps.

Each span is ``[layer, start, end, parent_index]``.  Spans stay in memory
until the caller aggregates them; a layer's self time is its span time minus
the time its child spans cover.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from collections import Counter, defaultdict

# Layer of each BlockProblem hook.
HOOK_LAYERS = {
    "component_grad_x": "problems.oracle",
    "component_grad_y": "problems.oracle",
    "component_value": "problems.oracle",
    "prox_x": "problems.prox",
    "prox_y": "problems.prox",
    "lipschitz_x": "lipschitz",
    "lipschitz_y": "lipschitz",
}

# (home module, function name) -> layer, for module-level functions.
FUNCTION_LAYERS = {
    ("springopt.core", "full_grad_x"): "core",
    ("springopt.core", "full_grad_y"): "core",
    ("springopt.core", "objective"): "core",
    ("springopt.problems", "bid_forward"): "problems.kernel",
    ("springopt.lipschitz", "power_estimate_sq_norm"): "lipschitz",
    ("springopt.estimators", "sample_batch"): "estimators",
    ("springopt.estimators", "batch_grads_x"): "estimators",
    ("springopt.estimators", "batch_grads_y"): "estimators",
    ("springopt.estimators", "saga_combine"): "estimators",
    ("springopt.estimators", "saga_update_table_x"): "estimators",
    ("springopt.estimators", "saga_update_table_y"): "estimators",
    ("springopt.estimators", "sarah_refresh_coin"): "estimators",
    ("springopt.estimators", "sarah_estimate_x"): "estimators",
    ("springopt.estimators", "sarah_estimate_y"): "estimators",
    ("springopt.diagnostics", "generalized_gradient_map"): "diagnostics",
}

# Harness functions traced during set-up, and when traces are written.
SETUP_FUNCTIONS = {
    ("springopt.harness.datasets", "toy_nmf_matrix"): "harness.datasets",
    ("springopt.harness.datasets", "toy_blurred_image"): "harness.datasets",
    ("springopt.harness.io", "load_matrix"): "harness.io.load",
    ("springopt.harness.io", "load_image"): "harness.io.load",
}
TRACE_WRITE_FUNCTIONS = {("springopt.harness.io", "write_trace_csv"): "harness.io.trace_write"}


class Tracer:
    """Span recorder plus the counters measured at the same boundaries."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._open: Counter = Counter()

    def inside(self, layer: str) -> bool:
        return self._open[layer] > 0

    def wrap(self, layer: str, fn, on_call=None):
        """Return ``fn`` recording one span per call; ``on_call(args, kwargs)``
        runs first, to count work at the boundary."""
        spans, stack, is_open, clock = self.spans, self._stack, self._open, time.perf_counter

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            record = [layer, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            is_open[layer] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
                is_open[layer] -= 1

        return traced

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------

    def self_ms(self) -> dict[str, float]:
        """Per layer: span time minus the time covered by child spans, ms."""
        child = [0.0] * len(self.spans)
        for layer, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (layer, start, end, _parent), inner in zip(self.spans, child):
            out[layer] += (end - start - inner) * 1e3
        return out

    def inclusive_ms(self) -> dict[str, float]:
        """Per layer: time covered by its outermost spans, ms."""
        layers = [s[0] for s in self.spans]
        out: dict[str, float] = defaultdict(float)
        for layer, start, end, parent in self.spans:
            p = parent
            while p >= 0 and layers[p] != layer:
                p = self.spans[p][3]
            if p < 0:
                out[layer] += (end - start) * 1e3
        return out

    def calls(self) -> Counter:
        return Counter(s[0] for s in self.spans)


def wrap_problem(tracer: Tracer, problem):
    """Copy of ``problem`` whose hooks record spans and boundary counts."""
    fields = {f.name for f in dataclasses.fields(problem)}
    replaced = {}
    for name, layer in HOOK_LAYERS.items():
        hook = getattr(problem, name, None) if name in fields else None
        if hook is None:
            tracer.absent.append(f"BlockProblem.{name}")
            continue
        on_call = None
        if name in ("component_grad_x", "component_grad_y"):
            # Gradient evaluations made by a step, not by the trace diagnostics.
            def on_call(_args, _kwargs):
                if not tracer.inside("diagnostics"):
                    tracer.counts["problems.oracle.grad_evals"] += 1
        replaced[name] = tracer.wrap(layer, hook, on_call)
    return dataclasses.replace(problem, **replaced)


def _kernel_flops(tracer: Tracer):
    def on_call(args, kwargs):
        image = args[0] if args else kwargs.get("X")
        kernel = args[1] if len(args) > 1 else kwargs.get("Y")
        kh, kw = kernel.shape
        out_h, out_w = image.shape[0] - kh + 1, image.shape[1] - kw + 1
        tracer.counts["problems.kernel.flop"] += 2 * out_h * out_w * kh * kw
    return on_call


def _count_refresh(tracer: Tracer):
    def on_call(_args, kwargs):
        if kwargs.get("refresh"):
            tracer.counts["estimators.sarah_refreshes"] += 1
    return on_call


def _count_operator_applies(tracer: Tracer, power_method):
    # Wraps the operator handed to the power method, so each application is
    # counted where it happens.
    def counted(apply, *args, **kwargs):
        def counted_apply(v):
            tracer.counts["lipschitz.operator_applies"] += 1
            return apply(v)

        return power_method(counted_apply, *args, **kwargs)
    return counted


class Patches:
    """Module-function patches, installed for one traced run and undone after."""

    def __init__(self, tracer: Tracer, table: dict):
        self.tracer = tracer
        self.table = table
        self._undo: list[tuple] = []

    def __enter__(self):
        tracer = self.tracer
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "springopt" or name.startswith("springopt."))]
        for (home, name), layer in self.table.items():
            original = getattr(sys.modules.get(home), name, None)
            if original is None:
                tracer.absent.append(f"{home}.{name}")
                continue
            wrapped = self._wrapped(layer, name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, attr, original))
                        setattr(module, attr, wrapped)
        return self

    def _wrapped(self, layer, name, original):
        tracer = self.tracer
        if name == "bid_forward":
            return tracer.wrap(layer, original, _kernel_flops(tracer))
        if name == "sarah_estimate_x":
            return tracer.wrap(layer, original, _count_refresh(tracer))
        if name == "power_estimate_sq_norm":
            return tracer.wrap(layer, _count_operator_applies(tracer, original))
        return tracer.wrap(layer, original)

    def __exit__(self, *_exc):
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()
        return False
