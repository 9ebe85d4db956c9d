"""One benchmark run: set-up, calibration, timed or traced solves, the gate,
and the printed metrics.  ``run.py`` is the entry point; it pins the BLAS
threads and checks that ``springopt`` comes from this checkout first.
"""

from __future__ import annotations

import contextlib
import json
import math
import shutil
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

import gate
import spans
import workloads
from springopt import solver
from springopt.harness import io

# tracemalloc passes per algorithm; peak_mb is the smaller, which leaves
# out one-time allocations that land in the first pass.
PEAK_PASSES = 2
# Rounds of timed solves a run makes at least, whatever ``--seconds`` is: a
# bid-medium round takes 15-20 s, and one sample per solve is noisier than
# the median of two.
MIN_ROUNDS = 2
# The algorithms whose peak memory is measured, on their fixed-length solves.
PEAK_ALGORITHMS = ("palm", "spring-saga", "spring-sarah")


# Machine-speed probe.  The shared host the baseline was taken on runs up to
# 2x slower for spells of seconds to minutes, and the spells slow the
# kernel-bound BID solves more than the interpreter-bound NMF ones.  The
# probe, four small numpy correlations (the BID solves' regime) and sixty
# rounds of numpy calls on tiny arrays (the NMF solves' regime), slows down
# with them: the end-to-end times are wall times rescaled by PROBE_NOMINAL_S
# over the probe time measured on either side of the call, i.e.
# probe-normalised seconds.  Over 100 s of solves from all three workloads,
# 4 s medians of solve times varied by 24-37 % raw, by 6-13 % scaled by the
# correlations plus a pure-Python loop, and by 3-7 % scaled by this probe.
# PROBE_NOMINAL_S is the median of 4720 back-to-back probe calls over 8 s on
# the 2-vCPU Intel Xeon VM the baseline was taken on (1.61 ms; the fastest
# call took 0.80 ms), so a reported second is a wall second at that
# machine's typical speed.
PROBE_NOMINAL_S = 1.6e-3
_PROBE_WINDOWS = sliding_window_view(np.random.default_rng(0).random((48, 48)), (9, 9))
_PROBE_KERNEL = np.random.default_rng(1).random((9, 9))
_PROBE_A = np.random.default_rng(2).random((50, 5))
_PROBE_B = np.random.default_rng(3).random((5, 20))


def probe() -> float:
    start = time.perf_counter()
    for _ in range(4):
        np.einsum("pqab,ab->pq", _PROBE_WINDOWS, _PROBE_KERNEL)
    for _ in range(60):
        np.maximum(_PROBE_A @ _PROBE_B, 0.0).sum()
        np.argsort(_PROBE_A[:, 0])
    return time.perf_counter() - start


class ProbedClock:
    """Times calls in seconds at the probe's nominal speed.

    Every call sits between two probes; ``call`` returns a mark, and
    ``seconds(mark)`` the call's wall time scaled by PROBE_NOMINAL_S over the
    mean of those two probes.
    """

    def __init__(self):
        self.probes = [probe()]  # probes[i] and probes[i + 1] bracket call i
        self.walls: list[float] = []

    def call(self, fn, *args):
        start = time.perf_counter()
        value = fn(*args)
        self.walls.append(time.perf_counter() - start)
        self.probes.append(probe())
        return value, len(self.walls) - 1

    def seconds(self, mark: int | None) -> float:
        """Probe-scaled seconds of call ``mark``; None (a diverged solve) is infinite."""
        if mark is None:
            return math.inf
        return self.walls[mark] * 2.0 * PROBE_NOMINAL_S / (self.probes[mark] + self.probes[mark + 1])


def timed_round(inst, plans, clock, problem=None, run=None):
    """Solve every plan once; returns (clock marks, outcomes).

    A solve that diverges gets the mark None, which the clock charges as
    infinite time: stopping early must not read as fast.  (A solve that
    misses its target runs its full budget.)
    """
    marks, outcomes = [], []
    for plan in plans:
        outcome, mark = clock.call(workloads.solve, inst, plan, problem, run)
        outcomes.append(outcome)
        marks.append(mark if outcome[1] is None else None)
    return marks, outcomes


def median_time(values) -> float:
    """Median of solve times in which a diverged solve counts as infinite.

    A failure can therefore only raise the median; a median that is itself
    infinite (most solves diverged) reads as the largest float, which keeps
    the printed JSON valid and fails any bound.
    """
    middle = statistics.median(list(values))
    return middle if math.isfinite(middle) else sys.float_info.max


# ----------------------------------------------------------------------------
# End-to-end run
# ----------------------------------------------------------------------------


def all_plans(inst):
    """The to-target solves followed by the fixed-length solves."""
    return workloads.calibrate(inst) + workloads.epoch_plans(inst)


def end_to_end(args, workdir):
    """Set up, calibrate, then time rounds of every solve for ``--seconds``
    (and at least MIN_ROUNDS rounds).

    Each round also times one more set-up, so set-up and solves are sampled
    across the same stretch of the run.  Each solve's time, and set-up time,
    is the median of its probe-scaled samples.
    """
    def setup():
        return workloads.setup(args.workload, args.seed, workdir)

    clock = ProbedClock()
    inst, mark = clock.call(setup)
    setups = [mark]
    plans = all_plans(inst)
    rounds, first = [], None
    deadline = time.perf_counter() + args.seconds
    while len(rounds) < MIN_ROUNDS or time.perf_counter() < deadline:
        marks, outcomes = timed_round(inst, plans, clock)
        rounds.append(marks)
        first = first or outcomes
        setups.append(clock.call(setup)[1])
    solve_s = [statistics.median(clock.seconds(r[i]) for r in rounds) for i in range(len(plans))]
    metrics = {"setup_s": statistics.median(clock.seconds(m) for m in setups)}
    for algo in workloads.ALGORITHMS:
        short = workloads.SHORT[algo]
        mine = [(p, t) for p, t in zip(plans, solve_s) if p.algorithm == algo]
        metrics[f"time_to_target_s.{short}"] = median_time(t for p, t in mine if p.target is not None)
        metrics[f"epoch_ms.{short}"] = median_time(
            1e3 * t / p.epochs for p, t in mine if p.target is None)
    for algo in PEAK_ALGORITHMS:
        plan = next(p for p in plans if p.algorithm == algo and p.target is None)
        metrics[f"peak_mb.{workloads.SHORT[algo]}"] = min(
            peak_bytes(inst, plan) for _ in range(PEAK_PASSES)) / 1e6
    print(f"rounds: {len(rounds)}")
    print(f"machine_factor {statistics.median(clock.probes) / PROBE_NOMINAL_S!r} "
          "(wall seconds per reported second, median over the run)")
    return inst, plans, metrics, first


def peak_bytes(inst, plan) -> int:
    tracemalloc.start()
    try:
        workloads.solve(inst, plan)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# ----------------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------------


def state_bytes(state) -> int:
    """Bytes held in an estimator state's arrays (0 when there is none)."""
    if state is None:
        return 0
    return sum(v.nbytes for v in vars(state).values() if hasattr(v, "nbytes"))


def layer_metrics(algo: str, tracer: spans.Tracer, to_target: list, results: list) -> dict:
    """Per-layer metrics of one algorithm's traced solves, summed over them.

    ``results`` holds every traced solve, the fixed-length ones included;
    ``to_target`` only the to-target solves, for the ``*_to_target`` counts.
    """
    short = workloads.SHORT[algo]
    sfo = sum(r.trace.rows[-1].sfo_calls for r in results)
    lip_sfo = sum(r.trace.rows[-1].lipschitz_sfo for r in results)
    own, whole, calls, counts = tracer.self_ms(), tracer.inclusive_ms(), tracer.calls(), tracer.counts
    grad_evals = counts["problems.oracle.grad_evals"]
    metrics = {
        f"solver.epochs_to_target.{short}": sum(len(r.trace.rows) for r in to_target),
        f"solver.sfo_to_target.{short}": sum(r.trace.rows[-1].sfo_calls for r in to_target),
        f"solver.self_ms.{short}": own["solver"],
        f"core.self_ms.{short}": own["core"],
        f"problems.oracle.grad_evals.{short}": grad_evals,
        f"problems.oracle.ms.{short}": own["problems.oracle"],
        f"problems.oracle.evals_per_sfo.{short}": grad_evals / sfo if sfo else 0.0,
        f"problems.kernel.calls.{short}": calls["problems.kernel"],
        # A share, not ms: the NMF workloads never call the kernel, and a
        # time that reads 0.0 on every run looks like a broken clock.
        f"problems.kernel.share.{short}": own["problems.kernel"] / whole["solver"] if whole["solver"] else 0.0,
        f"problems.kernel.gflop.{short}": counts["problems.kernel.flop"] / 1e9,
        f"problems.prox.calls.{short}": calls["problems.prox"],
        f"problems.prox.ms.{short}": own["problems.prox"],
        f"lipschitz.ms.{short}": own["lipschitz"],
        f"lipschitz.operator_applies.{short}": counts["lipschitz.operator_applies"],
        f"lipschitz.sfo.{short}": lip_sfo,
        f"lipschitz.sfo_per_sfo.{short}": lip_sfo / sfo if sfo else 0.0,
        f"diagnostics.ms.{short}": whole["diagnostics"],
        f"diagnostics.share.{short}": whole["diagnostics"] / whole["solver"] if whole["solver"] else 0.0,
    }
    if algo.startswith("spring-"):
        metrics[f"estimators.ms.{short}"] = own["estimators"]
    if algo in ("spring-saga", "spring-sarah"):
        metrics[f"estimators.state_mb.{short}"] = max(
            (state_bytes(r.estimator_state) for r in results), default=0) / 1e6
    if algo == "spring-sarah":
        metrics["estimators.sarah_refreshes.sarah"] = counts["estimators.sarah_refreshes"]
    return metrics


def self_shares(tracer: spans.Tracer) -> dict:
    """Each layer's share of the summed self time, largest first."""
    own = tracer.self_ms()
    total = sum(own.values()) or 1.0
    return {layer: round(ms / total, 3) for layer, ms in sorted(own.items(), key=lambda kv: -kv[1])}


def traced(args, workdir):
    """Set up and calibrate, then solve once untraced and once traced."""
    harness = spans.Tracer()
    with spans.Patches(harness, spans.SETUP_FUNCTIONS):
        inst = workloads.setup(args.workload, args.seed, workdir)
    plans = all_plans(inst)
    clock = ProbedClock()
    untraced = timed_round(inst, plans, clock)[0]

    metrics, outcomes, traced = {}, [None] * len(plans), [None] * len(plans)
    for algo in workloads.ALGORITHMS:
        tracer = spans.Tracer()
        mine = [i for i, p in enumerate(plans) if p.algorithm == algo]
        with spans.Patches(tracer, spans.FUNCTION_LAYERS):
            marks, done = timed_round(inst, [plans[i] for i in mine], clock,
                                      spans.wrap_problem(tracer, inst.problem),
                                      tracer.wrap("solver", solver.run))
        for i, mark, outcome in zip(mine, marks, done):
            traced[i], outcomes[i] = mark, outcome
        results = [(plans[i], r) for i, (r, _e) in zip(mine, done) if r is not None]
        metrics.update(layer_metrics(algo, tracer, [r for p, r in results if p.target is not None],
                                     [r for _p, r in results]))
        print(f"self_share.{workloads.SHORT[algo]} {json.dumps(self_shares(tracer))}")
        for name in sorted(set(tracer.absent)):
            print(f"absent: {name} ({workloads.SHORT[algo]})")
    # Over the solves that finished both times.
    pairs = [(u, t) for u, t in zip(untraced, traced) if u is not None and t is not None]
    metrics["trace.overhead_share"] = (sum(clock.seconds(t) for _u, t in pairs)
                                       / sum(clock.seconds(u) for u, _t in pairs) - 1.0)

    writer, written = spans.Tracer(), 0
    with spans.Patches(writer, spans.TRACE_WRITE_FUNCTIONS):
        for i, (result, _error) in enumerate(outcomes):
            if result is not None:
                path = workdir / f"trace_{i}.csv"
                io.write_trace_csv(path, result.trace)
                written += path.stat().st_size
    setup_ms = harness.self_ms()
    metrics.update({
        "harness.io.trace_write_ms": writer.self_ms()["harness.io.trace_write"],
        "harness.io.trace_mb": written / 1e6,
        "harness.datasets.ms": setup_ms["harness.datasets"],
        "harness.io.load_ms": setup_ms["harness.io.load"],
        "harness.io.load_mb": inst.input_bytes / 1e6,
    })
    return inst, plans, metrics, outcomes


# ----------------------------------------------------------------------------
# Gate and report
# ----------------------------------------------------------------------------


def gate_all(inst, plans, outcomes) -> tuple[int, int, list[str]]:
    """(failed, incorrect, reasons) over one round of solves."""
    failed = incorrect = 0
    reasons = []
    for plan, (result, error) in zip(plans, outcomes):
        problems = list(plan.notes)
        if error is not None:
            problems.append(f"diverged: {error}")
        elif plan.epochs is not None:
            wrong = gate.check(inst.gate_data, result.z.x, result.z.y,
                               result.trace.rows[-1].objective, plan.target)
            incorrect += bool(wrong)
            problems += wrong
        if problems:
            failed += 1
            reasons += [f"{plan.algorithm} seed {plan.seed}: {p}" for p in problems]
    return failed, incorrect, reasons


def main(args, root: Path) -> int:
    if args.workload not in workloads.SPECS:
        print(f"perfbench: unknown workload {args.workload!r}; expected one of "
              f"{sorted(workloads.SPECS)}", file=sys.stderr)
        return 2
    table = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in table["per_layer" if args.trace else "end_to_end"]}

    scratch = root / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=scratch))
    try:
        inst, plans, metrics, outcomes = (traced if args.trace else end_to_end)(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()

    failed, incorrect, reasons = gate_all(inst, plans, outcomes)
    for reason in reasons:
        print(f"failed: {reason}")
    print(f"failed_share {failed / len(plans)!r} share of {len(plans)} solves")
    if set(metrics) != set(units):
        missing, extra = sorted(set(units) - set(metrics)), sorted(set(metrics) - set(units))
        print(f"perfbench: metrics disagree with BENCHMARK.json: missing {missing}, extra {extra}",
              file=sys.stderr)
        return 3
    for name, unit in units.items():
        print(f"{name} {metrics[name]!r} {unit}")
    print(json.dumps({
        "correct": incorrect == 0,
        "attempted": len(plans),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0
