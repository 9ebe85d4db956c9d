import math
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from springopt.harness import datasets, io, svgplot
from springopt.harness.cli import cli_dispatch
from springopt.harness.runner import RunSpec, bench, build_problem, run_experiment
from springopt.solver import SolverConfig, Trace, TraceRow


# ---------------------------------------------------------------------------
# Matrix formats
# ---------------------------------------------------------------------------


def test_csv_matrix_basic(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,2\n3,4\n")
    np.testing.assert_array_equal(io.load_matrix(path), [[1.0, 2.0], [3.0, 4.0]])


def test_csv_matrix_errors(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(io.FormatError):
        io.load_matrix(empty)

    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1,2\n3\n")
    with pytest.raises(io.FormatError, match="line 2"):
        io.load_matrix(ragged)

    nonnum = tmp_path / "bad.csv"
    nonnum.write_text("1,x\n")
    with pytest.raises(io.FormatError, match="line 1"):
        io.load_matrix(nonnum)

    inf = tmp_path / "inf.csv"
    inf.write_text("1,inf\n")
    with pytest.raises(io.FormatError, match="non-finite"):
        io.load_matrix(inf)


def test_spmx_errors(tmp_path):
    short = tmp_path / "short.spmx"
    short.write_bytes(b"SPMX\x01")
    with pytest.raises(io.FormatError, match="truncated"):
        io.load_matrix(short)

    bad = tmp_path / "bad.spmx"
    bad.write_bytes(b"SPMX" + (2).to_bytes(4, "little") + (2).to_bytes(4, "little") + b"\x00" * 8)
    with pytest.raises(io.FormatError, match="payload"):
        io.load_matrix(bad)


# File names carry the generated parameters, so sharing one tmp_path across
# hypothesis examples is safe.
@settings(max_examples=30, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=st.integers(1, 6), cols=st.integers(1, 6), seed=st.integers(0, 999))
def test_spmx_round_trip(tmp_path, rows, cols, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((rows, cols))
    path = tmp_path / f"rt_{rows}_{cols}_{seed}.spmx"
    io.save_matrix_spmx(path, m)
    np.testing.assert_array_equal(io.load_matrix(path), m)


def test_csv_round_trip_17_digits(tmp_path):
    rng = np.random.default_rng(5)
    m = rng.standard_normal((3, 4)) * 1e3
    path = tmp_path / "rt.csv"
    io.save_matrix_csv(path, m)
    np.testing.assert_array_equal(io.load_matrix(path), m)


# ---------------------------------------------------------------------------
# Images
# ---------------------------------------------------------------------------


def test_pgm_p2_one_pixel(tmp_path):
    path = tmp_path / "one.pgm"
    path.write_text("P2\n1 1\n255\n255\n")
    np.testing.assert_array_equal(io.load_image(path), [[1.0]])


def test_pgm_zero_image(tmp_path):
    path = tmp_path / "zero.pgm"
    io.save_image_pgm(path, np.zeros((3, 2)))
    np.testing.assert_array_equal(io.load_image(path), np.zeros((3, 2)))


def test_pgm_p5_p2_cross_format(tmp_path):
    img = datasets.toy_image(seed=1, size=9)
    p5 = tmp_path / "img5.pgm"
    p2 = tmp_path / "img2.pgm"
    io.save_image_pgm(p5, img, binary=True)
    io.save_image_pgm(p2, img, binary=False)
    np.testing.assert_array_equal(io.load_image(p5), io.load_image(p2))


def test_pgm_comments_and_errors(tmp_path):
    ok = tmp_path / "c.pgm"
    ok.write_text("P2\n# a comment\n2 1\n255\n0 255\n")
    np.testing.assert_array_equal(io.load_image(ok), [[0.0, 1.0]])

    magic = tmp_path / "p3.pgm"
    magic.write_text("P3\n1 1\n255\n0\n")
    with pytest.raises(io.FormatError, match="magic"):
        io.load_image(magic)

    maxval = tmp_path / "m.pgm"
    maxval.write_text("P2\n1 1\n65535\n12\n")
    with pytest.raises(io.FormatError, match="maxval"):
        io.load_image(maxval)


# ---------------------------------------------------------------------------
# Trace CSVs
# ---------------------------------------------------------------------------


def _sample_trace():
    rows = [
        TraceRow(0.5, 10, 1.2345678901234567, 9.876e-12, 17.25, 40),
        TraceRow(1.0, 20, 0.3333333333333333, float(np.pi) * 1e-8, 34.5, 80),
    ]
    return Trace(rows=rows, grad_map_mode="gauss-seidel")


def test_trace_csv_round_trip_exact(tmp_path):
    trace = _sample_trace()
    path = tmp_path / "t.csv"
    io.write_trace_csv(path, trace)
    back = io.read_trace_csv(path)
    assert back.grad_map_mode == trace.grad_map_mode
    assert back.rows == trace.rows  # exact float64 round trip


def test_trace_csv_header_enforced(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("epoch,objective\n1,2\n")
    with pytest.raises(io.FormatError, match="header"):
        io.read_trace_csv(path)


# ---------------------------------------------------------------------------
# SVG plots
# ---------------------------------------------------------------------------


def test_svg_single_trace_single_polyline(tmp_path):
    trace = Trace(rows=[TraceRow(1, 2, 10.0, 1.0, 0.0, 0), TraceRow(2, 4, 5.0, 0.5, 0.0, 0)])
    out = tmp_path / "p.svg"
    svgplot.emit_plot([("demo", trace)], out)
    text = out.read_text()
    assert text.count("<polyline") == 1
    root = ET.fromstring(text)  # well-formed, single root
    assert root.tag.endswith("svg")


def test_svg_byte_identical(tmp_path):
    trace = _sample_trace()
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    svgplot.emit_plot([("x", trace)], a, mode="objective", xaxis="sfo")
    svgplot.emit_plot([("x", trace)], b, mode="objective", xaxis="sfo")
    assert a.read_bytes() == b.read_bytes()


def test_svg_monotone_data_monotone_pixels(tmp_path):
    rows = [TraceRow(k, 2 * k, 100.0 * 0.5**k, 1.0, 0.0, 0) for k in range(1, 8)]
    out = tmp_path / "m.svg"
    svgplot.emit_plot([("d", Trace(rows=rows))], out)
    text = out.read_text()
    pts = text.split('points="')[1].split('"')[0]
    ys = [float(p.split(",")[1]) for p in pts.split()]
    assert all(b > a for a, b in zip(ys, ys[1:]))  # y-axis is inverted


def test_svg_empty_trace_set_errors(tmp_path):
    with pytest.raises(ValueError, match="empty"):
        svgplot.emit_plot([], tmp_path / "e.svg")
    with pytest.raises(ValueError, match="empty"):
        svgplot.emit_plot([("t", Trace(rows=[]))], tmp_path / "e.svg")


def test_svg_rejects_unknown_mode(tmp_path):
    with pytest.raises(ValueError):
        svgplot.emit_plot([("t", _sample_trace())], tmp_path / "x.svg", mode="nope")


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------


def _toy_spec(tmp_path, algo="palm", **kw):
    cfg = SolverConfig(algorithm=algo, batch_size=kw.pop("batch_size", 2),
                       epochs=kw.pop("epochs", 3), seed=kw.pop("seed", 0))
    return RunSpec(problem="toy-nmf", config=cfg, out_dir=str(tmp_path / "out"),
                   deterministic_timing=True, **kw)


def test_run_experiment_repeat_same_seed_identical_csv(tmp_path):
    spec = _toy_spec(tmp_path)
    run_experiment(spec)
    first = Path(spec.out_dir, "trace_palm_seed0.csv").read_bytes()
    run_experiment(spec)
    second = Path(spec.out_dir, "trace_palm_seed0.csv").read_bytes()
    assert first == second


def test_run_experiment_palm_sfo_exact(tmp_path):
    spec = _toy_spec(tmp_path, epochs=5)
    summary = run_experiment(spec)
    problem, _ = build_problem(spec)
    assert summary["runs"][0]["sfo_calls"] == 2 * problem.n * 5


def test_run_experiment_seed_sweep(tmp_path):
    spec = _toy_spec(tmp_path, algo="spring-sgd", repeat=3)
    summary = run_experiment(spec)
    assert [r["seed"] for r in summary["runs"]] == [0, 1, 2]
    for seed in range(3):
        assert Path(spec.out_dir, f"trace_spring-sgd_seed{seed}.csv").exists()


def test_sarah_refresh_rate_binomial(tmp_path):
    # Over 100 epochs with p = n, full refreshes per epoch are
    # Binomial(n/b steps, 1/n); check the observed count within 3 sigma.
    spec = _toy_spec(tmp_path, algo="spring-sarah", batch_size=1, epochs=100)
    spec.config.warm_start = False
    spec.config.track_grad_map = False
    summary = run_experiment(spec)
    problem, _ = build_problem(spec)
    n = problem.n
    steps = 100 * n  # n/b = n steps per epoch
    sfo = summary["runs"][0]["sfo_calls"]
    # sfo = 2n R + 2b (steps - R)  =>  R = (sfo - 2b steps) / (2n - 2b)
    refreshes = (sfo - 2 * 1 * steps) / (2 * n - 2 * 1)
    expect = steps / n
    sigma = math.sqrt(steps * (1 / n) * (1 - 1 / n))
    assert abs(refreshes - expect) <= 3 * sigma


def test_run_experiment_records_divergence_and_continues(tmp_path):
    cfg = SolverConfig(algorithm="palm", epochs=40, step_policy="fixed", fixed_steps=(50.0, 50.0))
    spec = RunSpec(problem="toy-nmf", config=cfg, out_dir=str(tmp_path / "div"),
                   repeat=2, deterministic_timing=True)
    summary = run_experiment(spec)
    assert [r["status"] for r in summary["runs"]] == ["diverged", "diverged"]
    assert Path(spec.out_dir, "summary_palm.csv").exists()


def test_bench_writes_all_algorithms(tmp_path):
    spec = _toy_spec(tmp_path, epochs=2, batch_size=2)
    result = bench(spec)
    names = {row["algorithm"] for row in result["rows"]}
    assert names == {"palm", "ipalm", "spring-sgd", "spring-saga", "spring-sarah"}
    traces = list(Path(spec.out_dir).glob("trace_*_seed0.csv"))
    assert len(traces) == 5
    assert Path(spec.out_dir, "bench_summary.csv").exists()


def test_bench_toy_nmf_under_60_seconds(tmp_path):
    import time

    spec = _toy_spec(tmp_path, epochs=50, batch_size=2)
    start = time.perf_counter()
    bench(spec)
    assert time.perf_counter() - start < 60.0


def test_run_spec_validation(tmp_path):
    with pytest.raises(ValueError):
        RunSpec(problem="bogus", config=SolverConfig(algorithm="palm"), out_dir=".").validate()
    with pytest.raises(ValueError):
        RunSpec(problem="toy-nmf", config=SolverConfig(algorithm="palm"), out_dir=".", repeat=0).validate()
    with pytest.raises(FileNotFoundError):
        RunSpec(problem="nmf", config=SolverConfig(algorithm="palm"), out_dir=".",
                data_path=str(tmp_path / "missing.csv")).validate()


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_run_success(tmp_path):
    out = str(tmp_path / "cli")
    code = cli_dispatch(["run", "--problem", "toy-nmf", "--algo", "palm", "--epochs", "2",
                         "--out", out, "--deterministic-timing"])
    assert code == 0
    assert Path(out, "trace_palm_seed0.csv").exists()


def test_cli_unknown_subcommand_exits_2():
    assert cli_dispatch(["frobnicate"]) == 2


def test_cli_unknown_flag_exits_2():
    # Removed flags are usage errors, not silently run under new defaults.
    for argv in (["run", "--no-such-flag"], ["run", "--no-lipschitz-refresh"], ["bench", "--parallelism", "2"]):
        assert cli_dispatch(argv) == 2, argv


@pytest.mark.parametrize("flags, message", [
    (["--batch", "0"], "batch size must satisfy 1 <= b <= n=20, got 0"),
    (["--epochs", "0"], "epochs must be >= 1, got 0"),
    (["--steps", "fixed"], "fixed steps must be a positive finite (gamma_x, gamma_y), got None"),
    (["--steps", "fixed", "--gamma-x", "0.1"], "fixed steps must be a positive finite (gamma_x, gamma_y), got None"),
    (["--power-iters", "0"], "power iterations must be >= 1, got 0"),
    (["--steps", "theoretical", "--lipschitz-const", "0"], "lipschitz_const must be finite and positive, got 0.0"),
    (["--gamma-x", "0.1", "--gamma-y", "0.1"], "fixed_steps needs step_policy='fixed', got 'practical'"),
])
@pytest.mark.parametrize("command", ["run", "bench"])
def test_cli_rejected_solver_flag_exits_2(tmp_path, capsys, command, flags, message):
    # A solver flag the validator rejects is a usage error, reported in the validator's words.
    code = cli_dispatch([command, "--problem", "toy-nmf", "--out", str(tmp_path / "o"), *flags])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_cli_runtime_failure_exits_1(tmp_path):
    code = cli_dispatch(["run", "--problem", "nmf", "--data", str(tmp_path / "missing.csv"),
                         "--algo", "palm", "--out", str(tmp_path / "o")])
    assert code == 1


def test_cli_plot_from_traces(tmp_path):
    out = str(tmp_path / "cli2")
    assert cli_dispatch(["run", "--problem", "toy-nmf", "--algo", "palm", "--epochs", "2",
                         "--out", out, "--deterministic-timing"]) == 0
    svg = str(tmp_path / "plot.svg")
    assert cli_dispatch(["plot", f"{out}/trace_palm_seed0.csv", "--out", svg]) == 0
    assert Path(svg).exists()


def test_cli_check_grad(tmp_path):
    assert cli_dispatch(["check-grad", "--problem", "toy-nmf", "--points", "2"]) == 0


def test_cli_estimate_lipschitz(capsys):
    assert cli_dispatch(["estimate-lipschitz", "--problem", "toy-nmf", "--batch", "2"]) == 0
    # Pinned: the subsampled draw takes its batch as the solver's lip_batch sampler does.
    assert capsys.readouterr().out.splitlines() == [
        "full-batch estimates: L_x=10.5273 L_y=5.55568",
        "stochastic estimates (b=2): L_x=13.9267 L_y=54.7936",
    ]


@pytest.mark.parametrize("flags, message", [
    (["--batch", "0"], "batch size must satisfy 1 <= b <= n=16, got 0"),
    (["--batch", "-1"], "batch size must satisfy 1 <= b <= n=16, got -1"),
    (["--batch", "999"], "batch size must satisfy 1 <= b <= n=16, got 999"),
    (["--iterations", "0"], "power iterations must be >= 1, got 0"),
], ids=["0", "-1", "999", "iterations-0"])
def test_cli_estimate_lipschitz_rejects_bad_batch(flags, message, capsys):
    # A setting the solver's validator rejects is a usage error here too.
    code = cli_dispatch(["estimate-lipschitz", "--problem", "toy-bid", *flags])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert message in err


def test_cli_config_file_defaults_and_overrides(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("algo = spring-sgd\nepochs = 2\nbatch = 2\nout = {}\n".format(tmp_path / "c1"))
    assert cli_dispatch(["run", "--config", str(cfg), "--deterministic-timing"]) == 0
    assert Path(tmp_path, "c1", "trace_spring-sgd_seed0.csv").exists()
    # Flag overrides the config file value.
    assert cli_dispatch(["run", "--config", str(cfg), "--algo", "palm",
                         "--out", str(tmp_path / "c2"), "--deterministic-timing"]) == 0
    assert Path(tmp_path, "c2", "trace_palm_seed0.csv").exists()
    # The --config=PATH form reads the file too.
    cfg.write_text("algo = spring-sgd\nepochs = 2\nbatch = 2\nout = {}\n".format(tmp_path / "c3"))
    assert cli_dispatch(["run", f"--config={cfg}", "--deterministic-timing"]) == 0
    assert Path(tmp_path, "c3", "trace_spring-sgd_seed0.csv").exists()


def test_cli_bench_writes_files(tmp_path):
    out = str(tmp_path / "bench")
    code = cli_dispatch(["bench", "--problem", "toy-nmf", "--epochs", "2", "--batch", "2",
                         "--out", out, "--deterministic-timing",
                         "--algos", "palm,spring-sgd"])
    assert code == 0
    assert Path(out, "bench_summary.csv").exists()
