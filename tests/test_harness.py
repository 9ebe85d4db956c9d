import dataclasses
import math
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from springopt.harness import datasets, io, runner, svgplot
from springopt.harness.cli import build_parser, cli_dispatch
from springopt.harness.runner import ProblemSpec, RunSpec, bench, run_experiment
from springopt.problems import BlindDeblurProblem, SparsePcaProblem
from springopt.solver import ConfigError, DivergenceError, RunResult, SolverConfig, Trace, TraceRow


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


def test_csv_matrix_bytes_pinned(tmp_path):
    # Signed zero, the smallest subnormal, non-finite cells and 17 significant digits, byte for byte.
    m = np.array([[-0.0, 5e-324, 1 / 3], [1e300, np.inf, -np.inf], [np.nan, 1.0, -2.5e-7]])
    path = tmp_path / "edge.csv"
    io.save_matrix_csv(path, m)
    assert path.read_bytes() == (b"-0,4.9406564584124654e-324,0.33333333333333331\n"
                                 b"1.0000000000000001e+300,inf,-inf\n"
                                 b"nan,1,-2.4999999999999999e-07\n")
    io.save_matrix_csv(path, [1.5, 2])
    assert path.read_bytes() == b"1.5,2\n"


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
    return Trace(rows=rows)


def test_trace_csv_round_trip_exact(tmp_path):
    trace = _sample_trace()
    path = tmp_path / "t.csv"
    io.write_trace_csv(path, trace)
    back = io.read_trace_csv(path)
    assert back.rows == trace.rows  # exact float64 round trip


def test_trace_csv_bytes_pinned(tmp_path):
    # An int epoch prints as an int; NaN as "nan"; floats with 17 significant digits.
    trace = Trace(rows=[TraceRow(1, 20, 0.1, math.nan, 2.5, 40), TraceRow(2.5, 50, 1 / 3, 1e-20, 0.0, 80)])
    path = tmp_path / "t.csv"
    io.write_trace_csv(path, trace)
    assert path.read_bytes() == (
        b"# grad_map_mode=gauss-seidel\n"
        b"epoch,sfo_calls,objective,grad_map_norm_sq,wall_ms,lipschitz_sfo\n"
        b"1,20,0.10000000000000001,nan,2.5,40\n"
        b"2.5,50,0.33333333333333331,9.9999999999999995e-21,0,80\n"
    )
    back = io.read_trace_csv(path).rows
    assert math.isnan(back[0].grad_map_norm_sq)
    assert back[1] == trace.rows[1]


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
    return RunSpec(problem=ProblemSpec("toy-nmf"), config=cfg, out_dir=str(tmp_path / "out"),
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
    problem, _ = spec.problem.build()
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
    problem, _ = spec.problem.build()
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
    spec = RunSpec(problem=ProblemSpec("toy-nmf"), config=cfg, out_dir=str(tmp_path / "div"),
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


_FAKE_ROWS = [TraceRow(1.0, 40, 2.5, math.nan, 0.0, 8), TraceRow(2.0, 80, 1 / 3, 0.1, 0.0, 16)]


def _fake_run(problem, config, z0):
    # Seed 0 converges (stochastic methods to a quarter of PALM's objective);
    # seed 1 diverges with a partial trace, seed 2 without one.
    if config.seed == 1:
        raise DivergenceError("blown up", trace=Trace(rows=_FAKE_ROWS[:1]))
    if config.seed == 2:
        raise DivergenceError("blown up")
    rows = _FAKE_ROWS if config.algorithm == "palm" else [r._replace(objective=r.objective / 4) for r in _FAKE_ROWS]
    return RunResult(z0, Trace(rows=list(rows)), None)


def test_summary_csvs_bytes_pinned(tmp_path, monkeypatch):
    monkeypatch.setattr(runner, "run", _fake_run)
    spec = _toy_spec(tmp_path, repeat=3)
    run_experiment(spec)
    assert Path(spec.out_dir, "summary_palm.csv").read_bytes() == (
        b"algorithm,seed,status,final_objective,min_grad_map_norm_sq,sfo_calls\n"
        b"palm,0,ok,0.33333333333333331,0.10000000000000001,80\n"
        b"palm,1,diverged,2.5,nan,40\n"
        b"palm,2,diverged,nan,nan,0\n"
    )
    bench(spec, algorithms=("palm", "spring-sgd"))
    assert Path(spec.out_dir, "bench_summary.csv").read_bytes() == (
        b"algorithm,seed,status,final_objective,sfo_calls,epochs_to_palm_objective\n"
        b"palm,0,ok,0.33333333333333331,80,0\n"
        b"palm,1,diverged,2.5,40,0\n"
        b"palm,2,diverged,nan,0,0\n"
        b"spring-sgd,0,ok,0.083333333333333329,80,2\n"
        b"spring-sgd,1,diverged,2.5,40,inf\n"
        b"spring-sgd,2,diverged,nan,0,inf\n"
    )


def test_bench_builds_problem_once(tmp_path, monkeypatch):
    # Every algorithm runs on one built problem, so the data file is read once.
    data = tmp_path / "a.csv"
    io.save_matrix_csv(data, datasets.toy_nmf_matrix(seed=1, shape=(12, 8)))
    calls = []
    load = io.load_matrix
    monkeypatch.setattr(runner.io, "load_matrix", lambda path: calls.append(path) or load(path))
    spec = RunSpec(problem=ProblemSpec("nmf", data_path=str(data), rank=3),
                   config=SolverConfig(algorithm="palm", batch_size=2), out_dir=str(tmp_path / "out"))
    result = bench(spec)
    assert {row["algorithm"] for row in result["rows"]} == {"palm", "ipalm", "spring-sgd", "spring-saga",
                                                             "spring-sarah"}
    assert calls == [str(data)]


def test_problem_spec_rejects_unknown_parameter():
    with pytest.raises(TypeError):
        ProblemSpec(sparsty=3)


def test_problem_spec_defaults_match_adapters_and_cli():
    spec = ProblemSpec()
    assert (spec.lam1, spec.lam2) == (SparsePcaProblem.lam1, SparsePcaProblem.lam2)
    assert (spec.lam, spec.theta, spec.tiles) == (BlindDeblurProblem.lam, BlindDeblurProblem.theta,
                                                  BlindDeblurProblem.n_tiles)
    assert dataclasses.astuple(spec) == ("toy-nmf", None, None, 5, None, 0.1, 0.1, 5e-4, 1e3, 16, 5, 0)
    run_p = build_parser()[1]["run"]
    flag = {"kind": "problem", "data_path": "data", "image_path": "image"}
    for f in dataclasses.fields(ProblemSpec):
        assert run_p.get_default(flag.get(f.name, f.name)) == getattr(spec, f.name), f.name


def test_run_spec_validation(tmp_path):
    with pytest.raises(ValueError):
        RunSpec(problem=ProblemSpec("bogus"), config=SolverConfig(algorithm="palm"), out_dir=".").validate()
    with pytest.raises(ConfigError, match="repeat must be >= 1, got 0"):
        RunSpec(problem=ProblemSpec("toy-nmf"), config=SolverConfig(algorithm="palm"), out_dir=".",
                repeat=0).validate()
    with pytest.raises(FileNotFoundError):
        RunSpec(problem=ProblemSpec("nmf", data_path=str(tmp_path / "missing.csv")),
                config=SolverConfig(algorithm="palm"), out_dir=".").validate()


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
    for argv in (["run", "--no-such-flag"], ["run", "--no-lipschitz-refresh"], ["bench", "--parallelism", "2"],
                 ["run", "--power-iters", "5"], ["bench", "--power-iters", "5"],
                 ["estimate-lipschitz", "--iterations", "5"]):
        assert cli_dispatch(argv) == 2, argv


@pytest.mark.parametrize("flags, message", [
    (["--batch", "0"], "batch size must satisfy 1 <= b <= n=20, got 0"),
    (["--epochs", "0"], "epochs must be >= 1, got 0"),
    (["--steps", "fixed"], "fixed steps must be a positive finite (gamma_x, gamma_y), got None"),
    (["--steps", "fixed", "--gamma-x", "0.1"], "fixed steps must be a positive finite (gamma_x, gamma_y), got None"),
    (["--lipschitz-const", "1"], "lipschitz_const needs step_policy='theoretical', got 'practical'"),
    (["--steps", "theoretical", "--lipschitz-const", "0"], "lipschitz_const must be finite and positive, got 0.0"),
    (["--gamma-x", "0.1", "--gamma-y", "0.1"], "fixed_steps needs step_policy='fixed', got 'practical'"),
    (["--gamma-x", "0.1"], "--gamma-x and --gamma-y need each other and --steps fixed, got --steps practical"),
    (["--steps", "theoretical", "--gamma-y", "0.1"],
     "--gamma-x and --gamma-y need each other and --steps fixed, got --steps theoretical"),
    (["--algo", "spring-sarah", "--sarah-p", "nan"], "SARAH period must satisfy 1 <= p < inf, got nan"),
    (["--algo", "spring-sarah", "--sarah-p", "nan", "--steps", "theoretical", "--lipschitz-const", "1"],
     "SARAH period must satisfy 1 <= p < inf, got nan"),
    (["--tol", "nan"], "grad_map_tolerance must satisfy 0 <= tol < inf, got nan"),
    (["--tol", "-1"], "grad_map_tolerance must satisfy 0 <= tol < inf, got -1.0"),
    (["--repeat", "0"], "repeat must be >= 1, got 0"),
])
@pytest.mark.parametrize("command", ["run", "bench"])
def test_cli_rejected_solver_flag_exits_2(tmp_path, capsys, command, flags, message):
    # A solver flag the validator rejects is a usage error, reported in the validator's words,
    # and nothing is written.
    code = cli_dispatch([command, "--problem", "toy-nmf", "--out", str(tmp_path / "o"), *flags])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"
    assert not (tmp_path / "o").exists()


def test_cli_bench_rejects_a_later_algorithm_before_writing(tmp_path, capsys):
    # PALM and iPALM accept the theoretical policy and SGD does not: bench checks every
    # algorithm's configuration before its first run.
    code = cli_dispatch(["bench", "--problem", "toy-nmf", "--steps", "theoretical", "--epochs", "1",
                         "--out", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr() == ("", "error: the theoretical step policy applies to variance-reduced "
                                       "estimators only\n")
    assert not (tmp_path / "o").exists()


def test_cli_runtime_failure_exits_1(tmp_path):
    code = cli_dispatch(["run", "--problem", "nmf", "--data", str(tmp_path / "missing.csv"),
                         "--algo", "palm", "--out", str(tmp_path / "o")])
    assert code == 1


@pytest.mark.parametrize("argv, message", [
    (["check-grad", "--problem", "nmf"], "problem 'nmf' needs a data matrix path"),
    (["estimate-lipschitz", "--problem", "bid"], "problem 'bid' needs a blurred-image path"),
], ids=["check-grad-nmf", "estimate-lipschitz-bid"])
def test_cli_missing_input_path_exits_1(argv, message, capsys):
    assert cli_dispatch(argv) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


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
], ids=["0", "-1", "999"])
def test_cli_estimate_lipschitz_rejects_bad_batch(flags, message, capsys):
    # A setting the solver's validator rejects is a usage error here too.
    code = cli_dispatch(["estimate-lipschitz", "--problem", "toy-bid", *flags])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert message in err


def test_cli_config_file_defaults_and_overrides(tmp_path, capsys):
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
    # A misspelt or removed key is a usage error naming the keys, not a run under the defaults.
    capsys.readouterr()
    cfg.write_text("algo = spring-sgd\nepoch = 2\nparallelism = 2\nout = {}\n".format(tmp_path / "c4"))
    assert cli_dispatch(["run", "--config", str(cfg), "--deterministic-timing"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {cfg}: unknown keys for run: epoch, parallelism\n"
    assert not Path(tmp_path, "c4").exists()
    # The power method's length is the library's draw rule, not a setting.
    cfg.write_text("power_iters = 5\nout = {}\n".format(tmp_path / "c5"))
    assert cli_dispatch(["run", "--config", str(cfg)]) == 2
    assert capsys.readouterr() == ("", f"error: {cfg}: unknown keys for run: power_iters\n")
    assert not Path(tmp_path, "c5").exists()
    # Keys of another subcommand are unknown too: check-grad has no --epochs.
    cfg.write_text("points = 1\nepochs = 2\n")
    assert cli_dispatch(["check-grad", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: {cfg}: unknown keys for check-grad: epochs\n"


def test_cli_bench_writes_files(tmp_path):
    out = str(tmp_path / "bench")
    code = cli_dispatch(["bench", "--problem", "toy-nmf", "--epochs", "2", "--batch", "2",
                         "--out", out, "--deterministic-timing",
                         "--algos", "palm,spring-sgd"])
    assert code == 0
    assert Path(out, "bench_summary.csv").exists()


@pytest.mark.parametrize("algos, message", [
    ("", "bench needs the palm baseline in the algorithm list, got []"),
    ("spring-sgd", "bench needs the palm baseline in the algorithm list, got ['spring-sgd']"),
    ("palm,bogus", "unknown algorithm(s) 'bogus'; expected names from "
                   "('palm', 'ipalm', 'spring-sgd', 'spring-saga', 'spring-sarah')"),
], ids=["empty", "no-palm", "unknown"])
def test_cli_bench_rejects_bad_algos_before_any_run(tmp_path, capsys, algos, message):
    out = tmp_path / "bench"
    code = cli_dispatch(["bench", "--problem", "toy-nmf", "--epochs", "1", "--out", str(out), "--algos", algos])
    assert code == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


def test_cli_config_file_values_take_flag_types(tmp_path, monkeypatch, capsys):
    # A config-file value is converted by its flag's type, as on the command line.
    seen = []
    monkeypatch.setattr("springopt.harness.cli.run_experiment",
                        lambda spec: seen.append(spec) or {"algorithm": "palm", "runs": []})
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("problem = toy-pca\nrank = 3\nlam1 = 1\nsarah-p = 4\nout = 7\n")
    assert cli_dispatch(["run", "--config", str(cfg)]) == 0
    spec = seen[0]
    assert spec.problem == ProblemSpec("toy-pca", rank=3, lam1=1.0)
    assert type(spec.problem.lam1) is float and type(spec.config.sarah_p) is float and spec.out_dir == "7"
    # A value the flag's type rejects is a usage error.
    cfg.write_text("epochs = two\n")
    capsys.readouterr()
    assert cli_dispatch(["run", "--config", str(cfg)]) == 2
    assert "argument --epochs: invalid int value: 'two'" in capsys.readouterr().err
    assert len(seen) == 1
