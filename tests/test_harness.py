import dataclasses
import hashlib
import math
import re
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from springopt import solver
from springopt.harness import datasets, io, runner, svgplot
from springopt.harness.cli import build_parser, cli_dispatch
from springopt.harness.runner import ProblemSpec, RunSpec, bench, run_experiment
from springopt.lipschitz import ALGORITHMS
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


def test_csv_matrix_parses_cells_like_float(tmp_path):
    # Signed zero, the smallest subnormal, 17 significant digits and padded cells, bit for bit.
    cells = [["-0", "5e-324", "0.33333333333333331"],
             [" 1.0000000000000001e+300", "\t-2.4999999999999999e-07 ", " 7 "]]
    path = tmp_path / "cells.csv"
    path.write_text("\n".join(",".join(row) for row in cells) + "\n")
    got = io.load_matrix(path)
    want = np.array([[float(c) for c in row] for row in cells])
    assert got.dtype == np.float64 and got.shape == (2, 3)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("text, line, message", [
    ("1,x\n3\n", 1, "could not convert"),
    ("1,inf\n3\n", 1, "non-finite"),
    ("1,2\n3\n4,x\n", 2, "ragged"),
    ("1,2\n\n3,nan\n4,x\n", 3, "non-finite"),
], ids=["bad-then-ragged", "inf-then-ragged", "ragged-then-bad", "blank-line-counted"])
def test_csv_matrix_reports_the_first_faulty_line(tmp_path, text, line, message):
    path = tmp_path / "faults.csv"
    path.write_text(text)
    with pytest.raises(io.FormatError, match=f"line {line}: {message}"):
        io.load_matrix(path)


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
    io.save_image_pgm(p5, img)
    samples = np.rint(img * 255.0).astype(int)
    p2.write_text("P2\n9 9\n255\n" + "\n".join(" ".join(map(str, row)) for row in samples) + "\n")
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


def test_pgm_rejects_a_size_below_one(tmp_path):
    # A negative width loaded as a (4, 0) image; its sign makes the header malformed.
    for header, fault in ((b"P5\n-1 4\n255\n", "malformed PGM header"), (b"P5\n0 4\n255\n", "image size"),
                          (b"P5\n4 0\n255\n", "image size")):
        path = tmp_path / "size.pgm"
        path.write_bytes(header + bytes(4))
        with pytest.raises(io.FormatError, match=re.escape(f"{path}: {fault}")):
            io.load_image(path)


@pytest.mark.parametrize("raw", [
    b"P2\n+2 1\n2_55\n0 7\n", b"P2\n2 +1\n255\n0 7\n", b"P5\n2 1\n+255\n\x00\x07", b"P5\n2_0 1\n255\n" + bytes(20),
], ids=["p2-plus-width-separator-maxval", "p2-plus-height", "p5-plus-maxval", "p5-separator-width"])
def test_pgm_header_takes_decimal_digits_only(tmp_path, raw):
    # int() read "+2" as 2 and "2_55" as 255, so the first of these loaded as a (1, 2) image.
    path = tmp_path / "header.pgm"
    path.write_bytes(raw)
    with pytest.raises(io.FormatError, match=re.escape(f"{path}: malformed PGM header")):
        io.load_image(path)


# One header or sample token, never split by whitespace nor read as a comment.
_NOT_DIGITS = st.one_of(
    st.sampled_from([b"+1", b"-0", b"1_0", b"1.0", b"0x1", b"\xd9\xa1"]),
    st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=4).map(str.encode),
).filter(lambda tok: not tok.isdigit() and tok.split() == [tok] and not tok.startswith(b"#"))


# Each example rewrites one file before reading it, so the examples can share tmp_path.
@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(magic=st.sampled_from([b"P5", b"P2"]), position=st.integers(0, 4), token=_NOT_DIGITS)
def test_pgm_token_that_is_not_decimal_digits_names_the_file(tmp_path, magic, position, token):
    # Width, height and maxval of a 2x1 image, then its two P2 samples.
    assume(magic == b"P2" or position < 3)
    fields = [b"2", b"1", b"255", b"0", b"7"]
    fields[position] = token
    payload = b" ".join(fields[3:]) if magic == b"P2" else bytes([0, 7])
    path = tmp_path / "token.pgm"
    path.write_bytes(magic + b"\n" + b" ".join(fields[:3]) + b"\n" + payload)
    with pytest.raises(io.FormatError, match=re.escape(f"{path}: ")):
        io.load_image(path)


@settings(max_examples=30, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(pixels=arrays(np.uint8, array_shapes(min_dims=2, max_dims=2, max_side=8)))
def test_pgm_8bit_images_round_trip_exactly(tmp_path, pixels):
    height, width = pixels.shape
    p5, p2 = tmp_path / "rt5.pgm", tmp_path / "rt2.pgm"
    io.save_image_pgm(p5, pixels / 255.0)
    p2.write_text(f"P2\n{width} {height}\n255\n" + "\n".join(" ".join(map(str, row)) for row in pixels) + "\n")
    for path in (p5, p2):
        np.testing.assert_array_equal(io.load_image(path), pixels / 255.0)


def test_pgm_p5_without_a_payload_separator_names_the_file(tmp_path):
    # The payload offset ran past the file's end, which NumPy raised without the path.
    path = tmp_path / "cut.pgm"
    path.write_bytes(b"P5\n2 2\n255")
    with pytest.raises(io.FormatError, match=re.escape(f"{path}: no whitespace byte after maxval")):
        io.load_image(path)


def test_pgm_p2_non_integer_sample_names_the_file_and_index(tmp_path):
    path = tmp_path / "float.pgm"
    path.write_text("P2\n2 2\n255\n0 12 1.5 255\n")
    with pytest.raises(io.FormatError, match=re.escape(f"{path}: P2 sample 2 is not an integer")):
        io.load_image(path)


@pytest.mark.parametrize("payload, index, token", [
    ("1_0 +7", 0, "1_0"), ("7 +7", 1, "+7"), ("0 -0", 1, "-0"),
], ids=["separator", "plus", "minus-zero"])
def test_pgm_p2_sample_takes_decimal_digits_only(tmp_path, payload, index, token):
    # int() read "1_0" as 10, "+7" as 7 and "-0" as 0; none of them is a PGM sample.
    path = tmp_path / "signed.pgm"
    path.write_text(f"P2\n2 1\n255\n{payload}\n")
    message = f"{path}: P2 sample {index} is not an integer: {token.encode()!r}"
    with pytest.raises(io.FormatError, match=re.escape(message)):
        io.load_image(path)


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


@pytest.mark.parametrize("mode, xaxis, digest", [
    ("objective", "epoch", "e803499e3b923236aed4ed662fcf49fcc53524c69a2c0969dbbebad2b4da598f"),
    ("objective", "sfo", "c969a55fb98b6128a05b623ee5486152f5bbbc2b6402f9cabf2d248af7d14132"),
    ("gradmap", "epoch", "7b8e1b8293c793dbefd0b9b49745b9639ed6bb106992f86d826ac6739ec5c215"),
])
def test_svg_bytes_pinned(tmp_path, mode, xaxis, digest):
    # The three (mode, x-axis) pairs of the README's bench recipe, on one two-row trace.
    trace = Trace(rows=[TraceRow(1.0, 2, 10.0, 1.0, 0.0, 0), TraceRow(2.0, 4, 5.0, 0.5, 0.0, 0)])
    out = tmp_path / "p.svg"
    svgplot.emit_plot([("demo", trace)], out, mode=mode, xaxis=xaxis)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


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


def test_run_experiment_sweeps_the_largest_numpy_seed(tmp_path):
    # The sweep counts in Python integers: from np.uint64(2**64 - 1), adding the repeat
    # count in the seed's own type wrapped to 0 with a RuntimeWarning, and the sweep ran
    # nothing and wrote an empty summary.
    spec = _toy_spec(tmp_path, seed=np.uint64(2**64 - 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        summary = run_experiment(spec)
    assert [(r["seed"], r["status"]) for r in summary["runs"]] == [(2**64 - 1, "ok")]
    assert [path.name for path in Path(spec.out_dir).glob("trace_*.csv")] == [f"trace_palm_seed{2**64 - 1}.csv"]


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
    # seed 1 diverges with a partial trace, seed 2 with an empty one.
    if config.seed == 1:
        raise DivergenceError("blown up", trace=Trace(rows=_FAKE_ROWS[:1]))
    if config.seed == 2:
        raise DivergenceError("blown up", trace=Trace())
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
        b"palm,1,diverged,2.5,40,nan\n"
        b"palm,2,diverged,nan,0,nan\n"
        b"spring-sgd,0,ok,0.083333333333333329,80,2\n"
        b"spring-sgd,1,diverged,2.5,40,nan\n"
        b"spring-sgd,2,diverged,nan,0,nan\n"
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


@pytest.mark.parametrize("gamma_y", ["100", "1e300"])
def test_cli_bid_run_with_huge_kernel_steps_finishes(tmp_path, run_python, gamma_y):
    # A huge kernel step puts the projection's threshold far above 2^13; the run
    # must finish (ok or diverged) rather than hang, and warn about nothing.
    done = run_python("-m", "springopt.harness.cli", "run", "--problem", "toy-bid", "--algo", "palm",
                      "--steps", "fixed", "--gamma-x", "0.01", "--gamma-y", gamma_y, "--epochs", "3",
                      "--out", str(tmp_path / "cli"))
    assert done.returncode == 0 and done.stderr == "", done.stderr
    assert re.search(r"status=(ok|diverged)", done.stdout), done.stdout


def test_cli_unknown_subcommand_exits_2():
    assert cli_dispatch(["frobnicate"]) == 2


def test_cli_unknown_flag_exits_2():
    # Removed flags are usage errors, not silently run under new defaults. bench takes its
    # algorithms from --algos alone, and no flag is abbreviated: neither --algo nor --det
    # stands for the one it is a prefix of.
    for argv in (["run", "--no-such-flag"], ["run", "--no-lipschitz-refresh"], ["bench", "--parallelism", "2"],
                 ["run", "--power-iters", "5"], ["bench", "--power-iters", "5"],
                 ["estimate-lipschitz", "--iterations", "5"], ["bench", "--algo", "palm"], ["run", "--det"]):
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
    (["--sarah-p", "nan"], "SARAH period must satisfy 1 <= p < inf, got nan"),
    (["--sarah-p", "nan", "--steps", "theoretical", "--lipschitz-const", "1"],
     "SARAH period must satisfy 1 <= p < inf, got nan"),
    (["--tol", "nan"], "grad_map_tolerance must satisfy 0 <= tol < inf, got nan"),
    (["--tol", "-1"], "grad_map_tolerance must satisfy 0 <= tol < inf, got -1.0"),
    (["--repeat", "0"], "repeat must be >= 1, got 0"),
    (["--seed", "-1"], "seed must be an integer in [0, 2**64), got -1"),
    (["--seed", str(2**64 - 1), "--repeat", "2"], f"the sweep's last seed {2**64} is outside [0, 2**64)"),
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
    # The five-algorithm comparison plots: one polyline per algorithm in each view.
    out = tmp_path / "cmp"
    assert cli_dispatch(["bench", "--problem", "toy-nmf", "--epochs", "2", "--out", str(out)]) == 0
    traces = sorted(str(p) for p in out.glob("trace_*_seed0.csv"))
    for mode, xaxis in (("objective", "epoch"), ("objective", "sfo"), ("gradmap", "epoch")):
        svg = tmp_path / f"{mode}_vs_{xaxis}.svg"
        assert cli_dispatch(["plot", *traces, "--mode", mode, "--x", xaxis, "--out", str(svg)]) == 0
        text = svg.read_text()
        assert ET.fromstring(text).tag.endswith("svg")
        assert text.count("<polyline") == len(ALGORITHMS)


def test_cli_check_grad(tmp_path):
    assert cli_dispatch(["check-grad", "--problem", "toy-nmf", "--points", "2"]) == 0


@pytest.mark.parametrize("flags, message", [
    (["--seed", "-1"], "seed must be an integer in [0, 2**64), got -1"),
    (["--seed", str(2**64)], f"seed must be an integer in [0, 2**64), got {2**64}"),
    (["--seed", str(2**64 - 2), "--points", "3"], f"the last point's seed {2**64} is outside [0, 2**64)"),
])
def test_cli_check_grad_rejects_a_bad_seed_as_a_usage_error(capsys, flags, message):
    # Point i starts from the seed plus i, so the first and the last point's seeds are
    # checked by the seed rule, as run's and bench's sweeps are: exit 2, nothing printed.
    assert cli_dispatch(["check-grad", "--problem", "toy-nmf", *flags]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert cli_dispatch(["check-grad", "--problem", "toy-nmf", "--seed", str(2**64 - 3), "--points", "3"]) == 0


def test_cli_estimate_lipschitz(capsys):
    assert cli_dispatch(["estimate-lipschitz", "--problem", "toy-nmf", "--batch", "2"]) == 0
    # Pinned: the subsampled draw takes its batch as the solver's lip_batch sampler does.
    assert capsys.readouterr().out.splitlines() == [
        "full-batch estimates: L_x=10.5273 L_y=5.5651",
        "stochastic estimates (b=2): L_x=13.9267 L_y=55.651",
    ]


def test_cli_estimate_lipschitz_prints_the_solvers_first_draws(monkeypatch, capsys):
    # PALM and spring-sgd (b = 2, seed 0) both step 1/L at k = 1, so 1/gamma of each
    # run's first step is its first Lipschitz draw: the full-batch and the sampled line.
    # On toy-bid the full-batch L_x is the closed-form bound 2 ||Y0||_1^2 + 16 lam theta.
    real_step = solver._step

    def spy(*args):
        out = real_step(*args)
        first.setdefault(algo, out[3])
        return out

    monkeypatch.setattr(solver, "_step", spy)
    for kind in ("toy-nmf", "toy-bid"):
        problem, init_fn = ProblemSpec(kind).build()
        first = {}
        for algo in ("palm", "spring-sgd"):
            solver.run(problem, SolverConfig(algorithm=algo, batch_size=2, seed=0), init_fn(0))
        assert cli_dispatch(["estimate-lipschitz", "--problem", kind, "--batch", "2"]) == 0
        drawn = [line.split(": ", 1)[1] for line in capsys.readouterr().out.splitlines()]
        assert drawn == [f"L_x={1.0 / gx:.6g} L_y={1.0 / gy:.6g}" for gx, gy in first.values()], kind
        if kind == "toy-bid":
            bound = 2.0 * float(np.abs(init_fn(0).y).sum()) ** 2 + 16.0 * ProblemSpec.lam * ProblemSpec.theta
            assert first["palm"][0] == 1.0 / bound


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
    # No draw has an iteration count to set.
    cfg.write_text("power_iters = 5\nout = {}\n".format(tmp_path / "c5"))
    assert cli_dispatch(["run", "--config", str(cfg)]) == 2
    assert capsys.readouterr() == ("", f"error: {cfg}: unknown keys for run: power_iters\n")
    assert not Path(tmp_path, "c5").exists()
    # Keys of another subcommand are unknown too: check-grad has no --epochs.
    cfg.write_text("points = 1\nepochs = 2\n")
    assert cli_dispatch(["check-grad", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: {cfg}: unknown keys for check-grad: epochs\n"
    # bench has no --algo, so a bench config may not set one.
    cfg.write_text("algo = palm\n")
    assert cli_dispatch(["bench", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: {cfg}: unknown keys for bench: algo\n"


def test_cli_bench_writes_files(tmp_path):
    for algos in (("palm", "spring-sgd"), ALGORITHMS):
        out = tmp_path / "-".join(algos)
        code = cli_dispatch(["bench", "--problem", "toy-nmf", "--epochs", "2", "--batch", "2",
                             "--out", str(out), "--deterministic-timing", "--algos", ",".join(algos)])
        assert code == 0
        assert (out / "bench_summary.csv").exists()
        for algo in algos:
            assert io.read_trace_csv(out / f"trace_{algo}_seed0.csv").rows


def test_cli_bench_diverged_palm_baseline_is_no_target(tmp_path, capsys):
    # Theoretical PALM on toy PCA blows up; its last objective must not become the target.
    out = tmp_path / "bench"
    assert cli_dispatch(["bench", "--problem", "toy-pca", "--steps", "theoretical", "--algos", "palm,spring-saga",
                         "--epochs", "3", "--batch", "3", "--seed", "0", "--deterministic-timing",
                         "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert re.match(r"palm +seed=0 status=diverged ", lines[0])
    assert re.match(r"spring-saga +seed=0 status=ok .* epochs_to_palm=nan$", lines[1])
    rows = (out / "bench_summary.csv").read_text().splitlines()
    assert [row.split(",")[-1] for row in rows] == ["epochs_to_palm_objective", "nan", "nan"]


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
