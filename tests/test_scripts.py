"""Smoke runs of the example scripts at tiny settings."""

import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from springopt.core import objective
from springopt.harness import io
from springopt.harness.datasets import toy_blurred_image
from springopt.problems import BlindDeblurProblem

ROOT = Path(__file__).resolve().parents[1]


def _run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _assert_plot(path, curves):
    text = path.read_text()
    assert ET.fromstring(text).tag.endswith("svg")
    assert text.count("<polyline") == curves


def test_bid_demo_script_writes_trace_images_and_plot(tmp_path):
    out = _run_script("bid_demo.py", "--size", "16", "--epochs", "1", "--out", str(tmp_path))
    # The printed start is the objective at the initial iterate, not after epoch 1.
    start = float(re.search(r"objective: (\S+) ->", out).group(1))
    Z, _, _ = toy_blurred_image(seed=0, size=16, kernel=5)
    adapter = BlindDeblurProblem(Z=Z, kernel_shape=(5, 5), n_tiles=16)
    assert start == pytest.approx(objective(adapter.block_problem(), adapter.initial_iterate()), abs=1e-6)
    assert io.read_trace_csv(tmp_path / "trace.csv").rows[-1].epoch >= 1.0
    for image in ("observed", "true", "recovered", "kernel"):
        assert io.load_image(tmp_path / f"{image}.pgm").size > 0
    _assert_plot(tmp_path / "objective.svg", 1)
