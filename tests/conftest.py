import os
import subprocess
import sys
from pathlib import Path

import hypothesis
import numpy as np
import pytest

from springopt.core import Iterate
from springopt.problems import make_random_quadratic, make_separable_quadratic

hypothesis.settings.register_profile("ci", max_examples=50, deadline=None)
hypothesis.settings.load_profile("ci")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    """One visible PASS/FAIL line per acceptance criterion."""
    outcome = yield
    rep = outcome.get_result()
    if rep.when == "call" and item.fspath.basename == "test_acceptance.py":
        term = item.config.pluginmanager.get_plugin("terminalreporter")
        if term is not None:
            verdict = "PASS" if rep.passed else "FAIL"
            term.write_line(f"[acceptance] {item.name}: {verdict}")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def quad5():
    """Random coupled quadratic, n=5, dims 4/4, plus its metadata."""
    return make_random_quadratic(dim_x=4, dim_y=4, n=5, seed=3)


@pytest.fixture
def quad6():
    """n=6 instance for exhaustive-batch enumerations with b=2."""
    return make_random_quadratic(dim_x=3, dim_y=3, n=6, seed=11)


@pytest.fixture
def sep10():
    """Separable least-squares toy with 10 components."""
    return make_separable_quadratic(dim_x=4, dim_y=4, n=10, seed=5)


@pytest.fixture
def random_iterate(rng):
    def make(problem, scale=1.0, seed=None):
        gen = rng if seed is None else np.random.default_rng(seed)
        return Iterate(scale * gen.standard_normal(problem.dim_x),
                       scale * gen.standard_normal(problem.dim_y))

    return make


@pytest.fixture
def run_python():
    """Run ``python ARGS`` with this checkout's src/ importable; a hang fails after 60 s."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return lambda *args: subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=60, env=env)
