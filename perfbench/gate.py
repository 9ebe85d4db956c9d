"""Correctness gate: every solve's result is re-checked with plain NumPy.

The objective is recomputed from the returned iterate with formulas written
here, independent of ``springopt.core`` and ``springopt.problems``, and must
match the trace's last objective within ``RTOL`` and, for a to-target solve,
be at most the target.  The iterate must also be feasible for the problem's
constraints.
"""

from __future__ import annotations

import numpy as np

# Relative tolerance between the recomputed objective and the trace's.  The
# library sums components in a different order than the formulas below, so
# the two differ by rounding only: ~1e-15 relative on these sizes.
RTOL = 1e-9


def nmf_objective(A: np.ndarray, X: np.ndarray, Y: np.ndarray) -> float:
    """||A - XY||_F^2."""
    resid = A - X @ Y
    return float(np.sum(resid * resid))


def correlate_valid(image: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Valid-region 2-D correlation, one shifted slice per kernel entry."""
    kh, kw = kernel.shape
    out_h, out_w = image.shape[0] - kh + 1, image.shape[1] - kw + 1
    out = np.zeros((out_h, out_w))
    for a in range(kh):
        for b in range(kw):
            out += kernel[a, b] * image[a:a + out_h, b:b + out_w]
    return out


def bid_objective(Z: np.ndarray, X: np.ndarray, Y: np.ndarray, lam: float, theta: float) -> float:
    """||Z - X (*) Y||_F^2 + lam * sum log(1 + theta v^2) over the forward
    differences v of X (the zero boundary differences add log 1 = 0)."""
    resid = Z - correlate_valid(X, Y)
    edges = np.concatenate([np.diff(X, axis=1).ravel(), np.diff(X, axis=0).ravel()])
    return float(np.sum(resid * resid) + lam * np.sum(np.log1p(theta * edges * edges)))


def nmf_violations(X: np.ndarray, Y: np.ndarray, s: int) -> list[str]:
    found = []
    if np.any(X < 0):
        found.append("X has a negative entry")
    if np.any(np.count_nonzero(X, axis=0) > s):
        found.append(f"a column of X has more than {s} nonzeros")
    if np.any(Y < 0):
        found.append("Y has a negative entry")
    return found


def bid_violations(X: np.ndarray, Y: np.ndarray) -> list[str]:
    found = []
    if np.any(X < 0) or np.any(X > 1):
        found.append("image leaves [0, 1]")
    if np.any(Y < 0) or np.any(Y > 1):
        found.append("kernel leaves [0, 1]")
    if Y.sum() > 1.0:
        found.append(f"kernel sum {Y.sum():.17g} exceeds 1")
    return found


def check(data: dict, x: np.ndarray, y: np.ndarray, trace_objective: float,
          target: float | None) -> list[str]:
    """Reasons a solve's result is wrong; empty when it passes.

    A fixed-length solve has no target (``None``) and skips that check.

    ``data`` describes the problem: ``{"kind": "nmf", "A", "r", "s"}`` or
    ``{"kind": "bid", "Z", "kernel", "lam", "theta"}``.
    """
    if data["kind"] == "nmf":
        A = data["A"]
        X, Y = x.reshape(A.shape[0], data["r"]), y.reshape(data["r"], A.shape[1])
        value = nmf_objective(A, X, Y)
        problems = nmf_violations(X, Y, data["s"])
    else:
        Z, k = data["Z"], data["kernel"]
        X, Y = x.reshape(Z.shape[0] + k - 1, Z.shape[1] + k - 1), y.reshape(k, k)
        value = bid_objective(Z, X, Y, data["lam"], data["theta"])
        problems = bid_violations(X, Y)
    if not abs(value - trace_objective) <= RTOL * abs(value):
        problems.append(f"recomputed objective {value!r} does not match the trace's {trace_objective!r}")
    if target is not None and not value <= target * (1.0 + RTOL):
        problems.append(f"recomputed objective {value!r} is above the target {target!r}")
    return problems
