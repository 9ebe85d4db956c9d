"""Step-size machinery: power-method curvature estimates and step bounds.

Block step sizes come from one of three sources:

* practical per-algorithm rules driven by a power-method estimate of the
  partial-gradient Lipschitz constant, refreshed on the fly;
* the theoretical bound that the variance-reduction constants impose on the
  larger of the two step sizes (plus the per-block 1/(4L) caps);
* fixed user-supplied constants.

The power method estimates the largest squared singular value of an operator
M through the symmetric action v -> M^T(M v).  It is a Rayleigh-type
estimate: monotonically non-decreasing in the iteration count and never
above the true value, so no safety factor is applied on top of it.  It runs in
one place, ``lipschitz_estimate``, on the operator a problem's hook returns.
"""

from __future__ import annotations

import math
import warnings
from typing import Callable

import numpy as np

from .core import CurvatureOperator

ALGORITHMS = ("palm", "ipalm", "spring-sgd", "spring-saga", "spring-sarah")

# Floor applied to Lipschitz estimates before inversion.
EPS_LIPSCHITZ = 1e-12

# The solver's draw rule: power-method iterations per Lipschitz draw.
POWER_ITERATIONS = 5


def power_estimate_sq_norm(
    apply: Callable[[np.ndarray], np.ndarray],
    dim: int,
    iterations: int,
    rng: np.random.Generator,
) -> float:
    """Estimate ||M||^2 from the PSD action v -> M^T(M v).

    Runs ``iterations`` normalized iterations from a random unit vector
    drawn from ``rng`` and returns the norm of one more application.
    Returns 0 when the operator annihilates the sampled direction.
    """
    if iterations < 1:
        raise ValueError(f"power method needs at least one iteration, got {iterations}")
    if dim < 1:
        raise ValueError(f"operator dimension must be >= 1, got {dim}")
    v = rng.standard_normal(dim)
    v /= _norm(v)
    for _ in range(iterations):
        w = np.asarray(apply(v), dtype=float)
        nrm = _norm(w)
        if nrm == 0.0:
            return 0.0
        v = w / nrm
    return _norm(np.asarray(apply(v), dtype=float))


def lipschitz_estimate(op: CurvatureOperator, iterations: int, rng: np.random.Generator) -> float:
    """Lipschitz estimate of a hook's operator: the power method's estimate plus ``op.shift``."""
    return power_estimate_sq_norm(op.apply, op.dim, iterations, rng) + op.shift


def _norm(v: np.ndarray) -> float:
    # np.linalg.norm(v) of a real array is sqrt(x.dot(x)) with x = v.ravel(order="K");
    # the same steps without its dispatch overhead, so the result is bitwise equal.
    # (The flattening matters: BLAS sums a strided vector in another order.)
    flat = v.ravel(order="K")
    return math.sqrt(float(flat.dot(flat)))


def _floored(lip: float) -> float:
    if not lip > EPS_LIPSCHITZ:
        warnings.warn(
            f"Lipschitz estimate {lip:g} at or below floor {EPS_LIPSCHITZ:g}; step size clamped",
            RuntimeWarning,
            stacklevel=3,
        )
        return EPS_LIPSCHITZ
    return lip


def practical_step_sizes(
    algorithm: str,
    lip_x: float,
    lip_y: float,
    k: int = 1,
    b: int = 1,
    n: int = 1,
) -> tuple[float, float]:
    """Per-algorithm practical step sizes from Lipschitz estimates.

    palm: 1/L;  ipalm: 0.9/L;  spring-sgd: 1/(sqrt(ceil(k b / n)) L) with the
    epoch counter k >= 1;  spring-saga: 1/(3L);  spring-sarah: 1/(2L).
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")
    lx, ly = _floored(lip_x), _floored(lip_y)
    if algorithm == "palm":
        return 1.0 / lx, 1.0 / ly
    if algorithm == "ipalm":
        return 0.9 / lx, 0.9 / ly
    if algorithm == "spring-sgd":
        if k < 1:
            raise ValueError(f"SGD step decay needs iteration counter k >= 1, got {k}")
        decay = math.sqrt(math.ceil(k * b / n))
        return 1.0 / (decay * lx), 1.0 / (decay * ly)
    if algorithm == "spring-saga":
        return 1.0 / (3.0 * lx), 1.0 / (3.0 * ly)
    return 1.0 / (2.0 * lx), 1.0 / (2.0 * ly)  # spring-sarah


def theoretical_step_bound(
    L_bar: float,
    v1: float,
    v_upsilon: float,
    rho: float,
    variant: str = "rate",
) -> float:
    """Upper bound on max(gamma_x, gamma_y) from the convergence analysis.

    With A = V1 + V_upsilon/rho and coefficient c (16 for the plain rate,
    20 under the error-bound condition):

        bound = (1/c) sqrt(L^2/A^2 + c/A) - L/(c A)
              = 1 / (L (1 + sqrt(1 + c A / L^2)))      (algebraically equal)

    The second form is evaluated because it is stable for small A.  Callers
    must additionally enforce gamma_x < 1/(4 L_x) and gamma_y < 1/(4 L_y).
    """
    if variant == "rate":
        c = 16.0
    elif variant == "error_bound":
        c = 20.0
    else:
        raise ValueError(f"unknown variant {variant!r}; expected 'rate' or 'error_bound'")
    if rho <= 0:
        raise ValueError(f"rho must be positive, got {rho}")
    A = v1 + v_upsilon / rho
    if A < 0:
        raise ValueError("variance constants must be nonnegative")
    if L_bar <= 0:
        raise ValueError(f"L must be positive, got {L_bar}")
    if A == 0.0:
        return 1.0 / (2.0 * L_bar)
    return 1.0 / (L_bar * (1.0 + math.sqrt(1.0 + c * A / (L_bar * L_bar))))


def closed_form_step_cap(kind: str, L: float, n: int | None = None) -> float:
    """Closed-form step caps for the default parameterizations.

    SARAH with refresh period p = n: 1/(2 L sqrt(30 n)).
    SAGA with b = n^(2/3): 1/(2 sqrt(2710) L).
    """
    if L <= 0:
        raise ValueError(f"L must be positive, got {L}")
    if kind == "sarah":
        if n is None or n < 1:
            raise ValueError("SARAH cap needs the component count n")
        return 1.0 / (2.0 * L * math.sqrt(30.0 * n))
    if kind == "saga":
        return 1.0 / (2.0 * math.sqrt(2710.0) * L)
    raise ValueError(f"unknown estimator kind {kind!r}")


def ipalm_momentum(k: int) -> float:
    """Dynamic inertial weight (k - 1) / (k + 2) for iteration k >= 1."""
    if k < 1:
        raise ValueError(f"momentum is defined for k >= 1, got {k}")
    return (k - 1.0) / (k + 2.0)
