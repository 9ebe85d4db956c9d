"""Step-size machinery: Lipschitz draws and step bounds.

Block step sizes come from one of three sources:

* practical per-algorithm rules driven by a Lipschitz value of the partial
  gradient, drawn on the fly;
* the theoretical bound that the variance-reduction constants impose on the
  larger of the two step sizes (plus the per-block 1/(4L) caps);
* fixed user-supplied constants.

A problem's hooks ``lipschitz_x/lipschitz_y(x, y, batch)`` return their
block's Lipschitz value on ``batch`` and the operator applications they made
for it.  Every value is exact or an upper bound at the point it is drawn at:
the factorization hooks take the exact top eigenvalue of an r x r Gram
matrix, the quadratic toys return their constant, and the blind-deconvolution
hooks a closed form or ``collatz_wielandt_bound``, which bounds the top
eigenvalue of an entrywise nonnegative symmetric G that majorizes the
block's curvature (Horn & Johnson, *Matrix Analysis*, Thm 8.1.26): for
v = G^(k-1) 1, lambda_max(G) <= max_i (G v)_i / v_i over the support of v.
It is non-increasing in the pass count.  No draw reads a random stream.

``lipschitz_draw`` is the solver's draw: both blocks' values on one batch,
x first, and their charge in stochastic first-order oracle calls (SFO),
``len(batch)`` per operator application.
"""

from __future__ import annotations

import math
import warnings
from typing import Callable

import numpy as np

from .core import BlockProblem, Iterate

ALGORITHMS = ("palm", "ipalm", "spring-sgd", "spring-saga", "spring-sarah")

# Floor applied to Lipschitz estimates before inversion.
EPS_LIPSCHITZ = 1e-12

# The reduction behind ndarray.max, without its Python wrapper.
_max = np.maximum.reduce


def collatz_wielandt_bound(
    apply: Callable[[np.ndarray], np.ndarray],
    dim: int,
    passes: int,
) -> tuple[float, int]:
    """Upper bound on lambda_max(G) from ``passes`` applications of ``apply``, v -> G v,
    with the applications made.

    G must be entrywise nonnegative and symmetric, and ``apply`` returns a
    float ndarray.  From v = 1, each pass but the last applies G and divides
    by the result's maximum; the last returns max_i (G v)_i / v_i over the
    support of v.  The support of G^k 1 is the set of G's nonzero rows for
    every k >= 1, and G restricted to it is G's nonzero block, so the ratio
    bounds lambda_max by the Collatz-Wielandt inequality (Horn & Johnson,
    *Matrix Analysis*, Thm 8.1.26).  The bound does not increase with the
    pass count, is exact on a rank-one G from two passes, and is 0 for the
    zero operator.  No randomness is involved.  A pass whose maximum is 0 or
    not finite stops early with that maximum as the bound.
    """
    if passes < 1:
        raise ValueError(f"the bound needs at least one pass, got {passes}")
    if dim < 1:
        raise ValueError(f"operator dimension must be >= 1, got {dim}")
    v = np.ones(dim)
    for applied in range(1, passes):
        w = apply(v)
        top = float(_max(w))
        if top == 0.0 or not math.isfinite(top):
            return top, applied
        v = w / top
    w = apply(v)
    if not np.minimum.reduce(v) > 0.0:  # gather the support, unless it is all of v
        support = v > 0.0
        w, v = w[support], v[support]
    return float(_max(w / v, initial=0.0)), passes


def lipschitz_draw(problem: BlockProblem, z: Iterate, batch: np.ndarray) -> tuple[float, float, int]:
    """One (L_x, L_y) draw from the hooks on ``batch`` at z, x first, and its SFO
    charge: ``len(batch)`` per operator application."""
    if problem.lipschitz_x is None or problem.lipschitz_y is None:
        raise ValueError(
            "the practical/theoretical step policies need the problem's Lipschitz hooks; "
            "use step_policy='fixed' for problems without them"
        )
    lx, applied_x = problem.lipschitz_x(z.x, z.y, batch)
    ly, applied_y = problem.lipschitz_y(z.x, z.y, batch)
    return lx, ly, (applied_x + applied_y) * len(batch)


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

    These are heuristics, not the analysis' steps.  The PALM step is exactly
    1/L for the value L it is given, and every hook's value is exact or an
    upper bound at the point it is drawn at.  The one deviation from PALM's
    analysis (Bolte, Sabach, Teboulle 2014) left is that its descent lemma
    asks for a step strictly below 1/L, and 1/L is taken.
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
