"""Block-coordinate stochastic proximal optimization.

Alternating prox-gradient methods for two-block composite objectives
J(x) + (1/n) sum_i F_i(x, y) + R(y): deterministic PALM, its inertial
variant, and stochastic versions driven by SGD, SAGA, or loopless SARAH
partial-gradient estimators, with on-the-fly Lipschitz step sizes and
gradient-map convergence diagnostics.

Each name is imported from the module that defines it (``springopt.solver``,
``springopt.problems``, ...); the package root holds only ``__version__``.
"""

__version__ = "0.1.0"
