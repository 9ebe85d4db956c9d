"""Block-coordinate stochastic proximal optimization.

Alternating prox-gradient methods for two-block composite objectives
J(x) + (1/n) sum_i F_i(x, y) + R(y): deterministic PALM, its inertial
variant, and stochastic versions driven by SGD, SAGA, or loopless SARAH
partial-gradient estimators, with on-the-fly power-method step sizes and
gradient-map convergence diagnostics.
"""

from .core import (
    BlockProblem,
    CurvatureOperator,
    Iterate,
    OracleCounter,
    full_grad_x,
    full_grad_y,
    objective,
    prox_generic,
    with_oracle_counter,
)
from .estimators import (
    BatchSampler,
    SagaState,
    SarahState,
    VarianceProbe,
    estimator_constants,
    probe_upsilon_saga,
    probe_upsilon_sarah,
    saga_estimate_x,
    saga_estimate_y,
    sample_batch,
    sarah_estimate_x,
    sarah_estimate_y,
    sgd_estimate_x,
    sgd_estimate_y,
)
from .lipschitz import (
    closed_form_step_cap,
    ipalm_momentum,
    lipschitz_draw,
    lipschitz_estimate,
    power_estimate_sq_norm,
    practical_step_sizes,
    theoretical_step_bound,
)
from .diagnostics import (
    GradMapEval,
    bruteforce_prox_l0_nonneg,
    exhaustive_mse,
    fd_gradient_check,
    generalized_gradient_map,
    is_eps_critical,
    lyapunov_psi,
)
from .problems import (
    BlindDeblurProblem,
    SparseNmfProblem,
    SparsePcaProblem,
    bid_forward,
    make_random_quadratic,
    make_separable_quadratic,
    project_box_l1,
    prox_l0_nonneg_columns,
    prox_l1,
    prox_nonneg,
)
from .solver import (
    ConfigError,
    DivergenceError,
    EstimatorDriver,
    RunResult,
    SolverConfig,
    Trace,
    TraceRow,
    ipalm_step,
    palm_step,
    run,
    spring_step,
)

__version__ = "0.1.0"
