"""netalloc: distributed resource allocation over random networks.

A numpy library with four layers: problem instances with exact projections,
random communication graph models, the noisy stochastic-approximation
recursion with Monte Carlo harness, and the deterministic reference flow
with a KKT-certified centralized oracle.
"""

__version__ = "0.1.0"

from .engine import (
    GaussianNoise,
    MonteCarloResult,
    NetworkState,
    NoiseConfig,
    RunResult,
    SampledQuadraticNoise,
    StepSchedule,
    aggregate_noise,
    apply_step,
    draw_step_noise,
    initial_state,
    monte_carlo,
    run_path,
    step_size,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    DivergenceError,
    GenerationError,
    InconsistencyError,
    NetallocError,
    ProjectionError,
)
from .experiments import (
    DemandResponseSpec,
    ExperimentConfig,
    build_graph_pool,
    constraint_template,
    default_noise,
    demand_response_instance,
    experiment1,
    experiment2,
)
from .network import (
    GraphModel,
    GraphSample,
    ValidationReport,
    algebraic_connectivity,
    laplacian,
    mean_laplacian,
    mean_laplacian_mc,
    sample_graph,
    validate_model,
)
from .odeflow import (
    DriftEvaluation,
    Equilibrium,
    drift,
    equilibrium_construct,
    equilibrium_residual,
    flow,
    lyapunov,
    projected_euler_step,
)
from .oracle import (
    KktReport,
    OracleSolution,
    brute_force_tiny,
    inner_min,
    kkt_check,
    solve_dual,
)
from .problem import (
    AgentSpec,
    LocalSet,
    ObjectiveSpec,
    ProblemSpec,
    contains,
    grad,
    membership_violation,
    problem_from_json,
    problem_to_json,
    project,
    random_instance,
    stationarity_residual,
)
from .streams import STREAM_VERSION, PathStream, path_seed
from .trace import Trace, mean_trace, read_csv, write_csv
