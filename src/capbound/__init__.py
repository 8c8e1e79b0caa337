"""Certified channel-capacity bounds via dual smoothing and fast gradients."""

from .blahut_arimoto import BAReport, ba_iterations, ba_solve
from .channels import (
    PerturbedSolve,
    make_awgn_quantized,
    make_bec,
    make_bsc,
    make_random,
    parse_channel_spec,
    perturb_channel,
    solve_with_perturbation,
)
from .continuous import (
    ContinuousCost,
    PoissonChannel,
    PoissonGridReport,
    PoissonReport,
    TruncatedChannel,
    choose_truncation_level,
    eval_G_nu_continuous,
    lapidoth_lb,
    poisson_channel,
    poisson_sweep,
    smoothing_gap_bound,
    solve_poisson,
    solve_poisson_grid,
    tail_Rk,
    truncate,
    truncation_error_bound,
)
from .dual_solver import (
    DualPoint,
    SolveReport,
    apriori_error_bound,
    dual_radius,
    eval_F,
    eval_G_nu_constrained,
    eval_G_nu_unconstrained,
    exact_G_constrained,
    exact_G_unconstrained,
    scheduled_iterations,
    smoothing_constants,
    solve_capacity,
)
from .errors import (
    AssumptionViolated,
    CapacityError,
    DimensionMismatch,
    Infeasible,
    InvalidChannel,
    InvalidOrder,
    NeedLargerM,
    NewtonStall,
)
from .info_theory import (
    ChannelMatrix,
    CostConstraint,
    ProbVector,
    channel_diff_norm,
    continuity_capacity_bound,
    entropy,
    mutual_information,
)

__version__ = "0.1.0"
