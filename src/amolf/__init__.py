"""Single-hidden-layer MLP training with grouped optimal learning factors.

The package pairs classic second-order trainers (output-weight solving with
optimal step sizes, full input-weight second-order steps, damped
full-network steps, conjugate gradient) with an adaptive variant that
groups each hidden unit's input weights by curvature, computes one optimal
step size per group, and adapts the group count to the error change per
multiply. A closed-form multiply ledger and a k-fold experiment harness
make error-versus-compute comparisons exact and reproducible.
"""

from .cost import CostLedger, epm
from .dataset import (
    Dataset,
    FoldPlan,
    gen_matrix_inversion,
    kfold_split,
    load_tra,
    make_dataset,
    normalize_zero_mean,
)
from .experiment import (
    ExperimentConfig,
    KfoldReport,
    TrainingCurve,
    emit_curve,
    run_kfold,
    run_training,
)
from .gradients import GradientBundle, backprop, curvature_map
from .linalg import SolveReport, solve_sym
from .network import ForwardTrace, Mlp, forward, init_net_control, mse
from .owo import Correlations, accumulate_correlations, solve_output_weights
from .trainers import (
    ALGORITHMS,
    AmolfState,
    TrainerState,
    build_partition,
    init_state,
    iterate,
)

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "AmolfState",
    "Correlations",
    "CostLedger",
    "Dataset",
    "ExperimentConfig",
    "FoldPlan",
    "ForwardTrace",
    "GradientBundle",
    "KfoldReport",
    "Mlp",
    "SolveReport",
    "TrainerState",
    "TrainingCurve",
    "accumulate_correlations",
    "backprop",
    "build_partition",
    "curvature_map",
    "emit_curve",
    "epm",
    "forward",
    "gen_matrix_inversion",
    "init_net_control",
    "init_state",
    "iterate",
    "kfold_split",
    "load_tra",
    "make_dataset",
    "mse",
    "normalize_zero_mean",
    "run_kfold",
    "run_training",
    "solve_output_weights",
    "solve_sym",
]
