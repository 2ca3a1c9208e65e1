"""Graded neural networks: coordinate-wise graded vector spaces, grade-aware
neurons and losses, a grade-adaptive optimizer, and an experiment harness."""

from .spaces import (
    ExponentScheme,
    GradedDomainError,
    GradedError,
    GradedVector,
    GradingMismatchError,
    GradingVector,
    IllConditionedWarning,
    IllPosedSystemError,
    decompose,
    dual_grading,
    graded_euclidean_norm,
    homogeneous_norm,
    max_graded_norm,
    ones_grading,
    parse_grading,
    scalar_action,
    tensor_grading,
    vandermonde_project,
)
from .network import (
    ActivationKind,
    GradeBlock,
    Layer,
    Network,
    NonFiniteForwardError,
    load_network,
    log_domain_forward,
    multiplicative_core,
    multiplicative_sign,
    multiplicative_slope,
    network_forward,
    network_from_dict,
    network_to_dict,
    parse_activation,
    random_network,
    save_network,
)
from .losses import LossKind, loss_value, parse_loss
from .gradients import (
    GradientBundle,
    finite_diff_check,
    grad_check_suite,
    loss_grad,
    network_backward,
)
from .optimizer import (
    OptimizerConfig,
    TrainingDivergenceError,
    TrainResult,
    batch_gradient,
    sgd_step,
    train,
)
from .datasets import (
    Dataset,
    gen_invariant_proxy_dataset,
    gen_linear_map_dataset,
    gen_monomial_dataset,
    monomial_value,
    read_dataset_csv,
    write_dataset_csv,
)
from .config import (
    ConfigError,
    ExperimentConfig,
    experiment_config_from_dict,
    load_experiment_config,
)
from .bench import BenchConfig, approx_bench, bench_config_from_dict, write_bench_csv
from .verify import verify_examples
from .classical import classical_mlp_forward

__version__ = "0.1.0"
