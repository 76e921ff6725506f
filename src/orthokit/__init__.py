"""orthokit: orthogonalization of predictions and representations with
respect to protected features, for linear, GLM, ReLU, and tensor models."""

from .correct import (
    ConstrainedConfig,
    CorrectionOutcome,
    constraint_value,
    correct_features_linear,
    correct_features_relu,
    correct_predictions_glm,
    correct_tensor_preactivation,
    correct_tensor_prediction,
    fit_constrained_glm,
)
from .errors import (
    DidNotConverge,
    DimensionMismatch,
    DomainError,
    InvalidSpec,
    OrthokitError,
    RankDeficient,
    SingularInformation,
)
from .evalmodel import evaluate_glm, evaluate_relu_l2, evaluate_tensor
from .glm import (
    BERNOULLI,
    GAUSSIAN,
    POISSON,
    EvaluationReport,
    GlmFamily,
    GlmFit,
    family_by_name,
    fisher_weights,
    fit_glm,
    wald_inference,
    working_response,
)
from .linalg import (
    Projector,
    apply_complement,
    build_projector,
    center_columns,
    least_squares,
    mode1_product,
)
from .online import ConfoundedDataset, MlpConfig, make_confounded_data, train_mlp
from .synth import (
    SyntheticDataset,
    SyntheticSpec,
    figure1_demo,
    generate,
    simulation_study,
)

__version__ = "0.1.0"

__all__ = [
    "BERNOULLI",
    "GAUSSIAN",
    "POISSON",
    "ConfoundedDataset",
    "ConstrainedConfig",
    "CorrectionOutcome",
    "DidNotConverge",
    "DimensionMismatch",
    "DomainError",
    "EvaluationReport",
    "GlmFamily",
    "GlmFit",
    "InvalidSpec",
    "MlpConfig",
    "OrthokitError",
    "Projector",
    "RankDeficient",
    "SingularInformation",
    "SyntheticDataset",
    "SyntheticSpec",
    "apply_complement",
    "build_projector",
    "center_columns",
    "constraint_value",
    "correct_features_linear",
    "correct_features_relu",
    "correct_predictions_glm",
    "correct_tensor_preactivation",
    "correct_tensor_prediction",
    "evaluate_glm",
    "evaluate_relu_l2",
    "evaluate_tensor",
    "family_by_name",
    "figure1_demo",
    "fisher_weights",
    "fit_constrained_glm",
    "fit_glm",
    "generate",
    "least_squares",
    "make_confounded_data",
    "mode1_product",
    "simulation_study",
    "train_mlp",
    "wald_inference",
    "working_response",
]
