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
    fit_constrained_glm,
)
from .errors import (
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
    fit_glm,
    wald_inference,
)
from .linalg import Projector, build_projector
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
    "build_projector",
    "constraint_value",
    "correct_features_linear",
    "correct_features_relu",
    "correct_predictions_glm",
    "correct_tensor_preactivation",
    "evaluate_glm",
    "evaluate_relu_l2",
    "evaluate_tensor",
    "family_by_name",
    "figure1_demo",
    "fit_constrained_glm",
    "fit_glm",
    "generate",
    "make_confounded_data",
    "simulation_study",
    "train_mlp",
    "wald_inference",
]
