"""Evaluation models: do protected features explain the corrected output?

Three checkers, one per prediction-model shape:

* ``evaluate_glm`` regresses corrected predictions on the protected features
  through the same activation/loss family and reports Wald slopes, p-values,
  and a null-certification flag.
* ``evaluate_relu_l2`` fits ``beta`` minimizing ``||y_c - relu(X beta)||^2/n``
  by seeded multi-start gradient descent.  Because any ``beta`` with
  ``X beta <= 0`` attains the same objective as ``beta = 0``, success is
  certified through ``||relu(X beta_hat)||`` rather than ``||beta_hat||``.
* ``evaluate_tensor`` solves the tensor-on-vector regression in closed form
  on the observation-major matricization and reports the coefficient tensor
  and its Frobenius norm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .glm import EvaluationReport, GlmFamily, fit_glm, null_certified, wald_inference
from .linalg import as_matrix, as_tensor, as_vector, least_squares


def evaluate_glm(x, y_corrected, family: GlmFamily) -> EvaluationReport:
    """Fit the evaluation GLM of corrected predictions on protected features.

    An intercept is appended internally and excluded from the report; only
    the protected-feature slopes are tested.  Soft (and, for corrected
    predictions, out-of-range) responses are accepted.
    """
    xm = as_matrix(x, "protected features")
    yv = as_vector(y_corrected, "corrected predictions")
    if xm.shape[0] != yv.shape[0]:
        raise DimensionMismatch("X rows and prediction length differ")
    fit = fit_glm(xm, yv, family, with_intercept=True, check_domain=False)
    report = wald_inference(fit, xm)
    # drop the internal intercept (index 0) from the reported arrays
    slopes = slice(1, None)
    coef = report.coefficients[slopes]
    pvals = report.p_values[slopes]
    return EvaluationReport(
        coefficients=coef,
        std_errors=report.std_errors[slopes],
        z_stats=report.z_stats[slopes],
        p_values=pvals,
        converged=fit.converged,
        null_certified=null_certified(fit.converged, coef, pvals),
    )


@dataclass
class ReluEvaluation:
    """Best minimizer found by the multi-start ReLU + L2 evaluation."""

    beta: np.ndarray
    objective: float
    relu_norm: float
    objective_at_zero: float
    start_index: int
    # accepted descent steps of the winning start, and whether it stopped
    # on ``GRAD_SQ_TOL`` (not on ``RELU_MAX_ITER`` or a failed line search)
    iterations: int
    converged: bool


# Squared gradient norm at which a ReLU-evaluation start counts as converged
GRAD_SQ_TOL = 1e-18
# Descent steps each ReLU-evaluation start may take
RELU_MAX_ITER = 500


def _relu_objective(xm: np.ndarray, yv: np.ndarray, beta: np.ndarray) -> float:
    r = yv - np.maximum(xm @ beta, 0.0)
    return float(r @ r) / xm.shape[0]


def _relu_grad(xm: np.ndarray, yv: np.ndarray, beta: np.ndarray) -> np.ndarray:
    eta = xm @ beta
    act = np.maximum(eta, 0.0)
    mask = (eta > 0.0).astype(np.float64)
    return -2.0 * (xm.T @ ((yv - act) * mask)) / xm.shape[0]


def evaluate_relu_l2(
    x,
    y_corrected,
    starts: int = 16,
    seed: int = 0,
) -> ReluEvaluation:
    """Minimize ``||y_c - relu(X beta)||^2 / n`` from several seeded starts.

    Starts are drawn from N(0, 0.1^2) with a per-start substream of ``seed``.
    Each start runs up to ``RELU_MAX_ITER`` steps of gradient descent with
    Armijo backtracking.  The lowest objective wins; ties break toward the
    smaller start index.  The result carries the winning start's accepted
    steps and whether its squared gradient norm reached ``GRAD_SQ_TOL``.
    """
    xm = as_matrix(x, "protected features")
    yv = as_vector(y_corrected, "corrected predictions")
    if xm.shape[0] != yv.shape[0]:
        raise DimensionMismatch("X rows and prediction length differ")
    p = xm.shape[1]

    best: ReluEvaluation | None = None
    for s in range(starts):
        rng = np.random.Generator(np.random.Philox(key=(seed << 16) + s))
        beta = 0.1 * rng.standard_normal(p)
        obj = _relu_objective(xm, yv, beta)
        steps = 0
        converged = False
        for _ in range(RELU_MAX_ITER):
            g = _relu_grad(xm, yv, beta)
            gn = float(g @ g)
            if gn <= GRAD_SQ_TOL:
                converged = True
                break
            step = 1.0
            improved = False
            for _ in range(40):
                cand = beta - step * g
                cand_obj = _relu_objective(xm, yv, cand)
                if cand_obj <= obj - 1e-4 * step * gn:
                    beta, obj = cand, cand_obj
                    steps += 1
                    improved = True
                    break
                step *= 0.5
            if not improved:
                break
        if best is None or obj < best.objective - 0.0:
            best = ReluEvaluation(
                beta=beta,
                objective=obj,
                relu_norm=float(np.linalg.norm(np.maximum(xm @ beta, 0.0))),
                objective_at_zero=_relu_objective(xm, yv, np.zeros(p)),
                start_index=s,
                iterations=steps,
                converged=converged,
            )
    assert best is not None
    return best


@dataclass
class TensorEvaluation:
    """Closed-form tensor-on-vector regression result."""

    coefficients: np.ndarray  # shape (p, d1, ..., dR)
    frobenius: float


def evaluate_tensor(x, y_tensor) -> TensorEvaluation:
    """Regress an observation-major tensor on protected features.

    Solves the least-squares problem column-by-column on the n-by-d
    matricization (equivalent to the stacked Kronecker system) and returns
    the coefficient tensor of shape (p, trailing dims) with its Frobenius
    norm.
    """
    xm = as_matrix(x, "protected features")
    t = as_tensor(y_tensor, "prediction tensor")
    if t.shape[0] != xm.shape[0]:
        raise DimensionMismatch("tensor leading dim and X rows differ")
    flat = t.reshape(t.shape[0], -1)
    b = least_squares(xm, flat)
    coeffs = b.reshape((xm.shape[1],) + t.shape[1:])
    return TensorEvaluation(
        coefficients=coeffs, frobenius=float(np.linalg.norm(b))
    )
