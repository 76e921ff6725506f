"""Evaluation models: do protected features explain the corrected output?

Three checkers, one per prediction-model shape:

* ``evaluate_glm`` regresses corrected predictions on the protected features
  through the same activation/loss family and reports Wald slopes, p-values,
  and a null-certification flag.
* ``evaluate_relu_l2`` fits ``beta`` minimizing ``||y_c - relu(X beta)||^2/n``
  by seeded multi-start active-set Gauss-Newton and reports how much of the
  objective at ``beta = 0`` the fit explains; zero is not the rectified
  minimizer in general, even for corrected predictions.
* ``evaluate_tensor`` solves the tensor-on-vector regression in closed form
  on the observation-major matricization and reports the coefficient tensor
  and its Frobenius norm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidSpec
from .glm import EvaluationReport, GlmFamily, fit_glm, null_certified, wald_inference
from .linalg import as_matrix, as_tensor, as_vector, least_squares


def evaluate_glm(x, y_corrected, family: GlmFamily) -> EvaluationReport:
    """Fit the evaluation GLM of corrected predictions on protected features.

    An intercept is prepended internally, to the one design both the fit
    and its Wald test use, and excluded from the report; only the
    protected-feature slopes are tested.  Soft (and, for corrected
    predictions, out-of-range) responses are accepted.
    """
    xm = as_matrix(x, "protected features")
    yv = as_vector(y_corrected, "corrected predictions")
    if xm.shape[0] != yv.shape[0]:
        raise DimensionMismatch("X rows and prediction length differ")
    design = np.column_stack([np.ones(xm.shape[0]), xm])
    fit = fit_glm(design, yv, family, check_domain=False)
    report = wald_inference(fit, design)
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
    # the winning start's accepted steps; converged iff stop_reason "certified"
    iterations: int
    converged: bool
    stop_reason: str


# Gauss-Newton steps each ReLU-evaluation start may take
RELU_MAX_ITER = 500


def _rectified_loss(yv: np.ndarray, eta: np.ndarray) -> float:
    r = yv - np.maximum(eta, 0.0)
    return float(r @ r) / yv.shape[0]


def evaluate_relu_l2(
    x,
    y_corrected,
    starts: int = 16,
    seed: int = 0,
) -> ReluEvaluation:
    """Minimize ``||y_c - relu(X beta)||^2 / n`` from several seeded starts.

    Starts are drawn from N(0, 0.1^2) with a per-start substream of ``seed``.
    On the active set S = {i : x_i beta > 0} the objective is least squares;
    each step moves toward ``lstsq(X_S, y_S)`` with Armijo backtracking.  A
    start is ``"certified"`` at a local minimum: after a full step that keeps
    S with no row at ``x_i beta = 0``, or at once if every ``x_i beta < 0``.
    Rows with ``x_i = 0`` are left out of both tests: their ``x_i beta`` is 0
    for every beta, so they are no kink, and an all-zero X is certified at once.
    Otherwise it stops at a kink, where the line search finds no decrease,
    or after ``RELU_MAX_ITER`` steps.  The lowest objective wins; ties break
    toward the smaller start index.
    """
    xm = as_matrix(x, "protected features")
    yv = as_vector(y_corrected, "corrected predictions")
    if xm.shape[0] != yv.shape[0]:
        raise DimensionMismatch("X rows and prediction length differ")
    if starts < 1:
        raise InvalidSpec(f"starts={starts}: need at least one start")
    if seed < 0:
        raise InvalidSpec(f"seed={seed}: must be >= 0")

    live = xm.any(axis=1)  # rows whose x_i beta can leave 0
    best: ReluEvaluation | None = None
    for s in range(starts):
        rng = np.random.Generator(np.random.Philox(key=(seed << 16) + s))
        beta = 0.1 * rng.standard_normal(xm.shape[1])
        eta = xm @ beta
        obj = _rectified_loss(yv, eta)
        steps = 0
        reason = f"reached max_iter={RELU_MAX_ITER}"
        for _ in range(RELU_MAX_ITER):
            if np.all(eta < 0.0, where=live):  # strictly inside the dead region: flat
                reason = "certified"
                break
            act = eta > 0.0
            d = np.linalg.lstsq(xm[act], yv[act], rcond=None)[0] - beta
            xd = xm[act] @ d
            slope = -2.0 * float(xd @ xd) / xm.shape[0]
            step = 1.0
            for _ in range(40):
                cand = beta + step * d
                cand_eta = xm @ cand
                cand_obj = _rectified_loss(yv, cand_eta)
                if cand_obj < obj + 1e-4 * step * slope:
                    break
                step *= 0.5
            else:
                reason = "kink: no decrease along the Gauss-Newton step"
                break
            beta, eta, obj = cand, cand_eta, cand_obj
            steps += 1
            if (step == 1.0 and np.array_equal(eta > 0.0, act)
                    and np.all(eta, where=live)):
                reason = "certified"
                break
        if best is None or obj < best.objective:
            best = ReluEvaluation(
                beta=beta,
                objective=obj,
                relu_norm=float(np.linalg.norm(np.maximum(eta, 0.0))),
                objective_at_zero=float(yv @ yv) / xm.shape[0],
                start_index=s,
                iterations=steps,
                converged=reason == "certified",
                stop_reason=reason,
            )
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
