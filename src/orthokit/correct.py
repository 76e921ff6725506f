"""Correction routines.

Three ways to remove the linear influence of protected features:

* ``correct_features_linear`` projects features, tensor-valued predictions
  or pre-activations (before the ReLU) onto the orthogonal complement of the
  protected span, along their observation axis.  ``correct_features_relu``
  and ``correct_tensor_preactivation`` are other names for it, and
  ``corrected_design`` writes the projected features beside a column of
  ones in one array.
* ``correct_predictions_glm`` projects already-computed predictions and
  re-centers them at the activation's value at zero.
* ``fit_constrained_glm`` refits a GLM subject to the corrected predictions
  being empirically uncorrelated with every (centered) protected column,
  solved by equality-constrained Newton steps (SQP) on one constraint per
  protected column, from the exactly feasible start ``gamma = 0``, by
  ``glm._newton``, the Newton loop ``fit_glm`` runs with no constraints.
  Each step costs one weighted Gram product (the Lagrangian Hessian), an
  SVD of the constraint Jacobian and a solve on its null space.  It
  returns its best iterate whether or not it converged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DomainError, InvalidSpec
from .glm import GlmFamily, _newton
from .linalg import (as_matrix, as_tensor, as_vector, build_projector, center_columns,
                     shape_error)


def augment_intercept(x) -> np.ndarray:
    """Prepend a column of ones (so projections also remove the mean)."""
    xm = as_matrix(x)
    return np.column_stack([np.ones(xm.shape[0]), xm])


def correct_features_linear(x, a) -> np.ndarray:
    """Project ``a`` (features, or a tensor-valued prediction or
    pre-activation) along its observation axis onto the complement of the
    protected span."""
    return build_projector(x).complement(as_tensor(a, "features"))


def corrected_design(x, z) -> np.ndarray:
    """``[1, Zc]``: a column of ones beside ``z`` projected onto the
    complement of span([1, X]).  The design is allocated once the projector
    is built and the features checked, and Zc is written straight into its
    columns, so no unaugmented copy of it is made."""
    proj = build_projector(augment_intercept(x))
    zm = as_matrix(z, "features")
    design = np.empty((zm.shape[0], zm.shape[1] + 1))
    design[:, 0] = 1.0
    proj.complement(zm, out=design[:, 1:])
    return design


correct_features_relu = correct_tensor_preactivation = correct_features_linear


def correct_predictions_glm(x, y_hat, family: GlmFamily) -> np.ndarray:
    """Project predictions onto the complement of span([1, X]) and re-center.

    The intercept column is included in the projection so that the corrected
    predictions have mean exactly ``h(0)``; an evaluation GLM with intercept
    then has a zero score at zero slopes.  The output is returned unclipped
    and may leave the family's natural response range (e.g. probabilities
    outside (0, 1)); evaluation models accept such values.
    """
    yv = as_vector(y_hat, "predictions")
    return build_projector(augment_intercept(x)).complement(yv) + family.h0


def constraint_value(gamma, z, x_centered, family: GlmFamily) -> float:
    """Squared norm of the covariances-without-1/n: ``||Xc^T h(Z gamma)||^2``.

    ``x_centered`` must be column-centered.  Zero exactly when the activated
    predictions are orthogonal to every centered protected column.  The
    normalized residual reported by ``fit_constrained_glm`` equals this value
    divided by n^2.
    """
    zm = as_matrix(z, "design matrix")
    xc = as_matrix(x_centered, "centered protected features")
    g = as_vector(gamma, "coefficients")
    if zm.shape[1] != g.shape[0] or xc.shape[0] != zm.shape[0]:
        raise DimensionMismatch(f"design of shape {zm.shape}, coefficients of shape "
                                f"{g.shape} and centered protected features of "
                                f"shape {xc.shape} do not fit")
    mu = family.h(zm @ g)
    v = xc.T @ mu
    return float(v @ v)


@dataclass(frozen=True)
class ConstrainedConfig:
    """Stopping rule of the constrained-GLM solver.

    ``max_iter`` bounds the number of Newton steps and ``constraint_tol``
    the reported ``constraint_residual`` of an accepted fit; a negative or
    non-finite ``constraint_tol`` raises ``InvalidSpec``.
    """

    max_iter: int = 100
    constraint_tol: float = 1e-6

    def __post_init__(self):
        if not 0.0 <= self.constraint_tol < float("inf"):
            raise InvalidSpec(f"constraint_tol must be finite and non-negative, "
                              f"got {self.constraint_tol}")


# KKT stationarity ||grad f + J^T lam||_inf (f = NLL / n) below which a
# feasible iterate is accepted as the constrained optimum
STATIONARITY_TOL = 1e-8


@dataclass
class CorrectionOutcome:
    """Result of a constrained GLM fit.

    ``constraint_residual`` is the squared norm of the empirical covariances
    between centered protected columns and the corrected predictions, i.e.
    ``||Xc^T h(Z gamma) / n||^2`` (equal to ``constraint_value(...) / n^2``).
    ``loss`` is the family negative log-likelihood (total, not per-row) and
    ``stationarity`` the KKT residual ``||grad f + J^T lam||_inf`` of the
    per-row loss f at the least-squares multipliers.  ``iterations`` counts
    the Newton steps taken; an unconverged fit returns its feasible iterate
    of lowest loss, which may be an earlier one.  ``stop_reason`` is
    one of the Newton loop's: ``"converged"``, ``"reached max_iter=N"``,
    ``"line search stalled"`` or ``"means reached the clamp: the design
    is quasi-separated"``.
    """

    gamma_c: np.ndarray
    corrected_predictions: np.ndarray
    constraint_residual: float
    loss: float
    iterations: int
    converged: bool
    stationarity: float = float("nan")
    stop_reason: str = ""


def fit_constrained_glm(
    z,
    y,
    x,
    family: GlmFamily,
    cfg: ConstrainedConfig | None = None,
) -> CorrectionOutcome:
    """Fit a GLM whose activated predictions are uncorrelated with protected
    features.

    Minimizes f(gamma) = NLL / n subject to the p equations
    ``c(gamma) = Xc^T h(Z gamma) / n = 0``, where Z has an intercept column
    prepended (Xc column-centered, so the intercept stays unconstrained),
    by equality-constrained Newton steps (SQP; Nocedal & Wright, ch. 18).
    Each step d solves the KKT system::

        [ Z^T W Z / n   J^T ] [ d   ]     [ grad f ]
        [ J             0   ] [ lam ] = - [ c      ]

    with ``J = Xc^T diag(h') Z / n`` and ``W = h' + h'' * (Xc lam)`` at the
    least-squares multipliers ``lam``, so that ``Z^T W Z / n`` is the
    Hessian of the Lagrangian.  W can be negative on some rows; the Hessian
    is the difference of two symmetric rank-k products.  The system is
    solved by the null-space method (Nocedal & Wright, sec. 16.2): an SVD
    of ``J^T`` gives the part of d that meets the linearized constraints
    and a basis N of the null space of J, and a solve with the reduced
    Hessian ``N^T H N`` gives the rest.  A Levenberg shift keeps
    that reduced block positive definite.  Steps are damped by a
    backtracking search on the l1 merit ``f + rho ||c||_1``, starting from
    ``gamma = 0``, which is exactly feasible.

    Converges when ``constraint_residual <= cfg.constraint_tol`` and the
    KKT stationarity is at most ``STATIONARITY_TOL``.  Otherwise it returns
    the feasible iterate of lowest loss with ``converged=False`` and the
    ``stop_reason``: after ``cfg.max_iter`` steps, when the line search
    stalls, or as soon as a bernoulli fit's means reach the ``MEAN_EPS``
    clamp (a quasi-separated design, on which no finite optimum exists).
    If no iterate was feasible (possible only at ``constraint_tol`` near 0)
    it returns the last one.
    """
    cfg = cfg or ConstrainedConfig()
    zm = as_matrix(z, "design matrix")
    yv = as_vector(y, "response")
    xm = as_matrix(x, "protected features")
    n = zm.shape[0]
    if yv.shape[0] != n or xm.shape[0] != n:
        raise DimensionMismatch("Z, y, and X must share the row count")
    family.check_y(yv)

    zd = np.column_stack([np.ones(n), zm])
    xc = center_columns(xm)
    if np.any(xc.std(axis=0) <= 0.0):
        raise DomainError("protected features must not be constant columns")
    if (err := shape_error(n, zd.shape[1])) is not None:
        raise err  # the Newton loop never factors Z, so no QR would raise it

    gamma, mu, nll, c, stat, it, converged, reason = _newton(
        zd, yv, xc, family, cfg.max_iter, STATIONARITY_TOL, cfg.constraint_tol)
    return CorrectionOutcome(gamma, mu, float(c @ c), nll, it, converged,
                             stat, reason)
