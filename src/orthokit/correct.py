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
  protected column, from the exactly feasible start ``gamma = 0``.  Each
  step costs one weighted Gram product for the Lagrangian Hessian plus
  small factorizations: an SVD of the constraint Jacobian and a solve with
  the Hessian on its null space, both from ``numpy.linalg``.  It returns its
  best iterate whether or not it converged.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionMismatch, DomainError, RankDeficient
from .glm import MEAN_EPS, GlmFamily, _weighted_gram
from .linalg import (
    RANK_RTOL,
    as_matrix,
    as_tensor,
    as_vector,
    build_projector,
    center_columns,
)


def relu(x) -> np.ndarray:
    return np.maximum(np.asarray(x, dtype=np.float64), 0.0)


def relu_dot_terms(a, b) -> tuple[float, float, float, float]:
    """The four rectified dot products of a pair of vectors.

    Returns ``(h(a).h(b), h(-a).h(b), h(a).h(-b), h(-a).h(-b))`` with
    ``h = relu``.  Since ``x = h(x) - h(-x)``, the raw inner product equals
    the alternating sum ``t0 - t1 - t2 + t3``.
    """
    av = as_vector(a)
    bv = as_vector(b)
    return (
        float(relu(av) @ relu(bv)),
        float(relu(-av) @ relu(bv)),
        float(relu(av) @ relu(-bv)),
        float(relu(-av) @ relu(-bv)),
    )


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
    mu = family.h(zm @ g)
    v = xc.T @ mu
    return float(v @ v)


@dataclass(frozen=True)
class ConstrainedConfig:
    """Stopping rule of the constrained-GLM solver.

    ``max_iter`` bounds the number of Newton steps and ``constraint_tol``
    the reported ``constraint_residual`` of an accepted fit.
    """

    max_iter: int = 100
    constraint_tol: float = 1e-6


# KKT stationarity ||grad f + J^T lam||_inf (f = NLL / n) below which a
# feasible iterate is accepted as the constrained optimum
STATIONARITY_TOL = 1e-8

# Relative rounding allowance of the line search: a trial whose merit
# exceeds the Armijo bound by at most MERIT_RTOL * (|merit0| + 1) is
# accepted, so that a step whose merit change is below the rounding of a
# sum over thousands of rows is not halved on noise in the last digits
# (``fit_glm`` accepts its steps on the same rule)
MERIT_RTOL = 1e-12


@dataclass
class CorrectionOutcome:
    """Result of a constrained GLM fit.

    ``constraint_residual`` is the squared norm of the empirical covariances
    between centered protected columns and the corrected predictions, i.e.
    ``||Xc^T h(Z gamma) / n||^2`` (equal to ``constraint_value(...) / n^2``).
    ``loss`` is the family negative log-likelihood (total, not per-row) and
    ``stationarity`` the KKT residual ``||grad f + J^T lam||_inf`` of the
    per-row loss f at the least-squares multipliers.  ``stop_reason`` says
    why the solver stopped: ``"converged"``, ``"reached max_iter=..."``,
    ``"line search stalled"``, or quasi-separation of the design.
    """

    gamma_c: np.ndarray
    corrected_predictions: np.ndarray
    constraint_residual: float
    loss: float
    iterations: int
    converged: bool
    stationarity: float = float("nan")
    stop_reason: str = ""


def _newton_step(hess, jac, grad, c):
    """The SQP step ``d`` of the KKT system
    ``[[H, J^T], [J, 0]] [d, lam] = -[grad, c]`` by the null-space method.

    One SVD ``J^T = U S V^T``, cut at rank r where the singular values fall
    to ``RANK_RTOL * s_0``, splits d into a range part ``Y dy`` (Y the first
    r columns of U) that solves the r independent linearized constraints
    and a null-space part ``N dz`` (N the other columns) from a solve with
    the reduced Hessian ``N^T H N``.  When that block's smallest eigenvalue
    is at most ``1e-10 * scale`` (the Cholesky factorization of the block
    less that much fails) the Hessian gets a Levenberg shift, so that d
    descends on the merit.  Returns ``(d, H)`` with the Hessian the step
    used, shifted or not.
    """
    k = hess.shape[0]
    u, s, vt = np.linalg.svd(jac.T)
    rank = int(np.sum(s > RANK_RTOL * s[0])) if s.size else 0
    y, null = u[:, :rank], u[:, rank:]
    d = y @ (-(vt[:rank] @ c) / s[:rank])
    if rank == k:  # the linearized constraints alone determine d
        return d, hess
    reduced = null.T @ hess @ null
    scale = max(1.0, float(np.max(np.abs(np.diag(hess)))))
    eye = np.eye(k - rank)
    try:
        np.linalg.cholesky(reduced - 1e-10 * scale * eye)
    except np.linalg.LinAlgError:
        shift = 1e-4 * scale - 2.0 * np.linalg.eigvalsh(reduced).min()
        hess = hess + shift * np.eye(k)
        reduced = reduced + shift * eye
    dz = np.linalg.solve(reduced, -null.T @ (grad + hess @ d))
    return d + null @ dz, hess


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
    k = zd.shape[1]
    if n < k:
        raise RankDeficient(n, f"{n}x{k} design cannot have full column rank")

    def evaluate(g: np.ndarray):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            mu = family.h(zd @ g)
            return mu, xc.T @ mu / n, family.nll(yv, mu) / n

    gamma, rho, best = np.zeros(k), 0.0, None
    mu, c, loss = evaluate(gamma)
    reason = f"reached max_iter={cfg.max_iter}"
    for it in range(cfg.max_iter + 1):
        hp = family.variance(mu)  # h' for a canonical link
        grad = zd.T @ (mu - yv) / n
        jac = (xc * hp[:, None]).T @ zd / n
        lam = np.linalg.lstsq(jac.T, -grad, rcond=None)[0]
        stat = float(np.max(np.abs(grad + jac.T @ lam)))
        out = CorrectionOutcome(gamma, mu, float(c @ c), loss * n, it, False, stat)
        feasible = out.constraint_residual <= cfg.constraint_tol
        if feasible and (best is None or out.loss < best.loss):
            best = out
        if family.name == "bernoulli" and not np.all(
            (mu > MEAN_EPS) & (mu < 1.0 - MEAN_EPS)
        ):
            reason = "means reached the clamp: the design is quasi-separated"
            break
        if feasible and stat <= STATIONARITY_TOL:
            return replace(out, converged=True, stop_reason="converged")
        if it == cfg.max_iter:
            break

        w = hp * (1.0 + family.variance_prime(mu) * (xc @ lam))
        d, hess = _newton_step(_weighted_gram(zd, w) / n, jac, grad, c)

        # l1 merit f + rho ||c||_1 with rho from Nocedal & Wright eq. 18.36
        # (sigma = 1, rho-bar = 1/2), so that d is a descent direction
        c1, slope = float(np.sum(np.abs(c))), float(grad @ d)
        if c1 > 0.0:
            curv = max(float(d @ hess @ d), 0.0)
            rho = max(rho, (slope + 0.5 * curv) / (0.5 * c1))
        merit0, descent = loss + rho * c1, slope - rho * c1
        bound = merit0 + MERIT_RTOL * (abs(merit0) + 1.0)
        step = 1.0
        for _ in range(34):  # Armijo backtracking down to a step of ~1e-10
            trial = gamma + step * d
            mu_t, c_t, loss_t = evaluate(trial)
            merit = loss_t + rho * float(np.sum(np.abs(c_t)))
            if merit <= bound + 1e-4 * step * descent:
                break
            step *= 0.5
        else:
            reason = "line search stalled"
            break
        gamma, mu, c, loss = trial, mu_t, c_t, loss_t

    return replace(best or out, iterations=it, stop_reason=reason)
