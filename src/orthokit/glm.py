"""GLM engine: canonical families, IRLS fitting, and Wald inference.

The three canonical families are supported: gaussian/identity,
bernoulli/sigmoid, and poisson/exp.  For a canonical link the derivative of
the activation is the variance function, ``h'(eta) = V(mu)``, and the link
derivative is ``g'(mu) = 1 / V(mu)``, so a family is defined by ``h`` and
``V`` alone.  Fitting uses Fisher scoring (expected Hessian), for which the
weight of observation i is ``1 / (g'(mu_i)^2 V(mu_i)) = V(mu_i)`` and the
working response is ``g'(mu_i) (y_i - mu_i) = (y_i - mu_i) / V(mu_i)``, both
formed inside ``fit_glm`` from ``family.variance``; the score reduces to
``Z^T (y - mu)``, which is also the convergence criterion.
Each weighted least-squares step is solved on the Gram matrix ``Z^T W Z``
once its Cholesky factor shows it positive definite and well conditioned,
with Householder QR as the fallback for ill-conditioned or rank-deficient
steps; Wald standard errors come from the inverse of a Cholesky factor of
the same information matrix.  Only ``numpy.linalg`` is used.
``_weighted_gram`` forms every such Gram matrix in the package, the
constrained fit's Lagrangian Hessian included, one row block at a time:
a fit holds its design plus one block of ``GRAM_BLOCK_BYTES``.  Only the
QR fallback scales a copy of the whole design.
Fits that stop short of the tolerance return their best iterate with
``converged=False`` and a ``stop_reason``; nothing here raises on
non-convergence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionMismatch, DomainError, SingularInformation
from .linalg import as_matrix, as_vector, least_squares

# Clamp applied to means before weight/likelihood evaluation, keeping the
# link derivative and variance function away from their boundary
# singularities.
MEAN_EPS = 1e-10

# Smallest reciprocal condition estimate ``(min L_jj / max L_jj)^2`` of the
# weighted Gram matrix ``Z^T W Z = L L^T`` at which an IRLS step is solved
# from the normal equations.  Below it the step goes to QR least squares,
# which also owns the rank check.  ``L_jj`` is ``|R_jj|`` of the QR of
# ``sqrt(W) Z``, so every QR diagonal of an accepted design is at least
# 1e-5 times the largest: five orders of magnitude clear of
# ``linalg.RANK_RTOL`` (1e-10).  The diagonal ratio bounds cond(R) from
# below, so it can pass a matrix whose ill-conditioning no diagonal shows;
# an exact rcond needs an inverse, about four times the cost of the solve
# at k = 101.
GRAM_RCOND_MIN = 1e-10

# Bytes of one row block of ``_weighted_gram``, the most a Gram product
# holds beyond its design.  At one BLAS thread, 256 KiB blocks were as fast
# as the unblocked product or faster on 50000x10, 5000x101, 5000x11,
# 2000x101 and 200x101 designs; 64 KiB blocks were up to 40 % slower.
GRAM_BLOCK_BYTES = 256 * 1024

# Default certification thresholds: a report is null-certified when every
# slope is non-significant at this level and numerically small.
ALPHA = 0.05
COEF_NULL_THRESHOLD = 1e-2


def _sigmoid(eta: np.ndarray) -> np.ndarray:
    # exp(-|eta|) never overflows, and equals exp(eta) exactly for eta < 0
    e = np.exp(-np.abs(eta))
    return np.where(eta >= 0, 1.0, e) / (1.0 + e)


@dataclass(frozen=True)
class GlmFamily:
    """A canonical link/activation pair defining a GLM.

    ``h`` is the inverse link (the activation), ``variance`` the variance
    function V(mu), which for a canonical link is also ``h'`` expressed
    through the mean, and ``clip_mean`` maps means into the open domain on
    which weights are defined.
    """

    name: str
    h: Callable[[np.ndarray], np.ndarray]
    variance: Callable[[np.ndarray], np.ndarray]
    clip_mean: Callable[[np.ndarray], np.ndarray]
    check_y: Callable[[np.ndarray], None]
    # V'(mu); for canonical links h'' = V'(mu) V(mu)
    variance_prime: Callable[[np.ndarray], np.ndarray]

    @property
    def h0(self) -> float:
        """Activation at zero; the constant added by prediction corrections."""
        return float(self.h(np.zeros(1))[0])

    def nll(self, y: np.ndarray, mu: np.ndarray) -> float:
        """Negative log-likelihood up to additive terms free of mu.

        Defined (and convex in the linear predictor) for any real response,
        which lets evaluation models regress corrected predictions that may
        fall outside the family's natural response domain.
        """
        mu = self.clip_mean(mu)
        if self.name == "gaussian":
            return float(0.5 * np.sum((y - mu) ** 2))
        if self.name == "bernoulli":
            return float(-np.sum(y * np.log(mu) + (1.0 - y) * np.log1p(-mu)))
        return float(np.sum(mu - y * np.log(mu)))


def _check_gaussian(y: np.ndarray) -> None:
    return None


def _check_bernoulli(y: np.ndarray) -> None:
    if np.any(y < 0.0) or np.any(y > 1.0):
        raise DomainError("bernoulli responses must lie in [0, 1]")


def _check_poisson(y: np.ndarray) -> None:
    if np.any(y < 0.0):
        raise DomainError("poisson responses must be non-negative")


GAUSSIAN = GlmFamily(
    name="gaussian",
    h=lambda eta: np.asarray(eta, dtype=np.float64),
    variance=lambda mu: np.ones_like(np.asarray(mu, dtype=np.float64)),
    clip_mean=lambda mu: np.asarray(mu, dtype=np.float64),
    check_y=_check_gaussian,
    variance_prime=lambda mu: np.zeros_like(np.asarray(mu, dtype=np.float64)),
)

BERNOULLI = GlmFamily(
    name="bernoulli",
    h=_sigmoid,
    variance=lambda mu: mu * (1.0 - mu),
    clip_mean=lambda mu: np.clip(mu, MEAN_EPS, 1.0 - MEAN_EPS),
    check_y=_check_bernoulli,
    variance_prime=lambda mu: 1.0 - 2.0 * mu,
)

POISSON = GlmFamily(
    name="poisson",
    h=np.exp,
    variance=lambda mu: np.asarray(mu, dtype=np.float64),
    clip_mean=lambda mu: np.clip(mu, MEAN_EPS, None),
    check_y=_check_poisson,
    variance_prime=lambda mu: np.ones_like(np.asarray(mu, dtype=np.float64)),
)

FAMILIES = {f.name: f for f in (GAUSSIAN, BERNOULLI, POISSON)}


def family_by_name(name: str) -> GlmFamily:
    try:
        return FAMILIES[name]
    except KeyError:
        raise DomainError(
            f"unknown family {name!r}; expected one of {sorted(FAMILIES)}"
        ) from None


@dataclass
class GlmFit:
    """Result of an IRLS fit.

    ``stop_reason`` says why IRLS stopped: ``"converged"``,
    ``"reached max_iter=N"`` or ``"step halving found no decrease"``.
    ``loss`` is the negative log-likelihood (``GlmFamily.nll``) of the
    returned iterate, the quantity IRLS minimized.
    """

    coefficients: np.ndarray
    fitted_means: np.ndarray
    iterations: int
    converged: bool
    loss: float
    weight_diag: np.ndarray
    family: GlmFamily
    with_intercept: bool = False
    stop_reason: str = ""


@dataclass
class EvaluationReport:
    """Wald inference summary for an evaluation-model fit.

    ``null_certified`` is the module function of that name applied to the
    reported coefficients and p-values.
    """

    coefficients: np.ndarray
    std_errors: np.ndarray
    z_stats: np.ndarray
    p_values: np.ndarray
    converged: bool
    null_certified: bool


def null_certified(converged: bool, coefficients, p_values) -> bool:
    """True when the fit converged and every coefficient is both
    statistically indistinguishable from zero at level ``ALPHA`` and
    numerically below ``COEF_NULL_THRESHOLD`` in magnitude."""
    return bool(
        converged
        and np.all(np.asarray(p_values) > ALPHA)
        and np.all(np.abs(coefficients) < COEF_NULL_THRESHOLD)
    )


def normal_sf2(z: np.ndarray) -> np.ndarray:
    """Two-sided normal tail probability ``2 (1 - Phi(|z|))`` via erfc."""
    zv = np.atleast_1d(np.asarray(z, dtype=np.float64))
    return np.array([math.erfc(abs(t) / math.sqrt(2.0)) for t in zv])


def _cholesky(gram: np.ndarray):
    """Lower Cholesky factor of a symmetric matrix with the reciprocal
    condition estimate ``(min L_jj / max L_jj)^2``; ``(None, 0.0)`` if it
    is not positive definite."""
    try:
        factor = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return None, 0.0
    diag = np.diag(factor)
    return factor, float((diag.min() / diag.max()) ** 2)


def _gram(a: np.ndarray) -> np.ndarray:
    """``a^T a``, one symmetric rank-k product.  A scaled copy passed in
    dies when this returns."""
    return a.T @ a


def _weighted_gram(zm: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``Z^T diag(w) Z`` for weights of either sign, summed over blocks of
    ``GRAM_BLOCK_BYTES``: each block adds the symmetric rank-k product of
    its rows scaled by ``sqrt(max(w, 0))``, then subtracts that of its rows
    of negative weight scaled by ``sqrt(-w)``.  Each scaled copy is freed
    before the next is made, so at most one block is alive beyond ``zm``.
    A design of one block gives the unblocked product exactly."""
    n, k = zm.shape
    rows = max(GRAM_BLOCK_BYTES // (8 * k), 1)
    gram = np.zeros((k, k))
    for start in range(0, n, rows):
        zb, wb = zm[start : start + rows], w[start : start + rows]
        gram += _gram(zb * np.sqrt(np.maximum(wb, 0.0))[:, None])
        neg = np.flatnonzero(wb < 0.0)
        if neg.size:
            scaled = zb[neg]
            scaled *= np.sqrt(-wb[neg])[:, None]
            gram -= _gram(scaled)
            del scaled
    return gram


def _irls_solve(zm: np.ndarray, w: np.ndarray, resp: np.ndarray):
    """Weighted least squares ``argmin_b ||sqrt(W) (Z b - resp)||``.

    Solves the normal equations ``Z^T W Z b = Z^T W resp`` when the Gram
    matrix has a Cholesky factor with a reciprocal condition estimate of at
    least ``GRAM_RCOND_MIN``.  Otherwise, and when n < k or k = 0, the step
    is QR ``least_squares`` on the weighted design, which raises
    ``RankDeficient`` for a rank-deficient design.
    """
    if zm.shape[0] >= zm.shape[1] > 0:
        gram = _weighted_gram(zm, w)
        if _cholesky(gram)[1] >= GRAM_RCOND_MIN:
            # numpy has no triangular solver: one LU of the Gram matrix
            # costs less than two LU-based solves with its factor
            return np.linalg.solve(gram, zm.T @ (w * resp))
    sw = np.sqrt(w)
    return least_squares(zm * sw[:, None], resp * sw)


def fit_glm(
    z,
    y,
    family: GlmFamily,
    max_iter: int = 100,
    tol: float = 1e-8,
    with_intercept: bool = False,
    check_domain: bool = True,
) -> GlmFit:
    """Fit a canonical GLM by Fisher-scoring IRLS with step-halving.

    Each step solves the weighted normal equations ``Z^T W Z b = Z^T W r``.
    When the Gram matrix has no Cholesky factor (it is not positive
    definite), the factor's condition estimate falls below
    ``GRAM_RCOND_MIN``, or n < k, the step falls back to QR least squares
    on ``sqrt(W) Z``, which raises ``RankDeficient`` naming the first
    dependent column in input order (or, for n < k, the row count).

    Convergence requires the score ``Z^T (y - mu)`` to have max-norm at most
    ``tol``.  The loss (``family.nll``) does not increase across accepted
    steps beyond a rounding allowance; if a full IRLS step increases it,
    the step is halved (up to 30 times).  After ``max_iter`` steps, or when
    no halving decreases it, the fit so far is returned with
    ``converged=False``; ``stop_reason`` names which.

    ``check_domain=False`` skips the response-domain check, which evaluation
    models need when regressing corrected predictions that can leave the
    family's natural range.
    """
    zm = as_matrix(z, "design matrix")
    yv = as_vector(y, "response")
    if zm.shape[0] != yv.shape[0]:
        raise DimensionMismatch(
            f"design has {zm.shape[0]} rows but response has {yv.shape[0]}"
        )
    if check_domain:
        family.check_y(yv)
    if with_intercept:
        zm = np.column_stack([np.ones(zm.shape[0]), zm])

    n, k = zm.shape
    beta = np.zeros(k)
    eta = zm @ beta
    mu = family.clip_mean(family.h(eta))
    nll = family.nll(yv, mu)

    iterations = 0
    converged = False
    reason = f"reached max_iter={max_iter}"
    for iterations in range(1, max_iter + 1):
        # mu is clipped into the family's open domain, so V(mu) > 0
        w = family.variance(mu)
        beta_new = _irls_solve(zm, w, eta + (yv - mu) / w)

        step = beta_new - beta
        accepted = False
        for _ in range(31):
            cand = beta + step
            eta_c = zm @ cand
            mu_c = family.clip_mean(family.h(eta_c))
            nll_c = family.nll(yv, mu_c)
            if np.isfinite(nll_c) and nll_c <= nll + 1e-12 * (abs(nll) + 1.0):
                beta, eta, mu, nll = cand, eta_c, mu_c, nll_c
                accepted = True
                break
            step *= 0.5
        score = zm.T @ (yv - mu)
        if np.max(np.abs(score)) <= tol:
            converged, reason = True, "converged"
            break
        if not accepted:
            # No descent direction left at floating-point resolution.
            reason = "step halving found no decrease"
            break

    return GlmFit(
        coefficients=beta,
        fitted_means=mu,
        iterations=iterations,
        converged=converged,
        loss=nll,
        weight_diag=family.variance(mu),
        family=family,
        with_intercept=with_intercept,
        stop_reason=reason,
    )


def wald_inference(fit: GlmFit, z) -> EvaluationReport:
    """Wald standard errors, z statistics, and two-sided normal p-values.

    Standard errors are the square roots of the diagonal of
    ``(Z^T W Z)^{-1}`` with W the Fisher weights at the fitted means; for the
    gaussian family this is scaled by the residual variance estimate.  The
    diagonal is the column sums of squares of ``L^{-1}`` for the Cholesky
    factor ``L`` of the information matrix, which is never inverted itself.
    Raises ``SingularInformation`` when the matrix is not positive definite
    or the factor's reciprocal condition estimate (as in ``_irls_solve``)
    is below k times machine epsilon, the tolerance
    ``numpy.linalg.matrix_rank`` uses.
    """
    zm = as_matrix(z, "design matrix")
    if fit.with_intercept:
        zm = np.column_stack([np.ones(zm.shape[0]), zm])
    if zm.shape[1] != fit.coefficients.shape[0]:
        raise DimensionMismatch("design width does not match coefficient length")
    n, k = zm.shape

    factor, rcond = _cholesky(_weighted_gram(zm, fit.weight_diag))
    if rcond < k * np.finfo(np.float64).eps:
        raise SingularInformation(
            f"information matrix is numerically singular (rcond={rcond:.3g})"
        )
    diag = np.sum(np.linalg.inv(factor) ** 2, axis=0)
    if fit.family.name == "gaussian":
        # the gaussian NLL is half the residual sum of squares
        dof = max(n - k, 1)
        sigma2 = 2.0 * fit.loss / dof
        diag = diag * sigma2

    if np.any(diag <= 0.0) or not np.all(np.isfinite(diag)):
        raise SingularInformation("non-positive variance estimate")
    se = np.sqrt(diag)
    with np.errstate(divide="ignore", invalid="ignore"):
        zstat = np.where(se > 0, fit.coefficients / se, 0.0)
    pvals = normal_sf2(zstat)
    return EvaluationReport(
        coefficients=fit.coefficients.copy(),
        std_errors=se,
        z_stats=zstat,
        p_values=pvals,
        converged=fit.converged,
        null_certified=null_certified(fit.converged, fit.coefficients, pvals),
    )
