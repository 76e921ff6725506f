"""GLM engine: canonical families, the Newton loop, and Wald inference.

The three canonical families are supported: gaussian/identity,
bernoulli/sigmoid, and poisson/exp.  For a canonical link the derivative of
the activation is the variance function, ``h'(eta) = V(mu)``, and the link
derivative is ``g'(mu) = 1 / V(mu)``, so a family is defined by ``h`` and
``V`` alone.
One Newton loop, ``_newton``, fits every GLM in the package: it minimizes
the per-row NLL subject to p constraints ``Xc^T h(Z gamma) / n = 0``.
``fit_glm`` is the case p = 0: no multipliers, and for a canonical link
the Newton step is Fisher scoring's, the IRLS weighted least-squares step
with weights ``V(mu)`` and working response ``eta + (y - mu) / V(mu)``.
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

from .errors import DimensionMismatch, DomainError, InvalidSpec, SingularInformation
from .linalg import RANK_RTOL, as_matrix, as_vector, least_squares, shape_error

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

# Relative rounding allowance of the line search: a trial whose merit
# exceeds the Armijo bound by at most MERIT_RTOL * (|merit0| + 1) is taken,
# so a merit change below the rounding of a sum over many rows halves no step
MERIT_RTOL = 1e-12

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

    ``stop_reason`` is one of the Newton loop's: ``"converged"``,
    ``"reached max_iter=N"``, ``"line search stalled"`` or ``"means
    reached the clamp: the design is quasi-separated"``.  ``loss`` is the
    negative log-likelihood (``GlmFamily.nll``) of the returned iterate,
    reached in ``iterations`` accepted steps.
    """

    coefficients: np.ndarray
    fitted_means: np.ndarray
    iterations: int
    converged: bool
    loss: float
    weight_diag: np.ndarray
    family: GlmFamily
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
    least ``GRAM_RCOND_MIN``.  Otherwise the step is QR ``least_squares``
    on the weighted design, which raises ``RankDeficient`` for a
    rank-deficient design.  ``zm`` has at least as many rows as columns.
    """
    gram = _weighted_gram(zm, w)
    if _cholesky(gram)[1] >= GRAM_RCOND_MIN:
        # numpy has no triangular solver: one LU of the Gram matrix
        # costs less than two LU-based solves with its factor
        return np.linalg.solve(gram, zm.T @ (w * resp))
    sw = np.sqrt(w)
    return least_squares(zm * sw[:, None], resp * sw)


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


def _newton(zd, yv, xc, family, max_iter, tol, constraint_tol):
    """Minimize NLL / n subject to ``xc^T h(zd gamma) / n = 0`` from
    ``gamma = 0`` by the SQP loop ``fit_constrained_glm`` describes, to
    ``c^T c <= constraint_tol`` and stationarity at most ``tol``.  With
    p = 0 columns in ``xc`` there are no multipliers, rho = 0, and the step
    is the IRLS solve on the clamped means.  Returns ``(gamma, mu, nll, c,
    stationarity, steps, converged, stop_reason)`` with unclamped means."""
    if max_iter < 0:
        raise InvalidSpec(f"max_iter must be non-negative, got {max_iter}")
    if not 0.0 <= tol < float("inf"):
        # fit_glm passes its tol over n, so the value is not the caller's
        raise InvalidSpec("tol must be finite and non-negative")
    n, k = zd.shape
    p = xc.shape[1]

    def evaluate(g: np.ndarray):
        eta = zd @ g
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            mu = family.h(eta)
            return eta, mu, xc.T @ mu / n, family.nll(yv, mu)

    gamma, rho, best = np.zeros(k), 0.0, None
    eta, mu, c, nll = evaluate(gamma)
    reason = f"reached max_iter={max_iter}"
    for it in range(max_iter + 1):
        hp = family.variance(mu)  # h' for a canonical link
        grad = zd.T @ (mu - yv) / n
        jac = (xc * hp[:, None]).T @ zd / n
        lam = np.linalg.lstsq(jac.T, -grad, rcond=None)[0] if p else np.zeros(0)
        stat = float(np.max(np.abs(grad + jac.T @ lam)))
        loss, out = nll / n, (gamma, mu, nll, c, stat)
        feasible = float(c @ c) <= constraint_tol
        if feasible and (best is None or loss < best_loss):
            best, best_loss = out, loss
        if family.name == "bernoulli" and not (
            MEAN_EPS < mu.min() and mu.max() < 1.0 - MEAN_EPS
        ):
            reason = "means reached the clamp: the design is quasi-separated"
            break
        if feasible and stat <= tol:
            return (*out, it, True, "converged")
        if it == max_iter:
            break

        if p:  # the KKT system with the Lagrangian Hessian
            w = hp * (1.0 + family.variance_prime(mu) * (xc @ lam))
            d, hess = _newton_step(_weighted_gram(zd, w) / n, jac, grad, c)
        else:  # H d = -grad: Fisher scoring's weighted least squares
            m = family.clip_mean(mu)
            w = family.variance(m)
            d = _irls_solve(zd, w, eta + (yv - m) / w) - gamma

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
            eta_t, mu_t, c_t, nll_t = evaluate(trial)
            merit = nll_t / n + rho * float(np.sum(np.abs(c_t)))
            if merit <= bound + 1e-4 * step * descent:
                break
            step *= 0.5
        else:
            reason = "line search stalled"
            break
        gamma, eta, mu, c, nll = trial, eta_t, mu_t, c_t, nll_t

    return (*(best or out), it, False, reason)


def fit_glm(
    z,
    y,
    family: GlmFamily,
    max_iter: int = 100,
    tol: float = 1e-8,
    with_intercept: bool = False,
    check_domain: bool = True,
) -> GlmFit:
    """Fit a canonical GLM by Fisher-scoring IRLS: ``_newton`` with no
    constraints.  A design with no columns or fewer rows than columns
    raises ``DimensionMismatch``.  Each step solves the weighted normal
    equations, or, when their Cholesky factor is missing or ill-conditioned,
    QR least squares on ``sqrt(W) Z``, which raises ``RankDeficient`` naming
    the first dependent column in input order.  A negative or non-finite
    ``tol`` raises ``InvalidSpec``.

    Convergence requires the score ``Z^T (y - mu)`` to have max-norm at most
    ``tol`` (both divided by n).  Steps are halved on the Armijo rule for
    the loss (``family.nll``).  Stops short of that, and the stop reasons,
    are those of ``fit_constrained_glm``.

    ``check_domain=False`` skips the response-domain check, which evaluation
    models need when regressing corrected predictions that can leave the
    family's natural range.
    """
    zm = as_matrix(z, "design matrix")
    yv = as_vector(y, "response")
    if zm.shape[0] != yv.shape[0]:
        raise DimensionMismatch(f"design has {zm.shape[0]} rows but response "
                                f"has {yv.shape[0]}")
    if check_domain:
        family.check_y(yv)
    if with_intercept:
        zm = np.column_stack([np.ones(zm.shape[0]), zm])
    n, k = zm.shape
    if (err := shape_error(n, k)) is not None:
        raise err

    beta, mu, nll, _, _, iterations, converged, reason = _newton(
        zm, yv, np.empty((n, 0)), family, max_iter, tol / n, 0.0
    )
    mu = family.clip_mean(mu)
    return GlmFit(beta, mu, iterations, converged, nll, family.variance(mu),
                  family, reason)


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
