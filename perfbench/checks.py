"""Independent checks of orthokit outputs.

Every check here recomputes what it needs with numpy and the standard
library; none imports orthokit.  A check raises ``CheckFailed`` naming the
quantity that is out of tolerance, and returns the recomputed value
otherwise.
"""

from __future__ import annotations

import csv

import numpy as np

# Tolerances the program promises, restated here rather than imported.
IRLS_SCORE_TOL = 1e-8  # fit_glm's default tol on max |Z^T (y - mu)|
SATURATED = 1e-10  # glm.MEAN_EPS, the clamp on fitted probabilities
CONSTRAINT_TOL = 1e-6  # fit_constrained_glm's default constraint_tol
# Rounding-level thresholds for identities that hold exactly in exact
# arithmetic; relative to the sizes of the operands.
ORTH_RTOL = 1e-10
PREDICTION_ATOL = 1e-12
ESTIMATE_ATOL = 1e-7
STD_ERROR_RTOL = 1e-6
OBJECTIVE_RTOL = 1e-9
TENSOR_FROB_TOL = 1e-8
# Criterion 7's margin: the corrected network gains at least ten points
# of test accuracy over the uncorrected one.
MLP_ACCURACY_MARGIN = 0.10
# max |[1, X]^T H_c| / rows of a corrected batch; rounding level for H ~ 1.
MLP_RESIDUAL_TOL = 1e-10


class CheckFailed(Exception):
    """An output of the program does not have a property it must have."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# activations and projections


def sigmoid(eta: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-eta))


INVERSE_LINKS = {"bernoulli": sigmoid, "poisson": np.exp, "gaussian": lambda e: e}


def with_intercept(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    if m.ndim == 1:
        m = m[:, None]
    return np.column_stack([np.ones(m.shape[0]), m])


def complement(basis: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Residual of ``m`` after least-squares regression on ``basis``
    (Householder QR from numpy, unpivoted)."""
    q, _ = np.linalg.qr(basis)
    return m - q @ (q.T @ m)


# ---------------------------------------------------------------------------
# GLM fits


def irls_score(design: np.ndarray, y: np.ndarray, beta: np.ndarray,
               family: str) -> float:
    """Max-norm of the canonical-link score ``Z^T (y - h(Z beta))``."""
    mu = INVERSE_LINKS[family](design @ beta)
    return float(np.max(np.abs(design.T @ (y - mu))))


def separated(design, beta, family) -> bool:
    """A logistic fit whose probabilities reach the program's mean clamp
    (1e-10): the design is (quasi-)separated, no finite optimum exists, and
    the score tolerance is not a convergence certificate there."""
    if family != "bernoulli":
        return False
    mu = sigmoid(design @ beta)
    return bool(np.any(mu < SATURATED) or np.any(mu > 1.0 - SATURATED))


def check_irls_fit(design, y, beta, family, tol=IRLS_SCORE_TOL) -> float:
    score = irls_score(design, y, beta, family)
    require(score <= tol, f"IRLS score {score:.3e} above tolerance {tol:.1e}")
    return score


def covariance_norm(x: np.ndarray, predictions: np.ndarray) -> float:
    """``||Xc^T mu / n||^2`` with Xc the column-centered protected matrix."""
    x = np.asarray(x, dtype=np.float64)
    xc = x - x.mean(axis=0)
    v = xc.T @ predictions / x.shape[0]
    return float(v @ v)


def check_constrained_fit(design, x, gamma, family, tol=CONSTRAINT_TOL) -> float:
    """The activated predictions of ``gamma`` are uncorrelated with X."""
    mu = INVERSE_LINKS[family](design @ gamma)
    value = covariance_norm(x, mu)
    require(value <= tol,
            f"covariance norm {value:.3e} above tolerance {tol:.1e}")
    return value


def check_predictions(design, gamma, predictions, family) -> float:
    """Written predictions equal ``h(design @ gamma)``."""
    expected = INVERSE_LINKS[family](design @ gamma)
    gap = float(np.max(np.abs(expected - predictions)))
    require(gap <= PREDICTION_ATOL,
            f"predictions differ from h(Z gamma) by {gap:.3e}")
    return gap


def check_linear_correction(x, zc_design, y, beta, predictions) -> float:
    """Logistic refit on complement-projected features.

    ``logit(mu)`` is a combination of features orthogonal to every centered
    protected column, and the fit's score on the numpy-projected design
    vanishes.  Returns the relative orthogonality gap.
    """
    logit = np.log(predictions) - np.log1p(-predictions)
    xc = x - x.mean(axis=0)
    gap = float(np.linalg.norm(xc.T @ logit)
                / (np.linalg.norm(xc) * np.linalg.norm(logit)))
    require(gap <= ORTH_RTOL,
            f"logit(mu) not orthogonal to protected columns: {gap:.3e}")
    check_irls_fit(zc_design, y, beta, "bernoulli")
    return gap


def logistic_newton(design: np.ndarray, y: np.ndarray, max_iter: int = 50):
    """Newton's method for the logistic model with soft responses.

    Returns ``(beta, std_errors)``; standard errors come from the inverse
    Fisher information at the optimum, through a Cholesky solve.
    """
    beta = np.zeros(design.shape[1])
    for _ in range(max_iter):
        mu = sigmoid(design @ beta)
        w = mu * (1.0 - mu)
        info = design.T @ (w[:, None] * design)
        step = np.linalg.solve(info, design.T @ (y - mu))
        beta = beta + step
        if np.max(np.abs(step)) <= 1e-13 * (1.0 + np.max(np.abs(beta))):
            break
    mu = sigmoid(design @ beta)
    info = design.T @ ((mu * (1.0 - mu))[:, None] * design)
    chol = np.linalg.cholesky(info)
    inv_chol = np.linalg.solve(chol, np.eye(info.shape[0]))
    se = np.sqrt(np.sum(inv_chol * inv_chol, axis=0))
    return beta, se


def check_evaluation(x, predictions, estimates, std_errors) -> float:
    """Evaluation slopes match an independent Newton fit of the logistic
    evaluation model of the predictions on [1, X]."""
    beta, se = logistic_newton(with_intercept(x), predictions)
    gap = float(np.max(np.abs(beta[1:] - estimates)))
    require(gap <= ESTIMATE_ATOL, f"evaluation estimates off by {gap:.3e}")
    se_gap = float(np.max(np.abs(se[1:] - std_errors) / se[1:]))
    require(se_gap <= STD_ERROR_RTOL,
            f"evaluation standard errors off by {se_gap:.3e} (relative)")
    return gap


# ---------------------------------------------------------------------------
# tensors


def check_tensor_correction(x, tensor, corrected) -> float:
    """``X^T T_c = 0`` and ``T - T_c`` lies in span(X), to rounding."""
    n = tensor.shape[0]
    t = tensor.reshape(n, -1)
    tc = corrected.reshape(n, -1)
    scale = np.linalg.norm(x) * np.linalg.norm(t)
    orth = float(np.linalg.norm(x.T @ tc) / scale)
    require(orth <= ORTH_RTOL, f"X^T T_c / (|X| |T|) = {orth:.3e}")
    removed = t - tc
    outside = float(np.linalg.norm(complement(x, removed))
                    / max(np.linalg.norm(t), 1e-300))
    require(outside <= ORTH_RTOL, f"T - T_c leaves span(X) by {outside:.3e}")
    return orth


def check_tensor_evaluation(x, corrected, frobenius) -> float:
    """The evaluation's coefficient norm is null, and so is numpy's."""
    require(frobenius <= TENSOR_FROB_TOL,
            f"evaluate_tensor frobenius {frobenius:.3e}")
    coef, *_ = np.linalg.lstsq(x, corrected.reshape(x.shape[0], -1), rcond=None)
    own = float(np.linalg.norm(coef))
    require(own <= TENSOR_FROB_TOL, f"numpy tensor regression norm {own:.3e}")
    return own


# ---------------------------------------------------------------------------
# ReLU evaluation and the online network


def relu_objective(x, y, beta) -> float:
    r = y - np.maximum(x @ beta, 0.0)
    return float(r @ r) / x.shape[0]


def check_relu_evaluation(x, y, beta, objective, objective_at_zero) -> float:
    """Reported objectives match numpy, and the fit is no worse than zero.

    Returns the explained share ``1 - objective / objective_at_zero``.
    """
    own = relu_objective(x, y, beta)
    own_zero = float(y @ y) / x.shape[0]
    for name, got, want in (("objective", objective, own),
                            ("objective at zero", objective_at_zero, own_zero)):
        require(abs(got - want) <= OBJECTIVE_RTOL * max(abs(want), 1e-300),
                f"relu {name} {got!r} differs from numpy {want!r}")
    require(own <= own_zero, f"relu objective {own} above objective at zero")
    return 1.0 - own / own_zero


def check_share_drop(raw_shares, corrected_shares) -> float:
    """The median explained share drops after correction."""
    raw = float(np.median(raw_shares))
    cor = float(np.median(corrected_shares))
    require(cor < raw, f"median explained share rose: {raw:.3f} -> {cor:.3f}")
    return raw - cor


def accuracy(probabilities, labels) -> float:
    return float(np.mean((np.asarray(probabilities) > 0.5) == (labels > 0.5)))


def check_mlp_pair(acc_uncorrected, acc_corrected, residuals) -> float:
    """The corrected network wins by criterion 7's margin, and its
    per-batch orthogonality residual is at rounding level."""
    gain = acc_corrected - acc_uncorrected
    require(gain >= MLP_ACCURACY_MARGIN,
            f"corrected test accuracy gain {gain:+.3f} below "
            f"{MLP_ACCURACY_MARGIN}")
    check_mlp_residuals(residuals)
    return gain


def check_mlp_residuals(residuals) -> None:
    """The corrected network's per-batch orthogonality residual is at
    rounding level."""
    worst = max(residuals) if residuals else float("inf")
    require(worst <= MLP_RESIDUAL_TOL,
            f"per-batch orthogonality residual {worst:.3e}")


# ---------------------------------------------------------------------------
# CSV files written by the CLI


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def one_hot(header, body, columns):
    """Numeric passthrough, else one-hot with the lexicographically first
    level dropped.  Returns ``(matrix, names)``."""
    out, names = [], []
    for name in columns:
        j = header.index(name)
        cells = [row[j] for row in body]
        try:
            out.append(np.array(cells, dtype=np.float64))
            names.append(name)
            continue
        except ValueError:
            pass
        arr = np.array(cells)
        for level in sorted(set(cells))[1:]:
            out.append((arr == level).astype(np.float64))
            names.append(f"{name}={level}")
    return np.column_stack(out), names


def read_column(path, column) -> np.ndarray:
    header, body = read_csv(path)
    j = header.index(column)
    return np.array([row[j] for row in body], dtype=np.float64)


def read_coefficients(path) -> dict:
    _, body = read_csv(path)
    return {name: float(value) for name, value in body}


def read_evaluation(path):
    header, body = read_csv(path)
    cols = {h: [row[j] for row in body] for j, h in enumerate(header)}
    return (cols["coefficient"],
            np.array(cols["estimate"], dtype=np.float64),
            np.array(cols["std_error"], dtype=np.float64))


def read_tensor_file(path) -> np.ndarray:
    with open(path) as fh:
        dims = tuple(int(v) for v in fh.readline().split()[1:])
        flat = np.loadtxt(fh, delimiter=",", ndmin=2)
    return flat.reshape(dims)
