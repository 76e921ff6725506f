"""Synthetic data generation and the simulation study harness.

The generator draws prediction features Z with iid standard-normal entries
and builds protected features as ``X = rho * Z[:, :p] + E`` with independent
standard-normal noise E, so the population correlation between paired
columns is ``rho / sqrt(rho^2 + 1)``.  Responses are sampled from the chosen
family at mean ``h(Z gamma)``.

Randomness comes from counter-based Philox streams keyed by a splitmix64
chain over ``(seed, *ids)``; identical seeds reproduce datasets bit for bit,
and every (cell, replicate) pair owns an independent, documented stream.

The paper's three GLM methods (uncorrected, cl and ch) are fit in one
place, ``fit_method``, which both the simulation study and Figure 1 call.
The study and demo tables are rows in memory; this module does no file
I/O, and ``cli`` writes the tables in its CSV format.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .correct import ConstrainedConfig, corrected_design, fit_constrained_glm
from .errors import InvalidSpec, OrthokitError
from .evalmodel import evaluate_glm
from .glm import ALPHA, FAMILIES, family_by_name, fit_glm

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def stream(seed: int, *ids: int) -> np.random.Generator:
    """Philox generator keyed by a splitmix64 chain over (seed, *ids)."""
    key = int(seed) & _MASK64
    for i in ids:
        key = _splitmix64(key ^ (int(i) & _MASK64))
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class SyntheticSpec:
    """One cell of the synthetic design grid."""

    n: int
    p: int
    q: int
    rho: float
    family: str = "bernoulli"
    seed: int = 0

    def validate(self) -> None:
        if self.n < 1:
            raise InvalidSpec(f"n must be >= 1, got {self.n}")
        if not 1 <= self.p <= self.q:
            raise InvalidSpec(f"need 1 <= p <= q, got p={self.p}, q={self.q}")
        if not np.isfinite(self.rho):
            raise InvalidSpec("rho must be finite")
        if self.family not in FAMILIES:
            raise InvalidSpec(f"unknown family {self.family!r}; "
                              f"expected one of {sorted(FAMILIES)}")


@dataclass
class SyntheticDataset:
    z: np.ndarray
    x: np.ndarray
    y: np.ndarray
    true_gamma: np.ndarray
    spec: SyntheticSpec


# Linear predictors are clipped here before exponentiation when sampling
# poisson responses, to keep extreme draws finite.
POISSON_ETA_CLIP = 10.0


def generate(spec: SyntheticSpec, replicate: int = 0) -> SyntheticDataset:
    """Draw one dataset for the given cell; deterministic in (seed, replicate).
    Its ``true_gamma`` is drawn from N(0, I / q), so Var(Z gamma) ~ 1."""
    spec.validate()
    family = family_by_name(spec.family)
    rng = stream(spec.seed, replicate)
    z = rng.standard_normal((spec.n, spec.q))
    e = rng.standard_normal((spec.n, spec.p))
    x = spec.rho * z[:, : spec.p] + e
    gamma = rng.standard_normal(spec.q) / np.sqrt(spec.q)
    eta = z @ gamma
    if family.name == "bernoulli":
        y = (rng.random(spec.n) < family.h(eta)).astype(np.float64)
    elif family.name == "poisson":
        rate = np.exp(np.clip(eta, -POISSON_ETA_CLIP, POISSON_ETA_CLIP))
        y = rng.poisson(rate).astype(np.float64)
    else:
        y = eta + rng.standard_normal(spec.n)
    return SyntheticDataset(z=z, x=x, y=y, true_gamma=gamma, spec=spec)


METHODS = ("uncorrected", "cl", "ch")

STUDY_COLUMNS = (
    "family",
    "n",
    "p",
    "q",
    "rho",
    "replicate",
    "method",
    "coefficient_index",
    "estimate",
    "std_error",
    "z_stat",
    "p_value",
    "constraint_residual",
    "loss",
    "converged",
    "error",
)

# The keys of a ``StudyTable.summarize`` row, in order: a cell and method,
# its pooled statistics and its row counts.
SUMMARY_COLUMNS = (
    "family", "n", "p", "q", "rho", "method",
    "median_abs_estimate", "median_p_value", "fraction_significant",
    "max_constraint_residual", "rows", "unconverged",
)


@dataclass
class StudyTable:
    """Long-format simulation results with a fixed column set."""

    rows: list = field(default_factory=list)
    columns = STUDY_COLUMNS

    def summarize(self) -> list:
        """Per (cell, method) medians and the fraction with p < ``ALPHA``.

        Only rows whose own fit converged are pooled: an unconverged fit's
        best iterate is no estimate (an unconverged ``ch`` fit is often
        ``gamma = 0``, whose constant predictions evaluate as p = 1).
        ``rows`` counts the pooled rows and ``unconverged`` the others; a
        group with no converged row has None statistics.
        """
        groups: dict = {}
        for row in self.rows:
            if row.get("error"):
                continue
            key = tuple(row[c] for c in SUMMARY_COLUMNS[:6])  # cell and method
            groups.setdefault(key, []).append(row)
        out = []
        for key in sorted(groups, key=lambda k: tuple(str(x) for x in k)):
            rows = [r for r in groups[key] if r["converged"]]
            stats = dict.fromkeys(
                ("median_abs_estimate", "median_p_value", "fraction_significant")
            )
            if rows:
                pv = np.array([r["p_value"] for r in rows])
                stats = {
                    "median_abs_estimate": float(
                        np.median([abs(r["estimate"]) for r in rows])
                    ),
                    "median_p_value": float(np.median(pv)),
                    "fraction_significant": float(np.mean(pv < ALPHA)),
                }
            res = [
                r["constraint_residual"]
                for r in rows
                if r.get("constraint_residual") is not None
            ]
            out.append(
                {
                    **dict(zip(SUMMARY_COLUMNS[:6], key)),
                    **stats,
                    "max_constraint_residual": (
                        float(np.max(res)) if res else None
                    ),
                    "rows": len(rows),
                    "unconverged": len(groups[key]) - len(rows),
                }
            )
        return out


def fit_method(method: str, z, y, x, family,
               max_iter: int = ConstrainedConfig.max_iter):
    """Fit one of the paper's three methods with at most ``max_iter``
    Newton steps: ``fit_glm`` on ``[1, Z]`` (uncorrected), ``fit_glm`` on
    ``corrected_design(x, z)`` (cl) or ``fit_constrained_glm`` (ch).

    Returns ``(activated predictions, fit)``, with ``fit`` the ``GlmFit``
    or ``CorrectionOutcome``; its ``converged`` flag is the method's own.
    An unconverged fit contributes its best iterate.  Any other method
    raises ``InvalidSpec``.
    """
    if method == "uncorrected":
        fit = fit_glm(z, y, family, max_iter, with_intercept=True)
    elif method == "cl":
        fit = fit_glm(corrected_design(x, z), y, family, max_iter)
    elif method == "ch":
        fit = fit_constrained_glm(z, y, x, family, ConstrainedConfig(max_iter=max_iter))
        return fit.corrected_predictions, fit
    else:
        raise InvalidSpec(f"unknown method {method!r}")
    return fit.fitted_means, fit


def _study_cell(spec: SyntheticSpec, replicate: int) -> list:
    rows = []
    base = {
        "family": spec.family,
        "n": spec.n,
        "p": spec.p,
        "q": spec.q,
        "rho": spec.rho,
        "replicate": replicate,
    }
    data = generate(spec, replicate)
    family = family_by_name(spec.family)
    for method in METHODS:
        try:
            mu, fit = fit_method(method, data.z, data.y, data.x, family)
            report = evaluate_glm(data.x, mu, family)
        except OrthokitError as exc:
            rows.append(
                dict(
                    base,
                    method=method,
                    coefficient_index=-1,
                    error=f"{type(exc).__name__}: {exc}",
                )
            )
            continue
        ch = method == "ch"
        for j in range(spec.p):
            rows.append(
                dict(
                    base,
                    method=method,
                    coefficient_index=j,
                    estimate=float(report.coefficients[j]),
                    std_error=float(report.std_errors[j]),
                    z_stat=float(report.z_stats[j]),
                    p_value=float(report.p_values[j]),
                    constraint_residual=fit.constraint_residual if ch else None,
                    loss=fit.loss if ch else None,
                    converged=fit.converged,
                    error=None,
                )
            )
    return rows


def simulation_study(
    grid: Iterable[SyntheticSpec],
    replicates: int,
    threads: int | None = None,
) -> StudyTable:
    """Run uncorrected, feature-projection, and constrained fits per cell:
    ``fit_method`` for each of ``METHODS``, then ``evaluate_glm`` of its
    activated predictions on the protected features.

    Every cell is validated before any runs, so an invalid grid, or a
    cell with n <= p + q that some method cannot fit, raises
    ``InvalidSpec`` and draws nothing.  Cells then run one after another,
    each (cell, replicate) on its own stream; a fit that fails becomes an
    error-marker row instead of aborting the study.  ``threads`` is kept
    for callers that pass it: None, 0 and 1 are accepted, and more threads
    raise ``InvalidSpec``.
    """
    grid = list(grid)
    if not grid:
        raise InvalidSpec("grid must contain at least one cell")
    if threads and threads > 1:
        raise InvalidSpec(f"threads must be None, 0 or 1, got {threads}")
    for spec in grid:
        spec.validate()
        if spec.n <= spec.p + spec.q:  # q + 1 coefficients; cl's [1, Zc] has rank <= n - p
            raise InvalidSpec(f"need n > p + q, got n={spec.n}, p={spec.p}, q={spec.q}")
    if replicates < 1:
        raise InvalidSpec("replicates must be >= 1")
    table = StudyTable()
    for spec in grid:
        for replicate in range(replicates):
            table.rows.extend(_study_cell(spec, replicate))
    return table


TRAJECTORY_COLUMNS = ("iteration", "method", "loss", "corr_with_protected")


@dataclass
class TrajectoryTable:
    rows: list = field(default_factory=list)
    columns = TRAJECTORY_COLUMNS

    def final(self, method: str) -> dict:
        rows = [r for r in self.rows if r["method"] == method]
        return rows[-1]


def _safe_corr(a: np.ndarray, b: np.ndarray) -> float:
    sa, sb = np.std(a), np.std(b)
    if sa <= 0.0 or sb <= 0.0:
        return 0.0
    return float(np.mean((a - a.mean()) * (b - b.mean())) / (sa * sb))


def _figure1_data(seed: int):
    """Figure 1's data: two prediction features Z, one protected feature X
    (an n x 1 matrix) correlated with the first, and bernoulli responses y."""
    n = 400
    rng = stream(seed, 0xF1D)
    z = rng.standard_normal((n, 2))
    x = 2.0 * z[:, :1] + rng.standard_normal((n, 1))
    eta = z @ np.array([1.2, -0.8])
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(np.float64)
    return z, x, y


def figure1_demo(seed: int = 0) -> TrajectoryTable:
    """Two-feature logistic demonstration of the three corrections.

    One protected feature is correlated with the first of two prediction
    features.  Each method is the package's own Newton fit, from
    ``fit_method``.  Each is refit with a step budget of
    k = 0, 1, ... until the first converged fit, and at most
    ``ConstrainedConfig.max_iter`` steps.  The table records, per method
    and budget, the loss (NLL / n) and the Pearson correlation between the
    activated predictions and the protected feature of the fit that budget
    returns.  Every fit starts from zero coefficients, so the k = 0 rows
    are identical across methods.

    The ``iteration`` column is the budget k, not an iterate index: a fit
    returns its best feasible iterate, so a ``ch`` row can repeat the row
    before it.
    """
    z, x, y = _figure1_data(seed)
    family = family_by_name("bernoulli")
    table = TrajectoryTable()
    for method in METHODS:
        for k in range(ConstrainedConfig.max_iter + 1):
            mu, fit = fit_method(method, z, y, x, family, k)
            table.rows.append({"iteration": k, "method": method, "loss": fit.loss / len(y),
                               "corr_with_protected": _safe_corr(mu, x[:, 0])})
            if fit.converged:
                break
    return table
