"""Correction-routine tests.

Projection corrections are checked against explicit oracles; the
constrained GLM is checked for feasibility, stationarity, and downstream
null evaluations on the synthetic confounded design.  Where a rectified
cross-term is involved, the tests assert its actual algebra: for
``x = relu(x) - relu(-x)`` the inner product of two vectors is the
alternating sum of the four rectified dot products, and the mixed term of
sample-orthogonal vectors is generally positive, not zero.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orthokit.glm as glm_module
from orthokit.correct import (
    ConstrainedConfig,
    augment_intercept,
    constraint_value,
    correct_features_linear,
    correct_features_relu,
    correct_predictions_glm,
    correct_tensor_preactivation,
    corrected_design,
    fit_constrained_glm,
)
from orthokit.errors import DimensionMismatch, DomainError, InvalidSpec, RankDeficient
from orthokit.evalmodel import evaluate_glm, evaluate_tensor
from orthokit.glm import (
    BERNOULLI,
    GAUSSIAN,
    MEAN_EPS,
    POISSON,
    family_by_name,
    fit_glm,
)
from orthokit.linalg import build_projector, center_columns
from orthokit.synth import SyntheticSpec, generate, stream

from helpers import assert_moved_at_most, conditioned, relu, relu_dot_terms


def rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


class TestCorrectFeaturesLinear:
    def test_own_features_vanish(self):
        x = rng(1).standard_normal((20, 3))
        np.testing.assert_allclose(correct_features_linear(x, x), 0.0, atol=1e-10)

    def test_orthogonal_features_unchanged(self):
        g = rng(2)
        x = g.standard_normal((20, 3))
        z = build_projector(x).complement(g.standard_normal((20, 4)))
        np.testing.assert_allclose(correct_features_linear(x, z), z, atol=1e-10)

    def test_downstream_ols_null_coefficients(self):
        g = rng(3)
        x = g.standard_normal((100, 3))
        z = 1.5 * np.column_stack([x, g.standard_normal((100, 5))])
        zc = correct_features_linear(x, z)
        np.testing.assert_allclose(x.T @ zc, 0.0, atol=1e-9)
        gamma = np.linalg.lstsq(zc, g.standard_normal(100), rcond=None)[0]
        y_hat = zc @ gamma
        beta = np.linalg.inv(x.T @ x) @ x.T @ y_hat  # no-intercept OLS oracle
        assert np.max(np.abs(beta)) <= 1e-9

    def test_rank_deficient_protected(self):
        with pytest.raises(RankDeficient):
            correct_features_linear(np.ones((10, 2)), np.ones((10, 1)))

    def test_row_mismatch(self):
        with pytest.raises(DimensionMismatch):
            correct_features_linear(np.ones((10, 1)), np.ones((9, 1)))


class TestCorrectPredictionsGlm:
    def test_bernoulli_recenters_at_half(self):
        g = rng(10)
        x = g.standard_normal((50, 2))
        y_hat = g.uniform(0.1, 0.9, size=50)
        out = correct_predictions_glm(x, y_hat, BERNOULLI)
        # the corrected predictions are the span([1, X])-complement residual
        # shifted by h(0) = 0.5
        proj = build_projector(augment_intercept(x))
        expected = proj.complement(y_hat[:, None])[:, 0] + 0.5
        np.testing.assert_allclose(out, expected, atol=1e-12)
        assert out.mean() == pytest.approx(0.5, abs=1e-10)

    def test_fixed_point(self):
        g = rng(11)
        x = g.standard_normal((40, 2))
        proj = build_projector(augment_intercept(x))
        y_hat = proj.complement(g.standard_normal((40, 1)))[:, 0] + 0.5
        out = correct_predictions_glm(x, y_hat, BERNOULLI)
        np.testing.assert_allclose(out, y_hat, atol=1e-10)

    def test_evaluation_slopes_null(self):
        g = rng(12)
        x = g.standard_normal((500, 4))
        eta = x @ g.standard_normal(4) + g.standard_normal(500)
        y_hat = BERNOULLI.h(eta)
        out = correct_predictions_glm(x, y_hat, BERNOULLI)
        rep = evaluate_glm(x, out, BERNOULLI)
        assert np.max(np.abs(rep.coefficients)) <= 1e-6
        assert np.min(rep.p_values) >= 0.99

    def test_unclipped_output_can_leave_unit_interval(self):
        g = rng(13)
        x = g.standard_normal((200, 3))
        y_hat = BERNOULLI.h(3.0 * x @ np.ones(3))
        out = correct_predictions_glm(x, y_hat, BERNOULLI)
        assert out.min() < 0.0 or out.max() > 1.0


class TestConstraintValue:
    def test_zero_coefficients_bernoulli(self):
        g = rng(20)
        z = g.standard_normal((30, 4))
        xc = center_columns(g.standard_normal((30, 2)))
        val = constraint_value(np.zeros(4), z, xc, BERNOULLI)
        assert val <= 1e-24

    def test_constant_activation_any_family(self):
        g = rng(21)
        z = np.zeros((25, 3))
        xc = center_columns(g.standard_normal((25, 2)))
        for family in (GAUSSIAN, BERNOULLI, POISSON):
            assert constraint_value(
                g.standard_normal(3), z, xc, family
            ) <= 1e-24

    def test_matches_double_loop_oracle(self):
        g = rng(22)
        z = g.standard_normal((40, 3))
        xc = center_columns(g.standard_normal((40, 2)))
        gamma = g.standard_normal(3)
        mu = BERNOULLI.h(z @ gamma)
        total = 0.0
        for j in range(2):
            dot = 0.0
            for i in range(40):
                dot += xc[i, j] * mu[i]
            total += dot * dot
        val = constraint_value(gamma, z, xc, BERNOULLI)
        assert abs(val - total) <= 1e-12 * max(1.0, total)

    @pytest.mark.parametrize("z_cols, xc_rows", [(3, 50), (4, 40)],
                             ids=["coefficients", "protected-rows"])
    def test_shape_mismatch_raises(self, z_cols, xc_rows):
        g = rng(23)
        z = g.standard_normal((50, z_cols))
        xc = center_columns(g.standard_normal((xc_rows, 2)))
        with pytest.raises(DimensionMismatch) as exc:
            constraint_value(np.zeros(4), z, xc, BERNOULLI)
        assert str(exc.value) == (
            f"design of shape (50, {z_cols}), coefficients of shape (4,) and "
            f"centered protected features of shape ({xc_rows}, 2) do not fit")


def appendix_design(seed=0, n=1000, p=5, q=10, family="bernoulli"):
    return generate(
        SyntheticSpec(n=n, p=p, q=q, rho=2.0, family=family, seed=seed)
    )


class TestFitConstrainedGlm:
    def test_bernoulli_confounded_design(self):
        data = appendix_design(seed=0)
        out = fit_constrained_glm(data.z, data.y, data.x, BERNOULLI)
        assert out.converged and out.stop_reason == "converged"
        assert out.constraint_residual <= 1e-6
        rep = evaluate_glm(data.x, out.corrected_predictions, BERNOULLI)
        assert np.max(np.abs(rep.coefficients)) <= 1e-3
        assert np.min(rep.p_values) >= 0.95
        # residual is recomputable from the coefficients (raw value / n^2)
        raw = constraint_value(
            out.gamma_c,
            augment_intercept(data.z),
            center_columns(data.x),
            BERNOULLI,
        )
        assert out.constraint_residual == pytest.approx(
            raw / data.spec.n**2, rel=1e-9
        )
        # predictions are the activated linear predictor
        zd = augment_intercept(data.z)
        np.testing.assert_allclose(
            out.corrected_predictions, BERNOULLI.h(zd @ out.gamma_c), atol=1e-12
        )

    def test_stationarity_and_feasibility(self):
        data = appendix_design(seed=1)
        out = fit_constrained_glm(data.z, data.y, data.x, BERNOULLI)
        assert out.constraint_residual <= 1e-12
        assert out.stationarity <= 1e-8

    def test_gaussian_matches_projection_refit_in_evaluation(self):
        # With the identity activation both routes produce null evaluations.
        # Their fitted values differ though: the constrained fit optimizes
        # over {Z gamma : Xc^T Z gamma = 0} while refitting on projected
        # features optimizes over the (larger) projected span, so the latter
        # attains a loss at least as small.
        data = appendix_design(seed=2, n=400, p=3, q=8, family="gaussian")
        out = fit_constrained_glm(data.z, data.y, data.x, GAUSSIAN)
        zc = correct_features_linear(
            augment_intercept(data.x), data.z
        )
        refit = fit_glm(zc, data.y, GAUSSIAN, with_intercept=True)
        rep_con = evaluate_glm(data.x, out.corrected_predictions, GAUSSIAN)
        rep_ref = evaluate_glm(data.x, refit.fitted_means, GAUSSIAN)
        assert rep_con.null_certified and rep_ref.null_certified
        assert out.loss >= GAUSSIAN.nll(data.y, refit.fitted_means) - 1e-6

    def test_uncorrelated_protected_features(self):
        # With rho = 0 the unconstrained covariances are only sampling noise,
        # but zeroing them still moves the coefficients measurably; the fit
        # must stay feasible and evaluation-null, at a bounded loss premium.
        data = generate(
            SyntheticSpec(n=1000, p=5, q=10, rho=0.0, family="bernoulli", seed=3)
        )
        unconstrained = fit_glm(data.z, data.y, BERNOULLI, with_intercept=True)
        out = fit_constrained_glm(data.z, data.y, data.x, BERNOULLI)
        assert out.constraint_residual <= 1e-6
        gap = out.loss - BERNOULLI.nll(data.y, unconstrained.fitted_means)
        assert 0.0 <= gap <= 0.2 * data.spec.n
        rep = evaluate_glm(data.x, out.corrected_predictions, BERNOULLI)
        assert np.min(rep.p_values) >= 0.95

    def test_poisson_confounded_design(self):
        data = appendix_design(seed=4, family="poisson")
        out = fit_constrained_glm(data.z, data.y, data.x, POISSON)
        assert out.constraint_residual <= 1e-6
        rep = evaluate_glm(data.x, out.corrected_predictions, POISSON)
        assert np.min(rep.p_values) >= 0.9

    def test_did_not_converge_carries_best(self):
        data = appendix_design(seed=5, n=200)
        cfg = ConstrainedConfig(max_iter=1)
        best = fit_constrained_glm(data.z, data.y, data.x, BERNOULLI, cfg)
        assert best is not None
        assert best.converged is False
        assert best.constraint_residual <= cfg.constraint_tol
        assert best.iterations == 1
        assert best.stop_reason == "reached max_iter=1"

    def test_stop_reason_names_quasi_separation(self):
        data = generate(
            SyntheticSpec(n=200, p=5, q=100, rho=2.0, family="bernoulli", seed=0)
        )
        out = fit_constrained_glm(data.z, data.y, data.x, BERNOULLI)
        assert out.converged is False
        assert "quasi-separated" in out.stop_reason
        assert out.constraint_residual <= 1e-6

    @pytest.mark.parametrize("cfg", [
        {"max_iter": -1}, {"constraint_tol": -1e-6},
        {"constraint_tol": float("nan")}, {"constraint_tol": float("inf")},
    ], ids=["negative-budget", "negative-tol", "nan-tol", "inf-tol"])
    def test_unmeetable_stopping_rule_raises_invalid_spec(self, cfg):
        data = appendix_design(seed=5, n=200)
        with pytest.raises(InvalidSpec):
            fit_constrained_glm(data.z, data.y, data.x, BERNOULLI,
                                ConstrainedConfig(**cfg))
        if "max_iter" in cfg:  # the shared Newton loop refuses it for both fits
            with pytest.raises(InvalidSpec, match="max_iter"):
                fit_glm(data.z, data.y, BERNOULLI, max_iter=cfg["max_iter"])

    @pytest.mark.parametrize("short", ["y", "x"])
    def test_row_mismatch_raises(self, short):
        data = appendix_design(seed=5, n=200)
        y = data.y[:-1] if short == "y" else data.y
        x = data.x[:-1] if short == "x" else data.x
        with pytest.raises(DimensionMismatch, match="row count"):
            fit_constrained_glm(data.z, y, x, BERNOULLI)

    def test_constant_protected_column_raises(self):
        data = appendix_design(seed=5, n=200)
        x = np.column_stack([data.x, np.full(200, 3.0)])
        with pytest.raises(DomainError, match="constant"):
            fit_constrained_glm(data.z, data.y, x, BERNOULLI)

    def test_no_feasible_iterate_returns_last_one(self):
        # at constraint_tol = 0 not even gamma = 0 (residual at rounding
        # level) is feasible: the last iterate comes back, unconverged
        data = appendix_design(seed=5, n=200)
        cfg = ConstrainedConfig(max_iter=3, constraint_tol=0.0)
        out = fit_constrained_glm(data.z, data.y, data.x, BERNOULLI, cfg)
        assert out.converged is False
        assert out.stop_reason == "reached max_iter=3"
        assert out.iterations == 3
        assert out.constraint_residual > 0.0
        assert np.any(out.gamma_c != 0.0)

    @pytest.mark.parametrize("p", [5, 10])
    def test_separated_designs_are_flagged_not_converged(self, p):
        # n = 200 rows against 101 coefficients: most of these logistic
        # designs are quasi-separated, so the fit must either converge to a
        # finite KKT point or return unconverged with a feasible iterate.
        for seed in range(10):
            data = generate(
                SyntheticSpec(n=200, p=p, q=100, rho=2.0, family="bernoulli",
                              seed=seed)
            )
            out = fit_constrained_glm(data.z, data.y, data.x, BERNOULLI)
            assert out is not None
            assert out.converged is (out.stop_reason == "converged")
            assert out.constraint_residual <= 1e-6
            if out.converged:
                mu = out.corrected_predictions
                assert MEAN_EPS < np.min(mu) and np.max(mu) < 1.0 - MEAN_EPS
                assert out.stationarity <= 1e-8

    @pytest.mark.parametrize("seed", [2026, 2028, 2045, 2117, 2149])
    def test_null_certified_on_heteroscedastic_design(self, seed):
        # Criterion 2's design: a binary protected feature shifts the first
        # feature and scales every feature.  A constraint residual of a few
        # 1e-7 leaves evaluation slopes near 0.02, above the 1e-2
        # certification threshold; an exactly feasible fit leaves none.
        n, q = 1000, 10
        g = stream(seed)
        x = (g.random(n) < 0.5).astype(np.float64)[:, None]
        z = g.standard_normal((n, q)) * (1.0 + 3.0 * x)
        z[:, 0] += 2.0 * x[:, 0]
        gamma = g.standard_normal(q) / np.sqrt(q)
        y = (g.random(n) < BERNOULLI.h(-2.0 + z @ gamma)).astype(np.float64)
        out = fit_constrained_glm(z, y, x, BERNOULLI)
        assert evaluate_glm(x, out.corrected_predictions, BERNOULLI).null_certified


def record_newton_steps(monkeypatch):
    """Record ``(hessian in, hessian used, jac, grad, c, d)`` of every
    Newton step ``fit_constrained_glm`` takes."""
    steps = []
    solve = glm_module._newton_step

    def recording(hess, jac, grad, c):
        d, used = solve(hess, jac, grad, c)
        steps.append((hess, used, jac, grad, c, d))
        return d, used

    monkeypatch.setattr(glm_module, "_newton_step", recording)
    return steps


class TestNewtonStep:
    @pytest.mark.parametrize("family", ("bernoulli", "poisson"))
    @pytest.mark.parametrize("q", (10, 100))
    @pytest.mark.parametrize("n", (200, 5000))
    def test_null_space_step_matches_dense_kkt_on_appendix_g_shapes(
        self, n, q, family, monkeypatch
    ):
        # every step of the fit equals the dense least-squares solve of the
        # KKT system with the Hessian it used, and that Hessian is shifted
        # exactly when the smallest eigenvalue of its block on the null
        # space of J is at most 1e-10 * scale; seed 2's bernoulli n=200,
        # q=100 fit takes a shifted step
        steps = record_newton_steps(monkeypatch)
        for seed in (0, 2):
            data = generate(
                SyntheticSpec(n=n, p=5, q=q, rho=2.0, family=family, seed=seed)
            )
            fit_constrained_glm(data.z, data.y, data.x, family_by_name(family))
        assert steps
        shifted = 0
        for hess, used, jac, grad, c, d in steps:
            p, k = jac.shape
            kkt = np.block([[used, jac.T], [jac, np.zeros((p, p))]])
            dense = np.linalg.lstsq(kkt, -np.concatenate([grad, c]), rcond=None)[0]
            err = np.max(np.abs(d - dense[:k])) / np.max(np.abs(dense))
            assert err <= 1e-10, err
            null = np.linalg.qr(jac.T, mode="complete")[0][:, p:]
            low = np.linalg.eigvalsh(null.T @ hess @ null).min()
            scale = max(1.0, np.max(np.abs(np.diag(hess))))
            is_shifted = used is not hess
            assert is_shifted == bool(low <= 1e-10 * scale)
            if is_shifted:
                np.testing.assert_allclose(
                    used - hess, (1e-4 * scale - 2.0 * low) * np.eye(k),
                    rtol=1e-9, atol=1e-12,
                )
            shifted += is_shifted
        if (family, n, q) == ("bernoulli", 200, 100):
            assert shifted >= 1

    def test_duplicated_protected_column_adds_no_constraint(self):
        # x3 = x1 + x2 makes J rank deficient, and x3 = x1 + x2 + 1e-13
        # relative noise leaves it of rank 2 at RANK_RTOL; the rank cut of
        # the step and of the multipliers drops the implied constraint, so
        # the fit takes the same steps (4 bernoulli, 6 poisson) to the same
        # gamma as the fit on (x1, x2)
        for family in (BERNOULLI, POISSON):
            data = generate(
                SyntheticSpec(n=500, p=2, q=6, rho=2.0, family=family.name, seed=3)
            )
            ref = fit_constrained_glm(data.z, data.y, data.x, family)
            assert ref.converged
            assert ref.iterations == {"bernoulli": 4, "poisson": 6}[family.name]
            s = data.x[:, 0] + data.x[:, 1]
            noise = np.random.default_rng(0).standard_normal(s.shape[0])
            near = s + 1e-13 * np.linalg.norm(s) / np.sqrt(s.shape[0]) * noise
            for x3 in (s, near):
                out = fit_constrained_glm(
                    data.z, data.y, np.column_stack([data.x, x3]), family
                )
                assert out.converged, family.name
                assert out.iterations == ref.iterations, family.name
                assert np.max(np.abs(out.gamma_c - ref.gamma_c)) <= 1e-12

    @pytest.mark.parametrize("family", (BERNOULLI, POISSON), ids=lambda f: f.name)
    def test_empty_null_space(self, family):
        # with q = p and no intercept column, J is square and of full rank:
        # the constraints alone fix the step.  This is the first step of
        # such a fit, from gamma = 0, whose residual is at rounding level.
        data = generate(
            SyntheticSpec(n=300, p=5, q=5, rho=2.0, family=family.name, seed=1)
        )
        n = data.z.shape[0]
        mu = family.h(np.zeros(n))
        hp = family.variance(mu)
        xc = center_columns(data.x)
        hess = data.z.T @ (hp[:, None] * data.z) / n
        jac = (xc * hp[:, None]).T @ data.z / n
        grad = data.z.T @ (mu - data.y) / n
        c = xc.T @ mu / n
        d, used = glm_module._newton_step(hess, jac, grad, c)
        assert used is hess
        np.testing.assert_allclose(jac @ d, -c, rtol=0.0, atol=1e-15)


class TestInvariance:
    """The protected span, and so ``corrected_design`` and the constrained
    fit, do not depend on the order of the rows or on an invertible affine
    map ``X -> X A + b``.  The bounds are rounding allowances fixed by the
    problem before any run: n eps relative to the largest entry for a row
    permutation, times cond(A) for the affine map."""

    N, P, Q = 1000, 3, 10
    EPS = np.finfo(np.float64).eps

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("family", ("bernoulli", "poisson"))
    def test_row_permutation(self, family, seed):
        data = appendix_design(seed, self.N, self.P, self.Q, family)
        perm = rng(100 + seed).permutation(self.N)
        bound = self.N * self.EPS
        assert_moved_at_most(corrected_design(data.x[perm], data.z[perm]),
                             corrected_design(data.x, data.z)[perm], bound)
        fam = family_by_name(family)
        ref = fit_constrained_glm(data.z, data.y, data.x, fam)
        out = fit_constrained_glm(data.z[perm], data.y[perm], data.x[perm], fam)
        assert ref.converged and out.converged
        assert_moved_at_most(out.gamma_c, ref.gamma_c, bound)

    @pytest.mark.parametrize("cond", (1.0, 1e3, 1e6))
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("family", ("bernoulli", "poisson"))
    def test_affine_map_of_protected_features(self, family, seed, cond):
        data = appendix_design(seed, self.N, self.P, self.Q, family)
        a = conditioned(200 + seed, self.P, cond)
        np.testing.assert_allclose(np.linalg.cond(a), cond, rtol=1e-6)
        xa = data.x @ a + rng(300 + seed).standard_normal(self.P)
        bound = self.N * self.EPS * cond
        assert_moved_at_most(corrected_design(xa, data.z),
                             corrected_design(data.x, data.z), bound)
        fam = family_by_name(family)
        ref = fit_constrained_glm(data.z, data.y, data.x, fam)
        out = fit_constrained_glm(data.z, data.y, xa, fam)
        assert ref.converged and out.converged
        assert_moved_at_most(out.gamma_c, ref.gamma_c, bound)


class TestLineSearch:
    """The SQP line search halves a step only on a merit increase larger
    than rounding (``MERIT_RTOL``)."""

    @staticmethod
    def one_step(monkeypatch, growth):
        """One gaussian SQP step from gamma = 0 along a column orthogonal to
        y, sized so that the loss grows by ``growth`` times its value.
        Returns the loss at gamma = 0 and at the full step, the Armijo
        bound of the full step without rounding allowance, and the linear
        predictors the fit evaluated."""
        g = rng(70)
        n = 200
        z = g.standard_normal((n, 3))
        x = g.standard_normal((n, 1)) + z[:, :1]
        y = g.standard_normal(n)
        y -= z[:, 1] * (z[:, 1] @ y) / (z[:, 1] @ z[:, 1])
        zd = augment_intercept(z)
        loss0 = GAUSSIAN.nll(y, np.zeros(n)) / n
        # loss(t e_2) - loss0 = t^2 ||z_1||^2 / (2n) when z_1 is orthogonal to y
        d = np.zeros(4)
        d[2] = np.sqrt(2.0 * n * growth * loss0) / np.linalg.norm(z[:, 1])
        monkeypatch.setattr(glm_module, "_newton_step",
                            lambda hess, jac, grad, c: (d, hess))
        etas = []

        def h(eta):
            etas.append(eta)
            return np.asarray(eta, dtype=np.float64)

        family = dataclasses.replace(GAUSSIAN, h=h)
        fit_constrained_glm(z, y, x, family, ConstrainedConfig(max_iter=1))
        # at gamma = 0 the means and constraints are exactly 0, so rho = 0
        # and the merit is the loss
        loss_full = GAUSSIAN.nll(y, zd @ d) / n
        armijo = loss0 + 1e-4 * float((zd.T @ -y / n) @ d)
        return loss0, loss_full, armijo, etas, zd @ d

    def test_rounding_level_increase_takes_the_full_step(self, monkeypatch):
        loss0, loss_full, armijo, etas, eta_full = self.one_step(monkeypatch, 1e-14)
        # the full step fails the plain Armijo test by a rounding-level margin
        assert armijo < loss_full
        assert loss_full - loss0 <= glm_module.MERIT_RTOL * (abs(loss0) + 1.0)
        assert len(etas) == 2  # gamma = 0, then the full step only
        np.testing.assert_array_equal(etas[1], eta_full)

    def test_larger_increase_is_halved(self, monkeypatch):
        loss0, loss_full, armijo, etas, _ = self.one_step(monkeypatch, 1e-9)
        assert loss_full - loss0 > glm_module.MERIT_RTOL * (abs(loss0) + 1.0)
        assert len(etas) > 2


class TestProjectionFailsAfterActivation:
    def test_feature_projection_leaves_large_pvalues_on_gaussian_design(self):
        # Projected features keep the linear predictor orthogonal to X, and
        # because (X, Z) are jointly gaussian here, the activated predictions
        # are asymptotically independent of X as well: the evaluation stays
        # far from significance.  The generalized correction is motivated by
        # real (non-gaussian) data, where this evaluation does fail.
        data = appendix_design(seed=6)
        zc = correct_features_linear(augment_intercept(data.x), data.z)
        fit = fit_glm(zc, data.y, BERNOULLI, with_intercept=True)
        rep = evaluate_glm(data.x, fit.fitted_means, BERNOULLI)
        assert np.min(rep.p_values) >= 0.5
        # the linear predictor itself evaluates to exactly null
        rep_lin = evaluate_glm(
            data.x, zc @ fit.coefficients[1:] + fit.coefficients[0], GAUSSIAN
        )
        assert np.max(np.abs(rep_lin.coefficients)) <= 1e-9


class TestCorrectFeaturesRelu:
    def test_rectified_span_counterexample(self):
        # relu of a span element need not stay in the span
        x = np.array([[1.0], [-1.0]])
        activated = relu(x @ np.array([1.0]))
        np.testing.assert_allclose(activated, [1.0, 0.0])
        resid = activated - x[:, 0] * (x[:, 0] @ activated) / (x[:, 0] @ x[:, 0])
        assert np.linalg.norm(resid) > 0.5

    def test_same_transformation_as_linear(self):
        g = rng(30)
        x = g.standard_normal((50, 2))
        z = g.standard_normal((50, 5))
        np.testing.assert_array_equal(
            correct_features_relu(x, z), correct_features_linear(x, z)
        )

    def test_alternating_decomposition_identity(self):
        # a.b = h(a).h(b) - h(-a).h(b) - h(a).h(-b) + h(-a).h(-b)
        g = rng(31)
        x = g.standard_normal((50, 2))
        zc = correct_features_relu(x, g.standard_normal((50, 5)))
        for _ in range(20):
            a = zc @ g.standard_normal(5)
            b = x @ g.standard_normal(2)
            t0, t1, t2, t3 = relu_dot_terms(a, b)
            assert abs((t0 - t1 - t2 + t3) - a @ b) <= 1e-10 * max(
                1.0, abs(a @ b)
            )

    def test_mixed_rectified_term_is_generally_positive(self):
        # Orthogonality of a and b does not transfer to relu(a).relu(b):
        # the rectified cross-term of sample-orthogonal vectors stays
        # strictly positive for generic draws.
        g = rng(32)
        x = g.standard_normal((50, 2))
        zc = correct_features_relu(x, g.standard_normal((50, 5)))
        mixed = []
        for _ in range(100):
            a = zc @ g.standard_normal(5)
            b = x @ g.standard_normal(2)
            assert abs(a @ b) <= 1e-8  # projection makes them orthogonal
            mixed.append(relu(a) @ relu(b))
        assert min(mixed) > 0.0

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40))
    def test_decomposition_identity_random_vectors(self, seed, n):
        g = rng(seed)
        a = 3.0 * g.standard_normal(n)
        b = 3.0 * g.standard_normal(n)
        t0, t1, t2, t3 = relu_dot_terms(a, b)
        assert abs((t0 - t1 - t2 + t3) - a @ b) <= 1e-10 * max(1.0, abs(a @ b))
        # and the all-positive sum reconstructs |a|.|b|
        assert abs((t0 + t1 + t2 + t3) - np.abs(a) @ np.abs(b)) <= 1e-10 * max(
            1.0, np.abs(a) @ np.abs(b)
        )


class TestTensorCorrections:
    def test_span_tensor_annihilated(self):
        g = rng(40)
        x = g.standard_normal((6, 2))
        b = g.standard_normal((2, 12))
        t = (x @ b).reshape(6, 3, 4)
        np.testing.assert_allclose(
            correct_features_linear(x, t), 0.0, atol=1e-10
        )

    def test_evaluation_null_after_correction(self):
        g = rng(41)
        x = g.standard_normal((4, 2))
        t = g.standard_normal((4, 2, 3))
        tc = correct_features_linear(x, t)
        res = evaluate_tensor(x, tc)
        assert res.frobenius <= 1e-8
        # Kronecker oracle: stacked least squares on (I_d kron X)
        d = 6
        big = np.kron(np.eye(d), x)
        coef = np.linalg.lstsq(
            big, tc.reshape(4, d).flatten(order="F"), rcond=None
        )[0]
        assert np.linalg.norm(coef) <= 1e-10

    def test_double_application_idempotent(self):
        g = rng(42)
        x = g.standard_normal((5, 1))
        t = g.standard_normal((5, 2, 2))
        once = correct_features_linear(x, t)
        np.testing.assert_allclose(
            correct_features_linear(x, once), once, atol=1e-10
        )

    def test_preactivation_delegates_bitwise(self):
        g = rng(43)
        x = g.standard_normal((6, 2))
        t = g.standard_normal((6, 2, 2))
        np.testing.assert_array_equal(
            correct_tensor_preactivation(x, t),
            correct_features_linear(x, t),
        )
        proj = build_projector(x)
        np.testing.assert_array_equal(
            correct_tensor_preactivation(x, t), proj.complement(t)
        )

    def test_all_negative_preactivation_gives_null_evaluation(self):
        g = rng(44)
        x = g.standard_normal((6, 1))
        t = g.standard_normal((6, 2, 2))
        tc = correct_tensor_preactivation(x, t)
        activated = relu(-np.abs(tc))  # force a fully negative tensor
        assert np.all(activated == 0.0)
        res = evaluate_tensor(x, activated)
        assert res.frobenius == 0.0

    def test_vectorized_mixed_term_vanishes_before_activation(self):
        # vec(P-complement x1 T) . vec(X x1 B) = 0 for every coefficient B
        g = rng(45)
        x = g.standard_normal((6, 2))
        t = g.standard_normal((6, 2, 2))
        tc = correct_tensor_preactivation(x, t)
        for _ in range(50):
            b = g.standard_normal((2, 2, 2))
            dot = float(
                tc.reshape(6, -1).flatten() @ (x @ b.reshape(2, -1)).flatten()
            )
            assert abs(dot) <= 1e-10
