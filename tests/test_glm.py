"""GLM engine tests: families, IRLS, and Wald inference.

The IRLS oracle is an independent dense-Hessian Newton loop on the exact
negative log-likelihood; closed-form intercepts and textbook OLS standard
errors pin the remaining derived values.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orthokit.glm as glm_module
from orthokit.correct import augment_intercept
from orthokit.errors import (
    DimensionMismatch,
    DomainError,
    InvalidSpec,
    RankDeficient,
    SingularInformation,
)
from orthokit.glm import (
    BERNOULLI,
    GAUSSIAN,
    GRAM_RCOND_MIN,
    MEAN_EPS,
    POISSON,
    GlmFit,
    _irls_solve,
    _weighted_gram,
    family_by_name,
    fit_glm,
    normal_sf2,
    wald_inference,
)
from orthokit.linalg import least_squares
from orthokit.synth import SyntheticSpec, generate

FAMILIES = (GAUSSIAN, BERNOULLI, POISSON)


def rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def draw_problem(family, g, n=120, q=3):
    z = g.standard_normal((n, q))
    beta = g.standard_normal(q) / np.sqrt(q)
    eta = z @ beta
    if family.name == "bernoulli":
        y = (g.random(n) < family.h(eta)).astype(float)
    elif family.name == "poisson":
        y = g.poisson(np.exp(np.clip(eta, -8, 8))).astype(float)
    else:
        y = eta + g.standard_normal(n)
    return z, y


# h'(eta) per family, written out here rather than taken from the family
H_PRIME = {
    "gaussian": np.ones_like,
    "bernoulli": lambda eta: BERNOULLI.h(eta) * (1.0 - BERNOULLI.h(eta)),
    "poisson": np.exp,
}

# the canonical link g = h^-1 per family: identity, logit and log
LINK = {
    "gaussian": lambda mu: np.asarray(mu, dtype=np.float64),
    "bernoulli": lambda mu: np.log(mu) - np.log1p(-mu),
    "poisson": np.log,
}


def newton_oracle(z, y, family, iters=200):
    """Independent Newton on the exact NLL with dense Hessian solves."""
    beta = np.zeros(z.shape[1])
    for _ in range(iters):
        eta = z @ beta
        mu = family.clip_mean(family.h(eta))
        grad = z.T @ (mu - y)
        w = H_PRIME[family.name](eta)
        hess = z.T @ (w[:, None] * z)
        step = np.linalg.solve(hess, grad)
        # crude safeguarding: shrink while the NLL worsens
        nll0 = family.nll(y, mu)
        scale = 1.0
        for _ in range(40):
            cand = beta - scale * step
            nll1 = family.nll(y, family.clip_mean(family.h(z @ cand)))
            if np.isfinite(nll1) and nll1 <= nll0:
                break
            scale *= 0.5
        beta = beta - scale * step
        if np.max(np.abs(grad)) < 1e-12:
            break
    return beta


class TestFisherWeights:
    """The IRLS weight of a canonical link is ``V(mu)`` on clipped means."""

    def test_bernoulli_half(self):
        np.testing.assert_allclose(BERNOULLI.variance(np.array([0.5])), [0.25])

    def test_poisson_unit_mean(self):
        np.testing.assert_allclose(POISSON.variance(np.array([1.0])), [1.0])

    def test_gaussian_constant(self):
        np.testing.assert_allclose(
            GAUSSIAN.variance(np.array([-3.0, 0.0, 7.0])), [1.0, 1.0, 1.0]
        )

    def test_boundary_means_clipped(self):
        # saturated activations would give zero weight and an infinite
        # working response; clip_mean keeps both finite
        for family, eta in ((BERNOULLI, [-800.0, 800.0]), (POISSON, [-800.0])):
            w = family.variance(family.clip_mean(family.h(np.array(eta))))
            assert np.all(w > 0.0) and np.all(np.isfinite(1.0 / w))

    def test_strictly_positive(self):
        for family in FAMILIES:
            z, y = draw_problem(family, rng(1))
            fit = fit_glm(z, y, family)
            np.testing.assert_array_equal(
                fit.weight_diag, family.variance(fit.fitted_means)
            )
            assert np.all(fit.weight_diag > 0.0)


class TestWorkingResponse:
    """The IRLS response is ``eta + (y - mu) / V(mu)``."""

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
    def test_zero_at_fitted_mean(self, family):
        # at convergence a further weighted step leaves beta where it is
        z, y = draw_problem(family, rng(2))
        fit = fit_glm(z, y, family)
        eta = z @ fit.coefficients
        w = fit.weight_diag
        step = _irls_solve(z, w, eta + (y - fit.fitted_means) / w)
        np.testing.assert_allclose(step, fit.coefficients, atol=1e-7)

    def test_gaussian_is_raw_residual(self):
        # with unit weights the first step is least squares, so it is final
        z, y = draw_problem(GAUSSIAN, rng(3))
        fit = fit_glm(z, y, GAUSSIAN)
        assert fit.converged and fit.iterations == 1

    @pytest.mark.parametrize(
        "family, y, first_step",
        [
            # g'(1/2) = 4, so each case contributes 4 (y_i - 1/2)
            (BERNOULLI, [1.0, 1.0, 1.0, 0.0, 0.0], 0.4),
            # g'(1) = 1, so the step is the raw mean residual
            (POISSON, [1.0, 2.0, 3.0, 2.0], 1.0),
        ],
        ids=["bernoulli_half_mean", "poisson_unit_mean"],
    )
    def test_first_step_from_zero(self, family, y, first_step):
        fit = fit_glm(np.ones((len(y), 1)), y, family, max_iter=1)
        np.testing.assert_allclose(fit.coefficients, [first_step], atol=1e-12)


class TestFitGlm:
    def test_gaussian_equals_least_squares(self):
        g = rng(10)
        z = g.standard_normal((40, 3))
        y = g.standard_normal(40)
        fit = fit_glm(z, y, GAUSSIAN)
        np.testing.assert_allclose(
            fit.coefficients, least_squares(z, y), atol=1e-8
        )

    def test_intercept_only_bernoulli_balanced(self):
        fit = fit_glm(np.ones((4, 1)), [0.0, 1.0, 0.0, 1.0], BERNOULLI)
        np.testing.assert_allclose(fit.coefficients, [0.0], atol=1e-10)

    def test_intercept_only_poisson(self):
        fit = fit_glm(np.ones((4, 1)), [1.0, 2.0, 3.0, 2.0], POISSON)
        np.testing.assert_allclose(fit.coefficients, [np.log(2.0)], atol=1e-10)

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
    def test_intercept_only_closed_form(self, family):
        g = rng(11)
        y = draw_problem(family, g, n=60, q=2)[1]
        fit = fit_glm(np.ones((60, 1)), y, family)
        expected = LINK[family.name](np.array([y.mean()]))
        np.testing.assert_allclose(fit.coefficients, expected, atol=1e-10)

    def test_poisson_matches_newton_oracle(self):
        g = rng(12)
        z, y = draw_problem(POISSON, g, n=200, q=3)
        fit = fit_glm(z, y, POISSON)
        np.testing.assert_allclose(
            fit.coefficients, newton_oracle(z, y, POISSON), atol=1e-6
        )

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
    def test_matches_newton_oracle_all_families(self, family):
        for seed in range(5):
            g = rng(100 + seed)
            z, y = draw_problem(family, g)
            fit = fit_glm(z, y, family)
            np.testing.assert_allclose(
                fit.coefficients, newton_oracle(z, y, family), atol=1e-6
            )

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
    def test_score_below_tolerance(self, family):
        g = rng(13)
        z, y = draw_problem(family, g)
        fit = fit_glm(z, y, family, tol=1e-8)
        score = z.T @ (y - fit.fitted_means)
        assert np.max(np.abs(score)) <= 1e-8

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
    def test_deviance_monotone_along_iterations(self, family):
        # for fixed y the deviance is 2 * loss plus a constant, so this
        # checks that the loss does not increase; fit_glm(max_iter=m) stops
        # at the full fit's m-th iterate
        g = rng(14)
        z, y = draw_problem(family, g)
        steps = fit_glm(z, y, family).iterations
        trace = [fit_glm(z, y, family, max_iter=m).loss for m in range(steps + 1)]
        diffs = np.diff(trace)
        assert np.all(diffs <= 1e-8 * (np.abs(trace[:-1]) + 1.0))

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
    def test_loss_is_nll_of_returned_iterate(self, family):
        z, y = draw_problem(family, rng(16))
        fit = fit_glm(z, y, family)
        assert fit.loss == family.nll(y, family.h(z @ fit.coefficients))

    def test_fitted_means_consistent(self):
        g = rng(15)
        z, y = draw_problem(BERNOULLI, g)
        fit = fit_glm(z, y, BERNOULLI)
        np.testing.assert_allclose(
            fit.fitted_means, BERNOULLI.h(z @ fit.coefficients), atol=1e-10
        )

    def test_domain_checks(self):
        z = np.ones((3, 1))
        with pytest.raises(DomainError):
            fit_glm(z, [-0.5, 0.5, 0.5], BERNOULLI)
        with pytest.raises(DomainError):
            fit_glm(z, [-1.0, 2.0, 1.0], POISSON)

    def test_response_length_mismatch(self):
        with pytest.raises(DimensionMismatch, match="design has 3 rows but response has 2"):
            fit_glm(np.ones((3, 1)), [0.0, 1.0], BERNOULLI)

    def test_soft_targets_allowed_for_bernoulli(self):
        g = rng(16)
        z = g.standard_normal((50, 2))
        y = g.uniform(0.1, 0.9, size=50)
        fit = fit_glm(z, y, BERNOULLI)
        assert fit.converged

    def test_did_not_converge_carries_result(self):
        g = rng(17)
        z, y = draw_problem(BERNOULLI, g)
        fit = fit_glm(z, y, BERNOULLI, max_iter=1)
        assert fit.converged is False
        assert isinstance(fit, GlmFit)

    @pytest.mark.parametrize("tol", [-1.0, float("nan"), float("inf")])
    def test_invalid_tol_rejected(self, tol):
        # no score meets a negative or NaN tol, so the fit would run its
        # whole budget; every score meets an infinite one at beta = 0
        z, y = draw_problem(BERNOULLI, rng(17))
        with pytest.raises(InvalidSpec) as exc:
            fit_glm(z, y, BERNOULLI, tol=tol)
        assert str(exc.value) == "tol must be finite and non-negative"

    def test_stop_reason_converged(self):
        z, y = draw_problem(BERNOULLI, rng(19))
        fit = fit_glm(z, y, BERNOULLI)
        assert fit.converged and fit.stop_reason == "converged"

    def test_stop_reason_names_the_iteration_budget(self):
        data = generate(
            SyntheticSpec(n=200, p=5, q=100, rho=2.0, family="bernoulli", seed=0)
        )
        fit = fit_glm(data.z, data.y, BERNOULLI, with_intercept=True, max_iter=3)
        assert fit.converged is False
        assert fit.iterations == 3
        assert fit.stop_reason == "reached max_iter=3"

    def test_stop_reason_names_quasi_separation(self):
        # n = 200 rows against 101 coefficients: the fitted probabilities
        # reach the 1e-10 clamp and no finite MLE exists.  Iterating until
        # the clamped score meets tol takes 34 steps and reads converged.
        data = generate(
            SyntheticSpec(n=200, p=5, q=100, rho=2.0, family="bernoulli", seed=0)
        )
        fit = fit_glm(data.z, data.y, BERNOULLI, with_intercept=True)
        assert fit.converged is False
        assert "quasi-separated" in fit.stop_reason
        assert fit.iterations < 34
        mu = fit.fitted_means
        assert mu.min() == MEAN_EPS or mu.max() == 1.0 - MEAN_EPS

    def test_stop_reason_names_failed_step_halving(self, monkeypatch):
        # a solver that returns the reflected Newton step: from beta = 0 it
        # points uphill, so no halving of it decreases the loss.  With no
        # constraints the Newton loop's step is the IRLS solve itself.
        solve = glm_module._irls_solve
        monkeypatch.setattr(
            glm_module, "_irls_solve", lambda zm, w, resp: -solve(zm, w, resp)
        )
        z, y = draw_problem(BERNOULLI, rng(19))
        fit = fit_glm(z, y, BERNOULLI)
        assert fit.converged is False
        assert fit.iterations == 0
        assert fit.stop_reason == "line search stalled"
        np.testing.assert_array_equal(fit.coefficients, 0.0)

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
    def test_gradient_matches_finite_differences(self, family):
        g = rng(18)
        z, y = draw_problem(family, g, n=60, q=3)

        def nll_at(beta):
            return family.nll(y, family.clip_mean(family.h(z @ beta)))

        for _ in range(10):
            beta = 0.5 * g.standard_normal(3)
            analytic = z.T @ (family.clip_mean(family.h(z @ beta)) - y)
            numeric = np.zeros(3)
            for j in range(3):
                e = np.zeros(3)
                e[j] = 1e-6
                numeric[j] = (nll_at(beta + e) - nll_at(beta - e)) / 2e-6
            denom = np.maximum(np.abs(numeric), 1.0)
            assert np.max(np.abs(analytic - numeric) / denom) <= 1e-4


@pytest.fixture
def qr_calls(monkeypatch):
    """Count the pivoted-QR fallback solves made by ``fit_glm``."""
    calls = []

    def counting(a, b):
        calls.append(a.shape)
        return least_squares(a, b)

    monkeypatch.setattr(glm_module, "least_squares", counting)
    return calls


class TestIrlsStep:
    def test_duplicated_column_named(self, qr_calls):
        g = rng(30)
        z = g.standard_normal((100, 3))
        z = np.column_stack([z, z[:, 1]])
        y = (g.random(100) < 0.5).astype(float)
        with pytest.raises(RankDeficient) as exc:
            fit_glm(z, y, BERNOULLI)
        assert exc.value.col_index == 3
        assert len(qr_calls) == 1

    def test_fewer_rows_than_columns(self, qr_calls):
        # the shape is rejected before any step is factored
        z = rng(31).standard_normal((3, 5))
        with pytest.raises(DimensionMismatch) as exc:
            fit_glm(z, [0.0, 1.0, 1.0], BERNOULLI)
        assert type(exc.value) is DimensionMismatch
        assert str(exc.value) == "need n >= p, got n=3 < p=5"
        assert len(qr_calls) == 0

    def test_no_columns(self):
        with pytest.raises(DimensionMismatch) as exc:
            fit_glm(np.zeros((5, 0)), np.full(5, 0.5), BERNOULLI)
        assert type(exc.value) is DimensionMismatch
        assert str(exc.value) == "need at least one column"

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
    def test_well_conditioned_design_skips_qr(self, family, qr_calls):
        z, y = draw_problem(family, rng(32))
        fit = fit_glm(z, y, family)
        assert fit.converged
        assert qr_calls == []

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
    def test_ill_conditioned_design_takes_qr_fallback(self, family, qr_calls):
        # a column scaled by 2^-20 keeps full rank for pivoted QR (diagonal
        # ratio ~1e-6) but puts cond(Z^T W Z) near 1e12
        z, y = draw_problem(family, rng(33), n=200, q=3)
        z[:, 1] *= 2.0**-20
        sw = np.sqrt(family.variance(family.clip_mean(family.h(np.zeros(200)))))
        a = z * sw[:, None]
        assert 1.0 / np.linalg.cond(a.T @ a, 1) < GRAM_RCOND_MIN
        fit = fit_glm(z, y, family)
        assert fit.converged
        assert len(qr_calls) == fit.iterations
        np.testing.assert_allclose(
            fit.coefficients, newton_oracle(z, y, family), rtol=1e-6, atol=1e-6
        )

    @pytest.mark.parametrize("family", ("bernoulli", "poisson"))
    @pytest.mark.parametrize("q", (10, 100))
    @pytest.mark.parametrize("n", (200, 5000))
    def test_cholesky_step_matches_qr_on_appendix_g_shapes(self, n, q, family):
        fam = family_by_name(family)
        data = generate(SyntheticSpec(n=n, p=5, q=q, rho=2.0, family=family, seed=0))
        zd = augment_intercept(data.z)
        # every iterate the fit visits, up to 30 steps
        beta = np.zeros(zd.shape[1])
        for m in range(1, 31):
            eta = zd @ beta
            mu = fam.clip_mean(fam.h(eta))
            w = fam.variance(mu)
            resp = eta + (data.y - mu) / w
            sw = np.sqrt(w)
            qr_step = least_squares(zd * sw[:, None], resp * sw)
            chol_step = _irls_solve(zd, w, resp)
            err = np.max(np.abs(chol_step - qr_step)) / np.max(np.abs(qr_step))
            assert err <= 1e-10, (m, err)
            fit = fit_glm(data.z, data.y, fam, with_intercept=True, max_iter=m)
            if fit.converged:
                break
            beta = fit.coefficients


@pytest.mark.parametrize("sign", ("positive", "mixed", "negative"))
@pytest.mark.parametrize("n, k", ((300, 12), (5, 8)))
def test_weighted_gram_matches_dense_product(sign, n, k):
    g = rng(40)
    z = g.standard_normal((n, k))
    w = g.uniform(0.1, 2.0, n)
    if sign == "negative":
        w = -w
    elif sign == "mixed":
        w[::3] *= -1.0
    dense = z.T @ (w[:, None] * z)
    err = np.max(np.abs(_weighted_gram(z, w) - dense)) / np.max(np.abs(dense))
    assert err <= 1e-12


class TestWaldInference:
    def test_zero_coefficients_give_unit_pvalues(self):
        z = rng(20).standard_normal((30, 2))
        fit = GlmFit(
            coefficients=np.zeros(2),
            fitted_means=np.full(30, 0.5),
            iterations=1,
            converged=True,
            loss=15.0,
            weight_diag=np.full(30, 0.25),
            family=BERNOULLI,
        )
        rep = wald_inference(fit, z)
        np.testing.assert_allclose(rep.z_stats, 0.0)
        np.testing.assert_allclose(rep.p_values, 1.0)

    def test_gaussian_simple_regression_textbook_se(self):
        g = rng(21)
        x = g.standard_normal(10)
        y = 1.5 * x + g.standard_normal(10)
        z = np.column_stack([np.ones(10), x])
        fit = fit_glm(z, y, GAUSSIAN)
        rep = wald_inference(fit, z)
        # textbook OLS: sigma^2 (Z^T Z)^{-1} with sigma^2 = RSS / (n - 2)
        resid = y - z @ fit.coefficients
        sigma2 = resid @ resid / (10 - 2)
        cov = sigma2 * np.linalg.inv(z.T @ z)
        np.testing.assert_allclose(
            rep.std_errors, np.sqrt(np.diag(cov)), atol=1e-8
        )

    def test_pvalue_monotone_in_z(self):
        p1 = normal_sf2(np.array([1.3]))[0]
        p2 = normal_sf2(np.array([2.6]))[0]
        assert p2 < p1

    def test_singular_information(self):
        col = rng(22).standard_normal(20)
        z = np.column_stack([col, col])
        fit = GlmFit(
            coefficients=np.zeros(2),
            fitted_means=np.full(20, 0.5),
            iterations=1,
            converged=True,
            loss=10.0,
            weight_diag=np.full(20, 0.25),
            family=BERNOULLI,
        )
        with pytest.raises(SingularInformation):
            wald_inference(fit, z)

    def test_design_width_mismatch(self):
        g = rng(23)
        z = g.standard_normal((30, 2))
        fit = fit_glm(z, (g.random(30) < 0.5).astype(float), BERNOULLI)
        with pytest.raises(DimensionMismatch, match="does not match coefficient length"):
            wald_inference(fit, z[:, :1])

    @settings(max_examples=30, deadline=None)
    @given(z=st.floats(-30, 30, allow_nan=False))
    def test_pvalue_definition_and_range(self, z):
        import math

        p = normal_sf2(np.array([z]))[0]
        assert 0.0 <= p <= 1.0
        phi = 0.5 * (1.0 + math.erf(abs(z) / math.sqrt(2.0)))
        assert abs(p - 2.0 * (1.0 - phi)) <= 1e-12


class TestFamilies:
    def test_lookup(self):
        assert family_by_name("poisson") is POISSON
        with pytest.raises(DomainError):
            family_by_name("binomial")

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
    def test_activation_at_zero(self, family):
        expected = {"gaussian": 0.0, "bernoulli": 0.5, "poisson": 1.0}
        assert family.h0 == pytest.approx(expected[family.name])


def masked_sigmoid(eta):
    """The two-branch logistic function ``_sigmoid`` replaced: exp(-eta)
    on the non-negative entries, exp(eta) on the others."""
    out = np.empty_like(eta)
    pos = eta >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
    e = np.exp(eta[~pos])
    out[~pos] = e / (1.0 + e)
    return out


class TestSigmoid:
    def test_bitwise_equal_to_masked_formula(self):
        g = rng(50)
        eta = np.concatenate([
            [0.0, -0.0, 745.0, -745.0, 800.0, -800.0, 1e-300, -1e-300,
             36.7, -36.7, 709.8, -709.8],
            g.standard_normal(5000) * 10.0,
            g.uniform(-800.0, 800.0, 5000),
        ])
        # exp(-|eta|) <= 1 never overflows (it may underflow to 0)
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            got = BERNOULLI.h(eta)
        np.testing.assert_array_equal(got, masked_sigmoid(eta))
        assert np.all((got >= 0.0) & (got <= 1.0))


    def test_special_values_bitwise_equal_to_two_branch_formula(self):
        eta = np.array([0.0, -0.0, 1e-300, -1e-300, 37.0, -37.0, 745.0, -745.0,
                        np.inf, -np.inf, np.nan])
        e = np.exp(-np.abs(eta))
        two_branch = np.where(eta >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
        got = BERNOULLI.h(eta)
        assert got.tobytes() == two_branch.tobytes()
        assert got[8] == 1.0 and got[9] == 0.0 and np.isnan(got[10])


def _unblocked_gram(z, w):
    """The weighted Gram as one pair of products: the rows scaled by
    ``sqrt(max(w, 0))``, minus the negative rows scaled by ``sqrt(-w)``."""
    a = z * np.sqrt(np.maximum(w, 0.0))[:, None]
    neg = np.flatnonzero(w < 0.0)
    b = z[neg] * np.sqrt(-w[neg])[:, None]
    gram = a.T @ a
    gram -= b.T @ b
    return gram


def test_weighted_gram_holds_one_scaled_copy():
    """With about half the weights negative, ``_weighted_gram`` is bitwise
    the row-order sum over blocks of ``GRAM_BLOCK_BYTES`` of each block's
    positive product less its negative one, and holds one scaled block at
    a time.  A design of one block gives bitwise the unblocked product; a
    larger one lies within a float64 reordering bound of it, fixed from the
    dtype: each entry of both is a sum of the same n products, so the two
    differ by at most ``4 n eps`` times the entry of ``|Z|^T |W| |Z|``."""
    g = rng(41)
    n, k = 20_000, 50
    z = g.standard_normal((n, k))
    w = g.uniform(0.1, 2.0, n) * np.where(g.random(n) < 0.5, -1.0, 1.0)
    rows = glm_module.GRAM_BLOCK_BYTES // (8 * k)
    assert 1 < rows < n
    blockwise = np.zeros((k, k))
    for start in range(0, n, rows):
        zb, wb = z[start : start + rows], w[start : start + rows]
        a = zb * np.sqrt(np.maximum(wb, 0.0))[:, None]
        blockwise += a.T @ a
        neg = np.flatnonzero(wb < 0.0)
        b = zb[neg] * np.sqrt(-wb[neg])[:, None]
        blockwise -= b.T @ b
    del a, b
    unblocked = _unblocked_gram(z, w)
    reorder = 4 * n * np.finfo(np.float64).eps * (np.abs(z).T @ (np.abs(w)[:, None] * np.abs(z)))
    one_block = _unblocked_gram(z[:rows], w[:rows])
    tracemalloc.start()
    try:
        gram = _weighted_gram(z, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert gram.tobytes() == blockwise.tobytes()
    assert np.all(np.abs(gram - unblocked) <= reorder)
    assert _weighted_gram(z[:rows], w[:rows]).tobytes() == one_block.tobytes()
    # one scaled block and numpy's ufunc buffer for the broadcast scaling;
    # the rest is block-length work (the clipped weights and their square
    # roots, the sign mask, the negative rows' indices and weights) and two
    # k-by-k arrays: the sum and one block's product
    bound = glm_module.GRAM_BLOCK_BYTES + np.getbufsize() * 8 + 6 * rows * 8 + 2 * k * k * 8
    assert peak < bound, (peak, bound)
    assert bound < 2 * glm_module.GRAM_BLOCK_BYTES < z.nbytes / 10
