"""Evaluation-model tests.

The GLM evaluator is checked against direct OLS and a self-consistency
recovery; the tensor evaluator against the explicit Kronecker least-squares
oracle.  For the ReLU + L2 evaluator the tests pin the measured geometry:
projection-corrected predictions still admit rectified explanations better
than the zero coefficient, so the objective is judged against the objective
at zero rather than against an assumed null optimum.  A ``converged``
result carries the Gauss-Newton certificate: no row on a kink, and the
least-squares fit of the rows it activates.
"""

import numpy as np
import pytest

import orthokit.evalmodel as evalmodel_module
from orthokit.correct import (
    augment_intercept,
    correct_features_linear,
    correct_features_relu,
    fit_constrained_glm,
)
from orthokit.errors import DimensionMismatch, InvalidSpec, SingularInformation
from orthokit.evalmodel import evaluate_glm, evaluate_relu_l2, evaluate_tensor
from orthokit.glm import ALPHA, BERNOULLI, GAUSSIAN, EvaluationReport, fit_glm
from orthokit.synth import SyntheticSpec, generate

from helpers import relu


def rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


class TestEvaluateGlm:
    def test_constant_predictions_are_null(self):
        g = rng(1)
        x = g.standard_normal((60, 3))
        rep = evaluate_glm(x, np.full(60, 0.5), BERNOULLI)
        np.testing.assert_allclose(rep.coefficients, 0.0, atol=1e-9)
        np.testing.assert_allclose(rep.p_values, 1.0, atol=1e-9)
        assert rep.null_certified

    def test_recovers_generating_coefficients(self):
        g = rng(2)
        n = 2000
        x = g.standard_normal((n, 3))
        beta = np.array([0.8, -0.5, 0.0])
        y_hat = BERNOULLI.h(x @ beta)
        rep = evaluate_glm(x, y_hat, BERNOULLI)
        for j in range(3):
            assert abs(rep.coefficients[j] - beta[j]) <= 3 * rep.std_errors[j]
        assert rep.p_values[0] < 0.01 and rep.p_values[1] < 0.01
        assert not rep.null_certified

    def test_gaussian_agrees_with_direct_ols(self):
        g = rng(3)
        x = g.standard_normal((80, 2))
        y = g.standard_normal(80)
        rep = evaluate_glm(x, y, GAUSSIAN)
        xd = np.column_stack([np.ones(80), x])
        beta = np.linalg.inv(xd.T @ xd) @ xd.T @ y
        np.testing.assert_allclose(rep.coefficients, beta[1:], atol=1e-8)

    def test_constrained_fit_is_null_certified(self):
        data = generate(
            SyntheticSpec(n=1000, p=5, q=10, rho=2.0, family="bernoulli", seed=7)
        )
        out = fit_constrained_glm(data.z, data.y, data.x, BERNOULLI)
        rep = evaluate_glm(data.x, out.corrected_predictions, BERNOULLI)
        assert rep.null_certified

    def test_p_value_at_alpha_is_not_significant(self):
        # evaluate's PASS is p >= ALPHA, so p = ALPHA certifies as well
        rep = EvaluationReport(coefficients=np.zeros(1), std_errors=np.ones(1),
                               z_stats=np.zeros(1), p_values=np.array([ALPHA]),
                               converged=True)
        assert rep.null_certified

    def test_accepts_out_of_range_soft_targets(self):
        g = rng(4)
        x = g.standard_normal((100, 2))
        y_hat = g.standard_normal(100) * 0.3 + 0.5  # leaves (0, 1)
        rep = evaluate_glm(x, y_hat, BERNOULLI)
        assert rep.p_values.shape == (2,)

    @pytest.mark.parametrize("response", [
        lambda t: 1.0 + 2.0 * t,
        np.zeros_like,
        lambda t: np.full_like(t, 3.0),
        lambda t: np.full_like(t, 0.5),
    ], ids=["affine", "zero", "three", "half"])
    def test_gaussian_exactly_affine_response_raises(self, response):
        # its residual variance is rounding noise, and so would be its z values
        t = np.arange(40.0)
        with pytest.raises(SingularInformation, match="exact affine function of the design"):
            evaluate_glm(t[:, None], response(t), GAUSSIAN)

    def test_gaussian_noise_above_rounding_is_tested(self):
        t = np.arange(40.0)
        noise = rng(5).standard_normal(40)
        assert evaluate_glm(t[:, None], 3.0 + 1e-8 * noise, GAUSSIAN).p_values[0] >= ALPHA
        assert evaluate_glm(t[:, None], 1.0 + 2.0 * t + 1e-9 * noise,
                            GAUSSIAN).p_values[0] < ALPHA


class TestEvaluateReluL2:
    def test_zero_predictions(self):
        g = rng(10)
        x = g.standard_normal((40, 2))
        res = evaluate_relu_l2(x, np.zeros(40))
        assert res.objective <= 1e-12
        assert res.relu_norm <= 1e-6

    def test_corrected_pipeline_geometry(self):
        # Projected features keep the raw inner products at zero, yet the
        # rectified fit still explains part of the corrected predictions:
        # the best objective is strictly below the objective at beta = 0 and
        # the fitted rectified component is far from zero.  (Measured on
        # this seeded instance; the zero coefficient is NOT a global
        # minimizer of the rectified evaluation.)
        g = rng(11)
        x = g.standard_normal((100, 2))
        zc = correct_features_relu(x, g.standard_normal((100, 5)))
        yc = relu(zc @ g.standard_normal(5))
        res = evaluate_relu_l2(x, yc, seed=1)
        assert res.objective < res.objective_at_zero - 1e-6
        assert res.relu_norm > 1e-2

    def test_uncorrected_control_is_strongly_explainable(self):
        g = rng(12)
        x = g.standard_normal((100, 2))
        z = np.column_stack(
            [2.0 * x + g.standard_normal((100, 2)), g.standard_normal((100, 3))]
        )
        yu = relu(z @ g.standard_normal(5))
        res = evaluate_relu_l2(x, yu, seed=1)
        assert res.relu_norm > 0.1
        assert res.objective < 0.5 * res.objective_at_zero

    def test_correction_shrinks_rectified_explainability(self):
        g = rng(13)
        x = g.standard_normal((150, 2))
        z = np.column_stack(
            [2.0 * x + g.standard_normal((150, 2)), g.standard_normal((150, 3))]
        )
        gamma = g.standard_normal(5)
        res_raw = evaluate_relu_l2(x, relu(z @ gamma), seed=2)
        zc = correct_features_relu(x, z)
        res_cor = evaluate_relu_l2(x, relu(zc @ gamma), seed=2)
        raw_gain = 1.0 - res_raw.objective / res_raw.objective_at_zero
        cor_gain = 1.0 - res_cor.objective / res_cor.objective_at_zero
        assert cor_gain < raw_gain

    def test_multistart_best_not_beaten_by_random_probes(self):
        g = rng(14)
        x = g.standard_normal((60, 2))
        yc = relu(
            correct_features_relu(x, g.standard_normal((60, 4)))
            @ g.standard_normal(4)
        )
        res = evaluate_relu_l2(x, yc, seed=3)
        for _ in range(100):
            beta = 0.5 * g.standard_normal(2)
            probe = float(np.sum((yc - relu(x @ beta)) ** 2)) / 60
            assert probe >= res.objective - 1e-9

    def test_deterministic_given_seed(self):
        g = rng(15)
        x = g.standard_normal((50, 2))
        yc = g.standard_normal(50)
        a = evaluate_relu_l2(x, yc, seed=9)
        b = evaluate_relu_l2(x, yc, seed=9)
        np.testing.assert_array_equal(a.beta, b.beta)
        assert a.start_index == b.start_index

    def test_iteration_budget_reported_as_not_converged(self, monkeypatch):
        # with seed 1 no start is certified by its first step, so the
        # winning start runs out of a one-step budget
        g = rng(16)
        x = g.standard_normal((50, 2))
        yc = relu(x @ np.array([1.0, -0.5])) + 0.1 * g.standard_normal(50)
        monkeypatch.setattr(evalmodel_module, "RELU_MAX_ITER", 1)
        res = evaluate_relu_l2(x, yc, seed=1)
        assert res.converged is False
        assert res.iterations == evalmodel_module.RELU_MAX_ITER
        assert res.stop_reason == "reached max_iter=1"

    @pytest.mark.parametrize("case", range(12))
    def test_certified_result_solves_its_active_set(self, case):
        # certified: no row on a kink, and beta is the least-squares fit of
        # the rows it activates
        g = rng(100 + case)
        n, p = (40, 2) if case < 6 else (300, 4)
        x = g.standard_normal((n, p))
        z = g.standard_normal((n, 5))
        z[:, :p] += 2.0 * x
        feats = correct_features_relu(x, z) if case % 2 else z
        y = relu(feats @ g.standard_normal(5)) + 0.1 * (case % 3) * g.standard_normal(n)
        res = evaluate_relu_l2(x, y, starts=8, seed=case)
        assert res.converged is (res.stop_reason == "certified")
        assert res.converged, res.stop_reason
        eta = x @ res.beta
        assert np.all(eta != 0.0)
        act = eta > 0.0
        scale = np.linalg.norm(x) * np.linalg.norm(y)
        grad = x[act].T @ (y[act] - x[act] @ res.beta)
        assert np.max(np.abs(grad), initial=0.0) <= 1e-10 * scale

    def test_start_inside_dead_region_is_certified_flat(self):
        # every row of x is negative along the first start, so its active
        # set is empty: the objective is flat there and the start stays put
        g = rng(17)
        start = 0.1 * np.random.Generator(np.random.Philox(key=(5 << 16))).standard_normal(2)
        x = -np.abs(g.standard_normal((30, 2))) * np.sign(start)
        y = relu(g.standard_normal(30))
        res = evaluate_relu_l2(x, y, starts=1, seed=5)
        assert (res.converged, res.stop_reason, res.iterations) == (True, "certified", 0)
        np.testing.assert_array_equal(res.beta, start)
        assert res.objective == res.objective_at_zero

    def test_all_zero_rows_are_no_kink(self):
        # x_i beta is 0 for every beta on a zero row, so such rows cannot
        # keep a start from its certificate
        g = rng(19)
        x = g.standard_normal((200, 2))
        y = relu(x @ np.array([1.0, -0.5])) + 0.1 * g.standard_normal(200)
        assert evaluate_relu_l2(x, y).stop_reason == "certified"
        x[:20] = 0.0
        res = evaluate_relu_l2(x, y)
        assert (res.converged, res.stop_reason) == (True, "certified")
        assert np.all((x @ res.beta)[20:] != 0.0)

    def test_all_zero_design_is_certified_at_once(self):
        y = relu(rng(20).standard_normal(30))
        res = evaluate_relu_l2(np.zeros((30, 2)), y, starts=3)
        assert (res.converged, res.stop_reason, res.iterations) == (True, "certified", 0)
        assert res.objective == res.objective_at_zero

    def test_criterion4_winners_are_certified(self):
        # the first 20 instances of acceptance criterion 4, in its draw order
        g = np.random.Generator(np.random.Philox(key=2004))
        for i in range(20):
            x = g.standard_normal((50, 2))
            z = g.standard_normal((50, 5))
            z[:, :2] += 2.0 * x
            zc = correct_features_relu(x, z)
            gamma = g.standard_normal(5)
            g.standard_normal(2)  # the criterion's beta, unused here
            for y in (relu(z @ gamma), relu(zc @ gamma)):
                res = evaluate_relu_l2(x, y, starts=8, seed=i)
                assert res.converged, (i, res.stop_reason)

    @pytest.mark.parametrize("kwargs, name", [({"starts": 0}, "starts"),
                                              ({"seed": -1}, "seed")])
    def test_rejects_bad_starts_and_seed(self, kwargs, name):
        x = rng(18).standard_normal((20, 2))
        with pytest.raises(InvalidSpec, match=name):
            evaluate_relu_l2(x, np.ones(20), **kwargs)


class TestEvaluateTensor:
    def test_corrected_tensor_is_null(self):
        g = rng(20)
        x = g.standard_normal((4, 2))
        t = g.standard_normal((4, 2, 3))
        res = evaluate_tensor(x, correct_features_linear(x, t))
        assert res.frobenius <= 1e-8

    def test_exact_recovery_of_span_tensor(self):
        g = rng(21)
        x = g.standard_normal((10, 2))
        b = g.standard_normal((2, 3, 2))
        t = (x @ b.reshape(2, -1)).reshape(10, 3, 2)
        res = evaluate_tensor(x, t)
        np.testing.assert_allclose(res.coefficients, b, atol=1e-8)

    def test_zero_tensor(self):
        x = rng(22).standard_normal((5, 1))
        res = evaluate_tensor(x, np.zeros((5, 2, 2)))
        assert res.frobenius == 0.0
        np.testing.assert_array_equal(res.coefficients, 0.0)

    @pytest.mark.parametrize("shape,p", [((4, 2, 2), 1), ((8, 2, 2), 2), ((4, 3), 2)])
    def test_agrees_with_kronecker_oracle(self, shape, p):
        g = rng(hash((shape, p)) % (2**32))
        n = shape[0]
        d = int(np.prod(shape[1:]))
        assert n * d <= 64
        x = g.standard_normal((n, p))
        t = g.standard_normal(shape)
        res = evaluate_tensor(x, t)
        big = np.kron(np.eye(d), x)
        coef = np.linalg.lstsq(big, t.reshape(n, d).flatten(order="F"), rcond=None)[0]
        oracle = coef.reshape((d, p)).T.reshape((p,) + shape[1:])
        np.testing.assert_allclose(res.coefficients, oracle, atol=1e-10)


@pytest.mark.parametrize("evaluate, y", [
    (lambda x, y: evaluate_glm(x, y, BERNOULLI), np.full(19, 0.5)),
    (evaluate_relu_l2, np.ones(19)),
    (evaluate_tensor, np.ones((19, 2, 2))),
], ids=["glm", "relu_l2", "tensor"])
def test_row_mismatch_raises(evaluate, y):
    x = rng(23).standard_normal((20, 2))
    with pytest.raises(DimensionMismatch, match="differ"):
        evaluate(x, y)


class TestGaussianRouteConsistency:
    def test_projection_pipeline_evaluates_to_zero(self):
        g = rng(30)
        x = g.standard_normal((300, 4))
        z = np.column_stack(
            [
                x @ g.standard_normal((4, 3)) + g.standard_normal((300, 3)),
                g.standard_normal((300, 5)),
            ]
        )
        y = z @ g.standard_normal(8) + g.standard_normal(300)
        zc = correct_features_linear(augment_intercept(x), z)
        fit = fit_glm(zc, y, GAUSSIAN, with_intercept=True)
        rep = evaluate_glm(x, fit.fitted_means, GAUSSIAN)
        assert np.max(np.abs(rep.coefficients)) <= 1e-9
        assert np.min(rep.p_values) >= 0.999
