"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see them
live) carrying the measured values behind its assertions.  Criteria 2 and 4
check the limits of plain orthogonalization in the form the mathematics
allows: feature projection leaks protected influence through a sigmoid on a
heteroscedastic (non-gaussian) design while the constrained fit does not,
and for ReLU the rectified cross-terms of orthogonal vectors balance rather
than vanish, so correction reduces rectified explainability without nulling
it.
"""

import time

import numpy as np
import pytest

from orthokit.correct import (
    augment_intercept,
    correct_features_linear,
    correct_features_relu,
    fit_constrained_glm,
)
from orthokit.evalmodel import evaluate_glm, evaluate_relu_l2, evaluate_tensor
from orthokit.glm import BERNOULLI, GAUSSIAN, POISSON, fit_glm
from orthokit.linalg import build_projector
from orthokit.online import MlpConfig, accuracy_by_split, make_confounded_data, train_mlp
from orthokit.synth import SyntheticSpec, generate, simulation_study, stream

from helpers import gradients, relu, relu_dot_terms


def announce(criterion: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {criterion}: {status} ({detail})")


def elapsed_guard(t0: float, budget: float, criterion: str) -> float:
    dt = time.monotonic() - t0
    assert dt < budget, f"criterion {criterion} exceeded {budget}s (took {dt:.1f}s)"
    return dt


class TestCriterion1LinearNullCoefficients:
    def test_gaussian_projection_pipeline(self):
        t0 = time.monotonic()
        data = generate(
            SyntheticSpec(n=1000, p=5, q=10, rho=2.0, family="gaussian", seed=2001)
        )
        zc = correct_features_linear(augment_intercept(data.x), data.z)
        fit = fit_glm(zc, data.y, GAUSSIAN, with_intercept=True)
        rep = evaluate_glm(data.x, fit.fitted_means, GAUSSIAN)
        max_coef = float(np.max(np.abs(rep.coefficients)))
        min_p = float(np.min(rep.p_values))
        dt = elapsed_guard(t0, 1.0, "1")
        ok = max_coef <= 1e-9 and min_p >= 0.999
        announce("1", ok, f"max|beta|={max_coef:.2e}, min p={min_p:.4f}, {dt:.2f}s")
        assert max_coef <= 1e-9
        assert min_p >= 0.999


class TestCriterion2PostActivationFailureWitness:
    def test_projection_correction_fails_after_sigmoid(self):
        # Refitting a logistic model on complement-projected features leaves
        # the linear predictor orthogonal to [1, X], but not the activated
        # predictions.  The witness needs a non-gaussian design: on the
        # jointly gaussian ``generate`` design the projection residuals are
        # asymptotically independent of X, so no influence survives to be
        # detected.  Here a binary protected feature shifts the mean of the
        # first feature (which projection removes) and scales the spread of
        # every feature (which it does not); through the sigmoid that spread
        # moves the mean predicted probability of each group.
        t0 = time.monotonic()
        n, q = 1000, 10
        g = stream(2002)
        x = (g.random(n) < 0.5).astype(np.float64)[:, None]
        z = g.standard_normal((n, q)) * (1.0 + 3.0 * x)
        z[:, 0] += 2.0 * x[:, 0]
        gamma = g.standard_normal(q) / np.sqrt(q)
        y = (g.random(n) < BERNOULLI.h(-2.0 + z @ gamma)).astype(np.float64)

        zc = correct_features_linear(augment_intercept(x), z)
        fit = fit_glm(zc, y, BERNOULLI, with_intercept=True)
        rep = evaluate_glm(x, fit.fitted_means, BERNOULLI)
        min_p = float(np.min(rep.p_values))
        # control: the constrained fit on the same data certifies as null,
        # so the witness is specific to projection, not to the evaluator
        out = fit_constrained_glm(z, y, x, BERNOULLI)
        rep_c = evaluate_glm(x, out.corrected_predictions, BERNOULLI)
        dt = elapsed_guard(t0, 5.0, "2")
        ok = min_p < 0.01 and rep_c.null_certified
        announce(
            "2", ok,
            f"projection min p={min_p:.2e} (needs < 0.01), constrained "
            f"min p={float(np.min(rep_c.p_values)):.3f} "
            f"certified={rep_c.null_certified}, {dt:.2f}s",
        )
        assert min_p < 0.01, (
            "projected-feature logistic predictions carry no detectable "
            f"protected-feature influence (min p = {min_p:.4f})"
        )
        assert rep_c.null_certified


class TestCriterion3ConstrainedGlmGrid:
    def test_full_grid(self):
        t0 = time.monotonic()
        grid = [
            SyntheticSpec(n=n, p=p, q=q, rho=2.0, family=family, seed=2003)
            for family in ("bernoulli", "poisson")
            for p in (5, 10)
            for q in (10, 100)
            for n in (200, 1000, 5000)
        ]
        table = simulation_study(grid, replicates=10)
        ch = [r for r in table.rows if r["method"] == "ch" and not r.get("error")]
        errors = [r for r in table.rows if r["method"] == "ch" and r.get("error")]
        estimates = np.array([abs(r["estimate"]) for r in ch])
        pvals = np.array([r["p_value"] for r in ch])
        residuals = {}
        for r in ch:
            key = (r["family"], r["n"], r["p"], r["q"], r["replicate"])
            residuals[key] = r["constraint_residual"]
        total_runs = len(grid) * 10
        feasible = sum(1 for v in residuals.values() if v is not None and v <= 1e-6)
        feasible_frac = feasible / total_runs
        med_est = float(np.median(estimates))
        med_p = float(np.median(pvals))
        dt = elapsed_guard(t0, 600.0, "3")
        ok = med_est <= 1e-2 and med_p >= 0.9 and feasible_frac >= 0.95
        announce(
            "3",
            ok,
            f"median|beta|={med_est:.2e}, median p={med_p:.3f}, "
            f"feasible {feasible}/{total_runs} ({feasible_frac:.1%}), "
            f"{len(errors)} error rows, {dt:.0f}s",
        )
        assert med_est <= 1e-2
        assert med_p >= 0.9
        assert feasible_frac >= 0.95


class TestCriterion4ReluTheorem:
    def test_relu_cross_term_claims(self):
        # Over 200 seeded instances, with a = Zc gamma orthogonal to b = X beta:
        #   (a) x = h(x) - h(-x) for h = relu gives a.b = t0 - t1 - t2 + t3,
        #       while the all-positive sum t0 + t1 + t2 + t3 is |a|.|b|;
        #   (b) a.b = 0 balances the rectified cross-terms,
        #       t0 + t3 = t1 + t2; the mixed term t0 itself stays positive;
        #   (c) correction reduces rectified explainability.  It cannot null
        #       it: at beta = 0 the derivative of the rectified objective
        #       along d is -2 relu(a).relu(X d) / n = -2 t0 / n < 0, so zero
        #       is never the minimizer.  On the first 20 instances the median
        #       explained share 1 - objective / objective_at_zero must drop
        #       from relu(Z gamma) to relu(Zc gamma).  Z is confounded with X;
        #       Zc does not depend on the confounding.
        t0 = time.monotonic()
        g = np.random.Generator(np.random.Philox(key=2004))
        worst_sum_gap = 0.0
        worst_alt_gap = 0.0
        worst_balance_gap = 0.0
        min_mixed = np.inf
        worst_relu_norm = 0.0
        share_raw = []
        share_cor = []
        for i in range(200):
            n, p, q = 50, 2, 5
            x = g.standard_normal((n, p))
            z = g.standard_normal((n, q))
            z[:, :p] += 2.0 * x
            zc = correct_features_relu(x, z)
            gamma = g.standard_normal(q)
            beta = g.standard_normal(p)
            a = zc @ gamma
            b = x @ beta
            t0_, t1_, t2_, t3_ = relu_dot_terms(a, b)
            abs_ab = float(np.abs(a) @ np.abs(b))
            worst_sum_gap = max(
                worst_sum_gap, abs((t0_ + t1_ + t2_ + t3_) - abs_ab) / max(1.0, abs_ab)
            )
            worst_alt_gap = max(
                worst_alt_gap,
                abs((t0_ - t1_ - t2_ + t3_) - a @ b) / max(1.0, abs(a @ b)),
            )
            worst_balance_gap = max(
                worst_balance_gap,
                abs((t0_ + t3_) - (t1_ + t2_)) / max(1.0, t0_ + t3_),
            )
            min_mixed = min(min_mixed, t0_)
            if i < 20:  # the optimizer is the slow part
                res_raw = evaluate_relu_l2(x, relu(z @ gamma), starts=8, seed=i)
                res = evaluate_relu_l2(x, relu(a), starts=8, seed=i)
                share_raw.append(1.0 - res_raw.objective / res_raw.objective_at_zero)
                share_cor.append(1.0 - res.objective / res.objective_at_zero)
                worst_relu_norm = max(worst_relu_norm, res.relu_norm)
        med_raw = float(np.median(share_raw))
        med_cor = float(np.median(share_cor))
        dt = elapsed_guard(t0, 30.0, "4")
        ok = (
            worst_alt_gap <= 1e-10
            and worst_sum_gap <= 1e-10
            and worst_balance_gap <= 1e-10
            and med_cor < med_raw
        )
        announce(
            "4",
            ok,
            f"alternating gap={worst_alt_gap:.1e}, |a|.|b| gap="
            f"{worst_sum_gap:.1e}, balance gap={worst_balance_gap:.1e}, "
            f"mixed term t0>={min_mixed:.3g}, median explained share "
            f"{med_raw:.3f} -> {med_cor:.3f}, relu_norm={worst_relu_norm:.3g}, "
            f"{dt:.1f}s",
        )
        assert worst_alt_gap <= 1e-10
        assert worst_sum_gap <= 1e-10
        assert worst_balance_gap <= 1e-10
        assert med_cor < med_raw, (
            "correction did not reduce the median rectified explained share "
            f"({med_raw:.3f} -> {med_cor:.3f})"
        )


class TestCriterion5TensorCorollaries:
    def test_tensor_corrections_and_oracle(self):
        t0 = time.monotonic()
        g = np.random.Generator(np.random.Philox(key=2005))
        shapes = [(4, 2, 2), (8, 2, 2), (4, 4), (6, 2, 3), (4, 2, 2, 2)]
        worst_frob = 0.0
        worst_oracle = 0.0
        count = 0
        while count < 50:
            shape = shapes[count % len(shapes)]
            n = shape[0]
            d = int(np.prod(shape[1:]))
            assert n * d <= 64
            p = 1 + count % 2
            x = g.standard_normal((n, p))
            t = g.standard_normal(shape)
            tc = correct_features_linear(x, t)
            res = evaluate_tensor(x, tc)
            worst_frob = max(worst_frob, res.frobenius)
            big = np.kron(np.eye(d), np.eye(n) - x @ np.linalg.inv(x.T @ x) @ x.T)
            oracle = (big @ t.reshape(n, d).flatten(order="F")).reshape((d, n)).T
            worst_oracle = max(
                worst_oracle, float(np.max(np.abs(tc.reshape(n, d) - oracle)))
            )
            count += 1
        dt = elapsed_guard(t0, 10.0, "5")
        ok = worst_frob <= 1e-8 and worst_oracle <= 1e-10
        announce(
            "5", ok,
            f"max frobenius={worst_frob:.2e}, kronecker gap={worst_oracle:.2e}, "
            f"{dt:.1f}s",
        )
        assert worst_frob <= 1e-8
        assert worst_oracle <= 1e-10


class TestCriterion6GlmEngine:
    def test_irls_against_newton_oracle(self):
        from test_glm import LINK, draw_problem, newton_oracle

        t0 = time.monotonic()
        worst_coef = 0.0
        for family in (GAUSSIAN, BERNOULLI, POISSON):
            for seed in range(20):
                g = np.random.Generator(np.random.Philox(key=2006 + seed))
                z, y = draw_problem(family, g, n=150, q=3)
                fit = fit_glm(z, y, family)
                oracle = newton_oracle(z, y, family)
                worst_coef = max(
                    worst_coef, float(np.max(np.abs(fit.coefficients - oracle)))
                )
        # analytic gradient vs central differences
        worst_grad = 0.0
        for family in (GAUSSIAN, BERNOULLI, POISSON):
            g = np.random.Generator(np.random.Philox(key=2600))
            z, y = draw_problem(family, g, n=80, q=3)

            def nll_at(beta):
                return family.nll(y, family.clip_mean(family.h(z @ beta)))

            for _ in range(10):
                beta = 0.5 * g.standard_normal(3)
                analytic = z.T @ (family.clip_mean(family.h(z @ beta)) - y)
                for j in range(3):
                    e = np.zeros(3)
                    e[j] = 1e-6
                    numeric = (nll_at(beta + e) - nll_at(beta - e)) / 2e-6
                    rel = abs(analytic[j] - numeric) / max(abs(numeric), 1.0)
                    worst_grad = max(worst_grad, rel)
        # intercept-only closed form
        worst_icept = 0.0
        for family in (GAUSSIAN, BERNOULLI, POISSON):
            g = np.random.Generator(np.random.Philox(key=2601))
            y = draw_problem(family, g, n=100, q=2)[1]
            fit = fit_glm(np.ones((100, 1)), y, family)
            expected = LINK[family.name](np.array([y.mean()]))[0]
            worst_icept = max(worst_icept, abs(fit.coefficients[0] - expected))
        dt = elapsed_guard(t0, 30.0, "6")
        ok = worst_coef <= 1e-6 and worst_grad <= 1e-4 and worst_icept <= 1e-10
        announce(
            "6", ok,
            f"coef gap={worst_coef:.2e}, grad rel={worst_grad:.2e}, "
            f"intercept gap={worst_icept:.2e}, {dt:.1f}s",
        )
        assert worst_coef <= 1e-6
        assert worst_grad <= 1e-4
        assert worst_icept <= 1e-10


class TestCriterion7OnlineDemo:
    def test_confounded_training_demo(self):
        t0 = time.monotonic()
        data = make_confounded_data(2000, 2000, seed=0)
        cfg = MlpConfig(seed=1)
        res_u = train_mlp(data, cfg, with_correction=False)
        res_c = train_mlp(data, cfg, with_correction=True)
        acc_u = accuracy_by_split(res_u)["test"]
        acc_c = accuracy_by_split(res_c)["test"]
        x_te, prot_te, _ = data.rows(data.test_mask)
        p_corrected = float(res_c.confounder_report(x_te, prot_te).p_values[0])

        # backprop gradient check on a 10-sample batch, both variants
        from orthokit.online import bce_loss, forward, init_params

        x, prot, y = data.rows(data.train_mask)
        xb, pb, yb = x[:10], prot[:10], y[:10]
        params = init_params((x.shape[1], 6, 4, 1), stream(7, 0))
        worst = 0.0
        for prot_b in (None, pb if np.ptp(pb[:, 0]) > 0 else None):
            complement = None
            if prot_b is not None:
                complement = build_projector(augment_intercept(prot_b)).complement
            inputs = []
            prob = forward(params, xb, complement, 0, inputs)
            grads_w, _ = gradients(params, inputs, prob, yb, complement, 0)
            for layer, grad in enumerate(grads_w):
                w = params["weights"][layer]
                idx = (0, 0)
                h = 1e-6
                w[idx] += h
                lp = bce_loss(forward(params, xb, complement, 0), yb)
                w[idx] -= 2 * h
                lm = bce_loss(forward(params, xb, complement, 0), yb)
                w[idx] += h
                numeric = (lp - lm) / (2 * h)
                worst = max(
                    worst,
                    abs(numeric - grad[idx]) / max(abs(numeric), abs(grad[idx]), 1e-8),
                )
        dt = elapsed_guard(t0, 120.0, "7")
        ok = (
            acc_u <= 0.65
            and acc_c >= acc_u + 0.10
            and p_corrected > 0.05
            and worst <= 1e-4
        )
        announce(
            "7", ok,
            f"test acc uncorrected={acc_u:.3f}, corrected={acc_c:.3f}, "
            f"confounder p={p_corrected:.3f}, grad rel={worst:.1e}, {dt:.0f}s",
        )
        assert acc_u <= 0.65
        assert acc_c >= acc_u + 0.10
        assert p_corrected > 0.05
        assert worst <= 1e-4


class TestCriterion8PerformanceTradeOff:
    def test_constrained_accuracy_within_five_points(self):
        t0 = time.monotonic()
        data = generate(
            SyntheticSpec(n=2000, p=5, q=100, rho=2.0, family="bernoulli", seed=80)
        )
        unconstrained = fit_glm(data.z, data.y, BERNOULLI, with_intercept=True)
        out = fit_constrained_glm(data.z, data.y, data.x, BERNOULLI)
        acc_u = float(np.mean((unconstrained.fitted_means > 0.5) == (data.y > 0.5)))
        acc_c = float(
            np.mean((out.corrected_predictions > 0.5) == (data.y > 0.5))
        )
        dt = time.monotonic() - t0
        ok = acc_c >= acc_u - 0.05
        announce(
            "8", ok,
            f"train acc unconstrained={acc_u:.4f}, constrained={acc_c:.4f}, "
            f"drop={acc_u - acc_c:+.4f}, {dt:.0f}s",
        )
        assert acc_c >= acc_u - 0.05


class TestCriterion9UserDataRoute:
    def test_cli_round_trip_on_user_csv(self, tmp_path, capsys):
        # Real-dataset tables are out of desk-scale reach by design; the
        # supported route is correcting and evaluating user-supplied CSVs
        # through the CLI, exercised end to end here.
        import csv as _csv

        from orthokit.cli import main

        data = generate(
            SyntheticSpec(n=300, p=2, q=5, rho=2.0, family="bernoulli", seed=2009)
        )
        path = tmp_path / "user.csv"
        with open(path, "w", newline="") as fh:
            w = _csv.writer(fh)
            w.writerow([f"z{i}" for i in range(5)] + ["x0", "x1", "y"])
            for i in range(300):
                w.writerow(
                    list(data.z[i]) + list(data.x[i]) + [int(data.y[i])]
                )
        out = tmp_path / "out"
        rc1 = main([
            "correct", "--data", str(path), "--outcome", "y",
            "--protected", "x0,x1", "--family", "bernoulli",
            "--method", "glm-constrained", "--out", str(out),
        ])
        rc2 = main([
            "evaluate", "--predictions", str(out / "corrected_predictions.csv"),
            "--prediction-column", "y_hat_corrected",
            "--protected-data", str(path), "--protected", "x0,x1",
            "--family", "bernoulli", "--out", str(out),
        ])
        lines = capsys.readouterr().out.strip().splitlines()
        ok = rc1 == 0 and rc2 == 0 and all(
            line.endswith("PASS") for line in lines if ":" in line
        )
        announce("9", ok, "user-CSV correct+evaluate route works end to end")
        assert rc1 == 0 and rc2 == 0
        assert all(line.endswith("PASS") for line in lines if ":" in line)
