"""Each benchmark check passes on a true output and fails on a corrupted one.

Run from the repository root:

    python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402
from orthokit import (  # noqa: E402
    BERNOULLI,
    SyntheticSpec,
    correct_features_relu,
    correct_tensor_preactivation,
    evaluate_glm,
    evaluate_relu_l2,
    evaluate_tensor,
    fit_constrained_glm,
    fit_glm,
    generate,
)


@pytest.fixture(scope="module")
def data():
    return generate(SyntheticSpec(n=400, p=2, q=4, rho=2.0, family="bernoulli", seed=7))


@pytest.fixture(scope="module")
def constrained(data):
    return fit_constrained_glm(data.z, data.y, data.x, BERNOULLI)


def test_constrained_fit_shifted_coefficient(data, constrained):
    design = checks.with_intercept(data.z)
    gamma = constrained.gamma_c
    checks.check_constrained_fit(design, data.x, gamma, "bernoulli")
    checks.check_predictions(design, gamma, constrained.corrected_predictions, "bernoulli")
    shifted = gamma.copy()
    shifted[1] += 0.1
    with pytest.raises(CheckFailed):
        checks.check_constrained_fit(design, data.x, shifted, "bernoulli")
    with pytest.raises(CheckFailed):
        checks.check_predictions(design, shifted, constrained.corrected_predictions,
                                 "bernoulli")


def test_irls_fit_perturbed_coefficient(data):
    fit = fit_glm(data.z, data.y, BERNOULLI, with_intercept=True)
    design = checks.with_intercept(data.z)
    checks.check_irls_fit(design, data.y, fit.coefficients, "bernoulli")
    beta = fit.coefficients.copy()
    beta[0] += 1e-6
    with pytest.raises(CheckFailed):
        checks.check_irls_fit(design, data.y, beta, "bernoulli")


def test_evaluation_estimate_perturbed(data, constrained):
    report = evaluate_glm(data.x, constrained.corrected_predictions, BERNOULLI)
    mu = constrained.corrected_predictions
    checks.check_evaluation(data.x, mu, report.coefficients, report.std_errors)
    est = report.coefficients.copy()
    est[0] += 1e-3
    with pytest.raises(CheckFailed):
        checks.check_evaluation(data.x, mu, est, report.std_errors)
    se = report.std_errors * 1.001
    with pytest.raises(CheckFailed):
        checks.check_evaluation(data.x, mu, report.coefficients, se)


def test_linear_correction_perturbed_prediction(data):
    xd = checks.with_intercept(data.x)
    zc = checks.complement(xd, data.z)
    fit = fit_glm(zc, data.y, BERNOULLI, with_intercept=True)
    design = checks.with_intercept(zc)
    mu = fit.fitted_means
    checks.check_linear_correction(data.x, design, data.y, fit.coefficients, mu)
    leaked = checks.sigmoid(np.log(mu / (1 - mu)) + 1e-3 * data.x[:, 0])
    with pytest.raises(CheckFailed):
        checks.check_linear_correction(data.x, design, data.y, fit.coefficients, leaked)


def test_tensor_protected_component_added():
    g = np.random.default_rng(3)
    x = g.standard_normal((60, 2))
    t = g.standard_normal((60, 3, 2))
    tc = correct_tensor_preactivation(x, t)
    checks.check_tensor_correction(x, t, tc)
    frob = evaluate_tensor(x, tc).frobenius
    checks.check_tensor_evaluation(x, tc, frob)
    leaked = tc + 1e-6 * (x[:, :1] @ np.ones((1, 6))).reshape(t.shape)
    with pytest.raises(CheckFailed):
        checks.check_tensor_correction(x, t, leaked)
    with pytest.raises(CheckFailed):
        checks.check_tensor_evaluation(x, leaked, frob)


def test_relu_objective_off_by_one_percent():
    g = np.random.default_rng(4)
    x = g.standard_normal((200, 2))
    z = g.standard_normal((200, 4))
    z[:, :2] += 2.0 * x
    gamma = g.standard_normal(4)
    raw = np.maximum(z @ gamma, 0.0)
    cor = np.maximum(correct_features_relu(x, z) @ gamma, 0.0)
    shares = []
    for y in (raw, cor):
        res = evaluate_relu_l2(x, y, starts=4)
        shares.append(checks.check_relu_evaluation(
            x, y, res.beta, res.objective, res.objective_at_zero))
        with pytest.raises(CheckFailed):
            checks.check_relu_evaluation(x, y, res.beta, 1.01 * res.objective,
                                         res.objective_at_zero)
        with pytest.raises(CheckFailed):
            checks.check_relu_evaluation(x, y, res.beta, res.objective,
                                         0.99 * res.objective_at_zero)
    checks.check_share_drop([shares[0]], [shares[1]])
    with pytest.raises(CheckFailed):
        checks.check_share_drop([shares[1]], [shares[0]])


def test_mlp_pair_margin_and_residual():
    checks.check_mlp_pair(0.50, 0.75, [1e-15, 2e-15])
    with pytest.raises(CheckFailed):
        checks.check_mlp_pair(0.50, 0.59, [1e-15])
    with pytest.raises(CheckFailed):
        checks.check_mlp_pair(0.50, 0.75, [1e-15, 1e-6])
    checks.check_mlp_residuals([1e-15, 2e-15])
    with pytest.raises(CheckFailed):
        checks.check_mlp_residuals([1e-15, 1e-6])


def test_one_hot_drops_first_level(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,c\n1.5,y\n2,x\n-1,z\n")
    header, body = checks.read_csv(path)
    m, names = checks.one_hot(header, body, ["a", "c"])
    assert names == ["a", "c=y", "c=z"]
    np.testing.assert_array_equal(m, [[1.5, 1, 0], [2, 0, 0], [-1, 0, 1]])


def test_csv_route_checks_catch_corrupted_files(tmp_path):
    route = workloads.CsvRoute(0, tmp_path, rows=2000)
    rnd = route.round()
    assert rnd.outcomes == [workloads.OK] * route.ops_per_round, rnd.notes

    def corrupt(src, name, edit):
        dst = tmp_path / f"bad-{src.name}-{name}"
        shutil.copytree(src, dst)
        path = dst / name if name != "evaluation.csv" else dst / "eval" / name
        lines = path.read_text().splitlines()
        lines[1] = edit(lines[1])
        path.write_text("\n".join(lines) + "\n")
        return dst

    def bump(cell, by):
        return repr(float(cell) + by)

    def last_cell(by):
        return lambda line: ",".join(line.split(",")[:-1] + [bump(line.split(",")[-1], by)])

    def second_cell(by):
        return lambda line: ",".join(
            [line.split(",")[0], bump(line.split(",")[1], by)] + line.split(",")[2:])

    cases = [
        (route._check_constrained, corrupt(tmp_path / "constrained", "coefficients.csv",
                                           last_cell(0.1))),
        (route._check_linear, corrupt(tmp_path / "linear", "corrected_predictions.csv",
                                      last_cell(1e-3))),
        (route._check_evaluation, corrupt(tmp_path / "constrained", "evaluation.csv",
                                          second_cell(1e-3))),
        (route._check_tensor, corrupt(tmp_path / "tensor", "corrected_tensor.csv",
                                      second_cell(1e-3))),
    ]
    for check, path in cases:
        with pytest.raises(CheckFailed):
            check(path)


def test_self_time_subtracts_children():
    tr = tracer_mod.Tracer()
    tr.spans = [(0, "m.outer", 0.0, 1.0, 1, -1), (1, "m.leaf", 0.2, 0.5, 1, 0),
                (2, "m.leaf", 0.6, 0.7, 1, 0)]
    self_times = tr.self_times()
    assert self_times["m.outer"] == pytest.approx(0.6)
    assert self_times["m.leaf"] == pytest.approx(0.4)


def test_wrapped_calls_record_parent_spans():
    tr = tracer_mod.Tracer()
    leaf = tr.wrap("m.leaf", lambda: None)
    tr.wrap("m.outer", lambda: leaf())()
    (leaf_span,) = [s for s in tr.spans if s[1] == "m.leaf"]
    (outer_span,) = [s for s in tr.spans if s[1] == "m.outer"]
    assert leaf_span[5] == outer_span[0] and outer_span[5] == -1
    assert outer_span[2] <= leaf_span[2] <= leaf_span[3] <= outer_span[3]
