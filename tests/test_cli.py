"""CLI behaviour: exit codes, file outputs, determinism, bitwise parity
with direct library calls."""

import csv
import json

import numpy as np
import pytest

from orthokit.cli import main
from orthokit.correct import augment_intercept, correct_features_linear
from orthokit.evalmodel import evaluate_relu_l2
from orthokit.glm import GAUSSIAN, fit_glm
from orthokit.synth import SyntheticSpec, generate


def write_dataset(path, data):
    q = data.z.shape[1]
    p = data.x.shape[1]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([f"z{i}" for i in range(q)] + [f"x{j}" for j in range(p)] + ["y"])
        for i in range(data.z.shape[0]):
            w.writerow(
                [f"{v:.17g}" for v in data.z[i]]
                + [f"{v:.17g}" for v in data.x[i]]
                + [f"{data.y[i]:.17g}"]
            )


@pytest.fixture(scope="module")
def gaussian_csv(tmp_path_factory):
    data = generate(
        SyntheticSpec(n=200, p=2, q=5, rho=2.0, family="gaussian", seed=11)
    )
    path = tmp_path_factory.mktemp("data") / "gaussian.csv"
    write_dataset(path, data)
    return path, data


@pytest.fixture(scope="module")
def bernoulli_csv(tmp_path_factory):
    # seed 17 puts real signal on the confounded coordinates, so the
    # uncorrected fit genuinely leaks protected information (the negative
    # control below needs that leakage to exist)
    data = generate(
        SyntheticSpec(n=500, p=3, q=8, rho=2.0, family="bernoulli", seed=17)
    )
    path = tmp_path_factory.mktemp("data") / "bernoulli.csv"
    write_dataset(path, data)
    return path, data


class TestCorrectCommand:
    def test_linear_matches_library_bitwise(self, gaussian_csv, tmp_path):
        path, data = gaussian_csv
        out = tmp_path / "out"
        rc = main([
            "correct", "--data", str(path), "--outcome", "y",
            "--protected", "x0,x1", "--family", "gaussian",
            "--method", "linear", "--out", str(out),
        ])
        assert rc == 0
        with open(out / "coefficients.csv") as fh:
            rows = list(csv.reader(fh))[1:]
        got = np.array([float(r[1]) for r in rows])
        zc = correct_features_linear(augment_intercept(data.x), data.z)
        fit = fit_glm(zc, data.y, GAUSSIAN, with_intercept=True)
        np.testing.assert_array_equal(got, fit.coefficients)

    def test_missing_outcome_column_named(self, gaussian_csv, tmp_path, capsys):
        path, _ = gaussian_csv
        rc = main([
            "correct", "--data", str(path), "--outcome", "income",
            "--protected", "x0", "--out", str(tmp_path / "o"),
        ])
        assert rc == 2
        assert "income" in capsys.readouterr().err

    def test_missing_protected_column_named(self, gaussian_csv, tmp_path, capsys):
        path, _ = gaussian_csv
        rc = main([
            "correct", "--data", str(path), "--outcome", "y",
            "--protected", "race", "--out", str(tmp_path / "o"),
        ])
        assert rc == 2
        assert "race" in capsys.readouterr().err

    def test_constrained_writes_feasible_report(self, bernoulli_csv, tmp_path):
        path, _ = bernoulli_csv
        out = tmp_path / "out"
        rc = main([
            "correct", "--data", str(path), "--outcome", "y",
            "--protected", "x0,x1,x2", "--family", "bernoulli",
            "--method", "glm-constrained", "--out", str(out),
        ])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["constraint_residual"] <= 1e-6
        assert report["converged"] is True
        assert report["stop_reason"] == "converged"
        assert report["stationarity"] <= 1e-8
        assert "lambda_final" not in report
        with open(out / "corrected_predictions.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["row_id", "y_hat_corrected"]
        assert len(rows) == 501

    def test_relu_report_carries_winning_start(self, gaussian_csv, tmp_path):
        path, data = gaussian_csv
        out = tmp_path / "out"
        rc = main([
            "correct", "--data", str(path), "--outcome", "y",
            "--protected", "x0,x1", "--family", "gaussian",
            "--method", "relu", "--out", str(out),
        ])
        zc = correct_features_linear(augment_intercept(data.x), data.z)
        best = evaluate_relu_l2(augment_intercept(zc), data.y, starts=8, seed=0)
        report = json.loads((out / "report.json").read_text())
        assert report["iterations"] == best.iterations
        assert report["converged"] is best.converged
        assert rc == (0 if best.converged else 3)
        with open(out / "coefficients.csv") as fh:
            got = np.array([float(r[1]) for r in list(csv.reader(fh))[1:]])
        np.testing.assert_array_equal(got, best.beta)

    @pytest.mark.parametrize("flag", ["--lr", "--zeta"])
    def test_retired_step_size_flags_exit_2(self, bernoulli_csv, tmp_path,
                                            capsys, flag):
        path, _ = bernoulli_csv
        rc = main([
            "correct", "--data", str(path), "--outcome", "y",
            "--protected", "x0,x1,x2", "--family", "bernoulli",
            "--method", "glm-constrained", "--out", str(tmp_path / "o"),
            flag, "0.01",
        ])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert flag in err[0] and "--max-iter" in err[0] and "--tol" in err[0]
        assert not (tmp_path / "o").exists()

    def test_separated_design_exits_3_with_feasible_report(self, tmp_path):
        data = generate(
            SyntheticSpec(n=200, p=5, q=100, rho=2.0, family="bernoulli", seed=0)
        )
        path = tmp_path / "separated.csv"
        write_dataset(path, data)
        out = tmp_path / "out"
        rc = main([
            "correct", "--data", str(path), "--outcome", "y",
            "--protected", ",".join(f"x{j}" for j in range(5)),
            "--family", "bernoulli", "--method", "glm-constrained",
            "--out", str(out),
        ])
        assert rc == 3
        report = json.loads((out / "report.json").read_text())
        assert report["converged"] is False
        assert "quasi-separated" in report["stop_reason"]
        assert report["constraint_residual"] <= 1e-6

    def test_seventeen_digit_roundtrip(self, bernoulli_csv, tmp_path):
        path, _ = bernoulli_csv
        out = tmp_path / "out17"
        main([
            "correct", "--data", str(path), "--outcome", "y",
            "--protected", "x0,x1,x2", "--family", "bernoulli",
            "--method", "glm-constrained", "--out", str(out),
        ])
        with open(out / "corrected_predictions.csv") as fh:
            rows = list(csv.reader(fh))[1:]
        vals = [float(r[1]) for r in rows]
        assert all(f"{v:.17g}" == r[1] for v, r in zip(vals, rows))

    def test_categorical_protected_one_hot(self, tmp_path):
        rng = np.random.Generator(np.random.Philox(key=21))
        n = 120
        race = rng.choice(["alpha", "beta", "gamma"], size=n)
        z = rng.standard_normal((n, 3))
        y = rng.standard_normal(n)
        path = tmp_path / "cat.csv"
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["z0", "z1", "z2", "group", "y"])
            for i in range(n):
                w.writerow(list(z[i]) + [race[i], y[i]])
        out = tmp_path / "out"
        rc = main([
            "correct", "--data", str(path), "--outcome", "y",
            "--protected", "group", "--family", "gaussian",
            "--method", "linear", "--out", str(out),
        ])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["reference_levels"] == {"group": "alpha"}
        assert report["protected"] == ["group=beta", "group=gamma"]

    def test_tensor_roundtrip(self, tmp_path):
        rng = np.random.Generator(np.random.Philox(key=22))
        n, d1, d2 = 6, 2, 3
        x = rng.standard_normal((n, 2))
        tensor = rng.standard_normal((n, d1, d2))
        data_path = tmp_path / "prot.csv"
        with open(data_path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["x0", "x1"])
            for row in x:
                w.writerow([f"{v:.17g}" for v in row])
        tensor_path = tmp_path / "tensor.csv"
        with open(tensor_path, "w") as fh:
            fh.write(f"#dims {n} {d1} {d2}\n")
            flat = tensor.reshape(n, -1)
            for row in flat:
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
        out = tmp_path / "out"
        rc = main([
            "correct", "--data", str(data_path), "--protected", "x0,x1",
            "--method", "tensor", "--tensor", str(tensor_path),
            "--out", str(out),
        ])
        assert rc == 0
        from orthokit.cli import read_tensor
        corrected = read_tensor(out / "corrected_tensor.csv")
        assert corrected.shape == (n, d1, d2)
        np.testing.assert_allclose(x.T @ corrected.reshape(n, -1), 0.0, atol=1e-9)


class TestEvaluateCommand:
    def test_corrected_predictions_all_pass(self, bernoulli_csv, tmp_path, capsys):
        path, _ = bernoulli_csv
        out = tmp_path / "corr"
        main([
            "correct", "--data", str(path), "--outcome", "y",
            "--protected", "x0,x1,x2", "--family", "bernoulli",
            "--method", "glm-constrained", "--out", str(out),
        ])
        capsys.readouterr()
        rc = main([
            "evaluate", "--predictions", str(out / "corrected_predictions.csv"),
            "--prediction-column", "y_hat_corrected",
            "--protected-data", str(path), "--protected", "x0,x1,x2",
            "--family", "bernoulli", "--out", str(tmp_path / "ev"),
        ])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        assert all(line.endswith("PASS") for line in lines)

    def test_uncorrected_predictions_fail_mark(self, bernoulli_csv, tmp_path, capsys):
        path, data = bernoulli_csv
        fit = fit_glm(
            data.z, data.y, __import__("orthokit").BERNOULLI, with_intercept=True
        )
        pred_path = tmp_path / "preds.csv"
        with open(pred_path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["row_id", "y_hat"])
            for i, v in enumerate(fit.fitted_means):
                w.writerow([i, f"{v:.17g}"])
        rc = main([
            "evaluate", "--predictions", str(pred_path),
            "--protected-data", str(path), "--protected", "x0,x1,x2",
            "--family", "bernoulli", "--out", str(tmp_path / "ev"),
        ])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert any(line.endswith("FAIL") for line in lines)

    def test_constant_predictions_unit_pvalues(self, bernoulli_csv, tmp_path):
        path, data = bernoulli_csv
        pred_path = tmp_path / "const.csv"
        with open(pred_path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["row_id", "y_hat"])
            for i in range(data.z.shape[0]):
                w.writerow([i, "0.5"])
        out = tmp_path / "ev"
        rc = main([
            "evaluate", "--predictions", str(pred_path),
            "--protected-data", str(path), "--protected", "x0,x1,x2",
            "--family", "bernoulli", "--out", str(out),
        ])
        assert rc == 0
        with open(out / "evaluation.csv") as fh:
            rows = list(csv.reader(fh))[1:]
        assert all(float(r[4]) == 1.0 for r in rows)

    def test_relu_prints_explained_share(self, gaussian_csv, tmp_path, capsys):
        path, data = gaussian_csv
        out = tmp_path / "out"
        main([
            "correct", "--data", str(path), "--outcome", "y",
            "--protected", "x0,x1", "--family", "gaussian",
            "--method", "relu", "--out", str(out),
        ])
        capsys.readouterr()
        rc = main([
            "evaluate", "--predictions", str(out / "corrected_predictions.csv"),
            "--prediction-column", "y_hat_corrected",
            "--protected-data", str(path), "--protected", "x0,x1",
            "--relu", "--out", str(tmp_path / "ev"),
        ])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1
        assert not lines[0].endswith(("PASS", "FAIL"))
        fields = dict(f.split("=") for f in lines[0].split()[1:])
        with open(out / "corrected_predictions.csv") as fh:
            y_hat = [float(r[1]) for r in list(csv.reader(fh))[1:]]
        res = evaluate_relu_l2(data.x, y_hat)
        assert float(fields["objective"]) == res.objective
        assert float(fields["objective_at_zero"]) == res.objective_at_zero
        share = 1.0 - res.objective / res.objective_at_zero
        assert float(fields["explained_share"]) == share
        assert 0.0 < share < 1.0


class TestSimulateCommand:
    def grid_file(self, tmp_path):
        cells = [
            {"family": "bernoulli", "n": 150, "p": 2, "q": 4, "rho": 2.0},
            {"family": "bernoulli", "n": 150, "p": 1, "q": 4, "rho": 0.0},
        ]
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(cells))
        return path

    def test_row_count_formula(self, tmp_path):
        grid = self.grid_file(tmp_path)
        out = tmp_path / "sim"
        rc = main([
            "simulate", "--grid", str(grid), "--replicates", "1",
            "--seed", "3", "--out", str(out),
        ])
        assert rc == 0
        with open(out / "study.csv") as fh:
            rows = list(csv.reader(fh))
        # header + 3 methods * (p1 + p2) coefficients
        assert len(rows) == 1 + 3 * (2 + 1)
        assert (out / "summary.csv").exists()

    def test_byte_identical_reruns(self, tmp_path, monkeypatch):
        grid = self.grid_file(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        monkeypatch.setenv("ORTHOKIT_THREADS", "1")
        main(["simulate", "--grid", str(grid), "--replicates", "2",
              "--seed", "5", "--out", str(out_a)])
        monkeypatch.setenv("ORTHOKIT_THREADS", "4")
        main(["simulate", "--grid", str(grid), "--replicates", "2",
              "--seed", "5", "--out", str(out_b)])
        assert (out_a / "study.csv").read_bytes() == (out_b / "study.csv").read_bytes()
        assert (out_a / "summary.csv").read_bytes() == (out_b / "summary.csv").read_bytes()

    def test_bad_grid_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = main(["simulate", "--grid", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "grid" in capsys.readouterr().err


class TestDemoCommand:
    def test_figure1_demo(self, tmp_path, capsys):
        out = tmp_path / "demo"
        rc = main(["demo", "--which", "figure1", "--seed", "0", "--out", str(out)])
        assert rc == 0
        assert (out / "trajectory.csv").exists()
        final_line = capsys.readouterr().out
        corr = float(final_line.strip().split()[-1])
        assert abs(corr) <= 0.01

    def test_unknown_demo_exits_2(self, tmp_path, capsys):
        rc = main(["demo", "--which", "nope", "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "nope" in capsys.readouterr().err
