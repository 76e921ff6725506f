"""CLI behaviour: exit codes, file outputs, determinism, bitwise parity
with direct library calls."""

import csv
import dataclasses
import json
import sys
import tracemalloc

import numpy as np
import pytest

from orthokit import cli
from orthokit.cli import (
    BLOCK_ROWS,
    _fmt,
    _write_csv,
    main,
    read_tensor,
    write_tensor,
)
from orthokit.correct import augment_intercept, correct_features_linear
from orthokit.evalmodel import evaluate_relu_l2
from orthokit.glm import GAUSSIAN, fit_glm
from orthokit.synth import SUMMARY_COLUMNS, SyntheticSpec, generate


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

    @pytest.mark.parametrize("method", ["linear", "glm-constrained"])
    def test_outcome_listed_as_protected_exits_2(self, gaussian_csv, method,
                                                 tmp_path, capsys):
        path, _ = gaussian_csv
        rc = main([
            "correct", "--data", str(path), "--outcome", "y",
            "--protected", "x0,y", "--method", method, "--out", str(tmp_path / "o"),
        ])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.count("\n") == 1
        assert "'y'" in err and "--protected" in err

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
        # the constrained solver has no step size: argparse refuses the
        # flags as unknown
        path, _ = bernoulli_csv
        with pytest.raises(SystemExit) as exc:
            main([
                "correct", "--data", str(path), "--outcome", "y",
                "--protected", "x0,x1,x2", "--family", "bernoulli",
                "--method", "glm-constrained", "--out", str(tmp_path / "o"),
                flag, "0.01",
            ])
        assert exc.value.code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert "unrecognized arguments" in err[-1] and flag in err[-1]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag, value", [
        ("--max-iter", "-1"), ("--tol", "-1"), ("--tol", "nan"),
    ])
    def test_budget_or_tolerance_that_cannot_be_met_exits_2(
        self, bernoulli_csv, tmp_path, capsys, flag, value
    ):
        # a negative step budget runs no step, and a negative or NaN
        # residual tolerance is never met: refused before any output
        path, _ = bernoulli_csv
        out = tmp_path / "o"
        rc = main([
            "correct", "--data", str(path), "--outcome", "y",
            "--protected", "x0,x1,x2", "--family", "bernoulli",
            "--method", "glm-constrained", "--out", str(out), flag, value,
        ])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: InvalidSpec: ")
        assert not out.exists()

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

    def test_linear_report_names_quasi_separation(self, tmp_path):
        # y = (f > 0): the refit on the corrected f separates the classes
        rng = np.random.Generator(np.random.Philox(key=29))
        f, x = rng.standard_normal(200), rng.standard_normal(200)
        path = tmp_path / "separated.csv"
        _write_rows(path, [["f", "x", "y"]] + [
            [f"{a:.17g}", f"{b:.17g}", str(int(a > 0))] for a, b in zip(f, x)])
        out = tmp_path / "out"
        rc = main(["correct", "--data", str(path), "--outcome", "y", "--protected", "x",
                   "--method", "linear", "--out", str(out)])
        assert rc == 3
        report = json.loads((out / "report.json").read_text())
        assert report["converged"] is False
        assert report["stop_reason"] == "means reached the clamp: the design is quasi-separated"

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
        corrected = read_tensor(out / "corrected_tensor.csv")
        assert corrected.shape == (n, d1, d2)
        np.testing.assert_allclose(x.T @ corrected.reshape(n, -1), 0.0, atol=1e-9)


    def test_tensor_file_bytes(self, tmp_path):
        # the '#dims' line ends in LF, every data row in CRLF, cells at 17 digits
        rng = np.random.Generator(np.random.Philox(key=23))
        n = 8
        x = rng.standard_normal((n, 2))
        tensor = rng.standard_normal((n, 2, 3))
        data_path = tmp_path / "prot.csv"
        data_path.write_text("x0,x1\n" + "".join(
            f"{a:.17g},{b:.17g}\n" for a, b in x))
        tensor_path = tmp_path / "tensor.csv"
        write_tensor(tensor_path, tensor)
        out = tmp_path / "out"
        rc = main([
            "correct", "--data", str(data_path), "--protected", "x0,x1",
            "--method", "tensor", "--tensor", str(tensor_path),
            "--out", str(out),
        ])
        assert rc == 0
        corrected = correct_features_linear(x, tensor).reshape(n, -1)
        expected = f"#dims {n} 2 3\n" + "".join(
            ",".join(f"{v:.17g}" for v in row) + "\r\n" for row in corrected)
        assert (out / "corrected_tensor.csv").read_bytes() == expected.encode()

    def test_write_read_tensor_bitwise(self, tmp_path):
        rng = np.random.Generator(np.random.Philox(key=24))
        tensor = rng.standard_normal((5, 3, 2)) * 10.0 ** rng.integers(-300, 300, (5, 3, 2))
        tensor[0, 0] = [-0.0, 5e-324]
        tensor[1, 2] = [np.finfo(float).max, 0.1]
        write_tensor(tmp_path / "t.csv", tensor)
        back = read_tensor(tmp_path / "t.csv")
        assert back.shape == tensor.shape
        assert back.tobytes() == tensor.tobytes()


def _reference_csv(path, header, rows):
    """The writer ``_write_csv`` replaced: csv.writer over ``_fmt`` cells."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


# row counts at and around the writers' block boundaries
WRITER_ROWS = (0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS)


def _kinds_change_between_blocks(count):
    """A float column with a None in its last row, text that needs quotes
    only after the first block, ints and bools."""
    return [(i, None if i == count - 1 else i / 7.0,
             'say "hi", x' if i >= BLOCK_ROWS else f"t{i}", i % 3 == 0)
            for i in range(count)]


def _lone_cells(count):
    return [("" if i % 5 == 0 else None if i % 7 == 0 else f"v{i}",) for i in range(count)]


@pytest.mark.parametrize("header, rows", [
    (("id", "value", "mixed", "text", "flag"), [
        (0, 0.1, 1, "plain", True),
        (1, -0.0, np.float64(1e-300), "a,b", False),
        (2, float("inf"), None, 'say "hi"', None),
        (3, 5e-324, 2.5, "cr\rhere", True),
        (4, 1.7976931348623157e308, "x", "line\nbreak", False),
        (5, float("nan"), np.float64(-2.0), "", True),
    ]),
    (("value",), [(1.0,), (2.0,)]),
    (("only",), [("",), ("a",), (None,), ("b,c",)]),
    (("", "a,b", 'q"'), [("", "", "")]),
    (("empty",), []),
    *[(("id", "value", "text", "flag"), _kinds_change_between_blocks(count))
      for count in WRITER_ROWS],
    *[(("only",), _lone_cells(count)) for count in WRITER_ROWS],
])
def test_write_csv_matches_csv_writer(header, rows, tmp_path):
    _write_csv(tmp_path / "new.csv", header, iter(rows))
    _reference_csv(tmp_path / "ref.csv", header, rows)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("count", WRITER_ROWS)
@pytest.mark.parametrize("shape", ((2, 3), (1,)))
def test_write_tensor_blocks(count, shape, tmp_path):
    tensor = np.random.Generator(np.random.Philox(key=34)).standard_normal((count, *shape))
    write_tensor(tmp_path / "t.csv", tensor)  # a 0-row tensor too
    flat = tensor.reshape(count, int(np.prod(shape)))
    expected = f"#dims {' '.join(map(str, tensor.shape))}\n" + "".join(
        ",".join(f"{v:.17g}" for v in row) + "\r\n" for row in flat)
    assert (tmp_path / "t.csv").read_bytes() == expected.encode()


@pytest.mark.parametrize("bad_row", (0, BLOCK_ROWS + 3))
def test_write_csv_bad_row_leaves_no_file(bad_row, tmp_path):
    """A row of the wrong width raises the width error, in the first block
    or after earlier blocks were written, and no partial file is left."""
    rows = [(i, float(i)) for i in range(2 * BLOCK_ROWS)]
    rows[bad_row] = (bad_row,)
    path = tmp_path / "out.csv"
    with pytest.raises(ValueError, match=r"out\.csv: every row must have 2 fields"):
        _write_csv(path, ("a", "b"), iter(rows))
    assert not path.exists()


def test_writers_hold_one_block(tmp_path):
    """``write_tensor`` and ``_write_csv`` format and write one block of
    rows at a time: their peaks are bounded by a block, not by the file."""
    n = 20 * BLOCK_ROWS
    tensor = np.random.Generator(np.random.Philox(key=35)).standard_normal((n, 6))
    values = tensor[:, 0].tolist()
    line = ",".join(f"{v:.17g}" for v in tensor[0]) + "\r\n"
    tracemalloc.start()
    try:
        write_tensor(tmp_path / "t.csv", tensor)
        tensor_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        _write_csv(tmp_path / "p.csv", ("row_id", "y_hat"), enumerate(values))
        csv_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a row of the tensor: its floats with their tuple slots, its text and
    # the text's encoded bytes
    tensor_row = 6 * (sys.getsizeof(1.0) + 8) + 2 * sys.getsizeof(line)
    # a row of predictions: the (row_id, value) tuple and its int, the
    # slots of the block, its cells, two column slices and the format
    # tuple, and the text twice
    csv_row = (sys.getsizeof((n, 0.5)) + sys.getsizeof(n) + 7 * 8
               + 2 * sys.getsizeof(f"{n},{values[0]:.17g}\r\n"))
    assert tensor_peak < BLOCK_ROWS * tensor_row + 2**16, tensor_peak
    assert csv_peak < BLOCK_ROWS * csv_row + 2**16, csv_peak
    # the whole tensor's text alone would exceed the bound
    assert n * len(line) > BLOCK_ROWS * tensor_row + 2**16


def _write_rows(path, rows):
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _bad_input(case, tmp_path):
    """Files for one malformed-input case; returns (argv, words the
    diagnostic must contain)."""
    rng = np.random.Generator(np.random.Philox(key=25))
    n = 40
    # rows[k] is line k + 1 of its file
    rows = [["z0", "z1", "x0", "y"]] + [
        [f"{v:.17g}" for v in rng.standard_normal(3)] + [str(int(rng.random() < 0.5))]
        for _ in range(n)
    ]
    tensor = [[f"#dims {n} 2 3"]] + [
        [f"{v:.17g}" for v in rng.standard_normal(6)] for _ in range(n)
    ]
    preds = [["row_id", "y_hat"]] + [[str(i), "0.5"] for i in range(n)]
    data, tfile, pfile = (tmp_path / f for f in ("data.csv", "tensor.csv", "preds.csv"))
    correct = ["correct", "--data", str(data), "--outcome", "y", "--protected", "x0",
               "--family", "gaussian", "--method", "linear", "--out", str(tmp_path / "o")]
    tensor_argv = ["correct", "--data", str(data), "--protected", "x0",
                   "--method", "tensor", "--tensor", str(tfile), "--out", str(tmp_path / "o")]
    evaluate = ["evaluate", "--predictions", str(pfile), "--protected-data", str(data),
                "--protected", "x0", "--out", str(tmp_path / "o")]
    argv, words = {
        "data_row_width": (correct, ["data.csv", "row 6", "expected 4"]),
        "single_level_category": (correct, ["'x0'", "single level"]),
        "malformed_dims": (tensor_argv, ["tensor.csv", "dims"]),
        # both are checked before the rows' widths, which would match a zero
        "zero_tensor_dim": (tensor_argv, ["tensor.csv", "dims must be positive"]),
        "negative_tensor_dim": (tensor_argv, ["tensor.csv", "dims must be positive"]),
        # 2**32 * 2**32 cells, a width no int64 product holds
        "overflowing_tensor_width": (tensor_argv, [
            "tensor.csv", "row 2 has 0 cells", "expected 18446744073709551616"]),
        "tensor_row_count": (tensor_argv, ["tensor.csv", "40", "39"]),
        "non_numeric_tensor_cell": (tensor_argv, ["tensor.csv", "'abc'", "row 4"]),
        "ragged_tensor_row": (tensor_argv, ["tensor.csv", "row 7", "5 cells", "expected 6"]),
        "non_finite_data_cell": (correct, ["'z1'", "'nan'", "row 9"]),
        "non_finite_prediction_cell": (evaluate, ["'y_hat'", "'inf'", "row 12"]),
        "non_finite_tensor_cell": (tensor_argv, ["tensor.csv", "'-inf'", "row 3"]),
        "empty_numeric_cell": (correct, ["'z0'", "empty", "row 10"]),
        "empty_categorical_cell": (correct, ["'x0'", "an empty cell", "row 6"]),
        "predictions_only_row_id": (evaluate, ["preds.csv", "row_id"]),
        "empty_protected_list": (evaluate[:-3] + [",", *evaluate[-2:]],
                                 ["--protected must name at least one column"]),
        "non_utf8_data": (correct, ["data.csv", "UTF-8"]),
        "repeated_header_name": (correct, ["data.csv", "repeats", "'z1'"]),
        # a width error wins over any cell error, however early
        "width_after_bad_cell": (correct, ["data.csv", "row 36", "5 cells", "expected 4"]),
        "empty_cell_before_late_word": (correct, ["'x0'", "an empty cell", "row 8"]),
        "late_non_numeric_outcome": (correct, ["'y'", "non-numeric cell 'yes'", "row 34"]),
        "first_of_two_bad_cells": (correct, ["'z1'", "'inf'", "row 9"]),
        # a non-number anywhere wins over an earlier non-finite cell
        "tensor_word_after_non_finite": (tensor_argv, ["tensor.csv", "'abc'", "row 21"]),
    }[case]
    if case == "data_row_width":
        rows[5].append("1")
    elif case == "single_level_category":
        for row in rows[1:]:
            row[2] = "a"
    elif case == "malformed_dims":
        tensor[0] = [f"#dims {n} two 3"]
    elif case == "zero_tensor_dim":
        tensor = [[f"#dims {n} 0"]] + [[] for _ in range(n)]
    elif case == "negative_tensor_dim":
        tensor[0] = [f"#dims {n} -1"]
    elif case == "overflowing_tensor_width":
        tensor = [[f"#dims {n} 4294967296 4294967296"]] + [[] for _ in range(n)]
    elif case == "tensor_row_count":
        del tensor[-1]
    elif case == "non_numeric_tensor_cell":
        tensor[3][4] = "abc"
    elif case == "ragged_tensor_row":
        del tensor[6][0]
    elif case == "non_finite_data_cell":
        rows[8][1] = "nan"
    elif case == "non_finite_prediction_cell":
        preds[11][1] = "inf"
    elif case == "non_finite_tensor_cell":
        tensor[2][5] = "-inf"
    elif case == "empty_numeric_cell":
        rows[9][0] = ""
    elif case == "empty_categorical_cell":
        # "" sorts first, so it would otherwise become the reference level
        for k, row in enumerate(rows[1:]):
            row[2] = "ab"[k % 2]
        rows[5][2] = rows[30][2] = ""
    elif case == "predictions_only_row_id":
        preds = [[r[0]] for r in preds]
    elif case == "repeated_header_name":
        rows[0][0] = "z1"
    elif case == "width_after_bad_cell":
        rows[3][1] = "nan"
        rows[35].append("1")
    elif case == "empty_cell_before_late_word":
        # numbers in the early blocks, so the column turns categorical late
        for k, row in enumerate(rows[1:]):
            row[2] = str(k % 2)
        rows[7][2], rows[30][2] = "", "a"
    elif case == "late_non_numeric_outcome":
        rows[33][3] = "yes"
    elif case == "first_of_two_bad_cells":
        rows[8][1], rows[25][1] = "inf", ""
    elif case == "tensor_word_after_non_finite":
        tensor[2][5], tensor[20][1] = "-inf", "abc"
    _write_rows(data, rows)
    _write_rows(tfile, tensor)
    _write_rows(pfile, preds)
    if case == "non_utf8_data":
        raw = data.read_bytes()
        data.write_bytes(raw[:60] + b"\xff" + raw[60:])
    return argv, words


BAD_INPUT_CASES = [
    "data_row_width", "single_level_category", "malformed_dims",
    "zero_tensor_dim", "negative_tensor_dim", "overflowing_tensor_width",
    "tensor_row_count", "non_numeric_tensor_cell", "ragged_tensor_row",
    "non_finite_data_cell", "non_finite_prediction_cell",
    "non_finite_tensor_cell", "empty_numeric_cell", "empty_categorical_cell",
    "predictions_only_row_id", "empty_protected_list",
    "non_utf8_data", "repeated_header_name",
    "width_after_bad_cell", "empty_cell_before_late_word",
    "late_non_numeric_outcome", "first_of_two_bad_cells",
    "tensor_word_after_non_finite",
]


@pytest.mark.parametrize("case", BAD_INPUT_CASES)
def test_bad_input_exits_2_with_one_line(case, tmp_path, capsys):
    argv, words = _bad_input(case, tmp_path)
    rc = main(argv)
    err = capsys.readouterr().err.strip().splitlines()
    assert rc == 2
    assert len(err) == 1, err
    for word in words:
        assert word in err[0], (word, err[0])


@pytest.mark.parametrize("block_rows", [1, 2, 3])
@pytest.mark.parametrize("case", BAD_INPUT_CASES)
def test_bad_input_in_small_blocks(case, block_rows, tmp_path, capsys, monkeypatch):
    # every diagnostic names the same cell when blocks end next to it
    monkeypatch.setattr(cli, "BLOCK_ROWS", block_rows)
    test_bad_input_exits_2_with_one_line(case, tmp_path, capsys)


@pytest.mark.parametrize("block_rows", [1, 2, 1024])
@pytest.mark.parametrize("first, second, what", [
    ("abc", "xyz", "non-numeric cell 'abc'"),
    ("inf", "", "non-finite cell 'inf'"),
], ids=["non_number", "non_finite"])
def test_tensor_names_its_first_bad_cell_in_row_major_order(first, second, what, block_rows,
                                                           tmp_path, monkeypatch):
    # the last cell of data row 1 comes before the first cell of data row 2
    monkeypatch.setattr(cli, "BLOCK_ROWS", block_rows)
    rows = [["#dims 4 2 3"]] + [["1"] * 6 for _ in range(4)]
    rows[2][5], rows[3][0] = first, second
    path = tmp_path / "t.csv"
    _write_rows(path, rows)
    with pytest.raises(cli.CliError) as exc:
        read_tensor(str(path))
    assert str(exc.value) == f"tensor file {path} contains {what} (row 3)"


def _usage_files(tmp_path):
    """A 6-row data file, copies of it without the feature column, with a
    bad protected cell, without data rows and without any line, 5-row tensor
    and predictions files, two bad tensor heads, four invalid grid cells and
    two grid files that hold no list of cells."""
    rows = [["z0", "x0", "y"]] + [[str(k), str(k % 2), str(k % 3)] for k in range(6)]
    _write_rows(tmp_path / "data.csv", rows)
    _write_rows(tmp_path / "no_features.csv", [r[1:] for r in rows])
    _write_rows(tmp_path / "header_only.csv", rows[:1])
    (tmp_path / "empty.csv").write_bytes(b"")
    rows[3][1] = "nan"
    _write_rows(tmp_path / "bad.csv", rows)
    _write_rows(tmp_path / "tensor.csv", [["#dims 5 2"]] + [["1", "2"]] * 5)
    _write_rows(tmp_path / "no_dims.csv", [["1", "2"]] * 6)
    _write_rows(tmp_path / "one_dim.csv", [["#dims 5"]] + [["1"]] * 5)
    _write_rows(tmp_path / "preds.csv", [["row_id", "y_hat"]] + [[k, "0.5"] for k in range(5)])
    for name, cell in [("n0", {"n": 0, "p": 1, "q": 2}), ("p_above_q", {"n": 60, "p": 3, "q": 2}),
                       ("n_at_p_plus_q", {"n": 62, "p": 2, "q": 60}),
                       ("family", {"n": 60, "p": 1, "q": 2, "family": "gamma"})]:
        # the valid first cell must not run before the invalid one is named
        (tmp_path / f"{name}.json").write_text(json.dumps([{"n": 60, "p": 1, "q": 2}, cell]))
    (tmp_path / "empty_list.json").write_text("[]")
    (tmp_path / "object.json").write_text("{}")


TENSOR_ARGV = ["correct", "--data", "{tmp}/data.csv", "--protected", "x0", "--method", "tensor"]
LINEAR_ARGV = ["correct", "--outcome", "y", "--protected", "x0", "--method", "linear", "--data"]


@pytest.mark.parametrize("argv, line", [
    (["correct", "--data", "{tmp}/data.csv", "--protected", "x0", "--method", "linear"],
     "--outcome is required unless method=tensor"),
    # the outcome rule comes before the --protected list is read
    (["correct", "--data", "{tmp}/data.csv", "--protected", ","],
     "--outcome is required unless method=tensor"),
    (TENSOR_ARGV, "--tensor <file> is required for method=tensor"),
    # the tensor file is asked for before the data file is read
    (["correct", "--data", "{tmp}/bad.csv", "--protected", "x0", "--method", "tensor"],
     "--tensor <file> is required for method=tensor"),
    (["correct", "--data", "{tmp}/missing.csv", "--protected", "x0", "--method", "tensor"],
     "--tensor <file> is required for method=tensor"),
    (TENSOR_ARGV + ["--tensor", "{tmp}/tensor.csv"], "tensor rows do not match data rows"),
    (["correct", "--data", "{tmp}/no_features.csv", "--outcome", "y", "--protected", "x0"],
     "no feature columns remain after outcome/protected removal"),
    (["evaluate", "--predictions", "{tmp}/preds.csv", "--protected-data", "{tmp}/data.csv",
      "--protected", "x0"], "predictions and protected data differ in row count"),
    (LINEAR_ARGV + ["{tmp}/empty.csv"], "{tmp}/empty.csv is empty"),
    (LINEAR_ARGV + ["{tmp}/header_only.csv"], "{tmp}/header_only.csv has a header but no data rows"),
    (TENSOR_ARGV + ["--tensor", "{tmp}/no_dims.csv"],
     "{tmp}/no_dims.csv: first row must be '#dims n d1 ... dR'"),
    (TENSOR_ARGV + ["--tensor", "{tmp}/one_dim.csv"], "{tmp}/one_dim.csv: need at least two dims"),
    (["simulate", "--grid", "{tmp}/n0.json"],
     "bad grid cell {{'n': 0, 'p': 1, 'q': 2}}: n must be >= 1, got 0"),
    (["simulate", "--grid", "{tmp}/p_above_q.json"],
     "bad grid cell {{'n': 60, 'p': 3, 'q': 2}}: need 1 <= p <= q, got p=3, q=2"),
    (["simulate", "--grid", "{tmp}/n_at_p_plus_q.json"], "need n > p + q, got n=62, p=2, q=60"),
    (["simulate", "--grid", "{tmp}/family.json"],
     "bad grid cell {{'n': 60, 'p': 1, 'q': 2, 'family': 'gamma'}}: "
     "unknown family 'gamma'; expected one of ['bernoulli', 'gaussian', 'poisson']"),
    (["simulate", "--grid", "{tmp}/empty_list.json"], "grid JSON must be a non-empty list of cells"),
    (["simulate", "--grid", "{tmp}/object.json"], "grid JSON must be a non-empty list of cells"),
    (["simulate", "--grid", "appendix-g-bernoulli", "--replicates", "0"],
     "replicates must be >= 1"),
], ids=["no_outcome", "no_outcome_empty_protected", "tensor_without_file",
        "tensor_without_file_bad_cell", "tensor_without_file_missing_data", "tensor_rows",
        "no_features", "evaluate_rows", "empty_data", "header_only_data",
        "tensor_without_dims", "tensor_one_dim", "grid_n0", "grid_p_above_q",
        "grid_n_at_p_plus_q", "grid_family", "grid_empty_list", "grid_object",
        "zero_replicates"])
def test_usage_rule_exits_2_with_its_line(argv, line, tmp_path, capsys):
    _usage_files(tmp_path)
    out = tmp_path / "out"
    assert main([a.format(tmp=tmp_path) for a in argv] + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {line.format(tmp=tmp_path)}\n"
    assert not out.exists()


def test_unreadable_data_exits_2_naming_it(tmp_path, capsys):
    # a directory passes argparse but cannot be opened as a file
    out = tmp_path / "out"
    assert main(LINEAR_ARGV + [str(tmp_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: cannot read {tmp_path}: ")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["correct", "--data", "{data}", "--outcome", "y", "--protected", ","],
    ["evaluate", "--predictions", "{data}", "--prediction-column", "nope",
     "--protected-data", "{data}"],
    ["simulate", "--grid", "{tmp}/missing.json"],
    ["demo", "--which", "nope"],
], ids=["correct", "evaluate", "simulate", "demo"])
def test_refused_command_leaves_no_out_directory(argv, bernoulli_csv, tmp_path, capsys):
    data, _ = bernoulli_csv
    out = tmp_path / "out"
    args = [a.format(data=data, tmp=tmp_path) for a in argv]
    assert main(args + ["--out", str(out)]) == 2
    assert len(capsys.readouterr().err.strip().splitlines()) == 1
    assert not out.exists()


class TestReaderParity:
    """Files without quotes or bare CRs are split directly; the others go
    through csv.reader.  Both must read the same table."""

    STYLES = ("lf", "crlf", "cr", "quote_all")

    def table(self, levels):
        rng = np.random.Generator(np.random.Philox(key=26))
        rows = [["z0", "z1", "region", "sex", "y"]]
        for i in range(90):
            z = rng.standard_normal(2)
            y = z[0] + rng.standard_normal()
            rows.append([f"{z[0]:.17g}", f"{z[1]:.17g}", levels[i % 3],
                         "FM"[int(rng.random() < 0.5)], f"{y:.17g}"])
        return rows

    def write(self, path, rows, style):
        if style == "quote_all":
            with open(path, "w", newline="") as fh:
                csv.writer(fh, quoting=csv.QUOTE_ALL).writerows(rows)
        else:
            end = {"lf": "\n", "crlf": "\r\n", "cr": "\r"}[style]
            path.write_text("".join(",".join(r) + end for r in rows), newline="")

    def run(self, data, out):
        assert main(["correct", "--data", str(data), "--outcome", "y",
                     "--protected", "sex", "--family", "gaussian",
                     "--method", "linear", "--out", str(out)]) == 0
        assert main(["evaluate", "--predictions", str(out / "corrected_predictions.csv"),
                     "--protected-data", str(data), "--protected", "sex,region",
                     "--family", "gaussian", "--out", str(out / "eval")]) == 0
        return {f.relative_to(out): f.read_bytes() for f in sorted(out.rglob("*.*"))}

    def test_line_ends_and_quoting_give_identical_outputs(self, tmp_path, capsys):
        rows = self.table(["Boston", "Chicago", "Denver"])
        outputs = {}
        for style in self.STYLES:
            data = tmp_path / f"{style}.csv"
            self.write(data, rows, style)
            outputs[style] = (self.run(data, tmp_path / style), capsys.readouterr().out)
        assert all(outputs[style] == outputs["lf"] for style in self.STYLES)
        assert (tmp_path / "crlf.csv").read_bytes().count(b"\r\n") == len(rows)
        assert b'"' in (tmp_path / "quote_all.csv").read_bytes()

    def test_byte_order_mark_is_skipped(self, tmp_path, capsys):
        # spreadsheet "CSV UTF-8" exports start with EF BB BF
        rows = self.table(["Boston", "Chicago", "Denver"])
        rng = np.random.Generator(np.random.Philox(key=27))
        tensor = rng.standard_normal((len(rows) - 1, 2, 3))
        outputs = {}
        for bom in (b"", b"\xef\xbb\xbf"):
            tag = "bom" if bom else "plain"
            data, tfile = tmp_path / f"{tag}.csv", tmp_path / f"{tag}_t.csv"
            self.write(data, rows, "lf")
            write_tensor(tfile, tensor)
            for path in (data, tfile):
                path.write_bytes(bom + path.read_bytes())
            out = tmp_path / tag
            assert main(["correct", "--data", str(data), "--protected", "z0,sex",
                         "--method", "tensor", "--tensor", str(tfile),
                         "--out", str(out / "tensor")]) == 0
            outputs[tag] = (self.run(data, out), capsys.readouterr().out)
        assert outputs["bom"] == outputs["plain"]
        assert (tmp_path / "bom.csv").read_bytes().startswith(b"\xef\xbb\xbfz0,")
        # a decoding error still names the file's own byte offset
        data.write_bytes(b"\xef\xbb\xbfz0,y\n1,\xff\n")
        assert main(["correct", "--data", str(data), "--outcome", "y",
                     "--protected", "z0", "--out", str(tmp_path / "o")]) == 2
        assert "(byte 10:" in capsys.readouterr().err

    def test_quoted_level_with_comma(self, tmp_path, capsys):
        data = tmp_path / "quoted.csv"
        self.write(data, self.table(["Boston", "New York, NY", "Chicago"]), "quote_all")
        self.run(data, tmp_path / "out")
        text = (tmp_path / "out" / "coefficients.csv").read_bytes()
        assert b'\r\n"region=New York, NY",' in text
        assert b"\r\nregion=Chicago," in text
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["reference_levels"] == {"sex": "F", "region": "Boston"}

    @pytest.mark.parametrize("defect", ["ragged_row", "blank_line"])
    def test_width_diagnostics_match(self, defect, tmp_path, capsys):
        rows = self.table(["Boston", "Chicago", "Denver"])
        if defect == "ragged_row":
            rows[7].append("1.5")
        else:
            rows[11] = []
        errors = {}
        for style in self.STYLES:
            data = tmp_path / f"{style}.csv"
            self.write(data, rows, style)
            assert main(["correct", "--data", str(data), "--outcome", "y",
                         "--protected", "sex", "--method", "linear",
                         "--out", str(tmp_path / "o")]) == 2
            errors[style] = capsys.readouterr().err.replace(str(data), "DATA")
        cells = 6 if defect == "ragged_row" else 0
        row = 8 if defect == "ragged_row" else 12
        expected = f"error: DATA row {row} has {cells} cells, expected 5\n"
        assert errors == dict.fromkeys(errors, expected)

    @pytest.mark.parametrize("block_rows", [1, 2, 3])
    @pytest.mark.parametrize("defect", ["ragged_row", "blank_line"])
    def test_width_diagnostics_in_small_blocks(self, defect, block_rows, tmp_path,
                                               capsys, monkeypatch):
        monkeypatch.setattr(cli, "BLOCK_ROWS", block_rows)
        self.test_width_diagnostics_match(defect, tmp_path, capsys)


def _oracle_table(path):
    """``encode_columns`` over every column, computed cell by cell from
    ``csv.reader`` and ``float``."""
    with open(path, encoding="utf-8-sig", newline="") as fh:
        header, *rows = csv.reader(fh)
    cols, names, refs = [], [], {}
    for j, name in enumerate(header):
        cells = [row[j] for row in rows]
        try:
            cols.append(np.array([float(c) for c in cells]))
            names.append(name)
        except ValueError:
            levels = sorted(set(cells))
            refs[name] = levels[0]
            cols.append(np.array([[float(c == v) for v in levels[1:]] for c in cells]))
            names.extend(f"{name}={v}" for v in levels[1:])
    return np.column_stack(cols), names, refs


def _oracle_tensor(path):
    with open(path, encoding="utf-8-sig", newline="") as fh:
        (head,), *rows = csv.reader(fh)
    dims = tuple(int(v) for v in head.split()[1:])
    return np.array([[float(c) for c in row] for row in rows]).reshape(dims)


class TestDecoderOracle:
    """The block decoder returns bitwise what a cell-by-cell reference
    computes, whatever the block size and however the file is written."""

    STYLES = ("lf", "crlf", "cr", "bom", "quoted")

    def files(self, tmp_path, style):
        rng = np.random.Generator(np.random.Philox(key=32))
        n = 40
        city = ["Boston", "Denver", "New York, NY" if style == "quoted" else "Austin"]
        rows = [["num", "int", "city", "late", "wide", "y"]] + [
            [f"{rng.standard_normal():.17g}", str(int(rng.integers(-5, 5))),
             city[k % 3], "inf" if k == 0 else ("word" if k == 5 else f"{k % 4}.0"),
             f"{rng.standard_normal() * 10.0 ** int(rng.integers(-300, 300)):.17g}",
             f"{rng.random():.17g}"]
            for k in range(n)
        ]
        tensor = [[f"#dims {n} 2 3"]] + [
            [f"{v:.17g}" for v in rng.standard_normal(6) * 1e10] for _ in range(n)
        ]
        paths = tmp_path / f"{style}.csv", tmp_path / f"{style}_t.csv"
        for path, content in zip(paths, (rows, tensor)):
            if style == "quoted":
                with open(path, "w", newline="") as fh:
                    csv.writer(fh, quoting=csv.QUOTE_ALL).writerows(content)
                continue
            end = "\r\n" if style == "crlf" else "\r" if style == "cr" else "\n"
            text = "".join(",".join(row) + end for row in content)
            path.write_bytes(("\ufeff" if style == "bom" else "").encode() + text.encode())
        return paths

    @pytest.mark.parametrize("block_rows", [None, 1, 2, 3, 7])
    @pytest.mark.parametrize("style", STYLES)
    def test_bitwise_equal_to_reference(self, style, block_rows, tmp_path, monkeypatch):
        if block_rows is not None:
            monkeypatch.setattr(cli, "BLOCK_ROWS", block_rows)
        data, tfile = self.files(tmp_path, style)
        header, body = cli.read_table(str(data))
        matrix, names, refs = cli.encode_columns(header, body, header)
        want, want_names, want_refs = _oracle_table(data)
        assert (names, refs) == (want_names, want_refs)
        assert matrix.dtype == want.dtype and matrix.shape == want.shape
        assert matrix.tobytes() == want.tobytes()
        # 'late' has inf in block 0 and, at 2 rows a block, a word in block 2
        assert refs["late"] == "0.0" and "late=inf" in names and "late=word" in names
        assert ("city=New York, NY" in names) is (style == "quoted")
        tensor, want = read_tensor(str(tfile)), _oracle_tensor(tfile)
        assert tensor.shape == want.shape and tensor.tobytes() == want.tobytes()


def test_reader_holds_one_block_of_cells(tmp_path):
    """``read_table`` + ``encode_columns`` hold the file's text and lines,
    the decoded columns, the encoded matrix and one block of cells, never
    a str for every cell of the file."""
    rng = np.random.Generator(np.random.Philox(key=33))
    n, width = 20_000, 13
    f = rng.standard_normal((n, 8))
    codes = rng.integers(0, 4, (n, 3))
    header = [f"f{j}" for j in range(8)] + ["region", "sex", "group", "age", "y"]
    lines = [",".join(header)] + [
        ",".join(f"{v:.6f}" for v in f[i])
        + f",r{codes[i, 0]},{'FM'[codes[i, 1] % 2]},g{codes[i, 2]},{20 + i % 50}.5,{i % 2}"
        for i in range(n)
    ]
    path = tmp_path / "wide.csv"
    path.write_text("\n".join(lines) + "\n")
    text_bytes = sys.getsizeof(path.read_text())
    line_bytes = sum(map(sys.getsizeof, lines)) + sys.getsizeof(lines)
    # a block's joined text, and each of its cells with its list slot
    row_bytes = sys.getsizeof(lines[1]) + sum(sys.getsizeof(c) + 8 for c in lines[1].split(","))
    del lines
    tracemalloc.start()
    try:
        names, body = cli.read_table(str(path))
        matrix = cli.encode_columns(names, body, names)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    decoded = width * n * 8  # one float64 or code per cell
    # the encoded matrix, counted twice as slack for its index arrays
    bound = text_bytes + line_bytes + decoded + 2 * matrix.nbytes + cli.BLOCK_ROWS * row_bytes
    # about 14 MB here; a str for every cell alone would take about 17 MB
    assert peak < bound, (peak, bound)


def test_one_hot_memory_is_rows_times_levels(tmp_path):
    """A categorical column of n rows and L levels encodes into its n by
    (L - 1) float64 block and index arrays of its rows: no L by L identity."""
    n = levels = 3000
    path = tmp_path / "many_levels.csv"
    path.write_text("v,grp\n" + "".join(f"{i % 7},c{(i * 7) % levels:04d}\n" for i in range(n)))
    header, body = cli.read_table(str(path))
    tracemalloc.start()
    try:
        matrix, names, _ = cli.encode_columns(header, body, ["grp"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert matrix.shape == (n, levels - 1) and len(names) == levels - 1
    np.testing.assert_array_equal(matrix.sum(axis=1), np.arange(n) * 7 % levels > 0)
    # n * (L - 1) * 8 = 72 MB for the block; 1 MB covers the names and the
    # index arrays.  np.eye(L) would add L * L * 8 = 72 MB more.
    bound = n * (levels - 1) * 8 + 2**20
    assert peak < bound, (peak, bound)


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

    def test_constant_gaussian_predictions_exit_2_with_one_line(self, gaussian_csv,
                                                                tmp_path, capsys):
        # a constant response has rounding-noise residuals: no Wald test
        path, _ = gaussian_csv
        preds = tmp_path / "preds.csv"
        _write_rows(preds, [["row_id", "y_hat"]] + [[i, "3"] for i in range(200)])
        rc = main([
            "evaluate", "--predictions", str(preds), "--protected-data", str(path),
            "--protected", "x0,x1", "--family", "gaussian", "--out", str(tmp_path / "ev"),
        ])
        err = capsys.readouterr().err.strip().splitlines()
        assert rc == 2
        assert len(err) == 1 and "exact affine function of the design" in err[0], err

    def test_unconverged_fit_fails_every_coefficient_exit_3(self, tmp_path, capsys):
        # predictions equal to a binary protected column separate the
        # evaluation GLM: its slope diverges and its Wald p-value is large,
        # though the column explains the predictions perfectly
        g = np.random.default_rng(5)
        s = (g.random(200) < 0.5).astype(float)
        age = g.standard_normal(200)
        data = tmp_path / "data.csv"
        _write_rows(data, [["s", "age"]] + [[f"{a:.17g}", f"{b:.17g}"]
                                            for a, b in zip(s, age)])
        preds = tmp_path / "preds.csv"
        _write_rows(preds, [["row_id", "y_hat"]] + [[i, f"{v:.17g}"]
                                                    for i, v in enumerate(s)])
        out = tmp_path / "ev"
        rc = main([
            "evaluate", "--predictions", str(preds), "--protected-data", str(data),
            "--family", "bernoulli", "--out", str(out),
        ])
        lines = capsys.readouterr().out.strip().splitlines()
        assert rc == 3
        assert [line.split(":")[0] for line in lines] == ["s", "age"]
        assert all(line.endswith("FAIL") for line in lines)
        with open(out / "evaluation.csv") as fh:
            assert len(list(csv.reader(fh))) == 3

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

    def test_relu_uncertified_fit_exits_3(self, gaussian_csv, tmp_path, capsys,
                                          monkeypatch):
        # the projection-corrected predictions are certified; reported
        # uncertified, the same fit writes the same table and line and exits 3
        path, _ = gaussian_csv
        main(["correct", "--data", str(path), "--outcome", "y", "--protected", "x0,x1",
              "--family", "gaussian", "--method", "relu", "--out", str(tmp_path / "c")])
        ev = ["evaluate", "--predictions", str(tmp_path / "c" / "corrected_predictions.csv"),
              "--protected-data", str(path), "--protected", "x0,x1", "--relu"]
        capsys.readouterr()
        assert main(ev + ["--out", str(tmp_path / "certified")]) == 0
        certified = capsys.readouterr().out
        monkeypatch.setattr(cli, "evaluate_relu_l2", lambda *a: dataclasses.replace(
            evaluate_relu_l2(*a), converged=False, stop_reason="reached max_iter=500"))
        assert main(ev + ["--out", str(tmp_path / "uncertified")]) == 3
        assert capsys.readouterr().out == certified
        assert ((tmp_path / "certified" / "evaluation.csv").read_bytes()
                == (tmp_path / "uncertified" / "evaluation.csv").read_bytes())
        monkeypatch.undo()
        # the raw response's best start stops at a kink of the rectifier
        raw = ["evaluate", "--predictions", str(path), "--prediction-column", "y",
               "--protected-data", str(path), "--protected", "x0,x1", "--relu"]
        assert main(raw + ["--out", str(tmp_path / "raw")]) == 3
        assert (tmp_path / "raw" / "evaluation.csv").exists()


def _collinear_files(tmp_path):
    """A CSV whose numeric 'male' is the indicator of level 'M' of the
    categorical 'sex', whose 'age2' repeats 'age' and whose 'zero' is 0,
    with a predictions file and a tensor file of the same rows."""
    rng = np.random.Generator(np.random.Philox(key=26))
    n = 80
    sex = rng.choice(["F", "M"], size=n)
    age = rng.integers(20, 70, size=n)
    rows = [["z0", "z1", "sex", "male", "age", "age2", "zero", "y"]] + [
        [f"{v:.17g}" for v in rng.standard_normal(2)]
        + [sex[i], str(int(sex[i] == "M")), str(age[i]), str(age[i]), "0",
           str(int(rng.random() < 0.5))]
        for i in range(n)
    ]
    preds = [["row_id", "y_hat"]] + [[str(i), f"{rng.uniform(0.2, 0.8):.17g}"]
                                     for i in range(n)]
    tensor = [[f"#dims {n} 2"]] + [[f"{v:.17g}" for v in rng.standard_normal(2)]
                                   for _ in range(n)]
    paths = [tmp_path / f for f in ("data.csv", "preds.csv", "tensor.csv")]
    for path, content in zip(paths, (rows, preds, tensor)):
        _write_rows(path, content)
    return paths


class TestDependentColumnNamed:
    """A protected (or feature) column that is a linear combination of the
    columns before it exits 2 with one line naming it."""

    @pytest.mark.parametrize("command, protected, message", [
        ("linear", "sex,male,age", "protected column 'male' is a linear "
         "combination of the intercept and earlier protected columns"),
        ("relu", "sex,male,age", "protected column 'male'"),
        ("evaluate", "sex,male,age", "protected column 'male' is a linear "
         "combination of the intercept and earlier protected columns"),
        ("evaluate", "male,age,sex", "protected column 'sex=M'"),
        ("linear", "age,age2", "protected column 'age2'"),
        ("evaluate", "age,age2", "protected column 'age2'"),
        ("tensor", "sex,male", "protected column 'male' is a linear "
         "combination of earlier protected columns"),
        # the features sex=M and male coincide after projection
        ("linear", "age", "feature column 'male' is a linear combination of "
         "the intercept, the protected columns and earlier feature columns"),
        ("tensor", "zero,age", "column 'zero' is numerically zero next to "
         "the largest protected column"),
    ])
    def test_exits_2_naming_the_column(self, command, protected, message,
                                       tmp_path, capsys):
        data, preds, tensor = _collinear_files(tmp_path)
        out = str(tmp_path / "o")
        if command == "evaluate":
            argv = ["evaluate", "--predictions", str(preds),
                    "--protected-data", str(data), "--protected", protected,
                    "--family", "bernoulli", "--out", out]
        else:
            argv = ["correct", "--data", str(data), "--protected", protected,
                    "--method", command, "--out", out]
            argv += (["--tensor", str(tensor)] if command == "tensor"
                     else ["--outcome", "y", "--family", "bernoulli"])
        rc = main(argv)
        err = capsys.readouterr().err.strip().splitlines()
        assert rc == 2
        assert len(err) == 1, err
        assert message in err[0], err[0]

    def test_too_few_rows_name_no_column(self, tmp_path, capsys):
        # 3 rows cannot fit 5 design columns: a shape error, which names no
        # column
        rows = [["z0", "z1", "z2", "z3", "x0", "y"], ["1", "2", "3", "4", "1", "0.5"],
                ["2", "1", "5", "3", "0", "0.1"], ["4", "3", "2", "8", "1", "0.9"]]
        _write_rows(tmp_path / "data.csv", rows)
        rc = main(["correct", "--data", str(tmp_path / "data.csv"), "--outcome", "y",
                   "--protected", "x0", "--family", "gaussian", "--method", "linear",
                   "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err.strip()
        assert rc == 2
        assert err == "error: DimensionMismatch: need n >= p, got n=3 < p=5"

    def test_constrained_fit_drops_the_implied_constraint(self, tmp_path):
        data, _, _ = _collinear_files(tmp_path)
        rc = main([
            "correct", "--data", str(data), "--outcome", "y",
            "--protected", "sex,male,age", "--family", "bernoulli",
            "--method", "glm-constrained", "--out", str(tmp_path / "o"),
        ])
        assert rc == 0


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

    def test_summary_reports_unconverged_rows(self, tmp_path):
        # a quasi-separated cell: the five constrained rows are not pooled
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps(
            [{"family": "bernoulli", "n": 200, "p": 5, "q": 100, "seed": 0}]
        ))
        out = tmp_path / "sim"
        rc = main(["simulate", "--grid", str(grid), "--replicates", "1",
                   "--out", str(out)])
        assert rc == 0
        with open(out / "summary.csv", newline="", encoding="utf-8") as fh:
            summary = {r["method"]: r for r in csv.DictReader(fh)}
        assert list(summary["ch"]) == list(SUMMARY_COLUMNS)
        assert summary["ch"]["median_p_value"] == ""
        assert (summary["ch"]["rows"], summary["ch"]["unconverged"]) == ("0", "5")
        assert summary["uncorrected"]["unconverged"] == "5"

    def test_cell_of_error_rows_has_no_summary_row(self, tmp_path, capsys):
        # a protected feature 1e12 times a feature column: [1, X] is rank
        # deficient, every method's evaluation raises, and error rows are
        # pooled nowhere; both files are written, and the cell without an
        # estimate is named on stderr and exits 3
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps([{"n": 40, "p": 1, "q": 3, "rho": 1e12}]))
        out = tmp_path / "sim"
        rc = main(["simulate", "--grid", str(grid), "--replicates", "1",
                   "--out", str(out)])
        assert rc == 3
        assert capsys.readouterr().err.splitlines() == [
            "no estimate in cell family=bernoulli n=40 p=1 q=3 rho=1000000000000.0: "
            "RankDeficient: matrix is rank deficient at column 0"]
        with open(out / "study.csv", newline="", encoding="utf-8") as fh:
            study = list(csv.DictReader(fh))
        assert [r["method"] for r in study] == ["uncorrected", "cl", "ch"]
        assert all(r["error"].startswith("RankDeficient: ") for r in study)
        summary = (out / "summary.csv").read_text(encoding="utf-8")
        assert summary.splitlines() == [",".join(SUMMARY_COLUMNS)]

    def test_only_the_cell_without_an_estimate_is_named(self, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        good = {"n": 40, "p": 1, "q": 3}
        grid.write_text(json.dumps([{**good, "rho": 1e12}, good]))
        rc = main(["simulate", "--grid", str(grid), "--replicates", "2",
                   "--out", str(tmp_path / "both")])
        assert rc == 3
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("no estimate in cell family=bernoulli n=40 p=1 q=3 "
                               "rho=1000000000000.0: RankDeficient: ")
        grid.write_text(json.dumps([good]))
        rc = main(["simulate", "--grid", str(grid), "--replicates", "2",
                   "--out", str(tmp_path / "good")])
        assert rc == 0
        assert capsys.readouterr().err == ""

    def test_repeated_cell_exits_2_naming_it(self, tmp_path, capsys):
        # study.csv and summary.csv carry no seed: two seeds of one cell
        # would write rows with the same cell and replicate numbers
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps([{"n": 40, "p": 1, "q": 3, "seed": 1},
                                    {"n": 40, "p": 1, "q": 3, "seed": 2}]))
        out = tmp_path / "sim"
        rc = main(["simulate", "--grid", str(grid), "--replicates", "2", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: repeated cell family=bernoulli n=40 p=1 q=3 rho=2.0; "
            "replicates repeat a cell\n")
        assert not out.exists()

    def test_byte_identical_reruns(self, tmp_path):
        grid = self.grid_file(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--grid", str(grid), "--replicates", "2",
              "--seed", "5", "--out", str(out_a)])
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

    def test_overflowing_grid_cell_exits_2(self, tmp_path, capsys):
        # JSON reads 1e400 as inf, which no integer holds; a boolean or a
        # fraction would be truncated to an integer
        for k, cell in enumerate([
            '{"n": 1e400, "p": 1, "q": 2}',
            '{"n": 60.9, "p": 1, "q": 2, "seed": 1.5, "rho": true}',
            '{"n": 60, "p": 1.5, "q": 2}', '{"n": 60, "p": 1, "q": 2.5}',
            '{"n": 60, "p": 1, "q": 2, "seed": 1.5}', '{"n": 60, "p": 1, "q": 2, "rho": true}',
            '{"n": true, "p": 1, "q": 2}',
            # a quoted number is text, not a number
            '{"n": "60", "p": " 1", "q": 2, "rho": "2"}', '{"n": 60, "p": 1, "q": 2, "rho": "2"}',
            '{"n": 60, "p": 1, "q": 2, "seed": "3"}',
            # an unknown key, a missing key, an integral float, a cell that
            # is not an object and an integer rho no float holds
            '{"n": 60, "p": 1, "q": 2, "rhoo": 0.0}', '{"n": 60, "p": 1}',
            '{"n": 60.0, "p": 1, "q": 2}', '7',
            '{"n": 60, "p": 1, "q": 2, "rho": 1' + "0" * 400 + "}",
        ]):
            bad = tmp_path / f"bad{k}.json"
            bad.write_text(f"[{cell}]")
            out = tmp_path / f"o{k}"
            rc = main(["simulate", "--grid", str(bad), "--out", str(out)])
            assert rc == 2, cell
            err = capsys.readouterr().err.strip().splitlines()
            assert len(err) == 1 and "bad grid cell" in err[0]
            assert not out.exists()


class TestDemoCommand:
    def test_figure1_demo(self, tmp_path, capsys):
        out = tmp_path / "demo"
        rc = main(["demo", "--which", "figure1", "--seed", "0", "--out", str(out)])
        assert rc == 0
        assert (out / "trajectory.csv").exists()
        final_line = capsys.readouterr().out
        corr = float(final_line.strip().split()[-1])
        assert abs(corr) <= 0.01

    def test_online_demo_reruns_byte_identical(self, tmp_path, capsys):
        outputs = []
        for run in ("a", "b"):
            out = tmp_path / run
            rc = main(["demo", "--which", "online", "--seed", "0", "--out", str(out)])
            assert rc == 0
            outputs.append(((out / "metrics.csv").read_bytes(), capsys.readouterr().out))
        assert outputs[0] == outputs[1]
        metrics, stdout = outputs[0]
        lines = metrics.decode().splitlines()
        assert lines[0] == "model,epoch,split,accuracy,constraint_residual"
        assert len(lines) == 1 + 2 * 60 * 3
        assert stdout.startswith("test accuracy: uncorrected=")

    def test_unknown_demo_exits_2(self, tmp_path, capsys):
        rc = main(["demo", "--which", "nope", "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "nope" in capsys.readouterr().err
