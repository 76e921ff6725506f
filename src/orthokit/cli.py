"""Command-line interface.

Four subcommands: ``correct`` (fit and correct a model on a CSV dataset),
``evaluate`` (test whether protected features explain given predictions),
``simulate`` (run the synthetic study grid), and ``demo`` (the two built-in
demonstrations).  All outputs are CSV/JSON, floats are rendered with 17
significant digits, and every command is a pure function of its inputs,
flags, and seed.

Input files go through one CSV reader (every data row has the header's
width) and one decoder that parses a column into float64 in one pass.  A
column is numeric when its non-empty cells are all numbers, categorical
(one-hot encoded) otherwise; an empty or non-finite cell where a number is
required is an error naming its column (or file) and row.

Exit codes: 0 success, 2 usage/validation error, 3 non-convergence (the
report is still written).
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import operator
import sys
from pathlib import Path

import numpy as np

from .correct import (
    ConstrainedConfig,
    augment_intercept,
    correct_features_linear,
    fit_constrained_glm,
)
from .errors import OrthokitError
from .evalmodel import evaluate_glm, evaluate_relu_l2
from .glm import ALPHA, family_by_name, fit_glm
from .online import MlpConfig, accuracy_by_split, make_confounded_data, train_mlp
from .synth import SyntheticSpec, _fmt, _write_csv, figure1_demo, simulation_study


class CliError(Exception):
    """Usage or validation failure (exit code 2)."""


# ---------------------------------------------------------------------------
# CSV and tensor files


def _read_rows(path):
    """Every row of a CSV file as a list of cells."""
    try:
        with open(path, newline="") as fh:
            return list(csv.reader(fh))
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}")


def _check_widths(path, body, width) -> None:
    """Every data row (file row 2 onwards) must hold ``width`` cells."""
    for i, row in enumerate(body):
        if len(row) != width:
            raise CliError(f"{path} row {i + 2} has {len(row)} cells, expected {width}")


class _NonNumeric(CliError):
    """A cell that is not a number: a categorical column to ``encode_columns``."""


def _decode(cells, where, width=1):
    """Parse ``cells`` (``width`` per data row) into float64 in one pass.

    A cell that is not a finite number is an error naming ``where`` and the
    cell's file row.  Empty cells parse as nan, so that a numeric column
    with a hole is reported as one rather than read as categorical.
    """
    filled = [c or "nan" for c in cells] if "" in cells else cells
    rest = iter(filled)
    try:
        values = np.fromiter(map(float, rest), float, len(filled))
    except ValueError:
        i = len(filled) - operator.length_hint(rest) - 1  # the cell float() refused
        raise _NonNumeric(
            f"{where} contains non-numeric cell {cells[i]!r} (row {i // width + 2})"
        )
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        i = int(bad[0])
        cell = f"non-finite cell {cells[i]!r}" if cells[i] else "an empty cell"
        raise CliError(f"{where} contains {cell} (row {i // width + 2})")
    return values


def read_table(path: str):
    """Read a CSV with header; returns (column names, list of row lists)."""
    rows = _read_rows(path)
    if not rows:
        raise CliError(f"{path} is empty")
    header, body = rows[0], rows[1:]
    if not body:
        raise CliError(f"{path} has a header but no data rows")
    _check_widths(path, body, len(header))
    return header, body


def _column(header, body, name):
    return list(map(operator.itemgetter(header.index(name)), body))


def encode_columns(header, body, wanted):
    """Numeric passthrough or one-hot encoding for the requested columns.

    A column is numeric when every cell is a number, empty cells aside;
    otherwise it is categorical and one-hot encoded with the
    lexicographically first level dropped as the reference.  Returns
    ``(matrix, encoded names, reference levels dict)``.
    """
    cols, names, refs = [], [], {}
    for name in wanted:
        if name not in header:
            raise CliError(f"column {name!r} not found in input")
        cells = _column(header, body, name)
        try:
            cols.append(_decode(cells, f"column {name!r}"))
        except _NonNumeric:
            levels, codes = np.unique(cells, return_inverse=True)
            if len(levels) < 2:
                raise CliError(f"categorical column {name!r} has a single level")
            refs[name] = str(levels[0])
            cols.append(np.eye(len(levels))[codes, 1:])
            names.extend(f"{name}={level}" for level in levels[1:])
            continue
        names.append(name)
    return np.column_stack(cols), names, refs


def read_tensor(path: str):
    """Read a tensor file: '#dims n d1 ... dR' then the n-by-d matricization."""
    rows = _read_rows(path)
    if not rows or not rows[0] or not rows[0][0].startswith("#dims"):
        raise CliError(f"{path}: first row must be '#dims n d1 ... dR'")
    head = " ".join(rows[0]).split()
    try:
        dims = tuple(int(v) for v in head[1:])
    except ValueError:
        raise CliError(f"{path}: malformed dims line")
    if len(dims) < 2:
        raise CliError(f"{path}: need at least two dims")
    body = rows[1:]
    if len(body) != dims[0]:
        raise CliError(f"{path}: expected {dims[0]} data rows, got {len(body)}")
    d = int(np.prod(dims[1:]))
    _check_widths(path, body, d)
    cells = list(itertools.chain.from_iterable(body))
    return _decode(cells, f"tensor file {path}", d).reshape(dims)


def write_tensor(path, tensor) -> None:
    """The '#dims' line, then one CRLF-terminated row per observation."""
    with open(path, "w", newline="") as fh:
        fh.write("#dims " + " ".join(str(d) for d in tensor.shape) + "\n")
        np.savetxt(fh, tensor.reshape(tensor.shape[0], -1), fmt="%.17g",
                   delimiter=",", newline="\r\n")


# ---------------------------------------------------------------------------
# correct


def cmd_correct(args) -> int:
    if args.retired:
        raise CliError(
            f"{args.retired} is retired: the constrained solver takes Newton "
            "steps and has no step size; use --max-iter and --tol"
        )
    family = family_by_name(args.family)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    protected_cols = [c.strip() for c in args.protected.split(",") if c.strip()]
    if not protected_cols:
        raise CliError("--protected must name at least one column")

    header, body = read_table(args.data)
    x, x_names, refs = encode_columns(header, body, protected_cols)

    if args.method == "tensor":
        if not args.tensor:
            raise CliError("--tensor <file> is required for method=tensor")
        tensor = read_tensor(args.tensor)
        if tensor.shape[0] != x.shape[0]:
            raise CliError("tensor rows do not match data rows")
        corrected = correct_features_linear(x, tensor)
        write_tensor(out_dir / "corrected_tensor.csv", corrected)
        report = {
            "method": "tensor",
            "protected": x_names,
            "reference_levels": refs,
            "dims": list(tensor.shape),
        }
        (out_dir / "report.json").write_text(json.dumps(report, indent=2) + "\n")
        return 0

    if args.outcome not in header:
        raise CliError(f"outcome column {args.outcome!r} not found in input")
    y = _decode(_column(header, body, args.outcome), f"column {args.outcome!r}")
    feature_cols = [
        c for c in header if c != args.outcome and c not in protected_cols
    ]
    if not feature_cols:
        raise CliError("no feature columns remain after outcome/protected removal")
    z, z_names, z_refs = encode_columns(header, body, feature_cols)
    refs.update(z_refs)

    if args.method == "glm-constrained":
        cfg = ConstrainedConfig(max_iter=args.max_iter, constraint_tol=args.tol)
        out = fit_constrained_glm(z, y, x, family, cfg)
        gamma, y_hat, converged = out.gamma_c, out.corrected_predictions, out.converged
        report = {
            "method": args.method,
            "family": family.name,
            "constraint_residual": out.constraint_residual,
            "iterations": out.iterations,
            "converged": converged,
            "stop_reason": out.stop_reason,
            "loss": out.loss,
            "stationarity": out.stationarity,
            "protected": x_names,
            "reference_levels": refs,
        }
    elif args.method in ("linear", "relu"):
        zc = correct_features_linear(augment_intercept(x), z)
        if args.method == "linear":
            fit = fit_glm(zc, y, family, with_intercept=True)
            gamma, y_hat, converged = fit.coefficients, fit.fitted_means, fit.converged
            loss = family.nll(y, y_hat)
            iterations = fit.iterations
        else:
            gamma, y_hat, loss, iterations, converged = _fit_relu(
                augment_intercept(zc), y
            )
        report = {
            "method": args.method,
            "family": family.name,
            "constraint_residual": None,
            "iterations": iterations,
            "converged": converged,
            "loss": loss,
            "protected": x_names,
            "reference_levels": refs,
        }
    else:
        raise CliError(f"unknown method {args.method!r}")

    _write_csv(
        out_dir / "corrected_predictions.csv",
        ("row_id", "y_hat_corrected"),
        enumerate(y_hat.tolist()),
    )
    _write_csv(
        out_dir / "coefficients.csv",
        ("name", "gamma_c"),
        zip(["(intercept)"] + z_names, gamma.tolist()),
    )
    (out_dir / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    return 0 if converged else 3


def _fit_relu(zc, y, starts: int = 8, seed: int = 0):
    """Least-squares ReLU prediction model on corrected features."""
    best = evaluate_relu_l2(zc, y, starts=starts, seed=seed)
    gamma = best.beta
    y_hat = np.maximum(zc @ gamma, 0.0)
    loss = float(np.sum((y - y_hat) ** 2))
    return gamma, y_hat, loss, best.iterations, best.converged


# ---------------------------------------------------------------------------
# evaluate


def cmd_evaluate(args) -> int:
    family = family_by_name(args.family)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    header, body = read_table(args.predictions)
    pred_col = args.prediction_column
    if pred_col is None:
        candidates = [c for c in header if c != "row_id"]
        if not candidates:
            raise CliError(f"{args.predictions} has no column besides row_id")
        pred_col = candidates[-1]
    if pred_col not in header:
        raise CliError(f"prediction column {pred_col!r} not found")
    y_hat = _decode(_column(header, body, pred_col), f"column {pred_col!r}")

    p_header, p_body = read_table(args.protected_data)
    cols = [c.strip() for c in args.protected.split(",") if c.strip()] if args.protected else p_header
    x, x_names, _refs = encode_columns(p_header, p_body, cols)
    if x.shape[0] != y_hat.shape[0]:
        raise CliError("predictions and protected data differ in row count")

    if args.relu:
        res = evaluate_relu_l2(x, y_hat)
        _write_csv(
            out_dir / "evaluation.csv",
            ("coefficient", "estimate", "std_error", "z", "p_value"),
            [(n, b, None, None, None) for n, b in zip(x_names, res.beta.tolist())],
        )
        # zero is never the rectified minimizer once the mixed term is
        # positive, so report how much of the objective the fit explains
        zero = res.objective_at_zero
        share = 1.0 - res.objective / zero if zero > 0.0 else 0.0
        print(
            f"relu-evaluation objective={_fmt(res.objective)} "
            f"objective_at_zero={_fmt(zero)} explained_share={_fmt(share)}"
        )
        return 0

    report = evaluate_glm(x, y_hat, family)
    _write_csv(
        out_dir / "evaluation.csv",
        ("coefficient", "estimate", "std_error", "z", "p_value"),
        zip(x_names, report.coefficients.tolist(), report.std_errors.tolist(),
            report.z_stats.tolist(), report.p_values.tolist()),
    )
    for j, n in enumerate(x_names):
        mark = "PASS" if report.p_values[j] >= ALPHA else "FAIL"
        print(
            f"{n}: estimate={report.coefficients[j]:+.4f} "
            f"(p={report.p_values[j]:.4g}) {mark}"
        )
    return 0


# ---------------------------------------------------------------------------
# simulate


SUMMARY_COLUMNS = (
    "family", "n", "p", "q", "rho", "method",
    "median_abs_estimate", "median_p_value", "fraction_significant",
    "max_constraint_residual", "rows",
)

PRESETS = {
    "appendix-g-bernoulli": "bernoulli",
    "appendix-g-poisson": "poisson",
}


def _grid_from_args(args) -> list:
    if args.grid in PRESETS:
        family = PRESETS[args.grid]
        return [
            SyntheticSpec(n=n, p=p, q=q, rho=2.0, family=family, seed=args.seed)
            for p in (5, 10)
            for q in (10, 100)
            for n in (200, 1000, 5000)
        ]
    try:
        cells = json.loads(Path(args.grid).read_text())
    except OSError as exc:
        raise CliError(f"cannot read grid file {args.grid!r}: {exc}")
    except json.JSONDecodeError as exc:
        raise CliError(f"grid file is not valid JSON: {exc}")
    if not isinstance(cells, list) or not cells:
        raise CliError("grid JSON must be a non-empty list of cells")
    grid = []
    for cell in cells:
        try:
            grid.append(
                SyntheticSpec(
                    n=int(cell["n"]),
                    p=int(cell["p"]),
                    q=int(cell["q"]),
                    rho=float(cell.get("rho", 2.0)),
                    family=str(cell.get("family", "bernoulli")),
                    seed=int(cell.get("seed", args.seed)),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CliError(f"bad grid cell {cell!r}: {exc}")
    return grid


def cmd_simulate(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    grid = _grid_from_args(args)
    for spec in grid:
        try:
            spec.validate()
        except OrthokitError as exc:
            raise CliError(str(exc))
    table = simulation_study(grid, args.replicates)
    table.write_csv(out_dir / "study.csv")
    _write_csv(
        out_dir / "summary.csv",
        SUMMARY_COLUMNS,
        [tuple(s[k] for k in SUMMARY_COLUMNS) for s in table.summarize()],
    )
    return 0


# ---------------------------------------------------------------------------
# demo


def cmd_demo(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.which == "figure1":
        table = figure1_demo(seed=args.seed)
        table.write_csv(out_dir / "trajectory.csv")
        final = table.final("ch")
        print(
            f"final constrained-fit correlation with protected feature: "
            f"{final['corr_with_protected']:+.5f}"
        )
        return 0
    if args.which == "online":
        data = make_confounded_data(2000, 2000, seed=args.seed)
        res_u = train_mlp(data, MlpConfig(seed=args.seed), with_correction=False)
        res_c = train_mlp(data, MlpConfig(seed=args.seed), with_correction=True)
        rows = []
        for res, tag in ((res_u, "uncorrected"), (res_c, "corrected")):
            for m in res.metrics:
                rows.append(
                    (
                        tag, m["epoch"], m["split"], m["accuracy"],
                        m["constraint_residual"],
                    )
                )
        _write_csv(
            out_dir / "metrics.csv",
            ("model", "epoch", "split", "accuracy", "constraint_residual"),
            rows,
        )
        acc_u = accuracy_by_split(res_u)["test"]
        acc_c = accuracy_by_split(res_c)["test"]
        print(
            f"test accuracy: uncorrected={acc_u:.3f} corrected={acc_c:.3f} "
            f"(gain {acc_c - acc_u:+.3f})"
        )
        return 0
    raise CliError(f"unknown demo {args.which!r}; expected figure1 or online")


# ---------------------------------------------------------------------------
# parser


class _Retired(argparse.Action):
    """Records a retired flag; ``cmd_correct`` refuses it with exit code 2."""

    def __call__(self, parser, namespace, values, option_string=None):
        namespace.retired = option_string


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orthokit",
        description="Remove the linear influence of protected features from "
        "model predictions and representations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("correct", help="fit and correct a model on a CSV dataset")
    c.add_argument("--data", required=True, help="input CSV with header row")
    c.add_argument("--outcome", help="outcome column name")
    c.add_argument("--protected", required=True,
                   help="comma-separated protected column names")
    c.add_argument("--family", default="bernoulli",
                   choices=("gaussian", "bernoulli", "poisson"))
    c.add_argument("--method", default="glm-constrained",
                   choices=("linear", "glm-constrained", "relu", "tensor"))
    c.add_argument("--tensor", help="tensor CSV (for method=tensor)")
    c.add_argument("--out", required=True, help="output directory")
    c.add_argument("--max-iter", type=int, default=ConstrainedConfig.max_iter,
                   help="Newton-step budget of method=glm-constrained")
    c.add_argument("--tol", type=float, default=ConstrainedConfig.constraint_tol,
                   help="constraint-residual tolerance of method=glm-constrained")
    for retired in ("--lr", "--zeta"):
        c.add_argument(retired, action=_Retired, help=argparse.SUPPRESS)
    c.set_defaults(func=cmd_correct, retired=None)

    e = sub.add_parser("evaluate", help="test protected influence on predictions")
    e.add_argument("--predictions", required=True,
                   help="CSV of predictions (row_id, y_hat)")
    e.add_argument("--prediction-column", default=None)
    e.add_argument("--protected-data", required=True,
                   help="CSV of protected features")
    e.add_argument("--protected", default="",
                   help="comma-separated protected columns (default: all)")
    e.add_argument("--family", default="bernoulli",
                   choices=("gaussian", "bernoulli", "poisson"))
    e.add_argument("--relu", action="store_true",
                   help="use the ReLU + L2 evaluation model")
    e.add_argument("--out", required=True)
    e.set_defaults(func=cmd_evaluate)

    s = sub.add_parser("simulate", help="run the synthetic study grid")
    s.add_argument("--grid", required=True,
                   help="JSON grid file or preset: "
                   + "|".join(sorted(PRESETS)))
    s.add_argument("--replicates", type=int, default=10)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_simulate)

    d = sub.add_parser("demo", help="run a built-in demonstration")
    d.add_argument("--which", required=True)
    d.add_argument("--seed", type=int, default=0)
    d.add_argument("--out", required=True)
    d.set_defaults(func=cmd_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "correct" and args.method != "tensor" and not args.outcome:
            raise CliError("--outcome is required unless method=tensor")
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OrthokitError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
