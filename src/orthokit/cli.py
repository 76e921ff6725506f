"""Command-line interface.

Four subcommands: ``correct`` (fit and correct a model on a CSV dataset),
``evaluate`` (test whether protected features explain given predictions),
``simulate`` (run the synthetic study grid), and ``demo`` (the two built-in
demonstrations).  All outputs are CSV/JSON, floats are rendered with 17
significant digits, and every command is a pure function of its inputs,
flags, and seed.

Exit codes: 0 success, 2 usage/validation error, 3 non-convergence (the
report is still written).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
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


def _threads() -> int:
    raw = os.environ.get("ORTHOKIT_THREADS", "")
    if raw:
        try:
            return max(1, int(raw))
        except ValueError:
            raise CliError(f"ORTHOKIT_THREADS must be an integer, got {raw!r}")
    return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# CSV ingestion


def read_table(path: str):
    """Read a CSV with header; returns (column names, list of row lists)."""
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}")
    if not rows:
        raise CliError(f"{path} is empty")
    header, body = rows[0], rows[1:]
    if not body:
        raise CliError(f"{path} has a header but no data rows")
    width = len(header)
    for i, row in enumerate(body):
        if len(row) != width:
            raise CliError(f"{path} row {i + 2} has {len(row)} cells, expected {width}")
    return header, body


def _is_float(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def encode_columns(header, body, wanted):
    """Numeric passthrough or one-hot encoding for the requested columns.

    Categorical columns (any non-numeric cell) are one-hot encoded with the
    lexicographically first level dropped as the reference.  Returns
    ``(matrix, encoded names, reference levels dict)``.
    """
    cols, names, refs = [], [], {}
    for name in wanted:
        if name not in header:
            raise CliError(f"column {name!r} not found in input")
        j = header.index(name)
        cells = [row[j] for row in body]
        if all(_is_float(c) for c in cells):
            cols.append(np.array([float(c) for c in cells]))
            names.append(name)
            continue
        levels = sorted(set(cells))
        if len(levels) < 2:
            raise CliError(f"categorical column {name!r} has a single level")
        refs[name] = levels[0]
        for level in levels[1:]:
            cols.append(np.array([1.0 if c == level else 0.0 for c in cells]))
            names.append(f"{name}={level}")
    return np.column_stack(cols), names, refs


def read_tensor(path: str):
    """Read a tensor file: '#dims n d1 ... dR' then the n-by-d matricization."""
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}")
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
    d = int(np.prod(dims[1:]))
    if len(body) != dims[0]:
        raise CliError(f"{path}: expected {dims[0]} data rows, got {len(body)}")
    try:
        mat = np.array([[float(c) for c in row] for row in body])
    except ValueError:
        raise CliError(f"{path}: non-numeric tensor cell")
    if mat.shape[1] != d:
        raise CliError(f"{path}: expected {d} columns, got {mat.shape[1]}")
    return mat.reshape(dims)


def write_tensor(path, tensor) -> None:
    dims = tensor.shape
    flat = tensor.reshape(dims[0], -1)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        fh.write("#dims " + " ".join(str(d) for d in dims) + "\n")
        for row in flat:
            w.writerow([_fmt(float(v)) for v in row])


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
    y = np.array([_parse_float(row[header.index(args.outcome)], args.outcome)
                  for row in body])
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
        [(i, float(v)) for i, v in enumerate(y_hat)],
    )
    _write_csv(
        out_dir / "coefficients.csv",
        ("name", "gamma_c"),
        list(zip(["(intercept)"] + z_names, (float(g) for g in gamma))),
    )
    (out_dir / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    return 0 if converged else 3


def _parse_float(cell: str, col: str) -> float:
    try:
        return float(cell)
    except ValueError:
        raise CliError(f"column {col!r} contains non-numeric cell {cell!r}")


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
        pred_col = candidates[-1]
    if pred_col not in header:
        raise CliError(f"prediction column {pred_col!r} not found")
    y_hat = np.array(
        [_parse_float(row[header.index(pred_col)], pred_col) for row in body]
    )

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
            [(n, float(b), None, None, None) for n, b in zip(x_names, res.beta)],
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
        [
            (
                n,
                float(report.coefficients[j]),
                float(report.std_errors[j]),
                float(report.z_stats[j]),
                float(report.p_values[j]),
            )
            for j, n in enumerate(x_names)
        ],
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
    table = simulation_study(grid, args.replicates, threads=_threads())
    table.write_csv(out_dir / "study.csv")
    summary = table.summarize()
    _write_csv(
        out_dir / "summary.csv",
        (
            "family", "n", "p", "q", "rho", "method",
            "median_abs_estimate", "median_p_value", "fraction_significant",
            "max_constraint_residual", "rows",
        ),
        [
            tuple(s[k] for k in (
                "family", "n", "p", "q", "rho", "method",
                "median_abs_estimate", "median_p_value", "fraction_significant",
                "max_constraint_residual", "rows",
            ))
            for s in summary
        ],
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
