"""Command-line interface.

Four subcommands: ``correct`` (fit and correct a model on a CSV dataset),
``evaluate`` (test whether protected features explain given predictions),
``simulate`` (run the synthetic study grid), and ``demo`` (the two built-in
demonstrations).  All outputs are CSV/JSON, floats are rendered with 17
significant digits, and every command is a pure function of its inputs,
flags, and seed.  This module owns the text formats: the CSV and tensor
files are read and written here and nowhere else in the package.

Input files are UTF-8 text (a leading byte-order mark is dropped), read
whole and split into lines once; every data row must have the header's
width before any cell is decoded.  One decoder then reads each file in one
pass, ``BLOCK_ROWS`` lines at a time, splitting a block into cells and
decoding only the columns the command reads, into float64 or category
codes; a tensor file's cells are decoded as one row-major column.  So a
file costs its lines, its decoded columns and one block of cells, not a
str per cell.  Text without quotes or bare carriage returns is split on
line ends and commas directly; ``csv.reader`` parses only files that have
them, and feeds the same decoder.  A column is numeric when its non-empty
cells are all numbers, categorical (one-hot encoded) otherwise.  An empty
cell in either kind of column, and a non-finite cell where a number is
required, is an error naming its column (or file) and row; each is raised
when the command asks for that column.  Outputs are
written byte for byte as ``csv.writer`` would write them (minimal quoting,
CRLF row ends, floats to 17 digits), formatted and written ``BLOCK_ROWS``
rows at a time, so a writer holds one block's text.

Exit codes: 0 success, 2 usage/validation error, 3 non-convergence or a
``simulate`` cell with no estimate (the outputs are still written).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import itertools
import json
import math
import operator
import os
import sys
from pathlib import Path

import numpy as np

from .correct import (
    ConstrainedConfig,
    correct_features_linear,
    corrected_design,
    fit_constrained_glm,
)
from .errors import InvalidSpec, OrthokitError, RankDeficient
from .evalmodel import evaluate_glm, evaluate_relu_l2
from .glm import ALPHA, FAMILIES, family_by_name, fit_glm
from .online import MlpConfig, accuracy_by_split, make_confounded_data, train_mlp
from .synth import SUMMARY_COLUMNS, SyntheticSpec, figure1_demo, simulation_study


class CliError(Exception):
    """Usage or validation failure (exit code 2)."""


# ---------------------------------------------------------------------------
# CSV and tensor files


# Files are read and written this many rows at a time, so one block's
# cells and text are the only per-row objects alive.  A constant, not an
# option: 512 to 2048 rows decode a 50,000-row file equally fast, 128 and
# 8192 more slowly.
BLOCK_ROWS = 1024


def _read_rows(path):
    """A CSV file as ``(header cells, cell count of each data row, blocks)``.

    ``blocks(stop)`` yields ``(first data row, cells)`` for the data rows
    before ``stop``, ``BLOCK_ROWS`` rows at a time, with each block's cells
    in one flat list in row order; data row 0 is file row 2.  The header is
    None for an empty file.  Text without quotes or bare carriage returns
    is split into lines once, and each block of lines on commas, which is
    all ``csv.reader`` would do with it.  Any other file goes through
    ``csv.reader``: once for the widths, then once per ``blocks`` call.  A
    blank line has 0 cells.
    """
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            # not "utf-8-sig", which counts error offsets from after the mark
            text = fh.read().removeprefix("\ufeff")
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise CliError(f"{path} is not UTF-8 text (byte {exc.start}: {exc.reason})")
    cr = "\r" in text
    if '"' in text or (cr and text.count("\r") != text.count("\r\n")):
        def records():
            return csv.reader(io.StringIO(text, newline=""))

        def blocks(stop):
            body = itertools.islice(records(), 1, stop + 1)
            for start in range(0, stop, BLOCK_ROWS):
                rows = itertools.islice(body, BLOCK_ROWS)
                yield start, list(itertools.chain.from_iterable(rows))

        widths = [len(row) for row in itertools.islice(records(), 1, None)]
        return next(records(), None), widths, blocks
    lines = (text.replace("\r\n", "\n") if cr else text).split("\n")
    del text  # freed before any block is split
    if lines[-1] == "":
        lines.pop()
    if not lines:
        return None, [], None
    head = lines.pop(0)

    def blocks(stop):
        for start in range(0, stop, BLOCK_ROWS):
            block = lines[start:min(start + BLOCK_ROWS, stop)]
            yield start, ",".join(block).split(",")

    widths = [line.count(",") + 1 if line else 0 for line in lines]
    return head.split(",") if head else [], widths, blocks


def _check_widths(path, widths, width) -> None:
    """Every data row (file row 2 onwards) must hold ``width`` cells."""
    if widths.count(width) != len(widths):
        i = next(i for i, n in enumerate(widths) if n != width)
        raise CliError(f"{path} row {i + 2} has {widths[i]} cells, expected {width}")


class _Column:
    """``rows`` data rows of ``width`` cells each (1 for a table column),
    decoded a block at a time in row-major order: float64 while every cell
    is a number, category codes from the first cell that is not.

    Errors are recorded, not raised, so that a command meets them in the
    order it asks for its columns.  Empty cells parse as nan, so that a
    numeric column with a hole is reported as one rather than read as
    categorical.
    """

    __slots__ = ("values", "width", "bad", "word", "index", "codes", "levels", "empty")

    def __init__(self, rows, width=1):
        self.values = np.empty(rows * width)  # filled in place while numeric
        self.width = width
        self.bad = None  # (data row, cell): the first non-finite or empty cell
        self.word = None  # (data row, cell): the first non-number, if any
        self.index = {}  # level -> code, in order of first appearance
        self.codes = self.levels = None  # once categorical
        self.empty = None  # data row of the first empty cell, once categorical

    def add_numbers(self, cells, start) -> bool:
        """Parse the block ``cells`` starting at data row ``start``; False,
        with ``word`` set, if a cell is not a number."""
        filled = [c or "nan" for c in cells] if "" in cells else cells
        rest = iter(filled)
        try:
            values = np.fromiter(map(float, rest), float, len(filled))
        except ValueError:
            i = len(filled) - operator.length_hint(rest) - 1  # the cell float() refused
            self.word = (start + i // self.width, cells[i])
            self.values = None
            return False
        at = start * self.width
        self.values[at:at + len(values)] = values
        if self.bad is None:
            bad = np.flatnonzero(~np.isfinite(values))
            if bad.size:
                self.bad = (start + int(bad[0]) // self.width, cells[bad[0]])
        return True

    def add_levels(self, cells, start) -> None:
        """Code the block ``cells`` starting at data row ``start`` as levels."""
        index = self.index
        new = set(cells).difference(index)
        if "" in new:
            self.empty = start + cells.index("")
        index.update(zip(new, itertools.count(len(index))))
        codes = np.fromiter(map(index.__getitem__, cells), np.intp, len(cells))
        self.codes[start:start + len(cells)] = codes

    def finish(self) -> None:
        """Sort the levels in code-point order and renumber the codes."""
        if self.codes is not None:
            self.levels = sorted(self.index)
            rank = np.empty(len(self.levels), np.intp)
            rank[[self.index[level] for level in self.levels]] = np.arange(len(rank))
            self.codes = rank[self.codes]
        self.index = None

    def failure(self, where):
        """Why this is not a column of finite numbers: its first non-number,
        else its first non-finite or empty cell; None if there is none."""
        if self.word is not None:
            row, cell = self.word
            return f"{where} contains non-numeric cell {cell!r} (row {row + 2})"
        if self.bad is not None:
            row, cell = self.bad
            what = f"non-finite cell {cell!r}" if cell else "an empty cell"
            return f"{where} contains {what} (row {row + 2})"
        return None


class Rows:
    """The data rows of a table: their count and the decoded columns."""

    __slots__ = ("count", "columns")

    def __init__(self, count, columns):
        self.count, self.columns = count, columns

    def __len__(self):
        return self.count


def read_table(path: str, columns=None):
    """Read a CSV with header; returns (column names, ``Rows``).

    The named ``columns`` (every column when None) are decoded in one pass
    over the file; a name the header lacks is left to ``encode_columns``
    to report.
    """
    header, widths, blocks = _read_rows(path)
    if header is None:
        raise CliError(f"{path} is empty")
    if len(set(header)) != len(header):
        repeated = next(h for h in header if header.count(h) > 1)
        raise CliError(f"{path} header repeats column {repeated!r}")
    if not widths:
        raise CliError(f"{path} has a header but no data rows")
    _check_widths(path, widths, len(header))
    n, width = len(widths), len(header)
    decoded = {j: _Column(n) for j, name in enumerate(header)
               if columns is None or name in columns}
    for start, cells in blocks(n):
        for j, column in decoded.items():
            part = cells[j::width]
            if column.word is None:
                if column.add_numbers(part, start):
                    continue
                # the rows before this block were numbers: split them again
                column.codes = np.empty(n, np.intp)
                for at, earlier in blocks(start):
                    column.add_levels(earlier[j::width], at)
            column.add_levels(part, start)
    for column in decoded.values():
        column.finish()
    return header, Rows(n, {header[j]: column for j, column in decoded.items()})


def _numbers(body, name):
    """The decoded column ``name`` as float64; an error unless every cell
    is a finite number."""
    column = body.columns[name]
    failure = column.failure(f"column {name!r}")
    if failure:
        raise CliError(failure)
    return column.values


def encode_columns(header, body, wanted):
    """Numeric passthrough or one-hot encoding for the requested columns.

    A column is numeric when every cell is a number, empty cells aside;
    otherwise it is categorical and one-hot encoded with the first level
    in code-point order dropped as the reference.  An empty cell is an
    error in either kind of column.  Returns
    ``(matrix, encoded names, reference levels dict)``.
    """
    # (first matrix column, numeric values or None, category codes or None)
    pieces, names, refs = [], [], {}
    for name in wanted:
        if name not in header:
            raise CliError(f"column {name!r} not found in input")
        column = body.columns[name]
        if column.word is None:
            pieces.append((len(names), _numbers(body, name), None))
            names.append(name)
            continue
        if column.empty is not None:
            raise CliError(f"column {name!r} contains an empty cell (row {column.empty + 2})")
        levels = column.levels
        if len(levels) < 2:
            raise CliError(f"categorical column {name!r} has a single level")
        refs[name] = levels[0]
        pieces.append((len(names), None, column.codes))
        names.extend(f"{name}={level}" for level in levels[1:])
    # filled in place: encoding holds the matrix and index arrays of its rows
    matrix = np.zeros((len(body), len(names)))
    for j, values, codes in pieces:
        if codes is None:
            matrix[:, j] = values
        else:  # level k > 0 sets column j + k - 1; the reference level none
            rows = np.flatnonzero(codes)
            matrix[rows, codes[rows] + (j - 1)] = 1.0
    return matrix, names, refs


def read_tensor(path: str):
    """Read a tensor file: '#dims n d1 ... dR' then the n-by-d matricization."""
    header, widths, blocks = _read_rows(path)
    if not header or not header[0].startswith("#dims"):
        raise CliError(f"{path}: first row must be '#dims n d1 ... dR'")
    head = " ".join(header).split()
    try:
        dims = tuple(int(v) for v in head[1:])
    except ValueError:
        raise CliError(f"{path}: malformed dims line")
    if len(dims) < 2:
        raise CliError(f"{path}: need at least two dims")
    if min(dims) < 1:
        raise CliError(f"{path}: dims must be positive integers")
    if len(widths) != dims[0]:
        raise CliError(f"{path}: expected {dims[0]} data rows, got {len(widths)}")
    d = math.prod(dims[1:])
    _check_widths(path, widths, d)
    column = _Column(dims[0], d)  # every cell, in row-major order
    for start, cells in blocks(dims[0]):
        if not column.add_numbers(cells, start):
            break
    failure = column.failure(f"tensor file {path}")
    if failure:
        raise CliError(failure)
    return column.values.reshape(dims)


def _fmt(v) -> str:
    """CSV cell text: empty for None, true/false, floats to 17 digits."""
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _quote(cell: str) -> str:
    if any(c in cell for c in ',"\r\n'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _quoted(cells: list, lone: bool) -> list:
    """``csv.writer``'s minimal quoting of ``cells``.  With ``lone`` (each
    cell is the only field of its row) an empty cell is written ``""``."""
    text = "".join(cells)
    if any(c in text for c in ',"\r\n'):
        cells = list(map(_quote, cells))
    return [c or '""' for c in cells] if lone else cells


def _write_blocks(path, head: str, blocks) -> None:
    """Write ``head``, then each text ``blocks`` yields, so one block's
    text is held at a time.  The writers' one output loop; it creates the
    output directory, so a command refused before its first write leaves
    none.  If a block raises (a bad row after earlier blocks were written),
    the partial file is removed before the error propagates."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    fh = open(path, "w", encoding="utf-8", newline="")
    try:
        with fh:
            fh.write(head)
            fh.writelines(blocks)
    except BaseException:
        os.remove(path)
        raise


def _csv_block(path, rows: list, width: int) -> str:
    """The text of ``rows`` as ``_write_csv`` writes them: one ``%`` format
    of a per-row template.  The template formats the all-float and all-int
    columns of the block, and every other column is rendered and quoted a
    column at a time beforehand."""
    if set(map(len, rows)) - {width}:
        raise ValueError(f"{path}: every row must have {width} fields")
    cells = list(itertools.chain.from_iterable(rows))
    specs = []
    for j in range(width):
        values = cells[j::width]
        kinds = set(map(type, values))
        if kinds == {float}:
            specs.append("%.17g")
        elif kinds == {int}:
            specs.append("%d")
        else:
            if kinds != {str}:
                values = list(map(_fmt, values))
            cells[j::width] = _quoted(values, width == 1)
            specs.append("%s")
    return ((",".join(specs) + "\r\n") * len(rows)) % tuple(cells)


def _write_csv(path, header, rows) -> None:
    """Write ``header`` and ``rows`` byte for byte as ``csv.writer`` writes
    them after ``_fmt``: minimal quoting and CRLF row ends.  Every row has
    the header's width.  Rows are formatted and written ``BLOCK_ROWS`` at a
    time; the text of a value depends on the value alone, so the blocks'
    texts join to the text of all rows at once."""
    width = len(header)
    head = ",".join(_quoted(list(map(str, header)), width == 1)) + "\r\n"
    rows = iter(rows)
    blocks = iter(lambda: list(itertools.islice(rows, BLOCK_ROWS)), [])
    _write_blocks(path, head, (_csv_block(path, block, width) for block in blocks))


def write_tensor(path, tensor) -> None:
    """The '#dims' line, then one CRLF-terminated row per observation,
    formatted and written ``BLOCK_ROWS`` rows at a time."""
    flat = tensor.reshape(tensor.shape[0], int(np.prod(tensor.shape[1:])))
    row = ",".join(["%.17g"] * flat.shape[1]) + "\r\n"
    head = "#dims " + " ".join(str(d) for d in tensor.shape) + "\n"
    blocks = (flat[i:i + BLOCK_ROWS] for i in range(0, flat.shape[0], BLOCK_ROWS))
    _write_blocks(path, head, ((row * len(b)) % tuple(b.ravel().tolist()) for b in blocks))


@contextlib.contextmanager
def _naming_dependent_column(kind, columns, earlier):
    """Re-raise ``RankDeficient`` from a design whose columns are
    ``columns`` as a ``CliError`` naming the first dependent column, which
    is a combination of ``earlier``."""
    try:
        yield
    except RankDeficient as exc:
        j = exc.col_index
        if j == 0:
            raise CliError(f"column {columns[0]!r} is numerically zero next to "
                           f"the largest {kind} column") from None
        raise CliError(f"{kind} column {columns[j]!r} is a linear combination "
                       f"of {earlier}") from None


# ---------------------------------------------------------------------------
# correct


def _protected_columns(text):
    """The column names of a comma-separated ``--protected`` value."""
    columns = [c.strip() for c in text.split(",") if c.strip()]
    if not columns:
        raise CliError("--protected must name at least one column")
    return columns


def cmd_correct(args) -> int:
    out_dir = Path(args.out)
    if args.method == "tensor":
        if not args.tensor:
            raise CliError("--tensor <file> is required for method=tensor")
        protected = _protected_columns(args.protected)
        header, body = read_table(args.data, protected)
        x, x_names, refs = encode_columns(header, body, protected)
        del body  # decoded: not held through the tensor file
        tensor = read_tensor(args.tensor)
        if tensor.shape[0] != x.shape[0]:
            raise CliError("tensor rows do not match data rows")
        with _naming_dependent_column("protected", x_names, "earlier protected columns"):
            corrected = correct_features_linear(x, tensor)
        write_tensor(out_dir / "corrected_tensor.csv", corrected)
        _write_report(out_dir, {"method": "tensor", "protected": x_names,
                                "reference_levels": refs, "dims": list(tensor.shape)})
        return 0

    if not args.outcome:
        raise CliError("--outcome is required unless method=tensor")
    protected = _protected_columns(args.protected)
    if args.outcome in protected:
        raise CliError(f"outcome column {args.outcome!r} is also listed in --protected")
    header, body = read_table(args.data)
    x, x_names, refs = encode_columns(header, body, protected)
    if args.outcome not in header:
        raise CliError(f"outcome column {args.outcome!r} not found in input")
    y = _numbers(body, args.outcome)
    feature_cols = [c for c in header if c != args.outcome and c not in protected]
    if not feature_cols:
        raise CliError("no feature columns remain after outcome/protected removal")
    z, z_names, z_refs = encode_columns(header, body, feature_cols)
    refs.update(z_refs)
    del body  # decoded: not held through the fit

    family = family_by_name(args.family)
    report = {"method": args.method, "family": family.name, "constraint_residual": None}
    if args.method == "glm-constrained":
        cfg = ConstrainedConfig(max_iter=args.max_iter, constraint_tol=args.tol)
        out = fit_constrained_glm(z, y, x, family, cfg)
        gamma, y_hat = out.gamma_c, out.corrected_predictions
        report.update(constraint_residual=out.constraint_residual,
                      iterations=out.iterations, converged=out.converged,
                      stop_reason=out.stop_reason, loss=out.loss,
                      stationarity=out.stationarity)
    else:
        with _naming_dependent_column("protected", ["(intercept)"] + x_names,
                                      "the intercept and earlier protected columns"):
            design = corrected_design(x, z)
        if args.method == "linear":
            with _naming_dependent_column(
                "feature", ["(intercept)"] + z_names,
                "the intercept, the protected columns and earlier feature columns",
            ):
                fit = fit_glm(design, y, family)
            gamma, y_hat = fit.coefficients, fit.fitted_means
            report.update(iterations=fit.iterations, converged=fit.converged,
                          stop_reason=fit.stop_reason, loss=fit.loss)
        else:  # least-squares ReLU prediction model on the corrected features
            best = evaluate_relu_l2(design, y, starts=8)
            gamma = best.beta
            y_hat = np.maximum(design @ gamma, 0.0)
            report.update(iterations=best.iterations, converged=best.converged,
                          stop_reason=best.stop_reason,
                          loss=float(np.sum((y - y_hat) ** 2)))
    report.update(protected=x_names, reference_levels=refs)

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
    _write_report(out_dir, report)
    return 0 if report["converged"] else 3


def _write_report(out_dir, report) -> None:
    _write_blocks(out_dir / "report.json", json.dumps(report, indent=2) + "\n", ())


# ---------------------------------------------------------------------------
# evaluate


def cmd_evaluate(args) -> int:
    family = family_by_name(args.family)
    out_dir = Path(args.out)

    pred_col = args.prediction_column
    header, body = read_table(args.predictions, None if pred_col is None else [pred_col])
    if pred_col is None:
        candidates = [c for c in header if c != "row_id"]
        if not candidates:
            raise CliError(f"{args.predictions} has no column besides row_id")
        pred_col = candidates[-1]
    if pred_col not in header:
        raise CliError(f"prediction column {pred_col!r} not found")
    y_hat = _numbers(body, pred_col)
    del body  # decoded: not held while the protected file is read

    # every column of the protected file when --protected is not given
    cols = _protected_columns(args.protected) if args.protected else None
    p_header, p_body = read_table(args.protected_data, cols)
    x, x_names, _refs = encode_columns(p_header, p_body, p_header if cols is None else cols)
    del p_body
    if x.shape[0] != y_hat.shape[0]:
        raise CliError("predictions and protected data differ in row count")

    if args.relu:
        res = evaluate_relu_l2(x, y_hat)
        rows = [(n, b, None, None, None) for n, b in zip(x_names, res.beta.tolist())]
        # zero is never the rectified minimizer once the mixed term is
        # positive, so report how much of the objective the fit explains
        zero = res.objective_at_zero
        share = 1.0 - res.objective / zero if zero > 0.0 else 0.0
        lines = [f"relu-evaluation objective={_fmt(res.objective)} "
                 f"objective_at_zero={_fmt(zero)} explained_share={_fmt(share)}"]
        code = 0
    else:
        with _naming_dependent_column("protected", ["(intercept)"] + x_names,
                                      "the intercept and earlier protected columns"):
            report = evaluate_glm(x, y_hat, family)
        rows = zip(x_names, report.coefficients.tolist(), report.std_errors.tolist(),
                   report.z_stats.tolist(), report.p_values.tolist())
        # a p-value of an unconverged fit (separated data, say) certifies nothing
        passed = report.converged & (report.p_values >= ALPHA)
        lines = [f"{n}: estimate={b:+.4f} (p={p:.4g}) {'PASS' if ok else 'FAIL'}"
                 for n, b, p, ok in zip(x_names, report.coefficients, report.p_values, passed)]
        code = 0 if report.converged else 3
    _write_csv(out_dir / "evaluation.csv",
               ("coefficient", "estimate", "std_error", "z", "p_value"), rows)
    for line in lines:
        print(line)
    return code


# ---------------------------------------------------------------------------
# simulate


PRESETS = {
    "appendix-g-bernoulli": "bernoulli",
    "appendix-g-poisson": "poisson",
}


def _exact(kind, value):
    """``kind(value)``, refusing a string, a boolean and a fraction for an int."""
    fraction = kind is int and isinstance(value, float) and not value.is_integer()
    if isinstance(value, (str, bool)) or fraction:
        raise ValueError(f"{value!r} is not {'an integer' if kind is int else 'a number'}")
    return kind(value)


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
        cells = json.loads(Path(args.grid).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
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
                    n=_exact(int, cell["n"]),
                    p=_exact(int, cell["p"]),
                    q=_exact(int, cell["q"]),
                    rho=_exact(float, cell.get("rho", 2.0)),
                    family=str(cell.get("family", "bernoulli")),
                    seed=_exact(int, cell.get("seed", args.seed)),
                )
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise CliError(f"bad grid cell {cell!r}: {exc}")
    return grid


def cmd_simulate(args) -> int:
    out_dir = Path(args.out)
    try:
        table = simulation_study(_grid_from_args(args), args.replicates)
    except InvalidSpec as exc:
        raise CliError(str(exc))
    _write_csv(out_dir / "study.csv", table.columns,
               ([row.get(c) for c in table.columns] for row in table.rows))
    _write_csv(
        out_dir / "summary.csv",
        SUMMARY_COLUMNS,
        [tuple(s[k] for k in SUMMARY_COLUMNS) for s in table.summarize()],
    )
    # a cell whose every row is an error row has no estimate: exit 3
    errors = {}
    for row in table.rows:
        cell = " ".join(f"{c}={row[c]}" for c in SUMMARY_COLUMNS[:5])
        errors.setdefault(cell, []).append(row["error"])
    empty = {cell: found[0] for cell, found in errors.items() if all(found)}
    for cell, error in empty.items():
        print(f"no estimate in cell {cell}: {error}", file=sys.stderr)
    return 3 if empty else 0


# ---------------------------------------------------------------------------
# demo


def cmd_demo(args) -> int:
    out_dir = Path(args.out)
    if args.which == "figure1":
        table = figure1_demo(seed=args.seed)
        _write_csv(out_dir / "trajectory.csv", table.columns,
                   ([row.get(c) for c in table.columns] for row in table.rows))
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
    c.add_argument("--family", default="bernoulli", choices=tuple(FAMILIES))
    c.add_argument("--method", default="glm-constrained",
                   choices=("linear", "glm-constrained", "relu", "tensor"))
    c.add_argument("--tensor", help="tensor CSV (for method=tensor)")
    c.add_argument("--out", required=True, help="output directory")
    c.add_argument("--max-iter", type=int, default=ConstrainedConfig.max_iter,
                   help="Newton-step budget of method=glm-constrained")
    c.add_argument("--tol", type=float, default=ConstrainedConfig.constraint_tol,
                   help="constraint-residual tolerance of method=glm-constrained")
    c.set_defaults(func=cmd_correct)

    e = sub.add_parser("evaluate", help="test protected influence on predictions")
    e.add_argument("--predictions", required=True,
                   help="CSV of predictions (row_id, y_hat)")
    e.add_argument("--prediction-column", default=None)
    e.add_argument("--protected-data", required=True,
                   help="CSV of protected features")
    e.add_argument("--protected", default="",
                   help="comma-separated protected columns (default: all)")
    e.add_argument("--family", default="bernoulli", choices=tuple(FAMILIES))
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
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OrthokitError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
