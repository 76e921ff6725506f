"""The golden corpus: fixed-seed inputs, the CLI commands run on them, and
the outputs they wrote when the corpus was recorded.

    python tests/golden/regenerate.py            # rewrite expected/ and manifest.json
    python tests/golden/regenerate.py --out DIR  # run every case into DIR only

Every input is drawn from a fixed Philox key and formatted here with
``%.17g``, so no input depends on the package.  Each case is one
``orthokit.cli.main`` call; its files, its standard output (``stdout.txt``)
and its exit code are recorded.  ``manifest.json`` holds the sha256 of
every input and output file and the environment they were made in.  The
script sets one BLAS thread before numpy loads: outputs are byte-stable
only at a fixed BLAS thread count.  ``tests/test_golden.py`` runs this
script with ``--out`` and compares.
"""

from __future__ import annotations

import os

os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

N_ROWS = 2000
# one level holds a comma, so the data file is quoted and so are the
# coefficient names that carry it
LEVELS = ("a", "b", "c d", "e,f")
PROTECTED = "x0,x1,grp"

CASES = {
    "correct-linear": ["correct", "--data", "{in}/data.csv", "--outcome", "y",
                       "--protected", PROTECTED, "--method", "linear"],
    "correct-glm-constrained": ["correct", "--data", "{in}/data.csv", "--outcome", "y",
                                "--protected", PROTECTED, "--method", "glm-constrained"],
    "correct-relu": ["correct", "--data", "{in}/data.csv", "--outcome", "y",
                     "--protected", PROTECTED, "--method", "relu"],
    "correct-tensor": ["correct", "--data", "{in}/data.csv", "--protected", PROTECTED,
                       "--method", "tensor", "--tensor", "{in}/tensor.csv"],
    "evaluate-glm": ["evaluate", "--predictions", "{in}/predictions.csv",
                     "--protected-data", "{in}/data.csv", "--protected", PROTECTED],
    "evaluate-relu": ["evaluate", "--predictions", "{in}/predictions.csv",
                      "--protected-data", "{in}/data.csv", "--protected", "x0,x1",
                      "--relu"],
    "simulate": ["simulate", "--grid", "{in}/grid.json", "--replicates", "2",
                 "--seed", "5"],
    "demo-figure1": ["demo", "--which", "figure1", "--seed", "0"],
    "demo-online": ["demo", "--which", "online", "--seed", "0"],
}


def _line(values) -> str:
    return ",".join("%.17g" % v for v in values)


def write_inputs(folder: Path) -> None:
    """data.csv (features f0-f4, protected x0, x1 and grp, outcome y),
    predictions.csv, a 2000 x 2 x 3 tensor.csv and a two-cell grid.json."""
    rng = np.random.Generator(np.random.Philox(key=0x601D))
    f = rng.standard_normal((N_ROWS, 5))
    x = 0.8 * f[:, :2] + rng.standard_normal((N_ROWS, 2))
    grp = rng.integers(0, len(LEVELS), N_ROWS)
    eta = f @ np.array([0.8, -0.5, 0.3, 0.0, 0.2]) + 0.4 * x[:, 0]
    y = (rng.random(N_ROWS) < 1.0 / (1.0 + np.exp(-eta))).astype(int)
    rows = ["f0,f1,f2,f3,f4,x0,x1,grp,y"]
    for i in range(N_ROWS):
        level = LEVELS[grp[i]]
        level = f'"{level}"' if "," in level else level
        rows.append(f"{_line(f[i])},{_line(x[i])},{level},{y[i]}")
    (folder / "data.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    y_hat = 1.0 / (1.0 + np.exp(-(eta + 0.3 * rng.standard_normal(N_ROWS))))
    (folder / "predictions.csv").write_text(
        "row_id,y_hat\n" + "".join(f"{i},{v:.17g}\n" for i, v in enumerate(y_hat)),
        encoding="utf-8")
    tensor = x[:, :1, None] * rng.standard_normal((1, 2, 3)) \
        + rng.standard_normal((N_ROWS, 2, 3))
    (folder / "tensor.csv").write_text(
        f"#dims {N_ROWS} 2 3\n" + "".join(_line(r) + "\n" for r in tensor.reshape(N_ROWS, 6)),
        encoding="utf-8")
    grid = [{"n": 300, "p": 2, "q": 6, "family": "bernoulli"},
            {"n": 400, "p": 3, "q": 12, "family": "poisson"}]
    (folder / "grid.json").write_text(json.dumps(grid) + "\n", encoding="utf-8")


def run_cases(inputs: Path, out: Path) -> dict:
    """Run every case into ``out/<case>``; returns ``{case: exit code}``."""
    from orthokit.cli import main

    codes = {}
    for case, argv in CASES.items():
        target = out / case
        target.mkdir(parents=True)
        argv = [a.replace("{in}", str(inputs)) for a in argv] + ["--out", str(target)]
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            codes[case] = main(argv)
        (target / "stdout.txt").write_text(buffer.getvalue(), encoding="utf-8")
    return codes


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def digests(folder: Path) -> dict:
    return {p.name: sha256(p) for p in sorted(folder.iterdir())}


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"]}


def record(out: Path) -> dict:
    """Write inputs and case outputs under ``out``; returns the manifest."""
    inputs = out / "inputs"
    inputs.mkdir(parents=True)
    write_inputs(inputs)
    codes = run_cases(inputs, out / "expected")
    return {
        "env": environment(),
        "inputs": digests(inputs),
        "cases": {case: {"argv": CASES[case], "exit_code": codes[case],
                         "files": digests(out / "expected" / case)}
                  for case in CASES},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="run into this new folder; leave the corpus alone")
    args = parser.parse_args(argv)
    if args.out:
        out = Path(args.out)
        manifest = record(out)
        (out / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        manifest = record(Path(tmp))
        shutil.rmtree(HERE / "expected", ignore_errors=True)
        shutil.copytree(Path(tmp) / "expected", HERE / "expected")
    (HERE / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
