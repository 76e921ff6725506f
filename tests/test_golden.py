"""The CLI's outputs on the golden corpus (``tests/golden``).

``tests/golden/regenerate.py --out`` runs every case at one BLAS thread in
a fresh interpreter.  Where numpy, its BLAS build and the thread count are
the recorded ones, every output file must have its recorded sha256.  In
any environment its values must match the recorded file's: text exactly,
and each number to 1e-12 relative, with an absolute floor of 1e-12 times
the largest magnitude in its CSV column (or its file, for JSON and
standard output), so that a value that is rounding noise (a constraint
residual of 1e-30) is judged on the scale of the values beside it.
"""

import csv
import hashlib
import io
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
MANIFEST = json.loads((GOLDEN / "manifest.json").read_text())
RTOL = 1e-12
NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:nan|inf))")


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden") / "run"
    subprocess.run([sys.executable, str(GOLDEN / "regenerate.py"), "--out", str(out)],
                   check=True)
    return out, json.loads((out / "manifest.json").read_text())


def _number(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def _fields(text: str, suffix: str) -> list:
    """``(column, text or float)`` for every field of an output file: the
    cells of a CSV file by column index, else the numbers and the text
    between them, all in column 0."""
    if suffix == ".csv":
        rows = csv.reader(io.StringIO(text, newline=""))
        return [(j, cell if _number(cell) is None else float(cell))
                for row in rows for j, cell in enumerate(row)]
    parts = NUMBER.split(text)  # text at even positions, numbers at odd ones
    return [(0, float(part) if k % 2 else part) for k, part in enumerate(parts)]


def assert_values_match(got: str, want: str, suffix: str) -> None:
    a, b = _fields(got, suffix), _fields(want, suffix)
    assert len(a) == len(b), "field counts differ"
    assert [type(v) for _, v in a] == [type(v) for _, v in b], "field kinds differ"
    assert [k for k, _ in a] == [k for k, _ in b], "row widths differ"
    assert [v for _, v in a if isinstance(v, str)] == [
        v for _, v in b if isinstance(v, str)], "text differs"
    for column in {k for k, _ in b}:
        x = np.array([v for k, v in a if k == column and not isinstance(v, str)])
        y = np.array([v for k, v in b if k == column and not isinstance(v, str)])
        finite = y[np.isfinite(y)]
        scale = np.max(np.abs(finite)) if finite.size else 0.0
        np.testing.assert_allclose(x, y, rtol=RTOL, atol=RTOL * scale, equal_nan=True,
                                   err_msg=f"column {column}")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_inputs_are_the_recorded_ones(run):
    assert run[1]["inputs"] == MANIFEST["inputs"]


@pytest.mark.parametrize("case", sorted(MANIFEST["cases"]))
def test_case_matches_the_corpus(run, case):
    out, manifest = run
    got, want = manifest["cases"][case], MANIFEST["cases"][case]
    assert got["exit_code"] == want["exit_code"]
    assert sorted(got["files"]) == sorted(want["files"])
    same_env = manifest["env"] == MANIFEST["env"]
    for name, digest in want["files"].items():
        recorded = GOLDEN / "expected" / case / name
        assert _sha256(recorded) == digest, f"{recorded} is not the recorded file"
        if same_env:
            assert got["files"][name] == digest, f"{case}/{name} changed bytes"
        assert_values_match((out / "expected" / case / name).read_text(encoding="utf-8"),
                            recorded.read_text(encoding="utf-8"), recorded.suffix)


@pytest.mark.parametrize("got, suffix, ok", [
    ("a,b\r\n1,0.10000000000000001\r\n", ".csv", True),
    ("a,b\r\n1,0.10000000000000005\r\n", ".csv", True),  # 4e-16 relative
    ("a,b\r\n1,0.1000000001\r\n", ".csv", False),  # 1e-9 relative
    ("a,c\r\n1,0.10000000000000001\r\n", ".csv", False),  # header text
    ("a,b\r\n1,0.1,\r\n", ".csv", False),  # row width
    ('{"r": 1e-30, "loss": 2.5}', ".json", True),
    ('{"r": 3e-30, "loss": 2.5}', ".json", True),  # noise below the file's scale
    ('{"r": 1e-30, "loss": 2.6}', ".json", False),
    ('{"r": 1e-30, "lose": 2.5}', ".json", False),
    ("x0: estimate=+0.6804 PASS\n", ".txt", True),
    ("x0: estimate=+0.6804 FAIL\n", ".txt", False),
])
def test_value_comparison_rejects_what_it_should(got, suffix, ok):
    want = {".csv": "a,b\r\n1,0.10000000000000001\r\n",
            ".json": '{"r": 1e-30, "loss": 2.5}',
            ".txt": "x0: estimate=+0.6804 PASS\n"}[suffix]
    if ok:
        assert_values_match(got, want, suffix)
    else:
        with pytest.raises(AssertionError):
            assert_values_match(got, want, suffix)
