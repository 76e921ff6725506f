"""What the package's code may use: orthokit runs on numpy alone (starting
the CLI imports no scipy), and only the CLI prints; library code reports
through logging."""

import ast
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
import orthokit, orthokit.cli
orthokit.cli.build_parser()
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_cli_start_imports_no_scipy():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(SRC)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_only_the_cli_prints():
    printing = []
    for path in sorted((SRC / "orthokit").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "print"):
                printing.append((path.name, node.lineno))
    assert printing, "the CLI's print calls were not found"
    assert {name for name, _ in printing} == {"cli.py"}, printing
