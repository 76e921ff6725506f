"""The names the benchmark harness in ``perfbench/`` relies on.

``perfbench`` traces orthokit from outside the package: it wraps every
public function of the traced modules, attaches work counters to some of
those wrappers by name, probes a few functions through their parameter
names, and calls the others by attribute.  This test installs that tracing
in a fresh interpreter and checks every name it pins, so that a refactor
which renames, removes or re-binds one fails here rather than in a
benchmark run.  It also checks the two facts the file counters rest on:
``len(read_table(path)[1])`` is the number of data rows, and the writers
take the output path first.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = r"""
import inspect
import sys

sys.path[:0] = [sys.argv[1], sys.argv[2]]

import layers
import tracer
import workloads  # noqa: F401  (its module-level orthokit references)
import orthokit
from orthokit import cli, correct, errors, linalg, synth

t = tracer.Tracer()
t.install()
layers.observe(t)  # KeyError if a counted wrapper is missing
missing = sorted(set(layers.COUNTERS) - set(t.wrapped))
assert not missing, missing
# every span a per-layer metric reads is wrapped, except the two linalg
# functions that no longer exist
spans = set(layers.COUNTERS) | set(layers.CALLS.values())
spans.update(name for names in layers.SELF_TIMES.values() for name in names)
unwrapped = sorted(spans - set(t.wrapped))
assert unwrapped == ["linalg.apply_complement", "linalg.mode1_product"], unwrapped


def params(fn):
    return list(inspect.signature(inspect.unwrap(fn)).parameters)


for name in ("BERNOULLI", "SyntheticSpec", "correct_features_relu",
             "correct_tensor_preactivation", "evaluate_glm", "evaluate_relu_l2",
             "evaluate_tensor", "fit_constrained_glm", "fit_glm", "generate"):
    assert hasattr(orthokit, name), name
for name in ("correct_features_linear", "correct_features_relu",
             "correct_tensor_preactivation"):
    assert callable(getattr(correct, name)), name
for name in ("_write_csv", "write_tensor", "read_table", "read_tensor", "main"):
    assert callable(getattr(cli, name)), name
assert callable(linalg.Projector.complement)
assert issubclass(errors.DidNotConverge, errors.OrthokitError)
assert {"z", "y", "with_intercept", "tol"} <= set(params(synth.fit_glm))
assert params(synth.fit_constrained_glm)[:5] == ["z", "y", "x", "family", "cfg"]
assert params(synth.generate)[:2] == ["spec", "replicate"]
assert "threads" in params(synth.simulation_study)

# cli.rows_parsed is len(read_table(path)[1]); cli.bytes_written is the
# size of the writers' first argument
import os
import tempfile

with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "t.csv")
    with open(path, "w") as fh:
        fh.write("a,b\n1,x\n2,y\n3,x\n")
    assert len(cli.read_table(path)[1]) == 3
assert params(cli._write_csv)[0] == "path"
assert params(cli.write_tensor)[0] == "path"
print("ok")
"""


def test_perfbench_pins_resolve_after_tracing():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "perfbench"), str(ROOT / "src")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
