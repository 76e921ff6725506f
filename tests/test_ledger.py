"""The benchmark ledger's summary, refusal, pairing and trees.

No benchmark runs here: ``gather`` is handed a fake runner, and ``main`` a
fake ``run_perfbench``, that return what ``perfbench/run.py`` prints.  One
test runs the ledger script on a repository whose runner only sleeps, and
stops it with SIGTERM.
"""

import importlib.util
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("ledger", ROOT / "tools" / "ledger.py")
ledger = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ledger)

ENV = {"python": "3.11.7", "numpy": "2.4.6", "blas": "scipy-openblas 0.3.31", "nproc": 2}
WALL_S = {"name": "wall_s", "better": "lower", "bound": 0.25}


def runner_output(metrics: dict, correct=True, failed=0) -> str:
    result = {"correct": correct, "attempted": 25, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return "[study-grid] a note\n# env " + json.dumps(ENV) + "\n" + json.dumps(result) + "\n"


def fake_runner(outputs: dict):
    """``run(workload, trace)`` returning the next canned output of that pair."""
    queues = {key: list(values) for key, values in outputs.items()}

    def run(workload, trace):
        returncode, stdout = queues[workload, trace].pop(0)
        return subprocess.CompletedProcess([], returncode, stdout, "boom")
    return run


def test_parse_run_takes_the_env_line_and_the_last_line():
    env, result = ledger.parse_run(runner_output({"wall_s": (0.9, "s")}))
    assert env == ENV
    assert result["metrics"]["wall_s"] == {"value": 0.9, "unit": "s"}


def test_summary_is_median_and_inclusive_quartiles():
    results = [ledger.parse_run(runner_output({"wall_s": (v, "s")}))[1]
               for v in (5.0, 1.0, 4.0, 2.0, 3.0)]
    assert ledger.summarize(results) == {
        "wall_s": {"median": 3.0, "q1": 2.0, "q3": 4.0, "n": 5, "unit": "s"}}
    one = ledger.summarize(results[:1])["wall_s"]
    assert (one["median"], one["q1"], one["q3"], one["n"]) == (5.0, 5.0, 5.0, 1)


def test_collect_summarizes_each_workload_and_mode():
    e2e = [(0, runner_output({"wall_s": (v, "s")})) for v in (1.0, 3.0)]
    traced = [(0, runner_output({"glm.irls_steps": (646, "count")}, failed=1))] * 2
    got = ledger.gather(["study-grid"], 2, {"change": fake_runner({
        ("study-grid", 0): e2e, ("study-grid", 1): traced})})["change"]
    assert got["end_to_end"]["study-grid"]["wall_s"]["median"] == 2.0
    assert got["layers"]["study-grid"]["glm.irls_steps"]["q3"] == 646
    assert got["operations"] == {"study-grid": {"attempted": 100, "failed": 2}}
    assert got["env"] == ENV


@pytest.mark.parametrize("bad", [(1, ""), (0, runner_output({"wall_s": (1.0, "s")}, correct=False))])
def test_collect_refuses_a_failed_or_wrong_run(bad):
    good = (0, runner_output({"wall_s": (1.0, "s")}))
    run = fake_runner({("study-grid", 0): [good, bad], ("study-grid", 1): [good, good]})
    with pytest.raises(ledger.LedgerError):
        ledger.gather(["study-grid"], 2, {"change": run})["change"]


def logging_runner(side, log, outputs=None):
    """``run(workload, trace)`` for one side of a pair: logs the call and
    returns the next of ``outputs`` (a good run when None)."""
    queue = list(outputs or [])

    def run(workload, trace):
        log.append((side, workload, trace))
        returncode, stdout = queue.pop(0) if queue else (0, runner_output({"wall_s": (1.0, "s")}))
        return subprocess.CompletedProcess([], returncode, stdout, "boom")
    return run


def test_gather_alternates_the_side_that_runs_first():
    log = []
    sides = ledger.gather(["a", "b"], 3, {"parent": logging_runner("parent", log),
                                          "change": logging_runner("change", log)})
    steps = [(w, t) for w in "ab" for t in ledger.TRACE_MODES]
    first, second = ("parent", "change"), ("change", "parent")
    assert log == [(side, *step) for order in (first, second, first)
                   for step in steps for side in order]
    assert sides["parent"]["values"]["end_to_end"]["a"]["wall_s"] == [1.0] * 3
    assert sides["change"]["operations"]["b"] == {"attempted": 150, "failed": 0}


@pytest.mark.parametrize("bad", [(1, ""), (0, runner_output({"wall_s": (1.0, "s")}, correct=False))])
@pytest.mark.parametrize("side", ["parent", "change"])
def test_gather_refuses_when_either_side_fails(side, bad):
    log = []
    runners = {s: logging_runner(s, log, [bad] if s == side else None)
               for s in ("parent", "change")}
    with pytest.raises(ledger.LedgerError, match=f"^{side} w --trace 0"):
        ledger.gather(["w"], 2, runners)


SPEC = {"end_to_end": [WALL_S], "per_layer": [
    {"name": "correct.constrained_feasible", "better": "higher"}]}


def paired_ledger(parent: dict, change: dict) -> dict:
    """A ledger of one workload ``w`` whose sides ran ``parent`` and
    ``change`` (metric -> value of each run); ``correct.*`` metrics are
    layer metrics."""
    def side(runs):
        count = len(next(iter(runs.values())))
        results = {("w", t): [
            {"attempted": 1, "failed": 0,
             "metrics": {k: {"value": v[i], "unit": "s"} for k, v in runs.items()
                         if k.startswith("correct.") == (t == 1)}}
            for i in range(count)] for t in ledger.TRACE_MODES}
        return ledger.summarize_side(results, ENV, ["w"])
    return {**side(change), "parent": side(parent)}


def test_paired_counts_wins_and_leaves_ties_to_neither_side():
    parent = {"wall_s": [1.0] * 10, "correct.constrained_feasible": [3.0] * 10}
    change = {"wall_s": [0.5] * 9 + [1.0], "correct.constrained_feasible": [4.0] * 6 + [3.0] * 4}
    wall, feasible = ledger.paired(paired_ledger(parent, change), SPEC, ["w.wall_s"])
    # nine wins and a tie meet the rule; the move is larger than an IQR of 0
    assert wall.startswith("+ end_to_end w wall_s: 1 -> 0.5 s (-50.0%)")
    assert wall.endswith("parent IQR 0, won 9/10")
    # 'higher' is better here, and the median moved past the IQR, but six
    # wins of ten are no claim
    assert feasible.startswith("  layers w correct.constrained_feasible: 3 -> 4")
    assert feasible.endswith("won 6/10")


def test_paired_marks_a_move_beyond_the_bound_and_needs_a_move_past_the_iqr():
    parent = {"wall_s": [1.0, 1.2, 0.8, 1.1, 0.9, 1.0, 1.2, 0.8, 1.1, 0.9]}
    worse = {"wall_s": [v * 1.3 for v in parent["wall_s"]]}
    for claims in ((), ["w.wall_s"]):  # claimed or not
        (line,) = ledger.paired(paired_ledger(parent, worse), SPEC, claims)
        assert line.startswith("! ") and line.endswith("won 0/10")
    # every pair won, but the median moves by less than the parent's IQR
    slightly = {"wall_s": [v - 0.01 for v in parent["wall_s"]]}
    (line,) = ledger.paired(paired_ledger(parent, slightly), SPEC, ["w.wall_s"])
    assert line.startswith("  ") and line.endswith("won 10/10")
    # a clear win, but in fewer than ten pairs
    faster = {"wall_s": [v / 2 for v in parent["wall_s"]]}
    few = {k: v[:5] for k, v in parent.items()}, {k: v[:5] for k, v in faster.items()}
    (line,) = ledger.paired(paired_ledger(*few), SPEC, ["w.wall_s"])
    assert line.startswith("  ") and line.endswith("won 5/5")


def test_paired_marks_no_unclaimed_winning_row():
    # ten wins and a move past the IQR, but only a claimed row gets a +
    parent = {"wall_s": [1.0] * 10, "setup_s": [0.2] * 10}
    change = {"wall_s": [0.5] * 10, "setup_s": [0.1] * 10}
    book = paired_ledger(parent, change)
    wall, setup = ledger.paired(book, SPEC)
    assert wall.startswith("  end_to_end w wall_s: 1 -> 0.5") and wall.endswith("won 10/10")
    assert setup.startswith("  end_to_end w setup_s: 0.2 -> 0.1")
    wall, setup = ledger.paired(book, SPEC, ["w.setup_s"])
    assert wall.startswith("  ") and setup.startswith("+ ")


def test_paired_claims_no_layer_metric():
    # every pair won and the median moved past the parent's IQR, as the
    # claim rule's letter asks, but a layer row is a report
    parent = {"wall_s": [1.0] * 10, "correct.constrained_feasible": [3.0] * 9 + [2.0]}
    change = {"wall_s": [1.0] * 10, "correct.constrained_feasible": [5.0] * 10}
    claims = ["w.wall_s", "w.correct.constrained_feasible"]
    _, feasible = ledger.paired(paired_ledger(parent, change), SPEC, claims)
    assert feasible.startswith("  layers w correct.constrained_feasible: 3 -> 5")
    assert feasible.endswith("won 10/10")


def test_paired_lists_a_metric_the_parent_lacks_as_new():
    book = paired_ledger({"wall_s": [1.0] * 3}, {"wall_s": [1.0] * 3, "setup_s": [0.2] * 3})
    assert ledger.paired(book, SPEC)[-1] == "  end_to_end w setup_s: new, 0.2 s"


def test_paired_lists_a_metric_the_change_lacks_as_gone():
    book = paired_ledger({"wall_s": [1.0] * 3, "setup_s": [0.2] * 3}, {"wall_s": [1.0] * 3})
    assert ledger.paired(book, SPEC)[-1] == "  end_to_end w setup_s: gone, 0.2 s"


def git(repo, *args):
    return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                          cwd=repo, capture_output=True, text=True, check=True).stdout


@pytest.fixture
def repo(tmp_path, monkeypatch):
    """A git repository whose one commit holds a one-workload
    BENCHMARK.json and a runner; the ledger's temporary trees go to
    ``tmp_path / "tmp"``."""
    path = tmp_path / "repo"
    (path / "perfbench").mkdir(parents=True)
    (path / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 1, "workloads": [{"name": "w"}],
        "end_to_end": [WALL_S], "per_layer": []}))
    (path / "perfbench" / "run.py").write_bytes(b"print('run')\n")
    git(path, "init", "-q")
    git(path, "add", ".")
    git(path, "commit", "-q", "-m", "one")
    (tmp_path / "tmp").mkdir()
    monkeypatch.setattr(ledger.tempfile, "tempdir", str(tmp_path / "tmp"))
    return path


def snapshot(tree: Path) -> dict:
    """Relative path -> bytes of every file under ``tree``."""
    return {str(p.relative_to(tree)): p.read_bytes() for p in tree.rglob("*") if p.is_file()}


def fake_perfbench(trees: dict, returncode=0):
    """``run_perfbench`` recording each side's tree as it runs: the
    parent reads a ``wall_s`` of 2.0, the change 1.0."""
    def run(checkout, workload, trace, seconds, seed):
        trees[checkout.name] = (checkout, snapshot(checkout))
        value = 2.0 if checkout.name == "parent" else 1.0
        return subprocess.CompletedProcess(
            [], returncode, runner_output({"wall_s": (value, "s")}), "boom")
    return run


def test_main_needs_a_parent_revision(tmp_path, monkeypatch):
    monkeypatch.setattr(ledger, "run_perfbench", lambda *a: pytest.fail("ran"))
    with pytest.raises(SystemExit) as exc:
        ledger.main(["--pr", "0", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("claim", ["w.correct.constrained_feasible", "x.wall_s",
                                   "wall_s", "w.wall_s.x"])
def test_a_claim_that_names_no_end_to_end_metric_exits_2_before_any_run(
        repo, tmp_path, monkeypatch, capsys, claim):
    monkeypatch.setattr(ledger, "run_perfbench", lambda *a: pytest.fail("ran"))
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        ledger.main(["--pr", "7", "--out", str(out), "--checkout", str(repo),
                     "--against", "HEAD", "--claim", "w.wall_s", "--claim", claim])
    assert exc.value.code == 2
    assert f"--claim {claim}: not an end-to-end metric" in capsys.readouterr().err
    assert not out.exists()
    assert list((tmp_path / "tmp").iterdir()) == []


def test_main_writes_nothing_when_a_run_fails(repo, tmp_path, monkeypatch):
    monkeypatch.setattr(ledger, "run_perfbench", lambda *a: subprocess.CompletedProcess([], 2, "", "boom"))
    out = tmp_path / "out"
    assert ledger.main(["--pr", "5", "--runs", "1", "--out", str(out),
                        "--checkout", str(repo), "--against", "HEAD"]) == 1
    assert not out.exists()
    assert list((tmp_path / "tmp").iterdir()) == []
    assert not (repo / ".git" / "worktrees").exists()


def test_against_head_of_a_clean_repository_runs_two_equal_trees(repo, tmp_path, monkeypatch):
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    trees = {}
    monkeypatch.setattr(ledger, "run_perfbench", fake_perfbench(trees))
    assert ledger.main(["--pr", "7", "--runs", "1", "--out", str(tmp_path / "out"),
                        "--checkout", str(repo), "--against", "HEAD"]) == 0
    assert set(trees) == {"parent", "change"}
    assert trees["parent"][1] == trees["change"][1]
    assert sorted(trees["change"][1]) == ["BENCHMARK.json", "perfbench/run.py"]
    written = json.loads((tmp_path / "out" / "BENCH_7.json").read_text())
    assert written["settings"]["PYTHONDONTWRITEBYTECODE"] is None
    assert written["settings"]["claims"] == []


@pytest.mark.parametrize("returncode", [0, 3])
def test_against_runs_two_plain_trees_however_the_runs_end(repo, tmp_path, monkeypatch,
                                                          returncode):
    (repo / "new.py").write_text("")
    (repo / ".gitignore").write_text("*.log\n")
    (repo / "run.log").write_text("")
    trees = {}
    monkeypatch.setattr(ledger, "run_perfbench", fake_perfbench(trees, returncode))
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    out = tmp_path / "out"
    argv = ["--pr", "7", "--runs", "2", "--seed", "3", "--out", str(out),
            "--checkout", str(repo), "--against", "HEAD", "--claim", "w.wall_s"]
    assert ledger.main(argv) == (1 if returncode else 0)
    assert set(trees) == ({"parent"} if returncode else {"parent", "change"})
    # both sides run side by side, from paths of one length, and neither
    # is a git checkout
    (tmp,) = {tree.parent for tree, _ in trees.values()}
    assert tmp.parent == tmp_path / "tmp"
    assert list(tmp.parent.iterdir()) == []
    assert not (repo / ".git" / "worktrees").exists()
    assert not any(name == ".git" or name.startswith(".git/")
                   for _, files in trees.values() for name in files)
    if returncode:
        assert not out.exists()
        return
    written = json.loads((out / "BENCH_7.json").read_text())
    # the change side is the working tree: untracked files, not ignored ones
    assert sorted(trees["parent"][1]) == ["BENCHMARK.json", "perfbench/run.py"]
    assert sorted(trees["change"][1]) == [".gitignore", "BENCHMARK.json", "new.py",
                                          "perfbench/run.py"]
    head = git(repo, "rev-parse", "HEAD").strip()
    assert written["parent"]["commit"] == written["commit"] == head
    assert written["parent"]["values"]["end_to_end"]["w"]["wall_s"] == [2.0] * 2
    assert written["values"]["end_to_end"]["w"]["wall_s"] == [1.0] * 2
    assert written["settings"]["seed"] == 3
    assert written["settings"]["claims"] == ["w.wall_s"]
    # the two settings that move setup_s and peak_rss_mb with no program change
    assert written["settings"]["PYTHONDONTWRITEBYTECODE"] == "1"
    assert written["settings"]["path_chars"] == {
        side: len(str(tree)) for side, (tree, _) in trees.items()}
    assert len(set(written["settings"]["path_chars"].values())) == 1


@pytest.mark.parametrize("runner, line", [(None, "'run'"), (b"", "''")],
                         ids=["no-json", "no-output"])
def test_a_run_without_a_result_object_writes_nothing(repo, tmp_path, capsys,
                                                       runner, line):
    # the stub runner exits 0 printing `run`, or nothing at all
    if runner is not None:
        (repo / "perfbench" / "run.py").write_bytes(runner)
        git(repo, "commit", "-q", "-am", "silent")
    out = tmp_path / "out"
    assert ledger.main(["--pr", "7", "--runs", "1", "--out", str(out),
                        "--checkout", str(repo), "--against", "HEAD"]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: parent w --trace 0: the last line is not a result "
                   f"object: {line}", "no ledger written"]
    assert not out.exists()
    assert list((tmp_path / "tmp").iterdir()) == []


def test_against_an_unknown_revision_writes_nothing(repo, tmp_path, monkeypatch):
    monkeypatch.setattr(ledger, "run_perfbench", lambda *a: pytest.fail("ran"))
    out = tmp_path / "out"
    assert ledger.main(["--pr", "7", "--out", str(out), "--checkout", str(repo),
                        "--against", "no-such-rev"]) == 1
    assert not out.exists()
    assert list((tmp_path / "tmp").iterdir()) == []
    assert not (repo / ".git" / "worktrees").exists()


def test_sigterm_removes_the_trees_and_kills_the_run(repo, tmp_path):
    # a run that records its pid in its tree, then outlasts the test
    (repo / "perfbench" / "run.py").write_text(
        "import os, time\n"
        "open('started', 'w').write(str(os.getpid()))\n"
        "time.sleep(30)\n")
    git(repo, "commit", "-q", "-am", "sleep")
    tmp = tmp_path / "tmp"
    proc = subprocess.Popen(
        [sys.executable, str(ROOT / "tools" / "ledger.py"), "--pr", "0", "--runs", "1",
         "--out", str(tmp_path / "out"), "--checkout", str(repo), "--against", "HEAD"],
        env={**os.environ, "TMPDIR": str(tmp)}, stderr=subprocess.PIPE)
    try:
        deadline = time.monotonic() + 20
        while not (started := list(tmp.glob("ledger-*/*/started"))):
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
        while not (pid := started[0].read_text()):  # the run is writing it
            time.sleep(0.05)
        proc.send_signal(signal.SIGTERM)
        proc.communicate(timeout=20)
    finally:
        proc.kill()
    assert proc.returncode != 0
    assert list(tmp.iterdir()) == []
    assert not (tmp_path / "out").exists()
    with pytest.raises(ProcessLookupError):
        os.kill(int(pid), 0)
