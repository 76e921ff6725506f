"""The benchmark ledger's summary, refusal and diff, on canned runner output.

No benchmark runs here: ``collect`` is handed a fake runner that returns
what ``perfbench/run.py`` prints.
"""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("ledger", ROOT / "tools" / "ledger.py")
ledger = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ledger)

ENV = {"python": "3.11.7", "numpy": "2.4.6", "blas": "scipy-openblas 0.3.31", "nproc": 2}
BOUNDS = {
    "wall_s": {"name": "wall_s", "better": "lower", "bound": 0.25},
    "peak_rss_mb": {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
}


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
    got = ledger.collect(["study-grid"], 2, fake_runner({
        ("study-grid", 0): e2e, ("study-grid", 1): traced}))
    assert got["end_to_end"]["study-grid"]["wall_s"]["median"] == 2.0
    assert got["layers"]["study-grid"]["glm.irls_steps"]["q3"] == 646
    assert got["operations"] == {"study-grid": {"attempted": 100, "failed": 2}}
    assert got["env"] == ENV


@pytest.mark.parametrize("bad", [(1, ""), (0, runner_output({"wall_s": (1.0, "s")}, correct=False))])
def test_collect_refuses_a_failed_or_wrong_run(bad):
    good = (0, runner_output({"wall_s": (1.0, "s")}))
    run = fake_runner({("study-grid", 0): [good, bad], ("study-grid", 1): [good, good]})
    with pytest.raises(ledger.LedgerError):
        ledger.collect(["study-grid"], 2, run)


def test_main_writes_nothing_when_a_run_fails(tmp_path, monkeypatch):
    monkeypatch.setattr(ledger, "run_perfbench", lambda *a: subprocess.CompletedProcess([], 2, "", "boom"))
    assert ledger.main(["--pr", "5", "--runs", "1", "--out", str(tmp_path)]) == 1
    assert list(tmp_path.iterdir()) == []


def stats(median, unit="s"):
    return {"median": median, "q1": median, "q3": median, "n": 3, "unit": unit}


def test_diff_marks_only_moves_beyond_the_bound():
    old = {"end_to_end": {"w": {"wall_s": stats(1.0), "peak_rss_mb": stats(50.0, "MB")}},
           "layers": {"w": {"glm.irls_steps": stats(646, "count"), "synth.jobs": stats(24, "count")}}}
    new = {"end_to_end": {"w": {"wall_s": stats(1.3), "peak_rss_mb": stats(54.0, "MB")}},
           "layers": {"w": {"glm.irls_steps": stats(650, "count"), "synth.jobs": stats(24, "count")}}}
    lines = ledger.diff(old, new, BOUNDS)
    assert [line[0] for line in lines] == ["!", " ", " "]
    assert "wall_s: 1 -> 1.3 s (+30.0%)" in lines[0]
    assert "peak_rss_mb" in lines[1]
    assert "glm.irls_steps: 646 -> 650" in lines[2]  # unchanged layers are left out
    better = {"end_to_end": {"w": {"wall_s": stats(0.5), "peak_rss_mb": stats(40.0, "MB")}},
              "layers": {}}
    assert all(line[0] == " " for line in ledger.diff(old, better, BOUNDS))


def test_newest_earlier_ledger_by_pr_number(tmp_path):
    for name in ("BENCH_9.json", "BENCH_17.json", "BENCH_18.json", "BENCH_x.json"):
        (tmp_path / name).write_text("{}")
    assert ledger.newest_earlier(tmp_path, 18).name == "BENCH_17.json"
    assert ledger.newest_earlier(tmp_path, 10).name == "BENCH_9.json"
    assert ledger.newest_earlier(tmp_path, 9) is None
