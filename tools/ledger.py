"""Record the benchmark in a ledger file and compare it with a parent.

    python tools/ledger.py --pr N --against HEAD~1     # paired, 3 runs of 30 s
    python tools/ledger.py --pr N --against HEAD~1 --runs 10 --seed 5
    python tools/ledger.py --pr N --runs 5 --seconds 30 --out DIR
    python tools/ledger.py --pr N --checkout ../parent # measure another tree

For every workload in ``BENCHMARK.json`` and both trace modes, runs
``perfbench/run.py`` of the checkout as a subprocess ``--runs`` times at
``--seed`` (default ``SEED``), the workloads and modes interleaved within
each repetition.  With ``--against REV``, REV is checked out by ``git
worktree add`` into a temporary directory, beside a copy of the checkout's
working tree, and the two are measured together: each run of one side is
paired with a run of the other made right after it, and the side that
goes first alternates from one repetition to the next.  The directory and
the worktree are removed when the runs end, whether they succeed or not.
Nothing is written unless every run exits 0 and reports ``correct:
true``.  Then it writes ``BENCH_<pr>.json`` into ``--out`` (default: this
repository's root):

* ``end_to_end``: workload -> metric -> ``median``, ``q1``, ``q3``, ``n``
  and ``unit`` over the ``--trace 0`` runs;
* ``layers``: the same over the ``--trace 1`` runs;
* ``values``: ``end_to_end`` and ``layers`` -> workload -> metric -> the
  value of every run, in run order;
* ``operations``: workload -> operations attempted and failed, summed over
  all runs;
* ``env``: the runner's ``# env`` line (Python, numpy and BLAS versions,
  CPUs and thread settings), ``commit`` (``git rev-parse HEAD`` of the
  checkout, with ``+dirty`` when its ``src`` or ``perfbench`` has
  uncommitted changes), and the run settings;
* with ``--against``, ``parent``: REV's ``end_to_end``, ``layers``,
  ``values``, ``operations``, ``env`` and ``commit``.

Last it compares, taking an end-to-end metric's ``BENCHMARK.json`` bound as
a fraction of the earlier median, as ``perfbench/README.md`` reads its
spreads.  With ``--against``, the comparison is read from the file: per
metric, the parent's and the change's medians, the parent's interquartile
range and the pairs the change won, a tie counting for neither side.
``+`` marks a metric that meets the claim rule (at least ten pairs run,
nine tenths of them won, and a median move larger than the parent's
interquartile range);
``!`` marks an end-to-end metric whose median is worse than the parent's
by more than its bound.  Without it, every metric's median is printed
beside that of the newest earlier ledger in ``--out`` (the highest PR
number below ``--pr``), with ``!`` for a move beyond the bound.  The marks
do not change the exit code.  Layer metrics are listed only where their
medians differ.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACE_MODES = (0, 1)
SEED = 1  # the default seed, which CI's benchmark smoke runs use


class LedgerError(Exception):
    """A run failed or reported wrong outputs; no ledger is written."""


def parse_run(stdout: str) -> tuple[dict, dict]:
    """The ``# env`` line and the closing result object of one run."""
    lines = stdout.strip().splitlines()
    env = next((json.loads(line[len("# env "):]) for line in lines
                if line.startswith("# env ")), {})
    return env, json.loads(lines[-1])


def summarize(results: list) -> dict:
    """metric -> median, quartiles, sample count and unit over the runs."""
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                          if len(values) > 1 else values * 3)
        out[name] = {"median": median, "q1": q1, "q3": q3, "n": len(values),
                     "unit": results[0]["metrics"][name]["unit"]}
    return out


def run_perfbench(checkout: Path, workload: str, trace: int, seconds: float,
                  seed: int = SEED) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True,
    )


def gather(workloads: list, runs: int, runners: dict) -> dict:
    """Every workload in both trace modes ``runs`` times through each
    side's ``runners[side](workload, trace)``, summarized per side.  The
    sides of one workload and mode run back to back, in the order of
    ``runners`` in even repetitions and reversed in odd ones.  Raises
    ``LedgerError`` at the first run that exits non-zero or reports
    ``correct: false``."""
    sides = list(runners)
    results = {side: {(w, t): [] for w in workloads for t in TRACE_MODES}
               for side in sides}
    envs = {}
    for rep in range(runs):
        for workload in workloads:
            for trace in TRACE_MODES:
                for side in sides if rep % 2 == 0 else sides[::-1]:
                    proc = runners[side](workload, trace)
                    where = f"{workload} --trace {trace}"
                    if len(sides) > 1:
                        where = f"{side} {where}"
                    if proc.returncode != 0:
                        raise LedgerError(f"{where}: exit {proc.returncode}\n{proc.stderr}")
                    envs[side], result = parse_run(proc.stdout)
                    if result["correct"] is not True:
                        raise LedgerError(f"{where}: outputs not correct: {result}")
                    results[side][workload, trace].append(result)
    return {side: summarize_side(results[side], envs[side], workloads)
            for side in sides}


def summarize_side(results: dict, env: dict, workloads: list) -> dict:
    """One side's ledger sections from its ``(workload, trace) -> results``."""
    side = {"values": {}}
    for section, trace in (("end_to_end", 0), ("layers", 1)):
        side[section] = {w: summarize(results[w, trace]) for w in workloads}
        side["values"][section] = {
            w: {name: [r["metrics"][name]["value"] for r in results[w, trace]]
                for name in results[w, trace][0]["metrics"]}
            for w in workloads}
    side["operations"] = {
        w: {key: sum(r[key] for t in TRACE_MODES for r in results[w, t])
            for key in ("attempted", "failed")} for w in workloads}
    side["env"] = env
    return side


@contextlib.contextmanager
def paired_trees(checkout: Path, rev: str):
    """``(parent, change)``: ``rev`` of the checkout's repository, checked
    out by ``git worktree add``, and a copy of the checkout's working tree
    (its tracked files and the untracked files git does not ignore), at
    ``parent`` and ``change`` in one temporary directory.  The directory is
    removed, with the worktree, however the body ends; raises
    ``LedgerError`` if the checkout fails.  Both sides run from paths of
    one length because ``peak_rss_mb`` moves with it: the same tree run
    from a path 14 characters longer read 0.2 MB higher on nonlinear and
    1.0 MB higher on csv-route."""
    tmp = Path(tempfile.mkdtemp(prefix="ledger-"))
    parent, change = tmp / "parent", tmp / "change"
    try:
        proc = subprocess.run(["git", "worktree", "add", "--detach", str(parent), rev],
                              cwd=checkout, capture_output=True, text=True)
        if proc.returncode != 0:
            raise LedgerError(f"git worktree add {rev}: {proc.stderr.strip()}")
        files = subprocess.run(
            ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
            cwd=checkout, capture_output=True, text=True, check=True).stdout
        for name in filter(None, files.split("\0")):
            if (checkout / name).is_file():  # not a tracked file since deleted
                (change / name).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(checkout / name, change / name)
        yield parent, change
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", str(parent)],
                       cwd=checkout, capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)


def commit_of(checkout: Path) -> str:
    def git(*args):
        return subprocess.run(["git", *args], cwd=checkout, capture_output=True,
                              text=True).stdout.strip()

    head = git("rev-parse", "HEAD") or "unknown"
    return head + ("+dirty" if git("status", "--porcelain", "--", "src", "perfbench") else "")


def newest_earlier(out: Path, pr: int) -> Path | None:
    """The ledger in ``out`` with the highest PR number below ``pr``."""
    earlier = [(int(m.group(1)), path) for path in out.glob("BENCH_*.json")
               if (m := re.fullmatch(r"BENCH_(\d+)\.json", path.name))
               and int(m.group(1)) < pr]
    return max(earlier)[1] if earlier else None


def diff(old: dict, new: dict, bounds: dict) -> list:
    """One line per end-to-end metric and per layer metric that moved,
    old median against new; an end-to-end metric worse than the old median
    by more than its bound (a fraction of that median) starts with ``!``."""
    lines = []
    for section in ("end_to_end", "layers"):
        for workload, metrics in new[section].items():
            for name, now in metrics.items():
                was = old.get(section, {}).get(workload, {}).get(name)
                if was is None:
                    lines.append(f"  {section} {workload} {name}: new, "
                                 f"{now['median']:.6g} {now['unit']}")
                    continue
                a, b = was["median"], now["median"]
                if section == "layers" and a == b:
                    continue
                change = f"{(b - a) / a:+.1%}" if a else "n/a"
                mark = " "
                if section == "end_to_end" and name in bounds:
                    sign = 1.0 if bounds[name]["better"] == "lower" else -1.0
                    if sign * (b - a) > bounds[name]["bound"] * abs(a):
                        mark = "!"
                lines.append(f"{mark} {section} {workload} {name}: "
                             f"{a:.6g} -> {b:.6g} {now['unit']} ({change})")
    return lines


def paired(ledger: dict, spec: dict) -> list:
    """One line per end-to-end metric and per layer metric that moved,
    the parent's median against the change's, with the parent's
    interquartile range and the pairs the change won.  ``+`` marks the
    claim rule met, ``!`` an end-to-end metric worse than the parent's
    median by more than its bound (a fraction of that median)."""
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    parent = ledger["parent"]
    lines = []
    for section in ("end_to_end", "layers"):
        for workload, metrics in ledger[section].items():
            for name, now in metrics.items():
                was = parent[section].get(workload, {}).get(name)
                if was is None:  # REV's benchmark does not report it
                    lines.append(f"  {section} {workload} {name}: new, "
                                 f"{now['median']:.6g} {now['unit']}")
                    continue
                a, b = was["median"], now["median"]
                if section == "layers" and a == b:
                    continue
                # worse > 0: the change moved the wrong way
                sign = -1.0 if better.get(name) == "higher" else 1.0
                pairs = list(zip(parent["values"][section][workload][name],
                                 ledger["values"][section][workload][name]))
                won = sum(sign * (c - p) < 0 for p, c in pairs)
                iqr = was["q3"] - was["q1"]
                mark = " "
                if (section == "end_to_end" and name in bounds
                        and sign * (b - a) > bounds[name] * abs(a)):
                    mark = "!"
                elif (len(pairs) >= 10 and 10 * won >= 9 * len(pairs)
                      and -sign * (b - a) > iqr):
                    mark = "+"
                change = f"{(b - a) / a:+.1%}" if a else "n/a"
                lines.append(f"{mark} {section} {workload} {name}: {a:.6g} -> {b:.6g} "
                             f"{now['unit']} ({change}), parent IQR {iqr:.3g}, "
                             f"won {won}/{len(pairs)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=None,
                        help="seconds per run (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--seed", type=int, default=SEED)
    parser.add_argument("--out", type=Path, default=ROOT)
    parser.add_argument("--checkout", type=Path, default=ROOT)
    parser.add_argument("--against", metavar="REV",
                        help="measure REV of the checkout's repository beside it")
    args = parser.parse_args(argv)

    spec = json.loads((args.checkout / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    workloads = [w["name"] for w in spec["workloads"]]

    def runner(checkout):
        return lambda w, t: run_perfbench(checkout, w, t, seconds, args.seed)

    try:
        with contextlib.ExitStack() as stack:
            trees = {"change": args.checkout}
            commits = {"change": commit_of(args.checkout)}
            if args.against:
                trees = dict(zip(("parent", "change"), stack.enter_context(
                    paired_trees(args.checkout, args.against))))
                commits["parent"] = commit_of(trees["parent"])
            sides = gather(workloads, args.runs,
                           {side: runner(tree) for side, tree in trees.items()})
    except LedgerError as exc:
        print(f"error: {exc}\nno ledger written", file=sys.stderr)
        return 1
    ledger = sides["change"]
    ledger.update(pr=args.pr, commit=commits["change"],
                  settings={"runs": args.runs, "seconds": seconds, "seed": args.seed})
    if args.against:
        ledger["parent"] = {**sides["parent"], "commit": commits["parent"]}
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")

    if args.against:
        print(f"parent {commits['parent']} -> change {commits['change']}, "
              f"{args.runs} pairs (+ meets the claim rule, ! a move beyond its bound):")
        print("\n".join(paired(ledger, spec)))
        return 0
    earlier = newest_earlier(args.out, args.pr)
    if earlier is None:
        print(f"no earlier BENCH_*.json in {args.out} to compare with")
        return 0
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    print(f"against {earlier.name} (! marks a move beyond its bound):")
    print("\n".join(diff(json.loads(earlier.read_text()), ledger, bounds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
