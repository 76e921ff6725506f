"""Measure the benchmark beside a parent revision and record both in a ledger.

    python tools/ledger.py --pr N --against HEAD~1     # 3 pairs of 30 s runs
    python tools/ledger.py --pr N --against HEAD~1 --runs 10 --seed 5
    python tools/ledger.py --pr N --against HEAD~1 --runs 10 --claim nonlinear.wall_s
    python tools/ledger.py --pr N --against REV --checkout ../other --out DIR

Two plain trees are written into one temporary directory by one writer:
``parent``, the regular files of ``git archive REV``, and ``change``, the
checkout's working tree (its tracked files and the untracked files git does
not ignore).  Neither is a git checkout, and both run from paths of one
length.  For every workload in ``BENCHMARK.json`` and both trace modes, each
tree's ``perfbench/run.py`` runs as a subprocess ``--runs`` times at
``--seed`` (default ``SEED``), the workloads and modes interleaved within
each repetition.  Each run of one side is paired with a run of the other
made right after it, and the side that goes first alternates from one
repetition to the next.  The directory is removed when the runs end, also
on SIGTERM, which kills the run in progress; a run killed outright may
leave it in the system's temporary directory, but nothing in the
repository.  Nothing is written unless REV names a commit and every
run exits 0 and reports ``correct: true``.  Then it writes
``BENCH_<pr>.json`` into ``--out`` (default: this repository's root):

* ``end_to_end``: workload -> metric -> ``median``, ``q1``, ``q3``, ``n``
  and ``unit`` over the change's ``--trace 0`` runs;
* ``layers``: the same over its ``--trace 1`` runs;
* ``values``: ``end_to_end`` and ``layers`` -> workload -> metric -> the
  value of every run, in run order;
* ``operations``: workload -> operations attempted and failed, summed over
  all runs;
* ``env``: the runner's ``# env`` line (Python, numpy and BLAS versions,
  CPUs and thread settings), ``commit`` (``git rev-parse HEAD`` of the
  checkout, with ``+dirty`` when its ``src`` or ``perfbench`` has
  uncommitted changes), and the run settings: besides ``--runs``,
  ``--seconds`` and ``--seed``, the two that move ``setup_s`` and
  ``peak_rss_mb`` with no program change, ``PYTHONDONTWRITEBYTECODE`` as
  the runs inherit it (set, every run compiles the package) and
  ``path_chars``, the length of each tree's path, and ``claims``, the
  ``--claim`` names;
* ``parent``: REV's ``end_to_end``, ``layers``, ``values``, ``operations``,
  ``env`` and ``commit``.

Last it prints, per metric, the parent's and the change's medians, the
parent's interquartile range and the pairs the change won, a tie counting
for neither side.  ``+`` marks an end-to-end metric named by a ``--claim
WORKLOAD.METRIC`` (repeatable) that meets the claim rule (at least ten
pairs run, nine tenths of them won, and a median move larger than the
parent's interquartile range).  Every other row is a report, never a
claim, so it gets no ``+``: a layer metric, and an end-to-end metric no
``--claim`` names.  A ``--claim`` that names no end-to-end metric of a
``BENCHMARK.json`` workload exits 2 before any run.  ``!`` marks an
end-to-end metric whose median is worse than the parent's by more than
its ``BENCHMARK.json`` bound, read as a fraction of the parent's median,
claimed or not.  The marks do not change the exit code.  Layer metrics
are listed only where their medians differ; a metric only one side
reports is listed as ``new`` or ``gone``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACE_MODES = (0, 1)
SEED = 1  # the default seed, which CI's benchmark smoke runs use


class LedgerError(Exception):
    """A run failed or reported wrong outputs; no ledger is written."""


def parse_run(stdout: str, where: str = "run") -> tuple[dict, dict]:
    """The ``# env`` line and the closing result object of one run; raises
    ``LedgerError`` naming ``where`` when the last line is not an object."""
    lines = stdout.strip().splitlines() or [""]
    env = next((json.loads(line[len("# env "):]) for line in lines
                if line.startswith("# env ")), {})
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict):
        raise LedgerError(f"{where}: the last line is not a result object: {lines[-1]!r}")
    return env, result


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
                    where = f"{side} {workload} --trace {trace}"
                    if proc.returncode != 0:
                        raise LedgerError(f"{where}: exit {proc.returncode}\n{proc.stderr}")
                    envs[side], result = parse_run(proc.stdout, where)
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


def git(checkout: Path, *args: str, text: bool = True) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=text)


def resolve(checkout: Path, rev: str) -> str:
    """The commit ``rev`` names in the checkout's repository; raises
    ``LedgerError`` if it names none."""
    proc = git(checkout, "rev-parse", "--verify", "--quiet", f"{rev}^{{commit}}")
    if proc.returncode != 0:
        raise LedgerError(f"{rev}: not a commit of {checkout}")
    return proc.stdout.strip()


def archived_files(checkout: Path, commit: str):
    """``(relative path, bytes)`` of every regular file of ``git archive``."""
    proc = git(checkout, "archive", "--format=tar", commit, text=False)
    if proc.returncode != 0:
        raise LedgerError(f"git archive {commit}: {proc.stderr.decode().strip()}")
    with tarfile.open(fileobj=io.BytesIO(proc.stdout)) as tar:
        for member in tar:
            if member.isfile():
                yield member.name, tar.extractfile(member).read()


def working_files(checkout: Path):
    """``(relative path, bytes)`` of every regular file of the working tree
    that git tracks or would track: untracked files it does not ignore."""
    names = git(checkout, "ls-files", "-z", "--cached", "--others",
                "--exclude-standard").stdout
    for name in filter(None, names.split("\0")):
        path = checkout / name
        if path.is_file() and not path.is_symlink():  # not deleted, not a link
            yield name, path.read_bytes()


def write_tree(root: Path, files) -> None:
    for name, data in files:
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_bytes(data)


@contextlib.contextmanager
def paired_trees(checkout: Path, commit: str):
    """``(parent, change)``: the files of ``commit`` and of the checkout's
    working tree, written at ``parent`` and ``change`` in one temporary
    directory that is removed however the body ends.  Both sides run from
    paths of one length because ``peak_rss_mb`` moves with it: the same
    tree run from a path 14 characters longer read 0.2 MB higher on
    nonlinear and 1.0 MB higher on csv-route."""
    tmp = Path(tempfile.mkdtemp(prefix="ledger-"))
    try:
        write_tree(tmp / "parent", archived_files(checkout, commit))
        write_tree(tmp / "change", working_files(checkout))
        yield tmp / "parent", tmp / "change"
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def commit_of(checkout: Path) -> str:
    head = git(checkout, "rev-parse", "HEAD").stdout.strip() or "unknown"
    dirty = git(checkout, "status", "--porcelain", "--", "src", "perfbench").stdout.strip()
    return head + ("+dirty" if dirty else "")


def paired(ledger: dict, spec: dict, claims=()) -> list:
    """One line per end-to-end metric and per layer metric that moved,
    the parent's median against the change's, with the parent's
    interquartile range and the pairs the change won.  ``+`` marks an
    end-to-end metric named in ``claims`` (``"workload.metric"`` strings)
    that meets the claim rule, ``!`` an end-to-end metric worse than the
    parent's median by more than its bound (a fraction of that median).
    A metric only one side reports is listed as ``new`` or ``gone``."""
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    parent = ledger["parent"]
    lines = []
    for section in ("end_to_end", "layers"):
        for workload, metrics in ledger[section].items():
            before = parent[section].get(workload, {})
            for name, now in metrics.items():
                was = before.get(name)
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
                if section == "end_to_end":  # a layer row is a report, never a claim
                    if name in bounds and sign * (b - a) > bounds[name] * abs(a):
                        mark = "!"
                    elif (f"{workload}.{name}" in claims and len(pairs) >= 10
                          and 10 * won >= 9 * len(pairs) and -sign * (b - a) > iqr):
                        mark = "+"
                change = f"{(b - a) / a:+.1%}" if a else "n/a"
                lines.append(f"{mark} {section} {workload} {name}: {a:.6g} -> {b:.6g} "
                             f"{now['unit']} ({change}), parent IQR {iqr:.3g}, "
                             f"won {won}/{len(pairs)}")
            lines += [f"  {section} {workload} {name}: gone, "
                      f"{was['median']:.6g} {was['unit']}"
                      for name, was in before.items() if name not in metrics]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--against", metavar="REV", required=True,
                        help="measure REV of the checkout's repository beside it")
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=None,
                        help="seconds per run (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--seed", type=int, default=SEED)
    parser.add_argument("--out", type=Path, default=ROOT)
    parser.add_argument("--checkout", type=Path, default=ROOT)
    parser.add_argument("--claim", action="append", default=[],
                        metavar="WORKLOAD.METRIC",
                        help="an end-to-end metric the change claims to improve; "
                             "only claimed rows can be marked +")
    args = parser.parse_args(argv)

    spec = json.loads((args.checkout / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    workloads = [w["name"] for w in spec["workloads"]]
    claimable = {f"{w}.{m['name']}" for w in workloads for m in spec["end_to_end"]}
    for claim in args.claim:
        if claim not in claimable:
            parser.error(f"--claim {claim}: not an end-to-end metric of a "
                         f"workload, one of {', '.join(sorted(claimable))}")

    def runner(tree):
        return lambda w, t: run_perfbench(tree, w, t, seconds, args.seed)

    try:
        parent_commit = resolve(args.checkout, args.against)
        commit = commit_of(args.checkout)
        with paired_trees(args.checkout, parent_commit) as (parent, change):
            sides = gather(workloads, args.runs,
                           {"parent": runner(parent), "change": runner(change)})
            path_chars = {"parent": len(str(parent)), "change": len(str(change))}
    except LedgerError as exc:
        print(f"error: {exc}\nno ledger written", file=sys.stderr)
        return 1
    ledger = sides["change"]
    ledger.update(pr=args.pr, commit=commit,
                  parent={**sides["parent"], "commit": parent_commit},
                  settings={"runs": args.runs, "seconds": seconds, "seed": args.seed,
                            "path_chars": path_chars, "claims": args.claim,
                            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE")})
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    print(f"parent {parent_commit} -> change {commit}, "
          f"{args.runs} pairs (+ a claim that meets the claim rule, ! a move beyond its bound):")
    print("\n".join(paired(ledger, spec, args.claim)))
    return 0


if __name__ == "__main__":
    # a SIGTERM (as from `timeout`) unwinds as SystemExit, so paired_trees
    # removes its trees and subprocess.run kills the run it waits on
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
