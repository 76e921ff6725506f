"""Record the benchmark in a ledger file and compare it with the last one.

    python tools/ledger.py --pr 18                      # 3 runs of 30 s each
    python tools/ledger.py --pr 18 --runs 5 --seconds 30 --out DIR
    python tools/ledger.py --pr 17 --checkout ../parent # measure another tree

For every workload in ``BENCHMARK.json`` and both trace modes, runs
``perfbench/run.py`` of the checkout as a subprocess ``--runs`` times at
seed ``SEED``, the workloads and modes interleaved within each repetition.
Nothing is written unless every run exits 0 and reports ``correct: true``.
Then it writes ``BENCH_<pr>.json`` into ``--out`` (default: this
repository's root):

* ``end_to_end``: workload -> metric -> ``median``, ``q1``, ``q3``, ``n``
  and ``unit`` over the ``--trace 0`` runs;
* ``layers``: the same over the ``--trace 1`` runs;
* ``operations``: workload -> operations attempted and failed, summed over
  all runs;
* ``env``: the runner's ``# env`` line (Python, numpy and BLAS versions,
  CPUs and thread settings), ``commit`` (``git rev-parse HEAD`` of the
  checkout, with ``+dirty`` when its ``src`` or ``perfbench`` has
  uncommitted changes), and the run settings.

Last it prints every metric's median beside that of the newest earlier
ledger in ``--out`` (the highest PR number below ``--pr``).  An end-to-end
metric whose median got worse by more than its ``BENCHMARK.json`` bound,
taken as a fraction of the earlier median as ``perfbench/README.md``
reads its spreads, is marked with ``!``; the marks do not change the exit
code.  Layer metrics are listed only where their medians differ.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACE_MODES = (0, 1)
SEED = 1  # the seed of CI's benchmark smoke runs


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


def run_perfbench(checkout: Path, workload: str, trace: int,
                  seconds: float) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True,
    )


def collect(workloads: list, runs: int, run) -> dict:
    """Every workload in both trace modes ``runs`` times through ``run(workload,
    trace)``, summarized; raises ``LedgerError`` at the first run that exits
    non-zero or reports ``correct: false``."""
    results = {(w, t): [] for w in workloads for t in TRACE_MODES}
    env = {}
    for _ in range(runs):
        for workload in workloads:
            for trace in TRACE_MODES:
                proc = run(workload, trace)
                where = f"{workload} --trace {trace}"
                if proc.returncode != 0:
                    raise LedgerError(f"{where}: exit {proc.returncode}\n{proc.stderr}")
                env, result = parse_run(proc.stdout)
                if result["correct"] is not True:
                    raise LedgerError(f"{where}: outputs not correct: {result}")
                results[workload, trace].append(result)
    return {
        "end_to_end": {w: summarize(results[w, 0]) for w in workloads},
        "layers": {w: summarize(results[w, 1]) for w in workloads},
        "operations": {w: {key: sum(r[key] for t in TRACE_MODES for r in results[w, t])
                           for key in ("attempted", "failed")} for w in workloads},
        "env": env,
    }


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=None,
                        help="seconds per run (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--out", type=Path, default=ROOT)
    parser.add_argument("--checkout", type=Path, default=ROOT)
    args = parser.parse_args(argv)

    spec = json.loads((args.checkout / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    workloads = [w["name"] for w in spec["workloads"]]
    try:
        ledger = collect(workloads, args.runs, lambda w, t: run_perfbench(
            args.checkout, w, t, seconds))
    except LedgerError as exc:
        print(f"error: {exc}\nno ledger written", file=sys.stderr)
        return 1
    ledger.update(pr=args.pr, commit=commit_of(args.checkout),
                  settings={"runs": args.runs, "seconds": seconds, "seed": SEED})
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")

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
