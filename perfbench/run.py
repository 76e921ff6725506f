"""Benchmark runner for orthokit.

Usage (from the repository root):

    python3 perfbench/run.py --workload study-grid --seed 1 --seconds 30 --trace 0

Builds the workload's inputs from ``--seed``, warms every code path
once, then runs a fixed number of whole rounds of the workload, about
``--seconds`` long, and measures the set-up time of a fresh ``orthokit``
interpreter at points spread over those rounds.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: with ``--trace 0`` the end-to-end metrics,
with ``--trace 1`` the per-layer metrics of a run in which every public
function of the traced modules records spans.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

# The program runs with one BLAS thread and one study-pool thread, so its
# busy threads never exceed the machine's CPUs.  Set before numpy loads.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "ORTHOKIT_THREADS": "1",
}
os.environ.update(THREAD_ENV)

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 9
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "import orthokit.cli; orthokit.cli.build_parser()")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup() -> float:
    """Wall time of a fresh interpreter importing orthokit and building
    the CLI parser."""
    import subprocess

    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], check=True)
    return time.perf_counter() - start


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_rounds(workload, seconds: float, setup_times: list):
    """The workload's fixed number of whole rounds for ``seconds``, with
    ``SETUP_REPEATS`` set-up measurements spread evenly between them.

    The count depends only on ``seconds`` and the workload's nominal round
    length, so every run of a workload attempts the same operations and
    best-of-rounds times compare like with like.  The host's speed moves
    between regimes, and set-up times taken one after another all land in
    the same one; spread over the run, their median covers more of them.
    """
    count = max(1, int(seconds // workload.nominal_round_s))
    gaps = [round(i * count / (SETUP_REPEATS - 1)) for i in range(SETUP_REPEATS)]
    rounds = []
    for gap in range(count + 1):
        setup_times.extend(measure_setup() for _ in range(gaps.count(gap)))
        if gap < count:
            rounds.append(workload.round())
    return rounds


def best_of_rounds(rounds) -> float:
    """Each timed call's fastest round, summed over the calls of a round.

    On the 2-CPU host the benchmark was built on, a fixed 3 ms kernel's
    median time per 30-second window ranged from 1.27 to 1.69 times its
    fastest, while its fastest 1% stayed within 1.04 to 1.10: the fastest
    repetition of a call is its least disturbed measurement.
    """
    return sum(min(r.times[name][i] for r in rounds)
               for name, calls in rounds[0].times.items() for i in range(len(calls)))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "orthokit" / "__init__.py").is_file():
        print(f"error: no orthokit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import json
    import shutil
    import statistics

    import layers
    from tracer import Tracer
    from workloads import OK, WORKLOADS, WRONG

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, work)
        workload.warm_up()
        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install()
            layers.observe(tracer)
        if hasattr(workload, "install_probes"):
            workload.install_probes()
        setup_times = []
        rounds = run_rounds(workload, args.seconds, setup_times)
        side = [workload.side_round()] if hasattr(workload, "side_round") else []
    finally:
        shutil.rmtree(work, ignore_errors=True)

    outcomes = [o for r in rounds + side for o in r.outcomes]
    for note in (n for r in rounds + side for n in r.notes):
        print(f"[{args.workload}] {note}", file=sys.stderr)
    wall_s = best_of_rounds(rounds)
    if tracer is None:
        metrics = {
            "wall_s": (wall_s, "s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
    else:
        metrics = layers.per_layer(tracer, rounds + side, wall_s)
        WORK.mkdir(exist_ok=True)
        tracer.write(WORK / f"trace-{args.workload}-seed{args.seed}.json",
                     {"workload": args.workload, "seed": args.seed,
                      "rounds": len(rounds), "thread_env": THREAD_ENV,
                      "metrics": {k: v for k, (v, _) in metrics.items()}})
    result = {
        "correct": WRONG not in outcomes,
        "attempted": len(outcomes),
        "failed": sum(o != OK for o in outcomes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print("# env " + json.dumps(layers.environment(THREAD_ENV)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
