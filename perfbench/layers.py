"""Per-layer metrics from a traced run.

``observe`` attaches counters to the tracer's wrappers: work counts summed
from returned objects and from the sizes of files the CLI reads and writes.
``per_layer`` turns spans, counters and the runner's own per-operation
timings into the metrics listed in ``BENCHMARK.json``: totals over the
measured part of the run (its fixed rounds, plus the side round of a
workload that has one), and medians of the per-operation timings.
"""

from __future__ import annotations

import functools
import os
import platform
import statistics
from collections import defaultdict

# metric name -> span names whose self times it sums
SELF_TIMES = {
    "cli.read_table_s": ("cli.read_table",),
    "cli.encode_columns_s": ("cli.encode_columns",),
    "cli.read_tensor_s": ("cli.read_tensor",),
    "cli.write_s": ("cli._write_csv", "cli.write_tensor"),
    "linalg.build_projector_s": ("linalg.build_projector",),
    "linalg.complement_s": ("linalg.complement", "linalg.apply_complement",
                            "linalg.mode1_product"),
    "linalg.least_squares_s": ("linalg.least_squares",),
    "glm.fit_glm_s": ("glm.fit_glm",),
    "glm.wald_inference_s": ("glm.wald_inference",),
    "correct.fit_constrained_glm_s": ("correct.fit_constrained_glm",),
    "correct.correct_features_linear_s": ("correct.correct_features_linear",),
    "evalmodel.evaluate_glm_s": ("evalmodel.evaluate_glm",),
    "evalmodel.evaluate_relu_l2_s": ("evalmodel.evaluate_relu_l2",),
    "evalmodel.evaluate_tensor_s": ("evalmodel.evaluate_tensor",),
    "synth.generate_s": ("synth.generate",),
    "online.train_mlp_s": ("online.train_mlp",),
    "online.forward_s": ("online.forward",),
    "online.backward_s": ("online.backward",),
}

# metric name -> span name whose calls it counts
CALLS = {
    "linalg.build_projector_calls": "linalg.build_projector",
    "linalg.least_squares_calls": "linalg.least_squares",
    "glm.fit_glm_calls": "glm.fit_glm",
    "correct.fit_constrained_glm_calls": "correct.fit_constrained_glm",
    "evalmodel.evaluate_glm_calls": "evalmodel.evaluate_glm",
    "evalmodel.evaluate_relu_l2_calls": "evalmodel.evaluate_relu_l2",
}

COUNTS = (
    "cli.rows_parsed", "cli.bytes_read", "cli.bytes_written",
    "glm.irls_steps", "correct.constrained_iters", "correct.constrained_feasible",
    "synth.jobs", "online.batches", "online.skipped_batches",
)

# metric name -> runner timing it takes the median of ("seconds per call")
OPERATIONS = {
    "correct_linear_s": "correct_linear_s",
    "correct_constrained_s": "correct_constrained_s",
    "correct_tensor_s": "correct_tensor_s",
    "evaluate_s": "evaluate_s",
    "train_p50_s": "train_mlp",  # the full 60-epoch pair of the side round
    "relu_eval_p50_s": "evaluate_relu_l2",
}


def _count_reads(counts, args, result):
    counts["cli.bytes_read"] += os.path.getsize(args[0])
    if isinstance(result, tuple):  # read_table: (header, body)
        counts["cli.rows_parsed"] += len(result[1])
    else:  # read_tensor: the tensor
        counts["cli.rows_parsed"] += result.shape[0]


def _count_write(counts, args, result):
    counts["cli.bytes_written"] += os.path.getsize(args[0])


def _count_irls(counts, args, result):
    counts["glm.irls_steps"] += result.iterations


def _count_constrained(counts, args, result):
    counts["correct.constrained_iters"] += result.iterations
    cfg = args[4] if len(args) > 4 else None
    tol = cfg.constraint_tol if cfg is not None else 1e-6
    counts["correct.constrained_feasible"] += result.constraint_residual <= tol


def _count_jobs(counts, args, result):
    counts["synth.jobs"] += len(args[0]) * args[1]


def _count_batch(counts, args, result):
    counts["online.batches"] += 1


def _count_skipped(counts, args, result):
    counts["online.skipped_batches"] += result.skipped_batches


COUNTERS = {
    "cli.read_table": _count_reads,
    "cli.read_tensor": _count_reads,
    "cli._write_csv": _count_write,
    "cli.write_tensor": _count_write,
    "glm.fit_glm": _count_irls,
    "correct.fit_constrained_glm": _count_constrained,
    "synth.simulation_study": _count_jobs,
    "online.backward": _count_batch,
    "online.train_mlp": _count_skipped,
}


def observe(tracer) -> None:
    """Wrap the tracer's wrappers with the counters above.

    The program always passes these functions their counted arguments
    positionally.  A ``DidNotConverge`` is counted through the best result
    it carries.
    """
    from orthokit.errors import DidNotConverge
    from tracer import rebind

    tracer.counts = defaultdict(float)
    for name, count in COUNTERS.items():
        traced = tracer.wrapped[name]

        def counted(*args, _fn=traced, _count=count, **kwargs):
            try:
                result = _fn(*args, **kwargs)
            except DidNotConverge as exc:
                if exc.result is not None:
                    _count(tracer.counts, args, exc.result)
                raise
            _count(tracer.counts, args, result)
            return result

        rebind(traced, functools.wraps(traced)(counted))


def per_layer(tracer, rounds, wall_s: float) -> dict:
    """``{metric: (value, unit)}`` for every per-layer metric."""
    self_times = tracer.self_times()
    calls = tracer.call_counts()
    metrics = {}
    for metric, names in SELF_TIMES.items():
        metrics[metric] = (sum(self_times.get(n, 0.0) for n in names), "s")
    for metric, name in CALLS.items():
        metrics[metric] = (calls.get(name, 0), "count")
    for metric in COUNTS:
        unit = "bytes" if metric.endswith(("bytes_read", "bytes_written")) else "count"
        metrics[metric] = (tracer.counts.get(metric, 0), unit)
    for metric, key in OPERATIONS.items():
        samples = [t for r in rounds for t in r.times.get(key, ())]
        metrics[metric] = (statistics.median(samples) if samples else 0.0, "s")
    metrics["traced.wall_s"] = (wall_s, "s")
    return metrics


def environment(thread_env: dict) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "threads": thread_env,
    }
