"""Generator and study-harness tests.

Correlation expectations come from the closed form rho / sqrt(rho^2 + 1),
verified within Monte Carlo tolerance; everything else is determinism,
schema stability, and the two-feature demonstration.
"""

import dataclasses
import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import orthokit.synth as synth
from orthokit.correct import ConstrainedConfig, corrected_design, fit_constrained_glm
from orthokit.errors import InvalidSpec
from orthokit.evalmodel import evaluate_glm
from orthokit.glm import ALPHA, BERNOULLI, GRAM_BLOCK_BYTES, family_by_name, fit_glm
from orthokit.synth import (
    METHODS,
    STUDY_COLUMNS,
    StudyTable,
    SyntheticSpec,
    TrajectoryTable,
    figure1_demo,
    fit_method,
    generate,
    simulation_study,
    stream,
)

ROOT = Path(__file__).resolve().parents[1]


class TestStreams:
    def test_deterministic(self):
        a = stream(42, 1, 2).standard_normal(5)
        b = stream(42, 1, 2).standard_normal(5)
        np.testing.assert_array_equal(a, b)

    def test_distinct_ids_give_distinct_streams(self):
        a = stream(42, 1).standard_normal(5)
        b = stream(42, 2).standard_normal(5)
        assert not np.allclose(a, b)


class TestGenerate:
    def test_rho_zero_uncorrelated(self):
        d = generate(SyntheticSpec(n=5000, p=3, q=6, rho=0.0, seed=1))
        for j in range(3):
            for k in range(6):
                assert abs(np.corrcoef(d.x[:, j], d.z[:, k])[0, 1]) <= 0.1

    def test_rho_two_analytic_correlation(self):
        # corr(rho Z + E, Z) = rho / sqrt(rho^2 + 1)
        d = generate(SyntheticSpec(n=5000, p=3, q=6, rho=2.0, seed=2))
        expected = 2.0 / np.sqrt(5.0)
        for j in range(3):
            got = np.corrcoef(d.x[:, j], d.z[:, j])[0, 1]
            assert abs(got - expected) <= 0.02

    @pytest.mark.parametrize("rho", [0.0, 1.0, 2.0])
    def test_analytic_correlation_within_mc_tolerance(self, rho):
        n = 4000
        d = generate(SyntheticSpec(n=n, p=2, q=4, rho=rho, seed=5))
        expected = rho / np.sqrt(rho**2 + 1.0)
        for j in range(2):
            got = np.corrcoef(d.x[:, j], d.z[:, j])[0, 1]
            assert abs(got - expected) <= 3.0 / np.sqrt(n)

    def test_bitwise_determinism(self):
        spec = SyntheticSpec(n=100, p=2, q=5, rho=1.0, family="poisson", seed=9)
        a = generate(spec, replicate=3)
        b = generate(spec, replicate=3)
        np.testing.assert_array_equal(a.z, b.z)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)
        c = generate(spec, replicate=4)
        assert not np.array_equal(a.y, c.y)

    def test_family_domains(self):
        bern = generate(SyntheticSpec(n=200, p=1, q=2, rho=1.0, seed=0))
        assert set(np.unique(bern.y)) <= {0.0, 1.0}
        pois = generate(
            SyntheticSpec(n=200, p=1, q=2, rho=1.0, family="poisson", seed=0)
        )
        assert np.all(pois.y >= 0) and np.all(pois.y == np.floor(pois.y))

    def test_invalid_specs_rejected(self):
        with pytest.raises(InvalidSpec):
            generate(SyntheticSpec(n=0, p=1, q=2, rho=0.0))
        with pytest.raises(InvalidSpec):
            generate(SyntheticSpec(n=10, p=3, q=2, rho=0.0))


SPEC = SyntheticSpec(n=60, p=1, q=2, rho=0.0)


class TestSpecRules:
    """A ``SyntheticSpec`` checks its own fields when it is built, also
    when ``dataclasses.replace`` builds it."""

    @pytest.mark.parametrize("field, value, message", [
        ("n", True, "n must be integral, got True"),
        ("n", 60.0, "n must be integral, got 60.0"),
        ("n", "60", "n must be integral, got '60'"),
        ("n", float("inf"), "n must be integral, got inf"),
        ("p", 1.5, "p must be integral, got 1.5"),
        ("q", np.float64(2.0), "q must be integral, got"),
        ("seed", False, "seed must be integral, got False"),
        ("seed", "3", "seed must be integral, got '3'"),
        ("rho", True, "rho must be real, got True"),
        ("rho", "2", "rho must be real, got '2'"),
        ("rho", None, "rho must be real, got None"),
        ("rho", float("nan"), "rho must be finite"),
        ("rho", -float("inf"), "rho must be finite"),
        ("n", 0, "n must be >= 1, got 0"),
        ("p", 0, "need 1 <= p <= q, got p=0, q=2"),
        ("p", 3, "need 1 <= p <= q, got p=3, q=2"),
        ("family", "gamma", "unknown family 'gamma'"),
        ("family", None, "unknown family None"),
        ("family", ["bernoulli"], "unknown family \\['bernoulli'\\]"),
    ])
    def test_each_rule_raises_when_built(self, field, value, message):
        kwargs = dict(dataclasses.asdict(SPEC), **{field: value})
        with pytest.raises(InvalidSpec, match=f"^{message}"):
            SyntheticSpec(**kwargs)
        with pytest.raises(InvalidSpec, match=f"^{message}"):
            dataclasses.replace(SPEC, **{field: value})

    def test_numpy_integers_and_an_int_rho_are_accepted(self):
        spec = SyntheticSpec(n=np.int64(60), p=np.int32(1), q=np.int64(2),
                             rho=np.int64(2), seed=np.uint64(7))
        assert (spec.n, spec.p, spec.q, spec.seed) == (60, 1, 2, 7)
        # a spec's rho is a float, so an int rho writes as a float one
        assert type(spec.rho) is float and spec.rho == 2.0
        assert type(SyntheticSpec(n=60, p=1, q=2, rho=np.float32(0.5)).rho) is float
        data = generate(spec)
        np.testing.assert_array_equal(
            data.x, generate(dataclasses.replace(spec, n=60, rho=2.0, seed=7)).x)


class TestSimulationStudy:
    def test_row_count_formula(self):
        grid = [
            SyntheticSpec(n=120, p=2, q=4, rho=2.0, seed=3),
            SyntheticSpec(n=120, p=3, q=5, rho=0.0, seed=3),
        ]
        table = simulation_study(grid, replicates=1)
        expected = len(METHODS) * (2 + 3)
        assert len(table.rows) == expected
        assert all(not r.get("error") for r in table.rows)

    def test_schema_stable(self):
        grid = [SyntheticSpec(n=80, p=1, q=3, rho=1.0, seed=4)]
        table = simulation_study(grid, replicates=2)
        assert table.columns == STUDY_COLUMNS
        for row in table.rows:
            assert set(row) <= set(STUDY_COLUMNS)

    def test_deterministic_across_thread_counts(self):
        # the study runs serially: threads is a name kept for callers,
        # more than one thread is refused, and serial runs repeat exactly
        grid = [
            SyntheticSpec(n=150, p=2, q=4, rho=2.0, seed=6),
            SyntheticSpec(n=150, p=2, q=4, rho=0.0, seed=6),
        ]
        with pytest.raises(InvalidSpec, match="threads.*4"):
            simulation_study(grid, replicates=2, threads=4)
        first = simulation_study(grid, replicates=2, threads=1)
        assert first.rows == simulation_study(grid, replicates=2, threads=None).rows
        assert first.rows == simulation_study(grid, replicates=2, threads=0).rows

    @pytest.mark.parametrize("bad", [
        dict(n=0, p=1, q=2, rho=0.0),
        dict(n=60, p=3, q=2, rho=0.0),
        dict(n=60, p=1, q=2, rho=float("nan")),
        dict(n=60, p=1, q=2, rho=0.0, family="gamma"),
        dict(n=62, p=2, q=60, rho=0.0),
    ], ids=["n", "p_above_q", "rho", "family", "n_at_p_plus_q"])
    def test_invalid_cell_raises_before_any_cell_runs(self, bad, monkeypatch):
        # an invalid spec cannot be built, so the cell is built inside the
        # check: a cell's own rules raise there, the grid's in the study
        drawn = []
        monkeypatch.setattr(synth, "generate", lambda *a: drawn.append(a))
        grid = [SyntheticSpec(n=60, p=1, q=2, rho=0.0)]
        with pytest.raises(InvalidSpec):
            simulation_study(grid + [SyntheticSpec(**bad)], replicates=1)
        with pytest.raises(InvalidSpec, match="threads"):
            simulation_study(grid, replicates=1, threads=2)
        assert drawn == []

    def test_repeated_cell_is_named_before_any_cell_runs(self, monkeypatch):
        # study rows key a cell by family, n, p, q and rho and carry no
        # seed, so a cell listed twice with two seeds would repeat its rows'
        # cell and replicate numbers; an int rho is the same cell as a float
        drawn = []
        monkeypatch.setattr(synth, "generate", lambda *a: drawn.append(a))
        cell = dict(n=40, p=1, q=3, rho=2.0)
        grid = [SyntheticSpec(**cell, seed=1), SyntheticSpec(n=50, p=1, q=3, rho=2.0),
                SyntheticSpec(**dict(cell, rho=2), seed=2)]
        with pytest.raises(InvalidSpec) as exc:
            simulation_study(grid, replicates=2)
        assert str(exc.value) == ("repeated cell family=bernoulli n=40 p=1 q=3 rho=2.0; "
                                  "replicates repeat a cell")
        assert drawn == []
        monkeypatch.undo()
        # another family is another cell
        other = dataclasses.replace(grid[2], family="poisson")
        assert len(simulation_study([grid[0], other], replicates=1).rows) == 6

    def test_confounded_cell_separates_methods(self):
        grid = [SyntheticSpec(n=1000, p=3, q=8, rho=2.0, seed=8)]
        table = simulation_study(grid, replicates=3)
        summary = {s["method"]: s for s in table.summarize()}
        assert summary["uncorrected"]["fraction_significant"] >= 0.5
        assert summary["ch"]["fraction_significant"] == 0.0
        assert summary["ch"]["median_abs_estimate"] <= 1e-2
        assert summary["ch"]["median_p_value"] >= 0.9

    def test_summary_pools_only_converged_fits(self):
        # quasi-separated: the constrained fit stops at the clamp with
        # gamma = 0, whose constant predictions evaluate as p = 1
        spec = SyntheticSpec(n=200, p=5, q=100, rho=2.0, family="bernoulli",
                             seed=0)
        table = simulation_study([spec], replicates=1)
        ch = [r for r in table.rows if r["method"] == "ch"]
        assert len(ch) == 5
        assert all(r["converged"] is False and r["p_value"] == 1.0 for r in ch)
        summary = {s["method"]: s for s in table.summarize()}
        assert summary["ch"]["rows"] == 0
        assert summary["ch"]["unconverged"] == 5
        for stat in ("median_abs_estimate", "median_p_value",
                     "fraction_significant", "max_constraint_residual"):
            assert summary["ch"][stat] is None
        assert summary["uncorrected"]["unconverged"] == 5

    def test_summary_medians_skip_unconverged_rows(self):
        base = dict(family="bernoulli", n=10, p=1, q=2, rho=2.0, method="ch",
                    estimate=0.1, constraint_residual=1e-20, error=None)
        table = StudyTable(rows=[
            dict(base, p_value=0.5, converged=True),
            dict(base, p_value=0.7, converged=True),
            dict(base, p_value=1.0, estimate=0.0, converged=False,
                 constraint_residual=1e-3),
        ])
        (summary,) = table.summarize()
        assert summary["median_p_value"] == pytest.approx(0.6)
        assert summary["median_abs_estimate"] == pytest.approx(0.1)
        assert summary["max_constraint_residual"] == 1e-20
        assert (summary["rows"], summary["unconverged"]) == (2, 1)

    def test_summary_counts_p_at_alpha_as_not_significant(self):
        base = dict(family="bernoulli", n=10, p=1, q=2, rho=2.0, method="cl",
                    estimate=0.1, constraint_residual=None, error=None,
                    converged=True)
        table = StudyTable(rows=[dict(base, p_value=ALPHA),
                                 dict(base, p_value=0.01)])
        (summary,) = table.summarize()
        assert summary["fraction_significant"] == 0.5

    def test_empty_grid_rejected(self):
        with pytest.raises(InvalidSpec):
            simulation_study([], replicates=1)

    def test_infeasible_cell_recorded_not_raised(self):
        # a protected feature 1e12 times a feature column makes [1, X] rank
        # deficient; the study must record error rows instead of aborting
        grid = [SyntheticSpec(n=40, p=1, q=3, rho=1e12, seed=1)]
        table = simulation_study(grid, replicates=1)
        assert [r["method"] for r in table.rows] == list(METHODS)
        assert all(r["error"].startswith("RankDeficient: ") for r in table.rows)
        assert table.summarize() == []

    @pytest.mark.parametrize("p, q", [(1, 3), (2, 60)])
    def test_cell_needs_more_rows_than_p_plus_q(self, p, q):
        # every method fits q + 1 coefficients, and cl's [1, Zc] has rank at
        # most n - p: n = p + q is refused before anything is drawn, and
        # n = p + q + 1 runs every method
        at = SyntheticSpec(n=p + q, p=p, q=q, rho=2.0, seed=2)
        with pytest.raises(InvalidSpec, match=rf"need n > p \+ q, got n={p + q}, p={p}, q={q}"):
            simulation_study([at], replicates=1)
        assert generate(at).z.shape == (p + q, q)  # such data can still be drawn
        table = simulation_study([dataclasses.replace(at, n=p + q + 1)], replicates=1)
        assert [r["method"] for r in table.rows] == [m for m in METHODS for _ in range(p)]
        assert not any(r["error"] for r in table.rows)

    def test_converged_column_reports_the_methods_own_fit(self):
        # A separated logistic cell: the uncorrected IRLS fit stops at its
        # iteration budget with means at the clamp, while the evaluation fit
        # of its predictions converges.  The column must carry the former.
        spec = SyntheticSpec(n=200, p=5, q=100, rho=2.0, family="bernoulli",
                             seed=6)
        data = generate(spec)
        assert not fit_glm(data.z, data.y, BERNOULLI, with_intercept=True).converged
        table = simulation_study([spec], replicates=1)
        rows = [r for r in table.rows if r["method"] == "uncorrected"]
        assert len(rows) == spec.p
        assert all(r["converged"] is False for r in rows)


def _fit_and_evaluate(data, method: str) -> None:
    """One method's work in a study cell: its fit, then the evaluation of
    its activated predictions."""
    family = family_by_name(data.spec.family)
    mu, _ = fit_method(method, data.z, data.y, data.x, family)
    evaluate_glm(data.x, mu, family)


class TestStudyMemory:
    """Each method's fit holds its design once plus one weighted copy."""

    @pytest.mark.parametrize("family", ("bernoulli", "poisson"))
    @pytest.mark.parametrize("method", METHODS)
    def test_peak_above_the_data_is_two_designs(self, method, family):
        n, p, q = 2000, 10, 100
        data = generate(SyntheticSpec(n=n, p=p, q=q, rho=2.0, family=family, seed=7))
        _fit_and_evaluate(data, method)  # untraced: one-time allocations not counted
        tracemalloc.start()
        try:
            _fit_and_evaluate(data, method)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        design = n * (q + 1) * 8
        # Measured peaks here (numpy 2.4.6): uncorrected 3.23, cl 3.39, ch
        # 3.47 MiB against two designs of 3.08 MiB; cl held a third design
        # (4.75 MiB) while its unaugmented Zc outlived the projection.  The
        # extras are the isfinite mask of a design (n (q + 1) bytes), the
        # constrained fit's centered protected block (p columns) and
        # length-n vectors (weights, means, linear predictor, working
        # response, their square roots): 12 of those are allowed.
        slack = n * (q + 1) + (p + 12) * n * 8
        assert peak < 2 * design + slack, (peak, 2 * design + slack)
        assert slack < design / 2

    @pytest.mark.parametrize("family", ("bernoulli", "poisson"))
    @pytest.mark.parametrize("method", METHODS)
    def test_peak_above_the_data_is_one_design_and_one_block(self, method, family):
        """Every Gram product holds one row block beside its design, and the
        projected method writes Zc into its ``[1, Zc]``: a method peaks at
        one design plus one block, with the slack of the two-design test."""
        n, p, q = 2000, 10, 100
        data = generate(SyntheticSpec(n=n, p=p, q=q, rho=2.0, family=family, seed=7))
        _fit_and_evaluate(data, method)
        tracemalloc.start()
        try:
            _fit_and_evaluate(data, method)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        design = n * (q + 1) * 8
        # Measured peaks here (numpy 2.4.6): uncorrected 2.01, cl 2.01, ch
        # 2.26 MiB against a 1.54 MiB design.  The block comes with numpy's
        # ufunc buffer for the broadcast row scaling.
        block = GRAM_BLOCK_BYTES + np.getbufsize() * 8
        slack = n * (q + 1) + (p + 12) * n * 8
        assert peak < design + block + slack, (peak, design + block + slack)
        assert block + slack < design  # a second design does not fit

    def test_traced_study_grid_counts_at_seed_7(self):
        """The benchmark's traced study-grid counts at seed 7, taken with its
        own tracer at one BLAS thread in a fresh interpreter."""
        script = """
import json, os, sys
os.environ["OPENBLAS_NUM_THREADS"] = "1"
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import layers, tracer, workloads
from orthokit import synth
grid = workloads.StudyGrid(7, None).grid
t = tracer.Tracer()
t.install()
layers.observe(t)
synth.simulation_study(grid, 1, threads=1)
calls = t.call_counts()
print(json.dumps({"fit_glm_calls": calls["glm.fit_glm"],
                  "evaluate_glm_calls": calls["evalmodel.evaluate_glm"],
                  "irls_steps": t.counts["glm.irls_steps"],
                  "constrained_iters": t.counts["correct.constrained_iters"]}))
"""
        proc = subprocess.run(
            [sys.executable, "-c", script, str(ROOT / "perfbench"), str(ROOT / "src")],
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {
            "fit_glm_calls": 120, "evaluate_glm_calls": 72,
            "irls_steps": 515, "constrained_iters": 102,
        }


def _figure1_fit(method: str, seed: int, max_iter: int = ConstrainedConfig.max_iter):
    """The shipped fit behind one method of figure 1 at a step budget, and
    its activated predictions."""
    z, x, y = synth._figure1_data(seed)
    if method == "uncorrected":
        fit = fit_glm(z, y, BERNOULLI, max_iter, with_intercept=True)
        return fit, fit.fitted_means
    if method == "cl":
        fit = fit_glm(corrected_design(x, z), y, BERNOULLI, max_iter)
        return fit, fit.fitted_means
    out = fit_constrained_glm(z, y, x, BERNOULLI, ConstrainedConfig(max_iter=max_iter))
    return out, out.corrected_predictions


class TestFitMethod:
    @pytest.mark.parametrize("max_iter", (0, 2, ConstrainedConfig.max_iter))
    @pytest.mark.parametrize("method", METHODS)
    def test_is_the_shipped_fit(self, method, max_iter):
        z, x, y = synth._figure1_data(0)
        mu, fit = fit_method(method, z, y, x, BERNOULLI, max_iter)
        ref, ref_mu = _figure1_fit(method, 0, max_iter)
        np.testing.assert_array_equal(mu, ref_mu)
        assert (fit.loss, fit.iterations, fit.converged, fit.stop_reason) == (
            ref.loss, ref.iterations, ref.converged, ref.stop_reason)

    def test_unknown_method_raises(self):
        z, x, y = synth._figure1_data(0)
        with pytest.raises(InvalidSpec, match="unknown method 'cx'"):
            fit_method("cx", z, y, x, BERNOULLI)


class TestFigure1Demo:
    def test_final_constrained_correlation_small(self):
        table = figure1_demo(seed=0)
        assert abs(table.final("ch")["corr_with_protected"]) <= 0.01

    def test_unconstrained_correlation_large(self):
        table = figure1_demo(seed=0)
        assert abs(table.final("uncorrected")["corr_with_protected"]) >= 0.2

    def test_iteration_zero_identical_across_methods(self):
        table = figure1_demo(seed=0)
        first = {
            r["method"]: (r["loss"], r["corr_with_protected"])
            for r in table.rows
            if r["iteration"] == 0
        }
        assert len(set(first.values())) == 1

    def test_table_shape(self):
        table = figure1_demo(seed=1)
        assert isinstance(table, TrajectoryTable)
        methods = {r["method"] for r in table.rows}
        assert methods == {"uncorrected", "cl", "ch"}
        for row in table.rows:
            assert set(row) == set(table.columns)

    @pytest.mark.parametrize("method", METHODS)
    def test_last_row_is_the_fit_run_to_convergence(self, method):
        _, x, y = synth._figure1_data(0)
        fit, mu = _figure1_fit(method, 0)
        assert fit.converged
        final = figure1_demo(seed=0).final(method)
        assert final["loss"] == fit.loss / len(y)
        assert final["corr_with_protected"] == synth._safe_corr(mu, x[:, 0])

    @pytest.mark.parametrize("seed", range(4))
    def test_each_trajectory_ends_at_its_first_converged_fit(self, seed):
        table = figure1_demo(seed=seed)
        for method in METHODS:
            budgets = [r["iteration"] for r in table.rows if r["method"] == method]
            assert budgets == list(range(len(budgets)))
            assert len(budgets) <= ConstrainedConfig.max_iter + 1
            converged = [_figure1_fit(method, seed, k)[0].converged for k in budgets]
            assert converged == [False] * (len(budgets) - 1) + [True], method

    @pytest.mark.parametrize("seed", range(4))
    def test_constrained_correlation_within_1e_6(self, seed):
        assert abs(figure1_demo(seed=seed).final("ch")["corr_with_protected"]) <= 1e-6

    def test_budget_counts_steps_taken_not_the_returned_iterate(self):
        # seed 0's budget-2 constrained fit takes two steps and returns
        # iterate 1, its feasible iterate of lowest loss, so the figure's
        # budget-2 row repeats its budget-1 row
        one, _ = _figure1_fit("ch", 0, 1)
        two, _ = _figure1_fit("ch", 0, 2)
        assert (one.iterations, two.iterations) == (1, 2)
        assert two.stop_reason == "reached max_iter=2"
        np.testing.assert_array_equal(two.gamma_c, one.gamma_c)
        ch = [r for r in figure1_demo(seed=0).rows if r["method"] == "ch"]
        assert ch[2] == dict(ch[1], iteration=2)
