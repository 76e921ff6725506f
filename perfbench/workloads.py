"""The benchmark's three workloads.

Each workload makes its inputs from the run's seed when it is built,
warms every code path once on a small input, and then runs whole rounds.
A round calls orthokit through its public functions (``study-grid``,
``nonlinear``) or its CLI entry point ``orthokit.cli.main`` (``csv-route``),
times each call, and checks every output with ``checks``.  Every round
attempts the same operations, so the count of attempted operations per
round is fixed.  ``nonlinear`` also runs one side round per run, whose
time stays out of ``wall_s``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import inspect
import io
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import checks
from checks import CheckFailed, require
from tracer import rebind

from orthokit import cli, correct, evalmodel, online, synth

OK, ERROR, WRONG = "ok", "error", "wrong"


def seed_stream(seed: int, purpose: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, purpose])))


def derived_seed(seed: int, purpose: int) -> int:
    return int(np.random.SeedSequence([seed, purpose]).generate_state(1)[0])


class Round:
    """Timings and per-operation outcomes of one round.

    ``times[name]`` lists the seconds of each call timed under ``name``,
    less the time spent inside result probes during that call.
    """

    def __init__(self):
        self.times = defaultdict(list)
        self.outcomes = []
        self.notes = []
        self.probe_s = 0.0

    def timed(self, name, fn, *args, **kwargs):
        probed = self.probe_s
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            self.times[name].append(elapsed - (self.probe_s - probed))

    def check(self, label, fn, *args):
        """One operation's verdict: ``fn`` raising means a wrong output."""
        try:
            fn(*args)
        except Exception as exc:  # a malformed output is a wrong output
            self.outcomes.append(WRONG)
            self.notes.append(f"{label}: {type(exc).__name__}: {exc}")
        else:
            self.outcomes.append(OK)

    def error(self, label, exc, count=1):
        """``count`` operations failed because the program raised or exited
        non-zero."""
        self.outcomes.extend([ERROR] * count)
        self.notes.append(f"{label}: {exc}")


def quiet(fn, *args):
    """Run a CLI command with its stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = fn(*args)
    return code, err.getvalue().strip()


# ---------------------------------------------------------------------------
# study-grid


APPENDIX_G = [
    (family, p, q, n)
    for family in ("bernoulli", "poisson")
    for p in (5, 10)
    for q in (10, 100)
    for n in (200, 1000, 5000)
]


class StudyGrid:
    """``synth.simulation_study`` over the 24 appendix-G cells, one
    replicate each, rho = 2, one pool thread."""

    name = "study-grid"
    replicates = 1
    nominal_round_s = 20.0

    def __init__(self, seed: int, work: Path):
        spec_seed = derived_seed(seed, 1)
        self.grid = [
            synth.SyntheticSpec(n=n, p=p, q=q, rho=2.0, family=f, seed=spec_seed)
            for f, p, q, n in APPENDIX_G
        ]
        self.ops_per_round = len(self.grid) + 1
        self._rnd = Round()
        self._cell = None
        self._cell_notes = defaultdict(list)
        self._constrained_seen = set()

    def warm_up(self) -> None:
        tiny = [synth.SyntheticSpec(n=60, p=2, q=4, rho=2.0, family=f, seed=1)
                for f in ("bernoulli", "poisson")]
        synth.simulation_study(tiny, 1, threads=1)

    def _probe(self, fn, on_result) -> None:
        """Rebind ``fn`` so ``on_result(bound arguments, result)`` sees every
        call, including the best result a ``DidNotConverge`` carries.  Time
        spent in ``on_result`` is charged to the round's ``probe_s``."""
        from orthokit.errors import DidNotConverge

        sig = inspect.signature(inspect.unwrap(fn))

        def observe(args, kwargs, result):
            start = time.perf_counter()
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            on_result(bound.arguments, result)
            self._rnd.probe_s += time.perf_counter() - start

        def probed(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except DidNotConverge as exc:
                if exc.result is not None:
                    observe(args, kwargs, exc.result)
                raise
            observe(args, kwargs, result)
            return result

        rebind(fn, probed)

    def install_probes(self) -> None:
        def on_generate(arguments, result):
            self._cell = (arguments["spec"], arguments["replicate"])

        def on_irls(arguments, fit):
            z = arguments["z"]
            design = checks.with_intercept(z) if arguments["with_intercept"] else np.asarray(z)
            if checks.separated(design, fit.coefficients, fit.family.name):
                return
            try:
                checks.check_irls_fit(design, np.asarray(arguments["y"]),
                                      fit.coefficients, fit.family.name,
                                      arguments["tol"])
            except CheckFailed as exc:
                self._cell_notes[self._cell].append(f"fit_glm: {exc}")

        def on_constrained(arguments, out):
            cfg = arguments["cfg"]
            tol = cfg.constraint_tol if cfg is not None else checks.CONSTRAINT_TOL
            design = checks.with_intercept(arguments["z"])
            try:
                checks.check_constrained_fit(design, np.asarray(arguments["x"]),
                                             out.gamma_c,
                                             arguments["family"].name, tol)
            except CheckFailed as exc:
                self._cell_notes[self._cell].append(f"fit_constrained_glm: {exc}")
            self._constrained_seen.add(self._cell)

        self._probe(synth.generate, on_generate)
        self._probe(synth.fit_glm, on_irls)
        self._probe(synth.fit_constrained_glm, on_constrained)

    def round(self) -> Round:
        rnd = self._rnd = Round()
        self._cell_notes.clear()
        self._constrained_seen = set()
        try:
            table = rnd.timed("simulation_study", synth.simulation_study,
                              self.grid, self.replicates, threads=1)
        except Exception as exc:
            rnd.error("simulation_study", exc, self.ops_per_round)
            return rnd
        rows = defaultdict(list)
        for row in table.rows:
            rows[(row["family"], row["n"], row["p"], row["q"])].append(row)
        for spec in self.grid:
            key = (spec.family, spec.n, spec.p, spec.q)
            rnd.check(f"cell {key}", self._check_cell, spec, rows[key])
        rnd.check("study summary", self._check_summary, table.rows)
        return rnd

    def _check_cell(self, spec, rows) -> None:
        require(not any(r.get("error") for r in rows),
                f"error rows: {[r['error'] for r in rows if r.get('error')]}")
        require(len(rows) == 3 * spec.p, f"{len(rows)} rows, expected {3 * spec.p}")
        cell = (spec, 0)
        require(cell in self._constrained_seen, "constrained fit not observed")
        notes = self._cell_notes.get(cell)
        require(not notes, "; ".join(notes or []))

    @staticmethod
    def _check_summary(rows) -> None:
        by_method = defaultdict(list)
        for r in rows:
            by_method[r["method"]].append(r["p_value"])
        med = float(np.median(by_method["ch"]))
        require(med >= 0.9, f"constrained median p {med:.3f} below 0.9")
        sig_u = float(np.mean(np.array(by_method["uncorrected"]) < 0.05))
        sig_c = float(np.mean(np.array(by_method["ch"]) < 0.05))
        require(sig_u > sig_c,
                f"uncorrected significant share {sig_u:.3f} not above "
                f"constrained {sig_c:.3f}")


# ---------------------------------------------------------------------------
# csv-route

CSV_ROWS = 50_000
NUMERIC_FEATURES = 8
REGIONS = ("east", "north", "south", "west")
GROUPS = ("g1", "g2", "g3", "g4", "g5")
PROTECTED = ("sex", "group", "age")
TENSOR_DIMS = (2, 3)
# The outcome model is fixed; the seed draws the rows.  With coefficients
# drawn per seed as well, MDMM's stopping time on this CSV ranged from 2,754
# to 5,505 iterations over four seeds.
FEATURE_COEFS = np.array([0.6, -0.4, 0.3, 0.5, -0.2, 0.1, -0.5, 0.25])
REGION_EFFECTS = np.array([0.0, 0.3, -0.2, 0.1])
# MDMM stops on a loss plateau or 1,500 iterations after first feasibility,
# whichever comes first, so its iteration count jumps between seeds (2,188
# to 3,012 over eight).  The route passes a budget and a tolerance under
# which every seed tried ends feasible at the budget (29 of 30) or just
# before it (2,188): at the default tolerance 1e-6 one seed in 29 was still
# at 1.03e-6 after 2,250 iterations.
CONSTRAINED_MAX_ITER = 2250
CONSTRAINED_TOL = 1e-5


def write_user_csv(path: Path, tensor_path: Path, n: int, rng) -> None:
    """The route's input: a user CSV and a tensor file for the same rows.

    Columns: numeric features ``f0..f7`` (``f0..f2`` shifted by the
    protected columns), a categorical feature ``region`` with four string
    levels, the protected columns ``sex`` (F/M), ``group`` (g1..g5) and
    ``age`` (numeric), and a bernoulli outcome ``y``.  The tensor has dims
    ``(n, 2, 3)`` and a linear dependence on the encoded protected columns.
    """
    sex = (rng.random(n) < 0.5).astype(int)
    group = rng.choice(len(GROUPS), size=n, p=[0.3, 0.25, 0.2, 0.15, 0.1])
    age = np.clip(rng.normal(40.0, 12.0, n), 18.0, 90.0)
    f = rng.standard_normal((n, NUMERIC_FEATURES))
    f[:, 0] += 0.8 * sex
    f[:, 1] += 0.4 * (group - 2.0)
    f[:, 2] += 0.03 * (age - 40.0)
    region = (group + rng.integers(0, 2, n)) % len(REGIONS)
    eta = -0.3 + f @ FEATURE_COEFS + REGION_EFFECTS[region] + 0.2 * sex
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(int)
    with open(path, "w") as fh:
        fh.write(",".join([f"f{j}" for j in range(NUMERIC_FEATURES)]
                          + ["region", "sex", "group", "age", "y"]) + "\n")
        for i in range(n):
            fh.write(",".join(f"{v:.6f}" for v in f[i]) + f",{REGIONS[region[i]]},"
                     f"{'FM'[sex[i]]},{GROUPS[group[i]]},{age[i]:.1f},{y[i]}\n")
    encoded = np.column_stack([sex, *(group == g for g in range(1, 5)), age / 10.0])
    d = int(np.prod(TENSOR_DIMS))
    t = encoded @ rng.standard_normal((encoded.shape[1], d)) + rng.standard_normal((n, d))
    with open(tensor_path, "w") as fh:
        fh.write("#dims " + " ".join(str(v) for v in (n, *TENSOR_DIMS)) + "\n")
        np.savetxt(fh, t, fmt="%.17g", delimiter=",")


class CsvRoute:
    """The README's CSV route through ``orthokit.cli.main``."""

    name = "csv-route"
    ops_per_round = 5
    nominal_round_s = 14.0

    def __init__(self, seed: int, work: Path, rows: int = CSV_ROWS):
        self.work = work
        self.data = work / "data.csv"
        self.tensor = work / "tensor.csv"
        write_user_csv(self.data, self.tensor, rows, seed_stream(seed, 2))
        header, body = checks.read_csv(self.data)
        self.x, self.x_names = checks.one_hot(header, body, PROTECTED)
        features = [h for h in header if h not in PROTECTED and h != "y"]
        z, self.z_names = checks.one_hot(header, body, features)
        self.z = {name: z[:, j] for j, name in enumerate(self.z_names)}
        self.y = checks.read_column(self.data, "y")
        self.t = checks.read_tensor_file(self.tensor)
        xd = checks.with_intercept(self.x)
        self.zc = {name: col for name, col in zip(
            self.z_names, checks.complement(xd, z).T)}

    def warm_up(self) -> None:
        warm = self.work / "warm"
        warm.mkdir()
        CsvRoute(0, warm, rows=2000).round()

    def _correct(self, method, out):
        argv = ["correct", "--data", str(self.data), "--method", method,
                "--out", str(out), "--protected", ",".join(PROTECTED),
                "--family", "bernoulli"]
        if method == "tensor":
            return argv + ["--tensor", str(self.tensor)]
        if method == "glm-constrained":
            argv += ["--max-iter", str(CONSTRAINED_MAX_ITER), "--tol", str(CONSTRAINED_TOL)]
        return argv + ["--outcome", "y"]

    def _evaluate(self, corrected):
        return ["evaluate", "--predictions", str(corrected / "corrected_predictions.csv"),
                "--prediction-column", "y_hat_corrected", "--protected-data",
                str(self.data), "--protected", ",".join(PROTECTED),
                "--family", "bernoulli", "--out", str(corrected / "eval")]

    def _run(self, rnd, label, metric, argv) -> bool:
        try:
            code, err = rnd.timed(metric, quiet, cli.main, argv)
        except Exception as exc:
            rnd.error(label, exc)
            return False
        if code != 0:
            rnd.error(label, f"exit code {code}: {err}")
            return False
        return True

    def round(self) -> Round:
        rnd = Round()
        out = {m: self.work / m for m in ("linear", "constrained", "tensor")}
        steps = [
            ("correct linear", "correct_linear_s", self._correct("linear", out["linear"]),
             self._check_linear, out["linear"]),
            ("correct glm-constrained", "correct_constrained_s",
             self._correct("glm-constrained", out["constrained"]),
             self._check_constrained, out["constrained"]),
            ("evaluate linear", "evaluate_s", self._evaluate(out["linear"]),
             self._check_evaluation, out["linear"]),
            ("evaluate constrained", "evaluate_s", self._evaluate(out["constrained"]),
             self._check_evaluation, out["constrained"]),
            ("correct tensor", "correct_tensor_s", self._correct("tensor", out["tensor"]),
             self._check_tensor, out["tensor"]),
        ]
        for label, metric, argv, check, path in steps:
            if self._run(rnd, label, metric, argv):
                rnd.check(label, check, path)
        return rnd

    def _design(self, coef_path, columns):
        coefs = checks.read_coefficients(coef_path)
        names = list(coefs)
        require(names == ["(intercept)"] + self.z_names,
                f"coefficient names {names}")
        design = checks.with_intercept(np.column_stack([columns[n] for n in names[1:]]))
        return design, np.array([coefs[n] for n in names])

    def _check_linear(self, out: Path) -> None:
        design, beta = self._design(out / "coefficients.csv", self.zc)
        mu = checks.read_column(out / "corrected_predictions.csv", "y_hat_corrected")
        checks.check_linear_correction(self.x, design, self.y, beta, mu)

    def _check_constrained(self, out: Path) -> None:
        design, gamma = self._design(out / "coefficients.csv", self.z)
        mu = checks.read_column(out / "corrected_predictions.csv", "y_hat_corrected")
        checks.check_predictions(design, gamma, mu, "bernoulli")
        value = checks.covariance_norm(self.x, mu)
        require(value <= CONSTRAINED_TOL,
                f"covariance norm {value:.3e} above {CONSTRAINED_TOL:.1e}")

    def _check_evaluation(self, out: Path) -> None:
        mu = checks.read_column(out / "corrected_predictions.csv", "y_hat_corrected")
        names, est, se = checks.read_evaluation(out / "eval" / "evaluation.csv")
        require(names == self.x_names, f"evaluation names {names}")
        checks.check_evaluation(self.x, mu, est, se)

    def _check_tensor(self, out: Path) -> None:
        tc = checks.read_tensor_file(out / "corrected_tensor.csv")
        require(tc.shape == self.t.shape, f"tensor shape {tc.shape}")
        checks.check_tensor_correction(self.x, self.t, tc)


# ---------------------------------------------------------------------------
# nonlinear


MLP_TRAIN = MLP_TEST = 2000
# Epochs of each timed training.  Short calls keep wall_s steady: on the
# 2-CPU host the benchmark was built on, the fastest of a 30-second
# window's 2-epoch trainings stayed within 4% in six windows of eight,
# while the fastest 10-epoch training of 10-second windows moved by 14-17%.
MLP_TIMED_EPOCHS = 2
RELU_ROWS, RELU_P, RELU_Q, RELU_INSTANCES = 1000, 5, 10, 4
TENSOR_ROWS, TENSOR_P, PREACT_DIMS = 2000, 3, (4, 6)


class Nonlinear:
    """Short online MLP trainings and tensor pre-activation correction in
    every round; a full 60-epoch training pair and the ReLU + L2 evaluator
    once per run, in ``side_round``.

    The full pair is what criterion 7's accuracy margin is checked on; the
    rounds time trainings of ``MLP_TIMED_EPOCHS`` epochs, whose fastest
    repetition is a steadier measurement than that of a 0.25-0.55 s call.
    The evaluator's cost is set by how many of its starts stall at a kink
    of the rectified objective and run all 500 iterations (about 0.25 s
    each at n = 1000, against about 3 ms for a start that converges).  On
    this workload's inputs the calls of one seed took from 0.7 s to 2.4 s
    in total, so its time is kept out of ``wall_s`` and reported per layer.
    """

    name = "nonlinear"
    nominal_round_s = 0.035

    def __init__(self, seed: int, work: Path):
        self.mlp_data = online.make_confounded_data(
            MLP_TRAIN, MLP_TEST, seed=derived_seed(seed, 3))
        self.mlp_cfg = online.MlpConfig(seed=derived_seed(seed, 4))
        self.mlp_short = dataclasses.replace(self.mlp_cfg, epochs=MLP_TIMED_EPOCHS)
        rng = seed_stream(seed, 5)
        self.relu = []
        for _ in range(RELU_INSTANCES):
            x = rng.standard_normal((RELU_ROWS, RELU_P))
            z = rng.standard_normal((RELU_ROWS, RELU_Q))
            z[:, :RELU_P] += 2.0 * x
            gamma = rng.standard_normal(RELU_Q) / np.sqrt(RELU_Q)
            self.relu.append((x, z, gamma))
        self.tx = rng.standard_normal((TENSOR_ROWS, TENSOR_P))
        d = int(np.prod(PREACT_DIMS))
        flat = self.tx @ rng.standard_normal((TENSOR_P, d)) + rng.standard_normal((TENSOR_ROWS, d))
        self.tt = flat.reshape((TENSOR_ROWS, *PREACT_DIMS))

    def warm_up(self) -> None:
        data = online.make_confounded_data(200, 50, seed=1)
        for flag in (False, True):
            online.train_mlp(data, online.MlpConfig(epochs=1), with_correction=flag)
        x, z, gamma = self.relu[0]
        evalmodel.evaluate_relu_l2(x[:50], np.maximum(z[:50] @ gamma, 0.0), starts=2)
        evalmodel.evaluate_tensor(self.tx[:50], correct.correct_tensor_preactivation(
            self.tx[:50], self.tt[:50]))

    def round(self) -> Round:
        rnd = Round()
        self._mlp(rnd, "train_mlp_short", self.mlp_short, self._check_short)
        self._tensor(rnd)
        return rnd

    def side_round(self) -> Round:
        rnd = Round()
        self._mlp(rnd, "train_mlp", self.mlp_cfg, self._check_full)
        self._relu(rnd)
        return rnd

    def _mlp(self, rnd, name, cfg, check) -> None:
        try:
            res_u = rnd.timed(name, online.train_mlp, self.mlp_data, cfg,
                              with_correction=False)
            res_c = rnd.timed(name, online.train_mlp, self.mlp_data, cfg,
                              with_correction=True)
        except Exception as exc:
            rnd.error(name, exc)
            return
        rnd.check(f"{name} pair", check, res_u, res_c)

    @staticmethod
    def _residuals(res_c):
        residuals = [m["constraint_residual"] for m in res_c.metrics]
        require(None not in residuals, "epoch without a corrected batch")
        return residuals

    def _check_short(self, res_u, res_c) -> None:
        feats, prot, _ = self.mlp_data.rows(self.mlp_data.test_mask)
        for res in (res_u, res_c):
            require(len(res.metrics) == 3 * MLP_TIMED_EPOCHS,
                    f"{len(res.metrics)} metric rows")
            prob = res.predict(feats, prot)
            require(bool(np.all((prob >= 0.0) & (prob <= 1.0))),
                    "test predictions are not probabilities")
        checks.check_mlp_residuals(self._residuals(res_c))

    def _check_full(self, res_u, res_c) -> None:
        feats, prot, labels = self.mlp_data.rows(self.mlp_data.test_mask)
        checks.check_mlp_pair(checks.accuracy(res_u.predict(feats, prot), labels),
                              checks.accuracy(res_c.predict(feats, prot), labels),
                              self._residuals(res_c))

    def _relu(self, rnd) -> None:
        shares = {"raw": [], "corrected": []}
        for k, (x, z, gamma) in enumerate(self.relu):
            try:
                zc = rnd.timed("correct_features_relu", correct.correct_features_relu, x, z)
            except Exception as exc:
                rnd.error(f"relu instance {k}", exc, 2)
                continue
            for kind, feats in (("raw", z), ("corrected", zc)):
                y = np.maximum(feats @ gamma, 0.0)
                try:
                    res = rnd.timed("evaluate_relu_l2", evalmodel.evaluate_relu_l2, x, y, seed=k)
                except Exception as exc:
                    rnd.error(f"evaluate_relu_l2 {kind} {k}", exc)
                    continue
                rnd.check(f"evaluate_relu_l2 {kind} {k}", lambda: shares[kind].append(
                    checks.check_relu_evaluation(x, y, res.beta, res.objective,
                                                 res.objective_at_zero)))
        rnd.check("relu share drop", checks.check_share_drop,
                  shares["raw"], shares["corrected"])

    def _tensor(self, rnd) -> None:
        try:
            tc = rnd.timed("correct_tensor_preactivation",
                           correct.correct_tensor_preactivation, self.tx, self.tt)
            ev = rnd.timed("evaluate_tensor", evalmodel.evaluate_tensor, self.tx, tc)
        except Exception as exc:
            rnd.error("tensor", exc)
            return

        def check():
            checks.check_tensor_correction(self.tx, self.tt, tc)
            checks.check_tensor_evaluation(self.tx, tc, ev.frobenius)

        rnd.check("tensor", check)


WORKLOADS = {w.name: w for w in (StudyGrid, CsvRoute, Nonlinear)}
