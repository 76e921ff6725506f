"""Training-time orthogonalization tests.

The backprop oracle is central finite differences through the full network,
with and without the projection layer; the behavioural claims (shortcut
collapse without correction, recovery with it) are pinned on seeded data.
"""

import dataclasses
import logging

import numpy as np
import pytest

import orthokit.online as online_module
from orthokit.correct import augment_intercept
from orthokit.errors import InvalidSpec
from orthokit.evalmodel import evaluate_glm
from orthokit.glm import BERNOULLI
from orthokit.linalg import build_projector, least_squares
from orthokit.online import (
    BATCH_SIZE,
    LEARNING_RATE,
    MlpConfig,
    accuracy_by_split,
    backward,
    bce_loss,
    forward,
    init_params,
    make_confounded_data,
    train_mlp,
)
from orthokit.synth import stream


@pytest.fixture(scope="module")
def data():
    return make_confounded_data(2000, 2000, seed=0)


@pytest.fixture(scope="module")
def trained(data):
    cfg = MlpConfig(seed=1)
    uncorrected = train_mlp(data, cfg, with_correction=False)
    corrected = train_mlp(data, cfg, with_correction=True)
    return uncorrected, corrected


class TestMakeConfoundedData:
    def test_train_confounder_tracks_label(self, data):
        _, prot, y = data.rows(data.train_mask)
        corr = np.corrcoef(prot[:, 0], y)[0, 1]
        assert corr >= 0.95

    def test_test_confounder_independent(self, data):
        _, prot, y = data.rows(data.test_mask)
        corr = np.corrcoef(prot[:, 0], y)[0, 1]
        assert abs(corr) <= 0.05

    def test_deterministic(self):
        a = make_confounded_data(200, 50, seed=5)
        b = make_confounded_data(200, 50, seed=5)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_signal_is_linearly_label_neutral(self, data):
        # class means of the signal columns coincide: a linear readout of the
        # signal alone carries no first-moment label information
        x, _, y = data.rows(data.train_mask)
        signal = x[:, :-1]
        gap = signal[y == 1].mean(axis=0) - signal[y == 0].mean(axis=0)
        assert np.max(np.abs(gap)) <= 0.15

    def test_confounder_column_dominant(self, data):
        assert np.max(np.abs(data.features[:, -1])) >= 4.9

    def test_validation(self):
        with pytest.raises(InvalidSpec):
            make_confounded_data(5, 5)


class TestGradients:
    @pytest.mark.parametrize("project", [False, True], ids=["plain", "projected"])
    def test_backprop_matches_finite_differences(self, data, project):
        x, prot, y = data.rows(data.train_mask)
        xb, pb, yb = x[:10], prot[:10], y[:10]
        if project and np.ptp(pb[:, 0]) == 0:
            pytest.skip("degenerate batch")
        params = init_params((x.shape[1], 6, 4, 1), stream(11, 0))
        complement = build_projector(augment_intercept(pb)).complement if project else None

        inputs = []
        prob = forward(params, xb, complement, 0, inputs)
        grads_w, grads_b = backward(params, inputs, prob, yb, complement, 0)

        def loss_at():
            p2 = forward(params, xb, complement, 0)
            return bce_loss(p2, yb)

        worst = 0.0
        for layer, grad in enumerate(grads_w):
            w = params["weights"][layer]
            idx_list = [(0, 0), (w.shape[0] - 1, w.shape[1] - 1)]
            for idx in idx_list:
                h = 1e-6
                w[idx] += h
                lp = loss_at()
                w[idx] -= 2 * h
                lm = loss_at()
                w[idx] += h
                numeric = (lp - lm) / (2 * h)
                denom = max(abs(numeric), abs(grad[idx]), 1e-8)
                worst = max(worst, abs(numeric - grad[idx]) / denom)
        for layer, grad in enumerate(grads_b):
            b = params["biases"][layer]
            h = 1e-6
            b[0] += h
            lp = loss_at()
            b[0] -= 2 * h
            lm = loss_at()
            b[0] += h
            numeric = (lp - lm) / (2 * h)
            denom = max(abs(numeric), abs(grad[0]), 1e-8)
            worst = max(worst, abs(numeric - grad[0]) / denom)
        assert worst <= 1e-4


class TestParameterBuffer:
    """Weights and biases are views into one buffer, and one update of that
    buffer is the per-layer SGD step."""

    WIDTHS = (9, 6, 4, 1)

    def batch(self, data, params):
        x, prot, y = data.rows(data.train_mask)
        complement = build_projector(augment_intercept(prot[:32])).complement
        inputs = []
        prob = forward(params, x[:32], complement, 0, inputs)
        return inputs, prob, y[:32], complement

    def test_layers_are_views_of_the_buffer_in_order(self):
        params = init_params(self.WIDTHS, stream(21, 0))
        flat = params["flat"]
        assert flat.size == sum((a + 1) * b for a, b in
                                zip(self.WIDTHS[:-1], self.WIDTHS[1:]))
        start = 0
        for w, b in zip(params["weights"], params["biases"]):
            assert w.base is flat and b.base is flat
            np.testing.assert_array_equal(flat[start : start + w.size], w.ravel())
            start += w.size
            np.testing.assert_array_equal(flat[start : start + b.size], b)
            start += b.size
        assert start == flat.size

    def test_buffer_update_equals_per_layer_update(self, data):
        params = init_params(self.WIDTHS, stream(22, 0))
        grads_w, grads_b = backward(params, *self.batch(data, params), 0)
        layered = [[w - LEARNING_RATE * g for w, g in zip(params["weights"], grads_w)],
                   [b - LEARNING_RATE * g for b, g in zip(params["biases"], grads_b)]]
        gflat = grads_w[0].base
        assert all(g.base is gflat for g in grads_w + grads_b)
        params["flat"] -= LEARNING_RATE * gflat
        for got, want in zip(params["weights"] + params["biases"], sum(layered, [])):
            np.testing.assert_array_equal(got, want)

    def test_backward_overwrites_a_given_buffer(self, data):
        params = init_params(self.WIDTHS, stream(23, 0))
        inputs, prob, yb, complement = self.batch(data, params)
        fresh = backward(params, inputs, prob, yb, complement, 0)
        grads = init_params(self.WIDTHS, stream(24, 0))
        grads["flat"][:] = np.nan
        given = backward(params, inputs, prob, yb, complement, 0, grads)
        assert given[0] is grads["weights"] and given[1] is grads["biases"]
        for got, want in zip(given[0] + given[1], fresh[0] + fresh[1]):
            np.testing.assert_array_equal(got, want)


class TestTraining:
    def test_batch_orthogonality_of_corrected_preactivation(self, data):
        # replicate one corrected batch and verify the projection contract
        x, prot, _ = data.rows(data.train_mask)
        xb, pb = x[:64], prot[:64]
        params = init_params((x.shape[1], 16, 8, 1), stream(12, 0))
        forward(params, xb, build_projector(augment_intercept(pb)).complement, 0)
        h_pre = xb @ params["weights"][0] + params["biases"][0]
        proj = build_projector(augment_intercept(pb))
        corrected = proj.complement(h_pre)
        resid = np.max(np.abs(augment_intercept(pb).T @ corrected)) / 64
        assert resid <= 1e-6

    def test_uncorrected_model_takes_the_shortcut(self, trained):
        uncorrected, _ = trained
        acc = accuracy_by_split(uncorrected)
        assert acc["train"] >= 0.95
        assert acc["test"] <= 0.65

    def test_corrected_model_recovers_test_accuracy(self, trained):
        uncorrected, corrected = trained
        acc_u = accuracy_by_split(uncorrected)
        acc_c = accuracy_by_split(corrected)
        assert acc_c["test"] >= acc_u["test"] + 0.10

    def test_confounder_evaluation_pvalues(self, trained, data):
        uncorrected, corrected = trained
        x, prot, _ = data.rows(data.test_mask)
        assert uncorrected.confounder_report(x, prot).p_values[0] < 0.01
        assert corrected.confounder_report(x, prot).p_values[0] > 0.05

    def test_loss_decreases_over_first_epochs(self, trained):
        for result in trained:
            losses = [
                m["loss"] for m in result.metrics if m["split"] == "train"
            ][:5]
            assert losses == sorted(losses, reverse=True)

    def test_logged_constraint_residuals_small(self, trained):
        _, corrected = trained
        residuals = [
            m["constraint_residual"]
            for m in corrected.metrics
            if m["split"] == "train" and m["constraint_residual"] is not None
        ]
        assert residuals and max(residuals) <= 1e-6

    def test_metrics_schema(self, trained):
        for result in trained:
            for m in result.metrics:
                assert {"epoch", "split", "accuracy", "constraint_residual"} <= set(m)

    def test_training_deterministic(self, data):
        cfg = MlpConfig(seed=3, epochs=3)
        a = train_mlp(data, cfg, with_correction=True)
        b = train_mlp(data, cfg, with_correction=True)
        for wa, wb in zip(a.params["weights"], b.params["weights"]):
            np.testing.assert_array_equal(wa, wb)

    @pytest.mark.parametrize("with_correction", [False, True])
    def test_nan_feature_aborts_with_the_epoch(self, data, with_correction):
        features = data.features.copy()
        features[0, 0] = np.nan  # a training row
        bad = dataclasses.replace(data, features=features)
        with pytest.raises(FloatingPointError, match="epoch 0"):
            train_mlp(bad, MlpConfig(seed=3, epochs=2), with_correction)

    def test_bad_config_rejected(self, data):
        with pytest.raises(InvalidSpec):
            train_mlp(data, MlpConfig(ortho_layer_index=5), True)
        with pytest.raises(InvalidSpec):
            train_mlp(data, MlpConfig(layer_widths=(3, 16, 8, 1)), True)


def preactivation(params, x, layer):
    """The uncorrected pre-activation of hidden layer ``layer``, as
    ``forward`` forms it."""
    kept = []
    forward(params, x, lambda h: kept.append(h.copy()) or h, layer)
    return kept[0]


@pytest.fixture(scope="module")
def small_data():
    return make_confounded_data(400, 300, seed=2)


class TestEpochPass:
    """The per-epoch inference pass is the same computation as the public
    entry points it replaced: ``predict`` and the training-set regression of
    the uncorrected pre-activation; ``confounder_report`` is ``evaluate_glm``
    on ``predict``."""

    @pytest.fixture(
        scope="class",
        params=[(c, o) for c in (False, True) for o in (0, 1)],
        ids=lambda p: f"{'corrected' if p[0] else 'plain'}-layer{p[1]}",
    )
    def run(self, request, small_data):
        with_correction, ortho = request.param
        cfg = MlpConfig(layer_widths=(9, 16, 8, 1), epochs=3, ortho_layer_index=ortho, seed=4)
        return train_mlp(small_data, cfg, with_correction), with_correction, ortho

    def test_last_epoch_metrics_match_predict(self, run, small_data):
        result, _, _ = run
        last = [m for m in result.metrics if m["epoch"] == 2]
        masks = {"train": small_data.train_mask, "val": small_data.val_mask,
                 "test": small_data.test_mask}
        assert [m["split"] for m in last] == ["train", "val", "test"]
        for m in last:
            x, prot, y = small_data.rows(masks[m["split"]])
            prob = result.predict(x, prot)
            assert m["accuracy"] == float(np.mean((prob > 0.5) == (y > 0.5)))
            assert m["loss"] == bce_loss(prob, y)

    def test_gamma_hat_is_training_regression(self, run, small_data):
        result, with_correction, ortho = run
        if not with_correction:
            assert result.gamma_hat is None
            return
        x, prot, _ = small_data.rows(small_data.train_mask)
        h = preactivation(result.params, x, ortho)
        np.testing.assert_array_equal(
            result.gamma_hat, least_squares(augment_intercept(prot), h))

    def test_confounder_report_matches_test_predictions(self, run, small_data):
        result, _, _ = run
        x, prot, _ = small_data.rows(small_data.test_mask)
        expected = evaluate_glm(prot, result.predict(x, prot), BERNOULLI)
        report = result.confounder_report(x, prot)
        for f in dataclasses.fields(expected):
            np.testing.assert_array_equal(
                getattr(report, f.name), getattr(expected, f.name))

    def test_metrics_hold_python_floats(self, run):
        result, with_correction, _ = run
        for m in result.metrics:
            assert type(m["accuracy"]) is float and type(m["loss"]) is float
            residual = m["constraint_residual"]
            assert type(residual) is float if with_correction else residual is None

    def test_corrected_predict_needs_protected(self, run, small_data):
        result, with_correction, _ = run
        x, prot, _ = small_data.rows(small_data.test_mask)
        if with_correction:
            with pytest.raises(InvalidSpec, match="protected"):
                result.predict(x)
        else:
            np.testing.assert_array_equal(result.predict(x), result.predict(x, prot))

    @pytest.mark.parametrize("with_correction", [False, True])
    def test_training_fits_no_glm(self, small_data, with_correction, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("train_mlp ran an IRLS fit")

        monkeypatch.setattr("orthokit.evalmodel.fit_glm", refuse)
        result = train_mlp(small_data, MlpConfig(epochs=1, seed=4), with_correction)
        monkeypatch.undo()
        x, prot, _ = small_data.rows(small_data.test_mask)
        expected = evaluate_glm(prot, result.predict(x, prot), BERNOULLI)
        report = result.confounder_report(x, prot)
        for f in dataclasses.fields(expected):
            np.testing.assert_array_equal(
                getattr(report, f.name), getattr(expected, f.name))

    @pytest.mark.parametrize("with_correction", [False, True])
    def test_training_split_is_factored_once(self, small_data, with_correction,
                                             monkeypatch):
        fits = []

        def counting(a):
            fits.append(a)
            return build_projector(a)

        monkeypatch.setattr(online_module, "build_projector", counting)
        result = train_mlp(small_data, MlpConfig(epochs=3, seed=4), with_correction)
        monkeypatch.undo()
        assert len(result.metrics) == 9
        assert len(fits) == (1 if with_correction else 0)
        if with_correction:
            _, prot, _ = small_data.rows(small_data.train_mask)
            np.testing.assert_array_equal(fits[0], augment_intercept(prot))

    @pytest.mark.parametrize("with_correction", [False, True])
    def test_zero_epochs_still_reports(self, small_data, with_correction):
        result = train_mlp(small_data, MlpConfig(epochs=0), with_correction)
        assert result.metrics == [] and result.gamma_hat is None
        x, prot, _ = small_data.rows(small_data.test_mask)
        assert result.confounder_report(x, prot).p_values.shape == (1,)
        # with no gamma_hat yet, predict fits the regression on these rows
        xa = augment_intercept(prot)
        regressed = lambda h: h - xa @ least_squares(xa, h)  # noqa: E731
        prob = forward(result.params, x, regressed if with_correction else None, 0)
        np.testing.assert_array_equal(result.predict(x, prot), prob)


def per_batch_training(data, cfg):
    """Corrected ``train_mlp`` written as a loop that calls
    ``build_projector`` once per batch and gathers every batch and split
    afresh.  Returns (params, metrics, gamma_hat, confounder report)."""
    x, prot, y = data.rows(data.train_mask)
    rng = stream(cfg.seed, 0x31A)
    params = init_params(cfg.widths(x.shape[1]), rng)
    ortho = cfg.ortho_layer_index
    metrics = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(y))
        residuals = []
        for start in range(0, len(y), BATCH_SIZE):
            idx = order[start : start + BATCH_SIZE]
            xa = augment_intercept(prot[idx])
            complement = build_projector(xa).complement

            def certified(h):
                h = complement(h)
                residuals.append(float(np.max(np.abs(xa.T @ h)) / len(idx)))
                return h

            inputs = []
            prob = forward(params, x[idx], certified, ortho, inputs)
            grads_w, grads_b = backward(params, inputs, prob, y[idx], complement, ortho)
            for layer in range(len(grads_w)):
                params["weights"][layer] -= LEARNING_RATE * grads_w[layer]
                params["biases"][layer] -= LEARNING_RATE * grads_b[layer]
        gamma_hat = None
        for split in ("train", "val", "test"):
            xs, ps, ys = data.rows(getattr(data, f"{split}_mask"))
            xa = augment_intercept(ps)
            if gamma_hat is None:
                gamma_hat = least_squares(xa, preactivation(params, xs, ortho))
            prob = forward(params, xs, lambda h: h - xa @ gamma_hat, ortho)
            metrics.append({
                "epoch": epoch,
                "split": split,
                "accuracy": float(np.mean((prob > 0.5) == (ys > 0.5))),
                "loss": bce_loss(prob, ys),
                "constraint_residual": float(np.mean(residuals)),
            })
    return params, metrics, gamma_hat, evaluate_glm(ps, prob, BERNOULLI)


class TestStackedBatchProjectors:
    """Factoring an epoch's batches in one stacked QR changes no byte of
    training: 320 training rows make batches of 128, 128 and 64 rows."""

    @pytest.mark.parametrize("ortho", [0, 1])
    def test_training_equals_per_batch_build_projector(self, small_data, ortho):
        cfg = MlpConfig(layer_widths=(9, 16, 8, 1), epochs=3, ortho_layer_index=ortho, seed=4)
        result = train_mlp(small_data, cfg, True)
        params, metrics, gamma_hat, report = per_batch_training(small_data, cfg)
        assert result.skipped_batches == 0
        for key in ("weights", "biases"):
            for got, want in zip(result.params[key], params[key]):
                np.testing.assert_array_equal(got, want)
        assert result.metrics == metrics
        np.testing.assert_array_equal(result.gamma_hat, gamma_hat)
        x, prot, _ = small_data.rows(small_data.test_mask)
        got = result.confounder_report(x, prot)
        for f in dataclasses.fields(report):
            np.testing.assert_array_equal(getattr(got, f.name), getattr(report, f.name))


class TestSkippedBatches:
    EPOCHS = 3

    def _train(self, data, caplog):
        with caplog.at_level(logging.WARNING, logger="orthokit.online"):
            result = train_mlp(data, MlpConfig(epochs=self.EPOCHS, seed=6), True)
        warned = [r for r in caplog.records if "skipping the correction" in r.getMessage()]
        return result, warned

    def test_rank_deficient_batches_are_counted_and_logged(self, small_data, caplog):
        # a second protected column that is non-zero on one training row (and
        # a few test rows): the training split's [1, P] has full rank, but the
        # column is all zero on every batch except the one holding that row
        extra = np.zeros(small_data.labels.shape[0])
        extra[7] = 1.0
        extra[np.flatnonzero(small_data.test_mask)[:20:4]] = 1.0
        data = dataclasses.replace(
            small_data, protected=np.column_stack([small_data.protected[:, 0], extra]))
        result, warned = self._train(data, caplog)
        # 320 training rows make batches of 128, 128 and 64 rows
        assert result.skipped_batches == 2 * self.EPOCHS
        assert len(warned) == result.skipped_batches
        assert all("rank deficient at column 2" in r.getMessage() for r in warned)
        residuals = [m["constraint_residual"] for m in result.metrics]
        assert None not in residuals and max(residuals) <= 1e-6

    def test_batch_with_fewer_rows_than_columns_is_counted_and_logged(self, caplog):
        # 161 - 161 // 5 = 129 training rows: every epoch ends on a 1-row batch
        data = make_confounded_data(161, 50, seed=3)
        result, warned = self._train(data, caplog)
        assert result.skipped_batches == self.EPOCHS
        assert len(warned) == self.EPOCHS
        assert all("1-row batch" in r.getMessage() for r in warned)
