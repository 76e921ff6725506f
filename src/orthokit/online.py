"""Online orthogonalization: projecting a hidden layer during training.

A small dense ReLU network with sigmoid output is trained by minibatch SGD
with manual backpropagation on synthetic data in which a binary confounder
perfectly tracks the label on the training split but is independent of it on
the test split.  With correction enabled, the chosen hidden pre-activation
matrix H is replaced per batch by its projection onto the orthogonal
complement of span([1, protected rows]) before the ReLU; the backward pass
applies the same (symmetric, batch-constant) projector to the upstream
gradient.  Each epoch permutes the training rows once and factors the
``[1, protected]`` blocks of all its full batches in one stacked QR, and
the short last batch in another; each batch's projector is bitwise the one
``build_projector`` gives it, and a batch for which ``build_projector``
would raise skips the correction.

``forward`` is the one pass through the network, for training and inference
alike: it takes the correction to apply at the projected layer as a
callable.  Training passes the batch projector's ``complement``.  At
evaluation time the training-set regression of H on [1, protected] is
subtracted instead, which is the row-wise applicable form of the full
training-set projector.  Each epoch ends with one pass per split: the
training split's pass fits that regression (``gamma_hat``) on its
uncorrected pre-activation at the projected layer, and every split's pass
subtracts ``[1, protected] @ gamma_hat`` there.  The training split's
``[1, protected]`` is fixed, so its QR is factored once per training by
``build_projector``, and each epoch's fit is one ``solve`` on it.
Training fits no GLM: ``TrainingResult.confounder_report`` runs the Wald
test of the protected rows on the model's predictions when a caller asks
for it.

All weights and biases are views into one float64 buffer (``params["flat"]``),
and ``backward`` writes its gradients into views of a buffer of the same
layout, so an SGD step is one update of the whole buffer, elementwise the
per-layer ``w -= LEARNING_RATE * g``.  The loop calls ufuncs and their
reductions directly (``np.add.reduce``, ``np.count_nonzero`` and the like)
rather than their Python-level wrappers: a 128-row step costs about 100 us,
most of it per-call overhead.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .correct import augment_intercept
from .errors import InvalidSpec
from .evalmodel import evaluate_glm
from .glm import BERNOULLI, _sigmoid
from .linalg import _projectors, build_projector
from .synth import stream

logger = logging.getLogger(__name__)

# Signal columns of ``make_confounded_data``; the first two carry the label
SIGNAL_DIM = 8
# Label-flip rate of the signal channel; Bayes accuracy is 1 - DEFAULT_NOISE.
DEFAULT_NOISE = 0.15
CONFOUNDER_MAGNITUDE = 5.0
# Minibatch SGD settings of ``train_mlp``
LEARNING_RATE = 0.3
BATCH_SIZE = 128


@dataclass
class ConfoundedDataset:
    """Synthetic tabular stand-in for a color-confounded image task."""

    features: np.ndarray
    protected: np.ndarray
    labels: np.ndarray
    train_mask: np.ndarray
    val_mask: np.ndarray
    test_mask: np.ndarray

    def rows(self, mask: np.ndarray):
        idx = np.flatnonzero(mask)
        return self.features[idx], self.protected[idx], self.labels[idx]


def make_confounded_data(
    n_train: int, n_test: int, seed: int = 0
) -> ConfoundedDataset:
    """Generate the confounded classification problem.

    The label is the quadrant sign of the first two of ``SIGNAL_DIM``
    (standard normal) signal columns, flipped with probability
    ``DEFAULT_NOISE`` (so the signal-only Bayes accuracy is 0.85); remaining
    signal columns are pure noise.  This makes the label linearly neutral in
    the signal (no class mean shift) but nonlinearly decodable -- the
    tabular analogue of shape-versus-color structure.  The binary confounder
    equals the label on train/val rows and is an independent coin flip on
    test rows; it enters the feature matrix as a dominant-magnitude column,
    making it the preferred shortcut for an uncorrected model.
    """
    if n_train < 10 or n_test < 1:
        raise InvalidSpec("need n_train >= 10 and n_test >= 1")
    rng = stream(seed, 0xC0F)
    n = n_train + n_test
    signal = rng.standard_normal((n, SIGNAL_DIM))
    quadrant = (signal[:, 0] * signal[:, 1] > 0.0).astype(np.float64)
    flips = (rng.random(n) < DEFAULT_NOISE).astype(np.float64)
    labels = np.abs(quadrant - flips)
    confounder = labels.copy()
    confounder[n_train:] = (rng.random(n_test) < 0.5).astype(np.float64)
    features = np.column_stack([signal, CONFOUNDER_MAGNITUDE * confounder])
    n_val = max(1, n_train // 5)
    train_mask = np.zeros(n, dtype=bool)
    val_mask = np.zeros(n, dtype=bool)
    test_mask = np.zeros(n, dtype=bool)
    train_mask[: n_train - n_val] = True
    val_mask[n_train - n_val : n_train] = True
    test_mask[n_train:] = True
    return ConfoundedDataset(
        features=features,
        protected=confounder[:, None],
        labels=labels,
        train_mask=train_mask,
        val_mask=val_mask,
        test_mask=test_mask,
    )


@dataclass(frozen=True)
class MlpConfig:
    """Architecture, epochs and seed; widths default to [input, 16, 8, 1]."""

    layer_widths: tuple | None = None
    epochs: int = 60
    ortho_layer_index: int = 0
    seed: int = 0

    def widths(self, d_in: int) -> tuple:
        w = self.layer_widths or (d_in, 16, 8, 1)
        if w[0] != d_in:
            raise InvalidSpec(f"layer_widths[0]={w[0]} does not match inputs {d_in}")
        if w[-1] != 1:
            raise InvalidSpec("output layer must have width 1")
        if not 0 <= self.ortho_layer_index < len(w) - 2:
            raise InvalidSpec("ortho_layer_index must select a hidden layer")
        return tuple(int(v) for v in w)


def _new_params(widths: tuple) -> dict:
    """Uninitialized ``{"weights", "biases", "flat"}``: each layer's weight
    matrix and then its bias, as views into the one buffer ``flat``."""
    flat = np.empty(sum((a + 1) * b for a, b in zip(widths[:-1], widths[1:])))
    weights, biases, start = [], [], 0
    for a, b in zip(widths[:-1], widths[1:]):
        weights.append(flat[start : start + a * b].reshape(a, b))
        biases.append(flat[start + a * b : start + (a + 1) * b])
        start += (a + 1) * b
    return {"weights": weights, "biases": biases, "flat": flat}


def init_params(widths: tuple, rng: np.random.Generator) -> dict:
    params = _new_params(widths)
    for w, b in zip(params["weights"], params["biases"]):
        w[...] = rng.standard_normal(w.shape) * np.sqrt(2.0 / w.shape[0])
        b[...] = 0.0
    return params


def forward(
    params: dict, x: np.ndarray, correct=None, ortho_layer: int = 0, inputs=None
):
    """Run the network on rows ``x``; returns the output probabilities.

    Each layer works in place on the array its matrix product returns.  When
    ``correct`` is given, the pre-activation of hidden layer ``ortho_layer``
    is replaced by ``correct(h)`` before the ReLU; it may modify ``h`` in
    place and return it.  When ``inputs`` is a list, each layer's input is
    appended to it for ``backward``.
    """
    weights, biases = params["weights"], params["biases"]
    act = x
    for layer in range(len(weights) - 1):
        if inputs is not None:
            inputs.append(act)
        h = act @ weights[layer]
        h += biases[layer]
        if layer == ortho_layer and correct is not None:
            h = correct(h)
        h *= h > 0.0
        act = h
    if inputs is not None:
        inputs.append(act)
    out = act @ weights[-1]
    out += biases[-1]
    return _sigmoid(out[:, 0])


def backward(
    params: dict, inputs: list, prob, yb, correct=None, ortho_layer: int = 0,
    grads: dict | None = None,
):
    """Mean binary cross-entropy gradients for all weights and biases.

    ``inputs`` and ``prob`` are what ``forward`` recorded and returned for
    the batch.  A hidden layer's ReLU mask is its output ``> 0``, which is
    the next layer's input.  ``correct`` is the correction ``forward``
    applied at ``ortho_layer``; it must be linear and symmetric (a
    projector's ``complement``), so it also maps the upstream gradient.
    The gradients are written into ``grads``, a dict of ``params``' layout
    whose every entry they overwrite, or into a new one; returns its
    ``(weights, biases)`` lists.
    """
    weights = params["weights"]
    if grads is None:
        widths = (weights[0].shape[0], *(w.shape[1] for w in weights))
        grads = _new_params(widths)
    grads_w, grads_b = grads["weights"], grads["biases"]
    delta = ((prob - yb) / yb.shape[0])[:, None]
    np.matmul(inputs[-1].T, delta, out=grads_w[-1])
    np.add.reduce(delta, axis=0, out=grads_b[-1])
    upstream = delta @ weights[-1].T
    for layer in range(len(weights) - 2, -1, -1):
        dh = upstream
        dh *= inputs[layer + 1] > 0.0
        if layer == ortho_layer and correct is not None:
            dh = correct(dh)
        np.matmul(inputs[layer].T, dh, out=grads_w[layer])
        np.add.reduce(dh, axis=0, out=grads_b[layer])
        if layer > 0:
            upstream = dh @ weights[layer].T
    return grads_w, grads_b


def _regressed(params, x, xa, ortho_layer, gamma_hat=None, fit=None):
    """``forward`` with ``xa @ gamma_hat`` subtracted from the pre-activation
    of hidden layer ``ortho_layer``, after first fitting ``gamma_hat`` on
    these rows if it is None (the least-squares regression of the
    uncorrected pre-activation on ``xa``, the rows' ``[1, protected]``,
    solved with ``fit``, the ``Projector`` of ``xa``, or a fresh one).
    Returns (probabilities, gamma_hat); with ``xa`` None nothing is
    subtracted.
    """
    if xa is None:
        return forward(params, x), gamma_hat

    def subtract(h):
        nonlocal gamma_hat
        if gamma_hat is None:
            gamma_hat = (fit or build_projector(xa)).solve(h)
        h -= xa @ gamma_hat
        return h

    return forward(params, x, subtract, ortho_layer), gamma_hat


def _batch_projectors(xa: np.ndarray) -> list:
    """The projector of each ``BATCH_SIZE``-row batch of ``xa`` (an epoch's
    permuted ``[1, protected]``), or the exception ``build_projector``
    raises for it: one stacked QR factors the full batches, another the
    short last batch."""
    n, p = xa.shape
    full = n - n % BATCH_SIZE
    out = _projectors(xa[:full].reshape(-1, BATCH_SIZE, p))
    if full < n:
        out += _projectors(xa[full:][None])
    return out


def bce_loss(prob: np.ndarray, yb: np.ndarray) -> float:
    p = np.minimum(np.maximum(prob, 1e-12), 1.0 - 1e-12)
    terms = yb * np.log(p) + (1.0 - yb) * np.log(1.0 - p)
    return float(-(np.add.reduce(terms) / terms.size))


@dataclass
class TrainingResult:
    """A trained network: its parameters, per-epoch metrics and, when
    trained with correction, the last epoch's ``gamma_hat``.  It holds no
    predictions; ``predict`` and ``confounder_report`` compute them."""

    params: dict
    metrics: list = field(default_factory=list)
    gamma_hat: np.ndarray | None = None
    config: MlpConfig | None = None
    with_correction: bool = False
    skipped_batches: int = 0

    def predict(self, features: np.ndarray, protected: np.ndarray | None = None):
        """Probabilities; a corrected model subtracts ``[1, protected] @
        gamma_hat`` at its projected layer, with ``gamma_hat`` fitted on
        these rows if no epoch has run.  A corrected model raises
        ``InvalidSpec`` without ``protected``."""
        xa = None
        if self.with_correction:
            if protected is None:
                raise InvalidSpec(
                    "a model trained with correction needs `protected` to predict"
                )
            xa = augment_intercept(protected)
        ortho = self.config.ortho_layer_index
        return _regressed(self.params, features, xa, ortho, self.gamma_hat)[0]

    def confounder_report(self, features: np.ndarray, protected: np.ndarray):
        """Does ``protected`` explain the model's predictions on these rows?
        The Bernoulli ``evaluate_glm`` report of ``predict(features,
        protected)`` on ``protected``: one IRLS fit and its Wald tests."""
        return evaluate_glm(protected, self.predict(features, protected), BERNOULLI)


def _sgd_epoch(params, grads, x, y, xa, ortho, epoch):
    """One epoch of minibatch SGD on rows already in the epoch's order.

    ``grads`` is the buffer (of ``params``' layout) each batch's gradients
    are written into.  With ``xa``, the rows' ``[1, protected]``, each
    batch's pre-activation at hidden layer ``ortho`` is projected onto the
    complement of its batch's ``xa`` block, and its constraint residual is
    recorded.  Returns (constraint residuals, batches that skipped the
    correction).  The epoch's copies and projectors are freed when this
    frame returns, before the epoch-end passes.
    """
    projectors = _batch_projectors(xa) if xa is not None else None
    batch_residuals, skipped = [], 0
    for batch, start in enumerate(range(0, len(y), BATCH_SIZE)):
        stop = start + BATCH_SIZE
        xb, yb = x[start:stop], y[start:stop]
        complement = None
        if projectors is not None:
            xab, proj = xa[start:stop], projectors[batch]
            if isinstance(proj, Exception):
                skipped += 1
                logger.warning(
                    "epoch %d: skipping the correction of a %d-row batch: %s",
                    epoch, len(yb), proj,
                )
            else:
                complement = proj.complement

        def certified(h):
            # orthogonality of the corrected pre-activation itself
            h = complement(h)
            dots = xab.T @ h
            batch_residuals.append(
                float(np.maximum.reduce(np.abs(dots, out=dots), axis=None) / len(yb))
            )
            return h

        inputs = []
        prob = forward(params, xb, certified if complement else None, ortho, inputs)
        if np.logical_or.reduce(np.isnan(prob)):
            raise FloatingPointError(
                f"non-finite loss at epoch {epoch}; last batch size {len(yb)}"
            )
        backward(params, inputs, prob, yb, complement, ortho, grads)
        params["flat"] -= LEARNING_RATE * grads["flat"]
    return batch_residuals, skipped


def train_mlp(
    data: ConfoundedDataset,
    cfg: MlpConfig | None = None,
    with_correction: bool = True,
) -> TrainingResult:
    """Minibatch SGD training with optional in-training orthogonalization.

    Metrics rows carry, per epoch and split, the accuracy and the constraint
    residual ``max |[1, X]^T H| / rows`` of the corrected hidden
    pre-activation, taken per batch before the ReLU and averaged over the
    epoch.  A batch whose ``[1, protected]`` block has a dependent column
    (an all-0 or all-1 confounder, say) or fewer rows than columns skips the
    correction, is counted in ``skipped_batches`` and logs a warning.  Each
    epoch ends with one ``forward`` pass per split, training split first:
    its pass fits ``gamma_hat`` and all three subtract it (see the module
    docstring).  No GLM is fitted; ``TrainingResult.confounder_report``
    tests the predictions on given rows when asked.
    Training always completes; a NaN output, which makes the loss
    non-finite, aborts with diagnostics.
    """
    cfg = cfg or MlpConfig()
    x_tr, prot_tr, y_tr = data.rows(data.train_mask)
    widths = cfg.widths(x_tr.shape[1])
    rng = stream(cfg.seed, 0x31A)
    params = init_params(widths, rng)
    grads = _new_params(widths)
    ortho = cfg.ortho_layer_index

    n_tr = x_tr.shape[0]
    result = TrainingResult(
        params=params, config=cfg, with_correction=with_correction
    )
    # (name, features, [1, protected] or None, labels, labels > 0.5) per split
    splits = [
        (split, xs, augment_intercept(ps) if with_correction else None, ys, ys > 0.5)
        for split, (xs, ps, ys) in (
            ("train", (x_tr, prot_tr, y_tr)),
            ("val", data.rows(data.val_mask)),
            ("test", data.rows(data.test_mask)),
        )
    ]
    xa_tr = splits[0][2]
    fit_tr = None  # the Projector of xa_tr, factored at the first epoch's end
    for epoch in range(cfg.epochs):
        order = rng.permutation(n_tr)
        batch_residuals, skipped = _sgd_epoch(
            params, grads, x_tr[order], y_tr[order],
            xa_tr[order] if with_correction else None, ortho, epoch,
        )
        result.skipped_batches += skipped
        if with_correction and fit_tr is None:
            fit_tr = build_projector(xa_tr)

        epoch_residual = (
            float(np.add.reduce(batch_residuals) / len(batch_residuals))
            if batch_residuals else None
        )
        gamma_hat = None
        for split, xs, xa_s, ys, positive in splits:
            prob, gamma_hat = _regressed(params, xs, xa_s, ortho, gamma_hat, fit_tr)
            result.metrics.append(
                {
                    "epoch": epoch,
                    "split": split,
                    "accuracy": float(
                        np.count_nonzero((prob > 0.5) == positive) / len(ys)
                    ),
                    "loss": bce_loss(prob, ys),
                    "constraint_residual": epoch_residual,
                }
            )
        result.gamma_hat = gamma_hat
    return result


def accuracy_by_split(result: TrainingResult) -> dict:
    """Final-epoch accuracy per split."""
    return {r["split"]: r["accuracy"] for r in result.metrics}
