"""Test-side helpers that the package itself does not need.

``relu`` and ``relu_dot_terms`` state the rectified algebra that the ReLU
tests assert, and ``gradients`` runs ``online.backward`` into a new buffer,
where training passes the one it allocated.  ``mask_forward`` is
``online.forward`` with the mask rectifier ``h *= h > 0.0``, the reference
its in-place ReLU is tested against.  ``conditioned`` and
``assert_moved_at_most`` are the affine map and the rounding bound of the
invariance tests.
"""

import numpy as np

from orthokit.glm import _sigmoid
from orthokit.linalg import as_vector
from orthokit.online import _new_params, backward


def relu(x) -> np.ndarray:
    return np.maximum(np.asarray(x, dtype=np.float64), 0.0)


def relu_dot_terms(a, b) -> tuple[float, float, float, float]:
    """The four rectified dot products of a pair of vectors.

    Returns ``(h(a).h(b), h(-a).h(b), h(a).h(-b), h(-a).h(-b))`` with
    ``h = relu``.  Since ``x = h(x) - h(-x)``, the raw inner product equals
    the alternating sum ``t0 - t1 - t2 + t3``.
    """
    av = as_vector(a)
    bv = as_vector(b)
    return (
        float(relu(av) @ relu(bv)),
        float(relu(-av) @ relu(bv)),
        float(relu(av) @ relu(-bv)),
        float(relu(-av) @ relu(-bv)),
    )


def gradients(params, inputs, prob, yb, correct=None, ortho_layer=0):
    """``backward`` into a new buffer of ``params``' layout; returns its
    ``(weights, biases)`` gradient lists."""
    weights = params["weights"]
    widths = (weights[0].shape[0], *(w.shape[1] for w in weights))
    return backward(params, inputs, prob, yb, correct, ortho_layer, _new_params(widths))


def mask_forward(params, x, correct=None, ortho_layer=0, inputs=None):
    """``online.forward`` rectifying each hidden layer by its mask,
    ``h *= h > 0.0``, which leaves -0.0 where ``forward`` writes +0.0."""
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


def conditioned(seed: int, p: int, cond: float) -> np.ndarray:
    """A p x p matrix ``U diag(s) V^T`` with random orthogonal U and V and
    singular values from 1 down to ``1 / cond``."""
    g = np.random.Generator(np.random.Philox(key=seed))
    u = np.linalg.qr(g.standard_normal((p, p)))[0]
    v = np.linalg.qr(g.standard_normal((p, p)))[0]
    return u @ np.diag(np.logspace(0.0, -np.log10(cond), p)) @ v.T


def assert_moved_at_most(got, ref, bound):
    """``got`` is within ``bound`` of ``ref``, relative to ``ref``'s
    largest entry (or absolutely, below 1)."""
    moved = float(np.max(np.abs(got - ref)))
    assert moved <= bound * max(1.0, float(np.max(np.abs(ref)))), (moved, bound)
