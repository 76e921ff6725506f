"""One rule for a matrix that must have full column rank, at every entry
point that needs one.

No columns or fewer rows than columns is ``DimensionMismatch`` with the
message of ``linalg.shape_error``; a column that copies an earlier one is
``RankDeficient`` whose ``col_index`` is that column's index in the matrix
factored, which is one more than in the caller's ``X`` when an intercept is
prepended.  ``fit_constrained_glm`` is held only to the first half: its
Newton loop shifts a singular Hessian rather than factoring the design.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthokit.correct import (
    correct_features_linear,
    correct_predictions_glm,
    corrected_design,
    fit_constrained_glm,
)
from orthokit.errors import DimensionMismatch, RankDeficient
from orthokit.evalmodel import evaluate_glm, evaluate_tensor
from orthokit.glm import BERNOULLI, fit_glm
from orthokit.linalg import build_projector, least_squares


def rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def soft(g, n):
    """Responses in (0, 1), so no bernoulli fit stops at its start."""
    return g.uniform(0.1, 0.9, size=n)


# (entry point on (x, g), columns it prepends to x)
ENTRY_POINTS = {
    "build_projector": (lambda x, g: build_projector(x), 0),
    "least_squares": (lambda x, g: least_squares(x, g.standard_normal(len(x))), 0),
    "correct_features_linear": (
        lambda x, g: correct_features_linear(x, g.standard_normal((len(x), 2, 3))), 0),
    "corrected_design": (
        lambda x, g: corrected_design(x, g.standard_normal((len(x), 2))), 1),
    "correct_predictions_glm": (
        lambda x, g: correct_predictions_glm(x, soft(g, len(x)), BERNOULLI), 1),
    "fit_glm": (lambda x, g: fit_glm(x, soft(g, len(x)), BERNOULLI), 0),
    "fit_constrained_glm": (
        lambda x, g: fit_constrained_glm(x, soft(g, len(x)),
                                         g.standard_normal(len(x)), BERNOULLI), 1),
    "evaluate_glm": (lambda x, g: evaluate_glm(x, soft(g, len(x)), BERNOULLI), 1),
    "evaluate_tensor": (
        lambda x, g: evaluate_tensor(x, g.standard_normal((len(x), 2, 2))), 0),
}


@pytest.mark.parametrize("name", ENTRY_POINTS)
@settings(max_examples=20, deadline=None)
@given(n=st.integers(2, 8), extra=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_fewer_rows_than_columns_is_a_shape_error(name, n, extra, seed):
    call, prepended = ENTRY_POINTS[name]
    g = rng(seed)
    p = n + extra
    with pytest.raises(DimensionMismatch) as exc:
        call(g.standard_normal((n, p)), g)
    assert type(exc.value) is DimensionMismatch
    assert str(exc.value) == f"need n >= p, got n={n} < p={p + prepended}"


@pytest.mark.parametrize(
    "name", [name for name in ENTRY_POINTS if name != "fit_constrained_glm"])
@settings(max_examples=20, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_copied_column_is_named(name, data, seed):
    call, prepended = ENTRY_POINTS[name]
    p = data.draw(st.integers(1, 4), label="p")
    n = data.draw(st.integers(p + 3, p + 12), label="n")
    j = data.draw(st.integers(0, p - 1), label="copied column")
    at = data.draw(st.integers(j + 1, p), label="copy's index")
    g = rng(seed)
    base = g.standard_normal((n, p))
    x = np.insert(base, at, base[:, j], axis=1)
    with pytest.raises(RankDeficient) as exc:
        call(x, g)
    assert type(exc.value) is RankDeficient
    assert exc.value.col_index == at + prepended
