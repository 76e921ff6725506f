"""Dense linear algebra core.

Projector construction and application, column centering, and QR-backed
least squares.  The orthogonal-complement projector ``I - Q Q^T`` is never
materialized as an n-by-n matrix; ``Projector.complement`` applies it as two
skinny matrix products and a subtraction, all into the one n-by-d array it
returns (or into a given one, such as the columns of a design beside its
intercept), so it holds no second array of its input's size.  It is the
package's one projection verb: vectors, matrices and tensors alike are
projected along their leading (observation) axis, i.e. on their n-by-d
matricization, which is the mode-1 product with ``I - Q Q^T``.  A
``Projector`` is the one fitted object: it holds a Householder QR
``(q, r)`` of a full-column-rank matrix and serves both projection
(``complement``) and regression on the same rows (``solve``, back
substitution for any number of right-hand sides).  Every projector comes
from one factorization, ``_projectors``: one ``numpy.linalg.qr`` call over
a ``(b, n, p)`` stack of equal-shape blocks, with the hard rank check
applied block by block.  ``build_projector`` factors one matrix as the
stack of one, and ``least_squares`` is ``build_projector`` and one solve;
an MLP epoch's batches are factored together, because per-call overhead,
not arithmetic, dominates the QR of a 128-by-2 block, and each block is
bitwise equal to its own ``build_projector``.  One rule names the two ways
a matrix can lack full column rank, wherever it is checked: no columns or
fewer rows than columns is ``DimensionMismatch`` (``shape_error``), and a
dependent column is ``RankDeficient`` carrying that column's index.  The
one Newton loop, ``glm._newton``, does use the normal equations: without
constraints (IRLS, ``glm.fit_glm``) it solves each step on the weighted
Gram matrix ``Z^T W Z`` (formed by ``glm._weighted_gram``, one row block
at a time), guarded by its Cholesky factor, with ``least_squares`` as the
fallback; with constraints it cuts the numerical rank of the constraint
Jacobian at ``RANK_RTOL``.  Everything here runs on ``numpy.linalg`` alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DomainError, RankDeficient

# Relative tolerance below which a column is declared linearly dependent:
# its QR diagonal against the largest column norm (what a column-pivoted QR
# puts first on its diagonal).  Rank deficiency is a hard error, not a
# pseudo-inverse fallback.
RANK_RTOL = 1e-10


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and convert input to a 2-D float64 array with finite entries."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim == 1:
        m = m[:, None]
    if m.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-D, got ndim={m.ndim}")
    if m.size and not np.all(np.isfinite(m)):
        raise DomainError(f"{name} contains NaN or Inf entries")
    return m


def as_vector(a, name: str = "vector") -> np.ndarray:
    """Validate and convert input to a 1-D float64 array with finite entries."""
    v = np.asarray(a, dtype=np.float64).reshape(-1)
    if v.size and not np.all(np.isfinite(v)):
        raise DomainError(f"{name} contains NaN or Inf entries")
    return v


def as_tensor(t, name: str = "tensor") -> np.ndarray:
    """Validate an observation-major dense tensor (first axis indexes rows)."""
    a = np.asarray(t, dtype=np.float64)
    if a.ndim < 1:
        raise DimensionMismatch(f"{name} must have at least one axis")
    if a.size and not np.all(np.isfinite(a)):
        raise DomainError(f"{name} contains NaN or Inf entries")
    return a


@dataclass(frozen=True)
class Projector:
    """The thin Householder QR ``(q, r)`` of a full-column-rank n-by-p
    matrix, fitted once and applied to any number of arrays on its n rows.

    ``q`` (n-by-p, orthonormal columns) spans the same space as the
    matrix's columns.  ``complement(M)`` computes ``M - q (q^T M)``, the
    residual of M after removing its component in that span, and
    ``solve(b)`` the least-squares coefficients of ``b`` on the matrix.
    """

    q: np.ndarray
    r: np.ndarray

    def complement(self, a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Project ``a`` along its leading axis onto the orthogonal complement.

        ``a`` may be a vector, a matrix or a tensor with ``a.shape[0] == n``;
        the result has the shape of ``a``.  It is computed in the one array
        returned: ``out`` when given (an array of ``a``'s shape that does not
        overlap it, a view such as some columns of a design included), else
        a new one.
        """
        n = self.q.shape[0]
        if a.ndim < 1 or a.shape[0] != n:
            raise DimensionMismatch(
                f"shape {a.shape} does not lead with projector size {n}"
            )
        if out is not None and out.shape != a.shape:
            raise DimensionMismatch(f"out has shape {out.shape}, not {a.shape}")
        if out is not None and np.may_share_memory(a, out):
            raise ValueError("out must not overlap the projected array")
        flat = a.reshape(n, -1)
        dest = None if out is None else out.reshape(n, -1)
        dest = np.matmul(self.q, self.q.T @ flat, out=dest)
        np.subtract(flat, dest, out=dest)
        if out is None:
            return dest.reshape(a.shape)
        if not np.may_share_memory(dest, out):  # the reshape had to copy
            out[...] = dest.reshape(a.shape)
        return out

    def solve(self, b) -> np.ndarray:
        """Minimum-residual solution of ``a @ x = b`` for the factored
        ``a``; ``b`` may be a vector or a matrix of right-hand sides, and
        the result matches its shape convention."""
        b_arr = np.asarray(b, dtype=np.float64)
        bm = as_matrix(b_arr, "right-hand side")
        if bm.shape[0] != self.q.shape[0]:
            raise DimensionMismatch(
                f"row counts differ: {self.q.shape[0]} vs {bm.shape[0]}"
            )
        # numpy has no triangular solver; LU of an upper-triangular r pivots
        # on its own diagonal and eliminates nothing, so this is back
        # substitution
        x = np.linalg.solve(self.r, self.q.T @ bm)
        return x[:, 0] if b_arr.ndim == 1 else x


def build_projector(x) -> Projector:
    """The ``Projector`` of a full-column-rank matrix: ``_projectors`` of
    its stack of one.  Raises ``DimensionMismatch`` for a matrix with no
    columns or fewer rows than columns, and ``RankDeficient`` at the first
    (numerically) linearly dependent column."""
    (proj,) = _projectors(as_matrix(x)[None])
    if isinstance(proj, Exception):
        raise proj
    return proj


def shape_error(n: int, p: int) -> DimensionMismatch | None:
    """The error of an n-by-p matrix that cannot have full column rank by
    its shape alone (no columns, or fewer rows than columns), else None."""
    if p < 1:
        return DimensionMismatch("need at least one column")
    if n < p:
        return DimensionMismatch(f"need n >= p, got n={n} < p={p}")
    return None


def _projectors(stack: np.ndarray) -> list:
    """The ``Projector`` of each block of a ``(b, n, p)`` stack from one
    Householder QR of the whole stack, or the error of a block with none:
    ``shape_error(n, p)`` for every block when there is one, else
    ``RankDeficient`` at the block's first column, in input order, whose
    diagonal ``|r_jj|`` (its distance from the span of the columns before
    it) is at most ``RANK_RTOL`` times the block's largest column norm,
    taken from R (``||A e_j|| = ||R e_j||``, as Q has orthonormal columns).
    Each block's factors are bitwise those of its own stack of one."""
    _, n, p = stack.shape
    if (err := shape_error(n, p)) is not None:
        return [err] * len(stack)
    q, r = np.linalg.qr(stack)
    sq_norms = np.maximum.reduce(np.add.reduce(r * r, axis=1), axis=1)
    thresh = RANK_RTOL * np.sqrt(sq_norms)
    bad = np.abs(np.diagonal(r, axis1=1, axis2=2)) <= thresh[:, None]
    return [
        RankDeficient(int(np.argmax(row))) if row.any() else Projector(qk, rk)
        for qk, rk, row in zip(q, r, bad)
    ]


def center_columns(x) -> np.ndarray:
    """Subtract the column mean from every column."""
    xm = as_matrix(x, "matrix")
    return xm - xm.mean(axis=0, keepdims=True)


def least_squares(a, b) -> np.ndarray:
    """Minimum-residual solution of ``a @ x = b`` via Householder QR.

    ``a`` must have full column rank; the residual is orthogonal to its
    column span.  ``b`` may be a vector or a matrix of right-hand sides;
    the result matches its shape convention.
    """
    return build_projector(a).solve(b)
