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
applied block by block.  ``Projector.fit`` (and so ``least_squares``, which
is ``Projector.fit`` and one solve) and ``build_projector`` factor a matrix
as the stack of one, each with its own validation and errors; an MLP
epoch's batches are factored together, because per-call overhead, not
arithmetic, dominates the QR of a 128-by-2 block, and each block is
bitwise equal to its own ``build_projector``.  The one Newton loop,
``glm._newton``, does use the normal equations: without constraints (IRLS,
``glm.fit_glm``) it solves each step on the weighted Gram matrix
``Z^T W Z`` (formed by ``glm._weighted_gram``, one row block at a time),
guarded by its Cholesky factor, with ``least_squares`` as the fallback;
with constraints it cuts the numerical rank of the constraint Jacobian at
``RANK_RTOL``.  Everything here runs on ``numpy.linalg`` alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, RankDeficient

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
        raise ValueError(f"{name} contains NaN or Inf entries")
    return m


def as_vector(a, name: str = "vector") -> np.ndarray:
    """Validate and convert input to a 1-D float64 array with finite entries."""
    v = np.asarray(a, dtype=np.float64).reshape(-1)
    if v.size and not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains NaN or Inf entries")
    return v


def as_tensor(t, name: str = "tensor") -> np.ndarray:
    """Validate an observation-major dense tensor (first axis indexes rows)."""
    a = np.asarray(t, dtype=np.float64)
    if a.ndim < 1:
        raise DimensionMismatch(f"{name} must have at least one axis")
    if a.size and not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains NaN or Inf entries")
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

    @classmethod
    def fit(cls, a) -> Projector:
        """Validate the design ``a`` and factor it; raises ``RankDeficient``
        if its columns are (numerically) linearly dependent."""
        am = as_matrix(a, "design matrix")
        n, p = am.shape
        if p == 0:
            raise RankDeficient(0, "matrix has no columns")
        if n < p:
            raise RankDeficient(n, f"{n}x{p} design cannot have full column rank")
        return _projector(am)

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
    """Build the complement projector for a full-column-rank matrix.

    Raises ``DimensionMismatch`` if there are fewer rows than columns and
    ``RankDeficient`` if the columns are (numerically) linearly dependent.
    """
    xm = as_matrix(x, "protected features")
    if xm.shape[1] < 1:
        raise DimensionMismatch("need at least one column")
    return _projector(xm)


def _projectors(stack: np.ndarray) -> list:
    """The ``Projector`` of each block of a ``(b, n, p)`` stack, p >= 1,
    from one Householder QR of the whole stack, or the error of a block
    with none: ``DimensionMismatch`` for every block when n < p, else
    ``RankDeficient`` at the block's first column, in input order, whose
    diagonal ``|r_jj|`` (its distance from the span of the columns before
    it) is at most ``RANK_RTOL`` times the block's largest column norm,
    taken from R (``||A e_j|| = ||R e_j||``, as Q has orthonormal columns).
    Each block's factors are bitwise those of its own stack of one."""
    _, n, p = stack.shape
    if n < p:
        return [DimensionMismatch(f"need n >= p, got n={n} < p={p}") for _ in stack]
    q, r = np.linalg.qr(stack)
    sq_norms = np.maximum.reduce(np.add.reduce(r * r, axis=1), axis=1)
    thresh = RANK_RTOL * np.sqrt(sq_norms)
    bad = np.abs(np.diagonal(r, axis1=1, axis2=2)) <= thresh[:, None]
    return [
        RankDeficient(int(np.argmax(row))) if row.any() else Projector(qk, rk)
        for qk, rk, row in zip(q, r, bad)
    ]


def _projector(m: np.ndarray) -> Projector:
    """The projector of one n-by-p matrix, ``_projectors`` of its stack of
    one; raises that block's error."""
    (proj,) = _projectors(m[None])
    if isinstance(proj, Exception):
        raise proj
    return proj


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
    return Projector.fit(a).solve(b)
