"""Projector (on matrices and tensors), centering, and least-squares tests.

Derived expectations are computed from independent oracles: explicit
normal-equations projectors, brute-force Kronecker products, and per-column
mean subtraction.  A stack's projectors are compared with ``build_projector``
of each block on its own.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthokit.errors import DimensionMismatch, DomainError, RankDeficient
from orthokit.linalg import (
    RANK_RTOL,
    Projector,
    _projectors,
    as_matrix,
    as_tensor,
    as_vector,
    build_projector,
    center_columns,
    least_squares,
)


def rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def dense_complement(x: np.ndarray) -> np.ndarray:
    """Oracle: I - X (X^T X)^{-1} X^T via explicit normal equations."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    n = x.shape[0]
    return np.eye(n) - x @ np.linalg.inv(x.T @ x) @ x.T


class TestBuildProjector:
    def test_two_point_contrast(self):
        # P_X = [[.5, -.5], [-.5, .5]] is forced by the formula
        proj = build_projector(np.array([[1.0], [-1.0]]))
        e1 = np.array([[1.0], [0.0]])
        np.testing.assert_allclose(
            proj.complement(e1), np.array([[0.5], [0.5]]), atol=1e-12
        )

    def test_full_span_annihilates_everything(self):
        proj = build_projector(np.eye(2))
        v = np.array([[3.0], [-7.0]])
        np.testing.assert_allclose(proj.complement(v), 0.0, atol=1e-12)

    def test_matches_normal_equations_oracle(self):
        g = rng(20)
        x = g.standard_normal((20, 3))
        proj = build_projector(x)
        m = g.standard_normal((20, 4))
        expected = dense_complement(x) @ m
        np.testing.assert_allclose(proj.complement(m), expected, atol=1e-8)

    def test_annihilates_own_columns(self):
        x = rng(21).standard_normal((20, 3))
        proj = build_projector(x)
        assert np.linalg.norm(proj.complement(x)) <= 1e-10

    def test_rank_deficient_duplicate_column(self):
        g = rng(22)
        col = g.standard_normal(15)
        x = np.column_stack([col, 2.0 * col, g.standard_normal(15)])
        with pytest.raises(RankDeficient) as exc:
            build_projector(x)
        assert exc.value.col_index in (0, 1)

    def test_sum_column_named_in_input_order(self):
        # [a, b, a + b, c]: column 2 is the first that depends on the ones
        # before it, whatever order a pivoted QR would visit them in
        g = rng(23)
        a, b, c = g.standard_normal((3, 30))
        with pytest.raises(RankDeficient) as exc:
            build_projector(np.column_stack([a, b, a + b, c]))
        assert exc.value.col_index == 2

    def test_small_column_scale_is_not_rank_deficiency(self):
        # a column scaled by 2^-20 sits ~1e-6 below the largest column norm,
        # four orders of magnitude above RANK_RTOL
        x = rng(24).standard_normal((40, 3))
        x[:, 1] *= 2.0**-20
        proj = build_projector(x)
        assert np.max(np.abs(proj.complement(x))) <= 1e-12
        np.testing.assert_allclose(
            proj.complement(np.eye(40)), dense_complement(x), atol=1e-10
        )

    def test_zero_matrix_named_at_column_zero(self):
        with pytest.raises(RankDeficient) as exc:
            build_projector(np.zeros((5, 2)))
        assert exc.value.col_index == 0

    def test_wide_matrix_rejected(self):
        with pytest.raises(DimensionMismatch):
            build_projector(np.ones((2, 3)))

    def test_nan_rejected(self):
        x = np.ones((4, 1))
        x[2, 0] = np.nan
        with pytest.raises(DomainError):
            build_projector(x)


def fit_of_block(block):
    """Oracle: ``build_projector`` of one block, or the error it raises."""
    try:
        return build_projector(block)
    except RankDeficient as exc:
        return exc


class TestStackedQr:
    """``_projectors`` of a stack is block for block ``build_projector`` of
    each block: bitwise the same factors and the same rank decisions."""

    def assert_blockwise(self, stack):
        """Check each block against the oracle; return each block's
        rank-deficient column, or None for a projector."""
        projs = _projectors(stack)
        assert len(projs) == stack.shape[0]
        for proj, block in zip(projs, stack):
            want = fit_of_block(block)
            assert type(proj) is type(want)
            if isinstance(want, Projector):
                assert proj.q.tobytes() == want.q.tobytes()
                assert proj.r.tobytes() == want.r.tobytes()
            else:
                assert proj.col_index == want.col_index
                assert str(proj) == str(want)
        return [p.col_index if isinstance(p, RankDeficient) else None for p in projs]

    def test_full_rank_blocks(self):
        assert self.assert_blockwise(rng(30).standard_normal((12, 128, 2))) == [None] * 12

    def test_dependent_block_among_good_ones(self):
        stack = rng(31).standard_normal((5, 40, 3))
        stack[2, :, 2] = stack[2, :, 0] - 3.0 * stack[2, :, 1]
        assert self.assert_blockwise(stack) == [None, None, 2, None, None]

    def test_numerically_zero_column_zero(self):
        stack = rng(32).standard_normal((3, 64, 2))
        stack[1, :, 0] *= 1e-13
        stack[2] *= 1e-12  # tiny, but at one scale: the rule is per block
        assert self.assert_blockwise(stack) == [None, 0, None]

    def test_blocks_with_fewer_rows_than_columns(self):
        # no rank decision is made: every block gets build_projector's error
        stack = np.array([[[1.0, 2.0]], [[0.0, 0.0]], [[0.0, 1.0]]])
        for proj, block in zip(_projectors(stack), stack):
            with pytest.raises(DimensionMismatch) as exc:
                build_projector(block)
            assert type(proj) is DimensionMismatch and str(proj) == str(exc.value)

    @pytest.mark.parametrize("scale", [0.0, 1e-16, 1e-13, 3e-12, 3.5e-12, 1e-9, 1e-6])
    def test_threshold_from_r_matches_column_norm_rule(self, scale):
        # the rank threshold comes from R's column norms; on exactly and
        # nearly collinear blocks it decides as A's column norms would.  At
        # scales 3e-12 and 3.5e-12, column 1's diagonal lies within 10% of
        # the threshold, below and above it
        g = rng(36)
        stack = g.standard_normal((6, 128, 3)) * np.array([1.0, 30.0, 0.01])
        for k, block in enumerate(stack):
            j = k % 3  # the column made (nearly) dependent; column 0 (nearly) zero
            block[:, j] = block[:, :j].sum(axis=1) + scale * block[:, j]
        thresh = RANK_RTOL * np.max(np.linalg.norm(stack, axis=1), axis=1)
        diag = np.abs(np.diagonal(np.linalg.qr(stack)[1], axis1=1, axis2=2))
        bad = diag <= thresh[:, None]
        expected = [int(np.argmax(row)) if row.any() else None for row in bad]
        assert self.assert_blockwise(stack) == expected

    def test_matrix_is_the_stack_of_one(self):
        x = rng(33).standard_normal((50, 4))
        q, r = np.linalg.qr(x)
        (stacked,) = _projectors(x[None])
        for proj in (stacked, build_projector(x)):
            assert proj.q.tobytes() == q.tobytes()
            assert proj.r.tobytes() == r.tobytes()

    @pytest.mark.parametrize("rows", [128, 1])
    def test_projectors_match_build_projector(self, rows):
        # one block per outcome: full rank, a constant column, all zero
        stack = rng(34).standard_normal((3, rows, 2))
        stack[:, :, 0] = 1.0
        stack[1, :, 1] = 1.0
        stack[2] = 0.0
        m = rng(35).standard_normal((rows, 5))
        for block, proj in zip(stack, _projectors(stack)):
            try:
                expected = build_projector(block)
            except (DimensionMismatch, RankDeficient) as exc:
                assert type(proj) is type(exc) and str(proj) == str(exc)
            else:
                np.testing.assert_array_equal(proj.complement(m), expected.complement(m))

    @pytest.mark.parametrize("rows", [128, 2])
    def test_stacked_solves_equal_least_squares(self, rows):
        # each block's r is kept from the stacked QR, so its regression is
        # bitwise the one a fresh fit of that block gives
        stack = rng(36).standard_normal((4, rows, 2))
        stack[:, :, 0] = 1.0
        b = rng(37).standard_normal((4, rows, 3))
        for block, rhs, proj in zip(stack, b, _projectors(stack)):
            for y in (rhs, rhs[:, 0]):
                got, want = proj.solve(y), least_squares(block, y)
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()


class TestApplyComplement:
    def test_own_span_maps_to_zero(self):
        x = rng(30).standard_normal((12, 2))
        proj = build_projector(x)
        np.testing.assert_allclose(proj.complement(x), 0.0, atol=1e-10)

    def test_orthogonal_input_is_fixed_point(self):
        g = rng(31)
        x = g.standard_normal((12, 2))
        proj = build_projector(x)
        m = proj.complement(g.standard_normal((12, 3)))
        np.testing.assert_allclose(proj.complement(m), m, atol=1e-10)

    def test_row_mismatch(self):
        proj = build_projector(rng(32).standard_normal((10, 2)))
        with pytest.raises(DimensionMismatch):
            proj.complement(np.ones((9, 2)))

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(3, 30),
        p=st.integers(1, 3),
        k=st.integers(1, 4),
    )
    def test_idempotence_and_annihilation(self, seed, n, p, k):
        p = min(p, n - 1)
        g = rng(seed)
        x = g.standard_normal((n, p))
        proj = build_projector(x)
        m = g.standard_normal((n, k))
        once = proj.complement(m)
        twice = proj.complement(once)
        np.testing.assert_allclose(twice, once, atol=1e-10)
        np.testing.assert_allclose(x.T @ once, 0.0, atol=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_self_adjoint(self, seed):
        g = rng(seed)
        x = g.standard_normal((15, 3))
        proj = build_projector(x)
        u = g.standard_normal(15)
        v = g.standard_normal(15)
        pu = proj.complement(u[:, None])[:, 0]
        pv = proj.complement(v[:, None])[:, 0]
        assert abs(pu @ v - u @ pv) <= 1e-10

    def test_out_is_bitwise_and_holds_no_second_array(self):
        """``complement`` makes one array of its input's size, and with
        ``out`` none: written into the columns of a design beside its
        intercept, the result is bitwise ``a - q (q^T a)``."""
        g = rng(33)
        n, d = 20_000, 50
        proj = build_projector(g.standard_normal((n, 3)))
        a = g.standard_normal((n, d))
        want = a - proj.q @ (proj.q.T @ a)
        design = np.ones((n, d + 1))
        tracemalloc.start()
        try:
            got = proj.complement(a)
            own_peak = tracemalloc.get_traced_memory()[1]
            del got
            tracemalloc.reset_peak()
            into = proj.complement(a, out=design[:, 1:])
            out_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert proj.complement(a).tobytes() == want.tobytes()
        assert np.shares_memory(into, design)
        assert design[:, 1:].tobytes() == want.tobytes()
        assert np.all(design[:, 0] == 1.0)
        assert own_peak < 1.1 * a.nbytes, own_peak
        assert out_peak < a.nbytes / 10, out_peak

    def test_out_of_a_tensor_through_a_strided_view(self):
        g = rng(34)
        proj = build_projector(g.standard_normal((40, 2)))
        t = g.standard_normal((40, 3, 2))
        out = np.zeros((40, 3, 3))[:, :, 1:]  # no (40, 6) view of it exists
        assert proj.complement(t, out=out) is out
        assert out.tobytes() == proj.complement(t).tobytes()

    def test_out_of_the_wrong_shape_or_overlapping_is_refused(self):
        g = rng(35)
        proj = build_projector(g.standard_normal((10, 2)))
        a = g.standard_normal((10, 3))
        with pytest.raises(DimensionMismatch):
            proj.complement(a, out=np.empty((10, 2)))
        with pytest.raises(ValueError):
            proj.complement(a, out=a)


class TestMode1Product:
    def test_zero_tensor(self):
        proj = build_projector(rng(40).standard_normal((4, 1)))
        t = np.zeros((4, 2, 2))
        np.testing.assert_allclose(proj.complement(t), 0.0, atol=0)

    def test_matches_kronecker_oracle(self):
        g = rng(41)
        x = g.standard_normal((4, 1))
        proj = build_projector(x)
        t = g.standard_normal((4, 2, 2))
        # oracle: (I_d kron P) acting on the column-major vec of the n-by-d
        # matricization equals P @ mat(T)
        p_dense = dense_complement(x)
        d = 4
        big = np.kron(np.eye(d), p_dense)
        flat = t.reshape(4, d)
        expected = (big @ flat.flatten(order="F")).reshape((d, 4)).T
        got = proj.complement(t)
        np.testing.assert_allclose(got.reshape(4, d), expected, atol=1e-10)

    def test_fibers_in_span_annihilate(self):
        g = rng(42)
        x = g.standard_normal((5, 2))
        proj = build_projector(x)
        coeffs = g.standard_normal((2, 6))
        t = (x @ coeffs).reshape(5, 3, 2)
        np.testing.assert_allclose(proj.complement(t), 0.0, atol=1e-12)

    @pytest.mark.parametrize("shape", [(4, 2), (4, 2, 2), (8, 2, 2, 2), (4, 4, 4)])
    def test_small_tensor_kronecker_agreement(self, shape):
        g = rng(hash(shape) % (2**32))
        n = shape[0]
        d = int(np.prod(shape[1:]))
        assert n * d <= 64
        x = g.standard_normal((n, 1))
        proj = build_projector(x)
        t = g.standard_normal(shape)
        big = np.kron(np.eye(d), dense_complement(x))
        expected = (big @ t.reshape(n, d).flatten(order="F")).reshape((d, n)).T
        np.testing.assert_allclose(
            proj.complement(t).reshape(n, d), expected, atol=1e-10
        )

    def test_leading_dim_mismatch(self):
        proj = build_projector(rng(43).standard_normal((4, 1)))
        with pytest.raises(DimensionMismatch):
            proj.complement(np.zeros((5, 2)))

    def test_four_way_tensor_equals_matricized_projection(self):
        g = rng(44)
        proj = build_projector(g.standard_normal((7, 2)))
        t = g.standard_normal((7, 2, 3, 2))
        got = proj.complement(t)
        assert got.shape == t.shape
        np.testing.assert_array_equal(
            got.reshape(7, 12), proj.complement(t.reshape(7, 12))
        )

    @pytest.mark.parametrize("shape", [(6,), (6, 2, 3, 2), (3, 7)])
    def test_wrong_leading_dim_raises_on_any_rank(self, shape):
        proj = build_projector(rng(45).standard_normal((7, 2)))
        with pytest.raises(DimensionMismatch):
            proj.complement(np.ones(shape))


class TestCenterColumns:
    def test_two_point_column(self):
        np.testing.assert_allclose(
            center_columns(np.array([[1.0], [3.0]])), np.array([[-1.0], [1.0]])
        )

    def test_already_centered_unchanged(self):
        m = np.array([[1.0, -2.0], [-1.0, 2.0]])
        np.testing.assert_allclose(center_columns(m), m)

    def test_matches_columnwise_oracle(self):
        m = rng(50).standard_normal((10, 3))
        out = center_columns(m)
        for j in range(3):
            np.testing.assert_allclose(out[:, j], m[:, j] - m[:, j].mean())
        assert np.max(np.abs(out.mean(axis=0))) <= 1e-14

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40))
    def test_zero_mean_property(self, seed, n):
        m = rng(seed).standard_normal((n, 2))
        assert np.max(np.abs(center_columns(m).mean(axis=0))) <= 1e-12


class TestLeastSquares:
    def test_identity_design(self):
        b = rng(60).standard_normal(5)
        np.testing.assert_allclose(least_squares(np.eye(5), b), b)

    def test_consistent_overdetermined_system(self):
        g = rng(61)
        a = g.standard_normal((5, 2))
        x_true = g.standard_normal(2)
        np.testing.assert_allclose(
            least_squares(a, a @ x_true), x_true, atol=1e-10
        )

    def test_matches_normal_equations_oracle(self):
        g = rng(62)
        a = g.standard_normal((50, 4))
        b = g.standard_normal(50)
        expected = np.linalg.inv(a.T @ a) @ a.T @ b
        np.testing.assert_allclose(least_squares(a, b), expected, atol=1e-8)

    def test_residual_orthogonal_to_columns(self):
        g = rng(63)
        a = g.standard_normal((30, 3))
        b = g.standard_normal(30)
        resid = b - a @ least_squares(a, b)
        np.testing.assert_allclose(a.T @ resid, 0.0, atol=1e-9)

    def test_rank_deficient(self):
        a = np.ones((6, 2))
        with pytest.raises(RankDeficient):
            least_squares(a, np.ones(6))

    def test_sum_column_named_in_input_order(self):
        g = rng(65)
        a, b, c = g.standard_normal((3, 30))
        with pytest.raises(RankDeficient) as exc:
            least_squares(np.column_stack([a, b, a + b, c]), g.standard_normal(30))
        assert exc.value.col_index == 2

    def test_fitted_solves_equal_least_squares(self):
        g = rng(66)
        a = g.standard_normal((128, 2))
        a[:, 0] = 1.0
        fit = build_projector(a)
        for b in (g.standard_normal(128), g.standard_normal((128, 16)),
                  g.standard_normal((128, 1))):
            got = fit.solve(b)
            want = least_squares(a, b)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_fitted_object_validates_its_inputs(self):
        with pytest.raises(RankDeficient) as exc:
            build_projector(np.ones((6, 2)))
        assert exc.value.col_index == 1
        with pytest.raises(DimensionMismatch) as exc:
            build_projector(np.ones((1, 2)))
        assert type(exc.value) is DimensionMismatch
        assert str(exc.value) == "need n >= p, got n=1 < p=2"
        fit = build_projector(rng(67).standard_normal((6, 2)))
        with pytest.raises(DimensionMismatch):
            fit.solve(np.ones(5))
        with pytest.raises(DomainError, match="right-hand side"):
            fit.solve(np.array([1.0, 2.0, np.nan, 0.0, 0.0, 0.0]))

    def test_matrix_rhs(self):
        g = rng(64)
        a = g.standard_normal((12, 3))
        b = g.standard_normal((12, 2))
        out = least_squares(a, b)
        assert out.shape == (3, 2)
        np.testing.assert_allclose(a.T @ (b - a @ out), 0.0, atol=1e-9)


class TestInputValidation:
    """The converters every entry point runs its arrays through."""

    def test_matrix_of_three_axes_rejected(self):
        with pytest.raises(DimensionMismatch, match="design must be 2-D, got ndim=3"):
            as_matrix(np.zeros((2, 3, 4)), "design")

    @pytest.mark.parametrize("convert", [as_vector, as_tensor])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_rejected(self, convert, bad):
        a = np.ones((3, 2))
        a[1, 0] = bad
        with pytest.raises(DomainError, match="response contains NaN or Inf"):
            convert(a, "response")

    def test_tensor_without_axes_rejected(self):
        with pytest.raises(DimensionMismatch, match="tensor must have at least one axis"):
            as_tensor(np.float64(1.0))
