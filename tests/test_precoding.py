import math

import numpy as np
import pytest

import oracles
from precode import recursion_precode
from thpalloc.channel import _VALID_QAM
from thpalloc.loading import (INFEASIBLE_COST, _null_spaces, loading_cost,
                              projected_costs)
from thpalloc.precoding import fold, thp_recursion
from thpalloc.sim import _fix_column_phases, qam_symbols


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def basis(stacked):
    """The null-space basis of one stack of rows as `build_plans` takes
    it: the shared batched null-space step, then the column phases."""
    (_, v0), = _null_spaces(np.asarray(stacked, dtype=complex)[None])
    return _fix_column_phases(v0[0])


def fold_copy(x, constellation_size):
    """`fold` on a C-ordered complex copy of x: (folded, shift), with
    0-d inputs giving numpy scalars as `oracles.modulo` does."""
    y = np.array(x, dtype=complex, order="C")
    shift = fold(y.reshape(-1), constellation_size).reshape(y.shape)
    return y[()], shift[()]


def price(stacked, h, streams=None):
    """`projected_costs` of one channel h in the null space of one stack,
    with unit budget, quota and noise."""
    streams = h.shape[0] if streams is None else streams
    return projected_costs(np.asarray(stacked, dtype=complex)[None],
                           np.asarray(h, dtype=complex)[None, None],
                           oracles.weight(1.0, 1, 1.0), streams)[0, 0]


class TestNullSpaceBasis:
    def test_axis_aligned(self):
        v0 = basis(np.array([[1.0, 0.0]]))
        assert v0.shape == (2, 1)  # full rank: N_T - 1 columns
        assert abs(v0[0, 0]) < 1e-12
        assert v0[1, 0] == pytest.approx(1.0)  # phase fixed positive

    def test_empty_stack_identity(self):
        np.testing.assert_array_equal(basis(np.empty((0, 4))), np.eye(4))

    def test_random_stack_residual(self):
        rng = np.random.default_rng(0)
        stacked = random_complex(rng, (4, 8))
        v0 = basis(stacked)
        assert v0.shape == (8, 4)
        assert np.linalg.norm(stacked @ v0) < 1e-10
        np.testing.assert_allclose(v0.conj().T @ v0, np.eye(4), atol=1e-10)

    def test_rank_deficient_widens(self):
        row = np.array([[1.0, 2.0, 0.0, 1.0]])
        stacked = np.vstack([row, 2 * row])
        v0 = basis(stacked)
        assert v0.shape == (4, 3)  # rank 1 of 2 rows
        assert np.linalg.norm(stacked @ v0) < 1e-10

    def test_no_null_space_left(self):
        assert basis(np.eye(3)).shape == (3, 0)
        assert price(np.eye(3), np.ones((1, 3))) == INFEASIBLE_COST

    def test_deterministic_phase(self):
        rng = np.random.default_rng(1)
        stacked = random_complex(rng, (2, 4))
        a = basis(stacked)
        np.testing.assert_array_equal(a, basis(stacked.copy()))
        for j in range(a.shape[1]):
            pivot = a[np.argmax(np.abs(a[:, j])), j]
            assert pivot.imag == pytest.approx(0.0, abs=1e-12)
            assert pivot.real > 0


class TestEffectiveChannel:
    """The projected channel H' = H V0 behind `projected_costs`."""

    def test_identity_projection(self):
        rng = np.random.default_rng(2)
        h = random_complex(rng, (2, 4))
        s = np.linalg.svd(h, compute_uv=False)
        assert price(np.empty((0, 4)), h) == loading_cost(
            (s ** 2) ** -0.5, oracles.weight(1.0, 1, 1.0))

    def test_scalar_product(self):
        # H' = [1, 1] V0 with V0 = e_2: one stream of unit gain
        assert price(np.array([[1.0, 0.0]]), np.array([[1.0, 1.0]])) == \
            pytest.approx(1.0)

    def test_svd_reconstruction(self):
        # H V0 V0^H is H with the stack's row space removed
        rng = np.random.default_rng(3)
        stacked = random_complex(rng, (2, 4))
        h = random_complex(rng, (2, 4))
        v0 = basis(stacked)
        off_rows = h - h @ np.linalg.pinv(stacked) @ stacked
        assert np.linalg.norm(h @ v0 @ v0.conj().T - off_rows) < \
            1e-9 * np.linalg.norm(h)

    def test_rank_detection(self):
        rng = np.random.default_rng(4)
        h = random_complex(rng, (2, 4))
        assert price(np.empty((0, 4)), np.zeros((2, 4))) == INFEASIBLE_COST
        assert np.isfinite(price(np.empty((0, 4)), h))
        # a channel inside the stack's row space projects to rounding
        # noise, judged against its own norm
        assert price(h, 3 * h) == INFEASIBLE_COST


class TestModulo:
    def test_mod16_positive(self):
        y, shift = fold_copy(5 + 0j, 16)
        assert y == pytest.approx(-3 + 0j)
        assert shift == pytest.approx(-8 + 0j)

    def test_mod16_open_left_boundary(self):
        y, shift = fold_copy(-4 + 0j, 16)
        assert y == pytest.approx(4 + 0j)
        assert shift == pytest.approx(8 + 0j)

    def test_mod4_both_axes(self):
        y, shift = fold_copy(-2 - 2j, 4)
        assert y == pytest.approx(2 + 2j)
        assert shift == pytest.approx(4 + 4j)

    def test_region_and_integer_shift(self):
        rng = np.random.default_rng(8)
        x = 20 * (rng.standard_normal(1000) + 1j * rng.standard_normal(1000))
        for m in (4, 16, 64):
            y, shift = fold_copy(x, m)
            root = np.sqrt(m)
            assert np.all(y.real > -root) and np.all(y.real <= root)
            assert np.all(y.imag > -root) and np.all(y.imag <= root)
            xi = shift / (2 * root)
            np.testing.assert_allclose(xi.real, np.round(xi.real), atol=1e-9)
            np.testing.assert_allclose(xi.imag, np.round(xi.imag), atol=1e-9)
            np.testing.assert_allclose(x + shift, y, atol=1e-9)

    @pytest.mark.parametrize("m", [4, 16, 64, 256])
    def test_qam_points_fold_to_themselves(self, m):
        # why `thp_recursion` copies the first block: every point that
        # `qam_symbols` draws folds onto itself with a +0.0 shift
        points = np.unique(qam_symbols(np.random.default_rng(m), m, 64 * m))
        assert points.size == m
        x = points.copy()
        shift = fold(x, m)
        assert same_bits(x, points)
        assert same_bits(shift, np.zeros_like(points))  # +0.0, no -0.0


def same_bits(a, b):
    """Equal type, shape and bytes (so equal signs of zero too)."""
    return (type(a) is type(b) and np.shape(a) == np.shape(b)
            and np.asarray(a).tobytes() == np.asarray(b).tobytes())


class TestFoldMatchesComplexFormula:
    """fold works in place on the float view; the complex-arithmetic
    formula in tests/oracles.py must give the same bits."""

    @staticmethod
    def check(x, m):
        before = np.array(x, copy=True)
        y, shift = fold_copy(x, m)
        y_ref, shift_ref = oracles.modulo(x, m)
        assert same_bits(y, y_ref) and same_bits(shift, shift_ref)
        np.testing.assert_array_equal(x, before)  # input left untouched

    @pytest.mark.parametrize("x", [5 + 0j, np.complex128(-4 - 3.5j),
                                   np.array(7.25 - 9j), 3.0, -2])
    def test_zero_dimensional(self, x):
        for m in (4, 16, 64, 256):
            self.check(x, m)

    def test_non_contiguous(self):
        rng = np.random.default_rng(11)
        x = 12 * random_complex(rng, (6, 9))
        for view in (x[::2, 1::3], x.T, x[:, 4], x.T[::-1]):
            assert not view.flags.c_contiguous
            for m in (4, 16, 64, 256):
                self.check(view, m)

    @pytest.mark.parametrize("m", [4, 16, 64, 256])
    def test_region_boundaries(self, m):
        r = np.sqrt(m)
        axis = [-r, r, -r - 2 * r, r + 2 * r, 0.0, -0.0]
        x = np.array([a + 1j * b for a in axis for b in axis])
        self.check(x, m)
        y, _ = fold_copy(x, m)
        assert np.all(y.real > -r) and np.all(y.real <= r)
        assert np.all(y.imag > -r) and np.all(y.imag <= r)
        assert y[0] == r + 1j * r  # -r - rj folds onto the closed corner

    @pytest.mark.parametrize("m", [4, 16, 64, 256])
    def test_random(self, m):
        rng = np.random.default_rng(m)
        x = 30 * random_complex(rng, (4, 500))
        self.check(x, m)
        self.check(x.real, m)

    def test_reciprocal_scale_is_exact_for_every_qam_size(self):
        # fold multiplies by 0.5/sqrt(M) for / (2 sqrt(M)); the two give
        # the same bits only while 2 sqrt(M) is a power of two
        for m in _VALID_QAM:
            assert math.frexp(2 * math.sqrt(m))[0] == 0.5
            assert (0.5 / math.sqrt(m)) * (2 * math.sqrt(m)) == 1.0

    def test_in_place_fold_returns_shift(self):
        rng = np.random.default_rng(12)
        x = 20 * random_complex(rng, (3, 4, 5))
        y_ref, shift_ref = oracles.modulo(x, 16)
        shift = fold(x, 16)
        assert same_bits(x, y_ref) and same_bits(shift, shift_ref)
        # any layout with a contiguous last axis folds in place
        x = 20 * random_complex(rng, (3, 4, 5))
        y_ref, shift_ref = oracles.modulo(x[::2].transpose(1, 0, 2), 16)
        shift = fold(x[::2].transpose(1, 0, 2), 16)
        assert same_bits(x[::2].transpose(1, 0, 2), y_ref)
        assert same_bits(shift, shift_ref)
        with pytest.raises(ValueError):  # a strided last axis cannot
            fold(x.T, 16)


class TestThpPrecode:
    def test_no_feedback(self):
        d = np.array([1 + 1j, -1 - 1j])
        b, v = recursion_precode(d, np.zeros((2, 2)), 1, 4)
        np.testing.assert_array_equal(b, d)
        np.testing.assert_array_equal(v, d)

    def test_hand_recursion_in_region(self):
        b_matrix = np.array([[0.0, 0.0], [0.5, 0.0]])
        d = np.array([1 + 1j, 1 + 1j])
        b, v = recursion_precode(d, b_matrix, 1, 4)
        np.testing.assert_allclose(b, [1 + 1j, 0.5 + 0.5j])
        np.testing.assert_allclose(v, d)  # no fold

    def test_hand_recursion_folded(self):
        b_matrix = np.array([[0.0, 0.0], [3.0, 0.0]])
        d = np.array([1 + 1j, 1 + 1j])
        b, v = recursion_precode(d, b_matrix, 1, 4)
        assert b[1] == pytest.approx(2 + 2j)
        assert v[1] == pytest.approx(d[1] + (4 + 4j))

    def test_triangular_identity_exact(self):
        rng = np.random.default_rng(9)
        q, ell = 3, 2
        b_matrix = np.zeros((q * ell, q * ell), dtype=complex)
        for k in range(1, q):
            for i in range(k):
                b_matrix[k * ell:(k + 1) * ell, i * ell:(i + 1) * ell] = \
                    random_complex(rng, (ell, ell))
        d = random_complex(rng, (q * ell, 50)) * 4
        b, v = recursion_precode(d, b_matrix, ell, 16)
        c = b_matrix + np.eye(q * ell)
        np.testing.assert_allclose(c @ b, v, atol=1e-12)
        root = 4.0
        assert np.all(b.real > -root) and np.all(b.real <= root)
        assert np.all(b.imag > -root) and np.all(b.imag <= root)

    def test_vector_and_matrix_paths_agree(self):
        rng = np.random.default_rng(10)
        b_matrix = np.zeros((2, 2), dtype=complex)
        b_matrix[1, 0] = 0.7 - 0.2j
        d = random_complex(rng, (2, 5))
        b_mat, v_mat = recursion_precode(d, b_matrix, 1, 16)
        for s in range(5):
            b_vec, v_vec = recursion_precode(d[:, s], b_matrix, 1, 16)
            np.testing.assert_allclose(b_vec, b_mat[:, s], atol=1e-14)
            np.testing.assert_allclose(v_vec, v_mat[:, s], atol=1e-14)

    @pytest.mark.parametrize("m", [4, 16, 64, 256])
    def test_matches_copied_block_recursion_bitwise(self, m):
        rng = np.random.default_rng(13 + m)
        q, ell = 3, 2
        b_matrix = np.tril(random_complex(rng, (q * ell, q * ell)), -ell)
        for d in (3 * random_complex(rng, (q * ell, 40)),
                  3 * random_complex(rng, q * ell),
                  np.asfortranarray(3 * random_complex(rng, (q * ell, 7)))):
            for got, want in zip(recursion_precode(d, b_matrix, ell, m),
                                 oracles.thp_precode(d, b_matrix, ell, m)):
                assert same_bits(got, want)

    @pytest.mark.parametrize("m", [4, 16, 64, 256])
    def test_recursion_in_caller_buffers_matches_thp_precode(self, m):
        # the recursion runs in the first rows of larger buffers that hold
        # stale values, and keeps its shift in the caller's float scratch
        rng = np.random.default_rng(17 + m)
        q, ell = 3, 2
        b_matrix = np.tril(random_complex(rng, (q * ell, q * ell)), -ell)
        d = 3 * random_complex(rng, (q * ell, 30))
        b_want, v_want = recursion_precode(d, b_matrix, ell, m)
        stale = 50 * random_complex(rng, (2, q * ell + 4, 30))
        b, scratch = stale[:, :q * ell]
        data = d.copy()  # folded first block, as recursion_precode does
        fold(data[:ell], m, out=scratch.view(float)[:ell])
        shift = thp_recursion(data, b_matrix, ell, m, b, scratch.view(float))
        assert np.shares_memory(shift, scratch)
        assert same_bits(b, b_want) and same_bits(d + shift, v_want)

    @pytest.mark.parametrize("m", [4, 16, 64, 256])
    def test_recursion_reads_d_and_writes_only_its_rows(self, m):
        # d is left as it is; of larger stale b and shift buffers only the
        # first c L rows are written, and of shift not the first block's
        rng = np.random.default_rng(19 + m)
        q, ell, extra = 3, 2, 4
        b_matrix = np.tril(random_complex(rng, (q * ell, q * ell)), -ell)
        d = qam_symbols(rng, m, (q * ell, 30))
        d_before = d.copy()
        b_buf = 50 * random_complex(rng, (q * ell + extra, 30))
        shift_buf = 50 * random_complex(rng, (q * ell + extra, 30))
        stale_b, stale_shift = b_buf.copy(), shift_buf.copy()
        b_want, v_want = recursion_precode(d, b_matrix, ell, m)
        shift = thp_recursion(d, b_matrix, ell, m, b_buf[:q * ell],
                              shift_buf[:q * ell].view(float))
        assert same_bits(d, d_before)
        assert same_bits(b_buf[:q * ell], b_want)
        assert same_bits(b_buf[q * ell:], stale_b[q * ell:])
        assert same_bits(shift_buf[q * ell:], stale_shift[q * ell:])
        assert same_bits(shift_buf[:ell], stale_shift[:ell])
        shift[:ell] = 0  # the first block's shift on QAM points
        assert same_bits(d + shift, v_want)
