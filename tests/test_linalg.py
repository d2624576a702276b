import numpy as np
import pytest

from versal import (SingularMatrix, as_matrix, eigenvalues, frobenius_norm,
                    min_norm_least_squares, numerical_rank, solve_linear)
from versal.linalg import SINGULAR_TOL
from versal.jordan import jordan_block

from conftest import eigen_match_distance, random_complex


class TestAsMatrix:
    def test_row_promotion(self):
        m = as_matrix([1, 2, 3])
        assert m.shape == (1, 3)
        assert m.dtype == complex

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            as_matrix([[np.nan, 0.0]])

    def test_rejects_inf_imag(self):
        with pytest.raises(ValueError, match="finite"):
            as_matrix([[1.0 + 1j * np.inf]])

    @pytest.mark.parametrize("entry", [complex(1.0, np.nan), complex(np.inf, 0.0),
                                       complex(-np.inf, 2.0)],
                             ids=["nan-imag", "inf-real", "minus-inf-real"])
    def test_rejects_non_finite_part(self, entry):
        with pytest.raises(ValueError, match="finite"):
            as_matrix([[0.0, entry], [1.0, 1.0]])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            as_matrix(np.zeros((0, 3)))


class TestFrobeniusNorm:
    def test_zero(self):
        assert frobenius_norm(np.zeros((3, 3))) == 0.0

    def test_identity(self):
        assert frobenius_norm(np.eye(4)) == pytest.approx(2.0)

    def test_three_four_five(self):
        assert frobenius_norm([[3.0, 4.0]]) == pytest.approx(5.0)

    @pytest.mark.parametrize("scale", [1e300, 1e-200])
    def test_no_overflow_or_underflow(self, scale):
        # the squares of these entries leave the float range
        m = scale * np.array([[3.0, 4.0j], [0.0, -12.0]])
        assert frobenius_norm(m) == pytest.approx(13.0 * scale, rel=1e-15, abs=0)

    def test_submultiplicative(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            a = random_complex(rng, 4, 4)
            b = random_complex(rng, 4, 4)
            assert frobenius_norm(a @ b) <= frobenius_norm(a) * frobenius_norm(b) + 1e-12


class TestSolveLinear:
    def test_identity_system(self):
        b = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.allclose(solve_linear(np.eye(2), b), b)

    def test_scaling(self):
        x = solve_linear(2.0 * np.eye(3), np.eye(3))
        assert np.allclose(x, 0.5 * np.eye(3))

    def test_permutation(self):
        x = solve_linear([[0.0, 1.0], [1.0, 0.0]], [[1.0], [2.0]])
        assert np.allclose(x, [[2.0], [1.0]])

    def test_residual_bound_random(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            # diagonally dominated shift keeps the systems well conditioned
            a = random_complex(rng, 8, 8) + 8.0 * np.eye(8)
            b = random_complex(rng, 8, 3)
            x = solve_linear(a, b)
            assert frobenius_norm(a @ x - b) <= 1e-10 * frobenius_norm(b)

    def test_singular_raises(self):
        with pytest.raises(SingularMatrix):
            solve_linear([[1.0, 1.0], [1.0, 1.0]], [[1.0], [1.0]])

    def test_zero_matrix_raises(self):
        with pytest.raises(SingularMatrix):
            solve_linear(np.zeros((2, 2)), [[1.0], [1.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            solve_linear(np.eye(2), np.eye(3))

    def test_unit_pivots_singular_values_decide(self):
        # I - triu(ones, 1) has every LU pivot equal to 1, but its smallest
        # singular value decays like 2^-n: 2.7e-12 at n = 40, above the
        # threshold 2.9e-13, and 2.7e-15 at n = 50, below 3.6e-13
        def unit_upper(n):
            return np.eye(n) - np.triu(np.ones((n, n)), 1)

        rng = np.random.default_rng(13)
        a = unit_upper(40)
        b = random_complex(rng, 40, 2)
        x = solve_linear(a, b)
        assert frobenius_norm(a @ x - b) <= 1e-14 * frobenius_norm(a) * frobenius_norm(x)
        with pytest.raises(SingularMatrix, match="singular value"):
            solve_linear(unit_upper(50), random_complex(rng, 50, 2))

    def test_near_identity_skips_only_a_passing_gate(self):
        # within 1/2 of I (Frobenius) sigma_min >= 1/2 by Weyl's inequality,
        # so the singular-value gate would pass and the solve is numpy's own
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=60, deadline=None, derandomize=True,
                             database=None)
        @hypothesis.given(n=st.integers(1, 12), seed=st.integers(0, 2 ** 32 - 1),
                          radius=st.floats(0.0, 0.5))
        def check(n, seed, radius):
            rng = np.random.default_rng(seed)
            f = random_complex(rng, n, n)
            a = np.eye(n) + f * (radius / np.linalg.norm(f))
            b = random_complex(rng, n, 2)
            assert np.array_equal(solve_linear(a, b), np.linalg.solve(a, b))
            smallest = np.linalg.svd(a, compute_uv=False)[-1]
            assert smallest >= SINGULAR_TOL * np.linalg.norm(a)

        check()

    def test_singular_at_distance_one_from_identity(self):
        # I - e1 e1^T is exactly singular, just outside the certified ball
        a = np.eye(3)
        a[0, 0] = 0.0
        assert np.linalg.norm(a - np.eye(3)) == 1.0
        with pytest.raises(SingularMatrix, match="singular value"):
            solve_linear(a, np.ones((3, 1)))


class TestMinNormLeastSquares:
    def test_identity(self):
        v = np.array([[1.0], [2.0], [3.0]])
        assert np.allclose(min_norm_least_squares(np.eye(3), v), v)

    def test_rank_deficient(self):
        x = min_norm_least_squares([[1.0, 0.0], [0.0, 0.0]], [[1.0], [1.0]])
        assert np.allclose(x, [[1.0], [0.0]])

    def test_underdetermined_min_norm(self):
        x = min_norm_least_squares([[1.0, 1.0]], [[2.0]])
        assert np.allclose(x, [[1.0], [1.0]])

    def test_agrees_with_solve_on_full_rank(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = random_complex(rng, 5, 5) + 5.0 * np.eye(5)
            b = random_complex(rng, 5, 2)
            gap = frobenius_norm(min_norm_least_squares(a, b) - solve_linear(a, b))
            assert gap <= 1e-10


class TestNumericalRank:
    def test_zero(self):
        assert numerical_rank(np.zeros((3, 4))) == 0

    def test_identity(self):
        assert numerical_rank(np.eye(5)) == 5

    def test_tiny_singular_value_dropped(self):
        assert numerical_rank([[1.0, 0.0], [0.0, 1e-14]]) == 1


class TestEigenvalues:
    def test_diagonal(self):
        w = sorted(eigenvalues(np.diag([1.0, 2.0, 3.0])).real)
        assert np.allclose(w, [1.0, 2.0, 3.0])

    def test_nilpotent_block(self):
        w = eigenvalues(jordan_block(3, 0.0))
        assert np.allclose(w, 0.0)

    def test_corner_perturbed_block_cube_roots(self):
        lam = 0.7 + 0.2j
        delta = 1e-3
        m = jordan_block(3, lam)
        m[2, 0] += delta
        # characteristic polynomial is (x - lam)^3 - delta
        radius = delta ** (1.0 / 3.0)
        expected = [lam + radius * np.exp(2j * np.pi * k / 3) for k in range(3)]
        assert eigen_match_distance(eigenvalues(m), expected) <= 1e-8

    def test_trace_and_determinant_consistency(self):
        rng = np.random.default_rng(5)
        for n in range(2, 9):
            m = random_complex(rng, n, n)
            w = eigenvalues(m)
            scale = 1e-8 * frobenius_norm(m)
            assert abs(w.sum() - np.trace(m)) <= scale
            assert abs(w.prod() - np.linalg.det(m)) <= max(scale, 1e-8)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            eigenvalues(np.zeros((2, 3)))

    def test_order_cap(self):
        for order in (17, 33):
            with pytest.raises(ValueError):
                eigenvalues(np.eye(order))
