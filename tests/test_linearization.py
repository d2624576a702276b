import warnings
from unittest import mock

import numpy as np
import pytest

from versal import (DimensionMismatch, MaxIterationsExceeded, MonicPolynomial,
                    SingularTransform, StagnationDetected, companion,
                    eigenvalues, frobenius_norm, linearization, recover,
                    solve_linear, split)

from conftest import eigen_match_distance, random_complex

# every (d, n) up to the linearization order cap
SHAPES = [(d, n) for d in range(1, linearization.MAX_ORDER + 1)
          for n in range(1, linearization.MAX_ORDER // d + 1)]


def random_polynomial(rng, d, n):
    return MonicPolynomial([rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
                            for _ in range(d)])


def random_perturbation(rng, big, norm):
    e = random_complex(rng, big, big)
    return e * (norm / np.linalg.norm(e))


class TestMonicPolynomial:
    def test_degree_and_size(self):
        p = MonicPolynomial([np.eye(2), np.zeros((2, 2))])
        assert p.degree == 2 and p.size == 2

    def test_rejects_mixed_sizes(self):
        with pytest.raises(ValueError):
            MonicPolynomial([np.eye(2), np.eye(3)])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            MonicPolynomial([])


class TestCompanion:
    def test_degree_one(self):
        a0 = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(companion(MonicPolynomial([a0])), -a0)

    def test_scalar_quadratic(self):
        a, b = 0.6, -0.3
        c = companion(MonicPolynomial([[[b]], [[a]]]))
        assert np.array_equal(c, np.array([[-a, -b], [1.0, 0.0]], dtype=complex))
        disc = np.sqrt(complex(a * a - 4 * b))
        roots = [(-a + disc) / 2, (-a - disc) / 2]
        assert eigen_match_distance(eigenvalues(c), roots) <= 1e-12

    def test_block_layout(self):
        rng = np.random.default_rng(2)
        coeffs = [random_complex(rng, 2, 2) for _ in range(3)]
        c = companion(MonicPolynomial(coeffs))
        assert c.shape == (6, 6)
        assert np.array_equal(c[0:2, 0:2], -coeffs[2])
        assert np.array_equal(c[0:2, 2:4], -coeffs[1])
        assert np.array_equal(c[0:2, 4:6], -coeffs[0])
        assert np.array_equal(c[2:4, 0:2], np.eye(2))
        assert np.array_equal(c[4:6, 2:4], np.eye(2))
        assert np.all(c[2:4, 2:6] == 0) and np.all(c[4:6, 0:2] == 0)
        assert np.all(c[4:6, 4:6] == 0)


class TestSplit:
    def test_first_block_row_only(self):
        rng = np.random.default_rng(4)
        m = np.zeros((4, 4), dtype=complex)
        m[:2] = random_complex(rng, 2, 4)
        s, u = split(m, 2, 2)
        assert np.array_equal(s, m) and np.all(u == 0)

    def test_partition_is_exact(self):
        rng = np.random.default_rng(5)
        m = random_complex(rng, 6, 6)
        s, u = split(m, 3, 2)
        assert np.array_equal(s + u, m)
        assert np.all(s[2:] == 0) and np.all(u[:2] == 0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            split(np.eye(5), 2, 2)


class TestRecover:
    def test_zero_perturbation(self):
        rng = np.random.default_rng(6)
        p = random_polynomial(rng, 2, 2)
        result = recover(p, np.zeros((4, 4)))
        assert result.iterations == 0
        assert result.residual_trace == (0.0,)
        assert np.array_equal(result.transform, np.eye(4))
        for got, want in zip(result.recovered.coefficients, p.coefficients):
            assert np.array_equal(got, want)

    def test_structured_perturbation_read_off(self):
        rng = np.random.default_rng(7)
        p = random_polynomial(rng, 3, 2)
        e1 = np.zeros((6, 6), dtype=complex)
        e1[:2] = 1e-3 * random_complex(rng, 2, 6)
        result = recover(p, e1)
        assert result.iterations == 0
        assert np.array_equal(result.transform, np.eye(6))
        # block (1, j) of the perturbation subtracts from A_{d-1-j}
        for j in range(3):
            want = p.coefficients[2 - j] - e1[:2, 2 * j:2 * j + 2]
            assert np.allclose(result.recovered.coefficients[2 - j], want)

    def test_random_small_perturbation_converges(self):
        rng = np.random.default_rng(8)
        p = random_polynomial(rng, 2, 2)
        c = companion(p)
        e1 = random_perturbation(rng, 4, 1e-4)
        result = recover(p, e1, tol=1e-12)
        assert result.residual_trace[-1] <= 1e-12
        assert result.similarity_residual == result.residual_trace[-1]
        assert result.similarity_residual <= 1e-10 * frobenius_norm(c + e1)
        match = eigen_match_distance(eigenvalues(companion(result.recovered)),
                                     eigenvalues(c + e1))
        assert match <= 1e-8

    def test_trace_decreases(self):
        rng = np.random.default_rng(9)
        p = random_polynomial(rng, 3, 2)
        e1 = random_perturbation(rng, 6, 1e-4)
        result = recover(p, e1)
        assert all(result.residual_trace[i] > result.residual_trace[i + 1]
                   for i in range(len(result.residual_trace) - 1))

    def test_degree_one_is_always_structured(self):
        rng = np.random.default_rng(10)
        p = random_polynomial(rng, 1, 3)
        e1 = random_perturbation(rng, 3, 1e-4)
        result = recover(p, e1)
        assert result.iterations == 0
        assert np.allclose(result.recovered.coefficients[0],
                           p.coefficients[0] - e1)

    def test_spectrum_preserved_across_shapes(self):
        violations = 0
        for d, n in [(2, 2), (3, 2), (2, 3), (4, 2), (3, 3), (4, 4)]:
            if d * n > 16:
                continue
            rng = np.random.default_rng(1000 + 10 * d + n)
            p = random_polynomial(rng, d, n)
            c = companion(p)
            e1 = random_perturbation(rng, d * n, 1e-4)
            result = recover(p, e1)
            assert result.similarity_residual <= 1e-10 * frobenius_norm(c + e1)
            match = eigen_match_distance(eigenvalues(companion(result.recovered)),
                                         eigenvalues(c + e1))
            assert match <= 1e-8
            drift = np.sqrt(sum(
                frobenius_norm(got - want) ** 2
                for got, want in zip(result.recovered.coefficients, p.coefficients)))
            if drift > 10 * frobenius_norm(e1):
                violations += 1
        if violations:
            warnings.warn(f"coefficient drift exceeded 10x the input norm in "
                          f"{violations} case(s)")

    def test_max_iterations_zero_budget(self):
        rng = np.random.default_rng(11)
        p = random_polynomial(rng, 2, 2)
        e1 = random_perturbation(rng, 4, 1e-4)
        with pytest.raises(MaxIterationsExceeded) as info:
            recover(p, e1, max_iter=0)
        assert len(info.value.residual_trace) == 1

    def test_oversized_perturbation_raises_not_returns(self):
        rng = np.random.default_rng(12)
        p = random_polynomial(rng, 2, 2)
        e1 = random_perturbation(rng, 4, 50.0)
        with pytest.raises((MaxIterationsExceeded, StagnationDetected,
                            SingularTransform)):
            recover(p, e1)

    @pytest.mark.parametrize("d, n", [(2, 8), (4, 4), (8, 2), (16, 1)])
    def test_returned_result_meets_a_tight_tolerance(self, d, n):
        # at dn = 16 the tolerance is below u * ||C + E||_F, near the
        # roundoff floor: whatever recover returns has met it
        rng = np.random.default_rng(14)
        for norm in (1e-6, 1e-4, 1e-2):
            p = MonicPolynomial([random_complex(rng, n, n) for _ in range(d)])
            e1 = random_perturbation(rng, d * n, norm * frobenius_norm(companion(p)))
            try:
                result = recover(p, e1, tol=1e-15)
            except (MaxIterationsExceeded, StagnationDetected):
                continue
            assert result.similarity_residual <= 1e-15

    @pytest.mark.parametrize("d, n", [(2, 2), (2, 8), (16, 1)])
    def test_tolerance_below_roundoff_raises(self, d, n):
        rng = np.random.default_rng(15)
        p = MonicPolynomial([random_complex(rng, n, n) for _ in range(d)])
        e1 = random_perturbation(rng, d * n, 1e-4 * frobenius_norm(companion(p)))
        with pytest.raises((MaxIterationsExceeded, StagnationDetected)):
            recover(p, e1, tol=1e-18)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            recover(MonicPolynomial([np.eye(2)]), np.zeros((4, 4)))

    def test_order_cap(self):
        with pytest.raises(ValueError):
            recover(MonicPolynomial([np.eye(5), np.eye(5), np.eye(5), np.eye(5)]),
                    np.zeros((20, 20)))

    def test_transform_maps_perturbed_to_recovered(self):
        rng = np.random.default_rng(13)
        p = random_polynomial(rng, 3, 2)
        c = companion(p)
        e1 = random_perturbation(rng, 6, 1e-4)
        result = recover(p, e1)
        carried = solve_linear(result.transform, (c + e1) @ result.transform)
        assert frobenius_norm(carried - companion(result.recovered)) <= \
            1e-10 * frobenius_norm(c + e1)


def kron_commutator_step(m, unstructured, d, n):
    """Dense oracle for the commutator step.

    Minimum-norm ``X`` with ``(X @ m - m @ X)^u = -unstructured``, solved on
    the column-major vectorization: the ``(dn)^2 x (dn)^2`` Kronecker matrix
    restricted to the rows of unstructured entries.
    """
    # rank cutoff of the dense fit, relative to its largest singular value
    rcond = 1e-12
    big = d * n
    eye = np.eye(big)
    full = np.kron(m.T, eye) - np.kron(eye, m)
    keep = (np.arange(big * big) % big) >= n
    rhs = -unstructured.flatten(order="F")
    x, *_ = np.linalg.lstsq(full[keep], rhs[keep], rcond=rcond)
    return x.reshape((big, big), order="F")


@pytest.mark.parametrize("d, n", SHAPES)
def test_structured_step_matches_kron_oracle(d, n):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=3, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(seed=st.integers(0, 2 ** 32 - 1),
                      log_norm=st.floats(-6.0, -2.0))
    def check(seed, log_norm):
        rng = np.random.default_rng(seed)
        p = MonicPolynomial([random_complex(rng, n, n) for _ in range(d)])
        c = companion(p)
        e1 = random_perturbation(rng, d * n, 10.0 ** log_norm * frobenius_norm(c))
        structured, unstructured = split(e1, d, n)
        m = c + structured

        x = linearization._solve_commutator_step(m, unstructured, d, n)
        oracle = kron_commutator_step(m, unstructured, d, n)
        assert np.linalg.norm(x - oracle) <= 1e-9 * np.linalg.norm(oracle)
        assert np.linalg.norm(x) <= (1 + 1e-12) * np.linalg.norm(oracle)
        residual = split(x @ m - m @ x, d, n)[1] + unstructured
        assert np.linalg.norm(residual) <= 1e-13 * np.linalg.norm(unstructured)

        iterations = recover(p, e1).iterations
        with mock.patch.object(linearization, "_solve_commutator_step",
                               kron_commutator_step):
            assert recover(p, e1).iterations == iterations

    check()
