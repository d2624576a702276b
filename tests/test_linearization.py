import itertools
import warnings
from unittest import mock

import numpy as np
import pytest

from versal import (DimensionMismatch, MaxIterationsExceeded, MonicPolynomial,
                    SingularTransform, StagnationDetected, companion,
                    eigenvalues, frobenius_norm, linalg, linearization, recover,
                    solve_linear, split)

from conftest import conditioned_matrix, eigen_match_distance, random_complex

# every (d, n) up to the linearization order cap
SHAPES = [(d, n) for d in range(1, linalg.MAX_ORDER + 1)
          for n in range(1, linalg.MAX_ORDER // d + 1)]


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


def per_block_companion(coefficients):
    """Reference companion matrix written one block at a time."""
    d, n = len(coefficients), coefficients[0].shape[0]
    out = np.zeros((d * n, d * n), dtype=complex)
    for j, coeff in enumerate(reversed(coefficients)):
        out[:n, j * n:(j + 1) * n] = -coeff
    for i in range(1, d):
        out[i * n:(i + 1) * n, (i - 1) * n:i * n] = np.eye(n)
    return out


@pytest.mark.parametrize("d, n", SHAPES)
def test_companion_matches_per_block_reference(d, n):
    rng = np.random.default_rng(100 * d + n)
    coefficients = [random_complex(rng, n, n) for _ in range(d)]
    coefficients[0][0, 0] = 0.0  # negated to -0.0 in the first block row
    p = MonicPolynomial(coefficients)
    assert companion(p).tobytes() == per_block_companion(p.coefficients).tobytes()
    top = -companion(p)[:n]
    read = [top[:, k * n:(k + 1) * n] for k in range(d - 1, -1, -1)]
    assert all(got.tobytes() == want.tobytes()
               for got, want in zip(read, p.coefficients, strict=True))
    # recover reads its coefficients the same way; the zero perturbation
    # turns -0.0 into 0.0, so compare values here
    result = recover(p, np.zeros((d * n, d * n)))
    assert all(np.array_equal(got, want)
               for got, want in zip(result.recovered.coefficients,
                                    p.coefficients, strict=True))


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
        # from about 1e60 on the iteration overflows: it must still leave
        # through a documented exception that carries its residual trace
        for norm in (50.0, 1e60, 1e150):
            rng = np.random.default_rng(12)
            p = random_polynomial(rng, 2, 2)
            e1 = random_perturbation(rng, 4, norm)
            with pytest.raises((MaxIterationsExceeded, StagnationDetected,
                                SingularTransform)) as info:
                recover(p, e1)
            assert info.value.residual_trace

    def test_overflowing_input_raises_stagnation(self):
        # C + E itself overflows, before the first sweep: the documented
        # exception, not a raw FloatingPointError
        with pytest.raises(StagnationDetected,
                           match="overflowed after 0 sweeps") as info:
            recover(MonicPolynomial([[[1e308]]]), [[-1e308]])
        assert info.value.residual_trace == ()

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

    @pytest.mark.parametrize("d, n", [(2, 2), (16, 1)])
    def test_below_roundoff_stagnates_early(self, d, n):
        # at the roundoff floor the norm fluctuates; counting from its
        # smallest value ends each call long before max_iter = 50 sweeps
        rng = np.random.default_rng(16)
        for _ in range(8):
            p = MonicPolynomial([random_complex(rng, n, n) for _ in range(d)])
            e1 = random_perturbation(rng, d * n, 1e-4 * frobenius_norm(companion(p)))
            with pytest.raises(StagnationDetected) as info:
                recover(p, e1, tol=1e-18)
            assert len(info.value.residual_trace) <= 25

    def test_stagnation_counts_from_the_smallest_norm(self):
        # a norm that dips below the previous sweep's but never below its
        # minimum is stagnating
        rng = np.random.default_rng(17)
        p = random_polynomial(rng, 2, 2)
        e1 = random_perturbation(rng, 4, 1e-4)
        lower = np.zeros((4, 4), dtype=complex)
        lower[2:] = random_complex(rng, 2, 4)
        norms = itertools.cycle([1e-6, 2e-6, 1.5e-6])

        def measured(s, b):
            return lower * (next(norms) / np.linalg.norm(lower))

        with mock.patch.object(linearization, "_gated_solve", measured):
            with pytest.raises(StagnationDetected) as info:
                recover(p, e1, tol=1e-18)
        assert len(info.value.residual_trace) == 4

    @pytest.mark.parametrize("kwargs, message", [
        ({"max_iter": -3}, "max_iter must be non-negative, got -3"),
        ({"tol": float("nan")}, "tol must be non-negative, got nan"),
        ({"tol": -1e-12}, "tol must be non-negative, got -1e-12"),
    ], ids=["max_iter=-3", "tol=nan", "tol=-1e-12"])
    def test_invalid_stopping_rule_rejected(self, kwargs, message):
        # no residual meets a NaN or negative tol, and no sweep count a
        # negative budget
        rng = np.random.default_rng(11)
        p = random_polynomial(rng, 2, 2)
        e1 = random_perturbation(rng, 4, 1e-4)
        with pytest.raises(ValueError, match=f"^{message}$"):
            recover(p, e1, **kwargs)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            recover(MonicPolynomial([np.eye(2)]), np.zeros((4, 4)))

    def test_order_cap(self):
        with pytest.raises(ValueError, match="^matrix order 20 exceeds cap 16$"):
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


def mp_commutator_step(m, unstructured, d, n, mpmath):
    """60-digit oracle for the commutator step.

    The same minimum-norm ``X`` as the structured step, with ``m`` a block
    shift below its first block row: the free last block row ``Y`` solves
    the normal equations ``Y @ G = -B`` of the fit, where
    ``G = sum_j m^j (m^j)^H`` and ``B = sum_k R_k (m^(d-1-k))^H``, and the
    other rows follow by the recursion.  Squaring the condition of the
    powers (~1e7 at (16, 1)) still leaves about 45 correct digits; at
    (8, 2) with coefficients of condition 1e8 the powers reach ~1e28, and
    there 60 and 150 digits still agree to 4e-14 relative.
    """
    big = d * n
    with mpmath.workdps(60):
        to_mp = np.vectorize(mpmath.mpc, otypes=[object])
        top, u = to_mp(m[:n]), to_mp(unstructured)

        def times_m(w):
            out = w[:, :n] @ top
            out[:, :big - n] += w[:, n:]
            return out

        def m_times(w):
            return np.vstack([top @ w, w[:big - n]])

        eye = to_mp(np.eye(big))
        powers, offsets = [eye], [to_mp(np.zeros((n, big)))]
        gram = eye
        for k in range(d - 1, 0, -1):
            powers.append(times_m(powers[-1]))
            offsets.append(times_m(offsets[-1]) + u[k * n:(k + 1) * n])
            gram = eye + m_times(m_times(gram).conj().T)
        rhs = sum(r @ p.conj().T for r, p in zip(offsets, powers))
        lu = mpmath.matrix(gram.tolist())
        y = np.array([[-v for v in mpmath.lu_solve(lu, mpmath.matrix(
            rhs[i].conj().tolist()))] for i in range(n)]).conj()
        rows = [y]
        for k in range(d - 1, 0, -1):
            rows.append(times_m(rows[-1]) + u[k * n:(k + 1) * n])
        return np.vstack(rows[::-1]).astype(complex)


def step_case(seed, d, n, cond=None):
    """A commutator step at a random companion matrix, as recover meets it.

    With ``cond``, each coefficient's singular values span that ratio.
    """
    rng = np.random.default_rng(seed)
    p = MonicPolynomial([random_complex(rng, n, n) if cond is None
                         else conditioned_matrix(rng, n, cond) for _ in range(d)])
    c = companion(p)
    structured, unstructured = split(
        random_perturbation(rng, d * n, 1e-4 * frobenius_norm(c)), d, n)
    return c + structured, unstructured


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


# each bound is 8-10x the worst forward error measured over seeds 0-23
# (3.3e-11 at (16, 1), 1.3e-13 at (8, 2); with conditioned coefficients
# 1.2e-4 and 9.4e7 at (8, 2), 2.5e-12 and 3.1e-8 at (4, 4), for cond 1e4
# and 1e8).  The error grows with the condition of the stacked powers, so a
# fit that loses digits shows here; at (8, 2) with cond 1e8 the step has no
# correct digit, and that bound only pins it until the fit is replaced
@pytest.mark.parametrize("d, n, cond, bound", [
    pytest.param(16, 1, None, 3e-10, id="16-1-3e-10"),
    pytest.param(8, 2, None, 1e-12, id="8-2-1e-12"),
    pytest.param(8, 2, 1e4, 1e-3, id="8-2-cond1e4-1e-3"),
    pytest.param(8, 2, 1e8, 8e8, id="8-2-cond1e8-8e8"),
    pytest.param(4, 4, 1e4, 2.5e-11, id="4-4-cond1e4-2.5e-11"),
    pytest.param(4, 4, 1e8, 3e-7, id="4-4-cond1e8-3e-7"),
])
@pytest.mark.parametrize("seed", range(4))
def test_structured_step_matches_60_digit_solution(seed, d, n, cond, bound):
    mpmath = pytest.importorskip("mpmath")
    m, unstructured = step_case(seed, d, n, cond)
    oracle = mp_commutator_step(m, unstructured, d, n, mpmath)
    x = linearization._solve_commutator_step(m, unstructured, d, n)
    assert np.linalg.norm(x - oracle) <= bound * np.linalg.norm(oracle)
