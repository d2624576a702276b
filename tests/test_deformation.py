import numpy as np
import pytest

from versal import (MissingParameter, PivotBreakdown, SegreStructure, Shape,
                    alternate_pattern, arnold_pattern, build_jcf, eigenvalues,
                    frobenius_norm, instantiate, orbit_codim,
                    reduce_single_block, solve_linear)
from versal.deformation import _layout
from versal.jordan import jordan_block

from conftest import (eigen_match_distance, leverrier_charpoly, random_complex,
                      structures_of_size)


class TestArnoldPattern:
    def test_single_two_block(self):
        p = arnold_pattern(SegreStructure([(0.0, [2])]))
        assert p.shape is Shape.ARNOLD
        assert p.stars == ((2, 1, 1), (2, 2, 2))
        assert p.parameter_count == 2

    def test_three_two(self):
        p = arnold_pattern(SegreStructure([(0.0, [3, 2])]))
        assert p.stars == (
            (3, 1, 1), (3, 2, 2), (3, 3, 3), (3, 4, 4), (3, 5, 5),
            (4, 1, 6), (5, 1, 7), (5, 4, 8), (5, 5, 9),
        )

    def test_two_group_sixteen_parameters(self):
        p = arnold_pattern(SegreStructure([(0.0, [3, 2, 1]), (1.0, [2])]))
        assert p.parameter_count == 16
        assert p.stars == (
            (3, 1, 1), (3, 2, 2), (3, 3, 3), (3, 4, 4), (3, 5, 5), (3, 6, 6),
            (4, 1, 7), (5, 1, 8), (6, 1, 9),
            (5, 4, 10), (5, 5, 11), (5, 6, 12),
            (6, 4, 13),
            (6, 6, 14),
            (8, 7, 15), (8, 8, 16),
        )


class TestAlternatePattern:
    def test_single_three_block_toeplitz(self):
        p = alternate_pattern(SegreStructure([(0.0, [3])]))
        assert p.shape is Shape.ALTERNATE
        by_param = {}
        for row, col, param in p.stars:
            by_param.setdefault(param, set()).add((row, col))
        assert by_param == {
            1: {(3, 1)},
            2: {(2, 1), (3, 2)},
            3: {(1, 1), (2, 2), (3, 3)},
        }

    def test_scalar(self):
        p = alternate_pattern(SegreStructure([(0.0, [1])]))
        assert p.stars == ((1, 1, 1),)

    def test_two_group_positions(self):
        p = alternate_pattern(SegreStructure([(0.0, [3, 2, 1]), (1.0, [2])]))
        assert p.parameter_count == 16
        assert {(row, col) for row, col, _ in p.stars} == {
            (1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3),
            (2, 4), (3, 4), (3, 5),
            (3, 6),
            (4, 1), (5, 1), (5, 2),
            (4, 4), (5, 4), (5, 5),
            (5, 6),
            (6, 1),
            (6, 4),
            (6, 6),
            (7, 7), (8, 7), (8, 8),
        }


class TestPatternCounts:
    def test_star_count_identity(self):
        for n in range(1, 9):
            for s in structures_of_size(n):
                arnold = arnold_pattern(s)
                pairwise = sum(min(sizes[p], sizes[q])
                               for _, sizes in s.blocks
                               for p in range(len(sizes))
                               for q in range(len(sizes)))
                weighted = sum((2 * j - 1) * k
                               for _, sizes in s.blocks
                               for j, k in enumerate(sizes, start=1))
                assert len(arnold.stars) == pairwise == weighted
                assert arnold.parameter_count == len(arnold.stars)
                assert arnold.parameter_count == orbit_codim(s)
                assert alternate_pattern(s).parameter_count == arnold.parameter_count

    def test_no_cross_eigenvalue_stars(self):
        s = SegreStructure([(0.0, [2, 1]), (1.0, [2]), (3.0, [1])])
        spans = [(0, 3), (3, 5), (5, 6)]
        for pattern in (arnold_pattern(s), alternate_pattern(s)):
            for row, col, _ in pattern.stars:
                owner_row = next(i for i, (lo, hi) in enumerate(spans)
                                 if lo < row <= hi)
                owner_col = next(i for i, (lo, hi) in enumerate(spans)
                                 if lo < col <= hi)
                assert owner_row == owner_col


# a Mersenne prime: a rank modulo it is at most the rational rank
VERSALITY_PRIME = 2 ** 61 - 1


def _add_row(basis, row):
    # reduce a sparse row {column: value} modulo VERSALITY_PRIME against an
    # echelon basis {leading column: row with a 1 there}; keep it and return
    # True if it is independent of the basis
    row = {col: value % VERSALITY_PRIME for col, value in row.items()}
    row = {col: value for col, value in row.items() if value}
    while row:
        lead = min(row)
        if lead not in basis:
            inverse = pow(row[lead], -1, VERSALITY_PRIME)
            basis[lead] = {col: value * inverse % VERSALITY_PRIME
                           for col, value in row.items()}
            return True
        factor = row[lead]
        for col, value in basis[lead].items():
            row[col] = (row.get(col, 0) - factor * value) % VERSALITY_PRIME
            if not row[col]:
                del row[col]
    return False


def _tangent_basis(structure):
    # echelon basis of the rows vec(E_ab@J - J@E_ab), J = build_jcf: E_ab@J
    # has row b of J in row a, J@E_ab has column a of J in column b
    n = structure.total_size
    j = build_jcf(structure).real.astype(int).tolist()
    basis = {}
    for a in range(n):
        for b in range(n):
            image = {}
            for c in range(n):
                image[a * n + c] = image.get(a * n + c, 0) + j[b][c]
                image[c * n + b] = image.get(c * n + b, 0) - j[c][a]
            _add_row(basis, image)
    return basis


def _directions(pattern):
    # per parameter, vec of the sum of its stars
    n = pattern.base.total_size
    directions = {}
    for row, col, param in pattern.stars:
        directions.setdefault(param, {})[(row - 1) * n + col - 1] = 1
    return [directions[k] for k in sorted(directions)]


class TestVersality:
    def test_patterns_span_a_complement_of_the_tangent_space(self):
        # Arnold (1971): J + sum p_k D_k is versal iff the directions D_k and
        # the tangent space {X@J - J@X} of J's orbit span all n x n
        # matrices.  The tangent rows alone have rank n^2 - codim, so with
        # every parameter the rank is n^2 and with one dropped it is n^2 - 1
        for n in range(1, 8):
            for s in structures_of_size(n, (0, 1, -1)):
                tangent = _tangent_basis(s)
                assert len(tangent) == n * n - orbit_codim(s), s
                for pattern in (arnold_pattern(s), alternate_pattern(s)):
                    directions = _directions(pattern)
                    spanned = dict(tangent)
                    for row in directions:
                        _add_row(spanned, row)
                    assert len(spanned) == n * n, (s, pattern.shape)
                    dropped = dict(tangent)
                    for row in directions[1:]:
                        _add_row(dropped, row)
                    assert len(dropped) == n * n - 1, (s, pattern.shape)


class TestLayouts:
    def test_pattern_base_is_the_callers_structure(self):
        s = SegreStructure([(0.0, [2, 1]), (1.0, [2])])
        for make in (arnold_pattern, alternate_pattern):
            first, again = make(s), make(SegreStructure([(0.0, [2, 1]), (1.0, [2])]))
            assert first.base is s and again.base is not s
            assert first == again and first is not again

    def test_stars_depend_on_the_partitions_only(self):
        for n in range(1, 7):
            for s in structures_of_size(n):
                moved = SegreStructure([(eig * 3 - 1j, sizes) for eig, sizes in s.blocks])
                for make in (arnold_pattern, alternate_pattern):
                    assert make(s).stars == make(moved).stars
                    assert make(moved).base is moved

    def test_parameter_groups_own_their_stars(self):
        for n in range(1, 7):
            for s in structures_of_size(n):
                owner = _layout(s.partitions())[2]
                assert len(owner) == orbit_codim(s)
                ends = np.cumsum([sum(sizes) for sizes in s.partitions()])
                for pattern in (arnold_pattern(s), alternate_pattern(s)):
                    for row, col, param in pattern.stars:
                        group = owner[param - 1]
                        low = ends[group - 1] if group else 0
                        assert low < row <= ends[group] and low < col <= ends[group]

    def test_cache_is_bounded(self):
        assert _layout.cache_info().maxsize is not None


class TestInstantiate:
    def test_all_zero_is_base(self):
        s = SegreStructure([(1.0, [2, 1])])
        p = arnold_pattern(s)
        values = {i: 0.0 for i in range(1, p.parameter_count + 1)}
        assert np.array_equal(instantiate(p, values), build_jcf(s))

    def test_single_parameter_placement(self):
        s = SegreStructure([(0.5, [3, 2])])
        p = arnold_pattern(s)
        values = {i: 0.0 for i in range(1, 10)}
        values[4] = 1e-2
        m = instantiate(p, values)
        expected = build_jcf(s)
        expected[2, 3] += 1e-2
        assert np.array_equal(m, expected)

    def test_shared_parameter_on_diagonal(self):
        s = SegreStructure([(0.0, [3])])
        p = alternate_pattern(s)
        m = instantiate(p, {1: 0.0, 2: 0.25, 3: 0.0})
        expected = build_jcf(s)
        expected[1, 0] += 0.25
        expected[2, 1] += 0.25
        assert np.array_equal(m, expected)

    def test_missing_parameter(self):
        p = arnold_pattern(SegreStructure([(0.0, [2])]))
        with pytest.raises(MissingParameter):
            instantiate(p, {1: 1.0})

    def test_out_of_range_index_rejected(self):
        # no star carries 999, so its value would set nothing
        p = arnold_pattern(SegreStructure([(0.0, [2])]))
        with pytest.raises(ValueError, match="^parameter index 999 outside 1..2$"):
            instantiate(p, {1: 0.1, 2: 0.2, 999: 5.0})

    @pytest.mark.parametrize("values", [
        {1.9: 0.1, 2: 0.2}, {True: 0.1, 2: 0.2}, {1: 0.1, 2.0: 0.2},
        {1: 0.1, "2": 0.2},
    ], ids=["1.9", "True", "2.0", "'2'"])
    def test_non_integer_index_rejected(self, values):
        p = arnold_pattern(SegreStructure([(0.0, [2])]))
        with pytest.raises(ValueError, match="parameter indices must be integers"):
            instantiate(p, values)


class TestReduceSingleBlock:
    def test_two_by_two_closed_form(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            e = random_complex(rng, 2, 2)
            e *= 1e-2 / np.linalg.norm(e)
            a = jordan_block(2, 0.0) + e
            result = reduce_single_block(a, 0.0)
            d1, d2 = result.deformed[1, 0], result.deformed[1, 1]
            # delta_1 = e21(1+e12) - e11 e22, delta_2 = e11 + e22,
            # i.e. -det and trace of the perturbed block
            assert abs(d1 - (e[1, 0] * (1 + e[0, 1]) - e[0, 0] * e[1, 1])) <= 1e-12
            assert abs(d2 - (e[0, 0] + e[1, 1])) <= 1e-12
            assert abs(d1 + np.linalg.det(a)) <= 1e-12
            assert abs(d2 - np.trace(a)) <= 1e-12

    def test_zero_perturbation(self):
        a = jordan_block(4, 1.0 + 2.0j)
        result = reduce_single_block(a, 1.0 + 2.0j)
        assert np.array_equal(result.deformed, a)
        assert np.array_equal(result.transform, np.eye(4))

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    @pytest.mark.parametrize("shift", [0, 1])
    def test_last_row_is_negated_charpoly(self, k, shift):
        lam = 0.0 if shift == 0 else 1.0 - 0.5j
        rng = np.random.default_rng(100 * k + shift)
        for _ in range(10):
            e = random_complex(rng, k, k)
            e *= 1e-3 / np.linalg.norm(e)
            a = jordan_block(k, lam) + e
            result = reduce_single_block(a, lam)
            row = result.deformed[-1].copy()
            row[-1] -= lam
            coeffs = leverrier_charpoly(a - lam * np.eye(k))
            assert max(abs(row[j] + coeffs[j]) for j in range(k)) <= 1e-10

    def test_transform_residual_and_spectrum(self):
        rng = np.random.default_rng(41)
        for k in range(2, 7):
            e = random_complex(rng, k, k)
            e *= 1e-3 / np.linalg.norm(e)
            a = jordan_block(k, 0.25) + e
            result = reduce_single_block(a, 0.25)
            residual = frobenius_norm(
                solve_linear(result.transform, a @ result.transform) - result.deformed)
            assert residual <= 1e-12 * frobenius_norm(a)
            assert eigen_match_distance(eigenvalues(result.deformed),
                                        eigenvalues(a)) <= 1e-8
            # the similarity is a small perturbation of the identity
            assert frobenius_norm(result.transform - np.eye(k)) <= 0.1

    def test_deformation_confined_to_pattern(self):
        rng = np.random.default_rng(55)
        k, lam = 5, 0.0
        e = random_complex(rng, k, k)
        e *= 1e-3 / np.linalg.norm(e)
        result = reduce_single_block(jordan_block(k, lam) + e, lam)
        off_pattern = result.deformed - jordan_block(k, lam)
        off_pattern[-1, :] = 0.0
        assert frobenius_norm(off_pattern) <= 1e-12

    def test_pivot_breakdown(self):
        with pytest.raises(PivotBreakdown):
            reduce_single_block(np.zeros((3, 3)), 0.0)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            reduce_single_block(np.zeros((2, 3)), 0.0)

    @pytest.mark.parametrize("k, scale", [(3, 1e300), (2, 1e200)])
    def test_overflow_raises(self, k, scale):
        # the similarity updates overflow to inf and then NaN: raise, never
        # return NaN
        with pytest.raises(ValueError, match="overflow the single-block reduction"):
            reduce_single_block(np.full((k, k), scale), 0.0)
