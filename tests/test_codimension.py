import math

import numpy as np
import pytest

from versal import (SegreStructure, build_jcf, bundle_codim, codimension,
                    orbit_codim, orbit_codim_oracle)

from conftest import kron_commutator_nullity, partitions, structures_of_size


def random_structures(st, eigenvalues, counts):
    # Segre structures of total size at most 10 with a number of groups in
    # counts, their eigenvalues drawn from eigenvalues
    @st.composite
    def structures(draw):
        count = draw(st.integers(*counts))
        n = draw(st.integers(count, 10))
        cuts = sorted(draw(st.lists(st.integers(1, max(n - 1, 1)), min_size=count - 1,
                                    max_size=count - 1, unique=True)))
        eigs = draw(st.lists(st.sampled_from(eigenvalues), min_size=count,
                             max_size=count, unique=True))
        blocks = []
        for eig, lo, hi in zip(eigs, [0, *cuts], [*cuts, n]):
            rest, sizes = hi - lo, []
            while rest:
                sizes.append(draw(st.integers(1, min([rest, *sizes[-1:]]))))
                rest -= sizes[-1]
            blocks.append((eig, sizes))
        return SegreStructure(blocks)

    return structures()


class TestOrbitCodim:
    def test_two_group_constant(self):
        assert orbit_codim(SegreStructure([(0.0, [3, 2, 1]), (1.0, [2])])) == 16

    def test_scalar(self):
        assert orbit_codim(SegreStructure([(0.0, [1])])) == 1

    def test_three_two(self):
        assert orbit_codim(SegreStructure([(0.0, [3, 2])])) == 9

    def test_dimension_complement(self):
        # the orbit's dimension is the rank of the commutator map
        s = SegreStructure([(0.0, [3, 2])])
        n = s.total_size
        assert n * n - orbit_codim(s) == n * n - orbit_codim_oracle(s) == 25 - 9

    def test_value_independence(self):
        a = SegreStructure([(0.0, [3, 1]), (1.0, [2])])
        b = SegreStructure([(5.0 - 2.0j, [3, 1]), (-7.0, [2])])
        assert orbit_codim(a) == orbit_codim(b)
        assert bundle_codim(a) == bundle_codim(b)

    def test_single_eigenvalue_extremes(self):
        for n in range(1, 7):
            full = orbit_codim(SegreStructure([(0.0, [n])]))
            assert full == n
            for part in partitions(n):
                codim = orbit_codim(SegreStructure([(0.0, part)]))
                assert codim >= full
            scalar_type = SegreStructure([(0.0, [1] * n)])
            assert orbit_codim(scalar_type) == n * n


class TestBundleCodim:
    @pytest.mark.parametrize("q", [1, 2, 3, 4, 5])
    def test_one_big_block_many_simple(self, q):
        blocks = [(0.0, [3])] + [(float(k), [1]) for k in range(1, q)]
        assert bundle_codim(SegreStructure(blocks)) == 2

    def test_generic_simple_eigenvalue(self):
        assert bundle_codim(SegreStructure([(0.0, [1])])) == 0

    def test_three_two(self):
        assert bundle_codim(SegreStructure([(0.0, [3, 2])])) == 8


class TestOracle:
    def test_scalar_commutant(self):
        assert orbit_codim_oracle(SegreStructure([(0.0, [1])])) == 1

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_nonderogatory_commutant(self, n):
        s = SegreStructure([(0.5, [n])])
        assert orbit_codim_oracle(s) == n == orbit_codim(s)

    def test_three_two(self):
        assert orbit_codim_oracle(SegreStructure([(0.0, [3, 2])])) == 9

    def test_agrees_with_formula_small(self):
        for n in range(1, 5):
            for s in structures_of_size(n):
                assert orbit_codim_oracle(s) == orbit_codim(s)

    def test_size_cap(self):
        with pytest.raises(ValueError):
            orbit_codim_oracle(SegreStructure([(0.0, [11])]))

    @pytest.mark.parametrize("pool", [
        (0.0, 1.0, -2.0),
        (1j, -1.0 - 1.0j, 2.0 + 0.5j),
        # groups 1e-11 apart: a piece coupling a block of size 2 or more
        # with another group has singular values of about 1 and some far
        # below RANK_TOL times that, so the dense reference exceeds the
        # formula; the oracle, exact, does not
        (0.0, 1e-11, 2e-11),
        (1.0, 1.0 + 1e-11j, 1.0 - 1e-11),
        # groups 1e11 and more apart: the reference ranks each piece against
        # its own largest singular value, so the formula holds
        (0.0, 1e11, -1e13j),
    ])
    def test_group_wise_matches_dense_kron_reference(self, pool):
        near = abs(pool[1] - pool[0]) < 1e-9
        for n in range(1, 6):
            for s in structures_of_size(n, pool):
                if near and len(s.blocks) > 1 and max(map(max, s.partitions())) > 1:
                    assert kron_commutator_nullity(s) > orbit_codim(s), s
                    assert orbit_codim_oracle(s) == orbit_codim(s), s
                else:
                    assert orbit_codim_oracle(s) == kron_commutator_nullity(s), s
                    assert orbit_codim_oracle(s) == orbit_codim(s), s

    def test_group_wise_matches_dense_kron_reference_random(self):
        hypothesis = pytest.importorskip("hypothesis")
        eigenvalues = (0, 1, -1, 1j, -1j, 2.5, 1 + 1j, 1e-11, 1 + 1e-11j)

        @hypothesis.settings(max_examples=60, deadline=None, derandomize=True,
                             database=None)
        @hypothesis.given(random_structures(hypothesis.strategies, eigenvalues, (2, 3)))
        def check(s):
            nullity = orbit_codim_oracle(s)
            assert nullity == orbit_codim(s), s
            # the dense reference overcounts only where a piece of two
            # eigenvalues 1e-11 apart reads rank-deficient
            reference = kron_commutator_nullity(s)
            values = [eig for eig, _ in s.blocks]
            near = any(abs(a - b) < 1e-9 for i, a in enumerate(values) for b in values[:i])
            assert reference == nullity or (near and reference > nullity), s

        check()

    @pytest.mark.parametrize("far", [
        [(1e308, [1]), (-1e308, [1])],
        [(1e308j, [2]), (-1e308j, [1])],
        # both parts are finite, but not the modulus, the piece's singular value
        [(0.8e308 + 0.8e308j, [1]), (-0.8e308 - 0.8e308j, [1])],
    ])
    def test_overflowing_eigenvalue_difference_raises(self, far):
        # a float piece of two such groups has NaN or infinite singular
        # values; the oracle forms no such piece and counts exactly
        s = SegreStructure(far)
        assert orbit_codim_oracle(s) == orbit_codim(s)

    def test_far_apart_finite_difference_counts(self):
        assert orbit_codim_oracle(SegreStructure([(1e300, [1]), (-1e300, [1])])) == 2

    @pytest.mark.parametrize("gap", [1e-5, 1e-6, 1e-8])
    def test_close_groups_raise_instead_of_overcounting(self, gap):
        # the cross piece's singular values are about 1 and gap**2, below
        # RANK_TOL times 1 from a gap of 1e-5 on, so the float reference
        # overcounts; the piece of distinct eigenvalues is nonsingular
        # (Sylvester), which the oracle counts without ranking it
        s = SegreStructure([(0.0, [2]), (gap, [1])])
        assert kron_commutator_nullity(s) > orbit_codim(s)
        assert orbit_codim_oracle(s) == orbit_codim(s) == 3

    @pytest.mark.parametrize("gap", [1e-2, 1e-4])
    def test_close_groups_above_the_cutoff_count(self, gap):
        s = SegreStructure([(0.0, [2]), (gap, [1])])
        assert orbit_codim_oracle(s) == kron_commutator_nullity(s) == orbit_codim(s) == 3

    @pytest.mark.parametrize("gap", [1e10, 1e11, 1e13])
    def test_far_apart_groups_keep_their_pieces_ranks(self, gap):
        # each piece is ranked against its own largest singular value: the
        # cross piece's, about the gap, no longer pushes the 2-block's own
        # piece, whose nonzero singular value is 1, below the cutoff
        s = SegreStructure([(0.0, [2]), (gap, [1])])
        assert orbit_codim_oracle(s) == kron_commutator_nullity(s) == orbit_codim(s) == 3


class TestKeptNullities:
    def test_signed_zero_shares_the_kept_nullity(self, monkeypatch):
        s = SegreStructure([(0.0, [2, 1]), (1j, [2]), (-1.0, [1])])
        nullity = orbit_codim_oracle(s)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return original(*args, **kwargs)

        original = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", counted)
        for blocks in ([(0.0, [2, 1]), (1j, [2]), (-1.0, [1])],
                       [(-0.0, [2, 1]), (complex(-0.0, 1), [2]), (complex(-1, -0.0), [1])]):
            assert orbit_codim_oracle(SegreStructure(blocks)) == nullity == orbit_codim(s)
        assert calls == []

    def test_keys_are_the_partitions_under_the_cap(self):
        # keyed by partition, with the cap checked first: every structure up
        # to the cap, and one above it, leave one key per partition of 1 to
        # MAX_ORACLE_ORDER
        cap = codimension.MAX_ORACLE_ORDER
        for n in range(1, cap + 1):
            for s in structures_of_size(n):
                orbit_codim_oracle(s)
        with pytest.raises(ValueError):
            orbit_codim_oracle(SegreStructure([(0.0, [cap + 1])]))
        keys = sum(1 for n in range(1, cap + 1) for _ in partitions(n))
        assert keys == 138
        assert codimension._nullity.cache_info().currsize == keys


class TestExactNullity:
    def test_calls_no_svd(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("the oracle took an SVD")

        monkeypatch.setattr(np.linalg, "svd", refused)
        groups = [(0.0, [3, 1]), (1j, [2]), (-1.0, [2, 1]), (2.5, [1])]
        for count in range(1, 5):
            codimension._nullity.cache_clear()
            s = SegreStructure(groups[:count])
            assert orbit_codim_oracle(s) == orbit_codim(s)

    def test_matches_the_exact_rank_of_the_piece(self):
        # m^2 minus the exact rank of X -> X@N - N@X, from its integer
        # matrix, for the nilpotent Jordan matrix N of every partition up to
        # size 6: no formula and no union-find
        sympy = pytest.importorskip("sympy")
        from sympy.polys.matrices import DomainMatrix

        for m in range(1, 7):
            for sizes in partitions(m):
                n = build_jcf(SegreStructure([(0, sizes)])).real.astype(int)
                images = []
                for a in range(m):
                    for b in range(m):
                        x = np.zeros((m, m), dtype=int)
                        x[a, b] = 1
                        images.append((x @ n - n @ x).ravel().tolist())
                rank = DomainMatrix.from_list(images, sympy.ZZ).rank()
                assert codimension._nullity(sizes) == m * m - rank, sizes

    def test_extreme_eigenvalues_count_exactly(self):
        hypothesis = pytest.importorskip("hypothesis")
        # the largest finite values and differences that overflow, gaps of
        # one ulp, signed zeros and complex values
        eigenvalues = (0.0, -0.0, 5e-324, -5e-324, 1.0, math.nextafter(1.0, 2.0),
                       math.nextafter(1.0, 0.0), 1e-8, 1e-5, 1e308, -1e308, 1e308j,
                       -1e308j, complex(-0.0, 1.0), complex(1e308, -1e308))

        @hypothesis.settings(max_examples=200, deadline=None, derandomize=True,
                             database=None)
        @hypothesis.given(random_structures(hypothesis.strategies, eigenvalues, (1, 3)))
        def check(s):
            assert orbit_codim_oracle(s) == orbit_codim(s), s

        check()
