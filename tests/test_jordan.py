import warnings

import numpy as np
import pytest

from versal import (InconsistentRanks, SegreStructure, WeyrStructure,
                    build_jcf, conjugate_partition, recover_structure,
                    segre_to_weyr, weyr_to_segre)
from versal.jordan import jordan_block

from conftest import (conditioned_matrix, partitions, structures_close,
                      structures_of_size)


class TestSegreStructure:
    def test_rejects_duplicate_eigenvalues(self):
        with pytest.raises(ValueError, match="distinct"):
            SegreStructure([(1.0, [2]), (1.0, [1])])

    def test_rejects_ascending_sizes(self):
        with pytest.raises(ValueError, match="descending"):
            SegreStructure([(0.0, [1, 2])])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SegreStructure([])

    def test_total_size_and_equality(self):
        s = SegreStructure([(0.0, [3, 1]), (2.0 + 1.0j, [2])])
        assert s.total_size == 6
        assert s == SegreStructure([(0, (3, 1)), (2 + 1j, (2,))])
        assert s.partitions() == ((3, 1), (2,))
        assert s.block_starts() == ((0, 3), (4,))

    @pytest.mark.parametrize("sizes", [[2.7, 1], [2.0], ["3"], [True], [2, None]])
    def test_rejects_non_integer_sizes(self, sizes):
        with pytest.raises(ValueError, match="integers"):
            SegreStructure([(0.0, sizes)])

    def test_accepts_numpy_integer_sizes(self):
        s = SegreStructure([(0.0, np.array([3, 1]))])
        assert s.partitions() == ((3, 1),)
        assert all(type(k) is int for k in s.partitions()[0])

    @pytest.mark.parametrize("blocks", [
        [(float("nan"), [2])],
        [(float("inf"), [2])],
        [(complex(0.0, float("-inf")), [2])],
        # NaN != NaN, so two of them would pass the distinctness check
        [(float("nan"), [1]), (float("nan"), [1])],
    ])
    def test_rejects_non_finite_eigenvalues(self, blocks):
        with pytest.raises(ValueError, match="finite"):
            SegreStructure(blocks)


class TestBuildJcf:
    def test_two_by_two_nilpotent(self):
        assert np.array_equal(build_jcf(SegreStructure([(0.0, [2])])),
                              np.array([[0, 1], [0, 0]], dtype=complex))

    def test_scalar(self):
        lam = 1.5 - 0.5j
        assert np.array_equal(build_jcf(SegreStructure([(lam, [1])])),
                              np.array([[lam]]))

    def test_direct_sum_order(self):
        lam, mu = 0.0, 1.0
        m = build_jcf(SegreStructure([(lam, [3, 2]), (mu, [2])]))
        expected = np.zeros((7, 7), dtype=complex)
        expected[0:3, 0:3] = jordan_block(3, lam)
        expected[3:5, 3:5] = jordan_block(2, lam)
        expected[5:7, 5:7] = jordan_block(2, mu)
        assert np.array_equal(m, expected)

    @pytest.mark.parametrize("pool", [(0.0, 1.0, 2.0 + 1.0j), (-1.0, -2j, -0.5 - 0.5j)])
    def test_enumerated_against_per_block_product(self, pool):
        for n in range(1, 8):
            for s in structures_of_size(n, pool):
                m = build_jcf(s)
                expected = np.zeros((n, n), dtype=complex)
                at = 0
                for eig, sizes in s.blocks:
                    for k in sizes:
                        expected[at:at + k, at:at + k] = np.eye(k) * eig + np.eye(k, k=1)
                        at += k
                assert np.array_equal(m, expected)
                parts = m.view(float)  # real and imaginary parts
                assert not np.any(np.signbit(parts[parts == 0])), s
                # a block starts exactly where the superdiagonal holds a zero
                breaks = [start - 1 for starts in s.block_starts()
                          for start in starts if start > 0]
                assert breaks == list(np.flatnonzero(np.diagonal(m, 1) == 0))

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_block_near_float_range_does_not_overflow(self, k):
        lam = 1e308 + 1e308j
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            block = jordan_block(k, lam)
        assert np.all(np.diagonal(block) == lam)
        assert np.all(np.diagonal(block, 1) == 1.0)


class TestConjugation:
    @pytest.mark.parametrize("sizes,expected", [
        ((4, 1), (2, 1, 1, 1)),
        ((1,), (1,)),
        ((3, 2), (2, 2, 1)),
    ])
    def test_known_conjugates(self, sizes, expected):
        assert conjugate_partition(sizes) == expected

    def test_involution_exhaustive(self):
        for n in range(1, 11):
            for part in partitions(n):
                assert conjugate_partition(conjugate_partition(part)) == part

    def test_structure_round_trip(self):
        s = SegreStructure([(0.0, [4, 1]), (1.0, [3, 2])])
        w = segre_to_weyr(s)
        assert isinstance(w, WeyrStructure)
        assert w.blocks == ((0.0 + 0j, (2, 1, 1, 1)), (1.0 + 0j, (2, 2, 1)))
        assert weyr_to_segre(w) == s


class TestRecoverStructure:
    def test_exact_round_trip_single_block(self):
        s = SegreStructure([(0.0, [3])])
        assert recover_structure(build_jcf(s)) == s

    def test_superdiagonal_bridge_merges_blocks(self):
        # entry at (3,4) joins J_3 and J_2 into one chain of length 5
        lam = 0.5
        m = build_jcf(SegreStructure([(lam, [3, 2])]))
        m[2, 3] += 1e-2
        assert recover_structure(m) == SegreStructure([(lam, [5])])

    def test_corner_bridge_gives_four_one(self):
        # entry at (3,5) yields Weyr (2,1,1,1), i.e. blocks [4,1]
        lam = 0.5
        m = build_jcf(SegreStructure([(lam, [3, 2])]))
        m[2, 4] += 1e-2
        assert recover_structure(m) == SegreStructure([(lam, [4, 1])])

    def test_round_trip_enumerated(self):
        for n in range(1, 6):
            for s in structures_of_size(n):
                assert recover_structure(build_jcf(s)) == s

    def test_similarity_invariance(self):
        rng = np.random.default_rng(17)
        cases = [
            SegreStructure([(0.0, [3, 2])]),
            SegreStructure([(0.0, [6])]),
            SegreStructure([(0.0, [2, 2, 1]), (1.5, [1])]),
            SegreStructure([(0.0, [2]), (1.0, [2]), (2.0 + 1.0j, [2])]),
        ]
        for s in cases:
            n = s.total_size
            m = build_jcf(s)
            reference = recover_structure(m)
            for _ in range(5):
                p = conditioned_matrix(rng, n, 100.0)
                conjugated = np.linalg.solve(p, m @ p)
                # eigenvalues of a defective matrix scatter like the k-th
                # root of the roundoff, so the clustering radius must sit
                # between that scatter and the unit eigenvalue gaps
                tol = 0.25 / max(1.0, np.linalg.norm(conjugated))
                recovered = recover_structure(conjugated, cluster_tol=tol)
                assert structures_close(recovered, reference, eig_tol=1e-2)

    def test_inconsistent_ranks_on_forced_merge(self):
        # a huge clustering radius lumps 0 and 1 into one "eigenvalue"
        m = np.diag([0.0, 1.0]).astype(complex)
        with pytest.raises(InconsistentRanks):
            recover_structure(m, cluster_tol=10.0)

    def test_order_cap(self):
        with pytest.raises(ValueError):
            recover_structure(np.eye(17))
