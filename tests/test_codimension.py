import numpy as np
import pytest

from versal import (SegreStructure, build_jcf, bundle_codim, codimension,
                    orbit_codim, orbit_codim_oracle)
from versal.jordan import _group_spans

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


def jcf_piece(a_g, a_h):
    # the piece X -> X @ a_h - a_g @ X of two diagonal blocks of build_jcf, as
    # the oracle built it from them: complex, and taken as real where its
    # imaginary part vanishes
    rows, cols = a_g.shape[0], a_h.shape[0]
    piece = np.zeros((rows, cols, rows, cols), dtype=complex)
    i, j = np.arange(rows), np.arange(cols)
    piece[i, :, i, :] = a_h.T
    piece[:, j, :, j] -= a_g
    piece = piece.reshape(rows * cols, rows * cols)
    return piece.real if not piece.imag.any() else piece


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


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
        # formula and the oracle refuses to count
        (0.0, 1e-11, 2e-11),
        (1.0, 1.0 + 1e-11j, 1.0 - 1e-11),
        # groups 1e11 and more apart: each piece is ranked against its own
        # largest singular value, so the formula holds
        (0.0, 1e11, -1e13j),
    ])
    def test_group_wise_matches_dense_kron_reference(self, pool):
        near = abs(pool[1] - pool[0]) < 1e-9
        for n in range(1, 6):
            for s in structures_of_size(n, pool):
                if near and len(s.blocks) > 1 and max(map(max, s.partitions())) > 1:
                    assert kron_commutator_nullity(s) > orbit_codim(s), s
                    with pytest.raises(ValueError, match="too close"):
                        orbit_codim_oracle(s)
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
            try:
                nullity = orbit_codim_oracle(s)
            except ValueError:
                # refused where a piece of distinct eigenvalues reads
                # rank-deficient: there the dense reference overcounts
                assert kron_commutator_nullity(s) > orbit_codim(s), s
            else:
                assert nullity == kron_commutator_nullity(s) == orbit_codim(s), s

        check()

    @pytest.mark.parametrize("far", [
        [(1e308, [1]), (-1e308, [1])],
        [(1e308j, [2]), (-1e308j, [1])],
        # both parts are finite, but not the modulus, the piece's singular value
        [(0.8e308 + 0.8e308j, [1]), (-0.8e308 - 0.8e308j, [1])],
    ])
    def test_overflowing_eigenvalue_difference_raises(self, far):
        # the piece of two such groups has NaN or infinite singular values,
        # which rank as zero and gave a nullity of 4 where it is 2
        with pytest.raises(ValueError, match="overflows"):
            orbit_codim_oracle(SegreStructure(far))

    def test_far_apart_finite_difference_counts(self):
        assert orbit_codim_oracle(SegreStructure([(1e300, [1]), (-1e300, [1])])) == 2

    @pytest.mark.parametrize("gap", [1e-5, 1e-6])
    def test_close_groups_raise_instead_of_overcounting(self, gap):
        # the cross piece's singular values are about 1 and gap**2, below
        # RANK_TOL times 1 from a gap of 1e-5 on, where the oracle read 5;
        # the piece of distinct eigenvalues is nonsingular, so it raises
        s = SegreStructure([(0.0, [2]), (gap, [1])])
        with pytest.raises(ValueError, match=f"0j and .*{gap:.3e} apart"):
            orbit_codim_oracle(s)

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

    def test_bounded_by_its_constant(self):
        bound = codimension._KEPT_NULLITIES
        assert codimension._nullity.cache_info().maxsize == bound
        for k in range(bound + 20):
            assert orbit_codim_oracle(SegreStructure([(float(k), [1])])) == 1
        assert codimension._nullity.cache_info().currsize == bound


class TestEigenvalueFreePieces:
    def test_match_pieces_cut_from_build_jcf(self):
        hypothesis = pytest.importorskip("hypothesis")
        # complex values, signed zero parts and values whose differences
        # are near the top of the float range without overflowing it
        eigenvalues = (0, -0.0, -2j, complex(-0.0, 3), 1 + 1j, -2.5, 1e-11,
                       1e300, -1e300, 1e300j, -1e300 + 1e300j)

        @hypothesis.settings(max_examples=120, deadline=None, derandomize=True,
                             database=None)
        @hypothesis.given(random_structures(hypothesis.strategies, eigenvalues, (1, 3)))
        def check(s):
            a = build_jcf(s)
            spans = _group_spans(s.partitions())
            for g, (eig_g, sizes_g) in enumerate(s.blocks):
                own = jcf_piece(a[spans[g], spans[g]], a[spans[g], spans[g]])
                assert same_bits(own, codimension._commutator_piece(sizes_g, sizes_g))
                for h in range(g + 1, len(s.blocks)):
                    piece = jcf_piece(a[spans[g], spans[g]], a[spans[h], spans[h]])
                    assert same_bits(piece,
                                     codimension._cross_piece(eig_g, sizes_g, *s.blocks[h]))

        check()

    def test_one_svd_per_piece_and_none_for_a_kept_nullity(self, monkeypatch):
        groups = [(0.0, [3, 1]), (1j, [2]), (-1.0, [2, 1]), (2.5, [1])]
        structures = [SegreStructure(groups[:count]) for count in range(1, 5)]
        expected = [orbit_codim_oracle(s) for s in structures]
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return original(*args, **kwargs)

        original = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", counted)
        for count, s, nullity in zip(range(1, 5), structures, expected):
            # a structure whose nullity is not kept: one SVD per group and
            # one per pair of distinct groups
            codimension._nullity.cache_clear()
            calls.clear()
            assert orbit_codim_oracle(s) == nullity == orbit_codim(s)
            assert len(calls) == count + count * (count - 1) // 2, calls
            # the same structure again: its nullity is kept
            calls.clear()
            assert orbit_codim_oracle(s) == nullity
            assert calls == []
