import pytest

from versal import (SegreStructure, bundle_codim, orbit_codim,
                    orbit_codim_oracle)

from conftest import kron_commutator_nullity, partitions, structures_of_size


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
        # groups 1e-11 apart: a piece coupling two of them has singular
        # values below the cutoff once a block of size 2 or more makes the
        # largest singular value about 1, so both oracles exceed the formula
        (0.0, 1e-11, 2e-11),
        (1.0, 1.0 + 1e-11j, 1.0 - 1e-11),
    ])
    def test_group_wise_matches_dense_kron_reference(self, pool):
        near = abs(pool[1] - pool[0]) < 1e-9
        for n in range(1, 6):
            for s in structures_of_size(n, pool):
                nullity = orbit_codim_oracle(s)
                assert nullity == kron_commutator_nullity(s), s
                if near and len(s.blocks) > 1 and max(map(max, s.partitions())) > 1:
                    assert nullity > orbit_codim(s), s
                else:
                    assert nullity == orbit_codim(s), s

    def test_group_wise_matches_dense_kron_reference_random(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        eigenvalues = (0, 1, -1, 1j, -1j, 2.5, 1 + 1j, 1e-11, 1 + 1e-11j)

        @st.composite
        def structures(draw):
            count = draw(st.integers(2, 3))
            n = draw(st.integers(count, 10))
            cuts = sorted(draw(st.lists(st.integers(1, n - 1), min_size=count - 1,
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

        @hypothesis.settings(max_examples=60, deadline=None, derandomize=True,
                             database=None)
        @hypothesis.given(structures())
        def check(s):
            assert orbit_codim_oracle(s) == kron_commutator_nullity(s)

        check()
