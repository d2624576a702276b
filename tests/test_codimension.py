import pytest

from versal import (SegreStructure, bundle_codim, orbit_codim,
                    orbit_codim_oracle)

from conftest import partitions, structures_of_size


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
