import cmath
import sys
import threading

import numpy as np
import pytest

from versal import (ClosureMode, ClosureReason, EigenvalueCollision,
                    InconsistentRanks, SegreStructure, SizeMismatch,
                    arnold_pattern, build_jcf, bundle_codim, closure_necessary,
                    conjugate_partition, eigenvalues, instantiate, orbit_codim,
                    perturbation_experiment, recover_structure,
                    transport_perturbation)
from versal import closure, jordan
from versal.deformation import _deviation, _supplied, _with_base
from versal.errors import VersalError
from versal.jordan import (DEFAULT_CLUSTER_TOL, DEFAULT_RANK_TOL, _check_tolerances,
                           _group_spans, _recover_groups, cluster_radius)
from versal.linalg import MAX_ORDER

from conftest import partition_multiset, partitions


class TestClosureNecessary:
    def test_more_degenerate_target_passes(self):
        # a full chain can degenerate into [3,2] under small perturbations
        verdict = closure_necessary(SegreStructure([(0.0, [5])]),
                                    SegreStructure([(0.0, [3, 2])]))
        assert verdict.possible
        assert verdict.reason is ClosureReason.CODIM_PASSES
        assert (verdict.source_codim, verdict.target_codim) == (5, 9)

    def test_same_structure(self):
        s = SegreStructure([(0.0, [2, 1])])
        verdict = closure_necessary(s, s)
        assert verdict.possible and verdict.reason is ClosureReason.SAME_STRUCTURE

    def test_more_generic_target_blocked(self):
        verdict = closure_necessary(SegreStructure([(0.0, [1, 1])]),
                                    SegreStructure([(0.0, [2])]))
        assert not verdict.possible
        assert verdict.reason is ClosureReason.CODIM_BLOCKS
        assert (verdict.source_codim, verdict.target_codim) == (4, 2)

    def test_bundle_mode_ignores_eigenvalue_values(self):
        a = SegreStructure([(0.0, [3, 2])])
        b = SegreStructure([(4.0, [3, 2])])
        orbit = closure_necessary(a, b, ClosureMode.ORBIT)
        assert not orbit.possible
        bundle = closure_necessary(a, b, ClosureMode.BUNDLE)
        assert bundle.possible and bundle.reason is ClosureReason.SAME_STRUCTURE

    def test_bundle_codims_used(self):
        verdict = closure_necessary(SegreStructure([(0.0, [3, 2])]),
                                    SegreStructure([(0.0, [5])]),
                                    ClosureMode.BUNDLE)
        assert not verdict.possible
        assert (verdict.source_codim, verdict.target_codim) == (8, 4)

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            closure_necessary(SegreStructure([(0.0, [2])]),
                              SegreStructure([(0.0, [3])]))

    def test_blocked_verdict_always_reasoned(self):
        structures = [SegreStructure([(0.0, part)]) for part in partitions(4)]
        for a in structures:
            for b in structures:
                verdict = closure_necessary(a, b)
                if not verdict.possible:
                    assert verdict.reason is ClosureReason.CODIM_BLOCKS


class TestPerturbationExperiment:
    @pytest.mark.parametrize("magnitude", [1e-1, 1e-2, 1e-3])
    def test_superdiagonal_bridge_gives_full_chain(self, magnitude):
        s = SegreStructure([(0.0, [3, 2])])
        t = perturbation_experiment(s, {4: magnitude})
        assert partition_multiset(t) == ((5,),)

    @pytest.mark.parametrize("magnitude", [1e-1, 1e-2, 1e-3])
    def test_corner_bridge_gives_four_one(self, magnitude):
        s = SegreStructure([(0.0, [3, 2])])
        t = perturbation_experiment(s, {5: magnitude})
        assert partition_multiset(t) == ((4, 1),)

    @pytest.mark.parametrize("magnitude", [1e-1, 1e-2, 1e-3])
    def test_bottom_left_splits_first_block(self, magnitude):
        s = SegreStructure([(0.0, [3, 2])])
        t = perturbation_experiment(s, {1: magnitude})
        assert partition_multiset(t) == ((1,), (1,), (1,), (2,))

    def test_no_values_recovers_input(self):
        s = SegreStructure([(0.0, [3, 2]), (1.0, [1])])
        assert perturbation_experiment(s, {}) == s

    def test_perturbation_moves_to_more_generic_bundle(self):
        # a perturbation that changes the structure lands in a strictly less
        # degenerate bundle; the orbit count alone is not comparable once the
        # perturbation splits eigenvalues off (e.g. a diagonal star turns
        # [3,2] into [2,2] plus a simple eigenvalue, tying the orbit codims
        # at 9 while the bundle codims drop 8 -> 7)
        for s in (SegreStructure([(0.0, [3, 2])]),
                  SegreStructure([(0.0, [2, 2])])):
            count = orbit_codim(s)
            for index in range(1, count + 1):
                t = perturbation_experiment(s, {index: 1e-2})
                if partition_multiset(t) == partition_multiset(s):
                    continue
                assert bundle_codim(t) < bundle_codim(s)
                if len(t.blocks) == len(s.blocks):
                    # no eigenvalues split off: the orbit count drops too
                    assert orbit_codim(t) < orbit_codim(s)

    def test_out_of_range_parameter(self):
        with pytest.raises(ValueError, match="outside"):
            perturbation_experiment(SegreStructure([(0.0, [2])]), {3: 1e-2})

    @pytest.mark.parametrize("key", [1.7, True, 2.0, "4"])
    def test_non_integer_index_rejected(self, key):
        # int() would read 1.7 and True as parameter 1
        with pytest.raises(ValueError, match="parameter indices must be integers"):
            perturbation_experiment(SegreStructure([(0.0, [3, 2])]), {key: 1e-2})

    def test_numpy_integers_only(self):
        s = SegreStructure([(0.0, [3, 2])])
        assert perturbation_experiment(s, {np.int64(4): 1e-2}) == \
            perturbation_experiment(s, {4: 1e-2}) == SegreStructure([(0.0, [5])])
        with pytest.raises(ValueError, match="parameter indices must be integers"):
            perturbation_experiment(s, {np.float64(4.0): 1e-2})

    @pytest.mark.parametrize("blocks", [
        [(0.0, [2]), (1e-9, [1]), (2.0, [1])],
        [(0.0, [1]), (1e-12, [1]), (2.0, [2])],
    ])
    def test_merging_groups_raise(self, blocks):
        # groups closer than the clustering radius would be recovered as one
        # eigenvalue with a merged partition
        with pytest.raises(EigenvalueCollision, match="groups 1 and 2"):
            perturbation_experiment(SegreStructure(blocks), {})


def numeric_experiment(structure, values, cluster_tol=DEFAULT_CLUSTER_TOL,
                       rank_tol=DEFAULT_RANK_TOL):
    """perturbation_experiment with every group eigensolved and rank-tested.

    It neither reads nor keeps a reading of another experiment.
    """
    pattern = arnold_pattern(structure)
    supplied = _supplied(values, {param for _, _, param in pattern.stars})
    _check_tolerances(cluster_tol, rank_tol)
    partitions = structure.partitions()
    deviation = _deviation(partitions, pattern.stars, supplied)
    groups = [(span, None) for span in _group_spans(partitions)]
    labeling = ([eig + 0j for eig, _ in structure.blocks],
                _with_base(deviation, structure))
    return _recover_groups(deviation, groups, labeling, cluster_tol, rank_tol,
                           jordan._Kept())


def outcome(run, *args):
    """``repr`` of the result, or the error's type and message."""
    try:
        return repr(run(*args))
    except VersalError as exc:
        return f"{type(exc).__name__}: {exc}"


def first_parameters(structure):
    """Per eigenvalue group, the index of its first pattern parameter."""
    firsts, at = [], 1
    for eig, sizes in structure.blocks:
        firsts.append(at)
        at += orbit_codim(SegreStructure([(eig, sizes)]))
    return firsts


@pytest.fixture
def eigensolves(monkeypatch):
    calls = []

    def counted(m):
        calls.append(m.shape[0])
        return original(m)

    original = jordan.eigenvalues
    monkeypatch.setattr(jordan, "eigenvalues", counted)
    return calls


TENTH_BLOCKS = [*([(0.1, sizes), (2.0, [2])] for sizes in partitions(3)),
                [(0.1, [3, 3]), (-1.0, [1])],
                [(0.1, [1] * 6), (-1.0, [1])]]


class TestUnperturbedGroups:
    # a group none of whose parameters is nonzero has an exactly nilpotent
    # deviation block: it gets no eigensolve and no rank SVDs, but the same
    # result as the numeric path, byte for byte
    @pytest.mark.parametrize("blocks", [
        *TENTH_BLOCKS,
        [(-0.0, [2, 1]), (-2j, [1]), (1.0, [1])],
        [(complex(-0.0, -0.0), [1, 1]), (complex(-1.0, -0.0), [2])],
    ], ids=str)
    @pytest.mark.parametrize("tols", [(DEFAULT_CLUSTER_TOL, DEFAULT_RANK_TOL),
                                      (0.0, 0.0), (0.5, 0.999)], ids=str)
    def test_matches_numeric_path(self, blocks, tols, eigensolves):
        structure = SegreStructure(blocks)
        firsts = first_parameters(structure)
        for moved in [None, *range(len(firsts))]:
            values = {} if moved is None else {firsts[moved]: 1e-2}
            eigensolves.clear()
            hinted = outcome(perturbation_experiment, structure, values, *tols)
            if not hinted.startswith("EigenvalueCollision"):
                # the perturbed group's eigensolve only
                assert len(eigensolves) == (moved is not None)
            assert hinted == outcome(numeric_experiment, structure, values, *tols)

    @pytest.mark.parametrize("blocks", TENTH_BLOCKS, ids=str)
    def test_tenth_recovered_exactly(self, blocks):
        # six copies of 0.1 average to 0.09999999999999999, so in the matrix's
        # own coordinates the shifted block is -1.4e-17*I, its own rank
        # scale, and all simple blocks read as full rank; the deviation
        # block's spectrum is exact zeros
        structure = SegreStructure(blocks)
        assert set(perturbation_experiment(structure, {}).blocks) == set(structure.blocks)
        assert exact_experiment(structure, {})[0] == partition_multiset(structure)
        for first in first_parameters(structure):
            values = {first: 1e-2}
            exact, gap = exact_experiment(structure, values)
            assert gap > 1.0
            recovered = perturbation_experiment(structure, values)
            assert partition_multiset(recovered) == exact

    def test_nilpotent_blocks_read_exactly(self):
        # why an unperturbed group needs no numerical work: eigvals returns
        # every nilpotent Jordan matrix's spectrum as exact zeros, and its
        # rank tests give its partition, at every order up to the cap
        for n in range(1, MAX_ORDER + 1):
            for sizes in partitions(n):
                structure = SegreStructure([(0.0, sizes)])
                block = build_jcf(structure)
                assert not np.any(eigenvalues(block))
                for tols in [(DEFAULT_CLUSTER_TOL, DEFAULT_RANK_TOL),
                             (0.0, 0.0), (0.5, 0.999)]:
                    assert recover_structure(block, *tols) == structure

    @pytest.mark.parametrize("value,solves", [(0, 1), (0.0j, 1), (-0.0, 1),
                                              (1e-300, 2)])
    def test_zero_value_leaves_group_unperturbed(self, value, solves, eigensolves):
        structure = SegreStructure([(0.0, [3]), (1.0, [2])])
        values = {1: value, 4: 1e-2}
        hinted = outcome(perturbation_experiment, structure, values)
        assert len(eigensolves) == solves
        assert hinted == outcome(numeric_experiment, structure, values)

    @pytest.mark.parametrize("blocks,values", [
        ([(0.0, [2]), (1e-9, [1]), (3.0, [1])], {1: 1e-14}),
        ([(1e-9, [1]), (0.0, [2]), (3.0, [1])], {2: 1e-14}),
    ])
    def test_collision_with_perturbed_cluster(self, blocks, values):
        # the perturbed 2-block splits into +-1e-7, within the radius of the
        # unperturbed eigenvalue 1e-9: the same message, the same pair order
        structure = SegreStructure(blocks)
        hinted = outcome(perturbation_experiment, structure, values)
        assert hinted.startswith("EigenvalueCollision: perturbed eigenvalue "
                                 "groups 1 and 2 come within")
        assert hinted == outcome(numeric_experiment, structure, values)


def transport_cases():
    # 2-3 groups at orders up to 16 and values of 1e-8..1, so that some
    # results are inconclusive; on some inputs the last replacement sits
    # within the clustering radius of the first, so that only the relabeled
    # side collides
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    pool = (0, 1, -1, 1j, -1j, 2, 1 + 1j, 0.1, -0.0)

    @st.composite
    def cases(draw):
        count = draw(st.integers(2, 3))
        n = draw(st.integers(count, 16))
        cuts = sorted(draw(st.lists(st.integers(1, n - 1), min_size=count - 1,
                                    max_size=count - 1, unique=True)))
        eigs = draw(st.lists(st.sampled_from(pool[:7]), min_size=count,
                             max_size=count, unique=True))
        blocks = []
        for eig, lo, hi in zip(eigs, [0, *cuts], [*cuts, n]):
            rest, sizes = hi - lo, []
            while rest:
                sizes.append(draw(st.integers(1, min([rest, *sizes[-1:]]))))
                rest -= sizes[-1]
            blocks.append((eig, sizes))
        structure = SegreStructure(blocks)
        params = draw(st.lists(st.integers(1, orbit_codim(structure)),
                               min_size=0, max_size=3, unique=True))
        values = {p: 10 ** draw(st.floats(-8, 0))
                  * cmath.exp(1j * draw(st.floats(0, 2 * cmath.pi)))
                  for p in params}
        replacements = draw(st.lists(st.sampled_from(pool), min_size=count,
                                     max_size=count, unique_by=complex))
        if draw(st.booleans()):
            replacements[-1] = replacements[0] + draw(st.sampled_from((1e-7, 3e-6j)))
        return structure, replacements, values

    return hypothesis, cases()


class TestTransportPerturbation:
    def test_same_as_two_experiments(self):
        # the shared eigensolves and rank tests change nothing: the results,
        # or the error raised and its message, are those of the two
        # experiments run one after the other
        hypothesis, cases = transport_cases()

        def experiments(structure, replacements, values):
            # each side from scratch, reading no earlier experiment
            relabeled = SegreStructure(
                [(r, sizes) for r, (_, sizes) in zip(replacements, structure.blocks)])
            sides = []
            for side in (structure, relabeled):
                closure._reading.cache_clear()
                sides.append(perturbation_experiment(side, values))
            return tuple(sides)

        @hypothesis.settings(max_examples=200, deadline=None, derandomize=True,
                             database=None)
        @hypothesis.given(cases)
        def check(case):
            structure, _, values = case
            alone = outcome(experiments, *case)
            closure._reading.cache_clear()
            assert outcome(transport_perturbation, *case) == alone
            # right after the same experiment, as a caller asking both
            # questions runs them: the first side reads the experiment's
            outcome(perturbation_experiment, structure, values)
            assert outcome(transport_perturbation, *case) == alone
            # the kept result is keyed by cluster_tol: an experiment at a
            # second one, between the first and the transport, is its own
            closure._reading.cache_clear()
            other = outcome(perturbation_experiment, structure, values, 1e-3)
            outcome(perturbation_experiment, structure, values)
            assert outcome(perturbation_experiment, structure, values, 1e-3) == other
            assert outcome(transport_perturbation, *case) == alone

        check()

    def test_one_eigensolve_per_perturbed_group(self, eigensolves):
        # 2 of 3 groups perturbed: 2 eigensolves serve both sides, not 4
        b = SegreStructure([(0.0, [2, 1]), (1.0, [2]), (2.0, [1])])
        values = {1: 1e-2, 6: 1e-2}
        left, right = transport_perturbation(b, [3.0, 5.0, 7.0], values)
        assert sorted(eigensolves) == [2, 3]
        eigensolves.clear()
        closure._reading.cache_clear()
        assert perturbation_experiment(b, values) == left
        assert sorted(eigensolves) == [2, 3]
        # right after that experiment on the same inputs, both sides read it
        eigensolves.clear()
        assert transport_perturbation(b, [3.0, 5.0, 7.0], values) == (left, right)
        assert eigensolves == []

    def test_not_counted_as_two_experiments(self, monkeypatch):
        # a wrapper on the public name, such as a tracer that counts calls
        # by wrapping module globals, sees only its callers' experiments
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        original = closure.perturbation_experiment
        monkeypatch.setattr(closure, "perturbation_experiment", counted)
        b = SegreStructure([(0.0, [2, 1]), (1.0, [2])])
        assert transport_perturbation(b, [3.0, 7.0], {1: 1e-2}) == (
            original(b, {1: 1e-2}), original(SegreStructure([(3.0, [2, 1]), (7.0, [2])]),
                                              {1: 1e-2}))
        assert calls == []

    def test_bridge_transports_to_shifted_eigenvalue(self):
        b = SegreStructure([(0.0, [3, 2])])
        left, right = transport_perturbation(b, [5.0], {4: 1e-2})
        assert partition_multiset(left) == ((5,),)
        assert partition_multiset(right) == ((5,),)
        assert abs(right.blocks[0][0] - 5.0) <= 1e-6

    def test_zero_values_relabel_only(self):
        b = SegreStructure([(0.0, [2, 1]), (1.0, [2])])
        left, right = transport_perturbation(b, [3.0, 7.0], {})
        assert left == b
        assert right == SegreStructure([(3.0, [2, 1]), (7.0, [2])])

    def test_split_two_block_both_sides(self):
        b = SegreStructure([(0.0, [2]), (1.0, [1])])
        left, right = transport_perturbation(b, [3.0, 7.0], {1: 1e-2})
        assert partition_multiset(left) == ((1,), (1,), (1,))
        assert partition_multiset(right) == ((1,), (1,), (1,))

    def test_random_trials_agree(self):
        rng = np.random.default_rng(29)
        bases = [
            SegreStructure([(0.0, [3, 2])]),
            SegreStructure([(0.0, [2, 1]), (2.0, [2])]),
            SegreStructure([(0.0, [3]), (2.0, [1]), (4.0, [1])]),
        ]
        for b in bases:
            count = orbit_codim(b)
            for _ in range(5):
                values = {i: 1e-3 * np.exp(2j * np.pi * rng.uniform())
                          for i in range(1, count + 1)}
                eigs = [1.5 * k + rng.uniform(0, 0.3) + 1j * rng.uniform(0, 0.3)
                        for k in range(len(b.blocks))]
                left, right = transport_perturbation(b, eigs, values)
                assert partition_multiset(left) == partition_multiset(right)

    def test_duplicate_replacements_rejected(self):
        b = SegreStructure([(0.0, [1]), (1.0, [1])])
        with pytest.raises(EigenvalueCollision):
            transport_perturbation(b, [2.0, 2.0], {})

    def test_merging_groups_detected(self):
        # groups only 1e-7 apart fall inside the default clustering radius
        b = SegreStructure([(0.0, [1]), (1e-7, [1])])
        with pytest.raises(EigenvalueCollision):
            transport_perturbation(b, [0.0, 1e-7], {})

    def test_wrong_replacement_count(self):
        with pytest.raises(ValueError):
            transport_perturbation(SegreStructure([(0.0, [2])]), [1.0, 2.0], {})


@pytest.fixture
def weyrs(monkeypatch):
    calls = []

    def counted(block, mu, mult, rank_tol):
        calls.append(mult)
        return original(block, mu, mult, rank_tol)

    original = jordan._weyr
    monkeypatch.setattr(jordan, "_weyr", counted)
    return calls


class TestKeptReading:
    # an experiment keeps its reading (deviation, spectra, Weyr sequences),
    # which depends only on the partitions, the values and rank_tol; the
    # next experiment on the same three reads it instead of computing it
    STRUCTURE = SegreStructure([(0.0, [2, 1]), (1.0, [2]), (2.0, [1])])
    VALUES = {1: 1e-2, 6: 1e-2}

    def test_relabeled_structure_computes_nothing(self, eigensolves, weyrs):
        relabeled = SegreStructure([(-1j, [2, 1]), (5.0, [2]), (1e-3, [1])])
        expected = outcome(numeric_experiment, relabeled, self.VALUES)
        eigensolves.clear()
        weyrs.clear()
        first = perturbation_experiment(self.STRUCTURE, self.VALUES)
        assert sorted(eigensolves) == [2, 3] and weyrs
        eigensolves.clear()
        weyrs.clear()
        assert outcome(perturbation_experiment, relabeled, self.VALUES) == expected
        assert perturbation_experiment(self.STRUCTURE, self.VALUES) == first
        assert eigensolves == [] and weyrs == []

    def test_other_cluster_tol_reads_the_spectra(self, eigensolves):
        tols = (0.0, 1e-3, 0.5)
        expected = [outcome(numeric_experiment, self.STRUCTURE, self.VALUES, tol)
                    for tol in tols]
        perturbation_experiment(self.STRUCTURE, self.VALUES)
        eigensolves.clear()
        kept = [outcome(perturbation_experiment, self.STRUCTURE, self.VALUES, tol)
                for tol in tols]
        assert eigensolves == []
        assert kept == expected

    def test_other_rank_tol_recomputes(self, eigensolves, weyrs):
        for rank_tol, solves in [(DEFAULT_RANK_TOL, [2, 3]), (DEFAULT_RANK_TOL, []),
                                 (1e-12, [2, 3]), (DEFAULT_RANK_TOL, [2, 3])]:
            eigensolves.clear()
            weyrs.clear()
            kept = outcome(perturbation_experiment, self.STRUCTURE, self.VALUES,
                           DEFAULT_CLUSTER_TOL, rank_tol)
            assert sorted(eigensolves) == solves
            assert bool(weyrs) == bool(solves)
            assert kept == outcome(numeric_experiment, self.STRUCTURE, self.VALUES,
                                   DEFAULT_CLUSTER_TOL, rank_tol)
            # numeric_experiment neither reads nor replaces the kept reading

    def test_other_values_recompute(self, eigensolves):
        perturbation_experiment(self.STRUCTURE, self.VALUES)
        eigensolves.clear()
        perturbation_experiment(self.STRUCTURE, {1: 1e-2, 6: 2e-2})
        assert sorted(eigensolves) == [2, 3]
        eigensolves.clear()
        # the same values in another order are the same values
        perturbation_experiment(self.STRUCTURE, {6: 2e-2, 1: 1e-2})
        assert eigensolves == []

    @pytest.mark.parametrize("index,bad", [(3, 3.0), (1, True), (2, "2")])
    def test_indices_checked_on_every_call(self, index, bad, eigensolves):
        # 3.0 and True hash and compare equal to 3 and 1, but are no indices
        perturbation_experiment(self.STRUCTURE, {index: 1e-2})
        eigensolves.clear()
        with pytest.raises(ValueError, match="parameter indices must be integers"):
            perturbation_experiment(self.STRUCTURE, {bad: 1e-2})
        with pytest.raises(ValueError, match="parameter indices must be integers"):
            transport_perturbation(self.STRUCTURE, [3.0, 5.0, 7.0], {bad: 1e-2})
        with pytest.raises(ValueError, match="parameter index 9 outside 1..8"):
            perturbation_experiment(self.STRUCTURE, {index: 1e-2, 9: 1e-2})
        with pytest.raises(ValueError, match="rank_tol must lie in"):
            perturbation_experiment(self.STRUCTURE, {index: 1e-2}, rank_tol=1.0)
        assert eigensolves == []
        # a call that raised leaves the kept reading as it was
        perturbation_experiment(self.STRUCTURE, {index: 1e-2})
        assert eigensolves == []

    @pytest.mark.parametrize("blocks", [
        [(complex(-0.0, -0.0), [2, 1]), (-2j, [1])],
        [(0.0, [2, 1]), (2j, [1])],
    ], ids=str)
    def test_signed_zero_parts(self, blocks, eigensolves):
        # values equal up to the sign of a zero part share a key, and give
        # the same bytes whether the second reads the first's or not
        structure = SegreStructure(blocks)
        variants = [{1: complex(1e-2, 0.0), 6: complex(0.0, -1e-2)},
                    {1: complex(1e-2, -0.0), 6: complex(-0.0, -1e-2)}]
        alone = []
        for values in variants:
            closure._reading.cache_clear()
            alone.append(outcome(perturbation_experiment, structure, values))
        assert alone[0] == alone[1]
        assert alone[0] == outcome(numeric_experiment, structure, variants[0])
        for first, second in (variants, variants[::-1]):
            closure._reading.cache_clear()
            perturbation_experiment(structure, first)
            eigensolves.clear()
            assert outcome(perturbation_experiment, structure, second) == alone[0]
            assert eigensolves == []

    @pytest.fixture
    def svds(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return original(*args, **kwargs)

        original = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", counted)
        return calls

    def test_repeated_experiment_returns_the_kept_result(self, eigensolves, svds):
        # the structure again, and with its eigenvalue 0.0 as -0.0, which
        # gives the same bases and so shares the kept result
        first = perturbation_experiment(self.STRUCTURE, self.VALUES)
        assert eigensolves and svds
        eigensolves.clear()
        svds.clear()
        signed = SegreStructure([(-0.0, [2, 1]), (1.0, [2]), (2.0, [1])])
        for structure in (self.STRUCTURE, signed, self.STRUCTURE):
            again = perturbation_experiment(structure, self.VALUES)
            assert again is first
        assert eigensolves == [] and svds == []
        closure._reading.cache_clear()
        assert repr(perturbation_experiment(signed, self.VALUES)) == repr(first)

    @pytest.mark.parametrize("tol", [DEFAULT_CLUSTER_TOL, 0.0, 1e-3, 0.05, 0.5])
    def test_kept_clusters_match_a_fresh_run(self, tol, svds):
        # a relabeled structure, or the structure at another cluster_tol,
        # clusters the kept spectra at its own radius and reads the kept
        # means and partitions: the result of a run from scratch
        relabeled = SegreStructure([(-1j, [2, 1]), (5.0, [2]), (1e-3, [1])])
        for side in (self.STRUCTURE, relabeled):
            closure._reading.cache_clear()
            fresh = outcome(perturbation_experiment, side, self.VALUES, tol)
            closure._reading.cache_clear()
            perturbation_experiment(self.STRUCTURE, self.VALUES)
            svds.clear()
            assert outcome(perturbation_experiment, side, self.VALUES, tol) == fresh
            if tol == DEFAULT_CLUSTER_TOL:
                # the same clusters as the first experiment: no rank SVD
                assert svds == []

    def test_threads_sharing_the_kept_reading(self):
        # eight threads, more than the cores, alternate two structures with
        # the same partitions, two value sets and two cluster_tol under a
        # short switch interval, so that the kept reading and result are
        # read, filled and replaced under each other's feet: every result
        # is the one-thread result
        relabeled = SegreStructure([(-1j, [2, 1]), (5.0, [2]), (1e-3, [1])])
        cases = [(side, values, tol) for side in (self.STRUCTURE, relabeled)
                 for values in (self.VALUES, {2: 3e-2, 7: 1e-2, 8: -1e-2})
                 for tol in (DEFAULT_CLUSTER_TOL, 1e-3)]
        expected = [outcome(numeric_experiment, *case) for case in cases]
        barrier = threading.Barrier(8)
        wrong = []

        def run(offset):
            barrier.wait(timeout=60)
            for k in range(40):
                at = (offset + k) % len(cases)
                got = outcome(perturbation_experiment, *cases[at])
                if got != expected[at]:
                    wrong.append((at, got))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []


@pytest.mark.parametrize("blocks", [[(0.0, [17])], [(0.0, [2000])],
                                    [(0.0, [1000]), (1.0, [1000])]],
                         ids=["17", "2000", "1000+1000"])
def test_order_cap_checked_before_any_matrix(blocks, monkeypatch):
    def deviation(*args):
        raise AssertionError("a matrix was built for an oversized structure")

    monkeypatch.setattr(closure, "_deviation", deviation)
    structure = SegreStructure(blocks)
    message = f"matrix order {structure.total_size} exceeds cap 16"
    with pytest.raises(ValueError, match=message):
        perturbation_experiment(structure, {})
    with pytest.raises(ValueError, match=message):
        transport_perturbation(
            structure, [eig + 10 for eig, _ in structure.blocks], {})


# Pattern values are k / 2**20 with 1049 <= k <= 104857: magnitudes in
# 1e-3..1e-1, exact in double precision, so the numerical experiment and the
# exact oracle perturb the same matrix.
VALUE_DENOMINATOR = 2 ** 20


def exact_experiment(structure, values):
    """Exact partition multiset of an Arnold-pattern perturbation.

    ``structure`` has real eigenvalues and ``values`` maps parameter indices
    to real values; floats are dyadic rationals, so both are taken exactly.
    For each irreducible factor ``f`` of degree ``d`` of the characteristic
    polynomial over Q, the ranks of ``f(A)**j`` drop by ``d`` times the Weyr
    characteristic shared by the ``d`` roots of ``f``: no eigenvalues and no
    tolerances are involved.  Also returns the smallest distance between
    distinct eigenvalues relative to the clustering radius of
    ``recover_structure``, ``DEFAULT_CLUSTER_TOL * max(1, ||A||_F)``.
    """
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix
    qq = sympy.QQ

    def exact(x):
        return qq(*float(x).as_integer_ratio())

    n = structure.total_size
    rows = [[qq(0)] * n for _ in range(n)]
    at = 0
    for eig, sizes in structure.blocks:
        for k in sizes:
            for i in range(at, at + k):
                rows[i][i] = exact(eig.real)
                if i + 1 < at + k:
                    rows[i][i + 1] = qq(1)
            at += k
    for row, col, param in arnold_pattern(structure).stars:
        if param in values:
            rows[row - 1][col - 1] += exact(values[param])
    a = DomainMatrix(rows, (n, n), qq)
    eye = DomainMatrix.eye(n, qq)
    charpoly = sympy.Poly(a.charpoly(), sympy.Symbol("x"), domain=qq)
    multiset, roots = [], []
    for factor, mult in charpoly.factor_list()[1]:
        f_of_a = DomainMatrix.zeros((n, n), qq)
        for c in factor.all_coeffs():
            f_of_a = f_of_a * a + eye * qq.from_sympy(c)
        degree = factor.degree()
        weyr, power, prev_rank = [], eye, n
        for _ in range(mult):
            power = power * f_of_a
            rank = power.rank()
            weyr.append((prev_rank - rank) // degree)
            prev_rank = rank
        assert sum(weyr) == mult
        multiset += [conjugate_partition(w for w in weyr if w)] * degree
        roots += list(np.roots([float(c) for c in factor.all_coeffs()]))
    radius = DEFAULT_CLUSTER_TOL * max(1.0, float(np.linalg.norm(
        [[float(v) for v in row] for row in rows])))
    gap = min((abs(u - v) for i, u in enumerate(roots) for v in roots[i + 1:]),
              default=np.inf)
    return tuple(sorted(multiset)), gap / radius


def test_perturbation_experiment_matches_exact_oracle():
    hypothesis = pytest.importorskip("hypothesis")
    pytest.importorskip("sympy")
    st = hypothesis.strategies

    @st.composite
    def experiments(draw):
        n = draw(st.integers(2, 6))
        count = draw(st.integers(1, min(3, n)))
        cuts = sorted(draw(st.lists(st.integers(1, n - 1), min_size=count - 1,
                                    max_size=count - 1, unique=True)))
        eigs = draw(st.lists(st.integers(-3, 3), min_size=count,
                             max_size=count, unique=True))
        blocks = []
        for eig, lo, hi in zip(eigs, [0, *cuts], [*cuts, n]):
            rest, sizes = hi - lo, []
            while rest:
                sizes.append(draw(st.integers(1, min([rest, *sizes[-1:]]))))
                rest -= sizes[-1]
            blocks.append((eig, sizes))
        structure = SegreStructure(blocks)
        params = draw(st.lists(st.integers(1, orbit_codim(structure)),
                               min_size=1, max_size=3, unique=True))
        numerators = {p: draw(st.integers(1049, 104857)) * draw(st.sampled_from((1, -1)))
                      for p in params}
        return structure, numerators

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(experiments())
    def check(case):
        structure, numerators = case
        values = {p: k / VALUE_DENOMINATOR for p, k in numerators.items()}
        exact, gap = exact_experiment(structure, values)
        try:
            results = [perturbation_experiment(structure, values)]
            if len(structure.blocks) > 1:
                # the bundle does not depend on the eigenvalue values, so
                # both transported sides must match the exact multiset too
                results += transport_perturbation(
                    structure, [eig + 10 for eig, _ in structure.blocks], values)
        except InconsistentRanks:
            hypothesis.event("inconclusive")  # an honest refusal
            return
        if gap <= 1.0:
            # distinct eigenvalues inside the clustering radius are merged by
            # design and may read as one Jordan chain; see
            # test_close_simple_eigenvalues_not_read_as_a_chain
            hypothesis.event("distinct eigenvalues within the clustering radius")
            return
        for recovered in results:
            assert partition_multiset(recovered) == exact

    check()


def test_regrouped_block_recovered_where_whole_matrix_ranks_fail():
    # the whole-matrix rank cutoffs, scaled by ||A - I||_2 ~ 4 with the
    # other groups' eigenvalues -3 and -2 in it, read Weyr (1, 1, 2) for the
    # triple eigenvalue 1; the group block's own scale reads the 3-block
    structure = SegreStructure([(1, [3, 1]), (-3, [1]), (-2, [1])])
    values = {6: 3374 / VALUE_DENOMINATOR}
    exact, gap = exact_experiment(structure, values)
    assert exact == ((1,), (1,), (1,), (3,)) and gap > 1.0
    recovered = perturbation_experiment(structure, values)
    assert partition_multiset(recovered) == exact
    eig, sizes = recovered.blocks[2]
    assert sizes == (3,) and abs(eig - 1) <= 1e-9


def test_per_group_recovery_matches_whole_matrix_recovery():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    eigenvalues = (0, 1, -1, 1j, -1j, 2, -2, 2j, 1 + 1j)

    @st.composite
    def experiments(draw):
        count = draw(st.integers(2, 3))
        n = draw(st.integers(count, 16))
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
        structure = SegreStructure(blocks)
        params = draw(st.lists(st.integers(1, orbit_codim(structure)),
                               min_size=1, max_size=3, unique=True))
        values = {p: 10 ** draw(st.floats(-3, -1))
                  * cmath.exp(1j * draw(st.floats(0, 2 * cmath.pi)))
                  for p in params}
        return structure, values

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(experiments())
    def check(case):
        structure, values = case
        pattern = arnold_pattern(structure)
        matrix = instantiate(pattern, {p: values.get(p, 0)
                                       for p in range(1, orbit_codim(structure) + 1)})
        try:
            per_group = perturbation_experiment(structure, values)
            whole = recover_structure(matrix)
        except InconsistentRanks:
            hypothesis.event("inconclusive")  # an honest refusal
            return
        assert partition_multiset(per_group) == partition_multiset(whole)
        radius = cluster_radius(matrix, DEFAULT_CLUSTER_TOL)
        for eig, sizes in per_group.blocks:
            nearest = min(whole.blocks, key=lambda block: abs(block[0] - eig))
            assert abs(nearest[0] - eig) <= radius and nearest[1] == sizes

    check()


@pytest.mark.xfail(strict=True, reason="eigenvalues 1.9e-6 apart fall inside "
                   "the clustering radius and their rank sequence reads as a "
                   "Jordan chain, a wrong structure returned without an error")
def test_close_simple_eigenvalues_not_read_as_a_chain():
    # exact eigenvalues 2, 2 (one 2-block), 261893/131072, 1047573/524288
    # and -2: the two simple ones near 1.998086 are 1.9e-6 apart, inside the
    # radius 1e-6 * ||A||_F = 4.6e-6
    structure = SegreStructure([(2.0, [2, 1, 1]), (-2.0, [1])])
    values = {k: v / VALUE_DENOMINATOR
              for k, v in {10: -2006, 2: -2008, 3: -3828}.items()}
    try:
        recovered = perturbation_experiment(structure, values)
    except InconsistentRanks:
        return
    assert partition_multiset(recovered) == ((1,), (1,), (1,), (2,))


@pytest.mark.xfail(strict=True, reason="x^3 = 1e12 has three simple roots "
                   "1.7e4 apart, but the clustering radius 1e-6 * ||A||_F "
                   "merges them and the rank cutoff 1e-8 * ||A||_2 reads "
                   "blocks [2, 1], a wrong structure returned without an "
                   "error")
def test_large_value_roots_not_read_as_a_chain():
    # the bottom-left star of J_3(0) set to 1e12 gives the companion matrix
    # of x^3 - 1e12; near 3e9 for a 3-block the roots merge into one cluster
    try:
        recovered = perturbation_experiment(SegreStructure([(0.0, [3])]),
                                            {1: 1e12})
    except InconsistentRanks:
        return
    assert partition_multiset(recovered) == ((1,), (1,), (1,))
