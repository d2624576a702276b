"""Closure-relation tooling for orbits and bundles.

An orbit (or bundle) can only contain strictly higher-codimensional orbits
(or bundles) in its closure, so comparing codimensions gives a cheap
necessary condition - never a sufficient one.  The perturbation experiments
below realize the complementary qualitative direction: instantiate the
miniversal pattern of a structure with small parameter values and read off
which Jordan structure the perturbed matrix actually has, raising instead
when the perturbed eigenvalues of distinct groups merge.
"""

from __future__ import annotations

import functools
from enum import Enum

from ._record import ValueRecord
from .codimension import bundle_codim, orbit_codim
from .deformation import _deviation, _layout, _supplied, _with_base
from .errors import EigenvalueCollision, SizeMismatch
from .jordan import (DEFAULT_CLUSTER_TOL, DEFAULT_RANK_TOL, SegreStructure, _Kept,
                     _check_tolerances, _group_spans, _recover_groups)
from .linalg import check_order


class ClosureMode(Enum):
    ORBIT = "orbit"
    BUNDLE = "bundle"


class ClosureReason(Enum):
    SAME_STRUCTURE = "same-structure"
    CODIM_PASSES = "codim-passes"
    CODIM_BLOCKS = "codim-blocks"


class ClosureVerdict(ValueRecord):
    """Outcome of the codimension necessary condition.

    ``possible=False`` always comes with ``reason=CODIM_BLOCKS``; a positive
    verdict never claims sufficiency.
    """

    __match_args__ = ("possible", "reason", "source_codim", "target_codim")

    def __init__(self, possible, reason, source_codim, target_codim):
        object.__setattr__(self, "possible", possible)
        object.__setattr__(self, "reason", reason)
        object.__setattr__(self, "source_codim", source_codim)
        object.__setattr__(self, "target_codim", target_codim)


def _partition_multiset(structure):
    return tuple(sorted(structure.partitions()))


def closure_necessary(source, target, mode=ClosureMode.ORBIT):
    """Can ``target`` lie in the closure of ``source``'s orbit/bundle?

    Passes iff the structures coincide (up to eigenvalue values in bundle
    mode) or ``target`` has strictly larger codimension in the chosen mode.

    Raises
    ------
    SizeMismatch
        If the two structures have different total sizes.
    """
    if source.total_size != target.total_size:
        raise SizeMismatch(
            f"total sizes differ: {source.total_size} vs {target.total_size}")
    mode = ClosureMode(mode)
    if mode is ClosureMode.BUNDLE:
        same = _partition_multiset(source) == _partition_multiset(target)
        src, tgt = bundle_codim(source), bundle_codim(target)
    else:
        same = source == target
        src, tgt = orbit_codim(source), orbit_codim(target)
    if same:
        return ClosureVerdict(True, ClosureReason.SAME_STRUCTURE, src, tgt)
    if tgt > src:
        return ClosureVerdict(True, ClosureReason.CODIM_PASSES, src, tgt)
    return ClosureVerdict(False, ClosureReason.CODIM_BLOCKS, src, tgt)


def perturbation_experiment(structure, values,
                            cluster_tol=DEFAULT_CLUSTER_TOL,
                            rank_tol=DEFAULT_RANK_TOL):
    """Structure of the Arnold-pattern perturbation of ``structure``.

    ``values`` maps pattern parameter indices (1-based) to complex values;
    omitted parameters stay zero.  The handful of pattern parameters stands
    in for a full dense perturbation, which is what makes these experiments
    cheap.

    The pattern never couples distinct eigenvalues, so the perturbed matrix
    is block diagonal by eigenvalue group, and each group is recovered in
    its own coordinates: from its exact deviation block ``N + P``, the
    nilpotent Jordan part plus the filled stars, with one eigensolve that
    also serves the separation check and rank SVDs at the group's order.
    Each cluster's eigenvalue is the group's eigenvalue plus the cluster's
    local mean, rounded once.  Clustering uses the radius of
    :func:`~versal.jordan.recover_structure` on the whole matrix,
    ``cluster_tol * max(1, ||A||_F)``; the rank cutoffs use the deviation
    block's own scale, ``rank_tol * ||N + P - nu*I||_2**j`` at the local
    mean ``nu``.

    A group none of whose parameters has a nonzero value is unperturbed: its
    deviation block is exactly nilpotent, whose spectrum ``eigvals`` returns
    as exact zeros and whose ranks give its base partition, so the group
    gets its base eigenvalue and partition with no eigensolve and no rank
    SVDs.

    What an experiment reads depends only on the structure's partitions,
    the values and ``rank_tol``, not on its eigenvalues or on
    ``cluster_tol``: the deviation blocks, each perturbed group's spectrum,
    and each cluster's local mean, Weyr sequence and partition.  The last
    experiment's reading is kept, together with its last successful
    result.  An experiment that reads the same partitions and values at
    the same ``rank_tol`` as the one before it, such as the same structure
    relabeled or :func:`transport_perturbation` right after an experiment,
    clusters the kept spectra at its own radius and runs no eigensolve and
    no rank SVD that the earlier one ran; on the same structure at the
    same tolerances it returns the kept result.  The inputs are validated
    on every call, and the result is the same either way.

    Raises
    ------
    ValueError
        If ``structure.total_size`` exceeds ``linalg.MAX_ORDER``, before any
        matrix is built; if an index is not an integer or not a parameter of
        the pattern, as in :func:`~versal.deformation.instantiate`; if a
        tolerance is out of the range of
        :func:`~versal.jordan.recover_structure`, or the values are so large
        that structure recovery overflows.
    EigenvalueCollision
        If perturbed eigenvalues of distinct groups come within the
        clustering radius of each other.
    InconsistentRanks
        If a cluster's rank sequence does not fit its multiplicity.
    """
    return _experiment(structure, values, cluster_tol, rank_tol)


def _experiment(structure, values, cluster_tol, rank_tol):
    # perturbation_experiment, under a name of its own so that transport's
    # experiments are not counted as calls of the public function
    check_order(structure.total_size)
    partitions = structure.partitions()
    supplied = _supplied(values, range(1, len(_layout(partitions)[2]) + 1))
    _check_tolerances(cluster_tol, rank_tol)
    reading = _reading(partitions, tuple(sorted(supplied.items())), rank_tol)
    # equal blocks give the same bases below, signed zeros included; the
    # type of cluster_tol sets the precision of the clustering radius
    key = (structure.blocks, cluster_tol, type(cluster_tol))
    last = reading.result
    if last is not None and last[0] == key:
        return last[1]
    # each group's base is its diagonal entry in build_jcf
    labeling = ([eig + 0j for eig, _ in structure.blocks],
                _with_base(reading.deviation, structure))
    result = _recover_groups(reading.deviation, reading.groups, labeling, cluster_tol,
                             rank_tol, reading)
    reading.result = (key, result)
    return result


class _Reading(_Kept):
    # what experiments on one key read: the deviation N + P, the groups for
    # _recover_groups and what it keeps, which they fill and share, and the
    # last successful experiment's (key, result)
    __slots__ = ("deviation", "groups", "result")

    def __init__(self, deviation, groups):
        super().__init__()
        self.deviation, self.groups, self.result = deviation, groups, None


@functools.lru_cache(maxsize=1)
def _reading(partitions, supplied_items, rank_tol):
    # What an experiment reads, keyed by validated values only.  Equal
    # values that differ in the sign of a zero part share a key; they give
    # the same deviation, since adding a signed zero to an entry that
    # holds +0 or +1 leaves it as it is, and a zero value is skipped
    stars, _, owner = _layout(partitions)
    supplied = dict(supplied_items)
    deviation = _deviation(partitions, stars, supplied)
    deviation.flags.writeable = False
    # _deviation skips zero values, so a group none of whose parameters is
    # nonzero keeps exactly its nilpotent Jordan block
    moved = {owner[index - 1] for index, value in supplied_items if value}
    groups = tuple((span, None if g in moved else sizes)
                   for g, (span, sizes) in enumerate(zip(_group_spans(partitions),
                                                         partitions)))
    return _Reading(deviation, groups)


def transport_perturbation(structure, replacement_eigenvalues, values):
    """Apply one pattern perturbation to a structure and its relabeling.

    The results of :func:`perturbation_experiment` with the same ``values``
    on ``structure`` and on it with its eigenvalues replaced by
    ``replacement_eigenvalues`` (one per group, pairwise distinct), both at
    the default tolerances, run one after the other: the results, and the
    error raised if any, are those of the two experiments.  Arnold stars
    depend only on the block sizes, so both get one perturbation, and
    matrices in one bundle react to it with the same partition multiset:
    the two results must agree up to eigenvalue values.  The second
    experiment reads the same partitions and values as the first, so it
    reuses its eigensolves and rank SVDs; the first returns the kept result
    when the same experiment ran just before the transport.

    Raises
    ------
    EigenvalueCollision
        If the replacement eigenvalues are not pairwise distinct, or if the
        perturbed eigenvalue clusters of different groups merge on either
        side.
    """
    replacements = [complex(e) for e in replacement_eigenvalues]
    if len(replacements) != len(structure.blocks):
        raise ValueError(
            f"need {len(structure.blocks)} replacement eigenvalues, "
            f"got {len(replacements)}")
    for i in range(len(replacements)):
        for j in range(i + 1, len(replacements)):
            if replacements[i] == replacements[j]:
                raise EigenvalueCollision(
                    f"replacement eigenvalues {i + 1} and {j + 1} coincide")
    relabeled = SegreStructure(
        [(replacements[i], sizes) for i, (_, sizes) in enumerate(structure.blocks)])
    return tuple(_experiment(side, values, DEFAULT_CLUSTER_TOL, DEFAULT_RANK_TOL)
                 for side in (structure, relabeled))
