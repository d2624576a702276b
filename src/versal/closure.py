"""Closure-relation tooling for orbits and bundles.

An orbit (or bundle) can only contain strictly higher-codimensional orbits
(or bundles) in its closure, so comparing codimensions gives a cheap
necessary condition - never a sufficient one.  The perturbation experiments
below realize the complementary qualitative direction: instantiate the
miniversal pattern of a structure with small parameter values and read off
which Jordan structure the perturbed matrix actually has.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

from .codimension import bundle_codim, orbit_codim
from .deformation import arnold_pattern, instantiate
from .errors import EigenvalueCollision, SizeMismatch
from .jordan import (DEFAULT_CLUSTER_TOL, DEFAULT_RANK_TOL, SegreStructure,
                     cluster_radius, recover_structure)
from .linalg import eigenvalues


class ClosureMode(Enum):
    ORBIT = "orbit"
    BUNDLE = "bundle"


class ClosureReason(Enum):
    SAME_STRUCTURE = "same-structure"
    CODIM_PASSES = "codim-passes"
    CODIM_BLOCKS = "codim-blocks"


@dataclass(frozen=True)
class ClosureVerdict:
    """Outcome of the codimension necessary condition.

    ``possible=False`` always comes with ``reason=CODIM_BLOCKS``; a positive
    verdict never claims sufficiency.
    """

    possible: bool
    reason: ClosureReason
    source_codim: int
    target_codim: int


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


def _filled_values(pattern, values):
    count = pattern.parameter_count
    out = {index: 0j for index in range(1, count + 1)}
    for key, val in values.items():
        key = int(key)
        if not 1 <= key <= count:
            raise ValueError(f"parameter index {key} outside 1..{count}")
        out[key] = complex(val)
    return out


def perturbation_experiment(structure, values,
                            cluster_tol=DEFAULT_CLUSTER_TOL,
                            rank_tol=DEFAULT_RANK_TOL):
    """Structure of the Arnold-pattern perturbation of ``structure``.

    ``values`` maps pattern parameter indices (1-based) to complex values;
    omitted parameters stay zero.  The handful of pattern parameters stands
    in for a full dense perturbation, which is what makes these experiments
    cheap.
    """
    pattern = arnold_pattern(structure)
    perturbed = instantiate(pattern, _filled_values(pattern, values))
    return recover_structure(perturbed, cluster_tol, rank_tol)


def _check_group_separation(m, structure, threshold):
    # the pattern never couples distinct eigenvalues, so the perturbed matrix
    # is block diagonal and each group's spectrum can be read off its block
    groups = [slice(starts[0], starts[0] + sum(sizes))
              for (_, sizes), starts in zip(structure.blocks, structure.block_starts())]
    spectra = [eigenvalues(m[group, group]) for group in groups]
    for i in range(len(spectra)):
        for j in range(i + 1, len(spectra)):
            gap = min(abs(u - v) for u in spectra[i] for v in spectra[j])
            if gap <= threshold:
                raise EigenvalueCollision(
                    f"perturbed eigenvalue groups {i + 1} and {j + 1} come "
                    f"within {gap:.3e} of each other")


def transport_perturbation(structure, replacement_eigenvalues, values,
                           cluster_tol=DEFAULT_CLUSTER_TOL,
                           rank_tol=DEFAULT_RANK_TOL):
    """Apply one pattern perturbation to a structure and its relabeling.

    Builds the Arnold-pattern perturbation of ``structure`` and of the same
    structure with its eigenvalues replaced by ``replacement_eigenvalues``
    (one per group, pairwise distinct), then recovers both Jordan
    structures.  Matrices in the same bundle react to one perturbation with
    the same partition multiset, so the two results must agree up to
    eigenvalue values.

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

    pattern = arnold_pattern(structure)
    filled = _filled_values(pattern, values)
    results = []
    for base in (structure, relabeled):
        # Arnold stars depend only on the block sizes, which relabeling keeps
        perturbed = instantiate(replace(pattern, base=base), filled)
        if len(base.blocks) > 1:
            _check_group_separation(perturbed, base,
                                    cluster_radius(perturbed, cluster_tol))
        results.append(recover_structure(perturbed, cluster_tol, rank_tol))
    return tuple(results)
