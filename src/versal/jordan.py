"""Jordan types and numerical recovery of Jordan structure.

A :class:`SegreStructure` records, per eigenvalue, the descending list of
Jordan block sizes; a :class:`WeyrStructure` holds the conjugate partitions.
:func:`recover_structure` goes from a concrete matrix back to its Segre data
using eigenvalue clustering followed by rank counts of shifted powers.
"""

from __future__ import annotations

import cmath
import itertools
import operator
from dataclasses import dataclass

import numpy as np

from .errors import InconsistentRanks
from .linalg import as_matrix, eigenvalues

# Defaults sized for perturbations well above roundoff (>= 1e-4 or so).
DEFAULT_CLUSTER_TOL = 1e-6
DEFAULT_RANK_TOL = 1e-8

# Structure recovery is capped at this order (rank counts of n powers).
MAX_RECOVERY_ORDER = 16


def _block_size(k):
    # 2.7 and "3" are rejected, not converted; bool is an int subclass
    try:
        if not isinstance(k, bool):
            return operator.index(k)
    except TypeError:
        pass
    raise ValueError(f"block sizes must be integers, got {k!r}")


def _validated_blocks(blocks, descending):
    normalized = []
    for eig, sizes in blocks:
        eig = complex(eig)
        if not cmath.isfinite(eig):
            raise ValueError(f"eigenvalues must be finite, got {eig}")
        sizes = tuple(_block_size(k) for k in sizes)
        if not sizes:
            raise ValueError("every eigenvalue needs at least one block")
        if any(k <= 0 for k in sizes):
            raise ValueError(f"block sizes must be positive, got {sizes}")
        if any(sizes[i] < sizes[i + 1] for i in range(len(sizes) - 1)):
            raise ValueError(
                f"block sizes must be descending, got {sizes}" if descending
                else f"Weyr entries must be weakly decreasing, got {sizes}")
        normalized.append((eig, sizes))
    if not normalized:
        raise ValueError("structure needs at least one eigenvalue")
    values = [eig for eig, _ in normalized]
    if len(set(values)) != len(values):
        raise ValueError("eigenvalues must be pairwise distinct")
    return tuple(normalized)


@dataclass(frozen=True)
class SegreStructure:
    """Jordan type: ``blocks`` is a tuple of ``(eigenvalue, sizes)`` pairs.

    Eigenvalues are finite and pairwise distinct, and each ``sizes`` tuple is
    a descending partition of that eigenvalue's algebraic multiplicity into
    integers; anything else raises ``ValueError``.
    """

    blocks: tuple

    def __init__(self, blocks):
        object.__setattr__(self, "blocks", _validated_blocks(blocks, descending=True))

    @property
    def total_size(self):
        return sum(sum(sizes) for _, sizes in self.blocks)

    @property
    def eigenvalues(self):
        return tuple(eig for eig, _ in self.blocks)

    def partitions(self):
        """Block-size partitions in listed eigenvalue order."""
        return tuple(sizes for _, sizes in self.blocks)

    def block_starts(self):
        """Per eigenvalue, the 0-based offset of each block in :func:`build_jcf`.

        Blocks sit along the diagonal in listed order, eigenvalue group by
        group, so ``zip(self.blocks, self.block_starts())`` walks the grid.
        """
        starts = []
        at = 0
        for _, sizes in self.blocks:
            starts.append(tuple(itertools.accumulate(sizes[:-1], initial=at)))
            at += sum(sizes)
        return tuple(starts)


@dataclass(frozen=True)
class WeyrStructure:
    """Conjugate form: per eigenvalue, the weakly decreasing Weyr characteristic."""

    blocks: tuple

    def __init__(self, blocks):
        object.__setattr__(self, "blocks", _validated_blocks(blocks, descending=False))

    @property
    def total_size(self):
        return sum(sum(w) for _, w in self.blocks)


def jordan_block(size, eigenvalue):
    """Upper bidiagonal block with ``eigenvalue`` on the diagonal."""
    # assigned, not multiplied, so nothing overflows; adding 0j turns a signed
    # zero part such as the real part of -2j into +0, like every other zero
    out = np.zeros((size, size), dtype=complex)
    np.fill_diagonal(out, complex(eigenvalue) + 0j)
    np.fill_diagonal(out[:, 1:], 1.0)
    return out


def build_jcf(structure):
    """Block-diagonal Jordan matrix for ``structure``, blocks in listed order."""
    n = structure.total_size
    out = np.zeros((n, n), dtype=complex)
    for (eig, sizes), starts in zip(structure.blocks, structure.block_starts()):
        for k, at in zip(sizes, starts):
            out[at:at + k, at:at + k] = jordan_block(k, eig)
    return out


def conjugate_partition(sizes):
    """Conjugate of an integer partition: entry ``j`` counts parts >= j+1."""
    sizes = tuple(sizes)
    if not sizes:
        return ()
    return tuple(sum(1 for k in sizes if k >= j) for j in range(1, max(sizes) + 1))


def segre_to_weyr(structure):
    """Per-eigenvalue conjugate partitions of the Jordan block sizes."""
    return WeyrStructure([(eig, conjugate_partition(sizes))
                          for eig, sizes in structure.blocks])


def weyr_to_segre(weyr):
    """Inverse of :func:`segre_to_weyr` (conjugation is an involution)."""
    return SegreStructure([(eig, conjugate_partition(w)) for eig, w in weyr.blocks])


def _cluster(values, threshold):
    """Single-linkage clusters under transitive closure of the distance bound."""
    values = list(values)
    parent = list(range(len(values)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            if abs(values[i] - values[j]) <= threshold:
                parent[find(i)] = find(j)

    groups = {}
    for i, v in enumerate(values):
        groups.setdefault(find(i), []).append(v)
    return list(groups.values())


def cluster_radius(m, cluster_tol):
    """Clustering radius of :func:`recover_structure`: ``cluster_tol * max(1, ||m||_F)``."""
    return cluster_tol * max(1.0, float(np.linalg.norm(m)))


def recover_structure(m, cluster_tol=DEFAULT_CLUSTER_TOL, rank_tol=DEFAULT_RANK_TOL):
    """Recover the Segre structure of a matrix.

    Eigenvalues within ``cluster_tol * max(1, ||m||_F)`` of each other (under
    transitive closure) form one cluster, represented by its arithmetic mean
    ``mu``.  For each cluster the Weyr characteristic is read off the rank
    sequence of ``(m - mu*I)**j`` and conjugated into block sizes.  Rank
    decisions for the ``j``-th power use the cutoff
    ``rank_tol * ||m - mu*I||_2**j``: a power that vanishes in exact
    arithmetic is all roundoff, so its own largest singular value cannot
    serve as the reference scale.  Returned eigenvalues are the cluster
    means, sorted lexicographically by (real, imaginary).

    Raises
    ------
    InconsistentRanks
        If a cluster's rank sequence is not weakly decreasing or does not
        account for the cluster multiplicity; the tolerances do not fit the
        input in that case.
    """
    m = as_matrix(m)
    n = m.shape[0]
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"structure recovery needs a square matrix, got {m.shape}")
    if n > MAX_RECOVERY_ORDER:
        raise ValueError(f"matrix order {n} exceeds cap {MAX_RECOVERY_ORDER}")

    clusters = _cluster(eigenvalues(m), cluster_radius(m, cluster_tol))

    eye = np.eye(n, dtype=complex)
    blocks = []
    for cluster in clusters:
        mu = complex(np.mean(cluster))
        mult = len(cluster)
        power = shifted = m - mu * eye
        weyr = []
        prev_rank = n
        for j in range(1, mult + 1):
            singular = np.linalg.svd(power, compute_uv=False)
            if j == 1:
                scale = float(singular[0])  # ||m - mu*I||_2
            rank = int(np.count_nonzero(singular > rank_tol * scale ** j))
            step = prev_rank - rank
            if step <= 0:
                break
            weyr.append(step)
            prev_rank = rank
            if sum(weyr) >= mult:
                break
            power = power @ shifted
        decreasing = all(weyr[i] >= weyr[i + 1] for i in range(len(weyr) - 1))
        if sum(weyr) != mult or not decreasing:
            raise InconsistentRanks(
                f"rank sequence near {mu:.6g} yields Weyr {tuple(weyr)} for "
                f"multiplicity {mult}; tolerances do not fit this input")
        blocks.append((mu, conjugate_partition(weyr)))

    blocks.sort(key=lambda item: (item[0].real, item[0].imag))
    return SegreStructure(blocks)
