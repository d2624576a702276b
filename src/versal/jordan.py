"""Jordan types and numerical recovery of Jordan structure.

A :class:`SegreStructure` records, per eigenvalue, the descending list of
Jordan block sizes; :func:`conjugate_partition` gives its Weyr characteristic.
:func:`recover_structure` goes from a concrete matrix back to its Segre data
using eigenvalue clustering followed by rank counts of shifted powers.
"""

from __future__ import annotations

import itertools
import math
import operator

from ._numpy import np
from ._record import ValueRecord
from .errors import EigenvalueCollision, InconsistentRanks
from .linalg import as_matrix, eigenvalues

# Defaults sized for perturbations well above roundoff (>= 1e-4 or so).
DEFAULT_CLUSTER_TOL = 1e-6
DEFAULT_RANK_TOL = 1e-8


def _integer(value, what):
    # 2.7 and "3" are rejected, not converted; bool is an int subclass
    if type(value) is int:
        return value
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise ValueError(f"{what} must be integers, got {value!r}")


def _validated_blocks(blocks, partitions=False):
    # partitions=True skips the checks on sizes that are descending tuples of
    # positive integers by construction
    normalized = []
    for eig, sizes in blocks:
        eig = complex(eig)
        if not (math.isfinite(eig.real) and math.isfinite(eig.imag)):
            raise ValueError(f"eigenvalues must be finite, got {eig}")
        if not partitions:
            sizes = tuple(_integer(k, "block sizes") for k in sizes)
            if not sizes:
                raise ValueError("every eigenvalue needs at least one block")
            if any(k <= 0 for k in sizes):
                raise ValueError(f"block sizes must be positive, got {sizes}")
            if any(sizes[i] < sizes[i + 1] for i in range(len(sizes) - 1)):
                raise ValueError(f"block sizes must be descending, got {sizes}")
        normalized.append((eig, sizes))
    if not normalized:
        raise ValueError("structure needs at least one eigenvalue")
    values = [eig for eig, _ in normalized]
    if len(set(values)) != len(values):
        raise ValueError("eigenvalues must be pairwise distinct")
    return tuple(normalized)


class SegreStructure(ValueRecord):
    """Jordan type: ``blocks`` is a tuple of ``(eigenvalue, sizes)`` pairs.

    Eigenvalues are finite and pairwise distinct, and each ``sizes`` tuple is
    a descending partition of that eigenvalue's algebraic multiplicity into
    integers; anything else raises ``ValueError``.
    """

    __match_args__ = ("blocks",)

    def __init__(self, blocks):
        object.__setattr__(self, "blocks", _validated_blocks(blocks))

    @classmethod
    def _from_parts(cls, blocks):
        # for sizes that are partitions by construction; a computed eigenvalue
        # can still overflow, or two cluster means coincide
        out = object.__new__(cls)
        object.__setattr__(out, "blocks", _validated_blocks(blocks, partitions=True))
        return out

    @property
    def total_size(self):
        return sum(sum(sizes) for _, sizes in self.blocks)

    def partitions(self):
        """Block-size partitions in listed eigenvalue order."""
        return tuple(sizes for _, sizes in self.blocks)

    def block_starts(self):
        """Per eigenvalue, the 0-based offset of each block in :func:`build_jcf`.

        Blocks sit along the diagonal in listed order, eigenvalue group by
        group, so ``zip(self.blocks, self.block_starts())`` walks the grid.
        """
        return _block_starts(self.partitions())


def _block_starts(partitions):
    # SegreStructure.block_starts from the block sizes alone
    starts = []
    at = 0
    for sizes in partitions:
        starts.append(tuple(itertools.accumulate(sizes[:-1], initial=at)))
        at += sum(sizes)
    return tuple(starts)


def _group_spans(partitions):
    # index slice of each eigenvalue group's diagonal block in build_jcf
    return [slice(starts[0], starts[0] + sum(sizes))
            for sizes, starts in zip(partitions, _block_starts(partitions))]


def jordan_block(size, eigenvalue):
    """Upper bidiagonal block with ``eigenvalue`` on the diagonal."""
    # assigned, not multiplied, so nothing overflows; adding 0j turns a signed
    # zero part such as the real part of -2j into +0, like every other zero
    out = np.zeros((size, size), dtype=complex)
    np.fill_diagonal(out, complex(eigenvalue) + 0j)
    np.fill_diagonal(out[:, 1:], 1.0)
    return out


def _superdiagonal(partitions):
    # build_jcf's superdiagonal: a 1 except where the next block starts
    ends = {at - 1 for starts in _block_starts(partitions) for at in starts if at}
    return [0.0 if i in ends else 1.0 for i in range(sum(map(sum, partitions)) - 1)]


def _nilpotent(partitions):
    # build_jcf at eigenvalue zero: the superdiagonal above, everything else +0
    n = sum(map(sum, partitions))
    out = np.zeros((n, n), dtype=complex)
    out.flat[1::n + 1] = _superdiagonal(partitions)
    return out


def _base_diagonal(structure):
    # as in jordan_block, + 0j turns signed zero parts into +0
    return [eig + 0j for eig, sizes in structure.blocks for _ in range(sum(sizes))]


def build_jcf(structure):
    """Block-diagonal Jordan matrix for ``structure``, blocks in listed order."""
    out = _nilpotent(structure.partitions())
    out.flat[::out.shape[0] + 1] = _base_diagonal(structure)
    return out


def conjugate_partition(sizes):
    """Conjugate of an integer partition: entry ``j`` counts parts >= j+1."""
    sizes = tuple(sizes)
    if not sizes:
        return ()
    return tuple(sum(1 for k in sizes if k >= j) for j in range(1, max(sizes) + 1))


def _cluster(spectrum, radius):
    # single-linkage clusters of a spectrum: every pair within the radius
    # joins, and the clusters are tuples of member indices in the order of
    # their first members; Python complex numbers give the same moduli as
    # numpy's scalars, faster
    values = spectrum.tolist()
    parent = list(range(len(values)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, value in enumerate(values):
        for j in range(i + 1, len(values)):
            if abs(value - values[j]) <= radius:
                parent[find(i)] = find(j)
    clusters = {}
    for i in range(len(values)):
        clusters.setdefault(find(i), []).append(i)
    return tuple(tuple(members) for members in clusters.values())


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
    ValueError
        If ``rank_tol`` lies outside ``[0, 1)`` or ``cluster_tol`` is
        negative or not finite; from :func:`~versal.linalg.eigenvalues`, if
        ``m`` is not square or its order exceeds ``linalg.MAX_ORDER``; or if
        the entries are so large that the clustering radius or the rank
        cutoffs overflow.
    InconsistentRanks
        If a cluster's rank sequence is not weakly decreasing or does not
        account for the cluster multiplicity; the tolerances do not fit the
        input in that case.
    """
    m = as_matrix(m)
    _check_tolerances(cluster_tol, rank_tol)
    return _recover_groups(m, [(slice(None), None)], (None, m), cluster_tol, rank_tol,
                           _Kept())


def _check_tolerances(cluster_tol, rank_tol, names=("cluster_tol", "rank_tol")):
    # the one range rule for both tolerances, written so that NaN fails it;
    # names are what the message calls them
    if not 0 <= rank_tol < 1:
        raise ValueError(f"{names[1]} must lie in [0, 1), got {rank_tol}")
    if not 0 <= cluster_tol < math.inf:
        raise ValueError(
            f"{names[0]} must be finite and non-negative, got {cluster_tol}")


class _Kept:
    """What _recover_groups reads off one set of blocks at one rank_tol.

    Per group ``g``, ``spectra`` holds its spectrum; per cluster ``(g,
    members)``, ``clusters`` holds its local mean, its Weyr sequence and the
    partition conjugate to it, or None where the sequence does not fit the
    cluster's multiplicity.  None of it depends on a labeling's eigenvalues
    or on ``cluster_tol``.
    """

    __slots__ = ("spectra", "clusters")

    def __init__(self):
        self.spectra, self.clusters = {}, {}


def _recover_groups(deviation, groups, labeling, cluster_tol, rank_tol, kept):
    # The structure of a block diagonal matrix under one labeling, for
    # tolerances that passed _check_tolerances.  groups lists a (slice,
    # partition) pair per diagonal block of deviation; the labeling is a
    # (bases, matrix) pair: per group the eigenvalue that its block is the
    # deviation from (bases None: no offset, the block is the matrix's own),
    # and the whole matrix, whose Frobenius norm sets the clustering radius.
    # kept, a _Kept, is filled as its entries are computed, so a call on the
    # same blocks at the same rank_tol may pass an earlier call's and read
    # them instead: it then clusters the kept spectra at its own radius.  A
    # cluster's eigenvalue is its base plus its local mean, rounded once.  A
    # partition, where given, says the block is exactly the nilpotent
    # Jordan matrix of that partition: eigvals returns its spectrum as exact
    # zeros and the rank tests give the partition, so neither is computed.
    # Entries far above the matrix's scale overflow the radius or the rank
    # cutoffs; the errstate raises there instead of computing on with inf
    bases, matrix = labeling
    spectra, clusters = kept.spectra, kept.clusters
    with np.errstate(over="raise", invalid="raise"):
        try:
            radius = cluster_radius(matrix, cluster_tol)
            placed = []
            for g, (span, partition) in enumerate(groups):
                if g not in spectra:
                    spectra[g] = (
                        eigenvalues(deviation[span, span]) if partition is None
                        else np.zeros(span.stop - span.start, dtype=complex))
                spectrum = _labeled(bases, g, spectra[g])
                for i, earlier in enumerate(placed):
                    gap = abs(earlier[:, None] - spectrum).min()
                    if gap <= radius:
                        raise EigenvalueCollision(
                            f"perturbed eigenvalue groups {i + 1} and "
                            f"{len(placed) + 1} come within {gap:.3e} of each other")
                placed.append(spectrum)
            blocks = []
            for g, (span, partition) in enumerate(groups):
                if partition is not None:
                    blocks.append((_labeled(bases, g, 0j), partition))
                    continue
                spectrum = spectra[g]
                for members in _cluster(spectrum, radius):
                    key = (g, members)
                    if key not in clusters:
                        clusters[key] = _read_cluster(deviation[span, span], spectrum,
                                                      members, rank_tol)
                    local, weyr, sizes = clusters[key]
                    mu = _labeled(bases, g, local)
                    if sizes is None:
                        raise InconsistentRanks(
                            f"rank sequence near {mu:.6g} yields Weyr {weyr} for "
                            f"multiplicity {len(members)}; tolerances do not fit "
                            "this input")
                    blocks.append((mu, sizes))
            blocks.sort(key=lambda item: (item[0].real, item[0].imag))
            return SegreStructure._from_parts(blocks)
        except (FloatingPointError, OverflowError) as exc:
            raise ValueError(
                f"matrix entries overflow the structure recovery: {exc}") from exc


def _read_cluster(block, spectrum, members, rank_tol):
    # a cluster's local mean, Weyr sequence and partition (None where the
    # sequence is not weakly decreasing or does not add up to the cluster's
    # multiplicity)
    mult = len(members)
    local = complex(np.add.reduce(spectrum[list(members)]) / mult)
    weyr = _weyr(block, local, mult, rank_tol)
    decreasing = all(weyr[i] >= weyr[i + 1] for i in range(len(weyr) - 1))
    sizes = conjugate_partition(weyr) if sum(weyr) == mult and decreasing else None
    return local, weyr, sizes


def _labeled(bases, g, local):
    # a value local to group g in a labeling's coordinates, rounded once;
    # bases None adds nothing, so that signed zeros survive
    return local if bases is None else bases[g] + local


def _weyr(block, mu, mult, rank_tol):
    # rank drops of (block - mu*I)**j, cut at rank_tol * ||block - mu*I||_2**j,
    # until they stop or account for the cluster's multiplicity mult
    n = block.shape[0]
    shifted = block.copy()
    shifted.flat[::n + 1] -= mu
    power = shifted
    weyr = []
    prev_rank = n
    for j in range(1, mult + 1):
        singular = np.linalg.svd(power, compute_uv=False)
        if j == 1:
            scale = float(singular[0])  # ||block - mu*I||_2
        rank = int(np.count_nonzero(singular > rank_tol * scale ** j))
        step = prev_rank - rank
        if step <= 0:
            break
        weyr.append(step)
        prev_rank = rank
        if sum(weyr) >= mult:
            break
        power = power @ shifted
    return tuple(weyr)
