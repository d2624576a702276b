"""Orbit and bundle codimensions of Jordan structures.

The codimension of a similarity orbit equals the number of independent
parameters in a miniversal deformation of the matrix, which for a Jordan
type with descending block sizes ``k_1 >= k_2 >= ...`` per eigenvalue is
``sum_j (2j - 1) * k_j``.  The commutator-nullity oracle recomputes the same
number as ``n^2`` minus the rank of ``X -> X@A - A@X`` and exists to
cross-check the combinatorial formula.  It counts that rank exactly, in
integer steps: the map splits into one piece per ordered pair of eigenvalue
groups, a piece of two distinct eigenvalues has full rank, and the piece of
a group with itself is the signed incidence matrix of a graph, whose rank
union-find counts.  The nullity is kept per partition.
"""

from __future__ import annotations

import functools

from .jordan import _superdiagonal

MAX_ORACLE_ORDER = 10


def orbit_codim(structure):
    """Codimension of the similarity orbit, by the parameter-count formula."""
    return sum((2 * j - 1) * k
               for _, sizes in structure.blocks
               for j, k in enumerate(sizes, start=1))


def bundle_codim(structure):
    """Orbit codimension minus the number of distinct eigenvalues."""
    return orbit_codim(structure) - len(structure.blocks)


def orbit_codim_oracle(structure):
    """Nullity of the commutator map ``X -> X@A - A@X`` at ``A = build_jcf``.

    ``A`` is block diagonal by eigenvalue group, so the map splits into the
    pieces ``X_gh -> X_gh@A_h - A_g@X_gh`` on the blocks of ``X``, and its
    rank is the sum of theirs.  The piece of two groups is nonsingular by
    Sylvester's theorem, since ``SegreStructure`` keeps eigenvalues
    distinct, so only the piece of a group with itself has a nullity.  There
    the eigenvalue cancels, leaving the piece of the group's nilpotent
    Jordan matrix, whose rank is counted in integers.  So the count is exact
    however close together or far apart the eigenvalues lie, and it calls no
    floating-point routine.  Only intended for validation; capped at total
    size 10.

    Raises
    ------
    ValueError
        If the total size exceeds ``MAX_ORACLE_ORDER``.
    """
    n = structure.total_size
    if n > MAX_ORACLE_ORDER:
        raise ValueError(f"oracle capped at total size {MAX_ORACLE_ORDER}, got {n}")
    return sum(_nullity(sizes) for _, sizes in structure.blocks)


@functools.cache
def _nullity(sizes):
    # nullity of X -> X@N - N@X for the nilpotent Jordan matrix N of one
    # partition, whose superdiagonal s is build_jcf's.  Entry (i, j) of the
    # image is s[j-1]*X[i, j-1] - s[i]*X[i+1, j], so each row of the map's
    # matrix is a +1 and a -1, one of them or nothing: the signed incidence
    # matrix of a graph on the entries of X plus a ground vertex, which
    # stands in for a dropped term.  Its rank is the number of edges in a
    # spanning forest.  Keyed by partition; orbit_codim_oracle's cap bounds
    # the keys by the partitions of 1 to MAX_ORACLE_ORDER
    s = _superdiagonal((sizes,))
    m = len(s) + 1
    ground = m * m
    parent = list(range(ground + 1))

    def root(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    rank = 0
    for i in range(m):
        for j in range(m):
            a = root(i * m + j - 1 if j and s[j - 1] else ground)
            b = root((i + 1) * m + j if i + 1 < m and s[i] else ground)
            if a != b:
                parent[a] = b
                rank += 1
    return ground - rank
