"""Orbit and bundle codimensions of Jordan structures.

The codimension of a similarity orbit equals the number of independent
parameters in a miniversal deformation of the matrix, which for a Jordan
type with descending block sizes ``k_1 >= k_2 >= ...`` per eigenvalue is
``sum_j (2j - 1) * k_j``.  The commutator-nullity oracle recomputes the same
number as ``n^2`` minus the rank of ``X -> X@A - A@X`` and exists to
cross-check the combinatorial formula.  It never forms the ``n^2 x n^2``
Kronecker matrix of the map: the Jordan matrix is block diagonal by
eigenvalue group, so the map splits into one piece per ordered pair of
groups.  Every piece is that of the nilpotent Jordan matrices of its two
partitions plus the difference of their eigenvalues on the diagonal, and
that difference is exactly zero for a group with itself.  The nullity is
kept per structure, in a cache bounded by ``_KEPT_NULLITIES``.
"""

from __future__ import annotations

import functools
import math

from ._numpy import np
from .jordan import _nilpotent
from .linalg import RANK_TOL

MAX_ORACLE_ORDER = 10
# structures whose nullity the oracle keeps
_KEPT_NULLITIES = 512


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
    rank is the sum of theirs.  Each piece's rank counts its singular values
    above ``linalg.RANK_TOL`` times the largest of them, so that pieces of
    distant eigenvalues, whose singular values are about their distance,
    do not push the others' below the cutoff.  The nullities of the most
    recently used structures, up to a fixed number, are kept, so a structure
    seen before costs one lookup.  Only intended for validation; capped at
    total size 10.

    Raises
    ------
    ValueError
        If the total size exceeds ``MAX_ORACLE_ORDER``; if the difference
        of two eigenvalues overflows, which no piece's singular values
        could represent; or if two eigenvalues lie so close that their
        piece, nonsingular by Sylvester's theorem, ranks below its order,
        which would read a nullity above the true one.
    """
    n = structure.total_size
    if n > MAX_ORACLE_ORDER:
        raise ValueError(f"oracle capped at total size {MAX_ORACLE_ORDER}, got {n}")
    return _nullity(structure.blocks)


@functools.lru_cache(maxsize=_KEPT_NULLITIES)
def _nullity(blocks):
    # keyed by validated blocks: equal eigenvalues that differ in the sign of
    # a zero part give the same pieces, since _cross_piece adds +0j first
    n = sum(sum(sizes) for _, sizes in blocks)
    # a group's piece with itself has lambda - lambda, exactly +0 for a finite
    # lambda, on its diagonal: it is the nilpotent piece of its partition, bit
    # for bit
    rank = sum(_rank(np.linalg.svd(_commutator_piece(sizes, sizes), compute_uv=False))
               for _, sizes in blocks)
    for g, (eig_g, sizes_g) in enumerate(blocks):
        for eig_h, sizes_h in blocks[g + 1:]:
            # the (h, g) piece is the (g, h) piece transposed, negated and
            # permuted, so it has the same singular values
            singular = np.linalg.svd(_cross_piece(eig_g, sizes_g, eig_h, sizes_h),
                                     compute_uv=False)
            # two groups with different eigenvalues have a nonsingular piece
            # (Sylvester's theorem); a rank below its order is a misreading
            if _rank(singular) < singular.size:
                raise ValueError(
                    f"eigenvalues {eig_g} and {eig_h} lie {abs(eig_h - eig_g):.3e} "
                    "apart, too close for the commutator-nullity oracle: their "
                    "piece, nonsingular in exact arithmetic, reads rank-deficient")
            rank += 2 * singular.size
    return n * n - rank


def _rank(singular):
    # singular values in descending order above RANK_TOL times the largest
    return int(np.count_nonzero(singular > RANK_TOL * singular[0]))


def _cross_piece(eig_g, sizes_g, eig_h, sizes_h):
    # the piece of groups g < h of build_jcf, bit for bit: the nilpotent
    # piece with build_jcf's difference of diagonal entries on its diagonal,
    # as a real matrix if that difference's imaginary part vanishes
    shift = (eig_h + 0j) - (eig_g + 0j)
    if not math.isfinite(math.hypot(shift.real, shift.imag)):
        raise ValueError(f"the difference of eigenvalues {eig_h} and {eig_g} "
                         "overflows the commutator-nullity oracle")
    piece = _commutator_piece(sizes_g, sizes_h)
    if shift.imag:
        piece = piece.astype(complex)
    else:
        shift = shift.real
    piece.flat[::piece.shape[0] + 1] = shift
    return piece


def _commutator_piece(sizes_g, sizes_h):
    # the nilpotent piece: matrix of X -> X @ n_h - n_g @ X on row-major
    # vec(X), for the nilpotent Jordan matrices n_g and n_h of two
    # partitions, entry ((i, j), (k, l)) = [i == k] n_h[l, j] - n_g[i, k]
    # [j == l], written by two indexed assignments instead of two np.kron
    # calls
    n_g, n_h = (_nilpotent((sizes,)).real for sizes in (sizes_g, sizes_h))
    rows, cols = n_g.shape[0], n_h.shape[0]
    piece = np.zeros((rows, cols, rows, cols))
    i, j = np.arange(rows), np.arange(cols)
    piece[i, :, i, :] = n_h.T
    piece[:, j, :, j] -= n_g
    return piece.reshape(rows * cols, rows * cols)
