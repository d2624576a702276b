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
that difference is exactly zero for a group with itself.  So the singular
values of a group's piece with itself are computed once per partition, and
the eigenvalue-free piece of two groups once per pair of partitions; under
``MAX_ORACLE_ORDER`` the 138 partitions and 938 pairs of them bound both
caches.
"""

from __future__ import annotations

import functools
import math

from ._numpy import np
from .jordan import _nilpotent
from .linalg import RANK_TOL

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
    pieces ``X_gh -> X_gh@A_h - A_g@X_gh`` on the blocks of ``X``; their
    singular values together are those of the ``n^2 x n^2`` matrix of the
    map.  The rank counts those above ``linalg.RANK_TOL`` times the largest
    of them.  Only intended for validation; capped at total size 10.

    Raises
    ------
    ValueError
        If the total size exceeds ``MAX_ORACLE_ORDER``, or if the difference
        of two eigenvalues overflows, which no piece's singular values
        could represent.
    """
    n = structure.total_size
    if n > MAX_ORACLE_ORDER:
        raise ValueError(f"oracle capped at total size {MAX_ORACLE_ORDER}, got {n}")
    blocks = structure.blocks
    singular = [_self_singular_values(sizes) for _, sizes in blocks]
    for g, (eig_g, sizes_g) in enumerate(blocks):
        for eig_h, sizes_h in blocks[g + 1:]:
            s = np.linalg.svd(_cross_piece(eig_g, sizes_g, eig_h, sizes_h),
                              compute_uv=False)
            # the (h, g) piece is the (g, h) piece transposed, negated and
            # permuted, so it has the same singular values
            singular += [s, s]
    singular = np.concatenate(singular)
    return n * n - int(np.count_nonzero(singular > RANK_TOL * singular.max()))


@functools.cache
def _self_singular_values(sizes):
    # a group's piece with itself has lambda - lambda, exactly +0 for a finite
    # lambda, on its diagonal: it is the nilpotent piece of its partition, bit
    # for bit
    s = np.linalg.svd(_commutator_piece(sizes, sizes), compute_uv=False)
    s.flags.writeable = False
    return s


@functools.cache
def _nilpotent_piece(sizes_g, sizes_h):
    piece = _commutator_piece(sizes_g, sizes_h)
    piece.flags.writeable = False
    return piece


def _cross_piece(eig_g, sizes_g, eig_h, sizes_h):
    # the piece of groups g < h of build_jcf, bit for bit: the nilpotent
    # piece with build_jcf's difference of diagonal entries on its diagonal,
    # as a real matrix if that difference's imaginary part vanishes
    shift = (eig_h + 0j) - (eig_g + 0j)
    if not math.isfinite(math.hypot(shift.real, shift.imag)):
        raise ValueError(f"the difference of eigenvalues {eig_h} and {eig_g} "
                         "overflows the commutator-nullity oracle")
    piece = _nilpotent_piece(sizes_g, sizes_h)
    if shift.imag:
        piece = piece.astype(complex)
    else:
        piece, shift = piece.copy(), shift.real
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
