"""Orbit and bundle codimensions of Jordan structures.

The codimension of a similarity orbit equals the number of independent
parameters in a miniversal deformation of the matrix, which for a Jordan
type with descending block sizes ``k_1 >= k_2 >= ...`` per eigenvalue is
``sum_j (2j - 1) * k_j``.  The commutator-nullity oracle recomputes the same
number as ``n^2`` minus the rank of ``X -> X@A - A@X`` and exists to
cross-check the combinatorial formula.  It never forms the ``n^2 x n^2``
Kronecker matrix of the map: the Jordan matrix is block diagonal by
eigenvalue group, so the map splits into one piece per ordered pair of
groups, and the oracle takes the singular values piece by piece, real
arithmetic for a group with itself.
"""

from __future__ import annotations

from ._numpy import np
from .jordan import _group_spans, build_jcf
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
    """
    n = structure.total_size
    if n > MAX_ORACLE_ORDER:
        raise ValueError(f"oracle capped at total size {MAX_ORACLE_ORDER}, got {n}")
    a = build_jcf(structure)
    spans = _group_spans(structure.partitions())
    singular = []
    for i, g in enumerate(spans):
        for h in spans[i:]:
            s = np.linalg.svd(_commutator_piece(a[g, g], a[h, h]), compute_uv=False)
            # the (h, g) piece is the (g, h) piece transposed, negated and
            # permuted, so it has the same singular values
            singular += [s] if g is h else [s, s]
    singular = np.concatenate(singular)
    return n * n - int(np.count_nonzero(singular > RANK_TOL * singular.max()))


def _commutator_piece(a_g, a_h):
    # matrix of X -> X @ a_h - a_g @ X on row-major vec(X), entry
    # ((i, j), (k, l)) = [i == k] a_h[l, j] - a_g[i, k] [j == l], written by
    # two indexed assignments instead of two np.kron calls; a piece whose
    # imaginary part vanishes, as every g == h piece does, is decomposed as
    # real
    rows, cols = a_g.shape[0], a_h.shape[0]
    piece = np.zeros((rows, cols, rows, cols), dtype=complex)
    i, j = np.arange(rows), np.arange(cols)
    piece[i, :, i, :] = a_h.T
    piece[:, j, :, j] -= a_g
    piece = piece.reshape(rows * cols, rows * cols)
    return piece.real if not piece.imag.any() else piece
