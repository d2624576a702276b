"""Orbit and bundle codimensions of Jordan structures.

The codimension of a similarity orbit equals the number of independent
parameters in a miniversal deformation of the matrix, which for a Jordan
type with descending block sizes ``k_1 >= k_2 >= ...`` per eigenvalue is
``sum_j (2j - 1) * k_j``.  The commutator-nullity oracle recomputes the same
number as ``n^2`` minus the rank of ``X -> X@A - A@X`` and exists to
cross-check the combinatorial formula.
"""

from __future__ import annotations

import numpy as np

from .jordan import build_jcf
from .linalg import numerical_rank

MAX_ORACLE_ORDER = 10


def orbit_codim(structure):
    """Codimension of the similarity orbit, by the parameter-count formula."""
    return sum((2 * j - 1) * k
               for _, sizes in structure.blocks
               for j, k in enumerate(sizes, start=1))


def orbit_dim(structure):
    """Dimension of the similarity orbit: ``n^2`` minus its codimension."""
    n = structure.total_size
    return n * n - orbit_codim(structure)


def bundle_codim(structure):
    """Orbit codimension minus the number of distinct eigenvalues."""
    return orbit_codim(structure) - len(structure.blocks)


def orbit_codim_oracle(structure):
    """Nullity of the commutator map ``X -> X@A - A@X`` at ``A = build_jcf``.

    Vectorizes the map into an ``n^2 x n^2`` matrix and counts its rank
    deficiency.  Only intended for validation; capped at total size 10.
    """
    n = structure.total_size
    if n > MAX_ORACLE_ORDER:
        raise ValueError(f"oracle capped at total size {MAX_ORACLE_ORDER}, got {n}")
    a = build_jcf(structure)
    eye = np.eye(n)
    commutator = np.kron(a.T, eye) - np.kron(eye, a)
    return n * n - numerical_rank(commutator)
