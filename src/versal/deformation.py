"""Miniversal deformation patterns over a base Jordan form.

For a Jordan matrix the miniversal deformation can be taken with all free
entries confined to a sparse star pattern.  Two classical shapes are
generated here, both leaving blocks that couple distinct eigenvalues empty:

* ``Shape.ARNOLD`` - within the block grid of one eigenvalue, the pair
  ``(p, q)`` carries stars along its bottom row when ``q >= p`` and along its
  first column when ``q < p``; every star is an independent parameter.
* ``Shape.ALTERNATE`` - the pair ``(p, q)`` of size ``m x n`` carries stars
  on the lower Toeplitz diagonals with offsets ``max(m - n, 0) .. m - 1``;
  all stars on one diagonal share a single parameter, so the pattern has
  more stars but the same number of parameters.

Star coordinates and parameter indices are 1-based.  Parameters are numbered
per eigenvalue group: for each block row ``p`` first the bottom-row stars of
``(p, q >= p)`` left to right, then the first-column stars of
``(p' > p, p)`` top to bottom (the Alternate shape numbers one parameter per
diagonal, outermost first).

:func:`reduce_single_block` carries a perturbed single Jordan block to its
miniversal deformation by row/column elimination and returns the accumulated
similarity.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import MissingParameter, PivotBreakdown
from .jordan import build_jcf
from .linalg import as_matrix

# Absolute pivot floor for the shifted working matrix, whose pivots are
# 1 + O(||E||); inputs violating it are too far from the base block.
PIVOT_TOL = 1e-8


class Shape(Enum):
    ARNOLD = "arnold"
    ALTERNATE = "alternate"


@dataclass(frozen=True)
class DeformationPattern:
    """Star pattern of a miniversal deformation over ``base``.

    ``stars`` is a tuple of ``(row, col, parameter)`` triples with 1-based
    indices; several stars may share a parameter (Alternate shape only).
    """

    base: object
    shape: Shape
    stars: tuple

    @property
    def parameter_count(self):
        return len({param for _, _, param in self.stars})

    def positions(self):
        """Set of (row, col) pairs carrying a star."""
        return {(row, col) for row, col, _ in self.stars}


@dataclass(frozen=True, eq=False)
class ReductionResult:
    """Outcome of a single-block reduction.

    ``transform`` is the accumulated similarity ``S`` with
    ``S^-1 @ a @ S == deformed``; it is close to the identity for small
    input perturbations.
    """

    deformed: np.ndarray
    transform: np.ndarray


def arnold_pattern(structure):
    """Arnold-shape miniversal deformation pattern of ``structure``."""
    stars = []
    param = 0
    for (_, sizes), starts in zip(structure.blocks, structure.block_starts()):
        t = len(sizes)
        for p in range(t):
            bottom = starts[p] + sizes[p]
            for q in range(p, t):
                for c in range(sizes[q]):
                    param += 1
                    stars.append((bottom, starts[q] + c + 1, param))
            first_col = starts[p] + 1
            for later in range(p + 1, t):
                for r in range(sizes[later]):
                    param += 1
                    stars.append((starts[later] + r + 1, first_col, param))
    return DeformationPattern(structure, Shape.ARNOLD, tuple(stars))


def alternate_pattern(structure):
    """Toeplitz-diagonal miniversal pattern; parameter count matches Arnold's."""
    stars = []
    param = 0
    for (_, sizes), starts in zip(structure.blocks, structure.block_starts()):
        t = len(sizes)
        for p in range(t):
            for q in range(t):
                rows, cols = sizes[p], sizes[q]
                low = max(rows - cols, 0)
                for offset in range(rows - 1, low - 1, -1):
                    param += 1
                    for r in range(offset, rows):
                        c = r - offset
                        if c < cols:
                            stars.append((starts[p] + r + 1, starts[q] + c + 1, param))
    return DeformationPattern(structure, Shape.ALTERNATE, tuple(stars))


def instantiate(pattern, values):
    """Base Jordan matrix plus the pattern's stars filled with ``values``.

    ``values`` maps parameter index to a complex value; stars sharing a
    parameter all receive the same value (added on top of the base entry,
    so diagonal stars shift the eigenvalue).

    Raises
    ------
    MissingParameter
        If any parameter index of the pattern has no value.
    """
    supplied = {int(k): complex(v) for k, v in values.items()}
    needed = {param for _, _, param in pattern.stars}
    missing = sorted(needed - supplied.keys())
    if missing:
        raise MissingParameter(f"no value for parameter(s) {missing}")
    out = build_jcf(pattern.base)
    for row, col, param in pattern.stars:
        out[row - 1, col - 1] += supplied[param]
    return out


def reduce_single_block(a, eigenvalue, pivot_tol=PIVOT_TOL):
    """Reduce a perturbed single Jordan block to its miniversal deformation.

    ``a`` is expected to be ``J_k(eigenvalue) + E`` with ``E`` small.  Working
    on the shifted matrix ``b = a - eigenvalue*I``, each step ``p`` uses the
    superdiagonal pivot ``b[p, p+1]`` to eliminate the rest of row ``p`` by a
    similarity that only touches row/column ``p+1``; afterwards all free
    entries sit in the last row (the single-block Arnold pattern).

    Returns
    -------
    ReductionResult
        ``deformed`` equal to ``J_k(eigenvalue)`` plus a last-row deformation,
        and the accumulated ``transform``.

    Raises
    ------
    PivotBreakdown
        If a working pivot modulus drops below ``pivot_tol`` (the input is
        too far from the base block for this reduction).
    """
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"single-block reduction needs a square matrix, got {a.shape}")
    k = a.shape[0]
    lam = complex(eigenvalue)
    eye = np.eye(k, dtype=complex)

    b = a - lam * eye
    s = eye.copy()
    for p in range(k - 1):
        pivot = b[p, p + 1]
        if abs(pivot) < pivot_tol:
            raise PivotBreakdown(
                f"pivot {p + 1} has modulus {abs(pivot):.3e} < {pivot_tol:g}")
        t = eye.copy()
        t[p + 1, :] = -b[p, :] / pivot
        t[p + 1, p + 1] = 1.0 / pivot
        # the inverse of t is the identity with row p+1 replaced by row p of b
        t_inv = eye.copy()
        t_inv[p + 1, :] = b[p, :]
        b = t_inv @ b @ t
        s = s @ t

    # rows 1..k-1 are exact unit rows in exact arithmetic; drop the dust
    for p in range(k - 1):
        b[p, :] = 0.0
        b[p, p + 1] = 1.0

    return ReductionResult(deformed=b + lam * eye, transform=s)
