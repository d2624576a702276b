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

import functools
from enum import Enum

from ._numpy import np
from ._record import Record, ValueRecord
from .errors import MissingParameter, PivotBreakdown
from .jordan import _base_diagonal, _block_starts, _integer, _nilpotent
from .linalg import as_matrix

# Absolute pivot floor for the shifted working matrix, whose pivots are
# 1 + O(||E||); inputs violating it are too far from the base block.
PIVOT_TOL = 1e-8


class Shape(Enum):
    ARNOLD = "arnold"
    ALTERNATE = "alternate"


class DeformationPattern(ValueRecord):
    """Star pattern of a miniversal deformation over ``base``.

    ``stars`` is a tuple of ``(row, col, parameter)`` triples with 1-based
    indices; several stars may share a parameter (Alternate shape only).
    """

    __match_args__ = ("base", "shape", "stars")

    def __init__(self, base, shape, stars):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "stars", stars)

    @property
    def parameter_count(self):
        return len({param for _, _, param in self.stars})


class ReductionResult(Record):
    """Outcome of a single-block reduction.

    ``transform`` is the accumulated similarity ``S`` with
    ``S^-1 @ a @ S == deformed``; it is close to the identity for small
    input perturbations.
    """

    __match_args__ = ("deformed", "transform")

    def __init__(self, deformed, transform):
        object.__setattr__(self, "deformed", deformed)
        object.__setattr__(self, "transform", transform)


def _arnold_group(sizes, starts, param):
    # Arnold stars of one eigenvalue group, parameters numbered on from param
    stars = []
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
    return stars


def _alternate_group(sizes, starts, param):
    # Alternate stars of one eigenvalue group, parameters numbered on from param
    stars = []
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
    return stars


@functools.lru_cache(maxsize=256)
def _layout(partitions):
    # stars depend only on the block sizes: per partition tuple, the Arnold
    # and Alternate star tuples and the 0-based group of each parameter
    # (entry i - 1 for parameter i; both shapes number their parameters
    # group by group, so one map serves both)
    arnold, alternate, owner = [], [], []
    for group, (sizes, starts) in enumerate(zip(partitions, _block_starts(partitions))):
        arnold += _arnold_group(sizes, starts, len(owner))
        alternate += _alternate_group(sizes, starts, len(owner))
        owner += [group] * (arnold[-1][2] - len(owner))
    return tuple(arnold), tuple(alternate), tuple(owner)


def arnold_pattern(structure):
    """Arnold-shape miniversal deformation pattern of ``structure``."""
    return DeformationPattern(structure, Shape.ARNOLD, _layout(structure.partitions())[0])


def alternate_pattern(structure):
    """Toeplitz-diagonal miniversal pattern; parameter count matches Arnold's."""
    return DeformationPattern(structure, Shape.ALTERNATE,
                              _layout(structure.partitions())[1])


def _supplied(values, needed):
    # the values by integer index, each index one of the pattern's parameter
    # indices needed: the one home of the parameter-index rule
    supplied = {_integer(k, "parameter indices"): complex(v)
                for k, v in values.items()}
    unknown = sorted(k for k in supplied if k not in needed)
    if unknown:
        raise ValueError(f"parameter index {unknown[0]} outside 1..{len(needed)}")
    return supplied


def _deviation(partitions, stars, supplied):
    # instantiate without the base eigenvalues and with omitted parameters
    # zero: the nilpotent Jordan part plus the stars filled with the
    # _supplied values
    out = _nilpotent(partitions)
    for row, col, param in stars:
        # a zero value is skipped: the nilpotent part holds no -0.0, so adding
        # it would leave the entry as it is
        if supplied.get(param):
            out[row - 1, col - 1] += supplied[param]
    return out


def _with_base(deviation, structure):
    # deviation plus structure's eigenvalues on the diagonal, the matrix that
    # instantiate returns; adding them last gives the same entries as adding
    # the stars to build_jcf, signed zeros included
    out = deviation.copy()
    out.flat[::out.shape[0] + 1] += _base_diagonal(structure)
    return out


def instantiate(pattern, values):
    """Base Jordan matrix plus the pattern's stars filled with ``values``.

    ``values`` maps parameter index to a complex value; stars sharing a
    parameter all receive the same value (added on top of the base entry,
    so diagonal stars shift the eigenvalue).

    Raises
    ------
    ValueError
        If an index is not an integer (``bool``, ``2.0`` and ``"4"`` are
        rejected, not converted) or lies outside the pattern's parameters.
    MissingParameter
        If any parameter index of the pattern has no value.
    """
    needed = {param for _, _, param in pattern.stars}
    supplied = _supplied(values, needed)
    missing = sorted(needed - supplied.keys())
    if missing:
        raise MissingParameter(f"no value for parameter(s) {missing}")
    return _with_base(_deviation(pattern.base.partitions(), pattern.stars, supplied),
                      pattern.base)


def reduce_single_block(a, eigenvalue):
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
        If a working pivot modulus drops below ``PIVOT_TOL`` (the input is
        too far from the base block for this reduction).
    ValueError
        If the matrix is not square, or its entries overflow the similarity
        updates.
    """
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"single-block reduction needs a square matrix, got {a.shape}")
    k = a.shape[0]
    lam = complex(eigenvalue)
    eye = np.eye(k, dtype=complex)

    # entries far above the pivots' scale overflow the similarity updates;
    # the errstate raises there instead of returning NaN
    with np.errstate(over="raise", invalid="raise"):
        try:
            b = a - lam * eye
            s = eye.copy()
            for p in range(k - 1):
                pivot = b[p, p + 1]
                if abs(pivot) < PIVOT_TOL:
                    raise PivotBreakdown(
                        f"pivot {p + 1} has modulus {abs(pivot):.3e} < {PIVOT_TOL:g}")
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

            deformed = b + lam * eye
        except (FloatingPointError, OverflowError) as exc:
            raise ValueError(
                f"matrix entries overflow the single-block reduction: {exc}") from exc
    return ReductionResult(deformed=deformed, transform=s)
