"""Dense complex linear-algebra kernels shared by every other module.

Matrices are plain 2-D ``numpy`` arrays of ``complex128``.  :func:`as_matrix`
is the single validation gate (shape and finiteness), so downstream code can
assume clean inputs.  Everything here is a pure function of its arguments and
safe to share across threads.
"""

from __future__ import annotations

from ._numpy import np
from .errors import NoConvergence, SingularMatrix

# Relative threshold on the smallest singular value below which a dense solve
# is declared singular.
SINGULAR_TOL = 1e-14

# Relative cutoff for numerical-rank decisions.
RANK_TOL = 1e-10

# Desk-scale limit on the order of every matrix whose spectrum or Jordan
# structure is computed, and on recover's linearization order d*n.
MAX_ORDER = 16


def check_order(order):
    """Raise ``ValueError`` if a matrix of this order exceeds ``MAX_ORDER``."""
    if order > MAX_ORDER:
        raise ValueError(f"matrix order {order} exceeds cap {MAX_ORDER}")


def as_matrix(values):
    """Coerce ``values`` to a 2-D ``complex128`` matrix.

    Accepts anything ``numpy.asarray`` does; 1-D input becomes a row vector.
    Rejects empty shapes and non-finite entries.
    """
    m = np.asarray(values, dtype=complex)
    if m.ndim < 2:
        m = np.atleast_2d(m)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got an array of ndim={m.ndim}")
    if m.size == 0:
        raise ValueError("matrix must have at least one row and one column")
    # a complex entry is finite only when both of its parts are
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    return m


def frobenius_norm(m):
    """Square root of the sum of squared entry moduli.

    The entries are divided by the largest absolute real or imaginary part
    first, so no square overflows or underflows: the result is infinite only
    where the norm itself exceeds the float range.
    """
    m = as_matrix(m)
    parts = np.abs(np.stack([m.real, m.imag]))
    scale = float(parts.max())
    if scale == 0.0:
        return 0.0
    return scale * float(np.linalg.norm(parts / scale))


def solve_linear(a, b):
    """Solve ``a @ x = b`` for a square, numerically nonsingular ``a``.

    Parameters
    ----------
    a : array_like, square
    b : array_like with ``b.shape[0] == a.shape[0]`` (multiple right-hand
        sides are solved column-wise)

    Within ``1/2`` of the identity in the Frobenius norm, ``a`` is
    nonsingular by Weyl's inequality and is solved at once; any other ``a``
    first passes a singular-value gate.  Both paths accept and reject the
    same matrices.

    Raises
    ------
    SingularMatrix
        If the smallest singular value of ``a`` falls below
        ``SINGULAR_TOL * ||a||_F``.
    """
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"coefficient matrix must be square, got {a.shape}")
    if b.shape[0] != a.shape[0]:
        raise ValueError(f"right-hand side has {b.shape[0]} rows, expected {a.shape[0]}")
    return _gated_solve(a, b)


def _gated_solve(a, b):
    # solve_linear without its validation, for callers whose a and b are
    # finite complex arrays of matching shapes because they built them
    #
    # sigma_min(a) >= 1 - ||a - I||_2 >= 1 - ||a - I||_F (Weyl), so within
    # 1/2 of I sigma_min >= 1/2, which exceeds SINGULAR_TOL * (sqrt(n) + 1/2)
    # >= SINGULAR_TOL * ||a||_F at every order: the gate could only pass
    if np.linalg.norm(a - np.eye(a.shape[0])) > 0.5:
        scale = float(np.linalg.norm(a))
        if scale == 0.0:
            raise SingularMatrix("coefficient matrix is zero")
        # gate on sigma_min, not on elimination pivots: a small pivot implies
        # a small sigma_min, but a triangular matrix with unit pivots can
        # still be singular to working precision
        smallest = float(np.linalg.svd(a, compute_uv=False)[-1])
        if smallest < SINGULAR_TOL * scale:
            raise SingularMatrix(
                f"smallest singular value {smallest:.3e} below "
                f"{SINGULAR_TOL:g}*||a||_F = {SINGULAR_TOL * scale:.3e}")
    return np.linalg.solve(a, b)


def min_norm_least_squares(a, b):
    """Minimum-norm least-squares solution of ``a @ x = b``.

    Among all ``x`` minimizing ``||a @ x - b||_F`` returns the one of minimal
    Frobenius norm (the pseudoinverse solution).  Rank decisions use the
    relative cutoff ``RANK_TOL``; rank-deficient and underdetermined systems
    are the expected case and never raise.
    """
    a = as_matrix(a)
    b = as_matrix(b)
    if b.shape[0] != a.shape[0]:
        raise ValueError(f"right-hand side has {b.shape[0]} rows, expected {a.shape[0]}")
    x, *_ = np.linalg.lstsq(a, b, rcond=RANK_TOL)
    return x


def numerical_rank(m):
    """Number of singular values exceeding ``RANK_TOL`` times the largest one."""
    m = as_matrix(m)
    s = np.linalg.svd(m, compute_uv=False)
    if s.size == 0 or s[0] <= 0.0:
        return 0
    return int(np.count_nonzero(s > RANK_TOL * s[0]))


def eigenvalues(m):
    """All eigenvalues of a square matrix, with multiplicity.

    Backed by a dense QR iteration.  Order of the returned values is not
    specified.

    Raises
    ------
    ValueError
        If ``m`` is not square or its order exceeds ``linalg.MAX_ORDER``.
    NoConvergence
        If the underlying iteration fails to converge.
    """
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"eigenvalues need a square matrix, got {m.shape}")
    check_order(m.shape[0])
    try:
        return np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
