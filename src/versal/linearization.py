"""Structured-perturbation recovery for monic matrix polynomials.

A monic matrix polynomial ``P`` of degree ``d`` with ``n x n`` coefficients
linearizes to the ``dn x dn`` block companion matrix :func:`companion`.  A
dense perturbation of that linearization destroys the companion block
structure; :func:`recover` finds a similarity carrying the perturbed
linearization back to the linearization of a perturbed polynomial, i.e. it
reduces the full perturbation to one supported on the coefficient block row
only.  The transform ``S`` is the iteration's only state.  Each sweep reads
the perturbation ``S^-1 (C + E) S - C`` off it with one solve, solves a
Sylvester-type commutator equation for the minimum-norm ``X`` cancelling that
perturbation's unstructured part to first order, and sets ``S <- S (I - X)``.
The iteration is the one of A. Dmytryshyn, BIT Numer. Math. (2022).

The commutator equation is solved in structured form: below its first block
row the nearest companion matrix is a pure block shift, so every solution is
determined by its last ``n x dn`` block row, and one least-squares fit of that
row against the stacked powers of the linearization picks the minimum-norm
one.  The stack ends in an identity block, so its smallest singular value is
at least 1: the fit has full column rank and a unique solution, found by a
reduced QR factorization with no rank cutoff.  A sweep costs
``O(d (dn)^3)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (DimensionMismatch, MaxIterationsExceeded, SingularMatrix,
                     SingularTransform, StagnationDetected)
from .linalg import as_matrix, solve_linear

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 50

# Cap on the linearization order dn (a commutator solve costs O(d (dn)^3)).
MAX_ORDER = 16


@dataclass(frozen=True, eq=False)
class MonicPolynomial:
    """``x^d * I + A_{d-1} x^{d-1} + ... + A_1 x + A_0`` with square ``A_j``.

    ``coefficients`` holds ``(A_0, ..., A_{d-1})`` in ascending power order;
    the leading coefficient is implicitly the identity.
    """

    coefficients: tuple

    def __init__(self, coefficients):
        coeffs = tuple(as_matrix(c) for c in coefficients)
        if not coeffs:
            raise ValueError("a monic polynomial needs at least one coefficient")
        n = coeffs[0].shape[0]
        for c in coeffs:
            if c.shape != (n, n):
                raise ValueError(
                    f"all coefficients must be {n}x{n}, got {c.shape}")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def degree(self):
        return len(self.coefficients)

    @property
    def size(self):
        return self.coefficients[0].shape[0]


@dataclass(frozen=True, eq=False)
class RecoveryResult:
    """Outcome of :func:`recover`.

    ``residual_trace`` lists the unstructured norm of
    ``S_i^-1 (C_P + E_1) S_i`` at every loop entry (its last entry is below
    the tolerance), ``iterations`` counts executed sweeps, and
    ``similarity_residual`` is ``||S^-1 (C_P + E_1) S - C_{P+F}||_F`` for the
    returned transform, which is the last entry of ``residual_trace``.
    """

    recovered: MonicPolynomial
    transform: np.ndarray
    iterations: int
    residual_trace: tuple
    similarity_residual: float


def companion(poly):
    """Block companion linearization of a monic matrix polynomial.

    The first block row is ``(-A_{d-1}, -A_{d-2}, ..., -A_0)`` and identity
    blocks sit on the first block subdiagonal.
    """
    d, n = poly.degree, poly.size
    big = d * n
    out = np.zeros((big, big), dtype=complex)
    for j, coeff in enumerate(reversed(poly.coefficients)):
        out[:n, j * n:(j + 1) * n] = -coeff
    for i in range(1, d):
        out[i * n:(i + 1) * n, (i - 1) * n:i * n] = np.eye(n)
    return out


def split(m, d, n):
    """Split a ``dn x dn`` matrix into structured and unstructured parts.

    The structured part keeps the first block row (rows ``0..n-1``), the
    unstructured part keeps the rest; they sum to ``m`` exactly.

    Raises
    ------
    DimensionMismatch
        If ``m`` is not ``dn x dn``.
    """
    m = as_matrix(m)
    big = d * n
    if m.shape != (big, big):
        raise DimensionMismatch(f"expected a {big}x{big} matrix, got {m.shape}")
    structured = np.zeros_like(m)
    structured[:n] = m[:n]
    unstructured = np.zeros_like(m)
    unstructured[n:] = m[n:]
    return structured, unstructured


def _solve_commutator_step(m, unstructured, d, n):
    # minimum-norm X with (X @ m - m @ X)^u = -unstructured^u; the first
    # block row of unstructured is never read.  Below its first block row m
    # is a pure block shift, so block row i of the equation reads
    # X_{i-1} = X_i @ m + U_i: every solution is X_k = Y @ m^(d-1-k) + R_k
    # with the last block row Y free, and ||X||_F is least for the Y fitting
    # Y @ [m^(d-1) | ... | m | I] ~ -[R_0 | ... | R_{d-1}].  The identity
    # block keeps sigma_min of the stack >= 1, so the fit has full rank, its
    # least-squares solution is unique (hence of minimum norm) and a reduced
    # QR solves it without a rank cutoff
    big = d * n
    u = [unstructured[i * n:(i + 1) * n] for i in range(d)]
    powers = [np.eye(big, dtype=complex)]
    offsets = [np.zeros((n, big), dtype=complex)]
    for k in range(d - 1, 0, -1):
        powers.append(powers[-1] @ m)
        offsets.append(offsets[-1] @ m + u[k])
    q, r = np.linalg.qr(np.hstack(powers[::-1]).T)
    y = -np.linalg.solve(r, q.conj().T @ np.hstack(offsets[::-1]).T).T
    # rebuild the rows by the recursion itself: Y @ m^j + R_k loses digits
    # once the powers of m grow apart, the recursion keeps the residual at
    # roundoff
    rows = [y]
    for k in range(d - 1, 0, -1):
        rows.append(rows[-1] @ m + u[k])
    return np.vstack(rows[::-1])


def recover(poly, perturbation, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER):
    """Reduce a full perturbation of ``companion(poly)`` to a structured one.

    Iterates similarity updates ``S_{i+1} = S_i (I - X_i)`` until the
    unstructured part of ``S_i^-1 (C + E) S_i`` falls below ``tol``, then
    reads the recovered coefficients off its first block row.  Intended for
    perturbations small relative to ``||companion(poly)||_F`` (roughly
    ``<= 1e-2``); larger inputs may diverge and raise, as does a ``tol``
    below the roundoff floor, a fraction of ``u ||C + E||_F``.

    Raises
    ------
    MaxIterationsExceeded
        If the unstructured norm stays above ``tol`` after ``max_iter``
        sweeps.
    SingularTransform
        If an accumulated transform ``S_i`` is numerically singular (input
        outside the small-perturbation contract).
    StagnationDetected
        If the unstructured norm fails to decrease three sweeps in a row.
    """
    d, n = poly.degree, poly.size
    big = d * n
    if big > MAX_ORDER:
        raise ValueError(f"linearization order {big} exceeds cap {MAX_ORDER}")
    e = as_matrix(perturbation)
    if e.shape != (big, big):
        raise DimensionMismatch(f"perturbation must be {big}x{big}, got {e.shape}")

    c = companion(poly)
    original = c + e
    eye = np.eye(big, dtype=complex)
    s = eye
    trace = []
    iterations = 0
    stalled = 0

    def _fail(exc):
        exc.residual_trace = tuple(trace)
        return exc

    while True:
        # e = S^-1 (C + E) S - C: its first block row perturbs the
        # coefficients, the rest is the unstructured part still to cancel
        m = c.copy()
        m[:n] += e[:n]
        residual = float(np.linalg.norm(e[n:]))
        stalled = stalled + 1 if trace and residual >= trace[-1] else 0
        if stalled >= 3:
            raise _fail(StagnationDetected(
                f"unstructured norm stuck at {residual:.3e} for "
                f"3 consecutive sweeps"))
        trace.append(residual)
        if residual <= tol:
            break
        if iterations >= max_iter:
            raise _fail(MaxIterationsExceeded(
                f"unstructured norm {residual:.3e} > {tol:g} after "
                f"{max_iter} sweeps"))
        s = s @ (eye - _solve_commutator_step(m, e, d, n))
        # solve for S^-1 (C + E) S - C, not for S^-1 (C + E) S: the latter
        # rounds its unit subdiagonal to 1, which can zero the residual by
        # chance and so meet a tolerance below roundoff
        try:
            e = solve_linear(s, original @ s - s @ c)
        except SingularMatrix as exc:
            raise _fail(SingularTransform(str(exc))) from exc
        iterations += 1

    # m is companion(recovered) exactly, so the similarity residual
    # ||S^-1 (C + E) S - m||_F is the last residual
    recovered = MonicPolynomial(np.hsplit(-m[:n], d)[::-1])
    return RecoveryResult(recovered=recovered, transform=s,
                          iterations=iterations, residual_trace=tuple(trace),
                          similarity_residual=residual)
