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
one.  The powers and the fit's right-hand side are built together by one
recursion and factored together: the R factor of the stacked recursion holds
both the triangle of the powers and the projected right-hand side, so Q is
never formed.  The stack ends in an identity block, so its smallest singular
value is at least 1: the fit has full column rank and a unique solution, with
no rank cutoff.  A sweep costs ``O(d (dn)^3)``.
"""

from __future__ import annotations

from ._numpy import np
from ._record import Record
from .errors import (DimensionMismatch, MaxIterationsExceeded, SingularMatrix,
                     SingularTransform, StagnationDetected)
from .linalg import _gated_solve, as_matrix, check_order

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 50


class MonicPolynomial(Record):
    """``x^d * I + A_{d-1} x^{d-1} + ... + A_1 x + A_0`` with square ``A_j``.

    ``coefficients`` holds ``(A_0, ..., A_{d-1})`` in ascending power order;
    the leading coefficient is implicitly the identity.
    """

    __match_args__ = ("coefficients",)

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

    @classmethod
    def _from_parts(cls, coefficients):
        # for a tuple of equally shaped, finite complex matrices, such as the
        # blocks that recover cuts from its own result
        out = object.__new__(cls)
        object.__setattr__(out, "coefficients", coefficients)
        return out

    @property
    def degree(self):
        return len(self.coefficients)

    @property
    def size(self):
        return self.coefficients[0].shape[0]


class RecoveryResult(Record):
    """Outcome of :func:`recover`.

    ``residual_trace`` lists the unstructured norm of
    ``S_i^-1 (C_P + E_1) S_i`` at every loop entry (its last entry is below
    the tolerance), ``iterations`` counts executed sweeps, and
    ``similarity_residual`` is ``||S^-1 (C_P + E_1) S - C_{P+F}||_F`` for the
    returned transform, which is the last entry of ``residual_trace``.
    """

    __match_args__ = ("recovered", "transform", "iterations", "residual_trace",
                      "similarity_residual")

    def __init__(self, recovered, transform, iterations, residual_trace,
                 similarity_residual):
        object.__setattr__(self, "recovered", recovered)
        object.__setattr__(self, "transform", transform)
        object.__setattr__(self, "iterations", iterations)
        object.__setattr__(self, "residual_trace", residual_trace)
        object.__setattr__(self, "similarity_residual", similarity_residual)


def companion(poly):
    """Block companion linearization of a monic matrix polynomial.

    The first block row is ``(-A_{d-1}, -A_{d-2}, ..., -A_0)`` and identity
    blocks sit on the first block subdiagonal.
    """
    d, n = poly.degree, poly.size
    big = d * n
    out = np.zeros((big, big), dtype=complex)
    out[:n] = -np.hstack(poly.coefficients[::-1])
    out[n:, :-n] = np.eye(big - n)
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
    # block keeps sigma_min of the stack >= 1, so the fit has full rank and
    # its least-squares solution is unique (hence of minimum norm).  The
    # blocks W_k = (m^(d-1-k) ; R_k) follow one recursion,
    # W_{k-1} = W_k @ m + (0 ; U_k) from W_{d-1} = (I ; 0).  R factor of the
    # stacked recursion, Q never formed: with [W_0 | ... | W_{d-1}]^T = QR,
    # R's leading dn x dn triangle factors the powers and its last n columns
    # are Q^H applied to the offsets, which is all the fit needs
    big = d * n
    w = np.eye(big + n, big, dtype=complex)
    stack = [w]
    for k in range(d - 1, 0, -1):
        w = w @ m
        w[big:] += unstructured[k * n:(k + 1) * n]
        stack.append(w)
    r = np.linalg.qr(np.hstack(stack[::-1]).T, mode="r")
    y = -np.linalg.solve(r[:big, :big], r[:big, big:]).T
    # rebuild the rows by the recursion itself: Y @ m^j + R_k loses digits
    # once the powers of m grow apart, the recursion keeps the residual at
    # roundoff
    rows = [y]
    for k in range(d - 1, 0, -1):
        rows.append(rows[-1] @ m + unstructured[k * n:(k + 1) * n])
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
    ValueError
        If ``tol`` is negative or NaN or ``max_iter`` is negative, or if
        ``d * n`` exceeds ``linalg.MAX_ORDER``.
    MaxIterationsExceeded
        If the unstructured norm stays above ``tol`` after ``max_iter``
        sweeps.
    SingularTransform
        If an accumulated transform ``S_i`` is numerically singular (input
        outside the small-perturbation contract).
    StagnationDetected
        If three sweeps in a row fail to bring the unstructured norm below
        its smallest value so far, or if the iteration overflows.
    """
    if not tol >= 0:
        raise ValueError(f"tol must be non-negative, got {tol}")
    if max_iter < 0:
        raise ValueError(f"max_iter must be non-negative, got {max_iter}")
    d, n = poly.degree, poly.size
    big = d * n
    check_order(big)
    e = as_matrix(perturbation)
    if e.shape != (big, big):
        raise DimensionMismatch(f"perturbation must be {big}x{big}, got {e.shape}")

    with np.errstate(over="raise", invalid="raise"):
        eye = np.eye(big, dtype=complex)
        s = eye
        trace = []
        iterations = 0
        stalled = 0

        def _fail(exc):
            exc.residual_trace = tuple(trace)
            return exc

        # an input far outside the small-perturbation contract overflows
        # C + E, S or the products with it; the errstate above raises there
        # instead of computing on with inf
        try:
            c = companion(poly)
            original = c + e
            while True:
                # e = S^-1 (C + E) S - C: its first block row perturbs the
                # coefficients, the rest is the unstructured part still to cancel
                m = c.copy()
                m[:n] += e[:n]
                residual = float(np.linalg.norm(e[n:]))
                # count sweeps since the smallest norm so far: at the roundoff floor
                # the norm fluctuates, and a chance dip must not restart the count
                stalled = stalled + 1 if trace and residual >= min(trace) else 0
                if stalled >= 3:
                    raise _fail(StagnationDetected(
                        f"unstructured norm {residual:.3e} has not fallen below its "
                        f"minimum {min(trace):.3e} for 3 consecutive sweeps"))
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
                    e = _gated_solve(s, original @ s - s @ c)
                except SingularMatrix as exc:
                    raise _fail(SingularTransform(str(exc))) from exc
                iterations += 1
        except FloatingPointError as exc:
            raise _fail(StagnationDetected(
                f"the iteration overflowed after {iterations} sweeps ({exc})")) from exc

    # m is companion(recovered) exactly, so the similarity residual
    # ||S^-1 (C + E) S - m||_F is the last residual
    top = -m[:n]
    recovered = MonicPolynomial._from_parts(tuple(top[:, k * n:(k + 1) * n]
                                                  for k in range(d - 1, -1, -1)))
    return RecoveryResult(recovered=recovered, transform=s,
                          iterations=iterations, residual_trace=tuple(trace),
                          similarity_residual=residual)
