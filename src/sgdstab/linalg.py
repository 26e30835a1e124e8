"""Dense linear algebra kit: Kronecker products and sums, vectorization,
symmetric eigendecompositions, the package's one rank rule, the PSD
pseudoinverse, null-space projectors, a matrix-free Lanczos eigensolver
for operators built self-adjoint, and conjugate gradients for positive
definite ones.  Both Krylov solvers take the operator as a plain function
of a flat vector and read the dimension off the vector they start from.

All routines work on plain float64 numpy arrays.  Matrices fed to the
symmetric routines are symmetrized up front, so callers never have to
worry about roundoff asymmetry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

# The package's one rank rule: an eigenvalue at or below DEFAULT_RANK_RTOL *
# lambda_max is zero, and a matrix is not PSD when an eigenvalue lies below minus
# that cutoff.  Every null-space and PSD decision goes through zero_cutoff,
# not_psd and psd_range; no caller sets its own tolerance.
DEFAULT_RANK_RTOL = 1e-10

# Rows added to the Lanczos basis each time it fills up.
_LANCZOS_CHUNK = 32
# Lanczos stopping rule and step budget; every solve uses them.
_LANCZOS_TOL = 1e-12
_LANCZOS_MAX_ITER = 1000
# Conjugate-gradient iteration budget.
_CG_MAX_ITER = 1000


class ConvergenceError(RuntimeError):
    """An iterative or factorization routine failed to reach its tolerance."""


def symmetrize(m: np.ndarray) -> np.ndarray:
    """(M + M^T)/2 of a matrix or of each in a (..., d, d) stack, as M/2 + M^T/2: no finite entry overflows.

    An entry equal to its transpose is kept where halving rounds it (an odd multiple of the smallest subnormal)."""
    m = np.asarray(m, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {m.shape}")
    mt = np.swapaxes(m, -1, -2)
    out = 0.5 * m + 0.5 * mt
    np.copyto(out, m, where=(out != m) & (m == mt))
    return out


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two matrices."""
    return np.kron(np.asarray(a, dtype=float), np.asarray(b, dtype=float))


def kron_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker sum A (+) B = A kron I + I kron B for square A, B."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"kron_sum requires square matrices, got {a.shape}")
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise ValueError(f"kron_sum requires square matrices, got {b.shape}")
    return np.kron(a, np.eye(b.shape[0])) + np.kron(np.eye(a.shape[0]), b)


def vec(m: np.ndarray) -> np.ndarray:
    """Column-stack a matrix into a vector."""
    return np.asarray(m, dtype=float).flatten(order="F")


def unvec(v: np.ndarray, d: int) -> np.ndarray:
    """Inverse of :func:`vec` for a d x d matrix."""
    v = np.asarray(v, dtype=float)
    if v.size != d * d:
        raise ValueError(f"cannot unvec length {v.size} into {d}x{d}")
    return v.reshape((d, d), order="F")


@dataclass(frozen=True)
class EigDecomp:
    """Symmetric eigendecomposition with eigenvalues in descending order."""

    values: np.ndarray
    vectors: np.ndarray


def sym_eig(m: np.ndarray) -> EigDecomp:
    """Full eigendecomposition of a symmetric matrix.

    Eigenvalues are returned in descending order with a deterministic
    (stable) sort.  Raises :class:`ConvergenceError` if the backend fails.
    The result is not re-checked here: the tests hold LAPACK's
    eigenvectors to orthonormality within 1e-10 and the reconstruction to
    1e-8 * (1 + max |lambda|).
    """
    m = symmetrize(m)
    try:
        values, vectors = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigendecomposition failed: {exc}") from exc
    order = np.argsort(values, kind="stable")[::-1]
    return EigDecomp(values=values[order], vectors=vectors[:, order])


def zero_cutoff(values: np.ndarray) -> np.ndarray:
    """The package's rank rule: an eigenvalue at or below DEFAULT_RANK_RTOL * max(lambda_max, 0) is zero.

    values may stack several spectra along its last axis; the cutoff is then one per spectrum.
    """
    return DEFAULT_RANK_RTOL * np.maximum(np.max(values, axis=-1), 0.0)


def not_psd(values: np.ndarray) -> np.ndarray:
    """Per spectrum along the last axis: lambda_min < -zero_cutoff, the matrix is not PSD up to roundoff."""
    return np.min(values, axis=-1) < -zero_cutoff(values)


def psd_range(values: np.ndarray) -> np.ndarray:
    """Mask of the nonzero eigenvalues of a PSD matrix, those above zero_cutoff.

    values may also stack the spectra of several matrices along its last
    axis; the rule then applies to each one.  Raises ValueError if a
    matrix is not PSD (not_psd).
    """
    bad = not_psd(values)
    if np.any(bad):
        first = values.reshape(-1, values.shape[-1])[np.flatnonzero(bad)[0]]
        raise ValueError(f"matrix is not PSD: lambda_min={np.min(first):.3e}, lambda_max={np.max(first):.3e}")
    return values > np.expand_dims(zero_cutoff(values), -1)


def pinv_psd(m: np.ndarray) -> np.ndarray:
    """Moore-Penrose inverse of a symmetric PSD matrix, with psd_range's rank rule and PSD check."""
    eig = sym_eig(m)
    kept = psd_range(eig.values)
    inv = np.zeros_like(eig.values)
    inv[kept] = 1.0 / eig.values[kept]
    return symmetrize(eig.vectors @ (inv[:, None] * eig.vectors.T))


def null_projectors(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthogonal projectors (P_null, P_range) of a symmetric PSD matrix.

    P_null projects onto the eigenvectors with eigenvalue at or below
    zero_cutoff (no PSD check); P_range = I - P_null.
    """
    eig = sym_eig(m)
    d = eig.values.size
    vn = eig.vectors[:, eig.values <= zero_cutoff(eig.values)]
    p_null = symmetrize(vn @ vn.T)
    p_range = symmetrize(np.eye(d) - p_null)
    return p_null, p_range


def _lanczos_solve(op: Callable[[np.ndarray], np.ndarray], start: np.ndarray) -> float:
    """Largest (signed) eigenvalue of a self-adjoint operator, which is not checked.

    op maps a flat vector to its image.  Single-vector Lanczos from the
    caller's nonzero start vector, whose length is the dimension
    (normalized here), with full reorthogonalization done twice per step
    ("twice is enough"; Golub & Van Loan, ch. 10).  The Krylov
    space holds only the modes the start has a component along, so a start
    orthogonal to the top eigenvector returns a lower eigenvalue.  Step k stops
    when the Ritz residual beta_k |s_k| of the largest Ritz value is at
    most _LANCZOS_TOL times the spectral scale max |theta| of the
    tridiagonal T_k, or when the Krylov space is invariant (beta_k at
    roundoff level, or the basis spans the whole space).  Returns the largest algebraic Ritz value.
    T_k is written in place into a preallocated array, and the Krylov
    basis grows in chunks, so a short solve allocates little whatever the
    budget.  Raises ConvergenceError with the step count, the last
    residual and the current estimate when _LANCZOS_MAX_ITER steps do not
    suffice.
    """
    dim = start.size
    # beta_k below this share of the scale is roundoff left by the reorthogonalization.
    breakdown = math.sqrt(dim) * np.finfo(float).eps
    basis = np.empty((min(_LANCZOS_CHUNK, dim), dim))
    tri = np.zeros((basis.shape[0], basis.shape[0]))
    basis[0] = start / np.linalg.norm(start)
    estimate = resid = math.nan
    for k in range(min(_LANCZOS_MAX_ITER, dim)):
        w = op(basis[k])
        tri[k, k] = basis[k] @ w
        kept = basis[: k + 1]
        for _ in range(2):
            w = w - kept.T @ (kept @ w)
        b = float(np.linalg.norm(w))
        theta, s = np.linalg.eigh(tri[: k + 1, : k + 1])
        estimate = float(theta[-1])
        scale = max(abs(float(theta[0])), abs(estimate))
        resid = b * abs(float(s[-1, -1]))
        if resid <= _LANCZOS_TOL * scale or b <= breakdown * scale or k + 1 == dim:
            return estimate
        if k + 1 == basis.shape[0]:
            size = min(basis.shape[0] + _LANCZOS_CHUNK, dim)
            grown = np.empty((size, dim))
            grown[: k + 1] = basis
            basis = grown
            grown = np.zeros((size, size))
            grown[: k + 1, : k + 1] = tri[: k + 1, : k + 1]
            tri = grown
        basis[k + 1] = w / b
        tri[k, k + 1] = tri[k + 1, k] = b
    raise ConvergenceError(
        f"Lanczos did not converge within {_LANCZOS_MAX_ITER} iterations "
        f"(last residual {resid:.3e}, estimate {estimate!r})"
    )


def cg(op: Callable[[np.ndarray], np.ndarray], b: np.ndarray) -> np.ndarray:
    """Solve op(x) = b by conjugate gradients from x = 0.

    op maps a flat vector of b's length to its image and must be
    self-adjoint positive definite.  Stops when the recursively updated
    residual satisfies ||r|| <= 1e-13 ||b||, then recomputes the true
    residual ||b - op(x)|| and requires it to be at most 1e-10 ||b||.
    Raises ConvergenceError on non-positive curvature p' op(p) <= 0 (op is
    not positive definite), on a true residual above that bound, or with
    the iteration count and the last residual when _CG_MAX_ITER
    iterations do not suffice.
    """
    b = np.asarray(b, dtype=float)
    b_norm = float(np.linalg.norm(b))
    x = np.zeros_like(b)
    if b_norm == 0.0:
        return x
    r = b.copy()
    direction = r.copy()
    rr = float(r @ r)
    resid = b_norm
    for k in range(_CG_MAX_ITER):
        applied = op(direction)
        curvature = float(direction @ applied)
        if not curvature > 0.0:
            raise ConvergenceError(f"conjugate gradients met non-positive curvature {curvature:.3e} at iteration {k + 1}")
        alpha = rr / curvature
        x += alpha * direction
        r -= alpha * applied
        rr_next = float(r @ r)
        resid = math.sqrt(rr_next)
        if resid <= 1e-13 * b_norm:
            true_resid = float(np.linalg.norm(b - op(x)))
            if true_resid > 1e-10 * b_norm:
                raise ConvergenceError(
                    f"conjugate gradients stopped at true residual {true_resid:.3e} (||b|| = {b_norm:.3e}) after {k + 1} iterations"
                )
            return x
        direction = r + (rr_next / rr) * direction
        rr = rr_next
    raise ConvergenceError(
        f"conjugate gradients did not converge within {_CG_MAX_ITER} iterations (last residual {resid:.3e}, ||b|| = {b_norm:.3e})"
    )
