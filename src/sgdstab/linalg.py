"""Dense linear algebra kit: Kronecker products and sums, vectorization,
symmetric eigendecompositions, PSD pseudoinverses, null-space projectors,
a matrix-free Lanczos eigensolver for self-adjoint operators, and
preconditioned conjugate gradients for positive definite ones.

All routines work on plain float64 numpy arrays.  Matrices fed to the
symmetric routines are symmetrized up front, so callers never have to
worry about roundoff asymmetry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Single knob for "when is an eigenvalue zero"; every null-space decision
# in the package flows through this default.
DEFAULT_RANK_RTOL = 1e-10

# Rows added to the Lanczos basis each time it fills up.
_LANCZOS_CHUNK = 32


class ConvergenceError(RuntimeError):
    """An iterative or factorization routine failed to reach its tolerance."""


def symmetrize(m: np.ndarray) -> np.ndarray:
    """Return (M + M^T)/2 as a float64 array."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return 0.5 * (m + m.T)


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
    rank_tol: float

    def rank(self) -> int:
        cutoff = self.rank_tol * max(float(self.values[0]), 0.0)
        return int(np.sum(self.values > cutoff))


def sym_eig(m: np.ndarray, rank_tol: float = DEFAULT_RANK_RTOL) -> EigDecomp:
    """Full eigendecomposition of a symmetric matrix.

    Eigenvalues are returned in descending order with a deterministic
    (stable) sort.  Raises :class:`ConvergenceError` if the backend fails
    or the factorization does not reconstruct the input.
    """
    m = symmetrize(m)
    try:
        values, vectors = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigendecomposition failed: {exc}") from exc
    order = np.argsort(values, kind="stable")[::-1]
    values = values[order]
    vectors = vectors[:, order]
    d = m.shape[0]
    ortho_defect = np.max(np.abs(vectors.T @ vectors - np.eye(d)))
    if ortho_defect > 1e-10:
        raise ConvergenceError(f"eigenvectors not orthonormal (defect {ortho_defect:.3e})")
    recon = vectors @ (values[:, None] * vectors.T)
    scale = 1.0 + float(np.max(np.abs(values), initial=0.0))
    recon_defect = np.max(np.abs(recon - m))
    if recon_defect > 1e-8 * scale:
        raise ConvergenceError(f"eigendecomposition does not reconstruct (defect {recon_defect:.3e})")
    return EigDecomp(values=values, vectors=vectors, rank_tol=rank_tol)


def pinv_psd(m: np.ndarray, rel_tol: float = DEFAULT_RANK_RTOL) -> np.ndarray:
    """Moore-Penrose inverse of a symmetric PSD matrix.

    Eigenvalues at or below rel_tol * lambda_max are treated as exact
    zeros.  Raises ValueError if the matrix has an eigenvalue below
    -rel_tol * lambda_max, i.e. is not PSD up to roundoff.
    """
    eig = sym_eig(m, rank_tol=rel_tol)
    lam_max = float(eig.values[0])
    lam_min = float(eig.values[-1])
    if lam_min < -rel_tol * lam_max:
        raise ValueError(f"matrix is not PSD: lambda_min={lam_min:.3e}, lambda_max={lam_max:.3e}")
    cutoff = rel_tol * max(lam_max, 0.0)
    kept = eig.values > cutoff
    inv = np.zeros_like(eig.values)
    inv[kept] = 1.0 / eig.values[kept]
    return symmetrize(eig.vectors @ (inv[:, None] * eig.vectors.T))


def sqrt_pinv_psd(m: np.ndarray, rel_tol: float = DEFAULT_RANK_RTOL) -> np.ndarray:
    """Pseudoinverse of the PSD square root, (M^{1/2})^+."""
    eig = sym_eig(m, rank_tol=rel_tol)
    lam_max = float(eig.values[0])
    lam_min = float(eig.values[-1])
    if lam_min < -rel_tol * lam_max:
        raise ValueError(f"matrix is not PSD: lambda_min={lam_min:.3e}, lambda_max={lam_max:.3e}")
    cutoff = rel_tol * max(lam_max, 0.0)
    kept = eig.values > cutoff
    inv = np.zeros_like(eig.values)
    inv[kept] = 1.0 / np.sqrt(eig.values[kept])
    return symmetrize(eig.vectors @ (inv[:, None] * eig.vectors.T))


def null_projectors(m: np.ndarray, rel_tol: float = DEFAULT_RANK_RTOL) -> tuple[np.ndarray, np.ndarray]:
    """Orthogonal projectors (P_null, P_range) of a symmetric PSD matrix.

    P_null projects onto the span of eigenvectors with eigenvalue at or
    below rel_tol * lambda_max; P_range = I - P_null.
    """
    eig = sym_eig(m, rank_tol=rel_tol)
    d = eig.values.size
    cutoff = rel_tol * max(float(eig.values[0]), 0.0)
    null_mask = eig.values <= cutoff
    vn = eig.vectors[:, null_mask]
    p_null = symmetrize(vn @ vn.T)
    p_range = symmetrize(np.eye(d) - p_null)
    return p_null, p_range


@dataclass(frozen=True)
class LinearOperator:
    """A pure linear map represented by its action on vectors."""

    in_dim: int
    out_dim: int
    apply: Callable[[np.ndarray], np.ndarray]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.in_dim,):
            raise ValueError(f"operator expects shape ({self.in_dim},), got {x.shape}")
        return np.asarray(self.apply(x), dtype=float)

    @staticmethod
    def from_matrix(m: np.ndarray) -> "LinearOperator":
        m = np.asarray(m, dtype=float)
        return LinearOperator(in_dim=m.shape[1], out_dim=m.shape[0], apply=lambda x: m @ x)


def _check_self_adjoint(op: LinearOperator, rng: np.random.Generator, n_probes: int = 3) -> None:
    for _ in range(n_probes):
        x = rng.standard_normal(op.in_dim)
        y = rng.standard_normal(op.in_dim)
        x /= np.linalg.norm(x)
        y /= np.linalg.norm(y)
        a = float(op(x) @ y)
        b = float(x @ op(y))
        if abs(a - b) > 1e-8 * max(1.0, abs(a), abs(b)):
            raise ValueError(f"operator is not self-adjoint on probes: {a!r} vs {b!r}")


def lanczos_lambda_max(op: LinearOperator, tol: float = 1e-12, max_iter: int = 1000, seed: int = 0) -> float:
    """Largest (signed) eigenvalue of a self-adjoint operator by Lanczos.

    Single-vector Lanczos from a seeded Gaussian start, with full
    reorthogonalization done twice per step ("twice is enough"; Golub &
    Van Loan, ch. 10).  Step k stops when the Ritz residual
    beta_k |s_k| of the largest Ritz value is at most tol times the
    spectral scale max |theta| of the tridiagonal T_k, or when the Krylov
    space is invariant (beta_k at roundoff level, or the basis spans the
    whole space).  Returns the largest algebraic Ritz value.  The Krylov
    basis grows in chunks, so a short solve allocates little whatever
    max_iter is.  Raises ConvergenceError with the step count, the last
    residual and the current estimate when max_iter steps do not suffice.
    """
    if op.in_dim != op.out_dim:
        raise ValueError("Lanczos requires a square operator")
    rng = np.random.default_rng(seed)
    _check_self_adjoint(op, rng)
    dim = op.in_dim
    # beta_k below this share of the scale is roundoff left by the reorthogonalization.
    breakdown = math.sqrt(dim) * np.finfo(float).eps
    basis = np.empty((min(_LANCZOS_CHUNK, dim), dim))
    q = rng.standard_normal(dim)
    basis[0] = q / np.linalg.norm(q)
    alpha: list[float] = []
    beta: list[float] = []
    estimate = resid = math.nan
    for k in range(min(max_iter, dim)):
        w = op(basis[k])
        alpha.append(float(basis[k] @ w))
        kept = basis[: k + 1]
        for _ in range(2):
            w = w - kept.T @ (kept @ w)
        b = float(np.linalg.norm(w))
        theta, s = np.linalg.eigh(np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1))
        estimate = float(theta[-1])
        scale = max(abs(float(theta[0])), abs(estimate))
        resid = b * abs(float(s[-1, -1]))
        if resid <= tol * scale or b <= breakdown * scale or k + 1 == dim:
            return estimate
        if k + 1 == basis.shape[0]:
            grown = np.empty((min(basis.shape[0] + _LANCZOS_CHUNK, dim), dim))
            grown[: k + 1] = basis
            basis = grown
        basis[k + 1] = w / b
        beta.append(b)
    raise ConvergenceError(
        f"Lanczos did not converge within {max_iter} iterations "
        f"(last residual {resid:.3e}, estimate {estimate!r})"
    )


def pcg(
    op: LinearOperator,
    b: np.ndarray,
    precond: Callable[[np.ndarray], np.ndarray],
    max_iter: int = 1000,
) -> np.ndarray:
    """Solve op(x) = b by preconditioned conjugate gradients from x = 0.

    op must be self-adjoint positive definite and precond a positive
    definite approximation of its inverse.  Stops when the recursively
    updated residual satisfies ||r|| <= 1e-13 ||b||, then
    recomputes the true residual ||b - op(x)|| and requires it to be at
    most 1e-10 ||b||.  Raises ConvergenceError on non-positive curvature
    p' op(p) <= 0 (op is not positive definite), on a true residual above
    that bound, or with the iteration count and the last residual when
    max_iter iterations do not suffice.
    """
    b = np.asarray(b, dtype=float)
    b_norm = float(np.linalg.norm(b))
    x = np.zeros_like(b)
    if b_norm == 0.0:
        return x
    r = b.copy()
    z = precond(r)
    direction = z.copy()
    rz = float(r @ z)
    resid = b_norm
    for k in range(max_iter):
        applied = op(direction)
        curvature = float(direction @ applied)
        if not curvature > 0.0:
            raise ConvergenceError(f"conjugate gradients met non-positive curvature {curvature:.3e} at iteration {k + 1}")
        alpha = rz / curvature
        x += alpha * direction
        r -= alpha * applied
        resid = float(np.linalg.norm(r))
        if resid <= 1e-13 * b_norm:
            true_resid = float(np.linalg.norm(b - op(x)))
            if true_resid > 1e-10 * b_norm:
                raise ConvergenceError(
                    f"conjugate gradients stopped at true residual {true_resid:.3e} (||b|| = {b_norm:.3e}) after {k + 1} iterations"
                )
            return x
        z = precond(r)
        rz_next = float(r @ z)
        direction = z + (rz_next / rz) * direction
        rz = rz_next
    raise ConvergenceError(
        f"conjugate gradients did not converge within {max_iter} iterations (last residual {resid:.3e}, ||b|| = {b_norm:.3e})"
    )
