"""Dense linear algebra kit: Kronecker products and sums, vectorization,
symmetric eigendecompositions, the spectra and factors of a Hessian
stack by certified pivoted Cholesky (factor_stack), the package's one
rank rule, the PSD
pseudoinverse, null-space projectors, and one matrix-free Lanczos
recurrence for operators built self-adjoint.  Two readers consume it:
lanczos_solve, the top eigenvalue, and spd_solve, the solution of a
positive definite system.  Both take the operator as a plain function of
a flat vector and read the dimension off the vector they start from.

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

# factor_stack's pivoted Cholesky stops a sample once its largest remaining pivot is at
# most _PIVOT_STOP * eps * ||H_i||_F, and accepts the factor L_i only where the residual
# ||H_i - L_i L_i^T||_F is at most _RESIDUAL_BOUND * eps * ||H_i||_F.
_PIVOT_STOP = 10.0
_RESIDUAL_BOUND = 100.0
# factor_stack factors the stack in chunks of samples holding at most this many entries.
_STACK_CHUNK_ENTRIES = 1 << 16
# Below this ||H_i||_F^2 the squared residual could underflow, so only a zero sample is certified.
_MIN_SQUARE = np.finfo(float).tiny / np.finfo(float).eps ** 2

# Rows added to the Lanczos basis each time it fills up.
_LANCZOS_CHUNK = 32
# The eigenvalue reader's stopping rule, and the step budget of every Krylov solve.
_LANCZOS_TOL = 1e-12
_LANCZOS_MAX_ITER = 1000


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


def lapack_eigh(m: np.ndarray, vectors: bool = True):
    """np.linalg.eigh of a matrix or a (..., d, d) stack, or its eigvalsh when not vectors; ascending.

    m is passed as it is, with no symmetrized copy: LAPACK reads its lower
    triangle.  The one place a backend failure (LinAlgError) becomes a
    ConvergenceError.
    """
    try:
        return np.linalg.eigh(m) if vectors else np.linalg.eigvalsh(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigendecomposition failed: {exc}") from exc


def factor_stack(stack: np.ndarray, factors: bool = True):
    """The eigenvalues of each H_i of an exactly symmetric (n, d, d) stack, and factors H_i = G_i G_i^T.

    Returns values, (n, d), or with factors (values, gt): gt (n, q, d)
    stacks the G_i^T, where G_i (d x q) spans the eigenvalues of H_i that
    psd_range keeps, so G_i G_i^T is H_i less those the rank rule zeroes,
    q is the largest kept count and a sample of lower rank has zero rows
    first.  gt is None where some H_i fails not_psd, or where q (d + q) >=
    d^2: such factors save nothing on a d x d sandwich.

    Where it can, it reads both off diagonal-pivoted Cholesky factors
    H_i = L_i L_i^T (Higham, "Analysis of the Cholesky decomposition of a
    semi-definite matrix", 1990), batched over the samples of chunks of
    _STACK_CHUNK_ENTRIES entries.  Each step takes every sample's largest
    remaining pivot, and a sample stops once that is at most _PIVOT_STOP
    eps ||H_i||_F.  A factor is accepted only when the residual
    ||H_i - L_i L_i^T||_F, formed entry by entry, is at most
    _RESIDUAL_BOUND eps ||H_i||_F.  By Weyl's inequality the eigenvalues of
    H_i then lie that close to those of the small Gram L_i^T L_i, and the
    values are the Gram's (through lapack_eigh), after zeros.  G_i is L_i,
    or L_i W_i over the Gram eigenvectors W_i of the kept values where
    psd_range drops some: any G_i with G_i G_i^T = H_i will do.

    The whole stack goes to one batched lapack_eigh instead, whose values
    are returned bit for bit and whose kept eigenpairs, scaled by
    sqrt(lambda), give G_i, where a sample needs q_i columns with
    q_i (d + q_i) >= d^2 or fails the residual bound.  A Gram is PSD up to
    rounding far below the rank rule's cut, so an invalid verdict always
    comes from lapack_eigh.
    """
    n, d, _ = stack.shape
    cap = max(q for q in range(d) if q * (d + q) < d * d)
    m = max(1, _STACK_CHUNK_ENTRIES // (d * d))
    parts = []
    for lo in range(0, n, m):
        part = _cholesky_factors(stack[lo : lo + m], cap, factors)
        if part is None:
            parts.clear()  # free the chunks' factors before the eigh allocates its own
            return _eigh_factors(stack, cap, factors)
        parts.append(part)
    values = np.concatenate([part[0] for part in parts])
    if not factors:
        return values
    q = max(part[1].shape[1] for part in parts)
    gt = np.zeros((n, q, d))
    for lo, (_, chunk) in zip(range(0, n, m), parts):
        gt[lo : lo + m, q - chunk.shape[1] :] = chunk
    return values, gt


def _eigh_factors(stack: np.ndarray, cap: int, factors: bool):
    """factor_stack by one batched lapack_eigh, with factors of at most cap columns."""
    if not factors:
        return lapack_eigh(stack, vectors=False)
    values, vectors = lapack_eigh(stack)
    try:
        kept = psd_range(values)
    except ValueError:
        return values, None
    q = int(kept.sum(axis=1).max())
    if q > cap:
        return values, None
    d = values.shape[1]
    # Each sample's kept eigenvalues are its largest, so they sit in its last q columns.
    scale = np.sqrt(np.where(kept, values, 0.0)[:, d - q :])
    return values, np.ascontiguousarray((vectors[:, :, d - q :] * scale[:, None, :]).transpose(0, 2, 1))


def _cholesky_factors(h: np.ndarray, cap: int, factors: bool):
    """factor_stack on one chunk h of the stack by pivoted Cholesky of at most cap columns:
    (values, gt or None), or None where the stack must go to _eigh_factors."""
    m, d, _ = h.shape
    rows = np.arange(m)
    eps = np.finfo(float).eps
    sq = np.einsum("ijk,ijk->i", h, h)
    small = sq < _MIN_SQUARE
    if not np.all(np.isfinite(sq)) or (small.any() and h[small].any()):
        return None
    norms = np.sqrt(sq)
    pivots = np.einsum("ijj->ij", h).copy()
    lt = np.zeros((m, cap, d))  # lt[i, j] is column j of L_i
    width = np.zeros(m, dtype=int)  # the columns of each L_i
    for q in range(cap + 1):
        piv = np.argmax(pivots, axis=1)
        top = pivots[rows, piv]
        live = top > _PIVOT_STOP * eps * norms
        if not live.any():
            break
        if q == cap:
            return None
        # Row piv of H_i is its column, as H_i is symmetric.  A stopped sample divides by
        # inf and gets a zero column, so its pivots stay as they are.
        col = h[rows, piv] - (lt[rows, :q, piv][:, None, :] @ lt[:, :q])[:, 0]
        col /= np.sqrt(np.where(live, top, np.inf))[:, None]
        lt[:, q] = col
        pivots -= col * col
        pivots[rows[live], piv[live]] = 0.0
        width += live
    lt = lt[:, :q]
    resid = lt.transpose(0, 2, 1) @ lt
    resid -= h
    if np.any(np.sqrt(np.einsum("ijk,ijk->i", resid, resid)) > _RESIDUAL_BOUND * eps * norms):
        return None
    del resid
    gram = lt @ lt.transpose(0, 2, 1)
    values = np.zeros((m, d))
    values[:, d - q :] = lapack_eigh(gram, vectors=False)
    if not factors:
        return values, None
    kept = psd_range(values)[:, d - q :]
    count = kept.sum(axis=1)
    gt = lt[:, ::-1].copy()  # reversed, each L_i^T has its zero rows first
    cut = np.flatnonzero(count < width)  # samples with a Gram value that psd_range drops
    if cut.size:
        w = lapack_eigh(gram[cut])[1]
        gt[cut] = np.where(kept[cut, :, None], w.transpose(0, 2, 1) @ lt[cut], 0.0)
    return values, gt[:, q - count.max() :]


def sym_eig(m: np.ndarray) -> EigDecomp:
    """Full eigendecomposition of a symmetric matrix.

    Eigenvalues are returned in descending order with a deterministic
    (stable) sort.  Raises :class:`ConvergenceError` if the backend fails.
    The result is not re-checked here: the tests hold LAPACK's
    eigenvectors to orthonormality within 1e-10 and the reconstruction to
    1e-8 * (1 + max |lambda|).
    """
    values, vectors = lapack_eigh(symmetrize(m))
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


def _lanczos(op: Callable[[np.ndarray], np.ndarray], start: np.ndarray):
    """The Lanczos recurrence of a self-adjoint op from a nonzero start, which both Krylov readers consume.

    op maps a flat vector to its image; start's length is the dimension,
    and start is normalized here.  Each step applies op once and runs full
    reorthogonalization twice ("twice is enough"; Golub & Van Loan, ch. 10).
    After step k it yields (k, basis, tri, beta): basis[: k + 1] holds the
    orthonormal Krylov basis as rows, tri[: k + 1, : k + 1] the tridiagonal
    T_k and beta the norm of the next residual vector.  T_k is written in
    place into a preallocated array and the basis grows in chunks, so a
    short solve allocates little whatever the budget.  The reader stops by
    leaving the loop, at the latest once the basis spans the space; the
    recurrence ends after _LANCZOS_MAX_ITER steps.
    """
    dim = start.size
    basis = np.empty((min(_LANCZOS_CHUNK, dim), dim))
    tri = np.zeros((basis.shape[0], basis.shape[0]))
    basis[0] = start / np.linalg.norm(start)
    for k in range(min(_LANCZOS_MAX_ITER, dim)):
        w = op(basis[k])
        tri[k, k] = basis[k] @ w
        kept = basis[: k + 1]
        for _ in range(2):
            w = w - kept.T @ (kept @ w)
        b = float(np.linalg.norm(w))
        yield k, basis, tri, b
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


def _budget_error(resid: float, note: str) -> ConvergenceError:
    """The error of a Krylov reader that _LANCZOS_MAX_ITER steps did not satisfy."""
    return ConvergenceError(f"Lanczos did not converge within {_LANCZOS_MAX_ITER} iterations (last residual {resid:.3e}, {note})")


def lanczos_solve(op: Callable[[np.ndarray], np.ndarray], start: np.ndarray) -> float:
    """Largest (signed) eigenvalue of a self-adjoint operator, which is not checked, read off _lanczos from start.

    The Krylov space holds only the modes the start has a component along,
    so a start orthogonal to the top eigenvector returns a lower eigenvalue.
    Step k stops when the Ritz residual beta_k |s_k| of the largest Ritz
    value is at most _LANCZOS_TOL times the spectral scale max |theta| of
    T_k, or when the Krylov space is invariant (beta_k at roundoff level,
    or the basis spans the whole space).  Returns the largest algebraic
    Ritz value.  Raises ConvergenceError with the step count, the last
    residual and the current estimate when _LANCZOS_MAX_ITER steps do not
    suffice.
    """
    dim = start.size
    # beta_k below this share of the scale is roundoff left by the reorthogonalization.
    breakdown = math.sqrt(dim) * np.finfo(float).eps
    estimate = resid = math.nan
    for k, _, tri, b in _lanczos(op, start):
        theta, s = lapack_eigh(tri[: k + 1, : k + 1])
        estimate = float(theta[-1])
        scale = max(abs(float(theta[0])), abs(estimate))
        resid = b * abs(float(s[-1, -1]))
        if resid <= _LANCZOS_TOL * scale or b <= breakdown * scale or k + 1 == dim:
            return estimate
    raise _budget_error(resid, f"estimate {estimate!r}")


def spd_solve(op: Callable[[np.ndarray], np.ndarray], b: np.ndarray) -> np.ndarray:
    """Solve op(x) = b for a self-adjoint positive definite op on the _lanczos basis started from b.

    The iterate x_k = ||b|| V_k^T T_k^{-1} e_1 is the conjugate-gradient
    one (Saad, Iterative Methods for Sparse Linear Systems, sec. 6.7).  Its
    residual ||b|| beta_k prod_{j<k} beta_j / prod_{j<=k} d_j is read off
    the LDL^T pivots d_j of T_k, CG's curvature ratios.  It stops when that
    residual is at most 1e-13 ||b|| or the basis spans the space, then
    forms x by one k x k solve and requires the true residual ||b - op(x)||
    to be at most 1e-10 ||b||.  A zero b returns zero without applying op.
    Raises ConvergenceError on a pivot d_j <= 0 (op is not positive
    definite), on a true residual above that bound, or with the step count,
    the last residual and ||b|| when _LANCZOS_MAX_ITER steps do not suffice.
    """
    b = np.asarray(b, dtype=float)
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return np.zeros_like(b)
    resid, pivot, ratio = b_norm, 1.0, 1.0  # ratio = prod_{j<k} beta_j / prod_{j<k} d_j
    for k, basis, tri, beta in _lanczos(op, b):
        pivot = tri[k, k] - (tri[k, k - 1] ** 2 / pivot if k else 0.0)
        if not pivot > 0.0:
            raise ConvergenceError(f"Lanczos met non-positive curvature {pivot:.3e} at step {k + 1}")
        ratio /= pivot
        resid = b_norm * beta * ratio
        if resid <= 1e-13 * b_norm or k + 1 == b.size:
            e1 = np.zeros(k + 1)
            e1[0] = b_norm
            x = basis[: k + 1].T @ np.linalg.solve(tri[: k + 1, : k + 1], e1)
            true_resid = float(np.linalg.norm(b - op(x)))
            if true_resid > 1e-10 * b_norm:
                raise ConvergenceError(f"Lanczos stopped at true residual {true_resid:.3e} (||b|| = {b_norm:.3e}) after {k + 1} steps")
            return x
        ratio *= beta
    raise _budget_error(resid, f"||b|| = {b_norm:.3e}")
