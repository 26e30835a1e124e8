"""Numerical certification of symmetric Kronecker systems.

For symmetric matrices Y_1..Y_M, the d^2 x d^2 matrix

    Q = sum_i w_i * (Y_i kron Y_i),   w_i >= 0,

is symmetric and enjoys three structural properties that this module
verifies by direct eigendecomposition:

  1. Q admits a complete eigenbasis whose matrix reshapes are each
     symmetric or skew-symmetric (after rotating within degenerate
     eigenspaces);
  2. the spectral radius equals the top eigenvalue;
  3. some top eigenvector reshapes to a PSD matrix (obtained, when
     needed, by replacing the spectrum of a symmetric top eigenvector
     with its elementwise absolute value).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import ConvergenceError, kron, sym_eig, symmetrize, unvec, vec
from .stability import _dense_zeros

# Eigenvalues within this relative gap form one eigenspace.
GROUP_TOL = 1e-8
# Largest relative negative eigenvalue of a PSD top eigenvector, and residual of its repair.
RESIDUAL_TOL = 1e-7


@dataclass(frozen=True)
class KronFamily:
    """A family of symmetric d x d matrices with optional nonnegative weights."""

    dim: int
    members: np.ndarray  # (M, d, d)
    weights: np.ndarray | None = None

    @staticmethod
    def from_matrices(members, weights=None) -> "KronFamily":
        m = np.asarray(members, dtype=float)
        if m.ndim != 3 or m.shape[1] != m.shape[2]:
            raise ValueError(f"members must have shape (M, d, d), got {m.shape}")
        for i in range(m.shape[0]):
            scale = max(1.0, float(np.max(np.abs(m[i]))))
            if np.max(np.abs(m[i] - m[i].T)) > 1e-12 * scale:
                raise ValueError(f"member {i} is not symmetric")
        m = 0.5 * (m + np.transpose(m, (0, 2, 1)))
        w = None
        if weights is not None:
            w = np.asarray(weights, dtype=float)
            if w.shape != (m.shape[0],):
                raise ValueError(f"weights must have shape ({m.shape[0]},), got {w.shape}")
            if np.any(w < 0):
                raise ValueError("weights must be nonnegative")
        return KronFamily(dim=m.shape[1], members=m, weights=w)


@dataclass(frozen=True)
class CertifyReport:
    rho: float
    lambda_max: float
    top_eigvec_matrix: np.ndarray
    min_eig_of_top: float
    eigvec_symmetry_defects: np.ndarray


def _assemble(fam: KronFamily) -> np.ndarray:
    q = _dense_zeros(fam.dim)
    weights = fam.weights if fam.weights is not None else np.ones(fam.members.shape[0])
    for w, y in zip(weights, fam.members):
        # sqrt-weight scaling keeps the Y kron Y structure intact.
        ys = np.sqrt(w) * y
        q += kron(ys, ys)
    return q


def _repair_group(vectors: np.ndarray, d: int) -> np.ndarray:
    """Rotate an eigenspace basis so each member is symmetric or skew.

    Splits every basis matrix into its symmetric and skew parts, then
    re-orthonormalizes the two stacks separately.  Symmetric and skew
    vectorizations are automatically orthogonal to each other.
    """
    sym_parts = []
    skew_parts = []
    for j in range(vectors.shape[1]):
        z = unvec(vectors[:, j], d)
        sym_parts.append(vec(0.5 * (z + z.T)))
        skew_parts.append(vec(0.5 * (z - z.T)))
    repaired = []
    for parts in (sym_parts, skew_parts):
        stack = np.column_stack(parts)
        u, s, _ = np.linalg.svd(stack, full_matrices=False)
        keep = s > 1e-9 * max(1.0, float(s[0]) if s.size else 0.0)
        if np.any(keep):
            repaired.append(u[:, keep])
    basis = np.column_stack(repaired) if repaired else np.zeros((d * d, 0))
    if basis.shape[1] != vectors.shape[1]:
        raise ConvergenceError(
            f"eigenspace repair changed the dimension: {vectors.shape[1]} -> {basis.shape[1]}"
        )
    return basis


def certify(fam: KronFamily) -> CertifyReport:
    """Eigendecompose Q = sum w_i Y_i kron Y_i and verify its structure."""
    d = fam.dim
    q = _assemble(fam)
    eig = sym_eig(q)
    values, vectors = eig.values, eig.vectors

    # Group eigenvalues by relative gap and repair each eigenspace.
    repaired = np.zeros_like(vectors)
    idx = 0
    while idx < values.size:
        jdx = idx + 1
        while jdx < values.size and abs(values[jdx] - values[idx]) <= GROUP_TOL * max(1.0, abs(values[idx])):
            jdx += 1
        repaired[:, idx:jdx] = _repair_group(vectors[:, idx:jdx], d)
        idx = jdx

    defects = np.zeros(values.size)
    for j in range(values.size):
        z = unvec(repaired[:, j], d)
        defects[j] = min(np.linalg.norm(z - z.T), np.linalg.norm(z + z.T))

    lam_max = float(values[0])
    rho = float(np.max(np.abs(values)))

    # Pick a symmetric top eigenvector; abs-repair its spectrum if needed.
    top_group = np.abs(values - lam_max) <= GROUP_TOL * max(1.0, abs(lam_max))
    top_vec = None
    for j in np.nonzero(top_group)[0]:
        z = unvec(repaired[:, j], d)
        if np.linalg.norm(z - z.T) <= np.linalg.norm(z + z.T):
            top_vec = repaired[:, j]
            break
    if top_vec is None:
        raise ConvergenceError("no symmetric eigenvector found in the top eigenspace")
    top_mat = symmetrize(unvec(top_vec, d))
    top_eig = sym_eig(top_mat)
    if float(top_eig.values[-1]) < -RESIDUAL_TOL * max(1.0, float(np.linalg.norm(top_mat))):
        top_mat = symmetrize(top_eig.vectors @ (np.abs(top_eig.values)[:, None] * top_eig.vectors.T))
        top_vec = vec(top_mat)
        residual = np.linalg.norm(q @ top_vec - lam_max * top_vec)
        if residual > RESIDUAL_TOL * max(1.0, abs(lam_max)):
            raise ConvergenceError(
                f"absolute-spectrum repair of the top eigenvector failed (residual {residual:.3e})"
            )
    min_eig_top = float(sym_eig(top_mat).values[-1])
    return CertifyReport(
        rho=rho,
        lambda_max=lam_max,
        top_eigvec_matrix=top_mat,
        min_eig_of_top=min_eig_top,
        eigvec_symmetry_defects=defects,
    )
