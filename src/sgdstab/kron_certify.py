"""Numerical certification of symmetric Kronecker systems.

For symmetric matrices Y_1..Y_M, the d^2 x d^2 matrix

    Q = sum_i w_i * (Y_i kron Y_i),   w_i >= 0,

is symmetric and enjoys three structural properties that this module
verifies numerically (Q from stability._kron_square_sum, the one dense
Kronecker-square builder, which refuses d > stability.DENSE_CAP):

  1. Q commutes with transposition: the commutation matrix K, with
     K vec(Z) = vec(Z^T), satisfies K (A kron B) K = B kron A.  So Q is
     block diagonal on symmetric (+) skew matrices, and has an
     eigenbasis of symmetric and skew matrices.  The norm of the cross
     block Sym^T Q Skew, relative to max(1, rho), is reported as
     block_coupling; it is zero exactly when the split holds;
  2. the spectral radius rho equals the top eigenvalue lambda_max, both
     read off one eigendecomposition of the full Q;
  3. some top eigenvector reshapes to a PSD matrix: the top eigenvector
     of the symmetric block, with its spectrum replaced by its
     elementwise absolute value when it is not PSD, must be an
     eigenvector of Q for lambda_max.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import ConvergenceError, sym_eig, symmetrize, unvec, vec
from .stability import _kron_square_sum

# Largest relative negative eigenvalue of a PSD top eigenvector, and its largest relative residual.
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
        m = symmetrize(m)
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
    block_coupling: float


def _assemble(fam: KronFamily) -> np.ndarray:
    weights = fam.weights if fam.weights is not None else np.ones(fam.members.shape[0])
    return _kron_square_sum(fam.dim, zip(weights, fam.members))


def _split_basis(d: int, sign: float) -> np.ndarray:
    """Orthonormal basis, as vec'd columns, of the d x d matrices Z with Z^T = sign * Z."""
    rows, cols = np.triu_indices(d, 0 if sign > 0 else 1)
    basis = np.zeros((d * d, rows.size))
    basis[rows + cols * d, np.arange(rows.size)] = 1.0
    basis[cols + rows * d, np.arange(rows.size)] += sign
    return basis / np.linalg.norm(basis, axis=0)


def certify(fam: KronFamily) -> CertifyReport:
    """Eigendecompose Q = sum w_i Y_i kron Y_i and verify its structure.

    Raises ConvergenceError when the symmetric block has no PSD
    eigenvector of lambda_max.
    """
    d = fam.dim
    q = _assemble(fam)
    values = sym_eig(q).values
    lam_max = float(values[0])
    rho = float(np.max(np.abs(values)))
    sym = _split_basis(d, 1.0)
    q_sym = q @ sym
    coupling = float(np.linalg.norm(_split_basis(d, -1.0).T @ q_sym)) / max(1.0, rho)

    # Top eigenvector of the symmetric block; abs-repair its spectrum if needed.
    top_mat = symmetrize(unvec(sym @ sym_eig(sym.T @ q_sym).vectors[:, 0], d))
    top_eig = sym_eig(top_mat)
    if float(top_eig.values[-1]) < -RESIDUAL_TOL * max(1.0, float(np.linalg.norm(top_mat))):
        top_mat = symmetrize(top_eig.vectors @ (np.abs(top_eig.values)[:, None] * top_eig.vectors.T))
    top_vec = vec(top_mat)
    residual = float(np.linalg.norm(q @ top_vec - lam_max * top_vec))
    if residual > RESIDUAL_TOL * max(1.0, abs(lam_max)):
        raise ConvergenceError(
            f"no PSD eigenvector of lambda_max = {lam_max!r} on the symmetric block (residual {residual:.3e})"
        )
    return CertifyReport(
        rho=rho,
        lambda_max=lam_max,
        top_eigvec_matrix=top_mat,
        min_eig_of_top=float(sym_eig(top_mat).values[-1]),
        block_coupling=coupling,
    )
