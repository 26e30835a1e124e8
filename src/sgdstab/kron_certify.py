"""Numerical certification of symmetric Kronecker systems.

For symmetric matrices Y_1..Y_M, the d^2 x d^2 matrix

    Q = sum_i w_i * (Y_i kron Y_i),   w_i >= 0,

is symmetric and enjoys three structural properties that this module
verifies numerically (Q from _kron_square_sum, the one dense
Kronecker-square builder, which refuses d > DENSE_CAP):

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

The module also holds every other dense d^2 x d^2 matrix of the package,
each built by _kron_square_sum: mixture_matrix, the dense form of the
mixture (1-p) A kron A + (p/n) sum_i M_i kron M_i that spectral applies
matrix-free; the SGD transition Q and the mixture process's transition
built on it; and the brute-force Q, which averages A_b kron A_b over every
size-B batch b from montecarlo.enumerated_batches.  Beside it are the two
oracles of moments.cross_term's closed coupling E[v kron A]: the same
enumeration (brute_force_cross_term), and the mean and standard error of
CROSS_TERM_SAMPLES batches from montecarlo.draw_batches
(sampled_cross_term).  They are oracles for the tests, for verify and for
stability.curvature_operators' dense branch; no threshold, bound, limit
solve or moment step forms them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .instances import ProblemInstance, check_mixture_weight, check_step_size, mixing_weight
from .linalg import ConvergenceError, kron, sym_eig, symmetrize, unvec, vec
from .montecarlo import ENUM_CAP, draw_batches, enumerated_batches

# Above this dimension the d^2 x d^2 matrices are not formed densely.
DENSE_CAP = 48

# Largest relative negative eigenvalue of a PSD top eigenvector, and its largest relative residual.
RESIDUAL_TOL = 1e-7

# Batches drawn by sampled_cross_term, and its float entries per chunk (about 1 MB of temporaries).
CROSS_TERM_SAMPLES = 100_000
_SAMPLE_CHUNK_ENTRY_BUDGET = 131_072


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
            if not np.all(np.isfinite(m[i])):
                raise ValueError(f"member {i} has a non-finite entry")
            scale = max(1.0, float(np.max(np.abs(m[i]))))
            if np.max(np.abs(m[i] - m[i].T)) > 1e-12 * scale:
                raise ValueError(f"member {i} is not symmetric")
        m = symmetrize(m)
        w = None
        if weights is not None:
            w = np.asarray(weights, dtype=float)
            if w.shape != (m.shape[0],):
                raise ValueError(f"weights must have shape ({m.shape[0]},), got {w.shape}")
            if not np.all(np.isfinite(w)):
                raise ValueError("weights must be finite")
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


def _kron_square_sum(d: int, terms) -> np.ndarray:
    """Dense sum_k w_k (M_k kron M_k) over the (w_k, M_k) pairs of terms, in order; ValueError above DENSE_CAP."""
    if d > DENSE_CAP:
        raise ValueError(f"dense d^2 x d^2 matrix requested for d={d} > cap {DENSE_CAP}")
    out = np.zeros((d * d, d * d))
    for w, m in terms:
        out += w * kron(m, m)
    return out


def mixture_matrix(a_bar: np.ndarray, mats: np.ndarray, p: float) -> np.ndarray:
    """Dense (1-p) (A kron A) + (p/n) sum_i (M_i kron M_i), the d^2 x d^2 form of spectral.mixture_apply."""
    n = mats.shape[0]
    return _kron_square_sum(a_bar.shape[0], [(1.0 - p, a_bar)] + [(p / n, m) for m in mats])


def mixture_transition(inst: ProblemInstance, eta: float, p: float) -> np.ndarray:
    """E[A kron A] of the mixture process: single-sample step w.p. p,
    full-batch step w.p. 1-p."""
    check_mixture_weight(p)
    check_step_size(eta)
    eye = np.eye(inst.d)
    return mixture_matrix(eye - eta * inst.mean_hessian(), eye - eta * inst.hessians, p)


def second_moment_transition(inst: ProblemInstance, eta: float, batch: int) -> np.ndarray:
    """The dense transition Q advancing vec(E[x x^T]) by one SGD step: the mixture
    (1-p) (A kron A) + (p/n) sum_i (A_i kron A_i), A = I - eta*Hbar and
    A_i = I - eta*H_i, that is mixture_transition at p = mixing_weight(n, B)."""
    return mixture_transition(inst, eta, mixing_weight(inst.n, batch))


def _batch_count(inst: ProblemInstance, eta: float, batch: int) -> int:
    """C(n, B), the number of size-B batches; ValueError unless 1 <= B <= n, eta >= 0 and C(n, B) <= ENUM_CAP."""
    mixing_weight(inst.n, batch)  # ValueError unless 1 <= batch <= n
    check_step_size(eta)
    count = math.comb(inst.n, batch)
    if count > ENUM_CAP:
        raise ValueError(f"enumeration of C({inst.n},{batch}) = {count} batches exceeds cap {ENUM_CAP}")
    return count


def brute_force_transition(inst: ProblemInstance, eta: float, batch: int) -> np.ndarray:
    """Q by exhaustive enumeration of all C(n, B) <= ENUM_CAP equiprobable size-B batches."""
    count = _batch_count(inst, eta, batch)
    return _kron_square_sum(inst.d, ((1.0, a) for a, _ in enumerated_batches(inst, eta, batch))) / count


def brute_force_cross_term(inst: ProblemInstance, eta: float, batch: int) -> np.ndarray:
    """E[v kron A], (d^2, d), by exhaustive enumeration of all C(n, B) <= ENUM_CAP equiprobable size-B batches."""
    count = _batch_count(inst, eta, batch)
    d = inst.d
    ref = np.zeros((d * d, d))
    for a, v in enumerated_batches(inst, eta, batch):
        ref += kron(v[:, None], a)
    return ref / count


def sampled_cross_term(inst: ProblemInstance, eta: float, batch: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard error, each (d^2, d), of v kron A over CROSS_TERM_SAMPLES uniform size-B batches.

    The batches come from montecarlo.draw_batches at seed 1234, sample k being
    replicate k's first batch, in chunks sized to keep temporaries near 1 MB.
    """
    n, d = inst.n, inst.d
    mixing_weight(n, batch)  # ValueError unless 1 <= batch <= n
    flat_h, flat_eye = inst.hessians.reshape(n, d * d), np.eye(d).reshape(-1)
    chunk = max(1, _SAMPLE_CHUNK_ENTRY_BUDGET // (n + 3 * d * d))
    acc = np.zeros((d, d * d))
    acc_sq = np.zeros((d, d * d))
    for start in range(0, CROSS_TERM_SAMPLES, chunk):
        idx = draw_batches(1234, range(start, min(start + chunk, CROSS_TERM_SAMPLES)), 1, n, batch)[:, 0]
        h_sum = flat_h[idx[:, 0]]
        g_sum = inst.gradients[idx[:, 0]]
        for slot in range(1, batch):
            h_sum += flat_h[idx[:, slot]]
            g_sum += inst.gradients[idx[:, slot]]
        a = flat_eye - (eta / batch) * h_sum
        v = (eta / batch) * g_sum
        # Entry (i*d + j, l) of sample k is v_k[i] * A_k[j, l]; the sums over k are GEMMs.
        acc += v.T @ a
        acc_sq += (v * v).T @ (a * a)
    mean = acc.reshape(d * d, d) / CROSS_TERM_SAMPLES
    var = np.maximum(acc_sq.reshape(d * d, d) / CROSS_TERM_SAMPLES - mean * mean, 0.0)
    return mean, np.sqrt(var / CROSS_TERM_SAMPLES)


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
