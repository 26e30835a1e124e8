"""Oracles that only the tests use.

The dense d^2 x d^2 ones recompute a quantity that the package solves
matrix-free on the r x r range block of Hbar, from a full dense matrix
and one dense eigendecomposition.  projected_transition_lambda_max
solves the projected transition on that block, and
projected_transition_dense is its dense oracle.
"""

import numpy as np

from conftest import gaussian_start
from sgdstab.instances import check_step_size, mixing_weight
from sgdstab.linalg import _lanczos_solve, kron, null_projectors, psd_range, sym_eig, symmetrize
from sgdstab.stability import _mixture_matrix, _range_d, range_basis


def sqrt_pinv_psd(m):
    """Pseudoinverse of the PSD square root, (M^{1/2})^+, with psd_range's rank rule and PSD check."""
    eig = sym_eig(m)
    kept = psd_range(eig.values)
    inv = np.zeros_like(eig.values)
    inv[kept] = 1.0 / np.sqrt(eig.values[kept])
    return symmetrize(eig.vectors @ (inv[:, None] * eig.vectors.T))


def generalized_sharpness_dense(hbar, dmat):
    """lambda_max of (C^{1/2})^+ D (C^{1/2})^+ from a dense D.

    D is rotated by V kron V and scaled by the pair factors ((lam_a + lam_b)/2)^{-1/2}
    that psd_range keeps (ValueError if C is not PSD), then one d^2 x d^2
    eigendecomposition gives the top eigenvalue.
    """
    eig = sym_eig(hbar)
    pair = 0.5 * (eig.values[:, None] + eig.values[None, :]).reshape(-1)
    kept = psd_range(pair)
    factor = np.zeros_like(pair)
    factor[kept] = 1.0 / np.sqrt(pair[kept])
    w = kron(eig.vectors, eig.vectors)
    s = factor[:, None] * (w.T @ dmat @ w) * factor[None, :]
    lam = float(sym_eig(s).values[0])
    return lam if lam > 0 else 0.0


def projected_transition_dense(inst, eta, batch):
    """Dense (P kron P) Q, P the range projector of Hbar, as the projected mixture sum

        (1-p) (P - eta*Hbar) kron (P - eta*Hbar) + (p/n) sum_i (P - eta*H_i) kron (P - eta*H_i).

    Oracle for projected_transition_lambda_max.
    """
    hbar = inst.mean_hessian()
    _, p_range = null_projectors(hbar)
    return _mixture_matrix(p_range - eta * hbar, p_range - eta * inst.hessians, mixing_weight(inst.n, batch))


def projected_transition_lambda_max(inst, eta, batch):
    """lambda_max of (P kron P) Q with P the range projector of Hbar.

    For PSD per-sample Hessians this matrix equals the projected mixture
    sum, which is symmetric; it is below 1 exactly on 0 < eta < eta_var.
    Solved by Lanczos on the r x r range block of range_basis, without
    forming the matrix: there it is I - 2*eta*C + eta^2*D, which maps X to
    X - eta*(pair o X) + eta^2 * D_r(X) with pair = lam_a + lam_b and
    D_r = _range_d (the mean of the k_i is Lam).  Zero when r = 0.  The
    solve starts from a seeded Gaussian, not from the threshold solve's
    diag(sqrt(lam)), so this oracle does not rest on the start it checks.
    """
    check_step_size(eta)
    p = mixing_weight(inst.n, batch)
    basis = range_basis(inst)
    lam, r = basis.lam, basis.lam.size
    if r == 0:
        return 0.0
    pair = lam[:, None] + lam[None, :]
    d_r = _range_d(basis, p)

    def apply(u):
        x = u.reshape(r, r)
        return (x - eta * (pair * x) + (eta * eta) * d_r(x)).reshape(-1)

    return _lanczos_solve(apply, gaussian_start(r * r, 7))
