"""Dense d^2 x d^2 oracles that only the tests use.

Each recomputes a quantity that the package solves matrix-free on the
r x r range block of Hbar, from a full dense matrix and one dense
eigendecomposition.
"""

import numpy as np

from sgdstab.instances import mixing_weight
from sgdstab.linalg import kron, null_projectors, psd_range, sym_eig, symmetrize
from sgdstab.stability import _mixture_matrix


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
