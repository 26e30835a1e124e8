"""Independent oracles for every output the benchmark checks.

Nothing here calls into ``sgdstab``: each quantity is recomputed from the
raw Hessians and gradients with plain numpy (and scipy's ``eigsh``), by a
different route from the package's where one exists.

Notation follows the package: Hbar is the mean Hessian,
C = (Hbar (+) Hbar)/2, D = (1-p) Hbar kron Hbar + (p/n) sum_i H_i kron H_i,
and the mean-square threshold is 2 / lambda_max(C^{+1/2} D C^{+1/2}).
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy.sparse.linalg import LinearOperator, eigsh

from inputs import RANK_RTOL, range_basis

# Above this dimension thresholds come from the matrix-free oracle.
DENSE_ORACLE_MAX_D = 24


def mixing_weight(n: int, batch: int) -> float:
    return 0.0 if n == 1 else (n - batch) / (batch * (n - 1))


def range_projector(hbar: np.ndarray) -> np.ndarray:
    basis = range_basis(hbar)
    return basis @ basis.T


def _pair_factor(w: np.ndarray) -> np.ndarray:
    """Entries of (C^{1/2})^+ in the basis v_a kron v_b of Hbar's eigenvectors."""
    pair = 0.5 * (w[:, None] + w[None, :])
    kept = pair > RANK_RTOL * max(float(w[-1]), 0.0)
    factor = np.zeros_like(pair)
    factor[kept] = 1.0 / np.sqrt(pair[kept])
    return factor


def dense_generalized_sharpness(h: np.ndarray, p: float) -> float:
    """lambda_max(C^{+1/2} D C^{+1/2}) with every d^2 x d^2 matrix dense, built by np.kron."""
    n = h.shape[0]
    hbar = h.mean(axis=0)
    w, v = np.linalg.eigh(hbar)
    vv = np.kron(v, v)
    c_half_pinv = (vv * _pair_factor(w).reshape(-1)) @ vv.T
    dmat = (1.0 - p) * np.kron(hbar, hbar)
    for hi in h:
        dmat += (p / n) * np.kron(hi, hi)
    s = c_half_pinv @ dmat @ c_half_pinv
    return float(np.linalg.eigvalsh(0.5 * (s + s.T))[-1])


def operator_generalized_sharpness(h: np.ndarray, p: float) -> float:
    """The same eigenvalue by Lanczos (eigsh) on a matrix-free S written in Hbar's eigenbasis."""
    n, d, _ = h.shape
    w, v = np.linalg.eigh(h.mean(axis=0))
    k = v.T @ h @ v
    factor = _pair_factor(w)

    def matvec(x: np.ndarray) -> np.ndarray:
        m = factor * x.reshape(d, d)
        out = (1.0 - p) * (w[:, None] * m * w[None, :]) + (p / n) * (k @ m @ k).sum(axis=0)
        return (factor * out).reshape(-1)

    op = LinearOperator((d * d, d * d), matvec=matvec, dtype=float)
    start = np.random.default_rng(0).standard_normal(d * d)
    return float(eigsh(op, k=1, which="LA", tol=1e-14, v0=start, return_eigenvectors=False)[0])


def threshold(h: np.ndarray, batch: int) -> float:
    """Exact mean-square stability threshold 2 / generalized sharpness."""
    p = mixing_weight(h.shape[0], batch)
    if h.shape[1] <= DENSE_ORACLE_MAX_D:
        return 2.0 / dense_generalized_sharpness(h, p)
    return 2.0 / operator_generalized_sharpness(h, p)


def mixture_moments(h, g, eta, p, mu0, steps):
    """Means and second moments for t = 0..steps, mixture form of the exact recursion.

    Sigma' = (1-p) Abar Sigma Abar + (p/n) sum_i A_i Sigma A_i
             + eta^2 p/n sum_i (H_i mu g_i' + g_i mu' H_i) + eta^2 p Sigma_g.
    """
    n, d, _ = h.shape
    eye = np.eye(d)
    abar = eye - eta * h.mean(axis=0)
    a = eye - eta * h
    noise = eta * eta * p * (g.T @ g) / n
    mu, sigma = mu0.copy(), np.outer(mu0, mu0)
    path = [(mu, sigma)]
    for _ in range(steps):
        coupling = (h @ mu).T @ g
        sigma = (
            (1.0 - p) * (abar @ sigma @ abar)
            + (p / n) * (a @ sigma @ a).sum(axis=0)
            + (eta * eta * p / n) * (coupling + coupling.T)
            + noise
        )
        mu = abar @ mu
        path.append((mu, sigma))
    return path


def enumerated_moments(h, g, eta, batch, mu0, steps):
    """The same moments by exhaustive enumeration of all size-B batches."""
    n, d, _ = h.shape
    combos = np.array(list(itertools.combinations(range(n), batch)))
    a = np.eye(d) - (eta / batch) * h[combos].sum(axis=1)
    v = (eta / batch) * g[combos].sum(axis=1)
    count = combos.shape[0]
    mean_a, mean_v, mean_vv = a.mean(axis=0), v.mean(axis=0), (v.T @ v) / count
    mu, sigma = mu0.copy(), np.outer(mu0, mu0)
    path = [(mu, sigma)]
    for _ in range(steps):
        cross = ((a @ mu).T @ v) / count  # E[A mu v']
        sigma = (a @ sigma @ a).mean(axis=0) - cross - cross.T + mean_vv
        mu = mean_a @ mu - mean_v
        path.append((mu, sigma))
    return path


def trajectory_columns(hbar, path) -> np.ndarray:
    """Rows of (trace_sigma_perp, trace_sigma_par, mu_norm, loss_gap_estimate)."""
    p_range = range_projector(hbar)
    p_null = np.eye(hbar.shape[0]) - p_range
    return np.array(
        [
            (
                np.trace(p_range @ s @ p_range),
                np.trace(p_null @ s @ p_null),
                np.linalg.norm(mu),
                0.5 * np.trace(hbar @ s),
            )
            for mu, s in path
        ]
    )


def fixed_point_residual(h, g, eta, p, sigma) -> float:
    """||P (Q(Sigma) + eta^2 p Sigma_g) P - Sigma||_F relative to the noise injected per step."""
    n, d, _ = h.shape
    hbar = h.mean(axis=0)
    eye = np.eye(d)
    abar = eye - eta * hbar
    a = eye - eta * h
    p_range = range_projector(hbar)
    noise = eta * eta * p * (p_range @ (g.T @ g / n) @ p_range)
    q = (1.0 - p) * (abar @ sigma @ abar) + (p / n) * (a @ sigma @ a).sum(axis=0)
    residual = p_range @ q @ p_range + noise - sigma
    return float(np.linalg.norm(residual) / np.linalg.norm(noise))


def limit_second_moment(h, g, eta, p) -> np.ndarray:
    """Range-projected fixed point Sigma from a dense solve of
    (2C - eta D) vec(Sigma) = eta p vec(P Sigma_g P), matrices built by np.kron."""
    n, d, _ = h.shape
    hbar = h.mean(axis=0)
    eye = np.eye(d)
    dmat = (1.0 - p) * np.kron(hbar, hbar)
    for hi in h:
        dmat += (p / n) * np.kron(hi, hi)
    system = np.kron(hbar, eye) + np.kron(eye, hbar) - eta * dmat
    p_range = range_projector(hbar)
    rhs = eta * p * (p_range @ (g.T @ g / n) @ p_range).reshape(-1)
    x = np.linalg.lstsq(system, rhs, rcond=RANK_RTOL)[0]
    return p_range @ x.reshape(d, d) @ p_range


def sgd_contractions(h, eta, batch):
    """All equiprobable batch contractions I - (eta/B) sum_{i in b} H_i."""
    n, d, _ = h.shape
    combos = np.array(list(itertools.combinations(range(n), batch)))
    a = np.eye(d) - (eta / batch) * h[combos].sum(axis=1)
    return a, np.full(len(combos), 1.0 / len(combos))


def mixture_contractions(h, eta, p):
    """Full-batch contraction with weight 1-p, single-sample ones with weight p/n."""
    n, d, _ = h.shape
    eye = np.eye(d)
    a = np.concatenate(((eye - eta * h.mean(axis=0))[None], eye - eta * h))
    return a, np.concatenate(([1.0 - p], np.full(n, p / n)))


def interpolating_square_norm(contractions, weights, x0, p_range, steps):
    """Exact mean and variance of x_t' P x_t for x_{t+1} = A_t x_t, A_t i.i.d.

    Tracks E[vec(xx')] and the fourth moment E[vec(xx') vec(xx')'] through
    the Kronecker squares of the contractions, so the Monte-Carlo standard
    error is known exactly rather than estimated.
    """
    k = np.stack([np.kron(a, a) for a in contractions])
    y = np.outer(x0, x0).reshape(-1)
    m2, m4 = y, np.outer(y, y)
    pv = p_range.reshape(-1)
    means, variances = [pv @ m2], [pv @ m4 @ pv - (pv @ m2) ** 2]
    for _ in range(steps):
        m2 = np.tensordot(weights, k @ m2, axes=1)
        m4 = np.tensordot(weights, k @ m4 @ k.transpose(0, 2, 1), axes=1)
        means.append(pv @ m2)
        variances.append(pv @ m4 @ pv - (pv @ m2) ** 2)
    return np.array(means), np.maximum(np.array(variances), 0.0)


def gaussian_square_norm_variance(mu, second_moment, p_range) -> float:
    """Var(x' P x) for x Gaussian with the given first and second moments."""
    pc = p_range @ (second_moment - np.outer(mu, mu)) @ p_range
    return float(2.0 * np.trace(pc @ pc) + 4.0 * mu @ pc @ mu)
