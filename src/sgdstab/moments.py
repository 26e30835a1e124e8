"""Closed-form first- and second-moment dynamics of the linearized iterates.

With x_t = theta_t - theta*, a single SGD step multiplies x by the random
contraction A = I - (eta/B) sum_{i in b} H_i and subtracts the batch
gradient noise v = (eta/B) sum_{i in b} g_i.  Taking expectations:

    mu'    = (I - eta*Hbar) mu
    Sigma' = E[A Sigma A] - E[A mu v^T] - E[v mu^T A] + Sigma_v

where Sigma_v = eta^2 * p * Sigma_g with Sigma_g = (1/n) sum g_i g_i^T,
and the noise-contraction coupling has the closed form

    E[v kron A] = -eta^2 * p * (1/n) sum_i g_i kron H_i.

That coupling is never trusted bare: it is validated against exhaustive
batch enumeration whenever a stepper is built.  When enumeration is
infeasible it is checked instead against MC_VALIDATION_SAMPLES seeded
batches, drawn in chunks by vectorized partial Fisher-Yates, and must
agree within five standard errors.

One step costs one batched matmul and one GEMM: the sandwich
sum_i A_i Sigma A_i^T is [A_1 ... A_n] times the stacked Sigma A_i^T.

For step sizes below the mean-square threshold the range-projected
second moment converges to

    vec(Sigma_perp_inf) = eta * p * pinv(2C - eta*D) vec(Sigma_g_perp),

from which the asymptotic squared distance, loss gap and squared
gradient norm follow as inner products with vec(I), vec(Hbar)/2 and
vec(Hbar^2).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .instances import Hyperparams, MinimumClass, ProblemInstance, _fmt, classify, mixing_weight, stream
from .linalg import (
    DEFAULT_RANK_RTOL,
    ConvergenceError,
    kron,
    null_projectors,
    sym_eig,
    symmetrize,
    unvec,
    vec,
)
from .montecarlo import _fisher_yates_batches
from .stability import ENUM_CAP, _dense_curvature, variance_threshold

MC_VALIDATION_SAMPLES = 100_000
# Float entries per Monte-Carlo validation chunk (about 1 MB of temporaries).
_MC_CHUNK_ENTRY_BUDGET = 131_072


@dataclass(frozen=True)
class MomentState:
    """First and second moment of the offset theta_t - theta* at one step."""

    mean: np.ndarray  # (d,)
    second_moment: np.ndarray  # (d, d), symmetric PSD
    step: int = 0


def make_state(mean, second_moment, step: int = 0) -> MomentState:
    mean = np.asarray(mean, dtype=float)
    sm = symmetrize(np.asarray(second_moment, dtype=float))
    if sm.shape != (mean.size, mean.size):
        raise ValueError(f"second moment shape {sm.shape} does not match mean length {mean.size}")
    return MomentState(mean=mean, second_moment=sm, step=step)


def point_state(x0, step: int = 0) -> MomentState:
    """Moment state of a deterministic initial offset x0."""
    x0 = np.asarray(x0, dtype=float)
    return MomentState(mean=x0.copy(), second_moment=np.outer(x0, x0), step=step)


@dataclass(frozen=True)
class GradientNoise:
    """Second-moment structure of the per-sample gradients."""

    sigma_g: np.ndarray  # (1/n) sum g_i g_i^T
    sigma_g_perp: np.ndarray  # range-projected version
    cross: np.ndarray  # E[v kron A], shape (d^2, d)


def cross_term(
    inst: ProblemInstance,
    eta: float,
    batch: int,
    validate: bool = True,
    enum_cap: int = ENUM_CAP,
    mc_samples: int = MC_VALIDATION_SAMPLES,
    seed: int = 1234,
) -> np.ndarray:
    """E[v kron A] as a (d^2, d) matrix: -eta^2 * p * (1/n) sum_i g_i kron H_i.

    The closed form is checked against exhaustive batch enumeration when
    C(n, B) <= enum_cap.  Otherwise mc_samples batches are drawn from
    stream(seed) by vectorized partial Fisher-Yates, in chunks sized to
    keep temporaries near 1 MB, and every entry must lie within five
    standard errors (plus 1e-12) of the sample mean.  A mismatch raises
    ConvergenceError.
    """
    n, d = inst.n, inst.d
    p = mixing_weight(n, batch)
    # Row a*d + b, column c holds sum_i g_i[a] H_i[b, c].
    closed = (inst.gradients.T @ inst.hessians.reshape(n, d * d)).reshape(d * d, d)
    closed *= -(eta * eta) * p / n
    if not validate or np.all(inst.gradients == 0.0):
        return closed
    eye = np.eye(d)
    count = math.comb(n, batch)
    if count <= enum_cap:
        ref = np.zeros((d * d, d))
        for combo in itertools.combinations(range(n), batch):
            idx = list(combo)
            a = eye - (eta / batch) * inst.hessians[idx].sum(axis=0)
            v = (eta / batch) * inst.gradients[idx].sum(axis=0)
            ref += kron(v[:, None], a)
        ref /= count
        scale = max(1.0, float(np.max(np.abs(ref))))
        defect = float(np.max(np.abs(closed - ref)))
        if defect > 1e-10 * scale:
            raise ConvergenceError(f"cross term disagrees with batch enumeration by {defect:.3e}")
        return closed
    rng = stream(seed)
    flat_h = inst.hessians.reshape(n, d * d)
    chunk = max(1, _MC_CHUNK_ENTRY_BUDGET // (n + 3 * d * d))
    acc = np.zeros((d, d * d))
    acc_sq = np.zeros((d, d * d))
    for start in range(0, mc_samples, chunk):
        idx = _fisher_yates_batches(rng, n, batch, min(chunk, mc_samples - start))
        h_sum = flat_h[idx[:, 0]]
        g_sum = inst.gradients[idx[:, 0]]
        for slot in range(1, batch):
            h_sum += flat_h[idx[:, slot]]
            g_sum += inst.gradients[idx[:, slot]]
        a = eye.reshape(-1) - (eta / batch) * h_sum
        v = (eta / batch) * g_sum
        # Entry (i*d + j, l) of sample k is v_k[i] * A_k[j, l]; the sums over k are GEMMs.
        acc += v.T @ a
        acc_sq += (v * v).T @ (a * a)
    mean = acc.reshape(d * d, d) / mc_samples
    var = np.maximum(acc_sq.reshape(d * d, d) / mc_samples - mean * mean, 0.0)
    se = np.sqrt(var / mc_samples)
    defect = np.abs(closed - mean)
    if np.any(defect > 5.0 * se + 1e-12):
        worst = float(np.max(defect - 5.0 * se))
        raise ConvergenceError(f"cross term disagrees with Monte-Carlo estimate (excess {worst:.3e})")
    return closed


class ExactStepper:
    """Precomputed one-step map for the moment recursion of one (inst, hp)."""

    def __init__(self, inst: ProblemInstance, hp: Hyperparams, validate_cross: bool = True):
        if classify(inst) is MinimumClass.INVALID:
            raise ValueError("instance is not a regular or interpolating minimum")
        self.inst = inst
        self.hp = hp
        n, d = inst.n, inst.d
        eta = hp.eta
        self.p = mixing_weight(n, hp.batch)
        self.a_bar = np.eye(d) - eta * inst.mean_hessian()
        a_all = np.eye(d)[None, :, :] - eta * inst.hessians
        # [A_1 ... A_n] as one (d, n*d) block, and the A_i^T for the batched matmul.
        self._a_wide = np.ascontiguousarray(a_all.transpose(1, 0, 2).reshape(d, n * d))
        self._a_all_t = np.ascontiguousarray(a_all.transpose(0, 2, 1))
        self.sigma_v = eta * eta * self.p * inst.gradient_second_moment()
        if validate_cross:
            # The coupling is applied in matrix form in step(); its closed
            # form is only checked here.
            cross_term(inst, eta, hp.batch)
        self._coupling_scale = eta * eta * self.p / n

    def step(self, state: MomentState) -> MomentState:
        inst, p = self.inst, self.p
        n, d = inst.n, inst.d
        mu = state.mean
        sigma = state.second_moment
        new_mu = self.a_bar @ mu
        new_sigma = (1.0 - p) * (self.a_bar @ sigma @ self.a_bar)
        # sum_i A_i Sigma A_i^T = [A_1 ... A_n] @ [Sigma A_1^T; ...; Sigma A_n^T].
        sandwich = self._a_wide @ (sigma @ self._a_all_t).reshape(n * d, d)
        new_sigma += (p / n) * sandwich
        # -E[A mu v^T] - E[v mu^T A] in matrix form.
        hi_mu = inst.hessians @ mu
        coupling = self._coupling_scale * (hi_mu.T @ inst.gradients + inst.gradients.T @ hi_mu)
        new_sigma += coupling + self.sigma_v
        return MomentState(mean=new_mu, second_moment=symmetrize(new_sigma), step=state.step + 1)


def exact_step(inst: ProblemInstance, hp: Hyperparams, state: MomentState) -> MomentState:
    """Advance (mu, Sigma) by one SGD step in closed form."""
    return ExactStepper(inst, hp).step(state)


def iterate_moments(
    inst: ProblemInstance,
    hp: Hyperparams,
    state: MomentState,
    steps: int,
    keep_path: bool = False,
    stop_delta: float | None = None,
):
    """Iterate the exact recursion; returns the final state, or the whole
    path (a list) when keep_path is set.  With stop_delta set, iteration
    ends early once the Frobenius change of the second moment drops below
    it (useful when driving the recursion to its fixed point)."""
    stepper = ExactStepper(inst, hp)
    path = [state]
    current = state
    for _ in range(steps):
        nxt = stepper.step(current)
        if keep_path:
            path.append(nxt)
        if stop_delta is not None and np.linalg.norm(nxt.second_moment - current.second_moment) < stop_delta:
            current = nxt
            break
        current = nxt
    return path if keep_path else current


def null_walk_second_moment(inst: ProblemInstance, hp: Hyperparams, t: int, init: MomentState) -> float:
    """Closed-form E||x_t restricted to the null space of Hbar||^2:

        trace(P_null Sigma_0 P_null) + t * eta^2 * p * mean_i ||g_i_null||^2.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    p_null, _ = null_projectors(inst.mean_hessian())
    base = float(np.trace(p_null @ init.second_moment @ p_null))
    g_null = inst.gradients @ p_null
    slope = hp.eta**2 * mixing_weight(inst.n, hp.batch) * float(np.mean(np.sum(g_null * g_null, axis=1)))
    return base + t * slope


def _limit_system(inst: ProblemInstance, hp: Hyperparams, rel_tol: float):
    p = mixing_weight(inst.n, hp.batch)
    hbar = inst.mean_hessian()
    c, dmat = _dense_curvature(inst, p)
    m = 2.0 * c - hp.eta * dmat
    eig = sym_eig(m)
    lam_max, lam_min = float(eig.values[0]), float(eig.values[-1])
    if lam_min < -1e-8 * max(lam_max, 0.0):
        raise ConvergenceError(f"2C - eta*D is not PSD (lambda_min = {lam_min:.3e})")
    if lam_min < -rel_tol * lam_max:
        raise ValueError(f"matrix is not PSD: lambda_min={lam_min:.3e}, lambda_max={lam_max:.3e}")
    _, p_range = null_projectors(hbar, rel_tol=rel_tol)
    sigma_g_perp = p_range @ inst.gradient_second_moment() @ p_range
    # pinv(M) b = V (inv * (V^T b)), eigenvalues at or below rel_tol * lam_max dropped.
    kept = eig.values > rel_tol * max(lam_max, 0.0)
    inv = np.zeros_like(eig.values)
    inv[kept] = 1.0 / eig.values[kept]
    x = hp.eta * p * (eig.vectors @ (inv * (eig.vectors.T @ vec(sigma_g_perp))))
    return x, hbar


def covariance_limit(inst: ProblemInstance, hp: Hyperparams, rel_tol: float = DEFAULT_RANK_RTOL) -> np.ndarray:
    """Limit of the range-projected second moment for 0 < eta < eta_var."""
    thr = variance_threshold(inst, hp.batch, rel_tol=rel_tol)
    if not 0.0 < hp.eta < thr:
        raise ValueError(f"step size {hp.eta} outside the open stability interval (0, {thr})")
    x, _ = _limit_system(inst, hp, rel_tol)
    limit = symmetrize(unvec(x, inst.d))
    values = sym_eig(limit).values
    if float(values[-1]) < -1e-8 * max(float(values[0]), 1e-300):
        raise ConvergenceError(f"covariance limit is not PSD (lambda_min = {values[-1]:.3e})")
    return limit


def asymptotic_quantities(
    inst: ProblemInstance, hp: Hyperparams, rel_tol: float = DEFAULT_RANK_RTOL
) -> tuple[float, float, float]:
    """Limits of E||x_perp||^2, the loss gap, and E||grad of the quadratic||^2."""
    thr = variance_threshold(inst, hp.batch, rel_tol=rel_tol)
    if not 0.0 < hp.eta < thr:
        raise ValueError(f"step size {hp.eta} outside the open stability interval (0, {thr})")
    x, hbar = _limit_system(inst, hp, rel_tol)
    d = inst.d
    dist_sq = float(vec(np.eye(d)) @ x)
    loss_gap = 0.5 * float(vec(hbar) @ x)
    grad_sq = float(vec(hbar @ hbar) @ x)
    return dist_sq, loss_gap, grad_sq


def gradient_noise(inst: ProblemInstance, eta: float, batch: int, rel_tol: float = DEFAULT_RANK_RTOL) -> GradientNoise:
    """Bundle Sigma_g, its range projection, and the validated coupling."""
    sigma_g = inst.gradient_second_moment()
    _, p_range = null_projectors(inst.mean_hessian(), rel_tol=rel_tol)
    return GradientNoise(
        sigma_g=sigma_g,
        sigma_g_perp=p_range @ sigma_g @ p_range,
        cross=cross_term(inst, eta, batch),
    )


def top_mode_noise_overlap(inst: ProblemInstance, eta: float, batch: int, rel_tol: float = DEFAULT_RANK_RTOL) -> float:
    """Inner product between the top mode of the range-projected transition
    and the projected gradient noise, <z_max, vec(Sigma_g_perp)>.

    When this overlap vanishes, the noise does not excite the slowest
    mode and boundedness exactly at the threshold step size is not
    decided by the generic argument.  Returned as an absolute value
    (eigenvector signs are arbitrary); reported, never enforced.
    """
    n = inst.n
    p = mixing_weight(n, batch)
    hbar = inst.mean_hessian()
    _, p_range = null_projectors(hbar, rel_tol=rel_tol)
    q_proj = (1.0 - p) * kron(p_range - eta * hbar, p_range - eta * hbar)
    for i in range(n):
        m = p_range - eta * inst.hessians[i]
        q_proj += (p / n) * kron(m, m)
    eig = sym_eig(q_proj)
    z_max = eig.vectors[:, 0]
    sigma_g_perp = p_range @ inst.gradient_second_moment() @ p_range
    return abs(float(z_max @ vec(sigma_g_perp)))


def write_trajectory_csv(path, inst: ProblemInstance, states, rel_tol: float = DEFAULT_RANK_RTOL) -> None:
    """CSV columns: t, trace_sigma_perp, trace_sigma_par, mu_norm, loss_gap_estimate."""
    hbar = inst.mean_hessian()
    p_null, p_range = null_projectors(hbar, rel_tol=rel_tol)
    lines = ["t,trace_sigma_perp,trace_sigma_par,mu_norm,loss_gap_estimate"]
    for state in states:
        sigma = state.second_moment
        row = (
            str(state.step),
            _fmt(np.trace(p_range @ sigma @ p_range)),
            _fmt(np.trace(p_null @ sigma @ p_null)),
            _fmt(np.linalg.norm(state.mean)),
            _fmt(0.5 * np.trace(hbar @ sigma)),
        )
        lines.append(",".join(row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
