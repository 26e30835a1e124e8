"""Closed-form first- and second-moment dynamics of the linearized iterates.

With x_t = theta_t - theta*, a single SGD step multiplies x by the random
contraction A = I - (eta/B) sum_{i in b} H_i and subtracts the batch
gradient noise v = (eta/B) sum_{i in b} g_i.  Taking expectations:

    mu'    = (I - eta*Hbar) mu
    Sigma' = E[A Sigma A] - E[A mu v^T] - E[v mu^T A] + Sigma_v

where Sigma_v = eta^2 * p * Sigma_g with Sigma_g = (1/n) sum g_i g_i^T,
and the noise-contraction coupling has the closed form

    E[v kron A] = -eta^2 * p * (1/n) sum_i g_i kron H_i.

cross_term checks that coupling against exhaustive batch enumeration,
or, when enumeration is infeasible, against MC_VALIDATION_SAMPLES seeded
batches drawn in chunks by vectorized partial Fisher-Yates, which must
agree within five standard errors.  The tests and the verify command
run that check; the stepper applies the closed form unchecked.

One step costs one batched matmul and one GEMM: the A_i are symmetric,
so E[A Sigma A^T] is stability._mixture_apply, the d x d form of the
mixture kernel, with A = I - eta*Hbar and M_i = A_i.

For step sizes below the mean-square threshold the range-projected
second moment converges to

    vec(Sigma_perp_inf) = eta * p * pinv(2C - eta*D) vec(Sigma_g_perp).

That system is solved matrix-free on the r x r block (lam, V) of one
range_basis per call, shared with the check eta < eta_var (for PSD H_i
the pseudoinverse acts there alone): with D_r = stability._range_d, the
range-block form of the mixture kernel, it reads

    (lam_a + lam_b) o X - eta * D_r(X) = V^T Sigma_g V,

and preconditioned conjugate gradients solve it with the diagonal of 2C,
lam_a + lam_b, as preconditioner.  The asymptotic squared distance, loss
gap and squared gradient norm are the traces of X weighted by 1, lam/2
and lam^2.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .instances import Hyperparams, ProblemInstance, _fmt, mixing_weight, stream
from .linalg import (
    DEFAULT_RANK_RTOL,
    ConvergenceError,
    LinearOperator,
    kron,
    null_projectors,
    pcg,
    sym_eig,
    symmetrize,
    vec,
)
from .montecarlo import _fisher_yates_batches
from .stability import (
    ENUM_CAP,
    _mixture_apply,
    _projected_transition_dense,
    _range_d,
    _range_sharpness,
    _threshold,
    range_basis,
    require_valid,
)

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


def cross_term(
    inst: ProblemInstance,
    eta: float,
    batch: int,
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
    if np.all(inst.gradients == 0.0):
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

    def __init__(self, inst: ProblemInstance, hp: Hyperparams):
        require_valid(inst)
        self.inst = inst
        self.hp = hp
        n, d = inst.n, inst.d
        eta = hp.eta
        self.p = mixing_weight(n, hp.batch)
        self.a_bar = np.eye(d) - eta * inst.mean_hessian()
        self._a_all = np.eye(d)[None, :, :] - eta * inst.hessians
        self.sigma_v = eta * eta * self.p * inst.gradient_second_moment()
        # The coupling, the closed form of cross_term, in matrix form.
        self._coupling_scale = eta * eta * self.p / n

    def step(self, state: MomentState) -> MomentState:
        inst, p = self.inst, self.p
        mu = state.mean
        sigma = state.second_moment
        new_mu = self.a_bar @ mu
        # The A_i are symmetric, so E[A Sigma A^T] is the shared mixture kernel.
        new_sigma = _mixture_apply(self.a_bar, self._a_all, p, sigma)
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


def _limit_solve(inst: ProblemInstance, hp: Hyperparams, rel_tol: float):
    """(lam, V_r, X): the range-projected limit is V_r X V_r^T.

    lam and V_r are the range block of range_basis; X is eta * p times
    the conjugate-gradient solution of the limit system on that block.
    Raises ValueError unless 0 < eta < eta_var.
    """
    require_valid(inst, rel_tol)
    eta = hp.eta
    p = mixing_weight(inst.n, hp.batch)
    basis = range_basis(inst, rel_tol)
    thr = _threshold(_range_sharpness(basis, p))
    if not 0.0 < eta < thr:
        raise ValueError(f"step size {eta} outside the open stability interval (0, {thr})")
    lam, v_r = basis.lam, basis.v
    r = lam.size
    pair = lam[:, None] + lam[None, :]
    d_r = _range_d(basis, p)

    def apply(u: np.ndarray) -> np.ndarray:
        x = u.reshape(r, r)
        return (pair * x - eta * d_r(x)).reshape(-1)

    op = LinearOperator(in_dim=r * r, out_dim=r * r, apply=apply)
    rhs = v_r.T @ inst.gradient_second_moment() @ v_r
    x = pcg(op, rhs.reshape(-1), lambda u: u / pair.reshape(-1))
    return lam, v_r, eta * p * x.reshape(r, r)


def covariance_limit(inst: ProblemInstance, hp: Hyperparams, rel_tol: float = DEFAULT_RANK_RTOL) -> np.ndarray:
    """Limit of the range-projected second moment for 0 < eta < eta_var."""
    _, v_r, x = _limit_solve(inst, hp, rel_tol)
    limit = symmetrize(v_r @ x @ v_r.T)
    values = sym_eig(limit).values
    if float(values[-1]) < -1e-8 * max(float(values[0]), 1e-300):
        raise ConvergenceError(f"covariance limit is not PSD (lambda_min = {values[-1]:.3e})")
    return limit


def asymptotic_quantities(
    inst: ProblemInstance, hp: Hyperparams, rel_tol: float = DEFAULT_RANK_RTOL
) -> tuple[float, float, float]:
    """Limits of E||x_perp||^2, the loss gap, and E||grad of the quadratic||^2."""
    lam, _, x = _limit_solve(inst, hp, rel_tol)
    diag = np.diag(x)
    return float(np.sum(diag)), 0.5 * float(lam @ diag), float((lam * lam) @ diag)


def top_mode_noise_overlap(inst: ProblemInstance, eta: float, batch: int, rel_tol: float = DEFAULT_RANK_RTOL) -> float:
    """Inner product between the top mode of the range-projected transition
    and the projected gradient noise, <z_max, vec(Sigma_g_perp)>.

    When this overlap vanishes, the noise does not excite the slowest
    mode and boundedness exactly at the threshold step size is not
    decided by the generic argument.  Returned as an absolute value
    (eigenvector signs are arbitrary); reported, never enforced.
    """
    z_max = sym_eig(_projected_transition_dense(inst, eta, batch, rel_tol)).vectors[:, 0]
    _, p_range = null_projectors(inst.mean_hessian(), rel_tol=rel_tol)
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
