"""Closed-form first- and second-moment dynamics of the linearized iterates.

With x_t = theta_t - theta*, a single SGD step multiplies x by the random
contraction A = I - (eta/B) sum_{i in b} H_i and subtracts the batch
gradient noise v = (eta/B) sum_{i in b} g_i.  Taking expectations:

    mu'    = (I - eta*Hbar) mu
    Sigma' = E[A Sigma A] - E[A mu v^T] - E[v mu^T A] + Sigma_v

where Sigma_v = eta^2 * p * Sigma_g with Sigma_g = (1/n) sum g_i g_i^T,
and the noise-contraction coupling has the closed form

    E[v kron A] = -eta^2 * p * (1/n) sum_i g_i kron H_i.

cross_term returns that closed form as a (d^2, d) matrix.  Its oracles,
exhaustive batch enumeration and seeded Monte-Carlo batches, are
kron_certify's brute_force_cross_term and sampled_cross_term, which the
tests and the verify command compare it with.  The stepper forms the
matrix once, by cross_term, and each step takes the coupling from one
product with mu, d^3 flops whatever n is.  When every gradient is zero
the coupling vanishes, and the stepper neither stores nor applies it.

The rest of a step costs one batched matmul and one GEMM: the A_i are
symmetric, so E[A Sigma A^T] is spectral.mixture_apply, the d x d form
of the mixture kernel, with A = I - eta*Hbar and M_i = A_i.

For step sizes below the mean-square threshold the range-projected
second moment converges to

    vec(Sigma_perp_inf) = eta * p * pinv(2C - eta*D) vec(Sigma_g_perp).

That system is solved matrix-free on the r x r block (lam, V) of one
range_basis per call, shared with the check eta < eta_var (for PSD H_i
the pseudoinverse acts there alone).  That check takes one application
of S: eta * hi < 2, with hi = spectral.range_sharpness_bound >=
lambda_max(S), certifies it, and only a step size that this leaves
undecided runs the threshold's Lanczos solve.  The basis's one
decomposition of the H_i (linalg.factor_stack) also classifies the
instance, so a limit solve decomposes the Hessian stack once.  With D_r = spectral._range_d, the range-block form
of the mixture kernel, it reads

    (lam_a + lam_b) o X - eta * D_r(X) = V^T Sigma_g V,

and X = F o Y, with F = ((lam_a + lam_b)/2)^{-1/2}, turns it into

    (I - (eta/2) S) Y = F o V^T Sigma_g V / 2

on the threshold's own congruence S = F o D_r(F o .) (from
spectral.range_congruence).  It is positive definite exactly for
eta < eta_var = 2 / lambda_max(S).  linalg.spd_solve solves it on the
Lanczos recurrence that the threshold also runs, started from the
right-hand side; I - (eta/2) S and S share that Krylov basis.
covariance_limit returns V_r X V_r^T, which the tests and verify hold PSD.
The asymptotic squared distance, loss gap and squared gradient norm are
the traces of X weighted by 1, lam/2 and lam^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instances import Hyperparams, ProblemInstance, fmt, mixing_weight, require_valid, valid_class, write_csv
from .linalg import null_projectors, spd_solve, symmetrize
from .spectral import mixture_apply, range_basis, range_congruence, range_sharpness, range_sharpness_bound, threshold

# Relative margin of the one-apply certificate eta * hi < 2, far above the rounding in hi.
_CERTIFICATE_MARGIN = 1e-9


@dataclass(frozen=True)
class MomentState:
    """First and second moment of the offset theta_t - theta* at one step."""

    mean: np.ndarray  # (d,)
    second_moment: np.ndarray  # (d, d), symmetric PSD
    step: int = 0


def point_state(x0, step: int = 0) -> MomentState:
    """Moment state of a deterministic initial offset x0."""
    x0 = np.asarray(x0, dtype=float)
    return MomentState(mean=x0.copy(), second_moment=np.outer(x0, x0), step=step)


def cross_term(inst: ProblemInstance, eta: float, batch: int) -> np.ndarray:
    """E[v kron A] as a (d^2, d) matrix: -eta^2 * p * (1/n) sum_i g_i kron H_i, p = mixing_weight(n, batch).

    Row a*d + b, column c holds -eta^2 * p * (1/n) sum_i g_i[a] H_i[b, c].  The tests and verify check
    it against kron_certify.brute_force_cross_term and sampled_cross_term.
    """
    n, d = inst.n, inst.d
    closed = (inst.gradients.T @ inst.hessians.reshape(n, d * d)).reshape(d * d, d)
    closed *= -(eta * eta) * mixing_weight(n, batch) / n
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
        # The coupling is zero when every gradient is: then no (d^2, d) matrix is kept.
        self._cross = None if np.all(inst.gradients == 0.0) else cross_term(inst, eta, hp.batch)

    def step(self, state: MomentState) -> MomentState:
        d = self.inst.d
        mu = state.mean
        sigma = state.second_moment
        new_mu = self.a_bar @ mu
        # The A_i are symmetric, so E[A Sigma A^T] is the shared mixture kernel.
        new_sigma = mixture_apply(self.a_bar, self._a_all, self.p, sigma)
        if self._cross is None:
            new_sigma += self.sigma_v
        else:
            # Z = E[v mu^T A] is cross_term's closed form times mu, row-major as d x d, and
            # -E[A mu v^T] - E[v mu^T A] = -(Z^T + Z).
            z = (self._cross @ mu).reshape(d, d)
            new_sigma += self.sigma_v - (z + z.T)
        return MomentState(mean=new_mu, second_moment=symmetrize(new_sigma), step=state.step + 1)


def iterate_moments(
    inst: ProblemInstance,
    hp: Hyperparams,
    state: MomentState,
    steps: int,
    keep_path: bool = False,
):
    """Iterate the exact recursion; returns the final state, or the whole
    path (a list) when keep_path is set."""
    stepper = ExactStepper(inst, hp)
    path = [state]
    for _ in range(steps):
        state = stepper.step(state)
        if keep_path:
            path.append(state)
    return path if keep_path else state


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


def _limit_solve(inst: ProblemInstance, hp: Hyperparams):
    """(lam, V_r, X): the range-projected limit is V_r X V_r^T.

    lam and V_r are the range block of range_basis; X = eta * p * F o Y,
    Y the spd_solve solution of (I - (eta/2) S) Y = F o R / 2 with
    (S, F) = range_congruence and R = V_r^T Sigma_g V_r.
    Raises ValueError unless the instance is a regular or interpolating
    minimum, classified from the basis's eigenvalues, and 0 < eta < eta_var.
    """
    eta = hp.eta
    p = mixing_weight(inst.n, hp.batch)
    basis = range_basis(inst)
    valid_class(basis.kind)
    # The one-apply upper bound on lambda_max(S) certifies most step sizes; the threshold
    # solve decides the rest, with the same check and message as without the bound.
    if not (eta > 0.0 and eta * range_sharpness_bound(basis, p) < 2.0 * (1.0 - _CERTIFICATE_MARGIN)):
        thr = threshold(range_sharpness(basis, p))
        if not 0.0 < eta < thr:
            raise ValueError(f"step size {eta} outside the open stability interval (0, {thr})")
    v_r = basis.v
    s, factor = range_congruence(basis, p)
    rhs = 0.5 * factor * (v_r.T @ inst.gradient_second_moment() @ v_r)
    y = spd_solve(lambda u: u - (0.5 * eta) * s(u), rhs.reshape(-1))
    return basis.lam, v_r, eta * p * (factor * y.reshape(factor.shape))


def covariance_limit(inst: ProblemInstance, hp: Hyperparams) -> np.ndarray:
    """Limit of the range-projected second moment for 0 < eta < eta_var."""
    _, v_r, x = _limit_solve(inst, hp)
    return symmetrize(v_r @ x @ v_r.T)


def asymptotic_quantities(inst: ProblemInstance, hp: Hyperparams) -> tuple[float, float, float]:
    """Limits of E||x_perp||^2, the loss gap, and E||grad of the quadratic||^2."""
    lam, _, x = _limit_solve(inst, hp)
    diag = np.diag(x)
    return float(np.sum(diag)), 0.5 * float(lam @ diag), float((lam * lam) @ diag)


def write_trajectory_csv(path, inst: ProblemInstance, states) -> None:
    """CSV columns: t, trace_sigma_perp, trace_sigma_par, mu_norm, loss_gap_estimate."""
    hbar = inst.mean_hessian()
    p_null, p_range = null_projectors(hbar)
    # For a symmetric projector P, trace(P Sigma P) = <P, Sigma>; every trace, like the loss gap
    # 0.5 <Hbar, Sigma>, is an inner product of two PSD matrices, so one that rounding leaves
    # below zero is written as 0.
    rows = (
        (
            str(state.step),
            fmt(max(np.vdot(p_range, state.second_moment), 0.0)),
            fmt(max(np.vdot(p_null, state.second_moment), 0.0)),
            fmt(np.linalg.norm(state.mean)),
            fmt(max(0.5 * np.vdot(hbar, state.second_moment), 0.0)),
        )
        for state in states
    )
    write_csv(path, "t,trace_sigma_perp,trace_sigma_par,mu_norm,loss_gap_estimate", rows)
