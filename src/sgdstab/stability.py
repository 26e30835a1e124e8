"""Stability thresholds for SGD linearized around a minimum.

The second moment of the linearized iterates evolves by a d^2 x d^2
transition operator

    Q(eta, B) = (1 - p) (I - eta*Hbar) kron (I - eta*Hbar)
              + p * (1/n) sum_i (I - eta*H_i) kron (I - eta*H_i),

with mixing weight p = (n-B)/(B(n-1)).  Writing

    C = (Hbar (+) Hbar) / 2                     (Kronecker sum)
    D = (1-p) Hbar kron Hbar + (p/n) sum_i H_i kron H_i
    E = (1/n) sum_i (H_i - Hbar) kron (H_i - Hbar)

gives the equivalent form Q = I - 2*eta*C + eta^2*D and the exact
mean-square stability threshold

    eta_var = 2 / lambda_max(pinv(C) D),

computed here through the symmetric congruence
(C^{1/2})^+ D (C^{1/2})^+, which has the same nonzero spectrum.  The
congruence is taken in the eigenbasis of Hbar = V diag(lam) V^T: there
C is diagonal in the basis V kron V, with the pair means
(lam_a + lam_b)/2 as entries, so (C^{1/2})^+ is an elementwise scaling.
Its top eigenvalue comes from Lanczos on the congruence applied
matrix-free, at every d.  The mean (first-moment) threshold is
2 / lambda_max(Hbar).

The verdict classifies each step size against eta_var alone and runs
no spectral check of its own: the equivalence "the range-projected
transition (P kron P) Q has top eigenvalue below one exactly on
0 < eta < eta_var" is checked by the tests and by the verify command.
projected_transition_lambda_max computes that eigenvalue in the same
eigenbasis, where P is a 0/1 diagonal and H_i becomes K_i = V^T H_i V.
The thresholds and the verdict never form a d^2 x d^2 matrix.
curvature_operators and second_moment_transition return dense d^2 x d^2
matrices for d <= DENSE_CAP and matrix-free operators above it; every
matrix-free sandwich sum_i M_i X M_i goes through _sandwich_sum, and the
dense builders also serve as test oracles.  The Lanczos solves here run
on operators built symmetric, so they skip lanczos_lambda_max's
self-adjoint probes.

The necessary bounds are cheap lower bounds on the generalized sharpness.
The tightest, 2 / max_v f(v) over unit v, comes from rank_one_bounds: a
geodesic gradient ascent that advances every (batch size, start) pair of
a call as one column of a single block, with one GEMM per step on the
stacked [H_1; ...; H_n; Hbar].  stability_verdict decomposes Hbar once
and hands that decomposition to the mean threshold, the threshold's
eigenbasis, the eigenvector bound and the ascent.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .instances import MinimumClass, ProblemInstance, classify, mixing_weight, stream
from .linalg import (
    DEFAULT_RANK_RTOL,
    ConvergenceError,
    EigDecomp,
    LinearOperator,
    _lanczos_solve,
    kron,
    kron_sum,
    null_projectors,
    sym_eig,
    unvec,
    vec,
)

# Above this dimension the d^2 x d^2 matrices are not formed densely.
DENSE_CAP = 48

# Default enumeration budget for brute-force batch expectations.
ENUM_CAP = 10_000


def mean_hessian(inst: ProblemInstance) -> np.ndarray:
    """Arithmetic mean of the per-sample Hessians."""
    return inst.mean_hessian()


def sharpness(inst: ProblemInstance) -> float:
    """Top eigenvalue of the mean Hessian."""
    return float(sym_eig(mean_hessian(inst)).values[0])


@dataclass(frozen=True)
class SpectralReport:
    """The operator family {Hbar, C, D, E} for one (instance, batch) pair."""

    hessian: np.ndarray
    curvature_sum: np.ndarray | LinearOperator  # C
    curvature_sq: np.ndarray | LinearOperator  # D
    curvature_var: np.ndarray | LinearOperator  # E
    sharpness: float
    generalized_sharpness: float  # lambda_max(pinv(C) D)
    p: float
    rel_tol: float
    dense: bool


def require_valid(inst: ProblemInstance, rel_tol: float = DEFAULT_RANK_RTOL) -> MinimumClass:
    """Classify the instance once; raise ValueError if it is not a valid minimum."""
    kind = classify(inst, rel_tol=rel_tol)
    if kind is MinimumClass.INVALID:
        raise ValueError("instance is not a regular or interpolating minimum")
    return kind


def curvature_operators(
    inst: ProblemInstance,
    batch: int,
    rel_tol: float = DEFAULT_RANK_RTOL,
    dense: bool | None = None,
) -> SpectralReport:
    """Build C, D, E and both sharpness numbers for an instance and batch size."""
    require_valid(inst, rel_tol)
    d, n = inst.d, inst.n
    p = mixing_weight(n, batch)
    hbar = mean_hessian(inst)
    lam = float(sym_eig(hbar).values[0])
    if dense is None:
        dense = d <= DENSE_CAP
    if dense and d > DENSE_CAP:
        raise ValueError(f"dense operators requested for d={d} > cap {DENSE_CAP}")
    gen_sharp = generalized_sharpness(inst, batch, rel_tol)
    if dense:
        c, dmat = _dense_curvature(inst, p)
        e = np.zeros((d * d, d * d))
        for i in range(n):
            delta = inst.hessians[i] - hbar
            e += kron(delta, delta)
        e /= n
        return SpectralReport(
            hessian=hbar,
            curvature_sum=c,
            curvature_sq=dmat,
            curvature_var=e,
            sharpness=lam,
            generalized_sharpness=gen_sharp,
            p=p,
            rel_tol=rel_tol,
            dense=True,
        )

    def c_apply(u: np.ndarray) -> np.ndarray:
        m = unvec(u, d)
        return vec(0.5 * (hbar @ m + m @ hbar))

    c_op = LinearOperator(in_dim=d * d, out_dim=d * d, apply=c_apply)
    return SpectralReport(
        hessian=hbar,
        curvature_sum=c_op,
        curvature_sq=_mixture_operator(hbar, inst.hessians, p),
        curvature_var=_mixture_operator(hbar, inst.hessians - hbar, 1.0),
        sharpness=lam,
        generalized_sharpness=gen_sharp,
        p=p,
        rel_tol=rel_tol,
        dense=False,
    )


def _dense_curvature(inst: ProblemInstance, p: float) -> tuple[np.ndarray, np.ndarray]:
    """Dense C = (Hbar (+) Hbar)/2 and D = (1-p) Hbar kron Hbar + (p/n) sum_i H_i kron H_i."""
    d, n = inst.d, inst.n
    hbar = mean_hessian(inst)
    c = 0.5 * kron_sum(hbar, hbar)
    kron_self = np.zeros((d * d, d * d))
    for i in range(n):
        kron_self += kron(inst.hessians[i], inst.hessians[i])
    kron_self /= n
    dmat = (1.0 - p) * kron(hbar, hbar) + p * kron_self
    return c, dmat


def _pair_factor(lam: np.ndarray, rel_tol: float) -> np.ndarray:
    """(C^{1/2})^+ in the basis V kron V, as a (d, d) array of pair factors.

    Entry (a, b) is ((lam_a + lam_b)/2)^{-1/2}, the inverse square root of
    an eigenvalue of C, or zero where that eigenvalue is at or below
    rel_tol * lambda_max.  Raises ValueError if C is not PSD.
    """
    pair = 0.5 * (lam[:, None] + lam[None, :])
    lam_max, lam_min = float(pair.max()), float(pair.min())
    if lam_min < -rel_tol * lam_max:
        raise ValueError(f"C is not PSD: lambda_min={lam_min:.3e}, lambda_max={lam_max:.3e}")
    cutoff = rel_tol * max(lam_max, 0.0)
    factor = np.zeros_like(pair)
    kept = pair > cutoff
    factor[kept] = 1.0 / np.sqrt(pair[kept])
    return factor


def _hessian_eigenbasis(inst: ProblemInstance, eig: EigDecomp | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lam, K, V) with Hbar = V diag(lam) V^T and K[i] = V^T H_i V.

    eig is sym_eig(Hbar), computed here when not given.
    """
    if eig is None:
        eig = sym_eig(mean_hessian(inst))
    return eig.values, eig.vectors.T @ inst.hessians @ eig.vectors, eig.vectors


def _sandwich_sum(mats: np.ndarray, m: np.ndarray) -> np.ndarray:
    """sum_i M_i m M_i over a stack of symmetric M_i: one batched matmul plus one GEMM."""
    n, d, _ = mats.shape
    # M_i is symmetric, so sum_i M_i m M_i = [M_1; ...; M_n]^T @ [m M_1; ...; m M_n].
    return mats.reshape(n * d, d).T @ (m @ mats).reshape(n * d, d)


def _mixture_operator(a_bar: np.ndarray, mats: np.ndarray, p: float) -> LinearOperator:
    """Matrix-free (1-p) (A kron A) + (p/n) sum_i (M_i kron M_i) on vec'd arguments, A and M_i symmetric."""
    n, d, _ = mats.shape

    def apply(u: np.ndarray) -> np.ndarray:
        m = unvec(u, d)
        return vec((1.0 - p) * (a_bar @ m @ a_bar) + (p / n) * _sandwich_sum(mats, m))

    return LinearOperator(in_dim=d * d, out_dim=d * d, apply=apply)


def _generalized_sharpness_operator(inst: ProblemInstance, p: float, rel_tol: float, basis=None) -> float:
    """lambda_max of (C^{1/2})^+ D (C^{1/2})^+ by Lanczos, matrix-free in Hbar's eigenbasis.

    With Hbar = V diag(lam) V^T and K_i = V^T H_i V the congruence acts on
    a d x d argument M as F o ((1-p) Lam (F o M) Lam + (p/n) sum_i K_i (F o M) K_i),
    F the pair factors and o the elementwise product.  basis is the
    (lam, K, V) of _hessian_eigenbasis, computed here when not given.
    """
    lam, k_all, _ = _hessian_eigenbasis(inst) if basis is None else basis
    d, n = inst.d, inst.n
    factor = _pair_factor(lam, rel_tol)

    def s_apply(u: np.ndarray) -> np.ndarray:
        m = factor * u.reshape(d, d)
        out = (1.0 - p) * (lam[:, None] * m * lam[None, :])
        out += (p / n) * _sandwich_sum(k_all, m)
        return (factor * out).reshape(-1)

    op = LinearOperator(in_dim=d * d, out_dim=d * d, apply=s_apply)
    lam_s = _lanczos_solve(op, seed=7)
    return lam_s if lam_s > 0 else 0.0


def generalized_sharpness(inst: ProblemInstance, batch: int, rel_tol: float = DEFAULT_RANK_RTOL) -> float:
    """lambda_max(pinv(C) D), the generalized sharpness, for one batch size.

    The instance is not classified here: callers that need a valid minimum
    check it once with require_valid, as variance_threshold does.
    """
    return _generalized_sharpness_operator(inst, mixing_weight(inst.n, batch), rel_tol)


def second_moment_transition(
    inst: ProblemInstance,
    eta: float,
    batch: int,
    dense: bool | None = None,
) -> np.ndarray | LinearOperator:
    """The transition Q advancing vec(E[x x^T]) by one SGD step: the mixture
    (1-p) (A kron A) + (p/n) sum_i (A_i kron A_i), A = I - eta*Hbar and
    A_i = I - eta*H_i, dense or matrix-free."""
    if eta < 0:
        raise ValueError(f"step size must be nonnegative, got {eta}")
    d = inst.d
    p = mixing_weight(inst.n, batch)
    if dense is None:
        dense = d <= DENSE_CAP
    if dense:
        return mixture_transition(inst, eta, p)
    eye = np.eye(d)
    return _mixture_operator(eye - eta * mean_hessian(inst), eye - eta * inst.hessians, p)


def mixture_transition(inst: ProblemInstance, eta: float, p: float) -> np.ndarray:
    """E[A kron A] of the mixture process: single-sample step w.p. p,
    full-batch step w.p. 1-p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"mixture weight must lie in [0, 1], got {p}")
    d, n = inst.d, inst.n
    eye = np.eye(d)
    hbar = mean_hessian(inst)
    a_bar = eye - eta * hbar
    q = (1.0 - p) * kron(a_bar, a_bar)
    for i in range(n):
        a_i = eye - eta * inst.hessians[i]
        q += (p / n) * kron(a_i, a_i)
    return q


def brute_force_transition(inst: ProblemInstance, eta: float, batch: int, cap: int = ENUM_CAP) -> np.ndarray:
    """Q by exhaustive enumeration of all equiprobable size-B batches."""
    n, d = inst.n, inst.d
    count = math.comb(n, batch)
    if count > cap:
        raise ValueError(f"enumeration of C({n},{batch}) = {count} batches exceeds cap {cap}")
    eye = np.eye(d)
    q = np.zeros((d * d, d * d))
    for combo in itertools.combinations(range(n), batch):
        a = eye - (eta / batch) * inst.hessians[list(combo)].sum(axis=0)
        q += kron(a, a)
    return q / count


def _generalized_sharpness_dense(hbar: np.ndarray, dmat: np.ndarray, rel_tol: float) -> float:
    """Test oracle: lambda_max of (C^{1/2})^+ D (C^{1/2})^+ from a dense D.

    D is rotated by V kron V and scaled by the pair factors, then one
    d^2 x d^2 eigendecomposition gives the top eigenvalue.
    """
    eig = sym_eig(hbar)
    factor = _pair_factor(eig.values, rel_tol).reshape(-1)
    w = kron(eig.vectors, eig.vectors)
    s = factor[:, None] * (w.T @ dmat @ w) * factor[None, :]
    lam = float(sym_eig(s).values[0])
    return lam if lam > 0 else 0.0


def mean_threshold(inst: ProblemInstance) -> float:
    """First-moment stability threshold 2 / lambda_max(Hbar)."""
    return _threshold(sharpness(inst))


def _threshold(gen_sharp: float) -> float:
    return math.inf if gen_sharp <= 0 else 2.0 / gen_sharp


def variance_threshold(inst: ProblemInstance, batch: int, rel_tol: float = DEFAULT_RANK_RTOL) -> float:
    """Exact mean-square stability threshold 2 / lambda_max(pinv(C) D)."""
    require_valid(inst, rel_tol)
    return _threshold(generalized_sharpness(inst, batch, rel_tol))


def necessary_bound_eigvec(inst: ProblemInstance, batch: int) -> float:
    """Necessary step-size bound from the top eigenvector of the mean Hessian:

        2*lam / (lam^2 + (p/n) sum_i (v' H_i v - lam)^2),  v the top eigenvector.
    """
    return _eigvec_bound(inst, sym_eig(mean_hessian(inst)), mixing_weight(inst.n, batch))


def _eigvec_bound(inst: ProblemInstance, eig: EigDecomp, p: float) -> float:
    lam = float(eig.values[0])
    if lam <= 0:
        raise ValueError("mean Hessian has no positive eigenvalue")
    v = eig.vectors[:, 0]
    quads = np.einsum("i,nij,j->n", v, inst.hessians, v)
    denom = lam * lam + p * float(np.mean((quads - lam) ** 2))
    return 2.0 * lam / denom


def necessary_bound_trace(inst: ProblemInstance, batch: int) -> float:
    """Necessary step-size bound from traces and Frobenius norms:

        2*tr(Hbar) / ((1-p) ||Hbar||_F^2 + (p/n) sum_i ||H_i||_F^2).
    """
    hbar = mean_hessian(inst)
    tr = float(np.trace(hbar))
    if tr <= 0:
        raise ValueError("mean Hessian has nonpositive trace")
    p = mixing_weight(inst.n, batch)
    denom = (1.0 - p) * float(np.sum(hbar * hbar)) + p * float(np.mean(np.sum(inst.hessians**2, axis=(1, 2))))
    return 2.0 * tr / denom


def _rank_one_terms(vt: np.ndarray, stacked: np.ndarray):
    """Every H_i v, Hbar v and quadratic form for the columns v of vt.

    stacked is the ((n+1) d, d) stack [H_1; ...; H_n; Hbar], so one GEMM
    gives all the products; entry n of each returned stack is Hbar's.
    """
    d, s = vt.shape
    hv = (stacked @ vt).reshape(-1, d, s)
    return hv, np.einsum("is,nis->ns", vt, hv)


def rank_one_bound(
    inst: ProblemInstance,
    batch: int,
    steps: int = 2000,
    seed: int = 0,
    n_starts: int = 8,
    rel_tol: float = DEFAULT_RANK_RTOL,
) -> tuple[float, np.ndarray]:
    """Best rank-one lower bound on the generalized sharpness for one batch size.

    Maximizes  f(v) = v'Hbar v + p * mean_i (v'H_i v - v'Hbar v)^2 / (v'Hbar v)
    over the unit sphere; see rank_one_bounds, of which this is the
    one-batch call.  Returns (best value, maximizer).
    """
    return rank_one_bounds(inst, [batch], steps=steps, seed=seed, n_starts=n_starts, rel_tol=rel_tol)[0]


def rank_one_bounds(
    inst: ProblemInstance,
    batches,
    steps: int = 2000,
    seed: int = 0,
    n_starts: int = 8,
    rel_tol: float = DEFAULT_RANK_RTOL,
) -> list[tuple[float, np.ndarray]]:
    """Best rank-one lower bounds on the generalized sharpness, one per batch size.

    For each batch size B, with p its mixing weight, maximizes

        f(v) = v'Hbar v + p * mean_i (v'H_i v - v'Hbar v)^2 / (v'Hbar v)

    over the unit sphere by geodesic gradient ascent with a decaying step
    schedule, multi-started from the top eigenvector of Hbar plus seeded
    random directions in its range.  Every (batch, start) lane advances in
    one (d, len(batches) * n_starts) block, column j * n_starts + s being
    start s of batches[j]; a lane stops for good when its tangent gradient
    vanishes or it collapses into the null space of Hbar.  Geodesic arc
    lengths are scaled by 1/lambda_max so the iterate sequence is exactly
    equivariant under rescaling all Hessians.  Returns (best value,
    maximizer) per batch, in the order given: the first strict maximum in
    (start, step) order.  Raises ValueError when batches is empty, steps < 0
    or n_starts < 1, or when all starts of a batch collapse.
    """
    return _rank_one_ascent(inst, sym_eig(mean_hessian(inst)), list(batches), steps, seed, n_starts, rel_tol)


def _rank_one_ascent(
    inst: ProblemInstance,
    eig: EigDecomp,
    batches: list[int],
    steps: int,
    seed: int,
    n_starts: int,
    rel_tol: float,
) -> list[tuple[float, np.ndarray]]:
    """rank_one_bounds on eig = sym_eig(Hbar)."""
    if not batches:
        raise ValueError("batches must be non-empty")
    if steps < 0:
        raise ValueError(f"steps must be nonnegative, got {steps}")
    if n_starts < 1:
        raise ValueError(f"n_starts must be at least 1, got {n_starts}")
    lam = float(eig.values[0])
    if lam <= 0:
        raise ValueError("mean Hessian has no positive eigenvalue")
    n, d = inst.n, inst.d
    floor = rel_tol * lam
    vn = eig.vectors[:, eig.values <= floor]
    p_range = np.eye(d) - vn @ vn.T
    rng = stream(seed, index=1)
    starts = [eig.vectors[:, 0]]
    while len(starts) < n_starts:
        z = p_range @ rng.standard_normal(d)
        nz = np.linalg.norm(z)
        if nz > 1e-8:
            starts.append(z / nz)
    gamma0 = 0.1
    schedule_k = max(1, steps // 10)
    stacked = np.concatenate([inst.hessians.reshape(n * d, d), mean_hessian(inst)])
    n_lanes = len(batches) * n_starts
    best_value = np.full(n_lanes, -math.inf)
    best_v = np.tile(np.array(starts), (len(batches), 1))
    # Column j of vt is the iterate of lane lanes[j], and pn[j] its p / n;
    # stopped lanes are dropped.  Pass k = -1 only evaluates the starts themselves.
    lanes = np.arange(n_lanes)
    pn = np.repeat([mixing_weight(n, b) / n for b in batches], n_starts)
    vt = best_v.T.copy()
    hv, quads = _rank_one_terms(vt, stacked)
    for k in range(-1, steps):
        if k >= 0:
            # grad f = sum_m coef_m * (row m of hv): rows i < n weigh H_i v, row n weighs
            # Hbar v.  The noise term needs no "- Hbar v": sum_i dev_i is zero up to rounding.
            coef = (4.0 * t) * dq
            coef[n] = 2.0 - 2.0 * w / a
            grad = np.einsum("ms,mis->is", coef, hv)
            r = grad - np.einsum("is,is->s", grad, vt) * vt
            nr = np.sqrt(np.einsum("is,is->s", r, r))
            stopped = nr <= 1e-15 * np.maximum(1.0, value)  # f > 0, so |f| = f
            if stopped.any():
                moving = ~stopped
                lanes, pn, vt, r, nr = lanes[moving], pn[moving], vt[:, moving], r[:, moving], nr[moving]
                if lanes.size == 0:
                    break
            theta = (gamma0 / (1.0 + k / schedule_k) / lam) * nr
            vt = np.cos(theta) * vt + (np.sin(theta) / nr) * r
            vt /= np.sqrt(np.einsum("is,is->s", vt, vt))
            hv, quads = _rank_one_terms(vt, stacked)
        collapsed = quads[n] <= floor
        if collapsed.any():
            alive = ~collapsed
            lanes, pn, vt, hv, quads = lanes[alive], pn[alive], vt[:, alive], hv[:, :, alive], quads[:, alive]
            if lanes.size == 0:
                break
        a = quads[n]
        dq = quads - a  # rows i < n are dev_i = v'H_i v - a; row n is exactly zero
        t = pn / a
        w = t * np.einsum("ms,ms->s", dq, dq)  # p * mean_i dev_i^2 / a
        value = a + w
        better = value > best_value[lanes]
        if better.any():
            best_value[lanes[better]] = value[better]
            best_v[lanes[better]] = vt[:, better].T
    results = []
    for j, b in enumerate(batches):
        lane_values = best_value[j * n_starts : (j + 1) * n_starts]
        if not np.any(np.isfinite(lane_values)):
            raise ValueError(f"all starts collapsed into the null space of the mean Hessian (batch {b})")
        best = j * n_starts + int(np.argmax(lane_values))
        results.append((float(best_value[best]), best_v[best].copy()))
    return results


def _projected_transition_dense(inst: ProblemInstance, eta: float, batch: int, rel_tol: float = DEFAULT_RANK_RTOL) -> np.ndarray:
    """Dense (P kron P) Q, P the range projector of Hbar, as the projected mixture sum

        (1-p) (P - eta*Hbar) kron (P - eta*Hbar) + (p/n) sum_i (P - eta*H_i) kron (P - eta*H_i).

    Test oracle for projected_transition_lambda_max; top_mode_noise_overlap
    takes its top eigenvector.
    """
    d, n = inst.d, inst.n
    p = mixing_weight(n, batch)
    hbar = mean_hessian(inst)
    _, p_range = null_projectors(hbar, rel_tol=rel_tol)
    q_proj = (1.0 - p) * kron(p_range - eta * hbar, p_range - eta * hbar)
    for i in range(n):
        m = p_range - eta * inst.hessians[i]
        q_proj += (p / n) * kron(m, m)
    return q_proj


def projected_transition_lambda_max(inst: ProblemInstance, eta: float, batch: int, rel_tol: float = DEFAULT_RANK_RTOL) -> float:
    """lambda_max of (P kron P) Q with P the range projector of Hbar.

    For PSD per-sample Hessians this matrix equals the projected mixture
    sum, which is symmetric; it is below 1 exactly on 0 < eta < eta_var.
    Solved by Lanczos in Hbar's eigenbasis without forming the matrix:
    there P = diag(keep), keep marking the eigenvalues of Hbar above
    rel_tol * lambda_max, and the operator maps X to
    (1-p) (m m^T) o X + (p/n) sum_i M_i X M_i with m = keep - eta*lam and
    M_i = diag(keep) - eta*K_i.
    """
    lam, k_all, _ = _hessian_eigenbasis(inst)
    d, n = inst.d, inst.n
    p = mixing_weight(n, batch)
    keep = (lam > rel_tol * max(float(lam[0]), 0.0)).astype(float)
    m_bar = keep - eta * lam
    full = (1.0 - p) * np.outer(m_bar, m_bar)
    m_all = np.diag(keep) - eta * k_all

    def apply(u: np.ndarray) -> np.ndarray:
        x = u.reshape(d, d)
        return (full * x + (p / n) * _sandwich_sum(m_all, x)).reshape(-1)

    return _lanczos_solve(LinearOperator(in_dim=d * d, out_dim=d * d, apply=apply), seed=7)


@dataclass(frozen=True)
class EtaVerdict:
    eta: float
    mean_stable: bool
    var_stable: bool


@dataclass(frozen=True)
class StabilityVerdict:
    classification: MinimumClass
    mean_threshold: float
    variance_threshold: float
    bound_eigvec: float
    bound_trace: float
    bound_rank_one: float
    p: float
    batch: int
    rows: tuple[EtaVerdict, ...]


def stability_verdict(
    inst: ProblemInstance,
    batch: int,
    eta_list,
    rel_tol: float = DEFAULT_RANK_RTOL,
    rank_one_steps: int = 2000,
    seed: int = 0,
) -> StabilityVerdict:
    """Assemble all thresholds and bounds and classify each requested step size.

    Each step size is classified against the thresholds alone; no spectral
    check runs here.  The instance is classified once.
    """
    kind = require_valid(inst, rel_tol)
    p = mixing_weight(inst.n, batch)
    eig = sym_eig(mean_hessian(inst))
    eta_mean = _threshold(float(eig.values[0]))
    eta_var = _threshold(_generalized_sharpness_operator(inst, p, rel_tol, _hessian_eigenbasis(inst, eig)))
    b_eig = _eigvec_bound(inst, eig, p)
    b_tr = necessary_bound_trace(inst, batch)
    [(value, _)] = _rank_one_ascent(inst, eig, [batch], rank_one_steps, seed, 8, rel_tol)
    b_r1 = 2.0 / value
    if eta_var > eta_mean * (1.0 + 1e-9):
        raise ConvergenceError(f"variance threshold {eta_var} exceeds mean threshold {eta_mean}")
    for name, bound in (("eigvec", b_eig), ("trace", b_tr), ("rank-one", b_r1)):
        if eta_var > bound * (1.0 + 1e-9):
            raise ConvergenceError(f"variance threshold {eta_var} exceeds necessary bound {name} = {bound}")
    etas = [float(eta) for eta in eta_list]
    rows = tuple(EtaVerdict(eta=eta, mean_stable=eta <= eta_mean, var_stable=eta <= eta_var) for eta in etas)
    return StabilityVerdict(
        classification=kind,
        mean_threshold=eta_mean,
        variance_threshold=eta_var,
        bound_eigvec=b_eig,
        bound_trace=b_tr,
        bound_rank_one=b_r1,
        p=p,
        batch=batch,
        rows=rows,
    )
