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
The mean (first-moment) threshold is 2 / lambda_max(Hbar).

Dense d^2 x d^2 matrices are only formed for d <= DENSE_CAP; above that
every operator is exposed matrix-free.
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
    LinearOperator,
    kron,
    kron_sum,
    null_projectors,
    power_lambda_max,
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


def _sandwich_operator(mats: np.ndarray, weights: np.ndarray, d: int) -> LinearOperator:
    """Matrix-free sum_k w_k (M_k kron M_k), applied to vec'd arguments."""

    def apply(u: np.ndarray) -> np.ndarray:
        m = unvec(u, d)
        out = np.zeros((d, d))
        for w, mat in zip(weights, mats):
            out += w * (mat @ m @ mat)
        return vec(out)

    return LinearOperator(in_dim=d * d, out_dim=d * d, apply=apply)


def _require_valid(inst: ProblemInstance, rel_tol: float) -> None:
    if classify(inst, rel_tol=rel_tol) is MinimumClass.INVALID:
        raise ValueError("instance is not a regular or interpolating minimum")


def curvature_operators(
    inst: ProblemInstance,
    batch: int,
    rel_tol: float = DEFAULT_RANK_RTOL,
    dense: bool | None = None,
) -> SpectralReport:
    """Build C, D, E and both sharpness numbers for an instance and batch size."""
    _require_valid(inst, rel_tol)
    d, n = inst.d, inst.n
    p = mixing_weight(n, batch)
    hbar = mean_hessian(inst)
    lam = float(sym_eig(hbar).values[0])
    if dense is None:
        dense = d <= DENSE_CAP
    if dense and d > DENSE_CAP:
        raise ValueError(f"dense operators requested for d={d} > cap {DENSE_CAP}")
    if dense:
        c, dmat = _dense_curvature(inst, p)
        e = np.zeros((d * d, d * d))
        for i in range(n):
            delta = inst.hessians[i] - hbar
            e += kron(delta, delta)
        e /= n
        scale = max(1.0, float(np.max(np.abs(dmat))))
        defect = np.max(np.abs(dmat - (kron(hbar, hbar) + p * e)))
        if defect > 1e-10 * scale:
            raise ConvergenceError(f"curvature identity D = Hkron + p*E violated by {defect:.3e}")
        gen_sharp = _generalized_sharpness_dense(hbar, dmat, rel_tol)
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
    weights_d = np.concatenate(([1.0 - p], np.full(n, p / n)))
    mats_d = np.concatenate((hbar[None, :, :], inst.hessians), axis=0)
    d_op = _sandwich_operator(mats_d, weights_d, d)
    e_op = _sandwich_operator(inst.hessians - hbar, np.full(n, 1.0 / n), d)
    gen_sharp = _generalized_sharpness_operator(inst, p, rel_tol)
    return SpectralReport(
        hessian=hbar,
        curvature_sum=c_op,
        curvature_sq=d_op,
        curvature_var=e_op,
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


def _generalized_sharpness_dense(hbar: np.ndarray, dmat: np.ndarray, rel_tol: float) -> float:
    eig = sym_eig(hbar)
    factor = _pair_factor(eig.values, rel_tol).reshape(-1)
    w = kron(eig.vectors, eig.vectors)
    s = factor[:, None] * (w.T @ dmat @ w) * factor[None, :]
    lam = float(sym_eig(s).values[0])
    return lam if lam > 0 else 0.0


def _generalized_sharpness_operator(inst: ProblemInstance, p: float, rel_tol: float) -> float:
    d, n = inst.d, inst.n
    hbar = mean_hessian(inst)
    eig = sym_eig(hbar)
    v = eig.vectors
    factor = _pair_factor(eig.values, rel_tol)

    def half_pinv_apply(m: np.ndarray) -> np.ndarray:
        w = v.T @ m @ v
        return v @ (factor * w) @ v.T

    def s_apply(u: np.ndarray) -> np.ndarray:
        m = half_pinv_apply(unvec(u, d))
        out = (1.0 - p) * (hbar @ m @ hbar)
        for i in range(n):
            out += (p / n) * (inst.hessians[i] @ m @ inst.hessians[i])
        return vec(half_pinv_apply(out))

    op = LinearOperator(in_dim=d * d, out_dim=d * d, apply=s_apply)
    lam_s = power_lambda_max(op, tol=1e-13, max_iter=200_000, seed=7)
    return lam_s if lam_s > 0 else 0.0


def second_moment_transition(
    inst: ProblemInstance,
    eta: float,
    batch: int,
    dense: bool | None = None,
) -> np.ndarray | LinearOperator:
    """The transition Q advancing vec(E[x x^T]) by one SGD step.

    The dense path builds Q three independent ways (deviation form,
    mixture form, I - 2*eta*C + eta^2*D) and insists they agree to
    1e-10 before returning the mixture form.
    """
    if eta < 0:
        raise ValueError(f"step size must be nonnegative, got {eta}")
    d, n = inst.d, inst.n
    p = mixing_weight(n, batch)
    hbar = mean_hessian(inst)
    if dense is None:
        dense = d <= DENSE_CAP
    if not dense:
        mats = np.concatenate(((np.eye(d) - eta * hbar)[None, :, :], np.eye(d)[None, :, :] - eta * inst.hessians))
        weights = np.concatenate(([1.0 - p], np.full(n, p / n)))
        return _sandwich_operator(mats, weights, d)

    eye = np.eye(d)
    a_bar = eye - eta * hbar
    # Form 1: contraction plus weighted curvature deviations.
    q_dev = kron(a_bar, a_bar)
    for i in range(n):
        delta = inst.hessians[i] - hbar
        q_dev += (p * eta * eta / n) * kron(delta, delta)
    # Form 2: mixture of full-batch and single-sample contractions.
    q_mix = (1.0 - p) * kron(a_bar, a_bar)
    for i in range(n):
        a_i = eye - eta * inst.hessians[i]
        q_mix += (p / n) * kron(a_i, a_i)
    # Form 3: I - 2*eta*C + eta^2*D.
    c, dmat = _dense_curvature(inst, p)
    q_cd = np.eye(d * d) - 2.0 * eta * c + eta * eta * dmat
    scale = max(1.0, float(np.max(np.abs(q_mix))))
    for other, name in ((q_dev, "deviation"), (q_cd, "quadratic")):
        defect = float(np.max(np.abs(q_mix - other)))
        if defect > 1e-10 * scale:
            raise ConvergenceError(f"transition forms disagree ({name} vs mixture): {defect:.3e}")
    return q_mix


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


def mean_threshold(inst: ProblemInstance) -> float:
    """First-moment stability threshold 2 / lambda_max(Hbar)."""
    lam = sharpness(inst)
    if lam <= 0:
        return math.inf
    return 2.0 / lam


def variance_threshold(
    inst: ProblemInstance,
    batch: int,
    rel_tol: float = DEFAULT_RANK_RTOL,
    dense: bool | None = None,
) -> float:
    """Exact mean-square stability threshold 2 / lambda_max(pinv(C) D)."""
    _require_valid(inst, rel_tol)
    if dense is None:
        dense = inst.d <= DENSE_CAP
    p = mixing_weight(inst.n, batch)
    if dense:
        _, dmat = _dense_curvature(inst, p)
        lam = _generalized_sharpness_dense(mean_hessian(inst), dmat, rel_tol)
    else:
        lam = _generalized_sharpness_operator(inst, p, rel_tol)
    if lam <= 0:
        return math.inf
    return 2.0 / lam


def necessary_bound_eigvec(inst: ProblemInstance, batch: int) -> float:
    """Necessary step-size bound from the top eigenvector of the mean Hessian:

        2*lam / (lam^2 + (p/n) sum_i (v' H_i v - lam)^2),  v the top eigenvector.
    """
    eig = sym_eig(mean_hessian(inst))
    lam = float(eig.values[0])
    if lam <= 0:
        raise ValueError("mean Hessian has no positive eigenvalue")
    v = eig.vectors[:, 0]
    p = mixing_weight(inst.n, batch)
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


def _rank_one_terms(vt: np.ndarray, flat_h: np.ndarray, hbar: np.ndarray):
    """H_i v, Hbar v and a = v'Hbar v for every start v, a column of vt.

    One GEMM gives all H_i v: flat_h is the (n*d, d) stack of the H_i.
    """
    d, s = vt.shape
    hiv = (flat_h @ vt).reshape(-1, d, s)
    hv = hbar @ vt
    a = np.einsum("is,is->s", vt, hv)
    return hiv, hv, a


def _rank_one_value(vt: np.ndarray, hiv: np.ndarray, a: np.ndarray, p: float):
    dev = np.einsum("is,nis->ns", vt, hiv) - a
    g = np.mean(dev * dev, axis=0)
    return a + p * g / a, dev, g


def rank_one_bound(
    inst: ProblemInstance,
    batch: int,
    steps: int = 2000,
    seed: int = 0,
    n_starts: int = 8,
    rel_tol: float = DEFAULT_RANK_RTOL,
) -> tuple[float, np.ndarray]:
    """Best rank-one lower bound on the generalized sharpness.

    Maximizes  f(v) = v'Hbar v + p * mean_i (v'H_i v - v'Hbar v)^2 / (v'Hbar v)
    over the unit sphere by geodesic gradient ascent with a decaying step
    schedule, multi-started from the top eigenvector of Hbar plus seeded
    random directions.  The starts advance together as the columns of one
    (d, n_starts) block; a start stops for good when its tangent gradient
    vanishes or it collapses into the null space of Hbar.  Geodesic arc
    lengths are scaled by 1/lambda_max so the iterate sequence is exactly
    equivariant under rescaling all Hessians.  Returns (best value,
    maximizer), the first strict maximum in (start, step) order.
    """
    eig = sym_eig(mean_hessian(inst))
    lam = float(eig.values[0])
    if lam <= 0:
        raise ValueError("mean Hessian has no positive eigenvalue")
    hbar = mean_hessian(inst)
    n, d = inst.n, inst.d
    p = mixing_weight(n, batch)
    _, p_range = null_projectors(hbar, rel_tol=rel_tol)
    rng = stream(seed, index=1)
    starts = [eig.vectors[:, 0]]
    while len(starts) < n_starts:
        z = p_range @ rng.standard_normal(d)
        nz = np.linalg.norm(z)
        if nz > 1e-8:
            starts.append(z / nz)
    gamma0 = 0.1
    schedule_k = max(1, steps // 10)
    floor = rel_tol * lam
    flat_h = inst.hessians.reshape(n * d, d)
    best_value = np.full(n_starts, -math.inf)
    best_v = np.array(starts)
    # Column j of vt is the iterate of start lanes[j]; stopped starts are dropped.
    # Pass k = -1 only evaluates the starts themselves.
    lanes = np.arange(n_starts)
    vt = best_v.T.copy()
    hiv, hv, a = _rank_one_terms(vt, flat_h, hbar)
    for k in range(-1, steps):
        if k >= 0:
            grad = 2.0 * (1.0 - p * g / (a * a)) * hv + (4.0 * p / a) * np.einsum("ns,nis->is", dev / n, hiv - hv)
            r = grad - np.einsum("is,is->s", grad, vt) * vt
            nr = np.linalg.norm(r, axis=0)
            moving = ~(nr <= 1e-15 * np.maximum(1.0, np.abs(value)))
            lanes, vt, r, nr = lanes[moving], vt[:, moving], r[:, moving], nr[moving]
            if lanes.size == 0:
                break
            gamma = gamma0 / (1.0 + k / schedule_k)
            theta = gamma * nr / lam
            vt = np.cos(theta) * vt + np.sin(theta) * (r / nr)
            vt /= np.linalg.norm(vt, axis=0)
            hiv, hv, a = _rank_one_terms(vt, flat_h, hbar)
        alive = ~(a <= floor)
        lanes, vt, hiv, hv, a = lanes[alive], vt[:, alive], hiv[:, :, alive], hv[:, alive], a[alive]
        if lanes.size == 0:
            break
        value, dev, g = _rank_one_value(vt, hiv, a, p)
        better = value > best_value[lanes]
        best_value[lanes[better]] = value[better]
        best_v[lanes[better]] = vt[:, better].T
    if not np.any(np.isfinite(best_value)):
        raise ValueError("all starts collapsed into the null space of the mean Hessian")
    best = int(np.argmax(best_value))
    return float(best_value[best]), best_v[best].copy()


def projected_transition_lambda_max(inst: ProblemInstance, eta: float, batch: int, rel_tol: float = DEFAULT_RANK_RTOL) -> float:
    """lambda_max of (P kron P) Q with P the range projector of Hbar.

    For PSD per-sample Hessians this matrix equals the projected mixture
    sum, which is symmetric; it is below 1 exactly on 0 < eta < eta_var.
    """
    d, n = inst.d, inst.n
    p = mixing_weight(n, batch)
    hbar = mean_hessian(inst)
    _, p_range = null_projectors(hbar, rel_tol=rel_tol)
    q_proj = (1.0 - p) * kron(p_range - eta * hbar, p_range - eta * hbar)
    for i in range(n):
        m = p_range - eta * inst.hessians[i]
        q_proj += (p / n) * kron(m, m)
    return float(sym_eig(q_proj).values[0])


@dataclass(frozen=True)
class EtaVerdict:
    eta: float
    mean_stable: bool
    var_stable: bool


@dataclass(frozen=True)
class StabilityVerdict:
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

    On the dense path this also cross-checks the spectral characterization:
    the projected transition has top eigenvalue below one exactly for
    0 < eta < eta_var (up to a small margin around the threshold).
    """
    _require_valid(inst, rel_tol)
    eta_mean = mean_threshold(inst)
    eta_var = variance_threshold(inst, batch, rel_tol=rel_tol)
    b_eig = necessary_bound_eigvec(inst, batch)
    b_tr = necessary_bound_trace(inst, batch)
    value, _ = rank_one_bound(inst, batch, steps=rank_one_steps, seed=seed, rel_tol=rel_tol)
    b_r1 = 2.0 / value
    if eta_var > eta_mean * (1.0 + 1e-9):
        raise ConvergenceError(f"variance threshold {eta_var} exceeds mean threshold {eta_mean}")
    for name, bound in (("eigvec", b_eig), ("trace", b_tr), ("rank-one", b_r1)):
        if eta_var > bound * (1.0 + 1e-9):
            raise ConvergenceError(f"variance threshold {eta_var} exceeds necessary bound {name} = {bound}")
    rows = []
    dense = inst.d <= DENSE_CAP
    for eta in eta_list:
        eta = float(eta)
        rows.append(EtaVerdict(eta=eta, mean_stable=eta <= eta_mean, var_stable=eta <= eta_var))
        if dense and eta > 0 and math.isfinite(eta_var) and abs(eta - eta_var) > 1e-6 * eta_var:
            lam_proj = projected_transition_lambda_max(inst, eta, batch, rel_tol=rel_tol)
            spectrally_stable = lam_proj < 1.0 - 1e-9
            if spectrally_stable != (eta < eta_var):
                raise ConvergenceError(
                    f"spectral characterization violated at eta={eta}: "
                    f"lambda_max={lam_proj} vs threshold {eta_var}"
                )
    return StabilityVerdict(
        mean_threshold=eta_mean,
        variance_threshold=eta_var,
        bound_eigvec=b_eig,
        bound_trace=b_tr,
        bound_rank_one=b_r1,
        p=mixing_weight(inst.n, batch),
        batch=batch,
        rows=tuple(rows),
    )
