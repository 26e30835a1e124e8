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
(C^{1/2})^+ D (C^{1/2})^+, which has the same nonzero spectrum.  For PSD
H_i, null(Hbar) lies inside every null(H_i), so C and D vanish on every
index pair that touches null(Hbar).  range_basis keeps the r eigenpairs
(lam, V_r) of Hbar that linalg.psd_range counts as nonzero: there C is
diagonal with entries (lam_a + lam_b)/2, so (C^{1/2})^+ is an
elementwise scaling, and every spectral solve runs matrix-free on r x r
arguments.  The mean (first-moment) threshold is 2 / lambda_max(Hbar).

The verdict classifies each step size against eta_var alone and runs
no spectral check of its own: the equivalence "the range-projected
transition (P kron P) Q has top eigenvalue below one exactly on
0 < eta < eta_var" is checked by the tests and by the verify command.
projected_transition_lambda_max computes that eigenvalue on the same
r x r block.  The thresholds and the verdict never form a d^2 x d^2 matrix.

Q, D, E and the projected transition are all the mixture
(1-p) A kron A + (p/n) sum_i M_i kron M_i, written once per representation:

    _mixture_matrix   the dense d^2 x d^2 matrix (test oracles and verify);
    _mixture_apply    its action on a d x d argument, vec'd by _mixture_operator;
    _range_d          D on the r x r range block, X -> (1-p) Lam X Lam
                      + (p/n) sum_i k_i X k_i.

The last two share the sandwich kernel _sandwich_sum.  curvature_operators
and second_moment_transition pick _mixture_matrix for d <= DENSE_CAP and
_mixture_operator above it.  The threshold congruence, the projected
transition and the limit system of moments are affine in _range_d.  The
Lanczos solves here run on operators built symmetric, so they skip
lanczos_lambda_max's self-adjoint probes.

The necessary bounds are cheap lower bounds on the generalized sharpness.
The tightest, 2 / max_v f(v) over unit v, comes from rank_one_bounds: a
Riemannian L-BFGS ascent on the unit sphere that advances every (batch
size, start) pair of a call as one row of a single block.  Each iteration
makes one GEMM with the block row [H_1, ..., H_n, Hbar], at the
quasi-Newton trial point; Armijo backtracking along the same geodesic
reads f off quadratic forms and makes none.  A lane stops on convergence,
so the step budget is only a cap.  stability_verdict builds one
range_basis and hands it to the mean threshold, the variance threshold,
the eigenvector bound and the ascent; the sweep's _sweep_bounds shares
one the same way across its batch sizes, and curvature_operators builds
one per call.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .instances import MinimumClass, ProblemInstance, check_step_size, classify, mixing_weight, stream
from .linalg import (
    DEFAULT_RANK_RTOL,
    ConvergenceError,
    EigDecomp,
    LinearOperator,
    _lanczos_solve,
    kron,
    kron_sum,
    null_projectors,
    psd_range,
    sym_eig,
    unvec,
    vec,
    zero_cutoff,
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
    d = inst.d
    p = mixing_weight(inst.n, batch)
    hbar = mean_hessian(inst)
    if dense is None:
        dense = d <= DENSE_CAP
    if dense and d > DENSE_CAP:
        raise ValueError(f"dense operators requested for d={d} > cap {DENSE_CAP}")
    basis = range_basis(inst, rel_tol)
    if dense:
        c, mixture = 0.5 * kron_sum(hbar, hbar), _mixture_matrix
    else:
        def c_apply(u: np.ndarray) -> np.ndarray:
            m = unvec(u, d)
            return vec(0.5 * (hbar @ m + m @ hbar))

        c, mixture = LinearOperator(in_dim=d * d, out_dim=d * d, apply=c_apply), _mixture_operator
    return SpectralReport(
        hessian=hbar,
        curvature_sum=c,
        curvature_sq=mixture(hbar, inst.hessians, p),
        curvature_var=mixture(hbar, inst.hessians - hbar, 1.0),
        sharpness=float(basis.eig.values[0]),
        generalized_sharpness=_range_sharpness(basis, p),
        p=p,
        rel_tol=rel_tol,
        dense=dense,
    )


def _dense_curvature(inst: ProblemInstance, p: float) -> tuple[np.ndarray, np.ndarray]:
    """Dense C = (Hbar (+) Hbar)/2 and D = (1-p) Hbar kron Hbar + (p/n) sum_i H_i kron H_i."""
    hbar = mean_hessian(inst)
    return 0.5 * kron_sum(hbar, hbar), _mixture_matrix(hbar, inst.hessians, p)


def _mixture_matrix(a_bar: np.ndarray, mats: np.ndarray, p: float) -> np.ndarray:
    """Dense (1-p) (A kron A) + (p/n) sum_i (M_i kron M_i), the d^2 x d^2 form of _mixture_apply."""
    n = mats.shape[0]
    out = (1.0 - p) * kron(a_bar, a_bar)
    for m in mats:
        out += (p / n) * kron(m, m)
    return out


@dataclass(frozen=True)
class RangeBasis:
    """eig = sym_eig(Hbar); lam (r,) and v (d, r) its eigenpairs that psd_range keeps; k[i] = v^T H_i v."""

    eig: EigDecomp
    lam: np.ndarray
    v: np.ndarray
    k: np.ndarray


def range_basis(inst: ProblemInstance, rel_tol: float = DEFAULT_RANK_RTOL) -> RangeBasis:
    """Decompose Hbar once and rotate the Hessians onto its range; ValueError if Hbar is not PSD."""
    eig = sym_eig(mean_hessian(inst))
    keep = psd_range(eig.values, rel_tol)
    v = eig.vectors[:, keep]
    return RangeBasis(eig=eig, lam=eig.values[keep], v=v, k=v.T @ inst.hessians @ v)


def _sandwich_sum(mats: np.ndarray, m: np.ndarray) -> np.ndarray:
    """sum_i M_i m M_i over a stack of symmetric M_i: one batched matmul plus one GEMM."""
    n, d, _ = mats.shape
    # M_i is symmetric, so sum_i M_i m M_i = [M_1; ...; M_n]^T @ [m M_1; ...; m M_n].
    return mats.reshape(n * d, d).T @ (m @ mats).reshape(n * d, d)


def _mixture_apply(a_bar: np.ndarray, mats: np.ndarray, p: float, m: np.ndarray) -> np.ndarray:
    """(1-p) A m A + (p/n) sum_i M_i m M_i on a d x d argument m, A and M_i symmetric."""
    return (1.0 - p) * (a_bar @ m @ a_bar) + (p / mats.shape[0]) * _sandwich_sum(mats, m)


def _mixture_operator(a_bar: np.ndarray, mats: np.ndarray, p: float) -> LinearOperator:
    """Matrix-free (1-p) (A kron A) + (p/n) sum_i (M_i kron M_i): _mixture_apply on vec'd arguments."""
    d = a_bar.shape[0]
    return LinearOperator(in_dim=d * d, out_dim=d * d, apply=lambda u: vec(_mixture_apply(a_bar, mats, p, unvec(u, d))))


def _range_d(basis: RangeBasis, p: float):
    """D on the r x r range block: the map X -> (1-p) Lam X Lam + (p/n) sum_i k_i X k_i."""
    col, row, k = basis.lam[:, None], basis.lam[None, :], basis.k
    pn = p / k.shape[0]
    return lambda x: (1.0 - p) * (col * x * row) + pn * _sandwich_sum(k, x)


def _range_sharpness(basis: RangeBasis, p: float) -> float:
    """lambda_max of (C^{1/2})^+ D (C^{1/2})^+ by Lanczos on the r x r range block.

    The congruence maps X to F o D_r(F o X), D_r = _range_d, F = ((lam_a +
    lam_b)/2)^{-1/2} the pair factors and o the elementwise product.  Zero
    when r = 0.
    """
    lam, r = basis.lam, basis.lam.size
    if r == 0:
        return 0.0
    factor = 1.0 / np.sqrt(0.5 * (lam[:, None] + lam[None, :]))
    d_r = _range_d(basis, p)
    op = LinearOperator(in_dim=r * r, out_dim=r * r, apply=lambda u: (factor * d_r(factor * u.reshape(r, r))).reshape(-1))
    lam_s = _lanczos_solve(op, seed=7)
    return lam_s if lam_s > 0 else 0.0


def generalized_sharpness(inst: ProblemInstance, batch: int, rel_tol: float = DEFAULT_RANK_RTOL) -> float:
    """lambda_max(pinv(C) D), the generalized sharpness, for one batch size.

    The instance is not classified here: callers that need a valid minimum
    check it once with require_valid, as variance_threshold does.
    """
    return _range_sharpness(range_basis(inst, rel_tol), mixing_weight(inst.n, batch))


def second_moment_transition(
    inst: ProblemInstance,
    eta: float,
    batch: int,
    dense: bool | None = None,
) -> np.ndarray | LinearOperator:
    """The transition Q advancing vec(E[x x^T]) by one SGD step: the mixture
    (1-p) (A kron A) + (p/n) sum_i (A_i kron A_i), A = I - eta*Hbar and
    A_i = I - eta*H_i, dense or matrix-free."""
    check_step_size(eta)
    p = mixing_weight(inst.n, batch)
    if dense is None:
        dense = inst.d <= DENSE_CAP
    eye = np.eye(inst.d)
    mixture = _mixture_matrix if dense else _mixture_operator
    return mixture(eye - eta * mean_hessian(inst), eye - eta * inst.hessians, p)


def mixture_transition(inst: ProblemInstance, eta: float, p: float) -> np.ndarray:
    """E[A kron A] of the mixture process: single-sample step w.p. p,
    full-batch step w.p. 1-p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"mixture weight must lie in [0, 1], got {p}")
    check_step_size(eta)
    eye = np.eye(inst.d)
    return _mixture_matrix(eye - eta * mean_hessian(inst), eye - eta * inst.hessians, p)


def brute_force_transition(inst: ProblemInstance, eta: float, batch: int, cap: int = ENUM_CAP) -> np.ndarray:
    """Q by exhaustive enumeration of all equiprobable size-B batches."""
    n, d = inst.n, inst.d
    mixing_weight(n, batch)  # ValueError unless 1 <= batch <= n
    check_step_size(eta)
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

    D is rotated by V kron V and scaled by the pair factors ((lam_a + lam_b)/2)^{-1/2}
    that psd_range keeps (ValueError if C is not PSD), then one d^2 x d^2
    eigendecomposition gives the top eigenvalue.
    """
    eig = sym_eig(hbar)
    pair = 0.5 * (eig.values[:, None] + eig.values[None, :]).reshape(-1)
    kept = psd_range(pair, rel_tol)
    factor = np.zeros_like(pair)
    factor[kept] = 1.0 / np.sqrt(pair[kept])
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


# Riemannian L-BFGS on the unit sphere (Absil, Mahony & Sepulchre, "Optimization
# Algorithms on Matrix Manifolds", 2008, ch. 4 and 8), run by _rank_one_ascent.
_LBFGS_PAIRS = 5  # (s, y) pairs kept per lane
_MAX_ARC = 0.2  # longest trial step along a geodesic, in radians
_ARMIJO = 1e-4  # sufficient-increase constant of the backtracking line search
_HALVINGS = 30  # a failed trial arc is halved up to this many times
_GRAD_RTOL = 1e-10  # a lane stops once |Riemannian grad f| <= _GRAD_RTOL * f ...
_GAIN_RTOL = 4.0 * np.finfo(float).eps  # ... or once an accepted step raised f by at most this * f


def _stacked_products(xs: np.ndarray, row: np.ndarray) -> np.ndarray:
    """Every H_i x and Hbar x for the rows x of xs, as an (s, n+1, d) stack.

    row is the (d, (n+1) d) block row [H_1, ..., H_n, Hbar].  The Hessians
    are symmetric, so one GEMM gives all the products; entry n is Hbar's.
    """
    s, d = xs.shape
    return (xs @ row).reshape(s, -1, d)


def _forms(xs: np.ndarray, hy: np.ndarray) -> np.ndarray:
    """x'M y for every M = H_1, ..., H_n, Hbar: row s of xs against the products hy[s] of y."""
    return (hy @ xs[:, :, None])[..., 0]


def _rank_one_value(quads: np.ndarray, pn: np.ndarray) -> np.ndarray:
    """f = a + (p/n) sum_i dev_i^2 / a per lane (row of quads), from the forms v'H_i v in
    columns i < n and a = v'Hbar v in column n; -inf where a <= 0."""
    a = quads[:, -1]
    dev = quads[:, :-1] - a[:, None]
    positive = a > 0
    value = a + pn * np.einsum("sn,sn->s", dev, dev) / np.where(positive, a, 1.0)
    return np.where(positive, value, -math.inf)


def _rank_one_grad(vs: np.ndarray, hv: np.ndarray, quads: np.ndarray, pn: np.ndarray, value: np.ndarray) -> np.ndarray:
    """The Riemannian gradient of f at the unit rows of vs, from their products and forms."""
    n = quads.shape[1] - 1
    a = quads[:, n]
    # grad f = sum_m coef_m * (entry m of hv): entries i < n weigh H_i v, entry n weighs
    # Hbar v.  The noise term needs no "- Hbar v": sum_i dev_i is zero up to rounding.
    coef = (4.0 * pn / a)[:, None] * (quads - a[:, None])
    coef[:, n] = 4.0 - 2.0 * value / a  # 2 - 2 w / a with w = f - a
    grad = (coef[:, None] @ hv)[:, 0]
    return grad - np.einsum("si,si->s", grad, vs)[:, None] * vs


def _geodesic_rise(theta: np.ndarray, quads: np.ndarray, q_vu: np.ndarray, q_uu: np.ndarray, pn: np.ndarray):
    """Increments of the forms, and f's rise, from v to cos(theta) v + sin(theta) u.

    quads, q_vu and q_uu hold v'M v, v'M u and u'M u for M = H_1, ..., H_n, Hbar,
    one row per lane; theta is (trials, lanes).  The increments are formed
    directly (cos^2 - 1 = -sin^2), so a rise far below f stays accurate.  A trial
    leaving v'Hbar v nonpositive gets rise -inf.
    """
    cs, sn = np.cos(theta)[..., None], np.sin(theta)[..., None]
    dq = sn * (2.0 * cs * q_vu + sn * (q_uu - quads))
    a, da = quads[:, -1], dq[..., -1]
    dev, ddev = quads[:, :-1] - a[:, None], dq[..., :-1] - da[..., None]
    positive = a + da > 0
    dg = np.einsum("jsn,jsn->js", ddev, 2.0 * dev + ddev)  # change of sum_i dev_i^2
    rise = da + pn * (dg - np.einsum("sn,sn->s", dev, dev) * da / a) / np.where(positive, a + da, 1.0)
    return dq, np.where(positive, rise, -math.inf)


def _two_loop(r: np.ndarray, mem: np.ndarray, rho: np.ndarray, gamma: np.ndarray, order) -> np.ndarray:
    """The L-BFGS ascent direction for the gradients in the rows of r, each lane with its own
    pairs: mem[:, 0] holds its s vectors and mem[:, 1] its y vectors.  order lists the pair
    slots newest first; a slot with rho = 0 is skipped."""
    eta = r.copy()
    alpha = np.zeros(rho.shape)
    for j in order:
        alpha[:, j] = rho[:, j] * np.einsum("si,si->s", mem[:, 0, j], eta)
        eta -= alpha[:, j, None] * mem[:, 1, j]
    eta *= gamma[:, None]
    for j in reversed(order):
        eta += (alpha[:, j] - rho[:, j] * np.einsum("si,si->s", mem[:, 1, j], eta))[:, None] * mem[:, 0, j]
    return eta


def _backtrack(theta, slope, vs, u, hv, hu, quads, pn):
    """Armijo backtracking along cos(t) v + sin(t) u from the failed arc theta, per lane.

    f at every halved arc comes from the forms of v and u (_geodesic_rise), so this
    costs no GEMM.  Returns the accepted iterate, its products and forms, the arc, f's
    rise and whether any halving passed; where none did, the rest is to be discarded.
    """
    arcs = theta * 0.5 ** np.arange(1, _HALVINGS + 1)[:, None]
    dq, rise = _geodesic_rise(arcs, quads, _forms(vs, hu), _forms(u, hu), pn)
    ok = rise >= _ARMIJO * arcs * slope
    pick, cols = ok.argmax(axis=0), np.arange(theta.size)
    arc = arcs[pick, cols]
    cs, sn = np.cos(arc), np.sin(arc)
    v = cs[:, None] * vs + sn[:, None] * u
    scale = np.sqrt(np.einsum("si,si->s", v, v))
    hv = (cs[:, None, None] * hv + sn[:, None, None] * hu) / scale[:, None, None]
    return v / scale[:, None], hv, (quads + dq[pick, cols]) / (scale * scale)[:, None], arc, rise[pick, cols], ok[pick, cols]


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

    over the unit sphere by Riemannian L-BFGS, multi-started from the top
    eigenvector of Hbar plus seeded random directions in its range.  Every
    (batch, start) lane advances in one (len(batches) * n_starts, d) block,
    row j * n_starts + s being start s of batches[j], and keeps its own few
    (s, y) pairs, projected onto the current tangent space.  A step goes
    along the geodesic in the quasi-Newton direction, its arc capped at
    0.2 rad, then halved until it passes Armijo.  A start inside the null
    space of Hbar (v'Hbar v at or below rel_tol * lambda_max) collapses at
    once; an accepted step raises f, and f(v) <= |P v|^2 * (generalized
    sharpness) for P the range projector, so no lane nears the null space
    afterwards.  A lane stops when its Riemannian gradient is at most 1e-10
    f, when a step raised f by a few ulps only, or when no halving passes.
    steps caps the iterations without entering them, so a larger cap never
    gives a smaller value.  The iteration is scale free, so rescaling all
    Hessians rescales the values alike.  Returns (best value, maximizer)
    per batch, in the order given: the first strict maximum over the starts
    in order.  Raises ValueError when batches is empty, steps < 0 or
    n_starts < 1, or when all starts of a batch collapse.
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
    floor = zero_cutoff(eig.values, rel_tol)
    vn = eig.vectors[:, eig.values <= floor]
    p_range = np.eye(d) - vn @ vn.T
    rng = stream(seed, index=1)
    starts = [eig.vectors[:, 0]]
    while len(starts) < n_starts:
        z = p_range @ rng.standard_normal(d)
        nz = np.linalg.norm(z)
        if nz > 1e-8:
            starts.append(z / nz)
    # [H_1, ..., H_n, Hbar] side by side; each lane is a row of every array below.
    row = np.concatenate([inst.hessians.transpose(1, 0, 2).reshape(d, n * d), mean_hessian(inst)], axis=1)
    n_lanes = len(batches) * n_starts
    best_value = np.full(n_lanes, -math.inf)
    best_v = np.tile(np.array(starts), (len(batches), 1))
    m = _LBFGS_PAIRS
    # Per-lane state: lane index, p / n, iterate vs, its products hv and forms quads, f, its
    # Riemannian gradient r, the (s, y) pairs mem with their 1/(s'y), and the initial
    # inverse-Hessian scale gamma.  A lane that stops is dropped from every array at once.
    vs = best_v.copy()
    hv = _stacked_products(vs, row)
    quads = _forms(vs, hv)
    alive = quads[:, n] > floor  # starts inside the null space collapse at once
    lanes, pn, vs, hv, quads = [
        x[alive] for x in (np.arange(n_lanes), np.repeat([mixing_weight(n, b) / n for b in batches], n_starts), vs, hv, quads)
    ]
    mem = np.zeros((lanes.size, 2, m, d))
    rho, gamma = np.zeros((lanes.size, m)), np.full(lanes.size, 1.0 / lam)
    value = _rank_one_value(quads, pn)
    r = _rank_one_grad(vs, hv, quads, pn, value)
    best_value[lanes] = value
    best_v[lanes] = vs
    gain = np.full(lanes.size, math.inf)  # f's rise on each lane's last step
    for k in range(steps):
        # f > 0 on every live lane, so both stop rules are relative to f itself.
        moving = (np.sqrt(np.einsum("si,si->s", r, r)) > _GRAD_RTOL * value) & (gain > _GAIN_RTOL * value)
        if not moving.all():
            lanes, pn, vs, hv, quads, mem, rho, gamma, value, r = [
                x[moving] for x in (lanes, pn, vs, hv, quads, mem, rho, gamma, value, r)
            ]
        if lanes.size == 0:
            break
        eta = _two_loop(r, mem, rho, gamma, [(k - 1 - j) % m for j in range(min(k, m))])
        slope = np.einsum("si,si->s", r, eta)
        uphill = slope > 0
        if not uphill.all():  # lost to rounding: that lane restarts from the scaled gradient
            eta[~uphill] = r[~uphill] / lam
            mem[~uphill] = 0.0
            slope = np.einsum("si,si->s", r, eta)
        norm_eta = np.sqrt(np.einsum("si,si->s", eta, eta))
        u = eta / norm_eta[:, None]
        slope /= norm_eta  # d f / d theta along the geodesic cos(theta) v + sin(theta) u
        # The trial: the quasi-Newton step along that geodesic, its arc capped at _MAX_ARC.
        theta = np.minimum(norm_eta, _MAX_ARC)
        cs, sn = np.cos(theta), np.sin(theta)
        vs_new = cs[:, None] * vs + sn[:, None] * u
        scale = np.sqrt(np.einsum("si,si->s", vs_new, vs_new))
        vs_new /= scale[:, None]
        hv_new = _stacked_products(vs_new, row)
        quads_new = _forms(vs_new, hv_new)
        value_new = _rank_one_value(quads_new, pn)
        gain = value_new - value
        passed = gain >= _ARMIJO * theta * slope
        # A failed lane backtracks, unless its step promised a rise of rounding size only:
        # f has then converged there, and the lane stops where it is.
        back = np.flatnonzero(~passed & (theta * slope > _GAIN_RTOL * value))
        if back.size:
            # H u on those lanes follows from the trial's products.
            hu = (scale[back, None, None] * hv_new[back] - cs[back, None, None] * hv[back]) / sn[back, None, None]
            vs_new[back], hv_new[back], quads_new[back], theta[back], gain[back], passed[back] = _backtrack(
                theta[back], slope[back], vs[back], u[back], hv[back], hu, quads[back], pn[back]
            )
            value_new[back] = _rank_one_value(quads_new[back], pn[back])
        if not passed.all():  # so does a lane where no halving passes
            lanes, pn, vs, vs_new, hv_new, quads_new, value_new, mem, gamma, r, u, theta, gain = [
                x[passed] for x in (lanes, pn, vs, vs_new, hv_new, quads_new, value_new, mem, gamma, r, u, theta, gain)
            ]
            if lanes.size == 0:
                break
        vs, hv, quads, value = vs_new, hv_new, quads_new, value_new
        r_new = _rank_one_grad(vs, hv, quads, pn, value)
        # An accepted step raised f, so its iterate is the lane's best so far even when the
        # recomputed f ties the last value to rounding; the max keeps values monotone.
        best_value[lanes] = np.maximum(best_value[lanes], value)
        best_v[lanes] = vs
        # The new pair, and the kept ones transported by projection onto the new tangent space.
        s_new = theta[:, None] * (u - np.einsum("si,si->s", vs, u)[:, None] * vs)
        y_new = (r - np.einsum("si,si->s", vs, r)[:, None] * vs) - r_new
        mem -= np.einsum("si,skmi->skm", vs, mem)[..., None] * vs[:, None, None]
        sy_new = np.einsum("si,si->s", s_new, y_new)
        curved = sy_new > 0
        mem[:, 0, k % m] = np.where(curved[:, None], s_new, 0.0)
        mem[:, 1, k % m] = np.where(curved[:, None], y_new, 0.0)
        gamma = np.where(curved, sy_new / np.where(curved, np.einsum("si,si->s", y_new, y_new), 1.0), gamma)
        s_y = np.einsum("smi,smi->sm", mem[:, 0], mem[:, 1])
        rho = np.divide(1.0, s_y, out=np.zeros_like(s_y), where=s_y > 0)
        r = r_new
    results = []
    for j, b in enumerate(batches):
        lane_values = best_value[j * n_starts : (j + 1) * n_starts]
        if not np.any(np.isfinite(lane_values)):
            raise ValueError(f"all starts collapsed into the null space of the mean Hessian (batch {b})")
        best = j * n_starts + int(np.argmax(lane_values))
        results.append((float(best_value[best]), best_v[best].copy()))
    return results


def _sweep_bounds(
    inst: ProblemInstance, batches: list[int], steps: int, seed: int, rel_tol: float = DEFAULT_RANK_RTOL
) -> tuple[float, list[tuple[float, float, float]]]:
    """The sharpness and, per batch in the order given, (generalized sharpness, rank-one
    value, 2 / eigenvector bound), from one range_basis.

    Each number is bit for bit what sharpness, generalized_sharpness, rank_one_bounds
    and necessary_bound_eigvec return; those each decompose Hbar again.  The
    instance is not classified here.
    """
    basis = range_basis(inst, rel_tol)
    ascents = _rank_one_ascent(inst, basis.eig, batches, steps, seed, 8, rel_tol)
    rows = []
    for b, (rank_one, _) in zip(batches, ascents):
        p = mixing_weight(inst.n, b)
        rows.append((_range_sharpness(basis, p), rank_one, 2.0 / _eigvec_bound(inst, basis.eig, p)))
    return float(basis.eig.values[0]), rows


def _projected_transition_dense(inst: ProblemInstance, eta: float, batch: int, rel_tol: float = DEFAULT_RANK_RTOL) -> np.ndarray:
    """Dense (P kron P) Q, P the range projector of Hbar, as the projected mixture sum

        (1-p) (P - eta*Hbar) kron (P - eta*Hbar) + (p/n) sum_i (P - eta*H_i) kron (P - eta*H_i).

    Test oracle for projected_transition_lambda_max; top_mode_noise_overlap
    takes its top eigenvector.
    """
    hbar = mean_hessian(inst)
    _, p_range = null_projectors(hbar, rel_tol=rel_tol)
    return _mixture_matrix(p_range - eta * hbar, p_range - eta * inst.hessians, mixing_weight(inst.n, batch))


def projected_transition_lambda_max(inst: ProblemInstance, eta: float, batch: int, rel_tol: float = DEFAULT_RANK_RTOL) -> float:
    """lambda_max of (P kron P) Q with P the range projector of Hbar.

    For PSD per-sample Hessians this matrix equals the projected mixture
    sum, which is symmetric; it is below 1 exactly on 0 < eta < eta_var.
    Solved by Lanczos on the r x r range block of range_basis, without
    forming the matrix: there it is I - 2*eta*C + eta^2*D, which maps X to
    X - eta*(pair o X) + eta^2 * D_r(X) with pair = lam_a + lam_b and
    D_r = _range_d (the mean of the k_i is Lam).  Zero when r = 0.
    """
    check_step_size(eta)
    p = mixing_weight(inst.n, batch)
    basis = range_basis(inst, rel_tol)
    lam, r = basis.lam, basis.lam.size
    if r == 0:
        return 0.0
    pair = lam[:, None] + lam[None, :]
    d_r = _range_d(basis, p)

    def apply(u: np.ndarray) -> np.ndarray:
        x = u.reshape(r, r)
        return (x - eta * (pair * x) + (eta * eta) * d_r(x)).reshape(-1)

    return _lanczos_solve(LinearOperator(in_dim=r * r, out_dim=r * r, apply=apply), seed=7)


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

    Each step size (finite and nonnegative, else ValueError) is classified
    against the thresholds alone; no spectral check runs here.  The
    instance is classified once and Hbar decomposed once.
    """
    etas = [check_step_size(float(eta)) for eta in eta_list]
    kind = require_valid(inst, rel_tol)
    p = mixing_weight(inst.n, batch)
    basis = range_basis(inst, rel_tol)
    eta_mean = _threshold(float(basis.eig.values[0]))
    eta_var = _threshold(_range_sharpness(basis, p))
    b_eig = _eigvec_bound(inst, basis.eig, p)
    b_tr = necessary_bound_trace(inst, batch)
    [(value, _)] = _rank_one_ascent(inst, basis.eig, [batch], rank_one_steps, seed, 8, rel_tol)
    b_r1 = 2.0 / value
    if eta_var > eta_mean * (1.0 + 1e-9):
        raise ConvergenceError(f"variance threshold {eta_var} exceeds mean threshold {eta_mean}")
    for name, bound in (("eigvec", b_eig), ("trace", b_tr), ("rank-one", b_r1)):
        if eta_var > bound * (1.0 + 1e-9):
            raise ConvergenceError(f"variance threshold {eta_var} exceeds necessary bound {name} = {bound}")
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
