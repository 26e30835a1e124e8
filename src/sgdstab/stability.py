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
The thresholds and the verdict never form a d^2 x d^2 matrix.

Q, D, E and the projected transition are all the mixture
(1-p) A kron A + (p/n) sum_i M_i kron M_i, written once per representation:

    _mixture_matrix   the dense d^2 x d^2 matrix (test oracles and verify);
    _mixture_apply    its action on a d x d argument, vec'd by _mixture_operator;
    _range_d          D on the r x r range block, X -> (1-p) Lam X Lam
                      + (p/n) sum_i k_i X k_i.

The last two share the sandwich kernel _sandwich_sum, at 4 n r^3 flops on
the range block.  range_basis makes one batched eigh of the (n, d, d)
Hessian stack per call.  Its eigenvalues classify the instance, by the
rule classify applies, and its eigenpairs, under psd_range's rank rule
per sample, give factors H_i = G_i G_i^T with G_i of shape d x q, q the
largest per-sample rank.  When every H_i passes the PSD test and
q (r + q) < r^2, one GEMM gives U_i^T = G_i^T V_r, and _range_d runs on
them, _factored_sandwich_sum: sum_i U_i (U_i^T X U_i) U_i^T in
4 n q r (r + q) flops.  Otherwise range_basis forms k_i = V_r^T H_i V_r
for the dense sum.  Array shapes and the PSD test alone pick the kernel.
curvature_operators picks _mixture_matrix for d <= DENSE_CAP and
_mixture_operator above it.  _kron_square_sum builds every dense
sum_k w_k (M_k kron M_k) (_mixture_matrix, the brute-force Q and
kron_certify's Q) and raises ValueError above DENSE_CAP before anything
of size d^4 is allocated.  _range_congruence writes the congruence
S = (C^{1/2})^+ D (C^{1/2})^+ on the range block once: the threshold is
2 / lambda_max(S), and the limit system of moments is I - (eta/2) S.
The projected transition is affine in _range_d.  The Lanczos solves
here run on operators built symmetric.  The threshold solve starts at
the positive definite Y0 = diag(sqrt(lam)), which always sees the top
mode (_range_sharpness says why).

The necessary bounds are cheap lower bounds on the generalized sharpness.
The tightest, 2 / max_v f(v) over unit v in Hbar's range, comes from
_rank_one_ascent: a Riemannian L-BFGS ascent on the unit sphere of R^r,
in range coordinates v = V_r w, that advances every (batch size, start)
pair of a call as one row of a single block.  Each iteration computes
every k_i w and Lam w once, at the quasi-Newton trial point
(_product_map): as U_i (U_i^T w) where the range basis kept factors,
else by one GEMM with the block row [k_1, ..., k_n, Lam].  Armijo
backtracking along the same geodesic reads f off quadratic forms and
makes no products.  A lane stops on convergence, so the step budget is
only a cap.  _sweep_bounds, behind both the sweep and stability_verdict
(a sweep of one batch size), builds one range_basis, checks its
classification and hands it to the sharpness, the threshold solve, the
eigenvector bound and the ascent of every batch size;
curvature_operators and variance_threshold build one per call.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .instances import MinimumClass, ProblemInstance, _minimum_class, _valid_class, check_step_size, mixing_weight, stream
from .linalg import (
    ConvergenceError,
    _lanczos_solve,
    kron,
    kron_sum,
    psd_range,
    sym_eig,
    unvec,
    vec,
)

# Above this dimension the d^2 x d^2 matrices are not formed densely.
DENSE_CAP = 48

# Enumeration budget for brute-force batch expectations.
ENUM_CAP = 10_000

# Starts of the rank-one ascent per batch size: the top eigenvector of Hbar and
# seeded random directions in its range.
_N_STARTS = 8

# Iteration cap of the rank-one ascent, which stops on convergence well before it.
_RANK_ONE_STEPS = 2000


def sharpness(inst: ProblemInstance) -> float:
    """Top eigenvalue of the mean Hessian."""
    return float(sym_eig(inst.mean_hessian()).values[0])


@dataclass(frozen=True)
class SpectralReport:
    """The operator family {C, D, E} for one (instance, batch) pair."""

    curvature_sum: np.ndarray | Callable[[np.ndarray], np.ndarray]  # C
    curvature_sq: np.ndarray | Callable[[np.ndarray], np.ndarray]  # D
    curvature_var: np.ndarray | Callable[[np.ndarray], np.ndarray]  # E
    sharpness: float
    generalized_sharpness: float  # lambda_max(pinv(C) D)
    p: float


def curvature_operators(inst: ProblemInstance, batch: int, dense: bool | None = None) -> SpectralReport:
    """Build C, D, E and both sharpness numbers for an instance and batch size.

    C, D and E are d^2 x d^2 matrices when dense, else functions of a vec'd
    d x d argument.  dense defaults to d <= DENSE_CAP; above it a dense
    request raises _kron_square_sum's ValueError.
    """
    basis = range_basis(inst)
    _valid_class(basis.kind)
    d = inst.d
    p = mixing_weight(inst.n, batch)
    hbar = inst.mean_hessian()
    if dense is None:
        dense = d <= DENSE_CAP
    mixture = _mixture_matrix if dense else _mixture_operator
    sq, var = mixture(hbar, inst.hessians, p), mixture(hbar, inst.hessians - hbar, 1.0)
    if dense:
        c = 0.5 * kron_sum(hbar, hbar)
    else:
        def c(u: np.ndarray) -> np.ndarray:
            m = unvec(u, d)
            return vec(0.5 * (hbar @ m + m @ hbar))

    return SpectralReport(
        curvature_sum=c,
        curvature_sq=sq,
        curvature_var=var,
        sharpness=float(np.max(basis.lam, initial=0.0)),
        generalized_sharpness=_range_sharpness(basis, p),
        p=p,
    )


def _kron_square_sum(d: int, terms) -> np.ndarray:
    """Dense sum_k w_k (M_k kron M_k) over the (w_k, M_k) pairs of terms, in order; ValueError above DENSE_CAP."""
    if d > DENSE_CAP:
        raise ValueError(f"dense d^2 x d^2 matrix requested for d={d} > cap {DENSE_CAP}")
    out = np.zeros((d * d, d * d))
    for w, m in terms:
        out += w * kron(m, m)
    return out


def _mixture_matrix(a_bar: np.ndarray, mats: np.ndarray, p: float) -> np.ndarray:
    """Dense (1-p) (A kron A) + (p/n) sum_i (M_i kron M_i), the d^2 x d^2 form of _mixture_apply."""
    n = mats.shape[0]
    return _kron_square_sum(a_bar.shape[0], [(1.0 - p, a_bar)] + [(p / n, m) for m in mats])


@dataclass(frozen=True)
class RangeBasis:
    """What one analysis call needs of the Hessians: Hbar's range block and the H_i on it.

    lam (r,) and v (d, r) are the eigenpairs of Hbar that psd_range keeps,
    lam descending.  kind is the instance's class, from the eigenvalues of
    the H_i by the rule classify applies.  Either ut holds factors, or k
    holds the rotated Hessians:

    - ut (n, q, r) stacks U_i^T = G_i^T V_r, where H_i = G_i G_i^T and q is
      the largest rank of any H_i (a sample of smaller rank has zero rows),
      so k_i = V_r^T H_i V_r = U_i U_i^T; k is None.
    - k (n, r, r) stacks k_i = V_r^T H_i V_r; ut is None.

    range_basis keeps the factors only where they make the sandwich sum
    cheaper, and _range_d and the rank-one ascent then run on them.
    """

    lam: np.ndarray
    v: np.ndarray
    kind: MinimumClass
    k: np.ndarray | None
    ut: np.ndarray | None


def range_basis(inst: ProblemInstance) -> RangeBasis:
    """Decompose the H_i once (one batched eigh) and Hbar once; ValueError if Hbar is not PSD.

    The eigenvalues of the H_i classify the instance (kind), which is not
    rejected here: callers that need a valid minimum pass kind to
    _valid_class.  When Hbar is not PSD, the ValueError of an invalid
    instance starts with _valid_class's message.  Their eigenpairs give the factors G_i (_sample_factors),
    and U_i^T = G_i^T V_r comes from one GEMM, so the range-block sandwich
    sum costs 4 n q r (r + q) flops instead of 4 n r^3 when every H_i is PSD
    and q (r + q) < r^2.  Otherwise k_i = V_r^T H_i V_r is formed instead.
    """
    try:
        # make_instance and load_instance leave every H_i exactly symmetric, so eigh's lower triangle is H_i.
        values, vectors = np.linalg.eigh(inst.hessians)  # ascending per sample
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigendecomposition failed: {exc}") from exc
    kind = _minimum_class(inst, values)
    eig = sym_eig(inst.mean_hessian())
    try:
        keep = psd_range(eig.values)
    except ValueError as exc:
        if kind is MinimumClass.INVALID:  # lead with the input error that the callers raise
            raise ValueError(f"instance is not a regular or interpolating minimum; mean Hessian: {exc}") from exc
        raise
    lam, v, r = eig.values[keep], eig.vectors[:, keep], int(keep.sum())
    gt = _sample_factors(values, vectors, r)
    if gt is None:
        return RangeBasis(lam=lam, v=v, kind=kind, k=v.T @ inst.hessians @ v, ut=None)
    n, q, d = gt.shape
    return RangeBasis(lam=lam, v=v, kind=kind, k=None, ut=(gt.reshape(n * q, d) @ v).reshape(n, q, r))


def _sample_factors(values: np.ndarray, vectors: np.ndarray, r: int) -> np.ndarray | None:
    """The stack of G_i^T, shape (n, q, d), with H_i = G_i G_i^T, or None.

    values and vectors are the batched eigh of the H_i, ascending per sample.
    psd_range's rank rule keeps each sample's nonzero eigenpairs, and G_i
    holds them scaled by sqrt(lam), padded with zero columns to q, the
    largest kept count.  None when r = 0, when some H_i fails psd_range's
    PSD test (then dropping its negative eigenvalues would change the
    operator) or when q (r + q) >= r^2 (then the dense _sandwich_sum takes no
    more flops).
    """
    if r == 0:
        return None
    try:
        kept = psd_range(values)
    except ValueError:
        return None
    q = int(kept.sum(axis=1).max())
    if q * (r + q) >= r * r:
        return None
    d = values.shape[1]
    # Each sample's kept eigenvalues are its largest, so they sit in its last q columns.
    scale = np.sqrt(np.where(kept, values, 0.0)[:, d - q :])
    return np.ascontiguousarray((vectors[:, :, d - q :] * scale[:, None, :]).transpose(0, 2, 1))


def _sandwich_sum(mats: np.ndarray, m: np.ndarray) -> np.ndarray:
    """sum_i M_i m M_i over a stack of symmetric M_i: one batched matmul plus one GEMM."""
    n, d, _ = mats.shape
    # M_i is symmetric, so sum_i M_i m M_i = [M_1; ...; M_n]^T @ [m M_1; ...; m M_n].
    return mats.reshape(n * d, d).T @ (m @ mats).reshape(n * d, d)


def _factored_sandwich_sum(ut: np.ndarray, m: np.ndarray) -> np.ndarray:
    """sum_i U_i (U_i^T m U_i) U_i^T from the stack ut of U_i^T, (n, q, r): 4 n q r (r + q) flops."""
    n, q, r = ut.shape
    # W = [U_1, ..., U_n] is the transpose of ut's (n q, r) rows, so the sum is W @ [T_1; ...; T_n]
    # with T_i = (U_i^T m U_i) U_i^T.
    w_t = ut.reshape(n * q, r)
    core = (w_t @ m).reshape(n, q, r) @ ut.transpose(0, 2, 1)
    return w_t.T @ (core @ ut).reshape(n * q, r)


def _mixture_apply(a_bar: np.ndarray, mats: np.ndarray, p: float, m: np.ndarray) -> np.ndarray:
    """(1-p) A m A + (p/n) sum_i M_i m M_i on a d x d argument m, A and M_i symmetric."""
    return (1.0 - p) * (a_bar @ m @ a_bar) + (p / mats.shape[0]) * _sandwich_sum(mats, m)


def _mixture_operator(a_bar: np.ndarray, mats: np.ndarray, p: float) -> Callable[[np.ndarray], np.ndarray]:
    """Matrix-free (1-p) (A kron A) + (p/n) sum_i (M_i kron M_i): _mixture_apply on vec'd arguments."""
    d = a_bar.shape[0]
    return lambda u: vec(_mixture_apply(a_bar, mats, p, unvec(u, d)))


def _range_d(basis: RangeBasis, p: float):
    """D on the r x r range block: the map X -> (1-p) Lam X Lam + (p/n) sum_i k_i X k_i,
    the sum on the factors basis.ut when range_basis kept them."""
    col, row = basis.lam[:, None], basis.lam[None, :]
    kernel, mats = (_sandwich_sum, basis.k) if basis.ut is None else (_factored_sandwich_sum, basis.ut)
    pn = p / mats.shape[0]
    return lambda x: (1.0 - p) * (col * x * row) + pn * kernel(mats, x)


def _range_congruence(basis: RangeBasis, p: float):
    """(S, F): the congruence (C^{1/2})^+ D (C^{1/2})^+ on the r x r range block, and its pair factors.

    S maps X to F o D_r(F o X), D_r = _range_d, F = ((lam_a + lam_b)/2)^{-1/2}
    the (r, r) pair factors and o the elementwise product; S acts on X
    flattened to length r^2.  The threshold is 2 / lambda_max(S), and the
    limit system of moments is I - (eta/2) S after the scaling X = F o Y.
    """
    lam, r = basis.lam, basis.lam.size
    factor = 1.0 / np.sqrt(0.5 * (lam[:, None] + lam[None, :]))
    d_r = _range_d(basis, p)
    return (lambda u: (factor * d_r(factor * u.reshape(r, r))).reshape(-1)), factor


def _range_sharpness(basis: RangeBasis, p: float) -> float:
    """lambda_max of the congruence S of _range_congruence by Lanczos on the r x r range block.

    Zero when r = 0.  Lanczos starts at the positive definite Y0 = F^{-1} o I =
    diag(sqrt(lam)): S maps PSD matrices to PSD matrices (D_r is a sum of
    congruences X -> k X k, whatever the signs of the k_i, and F is a PSD
    kernel), so by Perron-Frobenius for cone-preserving maps (Vandergraft,
    SIAM J. Appl. Math. 16, 1968) its top eigenvalue has a PSD eigenvector
    Z, and tr(Y0 Z) > 0.  The first Rayleigh quotient is tr(D_r(I)) /
    tr(Lam) > 0, which is 2 / necessary_bound_trace when the H_i vanish
    off the range, and no later Ritz value is smaller.
    """
    if basis.lam.size == 0:
        return 0.0
    s, _ = _range_congruence(basis, p)
    return _lanczos_solve(s, np.diag(np.sqrt(basis.lam)).reshape(-1))


def generalized_sharpness(inst: ProblemInstance, batch: int) -> float:
    """lambda_max(pinv(C) D), the generalized sharpness, for one batch size.

    range_basis classifies the instance but does not reject an invalid one,
    so this also runs on indefinite H_i; variance_threshold rejects them.
    """
    return _range_sharpness(range_basis(inst), mixing_weight(inst.n, batch))


def mixture_transition(inst: ProblemInstance, eta: float, p: float) -> np.ndarray:
    """E[A kron A] of the mixture process: single-sample step w.p. p,
    full-batch step w.p. 1-p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"mixture weight must lie in [0, 1], got {p}")
    check_step_size(eta)
    eye = np.eye(inst.d)
    return _mixture_matrix(eye - eta * inst.mean_hessian(), eye - eta * inst.hessians, p)


def second_moment_transition(inst: ProblemInstance, eta: float, batch: int) -> np.ndarray:
    """The dense transition Q advancing vec(E[x x^T]) by one SGD step: the mixture
    (1-p) (A kron A) + (p/n) sum_i (A_i kron A_i), A = I - eta*Hbar and
    A_i = I - eta*H_i, that is mixture_transition at p = mixing_weight(n, B)."""
    return mixture_transition(inst, eta, mixing_weight(inst.n, batch))


def brute_force_transition(inst: ProblemInstance, eta: float, batch: int) -> np.ndarray:
    """Q by exhaustive enumeration of all C(n, B) <= ENUM_CAP equiprobable size-B batches."""
    n, d = inst.n, inst.d
    mixing_weight(n, batch)  # ValueError unless 1 <= batch <= n
    check_step_size(eta)
    count = math.comb(n, batch)
    if count > ENUM_CAP:
        raise ValueError(f"enumeration of C({n},{batch}) = {count} batches exceeds cap {ENUM_CAP}")
    eye = np.eye(d)
    batches = itertools.combinations(range(n), batch)
    q = _kron_square_sum(d, ((1.0, eye - (eta / batch) * inst.hessians[list(c)].sum(axis=0)) for c in batches))
    return q / count


def mean_threshold(inst: ProblemInstance) -> float:
    """First-moment stability threshold 2 / lambda_max(Hbar)."""
    return _threshold(sharpness(inst))


def _threshold(gen_sharp: float) -> float:
    return math.inf if gen_sharp <= 0 else 2.0 / gen_sharp


def variance_threshold(inst: ProblemInstance, batch: int) -> float:
    """Exact mean-square stability threshold 2 / lambda_max(pinv(C) D); ValueError unless the
    instance is a regular or interpolating minimum."""
    basis = range_basis(inst)
    _valid_class(basis.kind)
    return _threshold(_range_sharpness(basis, mixing_weight(inst.n, batch)))


def necessary_bound_eigvec(inst: ProblemInstance, batch: int) -> float:
    """Necessary step-size bound from the top eigenvector of the mean Hessian:

        2*lam / (lam^2 + (p/n) sum_i (v' H_i v - lam)^2),  v the top eigenvector.
    """
    eig = sym_eig(inst.mean_hessian())
    return _eigvec_bound(inst, float(eig.values[0]), eig.vectors[:, 0], mixing_weight(inst.n, batch))


def _eigvec_bound(inst: ProblemInstance, lam: float, v: np.ndarray, p: float) -> float:
    """The eigenvector bound from Hbar's top eigenpair (lam, v)."""
    if lam <= 0:
        raise ValueError("mean Hessian has no positive eigenvalue")
    quads = np.einsum("i,nij,j->n", v, inst.hessians, v)
    denom = lam * lam + p * float(np.mean((quads - lam) ** 2))
    return 2.0 * lam / denom


def necessary_bound_trace(inst: ProblemInstance, batch: int) -> float:
    """Necessary step-size bound from traces and Frobenius norms:

        2*tr(Hbar) / ((1-p) ||Hbar||_F^2 + (p/n) sum_i ||H_i||_F^2).
    """
    hbar = inst.mean_hessian()
    tr = float(np.trace(hbar))
    if tr <= 0:
        raise ValueError("mean Hessian has nonpositive trace")
    p = mixing_weight(inst.n, batch)
    denom = (1.0 - p) * float(np.sum(hbar * hbar)) + p * float(np.vdot(inst.hessians, inst.hessians)) / inst.n
    return 2.0 * tr / denom


# Riemannian L-BFGS on the unit sphere (Absil, Mahony & Sepulchre, "Optimization
# Algorithms on Matrix Manifolds", 2008, ch. 4 and 8), run by _rank_one_ascent.
_LBFGS_PAIRS = 5  # (s, y) pairs kept per lane
_MAX_ARC = 0.2  # longest trial step along a geodesic, in radians
_ARMIJO = 1e-4  # sufficient-increase constant of the backtracking line search
_HALVINGS = 30  # a failed trial arc is halved up to this many times
_GRAD_RTOL = 1e-10  # a lane stops once |Riemannian grad f| <= _GRAD_RTOL * f ...
_GAIN_RTOL = 4.0 * np.finfo(float).eps  # ... or once an accepted step raised f by at most this * f


def _product_map(basis: RangeBasis):
    """The map ws -> every k_i w and Lam w for the rows w of ws, as an (s, n+1, r) stack; entry n is Lam's.

    k_i = V_r^T H_i V_r and Lam = diag(lam) are the H_i and Hbar on Hbar's
    range block, in whose coordinates the rank-one ascent runs.  Without
    factors in the basis (basis.ut is None) it is one GEMM with the
    (r, (n+1) r) block row [k_1, ..., k_n, Lam], built here once; the blocks
    are symmetric, so ws times the row gives every product.  With them,
    k_i w = U_i (U_i^T w): one GEMM for every U_i^T w and one batched matmul
    back, 4 s n q r flops in place of 2 s n r^2, and Lam w is a scaling.
    """
    lam, r = basis.lam, basis.lam.size
    if basis.ut is None:
        n = basis.k.shape[0]
        row = np.concatenate([basis.k.transpose(1, 0, 2).reshape(r, n * r), np.diag(lam)], axis=1)
        return lambda ws: (ws @ row).reshape(ws.shape[0], n + 1, r)
    ut = basis.ut
    n, q, _ = ut.shape
    flat = ut.reshape(n * q, r).T

    def apply(ws: np.ndarray) -> np.ndarray:
        s = ws.shape[0]
        out = np.empty((s, n + 1, r))
        proj = (ws @ flat).reshape(s, n, q)
        out[:, :n] = (proj.transpose(1, 0, 2) @ ut).transpose(1, 0, 2)
        out[:, n] = ws * lam
        return out

    return apply


def _forms(xs: np.ndarray, hy: np.ndarray) -> np.ndarray:
    """x'M y for every M = H_1, ..., H_n, Hbar: row s of xs against the products hy[s] of y."""
    return (hy @ xs[:, :, None])[..., 0]


def _rank_one_value(quads: np.ndarray, pn: np.ndarray) -> np.ndarray:
    """f = a + (p/n) sum_i dev_i^2 / a per lane (row of quads), from the forms v'H_i v in
    columns i < n and a = v'Hbar v in column n, at least lam_r > 0 on the unit sphere of the range."""
    a = quads[:, -1]
    dev = quads[:, :-1] - a[:, None]
    return a + pn * np.einsum("sn,sn->s", dev, dev) / a


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
    directly (cos^2 - 1 = -sin^2), so a rise far below f stays accurate.
    """
    cs, sn = np.cos(theta)[..., None], np.sin(theta)[..., None]
    dq = sn * (2.0 * cs * q_vu + sn * (q_uu - quads))
    a, da = quads[:, -1], dq[..., -1]
    dev, ddev = quads[:, :-1] - a[:, None], dq[..., :-1] - da[..., None]
    dg = np.einsum("jsn,jsn->js", ddev, 2.0 * dev + ddev)  # change of sum_i dev_i^2
    return dq, da + pn * (dg - np.einsum("sn,sn->s", dev, dev) * da / a) / (a + da)


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


def rank_one_bound(inst: ProblemInstance, batch: int, steps: int = _RANK_ONE_STEPS, seed: int = 0) -> tuple[float, np.ndarray]:
    """Best rank-one lower bound on the generalized sharpness for one batch size.

    Maximizes  f(v) = v'Hbar v + p * mean_i (v'H_i v - v'Hbar v)^2 / (v'Hbar v)
    over the unit sphere; see _rank_one_ascent.  Returns (best value, maximizer).
    """
    return _rank_one_ascent(inst, range_basis(inst), [batch], steps, seed)[0]


def _rank_one_ascent(
    inst: ProblemInstance, basis: RangeBasis, batches: list[int], steps: int, seed: int
) -> list[tuple[float, np.ndarray]]:
    """Best rank-one lower bounds on the generalized sharpness, one per batch size,
    on basis = range_basis(inst).

    For each batch size B, with p its mixing weight, maximizes

        f(v) = v'Hbar v + p * mean_i (v'H_i v - v'Hbar v)^2 / (v'Hbar v)

    over the unit sphere of Hbar's range by Riemannian L-BFGS.  It runs in
    range coordinates: v = V_r w for unit w in R^r, so v'H_i v = w'k_i w and
    v'Hbar v = w'Lam w, which is at least the smallest kept eigenvalue
    (_product_map gives the products).  The starts are e_1, Hbar's top
    eigenvector, and V_r^T z / |V_r^T z| for seeded Gaussian z in R^d, 8 in
    all.  Every (batch, start) lane advances in one (len(batches) * 8, r)
    block, row 8 j + s being start s of batches[j], and keeps its own few
    (s, y) pairs, projected onto the current tangent space.  A step goes
    along the geodesic in the quasi-Newton direction, its arc capped at
    0.2 rad, then halved until it passes Armijo.  A lane
    stops when its Riemannian gradient is at most 1e-10 f, when a step
    raised f by a few ulps only, or when no halving passes.  steps caps the
    iterations without entering them, so a larger cap never gives a smaller
    value.  The iteration is scale free, so rescaling all Hessians rescales
    the values alike.  Returns (best value, maximizer V_r w) per batch, in
    the order given: the first strict maximum over the starts in order.  Raises
    ValueError when batches is empty, steps < 0 or Hbar is zero.
    """
    if not batches:
        raise ValueError("batches must be non-empty")
    if steps < 0:
        raise ValueError(f"steps must be nonnegative, got {steps}")
    if basis.lam.size == 0:
        raise ValueError("mean Hessian has no positive eigenvalue")
    lam = float(basis.lam[0])
    n, r = inst.n, basis.lam.size
    rng = stream(seed, index=1)
    starts = [np.eye(r)[0]]
    while len(starts) < _N_STARTS:
        z = basis.v.T @ rng.standard_normal(inst.d)
        nz = np.linalg.norm(z)
        if nz > 1e-8:
            starts.append(z / nz)
    # Each lane is a row of every array below.
    products = _product_map(basis)
    n_lanes = len(batches) * _N_STARTS
    m = _LBFGS_PAIRS
    # Per-lane state: lane index, p / n, iterate vs, its products hv and forms quads, f, its
    # Riemannian gradient r, the (s, y) pairs mem with their 1/(s'y), and the initial
    # inverse-Hessian scale gamma.  A lane that stops is dropped from every array at once.
    lanes = np.arange(n_lanes)
    pn = np.repeat([mixing_weight(n, b) / n for b in batches], _N_STARTS)
    vs = np.tile(np.array(starts), (len(batches), 1))
    hv = products(vs)
    quads = _forms(vs, hv)
    mem = np.zeros((n_lanes, 2, m, r))
    rho, gamma = np.zeros((n_lanes, m)), np.full(n_lanes, 1.0 / lam)
    value = _rank_one_value(quads, pn)
    r = _rank_one_grad(vs, hv, quads, pn, value)
    best_value, best_v = value.copy(), vs.copy()
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
        hv_new = products(vs_new)
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
    for j in range(len(batches)):
        best = j * _N_STARTS + int(np.argmax(best_value[j * _N_STARTS : (j + 1) * _N_STARTS]))
        results.append((float(best_value[best]), basis.v @ best_v[best]))
    return results


def _sweep_bounds(
    inst: ProblemInstance, batches: list[int], steps: int, seed: int
) -> tuple[MinimumClass, float, list[tuple[float, float, float]]]:
    """The class, the sharpness and, per batch in the order given, (generalized
    sharpness, rank-one value, eigenvector bound), from one range_basis.

    ValueError unless the instance is a regular or interpolating minimum, as
    classified from the basis's eigenvalues.  Each number is bit for bit what
    sharpness, generalized_sharpness, rank_one_bound and necessary_bound_eigvec
    return; those each decompose the Hessians again.  The sweep runs it on
    its batch sizes, stability_verdict on one.
    """
    basis = range_basis(inst)
    kind = _valid_class(basis.kind)
    ascents = _rank_one_ascent(inst, basis, batches, steps, seed)
    rows = []
    for b, (rank_one, _) in zip(batches, ascents):
        p = mixing_weight(inst.n, b)
        rows.append((_range_sharpness(basis, p), rank_one, _eigvec_bound(inst, float(basis.lam[0]), basis.v[:, 0], p)))
    return kind, float(basis.lam[0]), rows


@dataclass(frozen=True)
class EtaVerdict:
    eta: float
    mean_stable: bool
    var_stable: bool


@dataclass(frozen=True)
class StabilityVerdict:
    classification: MinimumClass
    sharpness: float
    mean_threshold: float
    variance_threshold: float
    bound_eigvec: float
    bound_trace: float
    bound_rank_one: float
    p: float
    rows: tuple[EtaVerdict, ...]


def stability_verdict(inst: ProblemInstance, batch: int, eta_list) -> StabilityVerdict:
    """Assemble all thresholds and bounds and classify each requested step size.

    Each step size (finite and nonnegative, else ValueError) is classified
    against the thresholds alone; no spectral check runs here.  The class,
    sharpness, generalized sharpness, rank-one value and eigenvector bound
    are _sweep_bounds on [batch] with the default ascent cap and seed 0, so
    analyze and sweep assemble them on one path; the Hessians and Hbar are
    each decomposed once.
    """
    etas = [check_step_size(float(eta)) for eta in eta_list]
    kind, lam, [(gen_sharp, rank_one, b_eig)] = _sweep_bounds(inst, [batch], _RANK_ONE_STEPS, 0)
    p = mixing_weight(inst.n, batch)
    eta_mean = _threshold(lam)
    eta_var = _threshold(gen_sharp)
    b_tr = necessary_bound_trace(inst, batch)
    b_r1 = 2.0 / rank_one
    if eta_var > eta_mean * (1.0 + 1e-9):
        raise ConvergenceError(f"variance threshold {eta_var} exceeds mean threshold {eta_mean}")
    for name, bound in (("eigvec", b_eig), ("trace", b_tr), ("rank-one", b_r1)):
        if eta_var > bound * (1.0 + 1e-9):
            raise ConvergenceError(f"variance threshold {eta_var} exceeds necessary bound {name} = {bound}")
    rows = tuple(EtaVerdict(eta=eta, mean_stable=eta <= eta_mean, var_stable=eta <= eta_var) for eta in etas)
    return StabilityVerdict(
        classification=kind,
        sharpness=lam,
        mean_threshold=eta_mean,
        variance_threshold=eta_var,
        bound_eigvec=b_eig,
        bound_trace=b_tr,
        bound_rank_one=b_r1,
        p=p,
        rows=rows,
    )
