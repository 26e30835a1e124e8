"""The spectral core: Hbar's range block and the congruence S on it.

For PSD H_i, null(Hbar) lies inside every null(H_i), so C and D vanish on
every index pair that touches null(Hbar).  range_basis keeps the r
eigenpairs (lam, V_r) of Hbar that linalg.psd_range counts as nonzero:
there C is diagonal with entries (lam_a + lam_b)/2, so (C^{1/2})^+ is an
elementwise scaling, and every spectral solve runs matrix-free on r x r
arguments.

The mixture (1-p) A kron A + (p/n) sum_i M_i kron M_i is written once per
representation: kron_certify.mixture_matrix forms the dense d^2 x d^2
matrix, and here

    mixture_apply  gives its action on a d x d argument;
    _range_d       gives D on the r x r range block, X -> (1-p) Lam X Lam
                   + (p/n) sum_i k_i X k_i.

Both share the sandwich kernel _sandwich_sum, at 4 n r^3 flops on the
range block.  range_basis decomposes the (n, d, d) Hessian stack once per
call, by linalg.factor_stack: certified pivoted Cholesky factors where
every H_i is PSD of low enough rank, else one batched eigh.  The
eigenvalues classify the instance, by the rule classify applies, and
the factors H_i = G_i G_i^T, under psd_range's rank rule per sample,
have G_i of shape d x q, q the largest per-sample rank.  When every H_i
passes the PSD test and q (r + q) < r^2, one GEMM gives U_i^T = G_i^T V_r,
and _range_d runs on them, _factored_sandwich_sum:
sum_i U_i (U_i^T X U_i) U_i^T in 4 n q r (r + q) flops.  Otherwise range_basis forms k_i = V_r^T H_i V_r
for the dense sum.  Array shapes and the PSD test alone pick the kernel.

range_congruence writes the congruence S = (C^{1/2})^+ D (C^{1/2})^+ on
the range block once: the threshold is 2 / lambda_max(S), and the limit
system of moments is I - (eta/2) S.  The projected transition is affine
in _range_d.  The Lanczos solves run on operators built symmetric.  The
threshold solve starts at the positive definite Y0 = diag(sqrt(lam)),
which always sees the top mode (range_sharpness says why).  One
application of S at the same Y0 bounds lambda_max(S) from above,
range_sharpness_bound: moments certifies eta < eta_var with it and runs
the solve only when it cannot.  product_map gives the products k_i w and
Lam w that the rank-one ascent of stability runs on, from the same two
representations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .instances import MinimumClass, ProblemInstance, minimum_class
from .linalg import factor_stack, lanczos_solve, lapack_eigh, psd_range, sym_eig


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
    """Decompose the H_i once (linalg.factor_stack) and Hbar once; ValueError if Hbar is not PSD.

    The eigenvalues of the H_i classify the instance (kind), which is not
    rejected here: callers that need a valid minimum pass kind to
    valid_class.  When Hbar is not PSD, the ValueError of an invalid
    instance starts with valid_class's message.  The factors G_i come with
    the eigenvalues, and U_i^T = G_i^T V_r comes from one GEMM, so the
    range-block sandwich sum costs 4 n q r (r + q) flops instead of
    4 n r^3 when every H_i is PSD and q (r + q) < r^2 (_sample_factors).
    Otherwise k_i = V_r^T H_i V_r is formed instead.
    """
    # make_instance and load_instance leave every H_i exactly symmetric, as factor_stack needs.
    values, gt = factor_stack(inst.hessians)
    kind = minimum_class(inst, values)
    eig = sym_eig(inst.mean_hessian())
    try:
        keep = psd_range(eig.values)
    except ValueError as exc:
        if kind is MinimumClass.INVALID:  # lead with the input error that the callers raise
            raise ValueError(f"instance is not a regular or interpolating minimum; mean Hessian: {exc}") from exc
        raise
    lam, v, r = eig.values[keep], eig.vectors[:, keep], int(keep.sum())
    gt = _sample_factors(gt, r)
    if gt is None:
        return RangeBasis(lam=lam, v=v, kind=kind, k=v.T @ inst.hessians @ v, ut=None)
    n, q, d = gt.shape
    return RangeBasis(lam=lam, v=v, kind=kind, k=None, ut=(gt.reshape(n * q, d) @ v).reshape(n, q, r))


def _sample_factors(gt: np.ndarray | None, r: int) -> np.ndarray | None:
    """The stack gt of G_i^T from factor_stack, (n, q, d), where it makes the sandwich sum cheaper, or None.

    None when r = 0, when factor_stack gave no factors (some H_i fails
    the PSD test, and dropping its negative eigenvalues would change the
    operator) or when q (r + q) >= r^2 (then the dense _sandwich_sum takes
    no more flops).
    """
    if r == 0 or gt is None or gt.shape[1] * (r + gt.shape[1]) >= r * r:
        return None
    return gt


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


def mixture_apply(a_bar: np.ndarray, mats: np.ndarray, p: float, m: np.ndarray) -> np.ndarray:
    """(1-p) A m A + (p/n) sum_i M_i m M_i on a d x d argument m, A and M_i symmetric."""
    return (1.0 - p) * (a_bar @ m @ a_bar) + (p / mats.shape[0]) * _sandwich_sum(mats, m)


def _range_d(basis: RangeBasis, p: float):
    """D on the r x r range block: the map X -> (1-p) Lam X Lam + (p/n) sum_i k_i X k_i,
    the sum on the factors basis.ut when range_basis kept them."""
    col, row = basis.lam[:, None], basis.lam[None, :]
    kernel, mats = (_sandwich_sum, basis.k) if basis.ut is None else (_factored_sandwich_sum, basis.ut)
    pn = p / mats.shape[0]
    return lambda x: (1.0 - p) * (col * x * row) + pn * kernel(mats, x)


def range_congruence(basis: RangeBasis, p: float):
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


def range_sharpness(basis: RangeBasis, p: float) -> float:
    """lambda_max of the congruence S of range_congruence by Lanczos on the r x r range block.

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
    s, _ = range_congruence(basis, p)
    return lanczos_solve(s, np.diag(np.sqrt(basis.lam)).reshape(-1))


def range_sharpness_bound(basis: RangeBasis, p: float) -> float:
    """An upper bound on range_sharpness from one application of S: lambda_max(Y0^{-1/2} S(Y0) Y0^{-1/2}).

    Zero when r = 0.  Y0 = diag(sqrt(lam)) is range_sharpness's start.  S
    maps PSD matrices to PSD matrices and Y0 is positive definite, so the
    Collatz-Wielandt bound for positive maps (Berman and Plemmons,
    Nonnegative Matrices in the Mathematical Sciences, 1994) puts
    lambda_max(S) at or below it.  It is exact at B = n, where it equals
    lambda_max(Hbar).  One r x r eigvalsh.
    """
    lam, r = basis.lam, basis.lam.size
    if r == 0:
        return 0.0
    s, _ = range_congruence(basis, p)
    quarter = lam ** -0.25  # Y0^{-1/2} is diag(lam^{-1/4})
    image = s(np.diag(np.sqrt(lam)).reshape(-1)).reshape(r, r)
    return float(lapack_eigh(quarter[:, None] * image * quarter[None, :], vectors=False)[-1])


def threshold(gen_sharp: float) -> float:
    """The step-size threshold 2 / gen_sharp of a (generalized) sharpness; inf when it is not positive."""
    return math.inf if gen_sharp <= 0 else 2.0 / gen_sharp


def product_map(basis: RangeBasis):
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
