"""Minimum descriptions: per-sample Hessians and gradients at a minimum.

A :class:`ProblemInstance` holds n symmetric PSD Hessians H_i and n
gradients g_i in dimension d.  The mean gradient must vanish (it is a
minimum).  Instances are classified as interpolating (all gradients
zero), regular (gradients may be nonzero but PSD Hessians), or invalid.

The on-disk format is a single JSON document::

    {"d": int, "n": int,
     "hessians": [[d*d reals, row-major], ...],
     "gradients": [[d reals], ...],
     "label": str}

with every float written with 17 significant digits so that re-loading
is bit-exact.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .linalg import DEFAULT_RANK_RTOL, ConvergenceError, null_projectors, sym_eig

# A gradient is "zero" (interpolating sense) below this Euclidean norm.
GRAD_ZERO_TOL = 1e-12
# Mean-gradient tolerance, relative to the largest gradient norm.
MEAN_GRAD_RTOL = 1e-10

_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15


def _splitmix64(x: int) -> int:
    x = (x + _SPLITMIX_GAMMA) & 0xFFFFFFFFFFFFFFFF
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def stream(seed: int, index: int = 0) -> np.random.Generator:
    """Counter-based generator for (seed, stream-index); deterministic."""
    key = (int(seed) & 0xFFFFFFFFFFFFFFFF) ^ _splitmix64(int(index))
    return np.random.Generator(np.random.Philox(key=key))


class StreamPool:
    """Recycles one Philox instance across many (seed, index) streams.

    Produces bit-identical output to :func:`stream` but skips the
    expensive bit-generator construction, which matters when a simulation
    opens one stream per replicate.  Each call invalidates the generator
    returned by the previous call, so streams must be consumed one at a
    time.
    """

    def __init__(self) -> None:
        self._bitgen = np.random.Philox(key=0)
        self._state = self._bitgen.state

    def get(self, seed: int, index: int) -> np.random.Generator:
        key = (int(seed) & 0xFFFFFFFFFFFFFFFF) ^ _splitmix64(int(index))
        st = self._state
        st["state"]["key"][0] = key
        st["state"]["key"][1] = 0
        st["state"]["counter"][:] = 0
        st["buffer"][:] = 0
        st["buffer_pos"] = 4
        st["has_uint32"] = 0
        st["uinteger"] = 0
        self._bitgen.state = st
        return np.random.Generator(self._bitgen)


class MinimumClass(enum.Enum):
    INTERPOLATING = "interpolating"
    REGULAR = "regular"
    INVALID = "invalid"


class InstanceFormatError(ValueError):
    """Raised when an instance file violates the format or its invariants."""


@dataclass(frozen=True)
class ProblemInstance:
    d: int
    n: int
    hessians: np.ndarray  # (n, d, d), each symmetric
    gradients: np.ndarray  # (n, d), zero mean
    label: str = ""

    def mean_hessian(self) -> np.ndarray:
        return self.hessians.mean(axis=0)

    def gradient_second_moment(self) -> np.ndarray:
        """(1/n) sum_i g_i g_i^T."""
        return (self.gradients.T @ self.gradients) / self.n


def make_instance(hessians, gradients, label: str = "", validate: bool = True) -> ProblemInstance:
    """Build an instance, symmetrizing Hessians and checking invariants."""
    h = np.asarray(hessians, dtype=float)
    g = np.asarray(gradients, dtype=float)
    if h.ndim != 3 or h.shape[1] != h.shape[2]:
        raise ValueError(f"hessians must have shape (n, d, d), got {h.shape}")
    n, d = h.shape[0], h.shape[1]
    if g.shape != (n, d):
        raise ValueError(f"gradients must have shape ({n}, {d}), got {g.shape}")
    h = 0.5 * (h + np.transpose(h, (0, 2, 1)))
    if validate:
        mean_g = g.mean(axis=0)
        scale = float(np.max(np.linalg.norm(g, axis=1), initial=0.0))
        if np.linalg.norm(mean_g) > MEAN_GRAD_RTOL * max(scale, 1e-300):
            raise ValueError("gradients do not sum to zero")
    return ProblemInstance(d=d, n=n, hessians=h, gradients=g, label=label)


def classify(inst: ProblemInstance, rel_tol: float = DEFAULT_RANK_RTOL) -> MinimumClass:
    """Interpolating / regular / invalid per the PSD and gradient tests.

    The PSD test takes the eigenvalues of all n symmetrized Hessians in one
    batched eigvalsh; H_i fails when lambda_min < -rel_tol * max |lambda|.
    """
    mean_g = inst.gradients.mean(axis=0)
    scale = float(np.max(np.linalg.norm(inst.gradients, axis=1), initial=0.0))
    if np.linalg.norm(mean_g) > MEAN_GRAD_RTOL * max(scale, 1e-300):
        return MinimumClass.INVALID
    h = inst.hessians
    try:
        values = np.linalg.eigvalsh(0.5 * (h + np.transpose(h, (0, 2, 1))))  # (n, d), ascending
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigendecomposition failed: {exc}") from exc
    largest = np.maximum(np.abs(values[:, 0]), np.abs(values[:, -1]))
    if np.any(values[:, 0] < -rel_tol * largest):
        return MinimumClass.INVALID
    if np.all(np.linalg.norm(inst.gradients, axis=1) <= GRAD_ZERO_TOL):
        return MinimumClass.INTERPOLATING
    return MinimumClass.REGULAR


def mixing_weight(n: int, b: int) -> float:
    """p = (n - B) / (B (n - 1)); p = 0 for n = 1 (full batch by definition)."""
    if not 1 <= b <= n:
        raise ValueError(f"batch size {b} out of range [1, {n}]")
    if n == 1:
        return 0.0
    return (n - b) / (b * (n - 1))


@dataclass(frozen=True)
class Hyperparams:
    """Step size and batch size.  eta = 0 means frozen dynamics."""

    eta: float
    batch: int

    def __post_init__(self) -> None:
        if self.eta < 0:
            raise ValueError(f"step size must be nonnegative, got {self.eta}")
        if self.batch < 1:
            raise ValueError(f"batch size must be >= 1, got {self.batch}")

    def p(self, n: int) -> float:
        return mixing_weight(n, self.batch)


def _rescale_to_unit_sharpness(h: np.ndarray) -> np.ndarray:
    lam = float(sym_eig(h.mean(axis=0)).values[0])
    if lam <= 0:
        return h
    return h / lam


def gen_interpolating(d: int, n: int, rank: int, seed: int, unit_sharpness: bool = False) -> ProblemInstance:
    """Random interpolating instance: H_i = G_i G_i^T, all gradients zero."""
    if not 1 <= rank <= d:
        raise ValueError(f"rank must lie in [1, {d}], got {rank}")
    rng = stream(seed)
    g_factors = rng.standard_normal((n, d, rank))
    hessians = np.einsum("nik,njk->nij", g_factors, g_factors)
    if unit_sharpness:
        hessians = _rescale_to_unit_sharpness(hessians)
    gradients = np.zeros((n, d))
    label = f"interpolating(d={d},n={n},rank={rank},seed={seed})"
    return make_instance(hessians, gradients, label=label)


def gen_regular(
    d: int,
    n: int,
    rank: int,
    grad_scale: float,
    null_grad: bool,
    seed: int,
    unit_sharpness: bool = False,
) -> ProblemInstance:
    """Random regular instance with zero-mean gradients.

    With null_grad=False every gradient is projected onto the range of
    the mean Hessian, so the dynamics has no drift-free random walk.
    With null_grad=True the Hessians are drawn inside a random (d-1)-
    dimensional subspace (a Wishart mean Hessian with n*rank >= d would
    almost surely have a trivial null space), leaving one direction of
    guaranteed null-space gradient content.
    """
    if not 1 <= rank <= d:
        raise ValueError(f"rank must lie in [1, {d}], got {rank}")
    rng = stream(seed)
    if null_grad:
        if d < 2:
            raise ValueError("null_grad requires d >= 2")
        if rank > d - 1:
            raise ValueError(f"null_grad requires rank <= d-1, got rank={rank}, d={d}")
        basis, _ = np.linalg.qr(rng.standard_normal((d, d)))
        sub = basis[:, : d - 1]
        g_factors = rng.standard_normal((n, d - 1, rank))
        hessians = np.einsum("ai,nik,njk,bj->nab", sub, g_factors, g_factors, sub)
        hessians = 0.5 * (hessians + np.transpose(hessians, (0, 2, 1)))
    else:
        g_factors = rng.standard_normal((n, d, rank))
        hessians = np.einsum("nik,njk->nij", g_factors, g_factors)
    if unit_sharpness:
        hessians = _rescale_to_unit_sharpness(hessians)
    raw = rng.standard_normal((n, d)) * grad_scale
    gradients = raw - raw.mean(axis=0)
    if not null_grad:
        _, p_range = null_projectors(hessians.mean(axis=0))
        gradients = gradients @ p_range
    label = f"regular(d={d},n={n},rank={rank},grad_scale={grad_scale},null_grad={null_grad},seed={seed})"
    return make_instance(hessians, gradients, label=label)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def save_instance(inst: ProblemInstance, path) -> None:
    """Write the JSON instance format with 17-significant-digit floats."""
    rows_h = ",".join("[" + ",".join(_fmt(v) for v in hi.reshape(-1)) + "]" for hi in inst.hessians)
    rows_g = ",".join("[" + ",".join(_fmt(v) for v in gi) + "]" for gi in inst.gradients)
    doc = (
        "{"
        f'"d": {inst.d}, "n": {inst.n}, '
        f'"hessians": [{rows_h}], '
        f'"gradients": [{rows_g}], '
        f'"label": {json.dumps(inst.label)}'
        "}"
    )
    Path(path).write_text(doc + "\n", encoding="utf-8")


def load_instance(path) -> ProblemInstance:
    """Load and re-validate an instance file; errors name the offending sample."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"malformed instance file: {exc}") from exc
    for key in ("d", "n", "hessians", "gradients"):
        if key not in doc:
            raise InstanceFormatError(f"missing field {key!r}")
    d, n = doc["d"], doc["n"]
    if not (isinstance(d, int) and isinstance(n, int) and d >= 1 and n >= 1):
        raise InstanceFormatError(f"d and n must be positive integers, got d={d!r}, n={n!r}")
    if len(doc["hessians"]) != n or len(doc["gradients"]) != n:
        raise InstanceFormatError("hessians/gradients length does not match n")
    hessians = np.zeros((n, d, d))
    for i, flat in enumerate(doc["hessians"]):
        if len(flat) != d * d:
            raise InstanceFormatError(f"hessian {i} has {len(flat)} entries, expected {d * d}")
        hi = np.asarray(flat, dtype=float).reshape(d, d)
        scale = max(1.0, float(np.max(np.abs(hi))))
        if np.max(np.abs(hi - hi.T)) > 1e-9 * scale:
            raise InstanceFormatError(f"hessian {i} is asymmetric beyond tolerance")
        hessians[i] = hi
    gradients = np.zeros((n, d))
    for i, row in enumerate(doc["gradients"]):
        if len(row) != d:
            raise InstanceFormatError(f"gradient {i} has {len(row)} entries, expected {d}")
        gradients[i] = np.asarray(row, dtype=float)
    mean_g = gradients.mean(axis=0)
    scale = float(np.max(np.linalg.norm(gradients, axis=1), initial=0.0))
    if np.linalg.norm(mean_g) > MEAN_GRAD_RTOL * max(scale, 1e-300):
        raise InstanceFormatError("gradients do not sum to zero")
    return make_instance(hessians, gradients, label=str(doc.get("label", "")), validate=False)
