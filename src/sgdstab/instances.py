"""Minimum descriptions: per-sample Hessians and gradients at a minimum.

A :class:`ProblemInstance` holds n symmetric PSD Hessians H_i and n
gradients g_i in dimension d.  The mean gradient must vanish (it is a
minimum).  Instances are classified as interpolating (all gradients
zero), regular (gradients may be nonzero but PSD Hessians), or invalid.

The on-disk format is a single JSON document::

    {"d": int, "n": int,
     "hessians": {"dtype": "<f8", "shape": [n, d, d], "base64": str},
     "gradients": {"dtype": "<f8", "shape": [n, d], "base64": str},
     "label": str}

Each payload holds the array's little-endian IEEE-754 doubles in
row-major order, base64-encoded, so re-loading is bit-exact and parses
no decimals.  A missing label loads as ``""``; any other label must be a
string.  save_instance streams each payload to the file in fixed slices,
so a save holds no copy of the document, and its files are byte for byte
those of earlier versions.  Files that give ``hessians`` as
``[[d*d reals, row-major], ...]`` and ``gradients`` as ``[[d reals], ...]``
still load (the form is convenient by hand), but nothing writes it.
"""

from __future__ import annotations

import base64
import enum
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .linalg import lapack_eigh, not_psd, null_projectors, sym_eig, symmetrize

# A gradient is "zero" (interpolating sense) below this Euclidean norm.
GRAD_ZERO_TOL = 1e-12
# Mean-gradient tolerance, relative to the largest gradient norm.
MEAN_GRAD_RTOL = 1e-10

# Element type of the binary payloads in instance files.
_DTYPE = "<f8"
# save_instance encodes each payload in slices of this many bytes.  A multiple
# of 3, so the slices' base64 texts concatenate to the whole array's text.
_SLICE_BYTES = 3 << 18
# The text in front of each payload in the JSON skeleton that save_instance writes.
_PAYLOAD_OPEN = b'"base64": "'

_MASK64 = 0xFFFF_FFFF_FFFF_FFFF
# splitmix64's constants, as np.uint64 so that a scalar call converts none of them.
_SPLITMIX_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SPLITMIX_M1, _SPLITMIX_M2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
_SHIFT_30, _SHIFT_27, _SHIFT_31 = np.uint64(30), np.uint64(27), np.uint64(31)


def splitmix64(x):
    """The splitmix64 finalizer of a np.uint64 scalar or array, elementwise (wraps mod 2**64)."""
    with np.errstate(over="ignore"):
        z = x + _SPLITMIX_GAMMA
        z ^= z >> _SHIFT_30
        z *= _SPLITMIX_M1
        z ^= z >> _SHIFT_27
        z *= _SPLITMIX_M2
        z ^= z >> _SHIFT_31
    return z


def stream_key(seed: int, index: int) -> int:
    """Philox key of the (seed, index) stream; both are taken mod 2**64."""
    return (int(seed) & _MASK64) ^ int(splitmix64(np.uint64(int(index) & _MASK64)))


def stream(seed: int, index: int = 0) -> np.random.Generator:
    """Counter-based generator for (seed, stream-index); deterministic."""
    return np.random.Generator(np.random.Philox(key=stream_key(seed, index)))


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
        st = self._state
        st["state"]["key"][0] = stream_key(seed, index)
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


def _first_nonfinite(hessians: np.ndarray, gradients: np.ndarray) -> str | None:
    """Name the first sample with a NaN or infinite entry, or return None."""
    for name, a in (("hessian", hessians), ("gradient", gradients)):
        bad = ~np.isfinite(a).all(axis=tuple(range(1, a.ndim)))
        if bad.any():
            return f"{name} {int(np.argmax(bad))} has a non-finite entry"
    return None


def _mean_gradient_nonzero(g: np.ndarray) -> bool:
    """The mean-gradient rule: ||mean_i g_i|| > MEAN_GRAD_RTOL * max(max_i ||g_i||, 1e-300)."""
    scale = float(np.max(np.linalg.norm(g, axis=1), initial=0.0))
    return bool(np.linalg.norm(g.mean(axis=0)) > MEAN_GRAD_RTOL * max(scale, 1e-300))


def make_instance(hessians, gradients, label: str = "") -> ProblemInstance:
    """Build an instance, symmetrizing Hessians and checking invariants."""
    h = np.asarray(hessians, dtype=float)
    g = np.asarray(gradients, dtype=float)
    if h.ndim != 3 or h.shape[1] != h.shape[2]:
        raise ValueError(f"hessians must have shape (n, d, d), got {h.shape}")
    n, d = h.shape[0], h.shape[1]
    _check_sizes(d, n)
    if g.shape != (n, d):
        raise ValueError(f"gradients must have shape ({n}, {d}), got {g.shape}")
    if problem := _first_nonfinite(h, g):
        raise ValueError(problem)
    h = symmetrize(h)
    if _mean_gradient_nonzero(g):
        raise ValueError("gradients do not sum to zero")
    return ProblemInstance(d=d, n=n, hessians=h, gradients=g, label=label)


def _check_sizes(d: int, n: int, rank: int = 1) -> None:
    """Raise ValueError unless d >= 1, n >= 1 and a generator's factor rank lies in [1, d]."""
    if d < 1 or n < 1:
        raise ValueError(f"d and n must be positive integers, got d={d!r}, n={n!r}")
    if not 1 <= rank <= d:
        raise ValueError(f"rank must lie in [1, {d}], got {rank}")


def classify(inst: ProblemInstance) -> MinimumClass:
    """Interpolating / regular / invalid per the PSD and gradient tests.

    The PSD test takes the eigenvalues of all n Hessians in one batched
    eigvalsh and applies minimum_class to them.  make_instance and
    load_instance leave every H_i exactly symmetric, so the stack is passed
    as it is, without a symmetrized copy.
    """
    return minimum_class(inst, lapack_eigh(inst.hessians, vectors=False))


def minimum_class(inst: ProblemInstance, values: np.ndarray) -> MinimumClass:
    """The classification rule, given values, the (n, d) eigenvalues of the H_i.

    Invalid when the mean gradient is nonzero or some H_i fails linalg.not_psd,
    the rule psd_range applies; else interpolating when every gradient is
    zero, regular otherwise.  classify and spectral.range_basis both use it.
    """
    if _mean_gradient_nonzero(inst.gradients) or np.any(not_psd(values)):
        return MinimumClass.INVALID
    if np.all(np.linalg.norm(inst.gradients, axis=1) <= GRAD_ZERO_TOL):
        return MinimumClass.INTERPOLATING
    return MinimumClass.REGULAR


def require_valid(inst: ProblemInstance) -> MinimumClass:
    """Classify the instance once; raise ValueError if it is not a valid minimum."""
    return valid_class(classify(inst))


def valid_class(kind: MinimumClass) -> MinimumClass:
    """Return kind; raise ValueError if it is MinimumClass.INVALID."""
    if kind is MinimumClass.INVALID:
        raise ValueError("instance is not a regular or interpolating minimum")
    return kind


def mixing_weight(n: int, b: int) -> float:
    """p = (n - B) / (B (n - 1)); p = 0 for n = 1 (full batch by definition)."""
    if not 1 <= b <= n:
        raise ValueError(f"batch size {b} out of range [1, {n}]")
    if n == 1:
        return 0.0
    return (n - b) / (b * (n - 1))


def check_step_size(eta: float) -> float:
    """Return eta; raise ValueError unless it is finite and nonnegative."""
    if not (math.isfinite(eta) and eta >= 0):
        raise ValueError(f"step size must be finite and nonnegative, got {eta}")
    return eta


def check_mixture_weight(p: float) -> float:
    """Return p; raise ValueError unless 0 <= p <= 1."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"mixture weight must lie in [0, 1], got {p}")
    return p


@dataclass(frozen=True)
class Hyperparams:
    """Step size and batch size.  eta = 0 means frozen dynamics.

    The batch size is checked against n by mixing_weight where an instance
    meets it.
    """

    eta: float
    batch: int

    def __post_init__(self) -> None:
        check_step_size(self.eta)


def _rescale_to_unit_sharpness(h: np.ndarray) -> np.ndarray:
    lam = float(sym_eig(h.mean(axis=0)).values[0])
    if lam <= 0:
        return h
    return h / lam


def gen_interpolating(d: int, n: int, rank: int, seed: int, unit_sharpness: bool = False) -> ProblemInstance:
    """Random interpolating instance: H_i = G_i G_i^T, all gradients zero."""
    _check_sizes(d, n, rank)
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
    _check_sizes(d, n, rank)
    rng = stream(seed)
    if null_grad:
        if d < 2:
            raise ValueError("null_grad requires d >= 2")
        if rank > d - 1:
            raise ValueError(f"null_grad requires rank <= d-1, got rank={rank}, d={d}")
        basis, _ = np.linalg.qr(rng.standard_normal((d, d)))
        sub = basis[:, : d - 1]
        g_factors = rng.standard_normal((n, d - 1, rank))
        f = sub @ g_factors  # (n, d, rank): H_i = F_i F_i^T, two matmuls
        hessians = f @ f.transpose(0, 2, 1)
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


def fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_csv(path, header: str, rows) -> None:
    """Write a UTF-8 CSV: the header line, then each row's cells (strings) joined by commas."""
    lines = [header, *(",".join(row) for row in rows)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def save_instance(inst: ProblemInstance, path) -> None:
    """Write the JSON instance format, each array as an exact binary payload.

    ``json.dumps`` writes only the document's skeleton, with empty payload
    strings; each array's bytes then go to the file as the base64 text of
    consecutive ``_SLICE_BYTES`` slices, so no copy of the document or of a
    whole payload is made.  Base64 text needs no JSON escaping, so the file
    is byte for byte ``json.dumps(doc) + "\\n"`` of the whole document, as
    earlier versions wrote it.  The output depends only on the instance, so
    saving it twice gives the same bytes.  A label that is not a ``str``
    raises ValueError before the file is opened.
    """
    if not isinstance(inst.label, str):
        raise ValueError(f"label must be a string, got {type(inst.label).__name__}")
    arrays = [np.ascontiguousarray(a, dtype=_DTYPE) for a in (inst.hessians, inst.gradients)]
    skeleton = {
        "d": inst.d,
        "n": inst.n,
        "hessians": {"dtype": _DTYPE, "shape": list(arrays[0].shape), "base64": ""},
        "gradients": {"dtype": _DTYPE, "shape": list(arrays[1].shape), "base64": ""},
        "label": inst.label,
    }
    # The label comes last, so the first two separators open the two payloads
    # (and inside a JSON string every quote is escaped anyway).
    head, *rest = (json.dumps(skeleton) + "\n").encode("utf-8").split(_PAYLOAD_OPEN, len(arrays))
    with open(path, "wb") as f:
        f.write(head)
        for a, piece in zip(arrays, rest):
            f.write(_PAYLOAD_OPEN)
            raw = memoryview(a).cast("B")
            for start in range(0, len(raw), _SLICE_BYTES):
                f.write(base64.b64encode(raw[start : start + _SLICE_BYTES]))
            f.write(piece)


def _decode_payload(key: str, value: dict, shape: tuple[int, ...]) -> np.ndarray:
    if set(value) != {"dtype", "shape", "base64"}:
        raise InstanceFormatError(f"{key}: a binary payload has exactly the keys 'dtype', 'shape' and 'base64'")
    if value["dtype"] != _DTYPE:
        raise InstanceFormatError(f"{key}: dtype must be {_DTYPE!r}, got {value['dtype']!r}")
    if value["shape"] != list(shape):
        raise InstanceFormatError(f"{key}: shape must be {list(shape)}, got {value['shape']!r}")
    text = value["base64"]
    if not isinstance(text, str):
        raise InstanceFormatError(f"{key}: base64 must be a string")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII character
        raise InstanceFormatError(f"{key}: payload is not valid base64 ({exc})") from exc
    expected = 8 * math.prod(shape)
    if len(raw) != expected:
        raise InstanceFormatError(f"{key}: payload holds {len(raw)} bytes, expected {expected}")
    return np.frombuffer(raw, dtype=_DTYPE).reshape(shape).astype(float)


def _decode_rows(key: str, rows: list, shape: tuple[int, ...]) -> np.ndarray:
    """The list-of-decimals form: one row of reals per sample."""
    if len(rows) != shape[0]:
        raise InstanceFormatError("hessians/gradients length does not match n")
    width = math.prod(shape[1:])
    for i, row in enumerate(rows):
        if not isinstance(row, list):
            raise InstanceFormatError(f"{key[:-1]} {i} is not a list of reals")
        if len(row) != width:
            raise InstanceFormatError(f"{key[:-1]} {i} has {len(row)} entries, expected {width}")
    try:
        return np.array(rows, dtype=float).reshape(shape)
    except (TypeError, ValueError) as exc:
        raise InstanceFormatError(f"{key}: entries must be reals ({exc})") from exc


def _decode_field(key: str, value, shape: tuple[int, ...]) -> np.ndarray:
    """Check a field's sizes against d and n, then build its array."""
    if isinstance(value, dict):
        return _decode_payload(key, value, shape)
    if isinstance(value, list):
        return _decode_rows(key, value, shape)
    raise InstanceFormatError(f"{key} must be a binary payload or a list of samples")


def load_instance(path) -> ProblemInstance:
    """Load and re-validate an instance file; errors name the offending sample.

    Every size is checked against ``d`` and ``n`` before an array of that
    size is built, and each check runs on the whole stack at once.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InstanceFormatError(f"malformed instance file: {exc}") from exc
    if not isinstance(doc, dict):
        raise InstanceFormatError("an instance file holds one JSON object")
    for key in ("d", "n", "hessians", "gradients"):
        if key not in doc:
            raise InstanceFormatError(f"missing field {key!r}")
    d, n, label = doc["d"], doc["n"], doc.get("label", "")
    if not isinstance(label, str):
        raise InstanceFormatError(f"label must be a string, got {type(label).__name__}")
    if not (type(d) is int and type(n) is int and d >= 1 and n >= 1):  # bool, an int subclass, is no size
        raise InstanceFormatError(f"d and n must be positive integers, got d={d!r}, n={n!r}")
    # Popping drops each field's text as soon as its array is built.
    hessians = _decode_field("hessians", doc.pop("hessians"), (n, d, d))
    gradients = _decode_field("gradients", doc.pop("gradients"), (n, d))
    if problem := _first_nonfinite(hessians, gradients):
        raise InstanceFormatError(problem)
    scale = np.maximum(1.0, np.maximum(hessians.max(axis=(1, 2)), -hessians.min(axis=(1, 2))))
    asym = hessians - np.transpose(hessians, (0, 2, 1))
    asym = np.abs(asym, out=asym).max(axis=(1, 2))
    asymmetric = asym > 1e-9 * scale
    if asymmetric.any():
        raise InstanceFormatError(f"hessian {int(np.argmax(asymmetric))} is asymmetric beyond tolerance")
    if _mean_gradient_nonzero(gradients):
        raise InstanceFormatError("gradients do not sum to zero")
    # make_instance's symmetrization.  On a stack with no asymmetry it
    # could only flip the sign of a zero or round a subnormal entry, so
    # such a stack is kept as read.
    if asym.any():
        hessians = symmetrize(hessians)
    return ProblemInstance(d=d, n=n, hessians=hessians, gradients=gradients, label=label)
