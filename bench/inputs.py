"""Benchmark inputs, generated from the workload seed by the benchmark itself.

Each instance comes from its own ``numpy.random.Generator`` keyed by
(seed, instance index).  The package's generators (``gen_*``, ``stream``)
are deliberately not used: a change to the package's random streams must
not change what the benchmark measures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Same "eigenvalue is zero" rule as the package's DEFAULT_RANK_RTOL.
RANK_RTOL = 1e-10


@dataclass(frozen=True)
class Spec:
    """One instance: H_i = G_i G_i^T with G_i of shape (d, rank)."""

    name: str
    d: int
    n: int
    rank: int
    regular: bool


def range_basis(hbar: np.ndarray) -> np.ndarray:
    """Orthonormal basis of range(Hbar), columns in ascending eigenvalue order."""
    w, v = np.linalg.eigh(hbar)
    return v[:, w > RANK_RTOL * max(float(w[-1]), 0.0)]


def generate(spec: Spec, seed: int, index: int) -> tuple[np.ndarray, np.ndarray]:
    """Hessians rescaled to unit sharpness, and gradients.

    Regular gradients are centred and projected onto range(Hbar), so they
    still sum to zero and drive no null-space random walk.
    """
    rng = np.random.default_rng([seed, index])
    factors = rng.standard_normal((spec.n, spec.d, spec.rank))
    hessians = factors @ factors.transpose(0, 2, 1)
    hessians /= np.linalg.eigvalsh(hessians.mean(axis=0))[-1]
    gradients = np.zeros((spec.n, spec.d))
    if spec.regular:
        raw = rng.standard_normal((spec.n, spec.d))
        raw -= raw.mean(axis=0)
        basis = range_basis(hessians.mean(axis=0))
        gradients = raw @ basis @ basis.T
    return hessians, gradients
