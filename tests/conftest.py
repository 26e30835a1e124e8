import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from sgdstab import LinearOperator, make_instance

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture
def scalar_pair():
    """d=1, n=2, Hessians {1, 3}, zero gradients (interpolating).

    Closed forms: sharpness 2, mean threshold 1, variance threshold 0.8
    at batch 1 and 1.0 at batch 2.
    """
    return make_instance([[[1.0]], [[3.0]]], [[0.0], [0.0]], label="scalar-pair")


@pytest.fixture
def scalar_noise_pair():
    """d=1, n=2, Hessians {1, 1}, gradients {+1, -1} (regular)."""
    return make_instance([[[1.0]], [[1.0]]], [[1.0], [-1.0]], label="scalar-noise-pair")


@pytest.fixture
def rank_one_walk():
    """d=2, n=2, Hessians diag(1, 0), gradients +-e2 (regular).

    The second coordinate lies in the null space of the mean Hessian, so
    the dynamics there is a drift-free random walk.
    """
    h = np.diag([1.0, 0.0])
    return make_instance([h, h], [[0.0, 1.0], [0.0, -1.0]], label="rank-one-walk")


@pytest.fixture
def counting():
    """Wrap a LinearOperator; the returned list gets one entry per application."""

    def wrap(op):
        applied = []

        def apply(x):
            applied.append(1)
            return op.apply(x)

        return LinearOperator(in_dim=op.in_dim, out_dim=op.out_dim, apply=apply), applied

    return wrap
