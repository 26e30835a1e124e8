import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from sgdstab import linalg, make_instance

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


def matrix_operator(m):
    """The operator x -> M x of a dense matrix, as a function of a flat vector."""
    m = np.asarray(m, dtype=float)
    return lambda x: m @ x


def gaussian_start(dim, seed):
    """A seeded Gaussian start vector for lanczos_solve on an operator with no known positive start."""
    return np.random.default_rng(seed).standard_normal(dim)


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
    """Wrap an operator function; the returned list gets one entry per application."""

    def wrap(op):
        applied = []

        def apply(x):
            applied.append(1)
            return op(x)

        return apply, applied

    return wrap


@pytest.fixture
def stack_decompositions(monkeypatch):
    """Count the decompositions of an instance's (n, d, d) Hessian stack.

    Called with an instance, it patches linalg.factor_stack wherever a
    module of the package holds it, and np.linalg.eigh and eigvalsh, and
    returns a list that gets one entry per call on an array of that shape:
    "factor" for factor_stack, then "eigh" or "eigvalsh" for each batched
    eigensolve of the whole stack, which runs only where it falls back.
    """

    def watch(inst):
        calls = []
        shape = (inst.n, inst.d, inst.d)
        true_factor = linalg.factor_stack

        def factor(stack, *args, **kwargs):
            if np.shape(stack) == shape:
                calls.append("factor")
            return true_factor(stack, *args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("sgdstab") and getattr(module, "factor_stack", None) is true_factor:
                monkeypatch.setattr(module, "factor_stack", factor)
        for name in ("eigh", "eigvalsh"):

            def counted(a, *args, _true=getattr(np.linalg, name), _name=name, **kwargs):
                if np.shape(a) == shape:
                    calls.append(_name)
                return _true(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        return calls

    return watch
