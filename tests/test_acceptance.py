"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Tolerances are fixed here and nowhere else.
"""

import time

import numpy as np
import pytest

from sgdstab import (
    Hyperparams,
    SimConfig,
    asymptotic_quantities,
    brute_force_transition,
    certify,
    covariance_limit,
    empirical_threshold,
    gen_interpolating,
    gen_regular,
    iterate_moments,
    make_instance,
    mixing_weight,
    mixture_transition,
    necessary_bound_eigvec,
    necessary_bound_trace,
    point_state,
    rank_one_bound,
    second_moment_transition,
    sharpness,
    simulate_sgd,
    variance_threshold,
)
from sgdstab import KronFamily, mean_threshold
from sgdstab.linalg import kron, kron_sum, null_projectors
from sgdstab.moments import null_walk_second_moment


def _report(name: str, started: float, budget: float) -> None:
    elapsed = time.time() - started
    assert elapsed < budget, f"{name} exceeded its runtime budget ({elapsed:.1f}s >= {budget}s)"
    print(f"PASS {name} ({elapsed:.1f}s)")


@pytest.fixture
def scalar_pair():
    return make_instance([[[1.0]], [[3.0]]], [[0.0], [0.0]], label="scalar-pair")


@pytest.fixture
def scalar_noise_pair():
    return make_instance([[[1.0]], [[1.0]]], [[1.0], [-1.0]], label="scalar-noise-pair")


@pytest.fixture
def rank_one_walk():
    h = np.diag([1.0, 0.0])
    return make_instance([h, h], [[0.0, 1.0], [0.0, -1.0]], label="rank-one-walk")


def test_criterion_1_gd_recovery():
    started = time.time()
    rng = np.random.default_rng(101)
    for _ in range(20):
        d = int(rng.integers(1, 7))
        n = int(rng.integers(2, 11))
        rank = int(rng.integers(1, d + 1))
        inst = gen_interpolating(d, n, rank, int(rng.integers(0, 2**31)))
        expected = 2.0 / sharpness(inst)
        got = variance_threshold(inst, inst.n)
        assert abs(got - expected) <= 1e-9 * expected
    _report("criterion 1: full-batch threshold recovers 2/sharpness", started, 5.0)


def test_criterion_2_scalar_closed_forms(scalar_pair):
    started = time.time()
    assert abs(mean_threshold(scalar_pair) - 1.0) <= 1e-12
    assert abs(variance_threshold(scalar_pair, 1) - 0.8) <= 1e-12
    assert abs(necessary_bound_eigvec(scalar_pair, 1) - 0.8) <= 1e-12
    assert abs(necessary_bound_trace(scalar_pair, 1) - 0.8) <= 1e-12
    value, _ = rank_one_bound(scalar_pair, 1)
    assert abs(value - 2.5) <= 1e-12
    _report("criterion 2: scalar-pair closed forms", started, 1.0)


def test_criterion_3_transition_oracle_equality():
    started = time.time()
    rng = np.random.default_rng(103)
    for n in range(1, 7):
        d = int(rng.integers(1, 5))
        inst = gen_interpolating(d, n, int(rng.integers(1, d + 1)), int(rng.integers(0, 2**31)))
        lam = sharpness(inst)
        hbar = inst.mean_hessian()
        eye = np.eye(d)
        for b in range(1, n + 1):
            p = mixing_weight(n, b)
            for eta in (0.0, 0.21 / lam, 0.7 / lam, 1.3 / lam, 2.4 / lam):
                q = second_moment_transition(inst, eta, b)
                ref = brute_force_transition(inst, eta, b)
                scale = max(1.0, float(np.max(np.abs(ref))))
                assert np.max(np.abs(q - ref)) <= 1e-10 * scale
                # All three algebraic forms, rebuilt independently here.
                form_dev = kron(eye - eta * hbar, eye - eta * hbar)
                dmat = (1 - p) * kron(hbar, hbar)
                for i in range(n):
                    delta = inst.hessians[i] - hbar
                    form_dev += (p * eta**2 / n) * kron(delta, delta)
                    dmat += (p / n) * kron(inst.hessians[i], inst.hessians[i])
                form_quad = np.eye(d * d) - eta * kron_sum(hbar, hbar) + eta**2 * dmat
                assert np.max(np.abs(form_dev - ref)) <= 1e-10 * scale
                assert np.max(np.abs(form_quad - ref)) <= 1e-10 * scale
    _report("criterion 3: transition equals batch enumeration in all three forms", started, 30.0)


def test_criterion_4_threshold_iff_unit_spectrum():
    started = time.time()
    rng = np.random.default_rng(104)
    for _ in range(20):
        d = int(rng.integers(2, 5))
        n = int(rng.integers(2, 7))
        # Full-rank mean Hessian so the spectrum drops strictly below one.
        inst = gen_interpolating(d, n, d, int(rng.integers(0, 2**31)))
        b = int(rng.integers(1, n + 1))
        thr = variance_threshold(inst, b)
        lam_at = float(np.max(np.linalg.eigvalsh(second_moment_transition(inst, thr, b))))
        lam_lo = float(np.max(np.linalg.eigvalsh(second_moment_transition(inst, 0.99 * thr, b))))
        lam_hi = float(np.max(np.linalg.eigvalsh(second_moment_transition(inst, 1.01 * thr, b))))
        assert abs(lam_at - 1.0) <= 1e-7
        assert lam_lo < 1.0 < lam_hi
    _report("criterion 4: top transition eigenvalue crosses one at the threshold", started, 30.0)


def test_criterion_5_monotonicity_in_batch():
    started = time.time()
    rng = np.random.default_rng(105)
    for _ in range(20):
        d = int(rng.integers(1, 6))
        n = int(rng.integers(2, 9))
        inst = gen_interpolating(d, n, int(rng.integers(1, d + 1)), int(rng.integers(0, 2**31)))
        values = [variance_threshold(inst, b) for b in range(1, n + 1)]
        for v1, v2 in zip(values, values[1:]):
            assert v2 >= v1 - 1e-9 * max(1.0, v1)
    _report("criterion 5: threshold non-decreasing in batch size", started, 60.0)


def test_criterion_6_mixture_equivalence():
    started = time.time()
    rng = np.random.default_rng(106)
    for n in range(2, 7):
        d = int(rng.integers(1, 4))
        inst = gen_interpolating(d, n, int(rng.integers(1, d + 1)), int(rng.integers(0, 2**31)))
        eta = 0.8 / sharpness(inst)
        for b in range(1, n + 1):
            q_mix = mixture_transition(inst, eta, mixing_weight(n, b))
            q_ref = brute_force_transition(inst, eta, b)
            assert np.max(np.abs(q_mix - q_ref)) <= 1e-10 * max(1.0, float(np.max(np.abs(q_ref))))
    _report("criterion 6: mixture process transition matches batch enumeration", started, 10.0)


def test_criterion_7_kron_certification():
    started = time.time()
    rng = np.random.default_rng(107)
    for _ in range(50):
        d = int(rng.integers(2, 5))
        m = int(rng.integers(1, 6))
        mats = rng.standard_normal((m, d, d))
        mats = 0.5 * (mats + np.transpose(mats, (0, 2, 1)))
        report = certify(KronFamily.from_matrices(mats))
        assert abs(report.rho - report.lambda_max) <= 1e-8 * max(1.0, report.rho)
        assert report.min_eig_of_top >= -1e-7
    _report("criterion 7: symmetric Kronecker systems certified", started, 30.0)


def test_criterion_8_covariance_limit(scalar_noise_pair):
    started = time.time()
    hp = Hyperparams(eta=1.0, batch=1)
    limit = covariance_limit(scalar_noise_pair, hp)
    assert np.max(np.abs(limit - np.array([[1.0]]))) <= 1e-9
    triple = asymptotic_quantities(scalar_noise_pair, hp)
    assert np.max(np.abs(np.array(triple) - np.array([1.0, 0.5, 1.0]))) <= 1e-9
    rng = np.random.default_rng(108)
    for _ in range(10):
        d = int(rng.integers(2, 4))
        n = int(rng.integers(2, 6))
        inst = gen_regular(d, n, d, 1.0, False, int(rng.integers(0, 2**31)))
        b = int(rng.integers(1, n + 1))
        hp = Hyperparams(eta=0.5 * variance_threshold(inst, b), batch=b)
        target = covariance_limit(inst, hp)
        state = iterate_moments(inst, hp, point_state(np.zeros(d)), 10_000)
        _, p_range = null_projectors(inst.mean_hessian())
        proj = p_range @ state.second_moment @ p_range
        assert np.linalg.norm(proj - target) <= 1e-6
    _report("criterion 8: covariance limit matches the exact recursion", started, 60.0)


def test_criterion_9_null_space_walk(rank_one_walk):
    started = time.time()
    hp = Hyperparams(eta=0.5, batch=1)
    init = point_state(np.zeros(2))
    p_null, _ = null_projectors(rank_one_walk.mean_hessian())
    state = init
    for t in range(1, 9):
        state = iterate_moments(rank_one_walk, hp, state, 1)
        closed = null_walk_second_moment(rank_one_walk, hp, t, init)
        iterated = float(np.trace(p_null @ state.second_moment @ p_null))
        assert abs(iterated - closed) <= 1e-12
        assert abs(closed - 0.25 * t) <= 1e-12
    cfg = SimConfig(steps=200, replicates=2000, seed=109, init_offset=np.array([1.0, 0.0]))
    em = simulate_sgd(rank_one_walk, hp, cfg)
    slope = float(np.polyfit(np.arange(201, dtype=float), em.mean_sq_par, 1)[0])
    assert abs(slope - 0.25) <= 0.1 * 0.25
    _report("criterion 9: null-space random-walk law, exact and Monte-Carlo", started, 60.0)


def test_criterion_10_empirical_threshold(scalar_pair):
    started = time.time()
    cfg = SimConfig(steps=24, replicates=32768, seed=110)
    got = empirical_threshold(scalar_pair, 1, cfg, eta_lo=0.16, eta_hi=1.28, bisect_tol=0.016)
    assert abs(got - 0.8) <= 0.05
    got = empirical_threshold(scalar_pair, 2, cfg, eta_lo=0.2, eta_hi=1.6, bisect_tol=0.02)
    assert abs(got - 1.0) <= 0.05
    rng = np.random.default_rng(110)
    for _ in range(5):
        inst = gen_interpolating(3, 5, int(rng.integers(1, 4)), int(rng.integers(0, 2**31)))
        analytic = variance_threshold(inst, 1)
        emp = empirical_threshold(
            inst, 1, cfg, eta_lo=0.2 * analytic, eta_hi=1.8 * analytic, bisect_tol=0.025 * analytic
        )
        assert abs(emp - analytic) <= 0.05 * analytic
    _report("criterion 10: empirical thresholds by bisection", started, 300.0)


def test_criterion_11_bound_chain():
    started = time.time()
    rng = np.random.default_rng(111)
    for _ in range(20):
        d = int(rng.integers(2, 6))
        n = int(rng.integers(2, 9))
        inst = gen_interpolating(d, n, int(rng.integers(1, d + 1)), int(rng.integers(0, 2**31)))
        lam = sharpness(inst)
        for b in {1, n}:
            gen_sharp = 2.0 / variance_threshold(inst, b)
            r1, _ = rank_one_bound(inst, b, seed=int(rng.integers(0, 2**31)))
            eig_value = 2.0 / necessary_bound_eigvec(inst, b)
            slack = 1e-9 * max(1.0, gen_sharp)
            assert gen_sharp + slack >= r1
            assert r1 + slack >= eig_value
            assert eig_value + slack >= lam
    _report("criterion 11: bound chain ordered at every configuration", started, 120.0)
