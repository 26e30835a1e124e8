import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

import sgdstab.kron_certify as kron_certify
import sgdstab.moments as moments_module
import sgdstab.stability as stability

from sgdstab import (
    ConvergenceError,
    Hyperparams,
    asymptotic_quantities,
    covariance_limit,
    cross_term,
    curvature_operators,
    gen_interpolating,
    gen_regular,
    iterate_moments,
    mixing_weight,
    point_state,
    variance_threshold,
)
import sgdstab.linalg as linalg_module
from sgdstab.linalg import DEFAULT_RANK_RTOL, kron, null_projectors, sym_eig, symmetrize, unvec, vec
from sgdstab.montecarlo import ENUM_CAP, SimConfig, initial_offset, simulate_sgd
from sgdstab.moments import ExactStepper, MomentState, null_walk_second_moment, write_trajectory_csv
from sgdstab.cli import run_suites
from sgdstab.kron_certify import brute_force_cross_term, brute_force_transition, sampled_cross_term, second_moment_transition
from sgdstab.stability import sharpness

RNG = np.random.default_rng(31337)


def make_state(mean, second_moment, step=0):
    """A MomentState with the second moment symmetrized and its shape checked against the mean."""
    mean = np.asarray(mean, dtype=float)
    sm = symmetrize(np.asarray(second_moment, dtype=float))
    assert sm.shape == (mean.size, mean.size), (sm.shape, mean.size)
    return MomentState(mean=mean, second_moment=sm, step=step)


def _check_vectorized_recursion(inst, hp, state):
    """One ExactStepper step against the vec-space form built from the validated coupling matrices."""
    out = ExactStepper(inst, hp).step(state)
    q = second_moment_transition(inst, hp.eta, hp.batch)
    e_va = cross_term(inst, hp.eta, hp.batch)
    e_av = np.zeros_like(e_va)
    p = mixing_weight(inst.n, hp.batch)
    for i in range(inst.n):
        e_av += kron(inst.hessians[i], inst.gradients[i][:, None])
    e_av *= -(hp.eta**2) * p / inst.n
    sigma_v = hp.eta**2 * p * inst.gradient_second_moment()
    vec = lambda m: m.flatten(order="F")
    expected = q @ vec(state.second_moment) - (e_va + e_av) @ state.mean + vec(sigma_v)
    np.testing.assert_allclose(vec(out.second_moment), expected, atol=1e-12)
    np.testing.assert_allclose(out.mean, (np.eye(inst.d) - hp.eta * inst.mean_hessian()) @ state.mean, atol=1e-14)


class TestExactStep:
    def test_interpolating_scalar_contraction(self, scalar_pair):
        hp = Hyperparams(eta=0.5, batch=1)
        state = make_state([0.0], [[1.0]])
        out = ExactStepper(scalar_pair, hp).step(state)
        np.testing.assert_allclose(out.second_moment, [[0.25]], atol=1e-14)
        assert out.step == 1

    def test_noise_floor_single_step(self, scalar_noise_pair):
        hp = Hyperparams(eta=1.0, batch=1)
        out = ExactStepper(scalar_noise_pair, hp).step(point_state(np.zeros(1)))
        np.testing.assert_allclose(out.second_moment, [[1.0]], atol=1e-14)

    def test_zero_step_freezes_state(self, scalar_noise_pair):
        hp = Hyperparams(eta=0.0, batch=1)
        state = make_state([0.3], [[0.5]])
        out = ExactStepper(scalar_noise_pair, hp).step(state)
        np.testing.assert_array_equal(out.mean, state.mean)
        np.testing.assert_array_equal(out.second_moment, state.second_moment)

    def test_matches_vectorized_recursion(self):
        inst = gen_regular(3, 4, 3, 1.0, False, 11)
        hp = Hyperparams(eta=0.2 / sharpness(inst), batch=2)
        _check_vectorized_recursion(inst, hp, make_state(RNG.standard_normal(3), np.eye(3) * 0.5))

    @pytest.mark.parametrize(
        "make",
        [lambda: gen_regular(4, 64, 2, 1.0, False, 12), lambda: gen_regular(5, 6, 2, 1.0, True, 13)],
        ids=["n64-d4", "null-gradients"],
    )
    def test_matches_vectorized_recursion_beyond_small_n(self, make):
        inst = make()
        hp = Hyperparams(eta=0.4 / sharpness(inst), batch=2)
        rng = np.random.default_rng(inst.n)
        factor = rng.standard_normal((inst.d, inst.d))
        _check_vectorized_recursion(inst, hp, make_state(rng.standard_normal(inst.d), factor @ factor.T))

    def test_null_gradient_case_has_null_gradients(self):
        inst = gen_regular(5, 6, 2, 1.0, True, 13)
        p_null, _ = null_projectors(inst.mean_hessian())
        assert np.linalg.matrix_rank(inst.mean_hessian()) < inst.d
        assert np.linalg.norm(inst.gradients @ p_null) > 0.1

    def test_coupling_is_cross_terms_closed_form(self):
        # The stepper keeps cross_term's return value, bit for bit.
        inst = gen_regular(4, 6, 2, 1.0, False, 14)
        hp = Hyperparams(eta=0.3 / sharpness(inst), batch=2)
        np.testing.assert_array_equal(ExactStepper(inst, hp)._cross, cross_term(inst, hp.eta, hp.batch))

    def test_zero_gradients_keep_no_coupling(self):
        # The coupling of an all-zero gradient set is zero: the stepper holds no (d^2, d) matrix,
        # and each step is bit for bit the step that applies the zero coupling.
        inst = gen_interpolating(6, 5, 2, 4)
        hp = Hyperparams(eta=0.5 * variance_threshold(inst, 2), batch=2)
        stepper, coupled = ExactStepper(inst, hp), ExactStepper(inst, hp)
        d = inst.d
        assert not any(isinstance(v, np.ndarray) and v.shape == (d * d, d) for v in vars(stepper).values())
        coupled._cross = cross_term(inst, hp.eta, hp.batch)
        a = b = point_state(initial_offset(inst, SimConfig(steps=1, replicates=1, seed=3)))
        for _ in range(20):
            a, b = stepper.step(a), coupled.step(b)
            assert a.mean.tobytes() == b.mean.tobytes()
            assert a.second_moment.tobytes() == b.second_moment.tobytes()

    def test_mean_power_law_bitwise(self):
        inst = gen_interpolating(3, 4, 2, 3)
        hp = Hyperparams(eta=0.3 / sharpness(inst), batch=2)
        mu0 = RNG.standard_normal(3)
        state = point_state(mu0)
        stepper = ExactStepper(inst, hp)
        reference = mu0.copy()
        a_bar = np.eye(3) - hp.eta * inst.mean_hessian()
        for _ in range(20):
            state = stepper.step(state)
            reference = a_bar @ reference
            np.testing.assert_array_equal(state.mean, reference)

    def test_null_component_of_mean_is_constant(self):
        inst = gen_regular(3, 4, 2, 1.0, True, 21)
        hp = Hyperparams(eta=0.4 / sharpness(inst), batch=1)
        p_null, _ = null_projectors(inst.mean_hessian())
        mu0 = RNG.standard_normal(3)
        state = point_state(mu0)
        out = iterate_moments(inst, hp, state, 50)
        np.testing.assert_allclose(p_null @ out.mean, p_null @ mu0, atol=1e-12)

    def test_moment_state_invariants(self):
        inst = gen_regular(2, 4, 2, 1.0, False, 8)
        hp = Hyperparams(eta=0.3 / sharpness(inst), batch=1)
        stepper, state = ExactStepper(inst, hp), point_state(np.array([0.5, -0.2]))
        for _ in range(30):
            state = stepper.step(state)
            values = np.linalg.eigvalsh(state.second_moment)
            assert values.min() >= -1e-9 * max(values.max(), 1e-300)
            cov = state.second_moment - np.outer(state.mean, state.mean)
            cov_values = np.linalg.eigvalsh(cov)
            assert cov_values.min() >= -1e-9 * max(cov_values.max(), 1e-300)


def _einsum_step(inst, hp, state):
    """One step of the recursion with the 3-operand einsum sandwich; reference only."""
    n, d, eta = inst.n, inst.d, hp.eta
    p = mixing_weight(n, hp.batch)
    a_bar = np.eye(d) - eta * inst.mean_hessian()
    a_all = np.eye(d)[None, :, :] - eta * inst.hessians
    mu, sigma = state.mean, state.second_moment
    new_sigma = (1.0 - p) * (a_bar @ sigma @ a_bar)
    new_sigma += (p / n) * np.einsum("nij,jk,nlk->il", a_all, sigma, a_all)
    hi_mu = np.einsum("nij,j->ni", inst.hessians, mu)
    new_sigma += (eta * eta * p / n) * (hi_mu.T @ inst.gradients + inst.gradients.T @ hi_mu)
    new_sigma += eta * eta * p * inst.gradient_second_moment()
    return make_state(a_bar @ mu, new_sigma, state.step + 1)


class TestStepKernel:
    @pytest.mark.parametrize("d, n, batch", [(24, 16, 2), (8, 256, 4)])
    def test_matches_einsum_reference_over_50_steps(self, d, n, batch):
        inst = gen_regular(d, n, d // 2, 1.0, False, 53)
        hp = Hyperparams(eta=0.3 / sharpness(inst), batch=batch)
        stepper = ExactStepper(inst, hp)
        rng = np.random.default_rng(d * n)
        factor = rng.standard_normal((d, d))
        state = reference = make_state(rng.standard_normal(d), factor @ factor.T / d)
        for _ in range(50):
            state = stepper.step(state)
            reference = _einsum_step(inst, hp, reference)
            sigma_scale = np.max(np.abs(reference.second_moment))
            assert np.max(np.abs(state.second_moment - reference.second_moment)) <= 1e-12 * sigma_scale
            assert np.max(np.abs(state.mean - reference.mean)) <= 1e-12 * np.max(np.abs(reference.mean))
        assert state.step == 50

    @pytest.mark.parametrize("d, n, batch, seed", [(2, 3, 1, 71), (3, 5, 2, 72), (4, 6, 3, 73), (3, 4, 4, 74)])
    def test_one_step_matches_brute_force_transition(self, d, n, batch, seed):
        # Interpolating instances carry no gradient noise, so one step is
        # exactly vec(Sigma') = Q vec(Sigma) with Q from batch enumeration.
        inst = gen_interpolating(d, n, d, seed)
        hp = Hyperparams(eta=0.4 / sharpness(inst), batch=batch)
        rng = np.random.default_rng(seed)
        factor = rng.standard_normal((d, d))
        state = make_state(rng.standard_normal(d), factor @ factor.T)
        out = ExactStepper(inst, hp).step(state)
        q = brute_force_transition(inst, hp.eta, batch)
        vec = lambda m: m.flatten(order="F")
        np.testing.assert_allclose(vec(out.second_moment), q @ vec(state.second_moment), rtol=0, atol=1e-12)


class TestCrossTerm:
    def test_interpolating_is_zero(self):
        inst = gen_interpolating(3, 5, 2, 2)
        np.testing.assert_array_equal(cross_term(inst, 0.5, 2), np.zeros((9, 3)))

    def test_scalar_noise_pair_cancels(self, scalar_noise_pair):
        np.testing.assert_allclose(cross_term(scalar_noise_pair, 1.0, 1), [[0.0]], atol=1e-15)

    def test_matches_enumeration(self):
        inst = gen_regular(2, 3, 2, 1.0, False, 14)
        eta, batch = 0.7, 2
        got = cross_term(inst, eta, batch)
        eye = np.eye(2)
        ref = np.zeros((4, 2))
        for combo in itertools.combinations(range(3), batch):
            idx = list(combo)
            a = eye - (eta / batch) * inst.hessians[idx].sum(axis=0)
            v = (eta / batch) * inst.gradients[idx].sum(axis=0)
            ref += kron(v[:, None], a)
        ref /= 3
        np.testing.assert_allclose(got, ref, atol=1e-12)
        np.testing.assert_allclose(brute_force_cross_term(inst, eta, batch), ref, rtol=0, atol=1e-15)

    def test_within_five_standard_errors_of_the_sampled_mean(self, monkeypatch):
        # C(24, 12) exceeds ENUM_CAP, so only the Monte-Carlo oracle reaches this instance.
        inst = gen_regular(2, 24, 2, 1.0, False, 31)
        with pytest.raises(ValueError, match="exceeds cap"):
            brute_force_cross_term(inst, 0.05, 12)
        monkeypatch.setattr(kron_certify, "CROSS_TERM_SAMPLES", 20000)
        mean, se = sampled_cross_term(inst, 0.05, 12)
        assert np.all(np.abs(cross_term(inst, 0.05, 12) - mean) <= 5.0 * se + 1e-12)

    @pytest.mark.parametrize(
        "prop, defect",
        [("cross-term-enumeration", "off batch enumeration by "), ("cross-term-monte-carlo", " beyond five standard errors")],
        ids=["enumeration", "monte-carlo"],
    )
    def test_verify_fails_on_an_injected_formula_error(self, monkeypatch, prop, defect):
        # A wrong mixing weight in moments makes the closed form disagree with both oracles, and
        # verify's property names the defect.
        monkeypatch.setattr(moments_module, "mixing_weight", lambda n, b: 0.123)
        [res] = [r for r in run_suites("moments", 0, 1) if r.name == prop]
        assert (res.trials, res.failures) == (1, 1)
        assert defect in res.detail

    def test_matches_the_sampled_mean_at_n256(self):
        # C(256, 4) exceeds ENUM_CAP: the closed form is checked against the sampled mean.
        assert math.comb(256, 4) > ENUM_CAP
        inst = gen_regular(8, 256, 4, 1.0, False, 59)
        eta = 0.3 / sharpness(inst)
        got = cross_term(inst, eta, 4)
        p = mixing_weight(256, 4)
        ref = sum(kron(inst.gradients[i][:, None], inst.hessians[i]) for i in range(256))
        np.testing.assert_allclose(got, -(eta**2) * p / 256 * ref, rtol=1e-12, atol=1e-15)
        mean, se = sampled_cross_term(inst, eta, 4)
        assert np.all(np.abs(got - mean) <= 5.0 * se + 1e-12)


class TestNoiseInjection:
    def test_one_step_injection_matches_enumeration(self):
        # The per-step covariance injection E[v v^T] equals eta^2 p Sigma_g,
        # checked against exhaustive batches on several small instances.
        for seed, (n, batch) in zip(range(4), [(2, 1), (3, 2), (4, 2), (5, 3)]):
            inst = gen_regular(2, n, 2, 1.0, False, seed + 60)
            eta = 0.7
            ref = np.zeros((2, 2))
            combos = list(itertools.combinations(range(n), batch))
            for combo in combos:
                v = (eta / batch) * inst.gradients[list(combo)].sum(axis=0)
                ref += np.outer(v, v)
            ref /= len(combos)
            closed = eta**2 * mixing_weight(n, batch) * inst.gradient_second_moment()
            np.testing.assert_allclose(closed, ref, atol=1e-12)


class TestNullWalk:
    def test_slope_on_rank_one_walk(self, rank_one_walk):
        hp = Hyperparams(eta=0.5, batch=1)
        init = point_state(np.zeros(2))
        assert null_walk_second_moment(rank_one_walk, hp, 4, init) == pytest.approx(1.0, abs=1e-12)

    def test_exact_recursion_matches_closed_form(self, rank_one_walk):
        hp = Hyperparams(eta=0.5, batch=1)
        init = point_state(np.zeros(2))
        p_null, _ = null_projectors(rank_one_walk.mean_hessian())
        stepper, state = ExactStepper(rank_one_walk, hp), init
        for t in range(1, 9):
            state = stepper.step(state)
            iterated = float(np.trace(p_null @ state.second_moment @ p_null))
            closed = null_walk_second_moment(rank_one_walk, hp, t, init)
            assert iterated == pytest.approx(closed, abs=1e-12)

    def test_interpolating_slope_is_zero(self):
        inst = gen_interpolating(3, 4, 1, 5)
        hp = Hyperparams(eta=0.2, batch=1)
        init = make_state(np.zeros(3), np.eye(3))
        assert null_walk_second_moment(inst, hp, 100, init) == pytest.approx(
            null_walk_second_moment(inst, hp, 0, init), abs=1e-12
        )

    def test_t_zero_returns_initial(self, rank_one_walk):
        hp = Hyperparams(eta=0.5, batch=1)
        init = make_state(np.zeros(2), np.diag([0.0, 0.7]))
        assert null_walk_second_moment(rank_one_walk, hp, 0, init) == pytest.approx(0.7, abs=1e-14)

    def test_negative_t_rejected(self, rank_one_walk):
        with pytest.raises(ValueError):
            null_walk_second_moment(rank_one_walk, Hyperparams(eta=0.5, batch=1), -1, point_state(np.zeros(2)))


class TestCovarianceLimit:
    def test_scalar_noise_pair(self, scalar_noise_pair):
        hp = Hyperparams(eta=1.0, batch=1)
        np.testing.assert_allclose(covariance_limit(scalar_noise_pair, hp), [[1.0]], atol=1e-12)

    def test_interpolating_limit_is_zero(self):
        inst = gen_interpolating(3, 4, 3, 19)
        hp = Hyperparams(eta=0.5 * variance_threshold(inst, 2), batch=2)
        np.testing.assert_allclose(covariance_limit(inst, hp), np.zeros((3, 3)), atol=1e-12)

    def test_fixed_point_of_exact_recursion(self):
        inst = gen_regular(3, 5, 3, 1.0, False, 23)
        hp = Hyperparams(eta=0.5 * variance_threshold(inst, 1), batch=1)
        limit = covariance_limit(inst, hp)
        state = iterate_moments(inst, hp, point_state(np.zeros(3)), 10_000)
        _, p_range = null_projectors(inst.mean_hessian())
        proj = p_range @ state.second_moment @ p_range
        assert np.linalg.norm(proj - limit) < 1e-6

    def test_fixed_point_from_nonzero_start(self):
        inst = gen_regular(2, 4, 2, 0.7, False, 29)
        hp = Hyperparams(eta=0.4 * variance_threshold(inst, 2), batch=2)
        limit = covariance_limit(inst, hp)
        start = make_state(np.array([1.0, -2.0]), 4.0 * np.eye(2))
        state = iterate_moments(inst, hp, start, 10_000)
        _, p_range = null_projectors(inst.mean_hessian())
        proj = p_range @ state.second_moment @ p_range
        assert np.linalg.norm(proj - limit) < 1e-6

    def test_early_exit_reaches_fixed_point(self):
        inst = gen_regular(2, 4, 2, 0.7, False, 29)
        hp = Hyperparams(eta=0.4 * variance_threshold(inst, 2), batch=2)
        limit = covariance_limit(inst, hp)
        stepper, state = ExactStepper(inst, hp), point_state(np.zeros(2))
        while state.step < 10_000:
            prev, state = state, stepper.step(state)
            if np.linalg.norm(state.second_moment - prev.second_moment) < 1e-12:
                break
        assert state.step < 10_000  # geometric convergence stops early
        _, p_range = null_projectors(inst.mean_hessian())
        proj = p_range @ state.second_moment @ p_range
        assert np.linalg.norm(proj - limit) < 1e-6

    def test_rejects_step_outside_interval(self, scalar_noise_pair):
        thr = variance_threshold(scalar_noise_pair, 1)
        for eta in (0.0, thr, 1.1 * thr):
            with pytest.raises(ValueError):
                covariance_limit(scalar_noise_pair, Hyperparams(eta=eta, batch=1))

    def test_limit_is_psd(self):
        inst = gen_regular(3, 5, 2, 1.2, False, 37)
        hp = Hyperparams(eta=0.6 * variance_threshold(inst, 2), batch=2)
        values = np.linalg.eigvalsh(covariance_limit(inst, hp))
        assert values.min() >= -1e-8 * max(values.max(), 1e-300)


class TestAsymptoticQuantities:
    def test_scalar_noise_pair_triple(self, scalar_noise_pair):
        hp = Hyperparams(eta=1.0, batch=1)
        dist_sq, loss_gap, grad_sq = asymptotic_quantities(scalar_noise_pair, hp)
        assert dist_sq == pytest.approx(1.0, abs=1e-12)
        assert loss_gap == pytest.approx(0.5, abs=1e-12)
        assert grad_sq == pytest.approx(1.0, abs=1e-12)

    def test_interpolating_triple_is_zero(self):
        inst = gen_interpolating(2, 4, 2, 41)
        hp = Hyperparams(eta=0.5 * variance_threshold(inst, 1), batch=1)
        assert asymptotic_quantities(inst, hp) == pytest.approx((0.0, 0.0, 0.0), abs=1e-12)

    def test_monotone_in_eta_scalar(self, scalar_noise_pair):
        hi = asymptotic_quantities(scalar_noise_pair, Hyperparams(eta=1.0, batch=1))
        lo = asymptotic_quantities(scalar_noise_pair, Hyperparams(eta=0.5, batch=1))
        assert all(a < b for a, b in zip(lo, hi))
        # Scalar closed form at eta = 0.5: eta*p/(2 - eta) = 1/3.
        assert lo[0] == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_trace_consistency(self):
        inst = gen_regular(3, 4, 3, 0.9, False, 43)
        hp = Hyperparams(eta=0.5 * variance_threshold(inst, 1), batch=1)
        dist_sq, loss_gap, grad_sq = asymptotic_quantities(inst, hp)
        limit = covariance_limit(inst, hp)
        hbar = inst.mean_hessian()
        assert dist_sq == pytest.approx(float(np.trace(limit)), abs=1e-9)
        assert loss_gap == pytest.approx(0.5 * float(np.trace(hbar @ limit)), abs=1e-9)
        assert grad_sq == pytest.approx(float(np.trace(hbar @ hbar @ limit)), abs=1e-9)


def _dense_limit(inst, hp):
    """Oracle: Sigma_inf = unvec(eta * p * pinv(2C - eta*D) vec(Sigma_g_perp)) from one dense
    d^2 x d^2 eigendecomposition.

    Raises ConvergenceError when 2C - eta*D has an eigenvalue below -1e-8 * lambda_max, and
    ValueError when it has one below -DEFAULT_RANK_RTOL * lambda_max.
    """
    p = mixing_weight(inst.n, hp.batch)
    report = curvature_operators(inst, hp.batch, dense=True)
    c, dmat = report.curvature_sum, report.curvature_sq
    eig = sym_eig(2.0 * c - hp.eta * dmat)
    lam_max, lam_min = float(eig.values[0]), float(eig.values[-1])
    if lam_min < -1e-8 * max(lam_max, 0.0):
        raise ConvergenceError(f"2C - eta*D is not PSD (lambda_min = {lam_min:.3e})")
    if lam_min < -DEFAULT_RANK_RTOL * lam_max:
        raise ValueError(f"matrix is not PSD: lambda_min={lam_min:.3e}, lambda_max={lam_max:.3e}")
    _, p_range = null_projectors(inst.mean_hessian())
    sigma_g_perp = p_range @ inst.gradient_second_moment() @ p_range
    kept = eig.values > DEFAULT_RANK_RTOL * max(lam_max, 0.0)
    inv = np.zeros_like(eig.values)
    inv[kept] = 1.0 / eig.values[kept]
    x = hp.eta * p * (eig.vectors @ (inv * (eig.vectors.T @ vec(sigma_g_perp))))
    return symmetrize(unvec(x, inst.d))


# name -> (instance factory, batch)
LIMIT_CASES = {
    "regular-d3": (lambda: gen_regular(3, 5, 3, 1.0, False, 23), 1),
    "regular-d6": (lambda: gen_regular(6, 8, 4, 1.0, False, 3), 3),
    "interpolating": (lambda: gen_interpolating(4, 6, 2, 19), 2),
    "rank-deficient-null-gradients": (lambda: gen_regular(6, 2, 2, 1.0, True, 5), 1),
    "full-batch-p0": (lambda: gen_regular(4, 5, 3, 1.0, False, 8), 5),
    "d1": (lambda: gen_regular(1, 4, 1, 1.0, False, 5), 2),
    "regular-d24": (lambda: gen_regular(24, 16, 4, 1.0, True, 1), 2),
    "regular-d40": (lambda: gen_regular(40, 6, 8, 1.0, False, 2), 2),
}


class TestLimitSolve:
    @pytest.mark.parametrize("case", sorted(LIMIT_CASES))
    def test_matches_dense_pinv(self, case):
        make, batch = LIMIT_CASES[case]
        inst = make()
        thr = variance_threshold(inst, batch)
        hbar = inst.mean_hessian()
        for factor in (0.3, 0.9, 0.99):
            hp = Hyperparams(eta=factor * thr, batch=batch)
            want = _dense_limit(inst, hp)
            got = covariance_limit(inst, hp)
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want), factor
            traces = (np.trace(want), 0.5 * np.trace(hbar @ want), np.trace(hbar @ hbar @ want))
            assert asymptotic_quantities(inst, hp) == pytest.approx(traces, rel=1e-10, abs=0.0)

    def test_cases_cover_their_names(self):
        # The rank-deficient case has null-space gradients; the zero-limit cases are exactly zero.
        inst, batch = LIMIT_CASES["rank-deficient-null-gradients"][0](), 1
        p_null, _ = null_projectors(inst.mean_hessian())
        assert np.linalg.matrix_rank(inst.mean_hessian()) < inst.d - 1
        assert np.linalg.norm(inst.gradients @ p_null) > 0.1
        for case in ("interpolating", "full-batch-p0"):
            make, batch = LIMIT_CASES[case]
            inst = make()
            hp = Hyperparams(eta=0.5 * variance_threshold(inst, batch), batch=batch)
            assert not np.any(covariance_limit(inst, hp))
            assert asymptotic_quantities(inst, hp) == (0.0, 0.0, 0.0)

    def test_oracle_psd_check_fires_at_both_tolerances(self):
        inst = gen_regular(3, 5, 3, 1.0, False, 23)
        batch = 1
        thr = variance_threshold(inst, batch)
        with pytest.raises(ConvergenceError, match="not PSD"):
            _dense_limit(inst, Hyperparams(eta=1.5 * thr, batch=batch))
        # Past the threshold lambda_min(2C - eta*D) falls at the rate v'Dv, v its eigenvector:
        # aim for -1e-9 * lambda_max, between the two tolerances.
        report = curvature_operators(inst, batch, dense=True)
        c, dmat = report.curvature_sum, report.curvature_sq
        eig = sym_eig(2.0 * c - thr * dmat)
        v = eig.vectors[:, -1]
        eta = thr + 1e-9 * float(eig.values[0]) / float(v @ dmat @ v)
        values = np.linalg.eigvalsh(2.0 * c - eta * dmat)
        assert -1e-8 * values[-1] < values[0] < -DEFAULT_RANK_RTOL * values[-1]
        with pytest.raises(ValueError, match="not PSD"):
            _dense_limit(inst, Hyperparams(eta=eta, batch=batch))

    @pytest.mark.parametrize("factor", [1.05, 1.5])
    def test_above_threshold_with_guard_bypassed_raises(self, factor, monkeypatch):
        inst = gen_regular(6, 8, 4, 1.0, False, 3)
        hp = Hyperparams(eta=factor * variance_threshold(inst, 2), batch=2)
        monkeypatch.setattr(moments_module, "threshold", lambda gen_sharp: math.inf)
        for solve in (covariance_limit, asymptotic_quantities):
            with pytest.raises(ConvergenceError, match="non-positive curvature"):
                solve(inst, hp)

    def test_iteration_budget_is_named(self, monkeypatch):
        inst = gen_regular(6, 8, 4, 1.0, False, 3)
        hp = Hyperparams(eta=0.9 * variance_threshold(inst, 2), batch=2)
        monkeypatch.setattr(linalg_module, "_LANCZOS_MAX_ITER", 2)
        with pytest.raises(ConvergenceError, match="within 2 iterations"):
            covariance_limit(inst, hp)


@pytest.fixture
def cg_solves(monkeypatch, counting):
    """Count the limit's spd_solve calls, CG iterates on the Lanczos basis: the returned list gets, per solve, the list of its applications."""
    solves = []
    true_solve = moments_module.spd_solve

    def counted(op, b):
        wrapped, applied = counting(op)
        solves.append(applied)
        return true_solve(wrapped, b)

    monkeypatch.setattr(moments_module, "spd_solve", counted)
    return solves


class TestLimitProductionPath:
    """covariance_limit and asymptotic_quantities form no d^2 x d^2 matrix and run one linear solve."""

    @pytest.mark.parametrize("d", [24, 64])
    def test_no_dense_matrix_and_one_solve(self, d, monkeypatch, cg_solves):
        inst = gen_regular(d, 8, d // 8 + 1, 1.0, False, d)
        hp = Hyperparams(eta=0.5 * variance_threshold(inst, 2), batch=2)

        def forbidden(*args):
            raise AssertionError("a d^2 x d^2 matrix was formed")

        for module, name in ((kron_certify, "kron"), (stability, "kron_sum"), (kron_certify, "mixture_matrix")):
            monkeypatch.setattr(module, name, forbidden)
        for solve in (covariance_limit, asymptotic_quantities):
            cg_solves.clear()
            solve(inst, hp)
            assert len(cg_solves) == 1
            assert 0 < len(cg_solves[0]) <= 40
        assert not hasattr(moments_module, "mixture_matrix") and not hasattr(moments_module, "kron")

    def test_near_threshold_application_budget(self, cg_solves):
        # CG on the scaled system I - (eta/2) S takes 35 applications here; on the unscaled
        # (lam_a + lam_b) o X - eta * D_r(X) it takes 46.
        inst = gen_regular(24, 16, 4, 1.0, False, 1)
        covariance_limit(inst, Hyperparams(eta=0.999 * variance_threshold(inst, 2), batch=2))
        assert len(cg_solves) == 1
        assert len(cg_solves[0]) <= 35

    def test_closer_to_the_threshold_needs_no_more_applications_than_cg(self, cg_solves):
        # Plain CG, without reorthogonalization, took 48 applications here; the Lanczos reader takes 39.
        inst = gen_regular(24, 16, 4, 1.0, False, 1)
        covariance_limit(inst, Hyperparams(eta=0.99999 * variance_threshold(inst, 2), batch=2))
        assert len(cg_solves) == 1
        assert len(cg_solves[0]) <= 48

    def test_peak_memory_d96(self):
        inst = gen_regular(96, 64, 2, 1.0, False, 96)
        hp = Hyperparams(eta=0.5 * variance_threshold(inst, 2), batch=2)
        tracemalloc.start()
        try:
            covariance_limit(inst, hp)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20, peak


def _outcome(solve, inst, hp):
    """solve's return value, or the message of the ValueError it raises."""
    try:
        return solve(inst, hp)
    except ValueError as exc:
        return str(exc)


class TestLimitCertificate:
    """_limit_solve checks eta < eta_var by the one-apply bound and runs the threshold Lanczos only where it cannot."""

    @pytest.mark.parametrize("case", sorted(LIMIT_CASES))
    def test_certified_step_runs_no_lanczos(self, case, monkeypatch, cg_solves):
        make, batch = LIMIT_CASES[case]
        inst = make()
        hp = Hyperparams(eta=0.5 * variance_threshold(inst, batch), batch=batch)

        def forbidden(*args):
            raise AssertionError("the threshold Lanczos ran")

        monkeypatch.setattr(moments_module, "range_sharpness", forbidden)
        for solve in (covariance_limit, asymptotic_quantities):
            cg_solves.clear()
            solve(inst, hp)
            assert len(cg_solves) == 1

    @pytest.mark.parametrize("factor", [0.1, 0.5, 0.9, 0.999, 1.0, 1.05])
    @pytest.mark.parametrize("case", sorted(LIMIT_CASES))
    def test_matches_the_lanczos_path(self, case, factor):
        # With the bound disabled every check runs the threshold Lanczos: the values and
        # the messages are the same, bit for bit.
        make, batch = LIMIT_CASES[case]
        inst = make()
        hp = Hyperparams(eta=factor * variance_threshold(inst, batch), batch=batch)
        for solve in (covariance_limit, asymptotic_quantities):
            got = _outcome(solve, inst, hp)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(moments_module, "range_sharpness_bound", lambda basis, p: math.inf)
                want = _outcome(solve, inst, hp)
            if factor >= 1.0:
                assert want.startswith(f"step size {hp.eta} outside the open stability interval (0, ")
            np.testing.assert_array_equal(got, want)


class TestBatchSizeCheck:
    """Hyperparams leaves the batch size to mixing_weight, whose message every consumer raises."""

    @pytest.mark.parametrize("batch", [0, -1, 5])
    def test_consumers_raise_mixing_weights_message(self, batch):
        inst = gen_regular(3, 4, 2, 1.0, False, 7)
        hp = Hyperparams(eta=0.1, batch=batch)
        calls = [
            lambda: simulate_sgd(inst, hp, SimConfig(steps=3, replicates=2, seed=0)),
            lambda: ExactStepper(inst, hp),
            lambda: covariance_limit(inst, hp),
            lambda: asymptotic_quantities(inst, hp),
            lambda: null_walk_second_moment(inst, hp, 3, point_state(np.zeros(3))),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=re.escape(f"batch size {batch} out of range [1, 4]")):
                call()


class TestStabilityOfRecursion:
    def test_perp_trace_decays_below_threshold(self):
        inst = gen_interpolating(3, 5, 3, 47)
        thr = variance_threshold(inst, 1)
        hp = Hyperparams(eta=0.9 * thr, batch=1)
        _, p_range = null_projectors(inst.mean_hessian())
        state = make_state(np.zeros(3), np.eye(3))
        initial = float(np.trace(p_range @ state.second_moment @ p_range))
        state = iterate_moments(inst, hp, state, 4000)
        final = float(np.trace(p_range @ state.second_moment @ p_range))
        assert final < 1e-3 * initial

    def test_perp_trace_explodes_above_threshold(self):
        inst = gen_interpolating(3, 5, 3, 47)
        thr = variance_threshold(inst, 1)
        hp = Hyperparams(eta=1.01 * thr, batch=1)
        _, p_range = null_projectors(inst.mean_hessian())
        state = make_state(np.zeros(3), np.eye(3))
        initial = float(np.trace(p_range @ state.second_moment @ p_range))
        for _ in range(10):
            state = iterate_moments(inst, hp, state, 1000)
            final = float(np.trace(p_range @ state.second_moment @ p_range))
            if final > 10.0 * initial:
                break
        assert final > 10.0 * initial


class TestTrajectoryCsv:
    def test_schema_and_determinism(self, tmp_path, scalar_noise_pair):
        hp = Hyperparams(eta=1.0, batch=1)
        path = iterate_moments(scalar_noise_pair, hp, point_state(np.zeros(1)), 5, keep_path=True)
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        write_trajectory_csv(out1, scalar_noise_pair, path)
        write_trajectory_csv(out2, scalar_noise_pair, path)
        text = out1.read_text(encoding="utf-8")
        assert text == out2.read_text(encoding="utf-8")
        lines = text.strip().split("\n")
        assert lines[0] == "t,trace_sigma_perp,trace_sigma_par,mu_norm,loss_gap_estimate"
        assert len(lines) == 7
        # Row at t=1 carries the noise floor value 1.0.
        assert lines[2].startswith("1,1,")

    @pytest.mark.parametrize(
        "make, eta, start, steps, clamped",
        [
            # Interpolating with a null space: the recursion rounds trace_sigma_par, exactly 0,
            # below zero on many rows, down to about -5e-6.
            (lambda: gen_interpolating(60, 10, 4, 5), lambda inst: 0.05, None, 100, True),
            # A null-space random walk: no trace rounds below zero, so every row is written as computed.
            (lambda: gen_regular(6, 5, 2, 1.0, True, 5), lambda inst: 0.5 * variance_threshold(inst, 2), None, 100, False),
            # Rank 12 of 30, started on Hbar's top eigenvector plus a null-space one: the loss gap
            # 0.5 <Hbar, Sigma> rounds below zero on 76 of 401 rows, down to about -7.7e-16.
            (lambda: gen_interpolating(30, 4, 3, 1), lambda inst: 0.9 * variance_threshold(inst, 2), "top-plus-null", 400, True),
        ],
        ids=["interpolating-d60", "null-walk", "loss-gap-d30"],
    )
    def test_traces_are_clamped_at_zero(self, tmp_path, make, eta, start, steps, clamped):
        inst = make()
        hp = Hyperparams(eta=eta(inst), batch=2)
        if start is None:
            x0 = initial_offset(inst, SimConfig(steps=steps, replicates=1, seed=0))
        else:
            vectors = sym_eig(inst.mean_hessian()).vectors
            x0 = vectors[:, 0] + vectors[:, -1]
        path = iterate_moments(inst, hp, point_state(x0), steps, keep_path=True)
        out = tmp_path / "t.csv"
        write_trajectory_csv(out, inst, path)
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        hbar = inst.mean_hessian()
        p_null, p_range = null_projectors(hbar)
        raw = np.array([[np.vdot(m, s.second_moment) for m in (p_range, p_null, 0.5 * hbar)] for s in path])
        assert bool(np.any(raw < 0.0)) is clamped
        np.testing.assert_array_equal(rows[:, [1, 2, 4]], np.maximum(raw, 0.0))
