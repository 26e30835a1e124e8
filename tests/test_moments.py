import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest

import sgdstab.moments as moments_module
import sgdstab.stability as stability

from sgdstab import (
    ConvergenceError,
    Hyperparams,
    asymptotic_quantities,
    covariance_limit,
    cross_term,
    exact_step,
    gen_interpolating,
    gen_regular,
    iterate_moments,
    make_state,
    mixing_weight,
    point_state,
    variance_threshold,
)
from sgdstab.linalg import DEFAULT_RANK_RTOL, kron, null_projectors, pcg, sym_eig, symmetrize, unvec, vec
from sgdstab.moments import ENUM_CAP, ExactStepper, null_walk_second_moment, write_trajectory_csv
from sgdstab.stability import _dense_curvature, brute_force_transition, mean_hessian, sharpness

RNG = np.random.default_rng(31337)


class TestExactStep:
    def test_interpolating_scalar_contraction(self, scalar_pair):
        hp = Hyperparams(eta=0.5, batch=1)
        state = make_state([0.0], [[1.0]])
        out = exact_step(scalar_pair, hp, state)
        np.testing.assert_allclose(out.second_moment, [[0.25]], atol=1e-14)
        assert out.step == 1

    def test_noise_floor_single_step(self, scalar_noise_pair):
        hp = Hyperparams(eta=1.0, batch=1)
        out = exact_step(scalar_noise_pair, hp, point_state(np.zeros(1)))
        np.testing.assert_allclose(out.second_moment, [[1.0]], atol=1e-14)

    def test_zero_step_freezes_state(self, scalar_noise_pair):
        hp = Hyperparams(eta=0.0, batch=1)
        state = make_state([0.3], [[0.5]])
        out = exact_step(scalar_noise_pair, hp, state)
        np.testing.assert_array_equal(out.mean, state.mean)
        np.testing.assert_array_equal(out.second_moment, state.second_moment)

    def test_matches_vectorized_recursion(self):
        # Full consistency against the vec-space form built from the
        # validated coupling matrices.
        inst = gen_regular(3, 4, 3, 1.0, False, 11)
        hp = Hyperparams(eta=0.2 / sharpness(inst), batch=2)
        state = make_state(RNG.standard_normal(3), np.eye(3) * 0.5)
        out = exact_step(inst, hp, state)

        from sgdstab.stability import second_moment_transition

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
        np.testing.assert_allclose(out.mean, (np.eye(3) - hp.eta * mean_hessian(inst)) @ state.mean, atol=1e-14)

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
        state = point_state(np.array([0.5, -0.2]))
        for _ in range(30):
            state = exact_step(inst, hp, state)
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

    def test_monte_carlo_validation_path(self):
        # Large C(n, B) forces the Monte-Carlo check; must pass quietly.
        inst = gen_regular(2, 24, 2, 1.0, False, 31)
        cross_term(inst, 0.05, 12, enum_cap=100, mc_samples=20000)

    def test_detects_injected_formula_error(self, monkeypatch):
        # A wrong mixing weight makes the closed form disagree with the
        # enumeration oracle; the validation must catch it.
        inst = gen_regular(2, 3, 2, 1.0, False, 14)
        import sgdstab.moments as moments_module

        monkeypatch.setattr(moments_module, "mixing_weight", lambda n, b: 0.123)
        with pytest.raises(ConvergenceError, match="cross term"):
            moments_module.cross_term(inst, 0.7, 2)

    def test_monte_carlo_detects_injected_formula_error(self, monkeypatch):
        # enum_cap=0 sends even a tiny instance down the Monte-Carlo branch;
        # the wrong mixing weight must fall outside five standard errors.
        inst = gen_regular(2, 3, 2, 1.0, False, 14)
        import sgdstab.moments as moments_module

        monkeypatch.setattr(moments_module, "mixing_weight", lambda n, b: 0.123)
        with pytest.raises(ConvergenceError, match="cross term disagrees with Monte-Carlo"):
            moments_module.cross_term(inst, 0.7, 2, enum_cap=0)

    def test_monte_carlo_validation_passes_at_n256(self):
        # C(256, 4) exceeds ENUM_CAP, so the default call validates by Monte Carlo.
        assert math.comb(256, 4) > ENUM_CAP
        inst = gen_regular(8, 256, 4, 1.0, False, 59)
        eta = 0.3 / sharpness(inst)
        got = cross_term(inst, eta, 4)
        p = mixing_weight(256, 4)
        ref = sum(kron(inst.gradients[i][:, None], inst.hessians[i]) for i in range(256))
        np.testing.assert_allclose(got, -(eta**2) * p / 256 * ref, rtol=1e-12, atol=1e-15)


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

    def test_top_mode_overlap_reported(self, scalar_noise_pair):
        from sgdstab.moments import top_mode_noise_overlap

        # Scalar case: the projected transition is 1-dimensional, so the
        # overlap is exactly the gradient second moment.
        overlap = top_mode_noise_overlap(scalar_noise_pair, 1.0, 1)
        assert overlap == pytest.approx(1.0, abs=1e-12)
        interp = gen_interpolating(3, 4, 2, 1)
        assert top_mode_noise_overlap(interp, 0.1, 1) == pytest.approx(0.0, abs=1e-15)


class TestNullWalk:
    def test_slope_on_rank_one_walk(self, rank_one_walk):
        hp = Hyperparams(eta=0.5, batch=1)
        init = point_state(np.zeros(2))
        assert null_walk_second_moment(rank_one_walk, hp, 4, init) == pytest.approx(1.0, abs=1e-12)

    def test_exact_recursion_matches_closed_form(self, rank_one_walk):
        hp = Hyperparams(eta=0.5, batch=1)
        init = point_state(np.zeros(2))
        p_null, _ = null_projectors(rank_one_walk.mean_hessian())
        state = init
        for t in range(1, 9):
            state = exact_step(rank_one_walk, hp, state)
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
        state = iterate_moments(inst, hp, point_state(np.zeros(2)), 10_000, stop_delta=1e-12)
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
        hbar = mean_hessian(inst)
        assert dist_sq == pytest.approx(float(np.trace(limit)), abs=1e-9)
        assert loss_gap == pytest.approx(0.5 * float(np.trace(hbar @ limit)), abs=1e-9)
        assert grad_sq == pytest.approx(float(np.trace(hbar @ hbar @ limit)), abs=1e-9)


def _dense_limit(inst, hp, rel_tol=DEFAULT_RANK_RTOL):
    """Oracle: Sigma_inf = unvec(eta * p * pinv(2C - eta*D) vec(Sigma_g_perp)) from one dense
    d^2 x d^2 eigendecomposition.

    Raises ConvergenceError when 2C - eta*D has an eigenvalue below -1e-8 * lambda_max, and
    ValueError when it has one below -rel_tol * lambda_max.
    """
    p = mixing_weight(inst.n, hp.batch)
    c, dmat = _dense_curvature(inst, p)
    eig = sym_eig(2.0 * c - hp.eta * dmat)
    lam_max, lam_min = float(eig.values[0]), float(eig.values[-1])
    if lam_min < -1e-8 * max(lam_max, 0.0):
        raise ConvergenceError(f"2C - eta*D is not PSD (lambda_min = {lam_min:.3e})")
    if lam_min < -rel_tol * lam_max:
        raise ValueError(f"matrix is not PSD: lambda_min={lam_min:.3e}, lambda_max={lam_max:.3e}")
    _, p_range = null_projectors(inst.mean_hessian(), rel_tol=rel_tol)
    sigma_g_perp = p_range @ inst.gradient_second_moment() @ p_range
    kept = eig.values > rel_tol * max(lam_max, 0.0)
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
        hbar = mean_hessian(inst)
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
        c, dmat = _dense_curvature(inst, mixing_weight(inst.n, batch))
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
        monkeypatch.setattr(moments_module, "_threshold", lambda gen_sharp: math.inf)
        for solve in (covariance_limit, asymptotic_quantities):
            with pytest.raises(ConvergenceError, match="non-positive curvature"):
                solve(inst, hp)

    def test_iteration_budget_is_named(self, monkeypatch):
        inst = gen_regular(6, 8, 4, 1.0, False, 3)
        hp = Hyperparams(eta=0.9 * variance_threshold(inst, 2), batch=2)
        monkeypatch.setattr(moments_module, "pcg", functools.partial(pcg, max_iter=2))
        with pytest.raises(ConvergenceError, match="within 2 iterations"):
            covariance_limit(inst, hp)


class TestLimitProductionPath:
    """covariance_limit and asymptotic_quantities form no d^2 x d^2 matrix and run one CG solve."""

    @pytest.mark.parametrize("d", [24, 64])
    def test_no_dense_matrix_and_one_solve(self, d, monkeypatch, counting):
        inst = gen_regular(d, 8, d // 8 + 1, 1.0, False, d)
        hp = Hyperparams(eta=0.5 * variance_threshold(inst, 2), batch=2)

        def forbidden(*args):
            raise AssertionError("a d^2 x d^2 matrix was formed")

        for module, name in ((stability, "kron"), (stability, "kron_sum"), (stability, "_dense_curvature"), (moments_module, "kron")):
            monkeypatch.setattr(module, name, forbidden)
        solves = []
        true_pcg = moments_module.pcg

        def counted(op, *args, **kwargs):
            wrapped, applied = counting(op)
            solves.append(applied)
            return true_pcg(wrapped, *args, **kwargs)

        monkeypatch.setattr(moments_module, "pcg", counted)
        for solve in (covariance_limit, asymptotic_quantities):
            solves.clear()
            solve(inst, hp)
            assert len(solves) == 1
            assert 0 < len(solves[0]) <= 40
        assert not hasattr(moments_module, "_dense_curvature")

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
