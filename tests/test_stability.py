import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sgdstab import (
    Hyperparams,
    LinearOperator,
    MinimumClass,
    asymptotic_quantities,
    brute_force_transition,
    covariance_limit,
    curvature_operators,
    gen_interpolating,
    gen_regular,
    lanczos_lambda_max,
    make_instance,
    mean_hessian,
    mean_threshold,
    mixing_weight,
    mixture_transition,
    necessary_bound_eigvec,
    necessary_bound_trace,
    rank_one_bound,
    rank_one_bounds,
    second_moment_transition,
    sharpness,
    simulate_mixture,
    stability_verdict,
    variance_threshold,
)
from sgdstab.instances import stream
from sgdstab.montecarlo import SimConfig
from sgdstab.linalg import DEFAULT_RANK_RTOL, _lanczos_solve, kron, kron_sum, null_projectors, sqrt_pinv_psd, sym_eig, symmetrize
from sgdstab.stability import (
    DENSE_CAP,
    _dense_curvature,
    _generalized_sharpness_dense,
    _projected_transition_dense,
    generalized_sharpness,
    projected_transition_lambda_max,
)

RNG = np.random.default_rng(777)


def scaled(inst, c):
    return make_instance(c * inst.hessians, inst.gradients, label=inst.label)


class TestMeanHessian:
    def test_scalar_pair(self, scalar_pair):
        np.testing.assert_array_equal(mean_hessian(scalar_pair), [[2.0]])

    def test_identical_hessians(self):
        h = np.array([[2.0, 1.0], [1.0, 3.0]])
        inst = make_instance([h, h, h], np.zeros((3, 2)))
        np.testing.assert_array_equal(mean_hessian(inst), h)

    def test_matches_direct_sum(self):
        inst = gen_interpolating(4, 7, 2, 5)
        direct = sum(inst.hessians[i] for i in range(inst.n)) / inst.n
        assert np.max(np.abs(mean_hessian(inst) - direct)) < 1e-14


class TestCurvatureOperators:
    def test_scalar_pair_single_sample(self, scalar_pair):
        report = curvature_operators(scalar_pair, batch=1)
        np.testing.assert_allclose(report.curvature_sum, [[2.0]], atol=1e-14)
        np.testing.assert_allclose(report.curvature_sq, [[5.0]], atol=1e-14)
        np.testing.assert_allclose(report.curvature_var, [[1.0]], atol=1e-14)
        assert report.p == 1.0

    def test_scalar_pair_full_batch(self, scalar_pair):
        report = curvature_operators(scalar_pair, batch=2)
        np.testing.assert_allclose(report.curvature_sq, [[4.0]], atol=1e-14)
        assert report.p == 0.0

    def test_curvature_identity_random(self):
        # D = Hbar kron Hbar + p*E to 1e-10 max(1, max|D|); curvature_operators does not check it.
        for inst in (gen_interpolating(3, 5, 2, 21), gen_regular(5, 7, 3, 1.0, True, 6)):
            report = curvature_operators(inst, batch=2)
            hbar = mean_hessian(inst)
            lhs = report.curvature_sq
            rhs = kron(hbar, hbar) + report.p * report.curvature_var
            assert np.max(np.abs(lhs - rhs)) <= 1e-10 * max(1.0, float(np.max(np.abs(lhs)))), inst.label

    def test_psd_and_null_inclusion(self):
        # n * rank < d guarantees a nontrivial null space of the mean Hessian.
        inst = gen_interpolating(4, 3, 1, 3)
        report = curvature_operators(inst, batch=2)
        for mat in (report.curvature_sum, report.curvature_sq):
            values = np.linalg.eigvalsh(mat)
            assert values.min() >= -1e-8 * max(values.max(), 1.0)
        # Null-space inclusion: vectors in the null space of C are killed
        # by D and by E (which is indefinite, so only the inclusion holds).
        p_null_c, _ = null_projectors(report.curvature_sum)
        null_dim = float(np.trace(p_null_c))
        assert null_dim >= 1.0 - 1e-9
        rng = np.random.default_rng(0)
        for mat in (report.curvature_sq, report.curvature_var):
            lam = float(np.max(np.abs(np.linalg.eigvalsh(mat))))
            for _ in range(5):
                u = p_null_c @ rng.standard_normal(inst.d**2)
                nu = np.linalg.norm(u)
                assert nu > 1e-12
                assert np.linalg.norm(mat @ u) <= 1e-8 * lam * nu

    def test_operator_path_self_adjoint_and_matching(self):
        # The second instance is regular and rank-deficient with n > d.
        for inst in (gen_interpolating(3, 4, 2, 9), gen_regular(6, 9, 2, 1.0, True, 5)):
            dense = curvature_operators(inst, batch=2, dense=True)
            ops = curvature_operators(inst, batch=2, dense=False)
            rng = np.random.default_rng(1)
            for mat, op in (
                (dense.curvature_sum, ops.curvature_sum),
                (dense.curvature_sq, ops.curvature_sq),
                (dense.curvature_var, ops.curvature_var),
            ):
                u = rng.standard_normal(inst.d**2)
                v = rng.standard_normal(inst.d**2)
                np.testing.assert_allclose(op(u), mat @ u, atol=1e-10)
                assert float(op(u) @ v) == pytest.approx(float(u @ op(v)), rel=1e-12, abs=1e-12)
            assert ops.generalized_sharpness == pytest.approx(dense.generalized_sharpness, rel=1e-6)

    def test_invalid_instance_rejected(self):
        inst = make_instance([[[-1.0]], [[1.0]]], [[0.0], [0.0]])
        with pytest.raises(ValueError):
            curvature_operators(inst, batch=1)

    def test_dense_request_above_cap_rejected(self, monkeypatch):
        import sgdstab.stability as stability_module

        monkeypatch.setattr(stability_module, "DENSE_CAP", 2)
        inst = gen_interpolating(3, 4, 2, 1)
        with pytest.raises(ValueError, match="cap"):
            stability_module.curvature_operators(inst, batch=2, dense=True)
        # Auto mode silently switches to the operator path.
        report = stability_module.curvature_operators(inst, batch=2)
        assert not report.dense


class TestTransition:
    def test_scalar_pair_values(self, scalar_pair):
        np.testing.assert_allclose(second_moment_transition(scalar_pair, 0.5, 1), [[0.25]], atol=1e-12)
        np.testing.assert_allclose(second_moment_transition(scalar_pair, 0.5, 2), [[0.0]], atol=1e-12)

    def test_zero_step_is_identity(self):
        inst = gen_interpolating(3, 4, 2, 2)
        q = second_moment_transition(inst, 0.0, 2)
        np.testing.assert_allclose(q, np.eye(9), atol=1e-12)

    def test_three_forms_agree_on_eta_grid(self):
        # second_moment_transition returns the mixture form unchecked; the other two forms
        # must match it to max|Q - form| <= 1e-10 max(1, max|Q|).
        for inst in (gen_interpolating(3, 5, 3, 13), gen_regular(4, 6, 1, 1.0, True, 3)):
            d = inst.d
            lam = sharpness(inst)
            hbar = mean_hessian(inst)
            p = mixing_weight(inst.n, 2)
            eye = np.eye(d)
            for eta in np.linspace(0.0, 2.5 / lam, 7):
                q = second_moment_transition(inst, eta, 2)
                # Independent reconstructions of the three algebraic forms.
                form_dev = kron(eye - eta * hbar, eye - eta * hbar)
                for i in range(inst.n):
                    delta = inst.hessians[i] - hbar
                    form_dev += (p * eta**2 / inst.n) * kron(delta, delta)
                c = 0.5 * kron_sum(hbar, hbar)
                dmat = (1 - p) * kron(hbar, hbar)
                for i in range(inst.n):
                    dmat += (p / inst.n) * kron(inst.hessians[i], inst.hessians[i])
                form_quad = np.eye(d * d) - 2 * eta * c + eta**2 * dmat
                scale = 1e-10 * max(1.0, float(np.max(np.abs(q))))
                for form in (form_dev, form_quad):
                    np.testing.assert_allclose(q, form, rtol=0, atol=scale)

    def test_operator_path_matches_dense(self, scalar_pair):
        op = second_moment_transition(scalar_pair, 0.5, 1, dense=False)
        assert isinstance(op, LinearOperator)
        lam_op = lanczos_lambda_max(op, seed=3)
        dense = second_moment_transition(scalar_pair, 0.5, 1)
        lam_dense = float(np.max(np.linalg.eigvalsh(dense)))
        assert lam_op == pytest.approx(lam_dense, abs=1e-7)

    def test_operator_path_matches_dense_multidim(self):
        # The second instance is regular and rank-deficient with n > d.
        for inst in (gen_interpolating(4, 6, 2, 31), gen_regular(6, 9, 2, 1.0, True, 5)):
            eta = 0.7 / sharpness(inst)
            op = second_moment_transition(inst, eta, 2, dense=False)
            dense = second_moment_transition(inst, eta, 2)
            rng = np.random.default_rng(5)
            u = rng.standard_normal(inst.d**2)
            np.testing.assert_allclose(op(u), dense @ u, atol=1e-10)


class TestBruteForce:
    def test_scalar_pair(self, scalar_pair):
        np.testing.assert_allclose(brute_force_transition(scalar_pair, 0.5, 1), [[0.25]], atol=1e-12)

    def test_matches_build_n3_b2(self):
        inst = gen_interpolating(2, 3, 2, 8)
        eta = 0.4 / sharpness(inst)
        np.testing.assert_allclose(
            brute_force_transition(inst, eta, 2),
            second_moment_transition(inst, eta, 2),
            atol=1e-10,
        )

    def test_full_batch_is_kron_of_contraction(self):
        inst = gen_interpolating(3, 4, 2, 4)
        eta = 0.2
        a = np.eye(3) - eta * mean_hessian(inst)
        np.testing.assert_allclose(brute_force_transition(inst, eta, 4), kron(a, a), atol=1e-12)

    def test_enumeration_cap(self):
        inst = gen_interpolating(2, 20, 1, 0)
        with pytest.raises(ValueError, match="cap"):
            brute_force_transition(inst, 0.1, 10, cap=100)

    @pytest.mark.parametrize("batch", [0, -1, 3])
    def test_rejects_batch_out_of_range(self, scalar_pair, batch):
        # C(2, 3) = 0 batches would average to NaN, and batch 0 would divide by zero.
        with pytest.raises(ValueError, match=r"batch size .* out of range \[1, 2\]"):
            brute_force_transition(scalar_pair, 0.5, batch)


class TestThresholds:
    def test_scalar_pair(self, scalar_pair):
        assert mean_threshold(scalar_pair) == pytest.approx(1.0, abs=1e-12)
        assert variance_threshold(scalar_pair, 1) == pytest.approx(0.8, abs=1e-12)
        assert variance_threshold(scalar_pair, 2) == pytest.approx(1.0, abs=1e-12)

    def test_unit_sharpness(self):
        inst = make_instance([np.eye(2)], np.zeros((1, 2)))
        assert mean_threshold(inst) == pytest.approx(2.0, abs=1e-12)

    def test_zero_hessian_gives_infinite_threshold(self):
        inst = make_instance([np.zeros((2, 2))], np.zeros((1, 2)))
        assert mean_threshold(inst) == math.inf
        assert variance_threshold(inst, 1) == math.inf

    def test_homogeneity(self):
        inst = gen_interpolating(3, 5, 2, 6)
        c = 3.7
        assert mean_threshold(scaled(inst, c)) == pytest.approx(mean_threshold(inst) / c, rel=1e-9)
        assert variance_threshold(scaled(inst, c), 2) == pytest.approx(
            variance_threshold(inst, 2) / c, rel=1e-9
        )

    def test_gd_recovery(self):
        for seed in range(6):
            inst = gen_interpolating(int(RNG.integers(1, 7)), int(RNG.integers(2, 11)), 1, seed)
            expected = 2.0 / sharpness(inst)
            assert variance_threshold(inst, inst.n) == pytest.approx(expected, rel=1e-9)

    def test_monotone_in_batch(self):
        for seed in range(6):
            d = int(RNG.integers(1, 5))
            inst = gen_interpolating(d, int(RNG.integers(2, 9)), min(2, d), seed + 50)
            values = [variance_threshold(inst, b) for b in range(1, inst.n + 1)]
            for v1, v2 in zip(values, values[1:]):
                assert v2 >= v1 - 1e-9 * max(1.0, v1)

    def test_monotone_in_batch_regular(self):
        inst = gen_regular(3, 6, 3, 1.0, False, 123)
        values = [variance_threshold(inst, b) for b in range(1, inst.n + 1)]
        for v1, v2 in zip(values, values[1:]):
            assert v2 >= v1 - 1e-9 * max(1.0, v1)

    def test_dense_and_operator_paths_agree(self):
        inst = gen_interpolating(4, 6, 2, 77)
        _, dmat = _dense_curvature(inst, mixing_weight(inst.n, 2))
        dense = 2.0 / _generalized_sharpness_dense(mean_hessian(inst), dmat, DEFAULT_RANK_RTOL)
        assert variance_threshold(inst, 2) == pytest.approx(dense, rel=1e-12)

    def test_identical_hessians_close_the_batch_gap(self):
        # With no curvature variance the batch noise term vanishes and the
        # mean-square threshold equals the mean threshold at every B.
        rng = np.random.default_rng(7)
        g = rng.standard_normal((3, 3))
        inst = make_instance(np.stack([g @ g.T] * 5), np.zeros((5, 3)))
        mt = mean_threshold(inst)
        for b in range(1, 6):
            assert variance_threshold(inst, b) == pytest.approx(mt, rel=1e-12)

    def test_widely_scaled_spectrum(self):
        # Eigenvalues spanning twelve orders of magnitude stay exact.
        inst = make_instance([np.diag([1e-6, 1.0]), np.diag([1e6, 2.0])], np.zeros((2, 2)))
        assert variance_threshold(inst, 2) == pytest.approx(mean_threshold(inst), rel=1e-12)
        # Single-sample: the dominant direction is carried by one Hessian,
        # whose squared curvature halves the threshold relative to GD.
        assert variance_threshold(inst, 1) == pytest.approx(0.5 * mean_threshold(inst), rel=1e-9)

    def test_identical_hessians_beyond_dense_cap(self):
        rng = np.random.default_rng(8)
        g = rng.standard_normal((60, 60))
        inst = make_instance(np.stack([g @ g.T] * 4), np.zeros((4, 60)))
        mt = mean_threshold(inst)
        for b in range(1, 5):
            assert variance_threshold(inst, b) == pytest.approx(mt, rel=1e-12)

    def test_operator_path_beyond_dense_cap(self):
        # d = 60 > DENSE_CAP: everything must run matrix-free, and the
        # full-batch threshold still equals 2 / sharpness.
        inst = gen_interpolating(60, 6, 3, 5)
        thr = variance_threshold(inst, inst.n)
        assert thr == pytest.approx(2.0 / sharpness(inst), rel=1e-9)
        q = second_moment_transition(inst, 0.01, 2)
        assert isinstance(q, LinearOperator)

    def test_threshold_iff_unit_spectrum(self):
        for seed in range(4):
            inst = gen_interpolating(3, 5, 2, seed + 200)
            b = 1 + seed % inst.n
            thr = variance_threshold(inst, b)
            for factor in np.linspace(0.05, 2.0, 16):
                eta = factor * thr
                q = second_moment_transition(inst, eta, b)
                lam = float(np.max(np.abs(np.linalg.eigvalsh(q))))
                assert (lam <= 1.0 + 1e-9) == (eta <= thr), (factor, lam)

    def test_lambda_at_threshold_is_one(self, scalar_pair):
        q = second_moment_transition(scalar_pair, 0.8, 1)
        lam = float(np.max(np.linalg.eigvalsh(q)))
        assert lam == pytest.approx(1.0, abs=1e-8)


class TestNecessaryBounds:
    def test_scalar_pair(self, scalar_pair):
        assert necessary_bound_eigvec(scalar_pair, 1) == pytest.approx(0.8, abs=1e-12)
        assert necessary_bound_trace(scalar_pair, 1) == pytest.approx(0.8, abs=1e-12)

    def test_full_batch_collapses_to_mean_threshold(self):
        inst = gen_interpolating(3, 5, 3, 44)
        assert necessary_bound_eigvec(inst, inst.n) == pytest.approx(mean_threshold(inst), rel=1e-12)

    def test_full_batch_trace_form(self):
        inst = gen_interpolating(3, 5, 3, 45)
        hbar = mean_hessian(inst)
        expected = 2.0 * np.trace(hbar) / np.sum(hbar * hbar)
        assert necessary_bound_trace(inst, inst.n) == pytest.approx(expected, rel=1e-12)

    def test_bounds_dominate_threshold(self):
        for seed in range(5):
            inst = gen_interpolating(int(RNG.integers(1, 5)), int(RNG.integers(2, 8)), 1, seed + 300)
            b = int(RNG.integers(1, inst.n + 1))
            thr = variance_threshold(inst, b)
            assert necessary_bound_eigvec(inst, b) >= thr - 1e-9 * max(1.0, thr)
            assert necessary_bound_trace(inst, b) >= thr - 1e-9 * max(1.0, thr)

    def test_scalar_trace_bound_is_exact(self):
        # In d=1 the trace bound coincides with the exact threshold.
        for seed in range(5):
            inst = gen_interpolating(1, int(RNG.integers(2, 7)), 1, seed + 400)
            for b in range(1, inst.n + 1):
                assert necessary_bound_trace(inst, b) == pytest.approx(
                    variance_threshold(inst, b), rel=1e-9
                )


class TestRankOneBound:
    def test_scalar_pair_exact(self, scalar_pair):
        value, v = rank_one_bound(scalar_pair, 1)
        assert value == pytest.approx(2.5, abs=1e-12)
        assert abs(v[0]) == pytest.approx(1.0, abs=1e-12)

    def test_full_batch_is_rayleigh_quotient(self):
        inst = gen_interpolating(3, 4, 3, 15)
        value, _ = rank_one_bound(inst, inst.n)
        assert value == pytest.approx(sharpness(inst), rel=1e-9)

    def test_chain_position(self):
        for seed in range(5):
            inst = gen_interpolating(int(RNG.integers(2, 5)), int(RNG.integers(2, 8)), 2, seed + 500)
            b = int(RNG.integers(1, inst.n + 1))
            value, _ = rank_one_bound(inst, b, seed=seed)
            gen_sharp = 2.0 / variance_threshold(inst, b)
            eig_value = 2.0 / necessary_bound_eigvec(inst, b)
            lam = sharpness(inst)
            slack = 1e-9 * max(1.0, gen_sharp)
            assert value <= gen_sharp + slack
            assert value >= eig_value - slack
            assert eig_value >= lam - slack

    def test_scale_equivariance(self):
        inst = gen_interpolating(3, 5, 2, 61)
        c = 5.0
        v1, _ = rank_one_bound(inst, 1, seed=9)
        v2, _ = rank_one_bound(scaled(inst, c), 1, seed=9)
        assert v2 == pytest.approx(c * v1, rel=1e-12)

    def test_deterministic(self):
        inst = gen_interpolating(3, 5, 2, 62)
        a = rank_one_bound(inst, 1, seed=4)
        b = rank_one_bound(inst, 1, seed=4)
        assert a[0] == b[0]
        np.testing.assert_array_equal(a[1], b[1])


def _reference_rank_one(inst, batch, steps=2000, seed=0, n_starts=8, rel_tol=DEFAULT_RANK_RTOL):
    """The per-start decaying-schedule ascent that rank_one_bound ran before it
    became a quasi-Newton ascent, kept as a lower-bound oracle: from the same
    starts, the new ascent must reach at least its value.

    Returns (best value, maximizer, counts of starts that stopped on a
    vanishing gradient and that collapsed into the null space).
    """
    eig = sym_eig(mean_hessian(inst))
    lam = float(eig.values[0])
    if lam <= 0:
        raise ValueError("mean Hessian has no positive eigenvalue")
    hbar = mean_hessian(inst)
    p = mixing_weight(inst.n, batch)
    _, p_range = null_projectors(hbar, rel_tol=rel_tol)
    rng = stream(seed, index=1)
    starts = [eig.vectors[:, 0]]
    while len(starts) < n_starts:
        z = p_range @ rng.standard_normal(inst.d)
        nz = np.linalg.norm(z)
        if nz > 1e-8:
            starts.append(z / nz)

    def objective(v):
        a = float(v @ hbar @ v)
        dev = np.einsum("i,nij,j->n", v, inst.hessians, v) - a
        g = float(np.mean(dev * dev))
        return a + p * g / a, a, dev, g

    schedule_k = max(1, steps // 10)
    floor = rel_tol * lam
    best_value, best_v = -math.inf, starts[0]
    stopped = collapsed = 0
    for v0 in starts:
        v = v0.copy()
        value, a, dev, g = objective(v)
        if a <= floor:
            collapsed += 1
            continue
        if value > best_value:
            best_value, best_v = value, v.copy()
        for k in range(steps):
            hv = hbar @ v
            hiv = np.einsum("nij,j->ni", inst.hessians, v)
            grad = 2.0 * (1.0 - p * g / (a * a)) * hv + (4.0 * p / a) * np.einsum("n,ni->i", dev / inst.n, hiv - hv)
            r = grad - float(grad @ v) * v
            nr = np.linalg.norm(r)
            if nr <= 1e-15 * max(1.0, abs(value)):
                stopped += 1
                break
            theta = 0.1 / (1.0 + k / schedule_k) * nr / lam
            v = math.cos(theta) * v + math.sin(theta) * (r / nr)
            v /= np.linalg.norm(v)
            value, a, dev, g = objective(v)
            if a <= floor:
                collapsed += 1
                break
            if value > best_value:
                best_value, best_v = value, v.copy()
    if not math.isfinite(best_value):
        raise ValueError("all starts collapsed into the null space of the mean Hessian")
    return best_value, best_v, stopped, collapsed


def _rank_one_objective(inst, batch, v):
    hbar = mean_hessian(inst)
    a = float(v @ hbar @ v)
    dev = np.einsum("i,nij,j->n", v, inst.hessians, v) - a
    return a + mixing_weight(inst.n, batch) * float(np.mean(dev * dev)) / a


def _relative_riemannian_gradient(inst, batch, v):
    """|grad f(v) projected on the tangent space at v| / f(v), by direct products."""
    p = mixing_weight(inst.n, batch)
    hbar = mean_hessian(inst)
    a = float(v @ hbar @ v)
    hv, hiv = hbar @ v, inst.hessians @ v
    dev = hiv @ v - a
    g = float(np.mean(dev * dev))
    grad = 2.0 * (1.0 - p * g / (a * a)) * hv + (4.0 * p / a) * np.einsum("n,ni->i", dev / inst.n, hiv - hv)
    return float(np.linalg.norm(grad - (grad @ v) * v)) / (a + p * g / a)


class TestBatchedRankOneAscent:
    # (instance, batch, rel_tol, starts that stop early, starts that collapse)
    CASES = {
        "some-stop-early-b1": (lambda: gen_interpolating(3, 4, 1, 2), 1, DEFAULT_RANK_RTOL, 6, 0),
        "all-stop-early-b1": (lambda: gen_interpolating(3, 5, 2, 62), 1, DEFAULT_RANK_RTOL, 8, 0),
        "batch-equals-n": (lambda: gen_regular(4, 6, 2, 1.0, False, 5), 6, DEFAULT_RANK_RTOL, 1, 0),
        "rank-deficient-interpolating": (lambda: gen_interpolating(4, 3, 1, 3), 1, DEFAULT_RANK_RTOL, 6, 0),
        "some-collapse": (lambda: gen_interpolating(5, 6, 1, 8), 1, 0.8, 5, 3),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_per_start_loop(self, case):
        make, batch, rel_tol, want_stopped, want_collapsed = self.CASES[case]
        inst = make()
        ref_value, _, stopped, collapsed = _reference_rank_one(inst, batch, rel_tol=rel_tol)
        # The case exercises, in the reference loop, the lane masks it is named for.
        assert (stopped, collapsed) == (want_stopped, want_collapsed)
        value, v = rank_one_bound(inst, batch, rel_tol=rel_tol)
        # From the same starts the quasi-Newton ascent reaches at least the old schedule's
        # 2000-step value, and stops at a stationary point of f.
        assert value >= ref_value * (1.0 - 1e-12)
        assert _rank_one_objective(inst, batch, v) == pytest.approx(value, rel=1e-12, abs=0.0)
        assert _relative_riemannian_gradient(inst, batch, v) <= 1e-8

    def test_d1_every_start_stops_at_once(self, scalar_pair):
        ref_value, ref_v, stopped, _ = _reference_rank_one(scalar_pair, 1)
        assert stopped == 8
        value, v = rank_one_bound(scalar_pair, 1)
        assert value == ref_value
        assert abs(v[0]) == abs(ref_v[0])

    def test_all_starts_collapsing_raises(self):
        # A floor above lambda_max collapses the only start, the top eigenvector.
        inst = gen_interpolating(3, 5, 2, 62)
        with pytest.raises(ValueError, match="all starts collapsed"):
            _reference_rank_one(inst, 1, n_starts=1, rel_tol=2.0)
        with pytest.raises(ValueError, match="all starts collapsed"):
            rank_one_bound(inst, 1, n_starts=1, rel_tol=2.0)

    def test_masked_lanes_raise_no_warning(self, scalar_pair):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # d=1 has an exactly zero tangent gradient; rel_tol=0.8 collapses most starts at once.
            rank_one_bound(scalar_pair, 1)
            rank_one_bound(gen_interpolating(3, 4, 1, 2), 1)
            rank_one_bound(gen_interpolating(5, 6, 1, 8), 1, rel_tol=0.8)

    # Every batch of an instance runs as one block.  The reference loop costs about
    # a second per batch at 2000 steps, so the block is compared at 400 steps.
    FUSED_STEPS = 400

    @pytest.mark.parametrize("case", sorted(CASES) + ["scalar-pair"])
    def test_fused_block_matches_per_batch(self, case, scalar_pair):
        if case == "scalar-pair":
            inst, rel_tol = scalar_pair, DEFAULT_RANK_RTOL
        else:
            make, _, rel_tol, _, _ = self.CASES[case]
            inst = make()
        steps = self.FUSED_STEPS
        batches = range(1, inst.n + 1)
        fused = rank_one_bounds(inst, batches, steps=steps, rel_tol=rel_tol)
        assert len(fused) == inst.n
        for b, (value, v) in zip(batches, fused):
            single_value, single_v = rank_one_bound(inst, b, steps=steps, rel_tol=rel_tol)
            assert value == pytest.approx(single_value, rel=1e-12, abs=0.0)
            assert min(np.linalg.norm(v - single_v), np.linalg.norm(v + single_v)) <= 1e-7
            assert _rank_one_objective(inst, b, v) == pytest.approx(value, rel=1e-12, abs=0.0)
            ref_value = _reference_rank_one(inst, b, steps=steps, rel_tol=rel_tol)[0]
            assert value >= ref_value * (1.0 - 1e-12)

    def test_fused_results_follow_input_order(self):
        inst = gen_interpolating(3, 4, 1, 2)
        batches = [3, 1, 3, 4, 2]
        fused = rank_one_bounds(inst, batches, steps=self.FUSED_STEPS)
        assert len(fused) == len(batches)
        for b, (value, v) in zip(batches, fused):
            want_value, want_v = rank_one_bound(inst, b, steps=self.FUSED_STEPS)
            assert value == pytest.approx(want_value, rel=1e-12, abs=0.0)
            assert min(np.linalg.norm(v - want_v), np.linalg.norm(v + want_v)) <= 1e-7
        assert fused[0][0] == pytest.approx(fused[2][0], rel=1e-12, abs=0.0)

    def test_fused_lanes_stop_without_warning(self, scalar_pair):
        inst = gen_interpolating(3, 4, 1, 2)
        # The reference counts show lanes of one batch stopping while another's keep moving.
        stops = [_reference_rank_one(inst, b, steps=self.FUSED_STEPS)[2] for b in (1, 4)]
        assert stops == [0, 1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rank_one_bounds(inst, range(1, inst.n + 1), steps=self.FUSED_STEPS)
            rank_one_bounds(inst, range(1, inst.n + 1))
            rank_one_bounds(scalar_pair, [1, 2])
            rank_one_bounds(gen_interpolating(5, 6, 1, 8), range(1, 7), rel_tol=0.8)

    @pytest.mark.parametrize("kwargs, pattern", [({"steps": -3}, "^steps"), ({"n_starts": 0}, "^n_starts")])
    def test_rejects_bad_arguments(self, scalar_pair, kwargs, pattern):
        with pytest.raises(ValueError, match=pattern):
            rank_one_bound(scalar_pair, 1, **kwargs)
        with pytest.raises(ValueError, match=pattern):
            rank_one_bounds(scalar_pair, [1, 2], **kwargs)

    def test_rejects_empty_batches(self, scalar_pair):
        with pytest.raises(ValueError, match="^batches"):
            rank_one_bounds(scalar_pair, [])


class TestRankOneBudget:
    """steps caps the iterations and never enters them, so a larger cap never gives less."""

    def test_finding_instance_is_monotone_in_the_cap(self):
        # Under the old decaying schedule this instance gave 0.899 of the generalized
        # sharpness at 500 steps and 0.773 at 2000.
        inst = gen_regular(96, 64, 2, 1.0, False, 3)
        values = [rank_one_bound(inst, 1, steps=s)[0] for s in (0, 1, 5, 20, 50, 200, 2000, 4000)]
        assert values == sorted(values)
        assert len(set(values[4:])) == 1  # converged by a cap of 50
        assert values[-1] >= 0.89 * generalized_sharpness(inst, 1)

    @given(
        d=st.integers(2, 5),
        n=st.integers(2, 7),
        seed=st.integers(0, 2**31 - 1),
        data=st.data(),
    )
    def test_larger_cap_never_lowers_the_bound(self, d, n, seed, data):
        inst = gen_interpolating(d, n, data.draw(st.integers(1, d)), seed)
        b = data.draw(st.integers(1, n))
        s1 = data.draw(st.integers(0, 40))
        s2 = data.draw(st.integers(s1 + 1, 80))
        r1, _ = rank_one_bound(inst, b, steps=s1)
        r2, _ = rank_one_bound(inst, b, steps=s2)
        assert r1 <= r2
        gen_sharp = generalized_sharpness(inst, b)
        eig_value = 2.0 / necessary_bound_eigvec(inst, b)
        slack = 1e-9 * max(1.0, gen_sharp)
        assert gen_sharp + slack >= r2
        assert r2 + slack >= eig_value

    @pytest.mark.parametrize(
        "make, old_value",
        [
            # 2000-step values of the decaying-schedule ascent that this one replaced.
            (lambda: gen_interpolating(48, 24, 1, 9), 46.17449843833756),
            (lambda: gen_regular(20, 40, 3, 1.0, False, 5), 15.786517003863299),
        ],
    )
    def test_no_worse_local_maximum(self, make, old_value):
        # Without the 0.2-rad cap on its arcs, the ascent settles in a worse maximum on
        # the first instance: 0.717 of the generalized sharpness, against 0.756.
        assert rank_one_bound(make(), 1)[0] >= old_value * (1.0 - 1e-10)

    def test_analyze_makes_few_stacked_gemms(self, monkeypatch):
        # The old schedule ran all 2000 steps here: 2001 GEMMs.
        import sgdstab.stability as stability_module

        rows = []
        true_products = stability_module._stacked_products

        def counted(xs, row):
            rows.append(xs.shape[0])
            return true_products(xs, row)

        monkeypatch.setattr(stability_module, "_stacked_products", counted)
        inst = gen_regular(24, 16, 4, 1.0, False, 3)
        stability_verdict(inst, 4, [0.1])
        assert len(rows) <= 200, len(rows)


def _congruence_reference(inst, batch, rel_tol=DEFAULT_RANK_RTOL):
    """lambda_max of (C^{1/2})^+ D (C^{1/2})^+ with (C^{1/2})^+ from a d^2 eigendecomposition."""
    c, dmat = _dense_curvature(inst, mixing_weight(inst.n, batch))
    half_pinv = sqrt_pinv_psd(c, rel_tol=rel_tol)
    lam = float(sym_eig(symmetrize(half_pinv @ dmat @ half_pinv)).values[0])
    return max(lam, 0.0)


class TestDenseThresholdEigenbasis:
    CASES = {
        "regular": lambda: gen_regular(5, 7, 2, 1.0, False, 31),
        "interpolating": lambda: gen_interpolating(4, 6, 2, 77),
        "rank-deficient": lambda: gen_interpolating(4, 3, 1, 3),
        "regular-null-gradients": lambda: gen_regular(6, 2, 2, 1.0, True, 4),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_sqrt_pinv_congruence(self, case):
        inst = self.CASES[case]()
        for b in range(1, inst.n + 1):
            _, dmat = _dense_curvature(inst, mixing_weight(inst.n, b))
            got = _generalized_sharpness_dense(mean_hessian(inst), dmat, DEFAULT_RANK_RTOL)
            assert got == pytest.approx(_congruence_reference(inst, b), rel=1e-12, abs=0.0)

    def test_rank_deficient_case_is_rank_deficient(self):
        assert np.linalg.matrix_rank(mean_hessian(self.CASES["rank-deficient"]())) < 4

    def test_d1(self, scalar_pair):
        for b in (1, 2):
            _, dmat = _dense_curvature(scalar_pair, mixing_weight(2, b))
            got = _generalized_sharpness_dense(mean_hessian(scalar_pair), dmat, DEFAULT_RANK_RTOL)
            assert got == pytest.approx(_congruence_reference(scalar_pair, b), rel=1e-12, abs=0.0)

    def test_d24_matches_operator_path(self):
        inst = gen_regular(24, 16, 4, 1.0, False, 3)
        _, dmat = _dense_curvature(inst, mixing_weight(inst.n, 1))
        got = _generalized_sharpness_dense(mean_hessian(inst), dmat, DEFAULT_RANK_RTOL)
        assert got == pytest.approx(generalized_sharpness(inst, 1), rel=1e-12, abs=0.0)
        assert got == pytest.approx(_congruence_reference(inst, 1), rel=1e-12, abs=0.0)

    # d=24 with Hbar of rank 16: a Rayleigh-quotient stop rule was 2e-12 off here at B=1.
    LANCZOS_CASES = {**CASES, "regular-d24-rank-16": lambda: gen_regular(24, 8, 2, 1.0, True, 11)}

    @pytest.mark.parametrize("case", sorted(LANCZOS_CASES))
    def test_lanczos_matches_dense_oracle(self, case):
        inst = self.LANCZOS_CASES[case]()
        for b in range(1, inst.n + 1):
            _, dmat = _dense_curvature(inst, mixing_weight(inst.n, b))
            want = _generalized_sharpness_dense(mean_hessian(inst), dmat, DEFAULT_RANK_RTOL)
            assert generalized_sharpness(inst, b) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_lanczos_application_budget(self, counting, monkeypatch):
        # Counts repeat exactly; a slower solver behind variance_threshold would exceed them.
        import sgdstab.stability as stability_module

        applied_per_solve = []

        def counted_lanczos(op, **kwargs):
            wrapped, applied = counting(op)
            value = _lanczos_solve(wrapped, **kwargs)
            applied_per_solve.append(len(applied))
            return value

        monkeypatch.setattr(stability_module, "_lanczos_solve", counted_lanczos)
        inst = gen_regular(24, 16, 4, 1.0, False, 3)
        for b in range(1, inst.n + 1):
            variance_threshold(inst, b)
        assert len(applied_per_solve) == inst.n
        assert max(applied_per_solve) <= 48, applied_per_solve

    def test_package_solves_skip_self_adjoint_probes(self, monkeypatch):
        # The package builds its operators symmetric; only outside operators are probed.
        import sgdstab.linalg as linalg_module

        def forbidden(*args):
            raise AssertionError("self-adjoint probes ran")

        monkeypatch.setattr(linalg_module, "_check_self_adjoint", forbidden)
        inst = gen_regular(6, 5, 3, 1.0, False, 4)
        thr = variance_threshold(inst, 2)
        stability_verdict(inst, 2, [0.5 * thr], rank_one_steps=20)
        projected_transition_lambda_max(inst, 0.5 * thr, 2)
        with pytest.raises(AssertionError, match="probes ran"):
            lanczos_lambda_max(LinearOperator.from_matrix(np.eye(3)))

    def test_non_psd_c_raises(self):
        hbar = np.diag([1.0, -0.5])
        dmat = kron(hbar, hbar)
        with pytest.raises(ValueError, match="not PSD"):
            sqrt_pinv_psd(0.5 * kron_sum(hbar, hbar))
        with pytest.raises(ValueError, match="not PSD"):
            _generalized_sharpness_dense(hbar, dmat, DEFAULT_RANK_RTOL)


class TestMixtureTransition:
    def test_matches_brute_force_for_matched_weight(self):
        for n in range(2, 7):
            inst = gen_interpolating(2, n, 2, n)
            eta = 0.6 / sharpness(inst)
            for b in range(1, n + 1):
                p = mixing_weight(n, b)
                np.testing.assert_allclose(
                    mixture_transition(inst, eta, p),
                    brute_force_transition(inst, eta, b),
                    atol=1e-10,
                )

    def test_rejects_bad_weight(self, scalar_pair):
        with pytest.raises(ValueError):
            mixture_transition(scalar_pair, 0.1, 1.5)


class TestVerdict:
    def test_scalar_pair_classifications(self, scalar_pair):
        verdict = stability_verdict(scalar_pair, 1, [0.79, 0.81, 0.99, 1.01])
        assert verdict.variance_threshold == pytest.approx(0.8, abs=1e-12)
        by_eta = {round(row.eta, 2): row for row in verdict.rows}
        assert by_eta[0.79].var_stable
        assert not by_eta[0.81].var_stable
        assert by_eta[0.99].mean_stable
        assert not by_eta[1.01].mean_stable

    def test_marginal_eta_is_var_stable(self, scalar_pair):
        verdict = stability_verdict(scalar_pair, 1, [verdict_eta := 0.8])
        assert verdict.rows[0].var_stable
        assert verdict.rows[0].eta == verdict_eta

    def test_gd_regime_boundaries_coincide(self, scalar_pair):
        verdict = stability_verdict(scalar_pair, 2, [0.99, 1.01])
        assert verdict.variance_threshold == pytest.approx(verdict.mean_threshold, rel=1e-12)
        assert verdict.rows[0].mean_stable == verdict.rows[0].var_stable
        assert verdict.rows[1].mean_stable == verdict.rows[1].var_stable

    def test_verdict_invariants_random(self):
        inst = gen_interpolating(3, 6, 2, 71)
        verdict = stability_verdict(inst, 2, np.linspace(0.1, 2.0, 5) * verdict_free_threshold(inst))
        assert verdict.variance_threshold <= verdict.mean_threshold + 1e-9
        assert verdict.variance_threshold <= verdict.bound_eigvec + 1e-9
        assert verdict.variance_threshold <= verdict.bound_trace + 1e-9
        assert verdict.variance_threshold <= verdict.bound_rank_one + 1e-9

    def test_projected_spectrum_characterization(self):
        inst = gen_interpolating(3, 5, 1, 81)  # rank-deficient mean Hessian
        b = 1
        thr = variance_threshold(inst, b)
        for factor in (0.3, 0.9, 1.1, 1.7):
            lam = projected_transition_lambda_max(inst, factor * thr, b)
            assert (lam < 1.0 - 1e-9) == (factor < 1.0), (factor, lam)

    def test_projected_transition_equals_direct_product(self):
        # The projected mixture form must equal (P kron P) Q entrywise,
        # and that product is symmetric because the range projector
        # commutes with every PSD per-sample Hessian.
        inst = gen_regular(4, 3, 1, 1.0, True, 4)
        eta = 0.37 / sharpness(inst)
        q = second_moment_transition(inst, eta, 1)
        _, p_range = null_projectors(mean_hessian(inst))
        direct = kron(p_range, p_range) @ q
        assert np.max(np.abs(direct - direct.T)) < 1e-10
        lam_direct = float(np.max(np.linalg.eigvalsh(0.5 * (direct + direct.T))))
        lam_module = projected_transition_lambda_max(inst, eta, 1)
        assert lam_module == pytest.approx(lam_direct, abs=1e-10)

    def test_classifies_once(self, monkeypatch):
        import sgdstab.instances as instances_module
        import sgdstab.stability as stability_module

        calls = []
        true_classify = instances_module.classify

        def counted(*args, **kwargs):
            calls.append(1)
            return true_classify(*args, **kwargs)

        inst = gen_regular(4, 5, 3, 1.0, False, 2)
        etas = [0.5 * variance_threshold(inst, 2), 1.5 * variance_threshold(inst, 2)]
        monkeypatch.setattr(stability_module, "classify", counted)
        verdict = stability_verdict(inst, 2, etas, rank_one_steps=50)
        assert len(calls) == 1
        assert verdict.classification is MinimumClass.REGULAR
        invalid = make_instance([[[-1.0]], [[3.0]]], [[0.0], [0.0]])
        with pytest.raises(ValueError, match="not a regular or interpolating minimum"):
            stability_verdict(invalid, 1, [0.1])

    def test_decomposes_hbar_once(self, monkeypatch):
        import sgdstab.linalg as linalg_module

        inst = gen_regular(6, 5, 3, 1.0, False, 4)
        calls = []
        true_sym_eig = linalg_module.sym_eig

        def counted(*args, **kwargs):
            calls.append(1)
            return true_sym_eig(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("sgdstab") and getattr(module, "sym_eig", None) is true_sym_eig:
                monkeypatch.setattr(module, "sym_eig", counted)
        verdict = stability_verdict(inst, 2, [0.1], rank_one_steps=50)
        assert len(calls) == 1
        monkeypatch.undo()
        # The shared decomposition gives what each public function computes on its own.
        assert verdict.mean_threshold == mean_threshold(inst)
        assert verdict.variance_threshold == variance_threshold(inst, 2)
        assert verdict.bound_eigvec == necessary_bound_eigvec(inst, 2)
        assert verdict.bound_rank_one == 2.0 / rank_one_bound(inst, 2, steps=50)[0]

    def test_generalized_sharpness_matches_threshold(self):
        inst = gen_regular(5, 6, 3, 1.0, False, 12)
        for b in range(1, inst.n + 1):
            assert 2.0 / generalized_sharpness(inst, b) == variance_threshold(inst, b)
            assert curvature_operators(inst, b).generalized_sharpness == generalized_sharpness(inst, b)

    @pytest.mark.parametrize("eta", [-0.5, math.nan, math.inf])
    def test_rejects_invalid_step_size(self, scalar_pair, eta):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            stability_verdict(scalar_pair, 1, [0.5, eta])
        with pytest.raises(ValueError, match="finite and nonnegative"):
            Hyperparams(eta=eta, batch=1)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            simulate_mixture(scalar_pair, eta, 0.5, SimConfig(steps=2, replicates=2, seed=0))
        with pytest.raises(ValueError, match="finite and nonnegative"):
            second_moment_transition(scalar_pair, eta, 1)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            mixture_transition(scalar_pair, eta, 0.5)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            brute_force_transition(scalar_pair, eta, 1)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            projected_transition_lambda_max(scalar_pair, eta, 1)

    def test_verdict_runs_on_rank_deficient_regular_instance(self):
        inst = gen_regular(4, 3, 1, 1.0, True, 11)
        thr = variance_threshold(inst, 1)
        verdict = stability_verdict(inst, 1, np.linspace(0.1, 1.9, 9) * thr)
        assert verdict.variance_threshold == pytest.approx(thr, rel=1e-12)


class TestProjectedTransitionLanczos:
    """The matrix-free projected lambda_max against the dense (P kron P) Q oracle."""

    CASES = {
        "interpolating": lambda: gen_interpolating(5, 7, 2, 31),
        "regular": lambda: gen_regular(6, 5, 3, 1.0, False, 8),
        "rank-deficient-null-gradients": lambda: gen_regular(6, 4, 2, 1.0, True, 4),
        "identical-hessians": lambda: make_instance(np.repeat(gen_interpolating(4, 1, 3, 2).hessians, 3, axis=0), np.zeros((3, 4))),
        "d1": lambda: make_instance([[[1.0]], [[3.0]]], [[0.0], [0.0]]),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_dense_oracle(self, case):
        inst = self.CASES[case]()
        for b in sorted({1, max(1, inst.n // 2), inst.n}):
            thr = variance_threshold(inst, b)
            for factor in (0.3, 0.9, 1.1, 1.7):
                eta = factor * thr
                want = float(sym_eig(_projected_transition_dense(inst, eta, b)).values[0])
                got = projected_transition_lambda_max(inst, eta, b)
                assert got == pytest.approx(want, rel=1e-12, abs=0.0), (b, factor)
                # The threshold's spectral characterization: below one exactly under eta_var.
                assert (got < 1.0 - 1e-9) == (eta < thr), (b, factor, got)

    def test_rank_deficient_case_is_rank_deficient(self):
        assert np.linalg.matrix_rank(mean_hessian(self.CASES["rank-deficient-null-gradients"]())) < 6

    def test_check_fires_on_a_wrong_threshold(self, monkeypatch):
        # A solver 5% high puts the threshold below the true one; verify's
        # spectral property must catch the step sizes between the two.
        import sgdstab.stability as stability_module
        from sgdstab.cli import run_suites

        def spectral(results):
            return next(r for r in results if r.name == "threshold-spectrum-equivalence")

        assert spectral(run_suites("thresholds", 1, 2)).passed
        true_solve = stability_module._range_sharpness
        monkeypatch.setattr(stability_module, "_range_sharpness", lambda *a, **k: 1.05 * true_solve(*a, **k))
        result = spectral(run_suites("thresholds", 1, 2))
        assert result.failures == result.trials == 2


def verdict_free_threshold(inst):
    return variance_threshold(inst, 2)


class TestScaleCovariance:
    def test_all_thresholds_scale(self):
        inst = gen_interpolating(3, 5, 2, 90)
        c = 2.5
        inst_scaled = scaled(inst, c)
        b = 2
        pairs = [
            (mean_threshold(inst), mean_threshold(inst_scaled)),
            (variance_threshold(inst, b), variance_threshold(inst_scaled, b)),
            (necessary_bound_eigvec(inst, b), necessary_bound_eigvec(inst_scaled, b)),
            (necessary_bound_trace(inst, b), necessary_bound_trace(inst_scaled, b)),
            (2.0 / rank_one_bound(inst, b, seed=2)[0], 2.0 / rank_one_bound(inst_scaled, b, seed=2)[0]),
        ]
        for base, scaled_value in pairs:
            assert scaled_value == pytest.approx(base / c, rel=1e-9)


class TestRangeBasis:
    """Every spectral solve runs on the r x r range block of Hbar."""

    def test_embedded_core_above_dense_cap(self):
        # A d=12 core embedded at d=96 as H_i = U K_i U^T, with a zero-mean gradient part
        # orthogonal to U: Hbar has rank 12, and every range quantity is the core's.
        core = gen_regular(12, 10, 2, 1.0, False, 17)
        q, _ = np.linalg.qr(np.random.default_rng(18).standard_normal((96, 96)))
        u, w = q[:, :12], q[:, 12:]
        z = np.random.default_rng(19).standard_normal((core.n, 84))
        gradients = core.gradients @ u.T + (z - z.mean(axis=0)) @ w.T
        inst = make_instance(np.einsum("ak,nkl,bl->nab", u, core.hessians, u), gradients)
        assert inst.d > DENSE_CAP
        assert np.linalg.matrix_rank(mean_hessian(inst)) == 12
        assert np.max(np.abs(gradients @ w)) > 0.1
        for b in range(1, core.n + 1):
            thr = variance_threshold(core, b)
            assert variance_threshold(inst, b) == pytest.approx(thr, rel=1e-12, abs=0.0)
            for factor in (0.9, 1.1):
                want = projected_transition_lambda_max(core, factor * thr, b)
                assert projected_transition_lambda_max(inst, factor * thr, b) == pytest.approx(want, rel=1e-12, abs=0.0)
            hp = Hyperparams(eta=0.5 * thr, batch=b)
            want = u @ covariance_limit(core, hp) @ u.T
            got = covariance_limit(inst, hp)
            assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))
            for got_q, want_q in zip(asymptotic_quantities(inst, hp), asymptotic_quantities(core, hp)):
                assert got_q == pytest.approx(want_q, rel=1e-10, abs=0.0)

    def test_non_psd_mean_hessian_raises(self):
        inst = make_instance([np.diag([1.0, -0.5])], np.zeros((1, 2)))
        with pytest.raises(ValueError, match="not PSD"):
            generalized_sharpness(inst, 1)

    def test_zero_hessians_have_an_empty_range(self, monkeypatch):
        import sgdstab.stability as stability_module

        def forbidden(op, **kwargs):
            raise AssertionError(f"Lanczos ran on a {op.in_dim}-dimensional operator")

        monkeypatch.setattr(stability_module, "_lanczos_solve", forbidden)
        inst = make_instance(np.zeros((3, 4, 4)), np.zeros((3, 4)))
        assert stability_module.range_basis(inst).lam.size == 0
        for b in (1, 2, 3):
            assert generalized_sharpness(inst, b) == 0.0
            assert variance_threshold(inst, b) == math.inf
            assert projected_transition_lambda_max(inst, 0.5, b) == 0.0
