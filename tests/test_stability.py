import dataclasses
import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sgdstab import (
    Hyperparams,
    KronFamily,
    MinimumClass,
    asymptotic_quantities,
    brute_force_transition,
    certify,
    classify,
    covariance_limit,
    curvature_operators,
    gen_interpolating,
    gen_regular,
    make_instance,
    mean_threshold,
    mixing_weight,
    mixture_transition,
    necessary_bound_eigvec,
    necessary_bound_trace,
    rank_one_bound,
    second_moment_transition,
    sharpness,
    simulate_mixture,
    stability_verdict,
    variance_threshold,
)
from sgdstab.instances import stream
from sgdstab.montecarlo import SimConfig
from sgdstab.linalg import DEFAULT_RANK_RTOL, _lanczos_solve, kron, kron_sum, null_projectors, sym_eig, symmetrize
from sgdstab.stability import (
    DENSE_CAP,
    _mixture_matrix,
    _mixture_operator,
    _rank_one_ascent,
    _product_map,
    _sweep_bounds,
    generalized_sharpness,
    range_basis,
)
import oracles
from conftest import gaussian_start
from oracles import generalized_sharpness_dense, projected_transition_dense, projected_transition_lambda_max, sqrt_pinv_psd

RNG = np.random.default_rng(777)


def scaled(inst, c):
    return make_instance(c * inst.hessians, inst.gradients, label=inst.label)


def _transition_operator(inst, eta, batch):
    """Q matrix-free: the mixture operator on its factors A = I - eta*Hbar and A_i = I - eta*H_i."""
    eye = np.eye(inst.d)
    return _mixture_operator(eye - eta * inst.mean_hessian(), eye - eta * inst.hessians, mixing_weight(inst.n, batch))


def _dense_d(inst, batch):
    """The dense D of curvature_operators."""
    return curvature_operators(inst, batch, dense=True).curvature_sq


def _rank_one_block(inst, batches, steps=2000):
    """The rank-one ascent of every batch size as one block, as sweep runs it."""
    return _rank_one_ascent(inst, range_basis(inst), list(batches), steps, 0)


class TestMeanHessian:
    def test_scalar_pair(self, scalar_pair):
        np.testing.assert_array_equal(scalar_pair.mean_hessian(), [[2.0]])

    def test_identical_hessians(self):
        h = np.array([[2.0, 1.0], [1.0, 3.0]])
        inst = make_instance([h, h, h], np.zeros((3, 2)))
        np.testing.assert_array_equal(inst.mean_hessian(), h)

    def test_matches_direct_sum(self):
        inst = gen_interpolating(4, 7, 2, 5)
        direct = sum(inst.hessians[i] for i in range(inst.n)) / inst.n
        assert np.max(np.abs(inst.mean_hessian() - direct)) < 1e-14


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
            hbar = inst.mean_hessian()
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
        assert callable(report.curvature_sq) and not isinstance(report.curvature_sq, np.ndarray)


class TestDenseCap:
    """Every d^2 x d^2 matrix is refused above DENSE_CAP, before it is allocated."""

    def test_every_dense_transition_is_refused_above_the_cap(self, monkeypatch):
        import sgdstab.stability as stability_module

        monkeypatch.setattr(stability_module, "DENSE_CAP", 2)
        small, inst = gen_interpolating(2, 4, 2, 1), gen_interpolating(3, 4, 2, 1)
        builds = {
            "mixture_transition": lambda x: mixture_transition(x, 0.1, 0.5),
            "second_moment_transition": lambda x: second_moment_transition(x, 0.1, 2),
            "brute_force_transition": lambda x: brute_force_transition(x, 0.1, 2),
            "projected_transition_dense": lambda x: projected_transition_dense(x, 0.1, 2),
            "certify": lambda x: certify(KronFamily.from_matrices(x.hessians)).top_eigvec_matrix,
        }
        for name, build in builds.items():
            assert build(small).shape in {(4, 4), (2, 2)}, name
            with pytest.raises(ValueError, match="cap"):
                build(inst)

    def test_refusal_at_d100_allocates_no_d4_matrix(self):
        # One 10^4 x 10^4 matrix would take 800 MB.
        inst = make_instance(np.stack([np.eye(100)] * 3), np.zeros((3, 100)))
        builds = (
            lambda: mixture_transition(inst, 0.1, 0.5),
            lambda: second_moment_transition(inst, 0.1, 2),
            lambda: brute_force_transition(inst, 0.1, 2),
            lambda: curvature_operators(inst, 2, dense=True),
            lambda: certify(KronFamily.from_matrices(inst.hessians)),
        )
        tracemalloc.start()
        try:
            for build in builds:
                with pytest.raises(ValueError, match="cap"):
                    build()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, peak


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
            hbar = inst.mean_hessian()
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
        op = _transition_operator(scalar_pair, 0.5, 1)
        lam_op = _lanczos_solve(op, gaussian_start(scalar_pair.d**2, 3))
        dense = second_moment_transition(scalar_pair, 0.5, 1)
        lam_dense = float(np.max(np.linalg.eigvalsh(dense)))
        assert lam_op == pytest.approx(lam_dense, abs=1e-7)

    def test_operator_path_matches_dense_multidim(self):
        # The second instance is regular and rank-deficient with n > d.
        for inst in (gen_interpolating(4, 6, 2, 31), gen_regular(6, 9, 2, 1.0, True, 5)):
            eta = 0.7 / sharpness(inst)
            op = _transition_operator(inst, eta, 2)
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
        a = np.eye(3) - eta * inst.mean_hessian()
        np.testing.assert_allclose(brute_force_transition(inst, eta, 4), kron(a, a), atol=1e-12)

    def test_enumeration_cap(self):
        inst = gen_interpolating(2, 20, 1, 0)
        with pytest.raises(ValueError, match="cap"):
            brute_force_transition(inst, 0.1, 10)

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
        dense = 2.0 / generalized_sharpness_dense(inst.mean_hessian(), _dense_d(inst, 2))
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
        # d = 60 > DENSE_CAP: the threshold runs matrix-free, and the full-batch
        # threshold still equals 2 / sharpness; the dense transition is refused.
        inst = gen_interpolating(60, 6, 3, 5)
        thr = variance_threshold(inst, inst.n)
        assert thr == pytest.approx(2.0 / sharpness(inst), rel=1e-9)
        with pytest.raises(ValueError, match="cap"):
            second_moment_transition(inst, 0.01, 2)

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
        hbar = inst.mean_hessian()
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

    def test_trace_bound_allocates_no_stack_sized_temporary(self):
        # At d=96, n=64 squaring the whole Hessian stack peaked at 1.02 times its bytes.
        g = np.random.default_rng(96).standard_normal((64, 96, 4))
        inst = make_instance(g @ g.transpose(0, 2, 1), np.zeros((64, 96)))
        tracemalloc.start()
        try:
            necessary_bound_trace(inst, 4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * inst.hessians.nbytes, peak


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


def _reference_rank_one(inst, batch, steps=2000, seed=0):
    """The per-start decaying-schedule ascent that rank_one_bound ran before it
    became a quasi-Newton ascent, kept as a lower-bound oracle: from the same
    starts, the new ascent must reach at least its value.

    Returns (best value, maximizer, counts of starts that stopped on a
    vanishing gradient and that collapsed into the null space).
    """
    eig = sym_eig(inst.mean_hessian())
    lam = float(eig.values[0])
    if lam <= 0:
        raise ValueError("mean Hessian has no positive eigenvalue")
    hbar = inst.mean_hessian()
    p = mixing_weight(inst.n, batch)
    _, p_range = null_projectors(hbar)
    rng = stream(seed, index=1)
    starts = [eig.vectors[:, 0]]
    while len(starts) < 8:
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
    floor = DEFAULT_RANK_RTOL * lam
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
    hbar = inst.mean_hessian()
    a = float(v @ hbar @ v)
    dev = np.einsum("i,nij,j->n", v, inst.hessians, v) - a
    return a + mixing_weight(inst.n, batch) * float(np.mean(dev * dev)) / a


def _relative_riemannian_gradient(inst, batch, v):
    """|grad f(v) projected on the tangent space at v| / f(v), by direct products."""
    p = mixing_weight(inst.n, batch)
    hbar = inst.mean_hessian()
    a = float(v @ hbar @ v)
    hv, hiv = hbar @ v, inst.hessians @ v
    dev = hiv @ v - a
    g = float(np.mean(dev * dev))
    grad = 2.0 * (1.0 - p * g / (a * a)) * hv + (4.0 * p / a) * np.einsum("n,ni->i", dev / inst.n, hiv - hv)
    return float(np.linalg.norm(grad - (grad @ v) * v)) / (a + p * g / a)


def _subspace_instance():
    """d=5, n=4: full-rank 3 x 3 cores H_i = U K_i U^T in a common 3-dimensional subspace.

    Hbar has rank r = 3 < d, and q = 3 gives q (r + q) >= r^2, so the range
    basis keeps the rotated Hessians k rather than factors.
    """
    rng = np.random.default_rng(2)
    u = np.linalg.qr(rng.standard_normal((5, 5)))[0][:, :3]
    f = u @ rng.standard_normal((4, 3, 3))
    return make_instance(f @ f.transpose(0, 2, 1), np.zeros((4, 5)))


class TestBatchedRankOneAscent:
    # (instance, batch, starts that stop early, starts that collapse)
    CASES = {
        "some-stop-early-b1": (lambda: gen_interpolating(3, 4, 1, 2), 1, 6, 0),
        "all-stop-early-b1": (lambda: gen_interpolating(3, 5, 2, 62), 1, 8, 0),
        "batch-equals-n": (lambda: gen_regular(4, 6, 2, 1.0, False, 5), 6, 1, 0),
        "rank-deficient-interpolating": (lambda: gen_interpolating(4, 3, 1, 3), 1, 6, 0),
        "rank-deficient-dense-range": (_subspace_instance, 1, 5, 0),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_per_start_loop(self, case):
        make, batch, want_stopped, want_collapsed = self.CASES[case]
        inst = make()
        ref_value, _, stopped, collapsed = _reference_rank_one(inst, batch)
        # The case exercises, in the reference loop, the lane masks it is named for.
        assert (stopped, collapsed) == (want_stopped, want_collapsed)
        value, v = rank_one_bound(inst, batch)
        # From the same starts the quasi-Newton ascent reaches at least the old schedule's
        # 2000-step value, and stops at a stationary point of f.
        assert value >= ref_value * (1.0 - 1e-12)
        assert _rank_one_objective(inst, batch, v) == pytest.approx(value, rel=1e-12, abs=0.0)
        assert _relative_riemannian_gradient(inst, batch, v) <= 1e-8
        # The ascent runs in Hbar's range coordinates, so the maximizer V_r w has no null part.
        p_null, _ = null_projectors(inst.mean_hessian())
        assert np.linalg.norm(p_null @ v) <= 1e-14

    def test_dense_range_case_keeps_the_rotated_hessians(self):
        basis = range_basis(_subspace_instance())
        assert basis.lam.size == 3 and basis.ut is None and basis.k.shape == (4, 3, 3)

    def test_d1_every_start_stops_at_once(self, scalar_pair):
        ref_value, ref_v, stopped, _ = _reference_rank_one(scalar_pair, 1)
        assert stopped == 8
        value, v = rank_one_bound(scalar_pair, 1)
        assert value == ref_value
        assert abs(v[0]) == abs(ref_v[0])

    def test_masked_lanes_raise_no_warning(self, scalar_pair):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # d=1 has an exactly zero tangent gradient.
            rank_one_bound(scalar_pair, 1)
            rank_one_bound(gen_interpolating(3, 4, 1, 2), 1)

    # Every batch of an instance runs as one block.  The reference loop costs about
    # a second per batch at 2000 steps, so the block is compared at 400 steps.
    FUSED_STEPS = 400

    @pytest.mark.parametrize("case", sorted(CASES) + ["scalar-pair"])
    def test_fused_block_matches_per_batch(self, case, scalar_pair):
        inst = scalar_pair if case == "scalar-pair" else self.CASES[case][0]()
        steps = self.FUSED_STEPS
        batches = range(1, inst.n + 1)
        fused = _rank_one_block(inst, batches, steps=steps)
        assert len(fused) == inst.n
        for b, (value, v) in zip(batches, fused):
            single_value, single_v = rank_one_bound(inst, b, steps=steps)
            assert value == pytest.approx(single_value, rel=1e-12, abs=0.0)
            assert min(np.linalg.norm(v - single_v), np.linalg.norm(v + single_v)) <= 1e-7
            assert _rank_one_objective(inst, b, v) == pytest.approx(value, rel=1e-12, abs=0.0)
            ref_value = _reference_rank_one(inst, b, steps=steps)[0]
            assert value >= ref_value * (1.0 - 1e-12)

    def test_fused_results_follow_input_order(self):
        inst = gen_interpolating(3, 4, 1, 2)
        batches = [3, 1, 3, 4, 2]
        fused = _rank_one_block(inst, batches, steps=self.FUSED_STEPS)
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
            _rank_one_block(inst, range(1, inst.n + 1), steps=self.FUSED_STEPS)
            _rank_one_block(inst, range(1, inst.n + 1))
            _rank_one_block(scalar_pair, [1, 2])

    @pytest.mark.parametrize("kwargs, pattern", [({"steps": -3}, "^steps")])
    def test_rejects_bad_arguments(self, scalar_pair, kwargs, pattern):
        with pytest.raises(ValueError, match=pattern):
            rank_one_bound(scalar_pair, 1, **kwargs)
        with pytest.raises(ValueError, match=pattern):
            _rank_one_block(scalar_pair, [1, 2], **kwargs)

    def test_rejects_empty_batches(self, scalar_pair):
        with pytest.raises(ValueError, match="^batches"):
            _rank_one_block(scalar_pair, [])

    def test_rejects_non_psd_mean_hessian(self):
        # Hbar = diag(1, -2): range_basis's PSD check raises, as for generalized_sharpness.
        inst = make_instance([np.diag([1.0, -3.0]), np.diag([1.0, -1.0])], np.zeros((2, 2)))
        with pytest.raises(ValueError, match="not PSD"):
            generalized_sharpness(inst, 1)
        with pytest.raises(ValueError, match="not PSD"):
            rank_one_bound(inst, 1)
        with pytest.raises(ValueError, match="not PSD"):
            _rank_one_block(inst, [1, 2])


def _factor_instances():
    """Two instances whose range basis keeps factors, both with a rank-deficient Hbar.

    The first has per-sample ranks 1, 2, 3, 0, 3, 2 inside a 9-dimensional
    subspace of R^12, so H_3 is zero; the second is regular with null-space
    gradients.
    """
    rng = np.random.default_rng(41)
    sub = np.linalg.qr(rng.standard_normal((12, 12)))[0][:, :9]
    factors = [sub @ rng.standard_normal((9, rank)) for rank in (1, 2, 3, 0, 3, 2)]
    return [make_instance(np.stack([g @ g.T for g in factors]), np.zeros((6, 12))), gen_regular(30, 6, 3, 1.0, True, 6)]


class TestFactoredAscent:
    """Where the range basis keeps factors, the ascent computes k_i w as U_i (U_i^T w)."""

    @pytest.mark.parametrize("index", [0, 1])
    def test_products_match_the_dense_block_row(self, index):
        # The ascent runs in Hbar's range coordinates: the oracle is the block row
        # [V_r^T H_1 V_r, ..., V_r^T H_n V_r, V_r^T Hbar V_r], on both branches.
        inst = _factor_instances()[index]
        basis = range_basis(inst)
        n, r, v = inst.n, basis.lam.size, basis.v
        assert basis.ut is not None and r < inst.d
        k = v.T @ inst.hessians @ v
        row = np.concatenate([k, (v.T @ inst.mean_hessian() @ v)[None]]).transpose(1, 0, 2).reshape(r, (n + 1) * r)
        ws = np.random.default_rng(index).standard_normal((16, r))
        want = (ws @ row).reshape(16, n + 1, r)
        for branch in (basis, dataclasses.replace(basis, k=k, ut=None)):
            got = _product_map(branch)(ws)
            assert got.shape == (16, n + 1, r)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_full_rank_hessians_take_the_block_row(self, monkeypatch):
        # Full-rank H_i fail q (r + q) < r^2, so the ascent multiplies by the dense block row.
        import sgdstab.stability as stability_module

        inst = gen_regular(8, 6, 8, 1.0, False, 8)
        assert range_basis(inst).ut is None
        factored = []
        true_map = stability_module._product_map

        def recorded(basis):
            factored.append(basis.ut is not None)
            return true_map(basis)

        monkeypatch.setattr(stability_module, "_product_map", recorded)
        rank_one_bound(inst, 2)
        assert factored == [False]

    def test_values_match_the_dense_path(self, monkeypatch):
        # The same ascent with range_basis made to keep no factors reaches the same maxima.
        import sgdstab.stability as stability_module

        insts = _factor_instances()
        factored = [rank_one_bound(inst, b)[0] for inst in insts for b in (1, 3)]
        monkeypatch.setattr(stability_module, "_sample_factors", lambda *args: None)
        dense = [rank_one_bound(inst, b)[0] for inst in insts for b in (1, 3)]
        np.testing.assert_allclose(factored, dense, rtol=1e-10, atol=0.0)


class TestSweepBounds:
    """_sweep_bounds shares one range basis across its batch sizes and returns what the public functions do."""

    CASES = {
        "interpolating": (lambda: gen_interpolating(12, 10, 2, 5), True),
        "regular": (lambda: gen_regular(10, 8, 3, 1.0, False, 6), True),
        "rank-deficient": (lambda: gen_regular(20, 4, 2, 1.0, True, 7), True),
        "full-rank-hessians": (lambda: gen_regular(8, 6, 8, 1.0, False, 8), False),
        # Commuting H_i, where the top mode of the threshold congruence switches with B:
        # at B = 1 it is 4, on the first coordinate; at B = 2 (p = 0) it is 3, the sharpness.
        "commuting-mode-switch": (lambda: make_instance([np.diag([4.0, 3.0]), np.diag([0.0, 3.0])], np.zeros((2, 2))), False),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_the_public_functions(self, case):
        make, factored = self.CASES[case]
        inst = make()
        assert (range_basis(inst).ut is not None) is factored
        batches = list(range(1, inst.n + 1))
        kind, lam, rows = _sweep_bounds(inst, batches, 20, 0)
        assert kind is classify(inst)
        assert lam == sharpness(inst)
        for b, (gen_sharp, _, eig_bound) in zip(batches, rows):
            assert gen_sharp == generalized_sharpness(inst, b)
            assert eig_bound == necessary_bound_eigvec(inst, b)

    def test_top_mode_switch(self):
        inst = self.CASES["commuting-mode-switch"][0]()
        _, _, rows = _sweep_bounds(inst, [1, 2], 20, 0)
        assert [gen_sharp for gen_sharp, _, _ in rows] == [pytest.approx(4.0, rel=1e-12), pytest.approx(3.0, rel=1e-12)]

    def test_rejects_an_invalid_instance(self):
        inst = make_instance([[[-1.0]], [[3.0]]], [[0.0], [0.0]])
        assert generalized_sharpness(inst, 1) > 0  # range_basis itself does not reject it
        with pytest.raises(ValueError, match="not a regular or interpolating minimum"):
            _sweep_bounds(inst, [1, 2], 5, 0)

    def test_hbar_not_psd_gets_the_input_error(self):
        # Every caller of range_basis, also the unclassified generalized_sharpness, says first
        # that the instance is invalid, then that Hbar failed the PSD test.
        inst = make_instance([[[-3.0]], [[1.0]]], [[0.0], [0.0]])
        hp = Hyperparams(eta=0.1, batch=1)
        for call in (
            lambda: _sweep_bounds(inst, [1, 2], 5, 0),
            lambda: stability_verdict(inst, 1, [0.1]),
            lambda: variance_threshold(inst, 1),
            lambda: generalized_sharpness(inst, 1),
            lambda: curvature_operators(inst, 1),
            lambda: covariance_limit(inst, hp),
        ):
            with pytest.raises(ValueError, match="not a regular or interpolating minimum"):
                call()


class TestRankOneBudget:
    """steps caps the iterations and never enters them, so a larger cap never gives less."""

    def test_finding_instance_is_monotone_in_the_cap(self):
        # Under the old decaying schedule this instance gave 0.899 of the generalized
        # sharpness at 500 steps and 0.773 at 2000.
        inst = gen_regular(96, 64, 2, 1.0, False, 3)
        values = [rank_one_bound(inst, 1, steps=s)[0] for s in (0, 1, 5, 20, 50, 200, 2000, 4000)]
        assert values == sorted(values)
        assert len(set(values[4:])) == 1  # converged by a cap of 50
        assert round(values[-1], 2) == 90.59
        assert values[-1] >= 0.89 * generalized_sharpness(inst, 1)
        assert range_basis(inst).ut is not None  # the ascent ran on the factors

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
        true_map = stability_module._product_map

        def counted(basis):
            products = true_map(basis)

            def apply(xs):
                rows.append(xs.shape[0])
                return products(xs)

            return apply

        monkeypatch.setattr(stability_module, "_product_map", counted)
        inst = gen_regular(24, 16, 4, 1.0, False, 3)
        stability_verdict(inst, 4, [0.1])
        assert len(rows) <= 200, len(rows)


def _indefinite_instance():
    """d=4, n=5: Hbar = diag(1, 2, 3, 4) plus zero-mean symmetric noise large enough to make H_i indefinite."""
    s = np.random.default_rng(62).standard_normal((5, 4, 4))
    s = s + s.transpose(0, 2, 1)
    return make_instance(np.diag([1.0, 2.0, 3.0, 4.0]) + s - s.mean(axis=0), np.zeros((5, 4)))


def _congruence_reference(inst, batch):
    """lambda_max of (C^{1/2})^+ D (C^{1/2})^+ with (C^{1/2})^+ from a d^2 eigendecomposition."""
    report = curvature_operators(inst, batch, dense=True)
    c, dmat = report.curvature_sum, report.curvature_sq
    half_pinv = sqrt_pinv_psd(c)
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
            got = generalized_sharpness_dense(inst.mean_hessian(), _dense_d(inst, b))
            assert got == pytest.approx(_congruence_reference(inst, b), rel=1e-12, abs=0.0)

    def test_rank_deficient_case_is_rank_deficient(self):
        assert np.linalg.matrix_rank(self.CASES["rank-deficient"]().mean_hessian()) < 4

    def test_d1(self, scalar_pair):
        for b in (1, 2):
            got = generalized_sharpness_dense(scalar_pair.mean_hessian(), _dense_d(scalar_pair, b))
            assert got == pytest.approx(_congruence_reference(scalar_pair, b), rel=1e-12, abs=0.0)

    def test_d24_matches_operator_path(self):
        inst = gen_regular(24, 16, 4, 1.0, False, 3)
        got = generalized_sharpness_dense(inst.mean_hessian(), _dense_d(inst, 1))
        assert got == pytest.approx(generalized_sharpness(inst, 1), rel=1e-12, abs=0.0)
        assert got == pytest.approx(_congruence_reference(inst, 1), rel=1e-12, abs=0.0)

    LANCZOS_CASES = {
        **CASES,
        # d=24 with Hbar of rank 16: a Rayleigh-quotient stop rule was 2e-12 off here at B=1.
        "regular-d24-rank-16": lambda: gen_regular(24, 8, 2, 1.0, True, 11),
        # Commuting diagonal H_i: the Krylov space from diag(sqrt(lam)) stays inside the
        # diagonal matrices, which hold the top eigenvector.
        "commuting-diagonal": lambda: make_instance(
            np.array([np.diag(row) for row in np.random.default_rng(61).uniform(0.0, 2.0, (5, 6))]), np.zeros((5, 6))
        ),
        # Indefinite H_i with a positive definite Hbar: S is still a positive map.
        "indefinite-samples": _indefinite_instance,
    }

    @pytest.mark.parametrize("case", sorted(LANCZOS_CASES))
    def test_lanczos_matches_dense_oracle(self, case):
        inst = self.LANCZOS_CASES[case]()
        hbar = inst.mean_hessian()
        for b in range(1, inst.n + 1):
            # _mixture_matrix is curvature_operators' dense D, built here without its class check.
            want = generalized_sharpness_dense(hbar, _mixture_matrix(hbar, inst.hessians, mixing_weight(inst.n, b)))
            assert generalized_sharpness(inst, b) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_indefinite_case_is_indefinite(self):
        inst = _indefinite_instance()
        assert np.min(np.linalg.eigvalsh(inst.hessians)) < 0 < np.min(np.linalg.eigvalsh(inst.mean_hessian()))

    @pytest.mark.parametrize("case", sorted(LANCZOS_CASES))
    def test_first_rayleigh_quotient_is_the_trace_bound(self, case, monkeypatch):
        # From Y0 = diag(sqrt(lam)) the first Rayleigh quotient is tr(D_r(I)) / tr(Lam),
        # which is 2 / necessary_bound_trace when the H_i vanish off the range of Hbar.
        import sgdstab.stability as stability_module

        inst = self.LANCZOS_CASES[case]()
        quotients = []

        def recorded(op, start):
            quotients.append(float(start @ op(start)) / float(start @ start))
            return _lanczos_solve(op, start)

        monkeypatch.setattr(stability_module, "_lanczos_solve", recorded)
        for b in sorted({1, 2, inst.n}):
            generalized_sharpness(inst, b)
            assert quotients[-1] == pytest.approx(2.0 / necessary_bound_trace(inst, b), rel=1e-12, abs=0.0)

    def test_lanczos_application_budget(self, counting, monkeypatch):
        # Counts repeat exactly; a slower solver behind variance_threshold would exceed them.
        import sgdstab.stability as stability_module

        applied_per_solve = []

        def counted_lanczos(op, start):
            wrapped, applied = counting(op)
            value = _lanczos_solve(wrapped, start)
            applied_per_solve.append(len(applied))
            return value

        monkeypatch.setattr(stability_module, "_lanczos_solve", counted_lanczos)
        inst = gen_regular(24, 16, 4, 1.0, False, 3)
        for b in range(1, inst.n + 1):
            variance_threshold(inst, b)
        assert len(applied_per_solve) == inst.n
        assert max(applied_per_solve) <= 32, applied_per_solve

    def test_non_psd_c_raises(self):
        hbar = np.diag([1.0, -0.5])
        dmat = kron(hbar, hbar)
        with pytest.raises(ValueError, match="not PSD"):
            sqrt_pinv_psd(0.5 * kron_sum(hbar, hbar))
        with pytest.raises(ValueError, match="not PSD"):
            generalized_sharpness_dense(hbar, dmat)


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
        _, p_range = null_projectors(inst.mean_hessian())
        direct = kron(p_range, p_range) @ q
        assert np.max(np.abs(direct - direct.T)) < 1e-10
        lam_direct = float(np.max(np.linalg.eigvalsh(0.5 * (direct + direct.T))))
        lam_module = projected_transition_lambda_max(inst, eta, 1)
        assert lam_module == pytest.approx(lam_direct, abs=1e-10)

    def test_decomposes_the_hessian_stack_once(self, monkeypatch, stack_decompositions):
        # The one batched eigh of the H_i in range_basis both classifies the instance and factors it.
        inst = gen_regular(4, 5, 3, 1.0, False, 2)
        etas = [0.5 * variance_threshold(inst, 2), 1.5 * variance_threshold(inst, 2)]
        calls = stack_decompositions(inst)
        verdict = stability_verdict(inst, 2, etas)
        assert len(calls) == 1
        assert verdict.classification is MinimumClass.REGULAR is classify(inst)
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
        verdict = stability_verdict(inst, 2, [0.1])
        assert len(calls) == 1
        monkeypatch.undo()
        # The shared decomposition gives what each public function computes on its own.
        assert verdict.mean_threshold == mean_threshold(inst)
        assert verdict.variance_threshold == variance_threshold(inst, 2)
        assert verdict.bound_eigvec == necessary_bound_eigvec(inst, 2)
        assert verdict.sharpness == sharpness(inst)
        assert verdict.bound_rank_one == 2.0 / rank_one_bound(inst, 2)[0]

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
                want = float(sym_eig(projected_transition_dense(inst, eta, b)).values[0])
                got = projected_transition_lambda_max(inst, eta, b)
                assert got == pytest.approx(want, rel=1e-12, abs=0.0), (b, factor)
                # The threshold's spectral characterization: below one exactly under eta_var.
                assert (got < 1.0 - 1e-9) == (eta < thr), (b, factor, got)

    def test_rank_deficient_case_is_rank_deficient(self):
        assert np.linalg.matrix_rank(self.CASES["rank-deficient-null-gradients"]().mean_hessian()) < 6

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
        assert np.linalg.matrix_rank(inst.mean_hessian()) == 12
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

        def forbidden(op, start):
            raise AssertionError(f"Lanczos ran on a {start.size}-dimensional operator")

        monkeypatch.setattr(stability_module, "_lanczos_solve", forbidden)
        monkeypatch.setattr(oracles, "_lanczos_solve", forbidden)
        inst = make_instance(np.zeros((3, 4, 4)), np.zeros((3, 4)))
        assert stability_module.range_basis(inst).lam.size == 0
        for b in (1, 2, 3):
            assert generalized_sharpness(inst, b) == 0.0
            assert variance_threshold(inst, b) == math.inf
            assert projected_transition_lambda_max(inst, 0.5, b) == 0.0

    def test_factored_kernel_matches_the_dense_sandwich(self):
        # Per-sample ranks 1, 2, 3, 0, 3, 2 inside a 9-dimensional subspace of R^12:
        # Hbar has rank 9 < d, H_3 is zero, and q = 3 gives 3 (9 + 3) < 81.
        import sgdstab.stability as stability_module

        inst = _factor_instances()[0]
        basis = stability_module.range_basis(inst)
        assert basis.lam.size == 9 and basis.ut.shape == (6, 3, 9)
        assert basis.k is None
        assert np.all(basis.ut[3] == 0.0) and np.all(basis.ut[0, :2] == 0.0)
        gt = stability_module._sample_factors(*np.linalg.eigh(inst.hessians), 9)  # the G_i^T behind ut
        assert gt.shape == (6, 3, 12)
        assert np.all(gt[3] == 0.0) and np.all(gt[0, :2] == 0.0)
        scale = np.max(np.abs(inst.hessians))
        np.testing.assert_allclose(gt.transpose(0, 2, 1) @ gt, inst.hessians, rtol=0.0, atol=1e-13 * scale)
        k = basis.v.T @ inst.hessians @ basis.v  # the dense oracle of U_i U_i^T
        np.testing.assert_allclose(basis.ut.transpose(0, 2, 1) @ basis.ut, k, rtol=0.0, atol=1e-13 * np.max(np.abs(k)))
        dense = dataclasses.replace(basis, k=k, ut=None)
        x = np.random.default_rng(42).standard_normal((9, 9))  # Lanczos vectors need not be symmetric
        for p in (0.0, 0.5, 1.0):
            want = stability_module._range_d(dense, p)(x)
            got = stability_module._range_d(basis, p)(x)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("rank, factored", [(4, True), (5, False), (8, False)])
    def test_path_follows_the_flop_count(self, rank, factored):
        # r = d = 8: the factors take 4 n q r (r + q) flops, the dense sandwich 4 n r^3,
        # so they are kept exactly when q (8 + q) < 64, that is q <= 4.
        import sgdstab.stability as stability_module

        basis = stability_module.range_basis(gen_interpolating(8, 6, rank, 3))
        assert basis.lam.size == 8
        assert (basis.ut is not None) is (basis.k is None) is factored
        if factored:
            assert basis.ut.shape == (6, rank, 8)
        else:
            assert basis.k.shape == (6, 8, 8)

    def test_factored_solves_match_the_dense_sandwich_above_cap(self, monkeypatch):
        # Rank-2 Hessians at d=96, n=24: r = 48 and q = 2.  The oracle is every solve
        # again on the dense sandwich sum, with range_basis made to keep no factors.
        import sgdstab.stability as stability_module

        inst = gen_regular(96, 24, 2, 1.0, False, 5)
        assert stability_module.range_basis(inst).ut.shape == (24, 2, 48)
        batches, factors = (1, 4), (0.9, 1.1)

        def solves():
            thr = [variance_threshold(inst, b) for b in batches]
            trans = [projected_transition_lambda_max(inst, f * t, b) for b, t in zip(batches, thr) for f in factors]
            hps = [Hyperparams(eta=0.5 * t, batch=b) for b, t in zip(batches, thr)]
            return thr, trans, [covariance_limit(inst, hp) for hp in hps], [asymptotic_quantities(inst, hp) for hp in hps]

        thr, trans, limits, quantities = solves()
        monkeypatch.setattr(stability_module, "_sample_factors", lambda *args: None)
        assert stability_module.range_basis(inst).ut is None
        thr_d, trans_d, limits_d, quantities_d = solves()
        np.testing.assert_allclose(thr, thr_d, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(trans, trans_d, rtol=1e-12, atol=0.0)
        for got, want in zip(limits, limits_d):
            assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))
        np.testing.assert_allclose(quantities, quantities_d, rtol=1e-10, atol=0.0)

    def test_indefinite_sample_hessian_takes_the_dense_sandwich(self):
        # H_0 = (w_1 w_1^T - w_2 w_2^T) / 2 is indefinite, so the instance is invalid, yet
        # generalized_sharpness does not classify it.  Dropping H_0's negative eigenvalue
        # would change the value; the PSD test sends it to the dense sandwich sum instead.
        import sgdstab.stability as stability_module

        base = gen_interpolating(20, 30, 2, 8)
        w = np.random.default_rng(9).standard_normal((20, 2))
        hessians = base.hessians.copy()
        hessians[0] = 0.5 * (np.outer(w[:, 0], w[:, 0]) - np.outer(w[:, 1], w[:, 1]))
        inst = make_instance(hessians, np.zeros((30, 20)))
        basis = stability_module.range_basis(inst)
        assert basis.ut is None and basis.k.shape == (30, 20, 20)
        assert basis.kind is MinimumClass.INVALID
        hbar = inst.mean_hessian()
        for b in (1, 3):
            want = generalized_sharpness_dense(hbar, stability_module._mixture_matrix(hbar, inst.hessians, mixing_weight(30, b)))
            assert generalized_sharpness(inst, b) == pytest.approx(want, rel=1e-12, abs=0.0)
