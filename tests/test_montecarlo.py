import dataclasses
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

import sgdstab.montecarlo as mc
from sgdstab import (
    Hyperparams,
    SimConfig,
    classify_unstable,
    empirical_threshold,
    gen_interpolating,
    gen_regular,
    iterate_moments,
    make_instance,
    point_state,
    simulate_mixture,
    simulate_sgd,
    variance_threshold,
)
from oracles import reference_bisection, splitmix64
from sgdstab.instances import splitmix64 as vector_splitmix64
from sgdstab.linalg import null_projectors, sym_eig
from sgdstab.montecarlo import growth_window, initial_offset, write_empirical_csv
from sgdstab.stability import mixing_weight, sharpness


class TestBasics:
    def test_zero_step_is_constant(self, scalar_pair):
        cfg = SimConfig(steps=50, replicates=16, seed=3)
        em = simulate_sgd(scalar_pair, Hyperparams(eta=0.0, batch=1), cfg)
        np.testing.assert_array_equal(em.mean_sq_perp, np.full(51, em.mean_sq_perp[0]))
        np.testing.assert_array_equal(em.mean_offset, np.tile(em.mean_offset[0], (51, 1)))
        assert not em.diverged

    def test_reproducible_bitwise(self):
        inst = gen_interpolating(3, 5, 2, 8)
        cfg = SimConfig(steps=40, replicates=64, seed=97)
        hp = Hyperparams(eta=0.3 / sharpness(inst), batch=2)
        a = simulate_sgd(inst, hp, cfg)
        b = simulate_sgd(inst, hp, cfg)
        np.testing.assert_array_equal(a.mean_offset, b.mean_offset)
        np.testing.assert_array_equal(a.mean_sq_perp, b.mean_sq_perp)
        np.testing.assert_array_equal(a.mean_sq_par, b.mean_sq_par)
        assert a.diverged_count == b.diverged_count

    def test_chunking_does_not_change_results(self, monkeypatch):
        inst = gen_interpolating(2, 4, 2, 9)
        hp = Hyperparams(eta=0.3 / sharpness(inst), batch=1)
        cfg = SimConfig(steps=20, replicates=50, seed=5)
        full = simulate_sgd(inst, hp, cfg)
        import sgdstab.montecarlo as mc

        # 20 steps * B=1 indices + B * d = 2 drift rows per replicate: force 5-replicate chunks.
        monkeypatch.setattr(mc, "_CHUNK_ENTRY_BUDGET", 22 * 5)
        chunked = simulate_sgd(inst, hp, cfg)
        # Every draw is a function of (seed, replicate, step, slot), so each
        # replicate's path is the same in any chunk and chunking only
        # reorders the final reduction; results agree to roundoff.
        np.testing.assert_allclose(full.mean_sq_perp, chunked.mean_sq_perp, rtol=1e-12)
        np.testing.assert_allclose(full.mean_offset, chunked.mean_offset, rtol=1e-12, atol=1e-15)
        assert full.diverged_count == chunked.diverged_count

    def test_jensen_inequality_between_moments(self):
        inst = gen_regular(3, 4, 2, 1.0, False, 10)
        cfg = SimConfig(steps=30, replicates=256, seed=1)
        em = simulate_sgd(inst, Hyperparams(eta=0.2 / sharpness(inst), batch=2), cfg)
        norms_sq = np.sum(em.mean_offset**2, axis=1)
        assert np.all(em.mean_sq_par + em.mean_sq_perp >= norms_sq - 1e-12)

    def test_explicit_initial_offset(self, scalar_pair):
        cfg = SimConfig(steps=4, replicates=8, seed=0, init_offset=np.array([2.0]))
        em = simulate_sgd(scalar_pair, Hyperparams(eta=0.0, batch=1), cfg)
        assert em.mean_sq_perp[0] == pytest.approx(4.0, abs=1e-14)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"divergence_factor": math.nan}, "^divergence_factor"),
            ({"divergence_factor": math.inf}, "^divergence_factor"),
            ({"divergence_factor": 1.0}, "^divergence_factor"),
            ({"init_offset": math.nan}, "^init_offset"),
            ({"init_offset": -math.inf}, "^init_offset"),
            ({"init_offset": np.array([1.0, math.nan])}, "^init_offset"),
        ],
    )
    def test_rejects_bad_settings(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            SimConfig(steps=4, replicates=8, seed=0, **kwargs)

    def test_initial_offset_rejects(self):
        zero = make_instance(np.zeros((2, 2, 2)), np.zeros((2, 2)))
        with pytest.raises(ValueError, match=r"^init_offset must have shape \(2,\), got \(3,\)"):
            initial_offset(zero, SimConfig(steps=3, replicates=2, seed=0, init_offset=np.ones(3)))
        # A scalar start is drawn in the range of Hbar, which is {0} here.
        with pytest.raises(ValueError, match="^could not draw an initial offset in the range of the mean Hessian"):
            initial_offset(zero, SimConfig(steps=3, replicates=2, seed=0))

    def test_default_offset_in_range_of_hessian(self, rank_one_walk):
        cfg = SimConfig(steps=1, replicates=1, seed=12)
        x0 = initial_offset(rank_one_walk, cfg)
        p_null, _ = null_projectors(rank_one_walk.mean_hessian())
        assert np.linalg.norm(p_null @ x0) < 1e-10
        assert np.linalg.norm(x0) == pytest.approx(1.0, abs=1e-12)


class TestConvergenceAndDivergence:
    def test_scalar_pair_converges_below_threshold(self, scalar_pair):
        cfg = SimConfig(steps=2000, replicates=2000, seed=21)
        em = simulate_sgd(scalar_pair, Hyperparams(eta=0.4, batch=1), cfg)
        assert not em.diverged
        assert em.mean_sq_perp[-1] < 1e-3 * em.mean_sq_perp[0]

    def test_scalar_pair_diverges_above_threshold(self, scalar_pair):
        # eta = 1.0 > 0.8; a modest divergence factor keeps the flag
        # reliable despite the exact absorption at A = 0.
        cfg = SimConfig(steps=2000, replicates=2000, seed=21, divergence_factor=1e4)
        em = simulate_sgd(scalar_pair, Hyperparams(eta=1.0, batch=1), cfg)
        assert em.diverged
        assert em.divergence_step is not None and em.divergence_step < 2000
        assert em.diverged_count >= 1

    def test_crossed_replicates_stay_frozen(self):
        # Both samples have H = 2, so at eta = 2 every replicate follows
        # x <- -3x: |x|^2 = 9^t crosses 1e4 * (1 + 1) at t = 5 and then freezes.
        inst = make_instance([[[2.0]], [[2.0]]], [[0.0], [0.0]])
        cfg = SimConfig(steps=12, replicates=6, seed=4, divergence_factor=1e4, init_offset=np.array([1.0]))
        em = simulate_sgd(inst, Hyperparams(eta=2.0, batch=1), cfg)
        np.testing.assert_array_equal(em.mean_sq_perp[:6], 9.0 ** np.arange(6))
        np.testing.assert_array_equal(em.mean_sq_perp[5:], np.full(8, 9.0**5))
        assert em.divergence_step == 5 and em.diverged_count == 6

    def test_diverged_replicates_freeze_and_saturate(self, scalar_pair):
        cfg = SimConfig(steps=500, replicates=500, seed=2, divergence_factor=1e4)
        em = simulate_sgd(scalar_pair, Hyperparams(eta=1.4, batch=1), cfg)
        assert em.diverged
        assert np.all(np.isfinite(em.mean_sq_perp))
        assert np.all(np.isfinite(em.mean_offset))


class TestDivergenceRule:
    """A replicate diverges when |x_perp|^2 > F * (1 + |x0_perp|^2); the null-space walk never counts."""

    def test_null_walk_does_not_flag_a_stable_run(self):
        # Hbar has rank 3 in R^4 and the gradients reach its null direction, so the
        # null part is a drift-free random walk at half the threshold.  Judged on
        # the full |x|^2, two replicates crossed at step 196 and froze.
        inst = gen_regular(4, 8, 2, 1.0, True, 3)
        hp = Hyperparams(eta=0.5 * variance_threshold(inst, 1), batch=1)
        cfg = SimConfig(steps=400, replicates=64, seed=5, divergence_factor=30.0)
        em = simulate_sgd(inst, hp, cfg)
        assert not em.diverged and em.divergence_step is None and em.diverged_count == 0
        assert not classify_unstable(em, cfg)
        loose = simulate_sgd(inst, hp, dataclasses.replace(cfg, divergence_factor=1e6))
        for name in ("mean_sq_perp", "mean_sq_par", "mean_offset"):
            np.testing.assert_array_equal(getattr(em, name), getattr(loose, name))
        assert em.mean_sq_par[-1] > em.mean_sq_par[0]

    @pytest.mark.parametrize("factor", [1.5, 3.0, 30.0])
    @pytest.mark.parametrize(
        "make, batch",
        [
            (lambda: gen_regular(4, 8, 2, 1.0, True, 3), 1),  # null-gradient regular, rank 3 in R^4
            (lambda: gen_regular(6, 12, 2, 1.0, True, 1), 2),  # null-gradient regular, rank 5 in R^6
            (lambda: gen_interpolating(6, 2, 2, 4), 1),  # n * k = 4 < d = 6
            (lambda: gen_interpolating(5, 3, 1, 7), 2),  # n * k = 3 < d = 5
        ],
        ids=["regular-d4", "regular-d6", "interpolating-d6", "interpolating-d5"],
    )
    def test_ensemble_never_crosses_before_a_replicate(self, make, batch, factor):
        # The ensemble rule that the per-replicate rule makes redundant: the mean of
        # |x_perp|^2 above F * (1 + its start) never comes before divergence_step.
        inst = make()
        thr = variance_threshold(inst, batch)
        x0 = np.random.default_rng(inst.d).standard_normal(inst.d)  # with a null part
        cfg = SimConfig(steps=60, replicates=256, seed=9, divergence_factor=factor, init_offset=x0)
        for eta, unstable in ((0.5 * thr, False), (1.5 * thr, True)):
            em = simulate_sgd(inst, Hyperparams(eta=eta, batch=batch), cfg)
            crossed = np.flatnonzero(em.mean_sq_perp > factor * (1.0 + em.mean_sq_perp[0]))
            if crossed.size:
                assert em.divergence_step is not None and em.divergence_step <= crossed[0]
            else:
                assert not unstable


class TestMomentAgreement:
    def test_first_moment_matches_linear_law(self):
        inst = gen_interpolating(3, 5, 3, 33)
        hp = Hyperparams(eta=0.5 / sharpness(inst), batch=2)
        cfg = SimConfig(steps=16, replicates=20_000, seed=7)
        em = simulate_sgd(inst, hp, cfg)
        # The standard error comes from the exact variance diag(Sigma_t) - mu_t^2 of the iterates.
        path = iterate_moments(inst, hp, point_state(initial_offset(inst, cfg)), 16, keep_path=True)
        a_bar = np.eye(3) - hp.eta * inst.mean_hessian()
        expected = em.mean_offset[0].copy()
        for t in range(1, 17):
            expected = a_bar @ expected
            se = np.sqrt((np.diagonal(path[t].second_moment) - path[t].mean ** 2) / cfg.replicates)
            z = np.abs(em.mean_offset[t] - expected) / se
            assert np.all(z <= 5.0), (t, z)

    def test_second_moment_matches_exact_recursion(self):
        inst = gen_interpolating(2, 4, 2, 34)
        hp = Hyperparams(eta=0.6 / sharpness(inst), batch=2)
        cfg = SimConfig(steps=12, replicates=50_000, seed=8)
        em = simulate_sgd(inst, hp, cfg)
        x0 = initial_offset(inst, cfg)
        path = iterate_moments(inst, hp, point_state(x0), 12, keep_path=True)
        _, p_range = null_projectors(inst.mean_hessian())
        # The gradients are zero, so x_t^{kron 4} advances by the mean of A^{kron 4} over the
        # C(4, 2) batches, and E[|P x_t|^4] = <E[x_t^{kron 4}], vec(P) kron vec(P)> gives the
        # exact variance of |P x_t|^2.
        steps = [np.eye(2) - (hp.eta / 2) * inst.hessians[list(c)].sum(axis=0) for c in itertools.combinations(range(4), 2)]
        a4 = np.mean([np.kron(np.kron(np.kron(a, a), a), a) for a in steps], axis=0)
        m4 = np.kron(np.kron(np.kron(x0, x0), x0), x0)
        pp = np.kron(p_range.reshape(-1), p_range.reshape(-1))
        for t in range(1, 13):
            m4 = a4 @ m4
            if t in (1, 2, 4, 8, 12):
                exact = float(np.trace(p_range @ path[t].second_moment @ p_range))
                se = np.sqrt((pp @ m4 - exact**2) / cfg.replicates)
                assert abs(em.mean_sq_perp[t] - exact) <= 5.0 * se, t

    def test_null_walk_slope_within_ten_percent(self, rank_one_walk):
        hp = Hyperparams(eta=0.5, batch=1)
        cfg = SimConfig(steps=200, replicates=2000, seed=9, init_offset=np.array([1.0, 0.0]))
        em = simulate_sgd(rank_one_walk, hp, cfg)
        t = np.arange(201, dtype=float)
        slope = float(np.polyfit(t, em.mean_sq_par, 1)[0])
        expected = hp.eta**2 * 1.0 * 1.0  # eta^2 * p * mean ||g_par||^2 = 0.25
        assert slope == pytest.approx(0.25, rel=0.10)


class TestMixture:
    def test_p_zero_is_exact_gd(self):
        inst = gen_regular(3, 5, 3, 1.0, False, 44)
        eta = 0.4 / sharpness(inst)
        cfg = SimConfig(steps=25, replicates=4, seed=13)
        em = simulate_mixture(inst, eta, 0.0, cfg)
        x = initial_offset(inst, cfg)
        hbar = inst.mean_hessian()
        gbar = inst.gradients.mean(axis=0)
        _, p_range = null_projectors(hbar)
        for t in range(1, 26):
            x = x - eta * (x @ hbar + gbar)
        # Deterministic process: every replicate equals the reference path.
        assert em.mean_sq_perp[25] == pytest.approx(float(np.sum((p_range @ x) ** 2)), abs=0.0)

    def test_p_one_matches_single_sample_sgd_exactly(self, scalar_pair):
        cfg = SimConfig(steps=60, replicates=128, seed=14)
        em_sgd = simulate_sgd(scalar_pair, Hyperparams(eta=0.5, batch=1), cfg)
        em_mix = simulate_mixture(scalar_pair, 0.5, 1.0, cfg)
        np.testing.assert_array_equal(em_sgd.mean_sq_perp, em_mix.mean_sq_perp)
        np.testing.assert_array_equal(em_sgd.mean_offset, em_mix.mean_offset)

    @pytest.mark.parametrize("factor", [0.9, 1.2])
    def test_p_zero_matches_full_batch_sgd_exactly(self, factor):
        # Both runs must fit in one chunk: another chunking moves the sums by roundoff.
        inst = gen_regular(3, 5, 3, 1.0, False, 44)
        eta = factor * 2.0 / sharpness(inst)
        cfg = SimConfig(steps=60, replicates=64, seed=14)
        assert cfg.replicates <= mc._CHUNK_ENTRY_BUDGET // (cfg.steps * inst.n + inst.n * inst.d)
        em_sgd = simulate_sgd(inst, Hyperparams(eta=eta, batch=inst.n), cfg)
        em_mix = simulate_mixture(inst, eta, 0.0, cfg)
        assert em_sgd.diverged == (factor > 1.0)
        for field in dataclasses.fields(em_sgd):
            np.testing.assert_array_equal(getattr(em_mix, field.name), getattr(em_sgd, field.name), err_msg=field.name)

    def test_matched_weight_classification_agreement(self):
        inst = gen_interpolating(2, 4, 2, 46)
        b = 2
        thr = variance_threshold(inst, b)
        p = mixing_weight(inst.n, b)
        cfg = SimConfig(steps=24, replicates=8192, seed=15)
        for factor in (0.9, 1.1):
            hp = Hyperparams(eta=factor * thr, batch=b)
            cls_sgd = classify_unstable(simulate_sgd(inst, hp, cfg), cfg)
            cls_mix = classify_unstable(simulate_mixture(inst, hp.eta, p, cfg), cfg)
            assert cls_sgd == cls_mix == (factor > 1.0)

    def test_rejects_bad_weight(self, scalar_pair):
        cfg = SimConfig(steps=2, replicates=2, seed=0)
        with pytest.raises(ValueError):
            simulate_mixture(scalar_pair, 0.1, -0.2, cfg)


class TestShortRuns:
    """The growth window needs steps >= 3; shorter runs still simulate."""

    @pytest.mark.parametrize("steps", [1, 2])
    def test_window_below_three_steps_is_a_value_error(self, steps):
        inst = gen_interpolating(2, 4, 2, 1)
        thr = variance_threshold(inst, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cfg = SimConfig(steps=steps, replicates=8, seed=1, divergence_factor=1.01)
            with pytest.raises(ValueError, match="steps >= 3"):
                growth_window(cfg)
            for eta, diverged in ((0.5 * thr, False), (20.0 * thr, True)):
                em = simulate_sgd(inst, Hyperparams(eta=eta, batch=1), cfg)
                assert em.diverged == diverged and em.mean_sq_perp.shape == (steps + 1,)
                with pytest.raises(ValueError, match="steps >= 3"):
                    classify_unstable(em, cfg)
            assert simulate_mixture(inst, 0.5 * thr, 0.5, cfg).mean_sq_perp.shape == (steps + 1,)
            with pytest.raises(ValueError, match="steps >= 3"):
                empirical_threshold(inst, 1, cfg, 0.5 * thr, 20.0 * thr, 0.1 * thr)

    def test_growth_rule_on_a_series_that_is_not_positive(self):
        # With every H_i zero the range of Hbar is {0}: the perpendicular moment is zero
        # at every step, and the rule compares its ends instead of fitting a log slope.
        zero = make_instance(np.zeros((2, 2, 2)), np.zeros((2, 2)))
        cfg = SimConfig(steps=12, replicates=4, seed=0, init_offset=np.array([1.0, -2.0]))
        em = simulate_sgd(zero, Hyperparams(eta=0.1, batch=1), cfg)
        assert not np.any(em.mean_sq_perp) and not classify_unstable(em, cfg)
        assert mc._grows(np.array([0.0, 0.5, 1.0]), 0, 2) and not mc._grows(np.array([1.0, 0.0, 1.0]), 0, 2)

    def test_three_steps_classify(self):
        inst = gen_interpolating(2, 4, 2, 1)
        thr = variance_threshold(inst, 1)
        cfg = SimConfig(steps=3, replicates=8, seed=1)
        assert growth_window(cfg) == (2, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for eta in (0.5 * thr, 20.0 * thr):
                assert classify_unstable(simulate_sgd(inst, Hyperparams(eta=eta, batch=1), cfg), cfg) == (eta > thr)


class TestEmpiricalThreshold:
    def test_scalar_pair_single_sample(self, scalar_pair):
        cfg = SimConfig(steps=24, replicates=32768, seed=5)
        thr = empirical_threshold(scalar_pair, 1, cfg, eta_lo=0.16, eta_hi=1.28, bisect_tol=0.016)
        assert thr == pytest.approx(0.8, abs=0.05)

    def test_scalar_pair_full_batch(self, scalar_pair):
        cfg = SimConfig(steps=24, replicates=32768, seed=5)
        thr = empirical_threshold(scalar_pair, 2, cfg, eta_lo=0.2, eta_hi=1.6, bisect_tol=0.02)
        assert thr == pytest.approx(1.0, abs=0.05)

    def test_deterministic(self, scalar_pair):
        cfg = SimConfig(steps=24, replicates=4096, seed=6)
        a = empirical_threshold(scalar_pair, 1, cfg, eta_lo=0.2, eta_hi=1.4, bisect_tol=0.05)
        b = empirical_threshold(scalar_pair, 1, cfg, eta_lo=0.2, eta_hi=1.4, bisect_tol=0.05)
        assert a == b

    def test_a_bisection_classifies_the_stack_once(self, monkeypatch, stack_decompositions):
        inst = gen_interpolating(4, 8, 2, 3)
        thr = variance_threshold(inst, 2)
        runs = []
        true_sgd = mc._sgd

        def counted(*args, **kwargs):
            runs.append(1)
            return true_sgd(*args, **kwargs)

        monkeypatch.setattr(mc, "_sgd", counted)
        calls = stack_decompositions(inst)
        empirical_threshold(inst, 2, SimConfig(steps=24, replicates=4096, seed=6), 0.5 * thr, 1.5 * thr, 0.1 * thr)
        assert len(runs) > 2
        assert calls == ["factor"]

    @pytest.mark.parametrize(
        "lo, hi, tol, message",
        [(0.1, 1.0, 0.0, "^bisect_tol must be positive"), (1.0, 0.5, 0.1, r"^invalid bracket \[1.0, 0.5\]"), (-0.1, 1.0, 0.1, "^invalid bracket")],
        ids=["tolerance", "reversed", "negative"],
    )
    def test_rejects_bad_bisection_settings(self, scalar_pair, lo, hi, tol, message):
        with pytest.raises(ValueError, match=message):
            empirical_threshold(scalar_pair, 1, SimConfig(steps=24, replicates=8, seed=0), lo, hi, tol)

    def test_invalid_bracket_both_stable(self, scalar_pair):
        cfg = SimConfig(steps=24, replicates=2048, seed=7)
        with pytest.raises(ValueError, match="bracket"):
            empirical_threshold(scalar_pair, 1, cfg, eta_lo=0.1, eta_hi=0.3, bisect_tol=0.05)

    def test_invalid_bracket_both_unstable(self, scalar_pair):
        cfg = SimConfig(steps=24, replicates=2048, seed=7)
        with pytest.raises(ValueError, match="bracket"):
            empirical_threshold(scalar_pair, 1, cfg, eta_lo=1.5, eta_hi=2.0, bisect_tol=0.05)


class TestVerdictRuns:
    """empirical_threshold's verdict-only runs give the full runs' verdicts, and stop early only when unstable."""

    CASES = {
        "interpolating": (lambda: gen_interpolating(4, 8, 2, 1), 2, {}),
        "interpolating-batch-1": (lambda: gen_interpolating(3, 6, 3, 2), 1, {}),
        "regular": (lambda: gen_regular(4, 8, 2, 1.0, False, 3), 2, {}),
        # Hbar of rank 3 in R^4: the accumulator splits off the null component.
        "rank-deficient-regular": (lambda: gen_regular(4, 3, 1, 1.0, False, 2), 1, {}),
        # Hbar of rank 2 in R^4, and a start with a null-space component of norm 1.9.
        "null-space-start": (lambda: gen_interpolating(4, 2, 1, 1), 1, {"init_offset": np.array([1.0, -0.5, 0.25, 2.0])}),
        # A low divergence factor: unstable runs stop at a replicate's crossing, some before the growth window ends.
        "early-crossings": (lambda: gen_interpolating(4, 8, 2, 5), 2, {"divergence_factor": 30.0}),
    }

    @pytest.mark.parametrize("chunks", [1, 7])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_threshold_matches_full_run_bisection(self, case, chunks, monkeypatch):
        make, batch, kwargs = self.CASES[case]
        inst = make()
        if chunks > 1:
            # 24 steps * B indices + B * d drift rows per replicate: six chunks of 300 replicates and one of 248.
            monkeypatch.setattr(mc, "_CHUNK_ENTRY_BUDGET", (24 * batch + batch * inst.d) * 300)
        thr = variance_threshold(inst, batch)
        cfg = SimConfig(steps=24, replicates=2048, seed=11, **kwargs)
        args = (inst, batch, cfg, 0.5 * thr, 1.5 * thr, 0.02 * thr)
        want, want_verdicts = reference_bisection(*args)
        verdicts = []
        sgd = mc._sgd

        def recorded(inst, hp, cfg, verdict=False):
            out = sgd(inst, hp, cfg, verdict)
            verdicts.append((hp.eta, out))
            return out

        monkeypatch.setattr(mc, "_sgd", recorded)
        assert empirical_threshold(*args) == want
        assert verdicts == want_verdicts
        assert {v for _, v in verdicts} == {False, True}

    @pytest.mark.parametrize("null_grad", [False, True])
    def test_regular_instance_brackets_the_threshold(self, null_grad):
        # Gradient noise lifts the second moment toward its stationary level at stable step
        # sizes; runs classified with that noise put these thresholds at 0.93 and 0.85 x thr.
        inst = gen_regular(6, 12, 2, 1.0, null_grad, 1)
        thr = variance_threshold(inst, 2)
        cfg = SimConfig(steps=24, replicates=4096, seed=1)
        value = empirical_threshold(inst, 2, cfg, 0.5 * thr, 1.5 * thr, 0.02 * thr)
        assert 0.95 * thr <= value <= 1.10 * thr

    def test_verdicts_match_classified_full_runs(self):
        inst = gen_interpolating(2, 4, 2, 46)
        thr = variance_threshold(inst, 2)
        cfg = SimConfig(steps=24, replicates=2048, seed=15)
        verdicts = []
        for factor in np.linspace(0.5, 1.5, 11):
            hp = Hyperparams(eta=factor * thr, batch=2)
            verdicts.append(mc._sgd(inst, hp, cfg, verdict=True))
            assert verdicts[-1] == classify_unstable(simulate_sgd(inst, hp, cfg), cfg)
        assert set(verdicts) == {False, True}

    @pytest.mark.parametrize("factor, divergence_factor", [(1.2, 1e6), (1.5, 30.0)], ids=["growth-window", "crossing"])
    def test_unstable_runs_stop_early_and_stable_runs_run_every_step(self, factor, divergence_factor, monkeypatch):
        inst = gen_interpolating(4, 8, 2, 1)
        thr = variance_threshold(inst, 2)
        cfg = SimConfig(steps=24, replicates=2048, seed=11, divergence_factor=divergence_factor)
        hp = Hyperparams(eta=factor * thr, batch=2)
        # The full run crosses at step 2 with the low factor and never with the high one.
        divergence_step = simulate_sgd(inst, hp, cfg).divergence_step
        _, hi = growth_window(cfg)
        steps = []
        drift = mc._hessian_drift

        def counted(*args):
            steps.append(1)
            return drift(*args)

        monkeypatch.setattr(mc, "_hessian_drift", counted)
        assert mc._sgd(inst, hp, cfg, verdict=True)
        assert len(steps) < cfg.steps
        assert len(steps) == (hi if divergence_step is None else divergence_step)
        assert divergence_step in (None, 2)
        steps.clear()
        assert not mc._sgd(inst, Hyperparams(eta=0.5 * thr, batch=2), cfg, verdict=True)
        assert len(steps) == cfg.steps


class TestCsvExport:
    def test_schema(self, tmp_path, scalar_pair):
        cfg = SimConfig(steps=5, replicates=32, seed=3)
        em = simulate_sgd(scalar_pair, Hyperparams(eta=0.4, batch=1), cfg)
        out = tmp_path / "mc.csv"
        write_empirical_csv(out, em)
        lines = out.read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == "t,trace_sigma_perp,trace_sigma_par,mu_norm,loss_gap_estimate,replicates,diverged_count"
        assert len(lines) == 7
        assert all(line.endswith(",32,0") for line in lines[1:])

    def test_loss_gap_is_clamped_at_zero(self, tmp_path):
        # Rank 12 of 30, started on Hbar's top eigenvector plus a null-space one: half the mean of
        # x' Hbar x rounds below zero on 54 of 401 rows, down to about -5.8e-16.
        inst = gen_interpolating(30, 4, 3, 1)
        vectors = sym_eig(inst.mean_hessian()).vectors
        cfg = SimConfig(steps=400, replicates=64, seed=1, init_offset=vectors[:, 0] + vectors[:, -1])
        em = simulate_sgd(inst, Hyperparams(eta=0.9 * variance_threshold(inst, 2), batch=2), cfg)
        write_empirical_csv(tmp_path / "mc.csv", em)
        rows = np.loadtxt(tmp_path / "mc.csv", delimiter=",", skiprows=1)
        raw = 0.5 * em.mean_quad
        assert np.any(raw < 0.0)
        np.testing.assert_array_equal(rows[:, 4], np.maximum(raw, 0.0))

    def test_growth_window_scales_with_replicates(self):
        cfg_small = SimConfig(steps=100, replicates=256, seed=0)
        cfg_big = SimConfig(steps=100, replicates=65536, seed=0)
        lo_s, hi_s = growth_window(cfg_small)
        lo_b, hi_b = growth_window(cfg_big)
        assert hi_b > hi_s
        assert lo_s >= 2 and hi_s <= 100


def _ref_word(seed, domain, r, t, slot, attempt=0):
    """Pure-Python draw word; the key chain spelled out with the splitmix64 oracle."""
    k = splitmix64((seed & 0xFFFF_FFFF_FFFF_FFFF) ^ splitmix64(domain))
    lane = splitmix64(splitmix64(k ^ r) ^ t)
    return splitmix64(lane ^ (slot | attempt << 32))


def _ref_bounded(seed, domain, r, t, slot, bound):
    attempt = 0
    while True:
        m = (_ref_word(seed, domain, r, t, slot, attempt) >> 32) * bound
        if m & 0xFFFF_FFFF >= (1 << 32) % bound:
            return m >> 32
        attempt += 1


def _ref_batch(seed, r, t, n, batch):
    chosen = []
    for s in range(batch):
        top = n - batch + s
        u = _ref_bounded(seed, mc._INDEX_DOMAIN, r, t, s, top + 1)
        chosen.append(top if u in chosen else u)
    return chosen


class TestStreams:
    def test_vector_hash_matches_scalar_splitmix(self):
        x = np.array([0, 1, 2**63, 2**64 - 1, 0x9E3779B97F4A7C15, 123456789], dtype=np.uint64)
        assert [int(v) for v in vector_splitmix64(x)] == [splitmix64(int(v)) for v in x]

    def test_draws_match_pure_python_reference(self):
        batches = mc.draw_batches(31, range(5, 9), 3, 11, 4)
        coins = mc._coins(31, range(5, 9), 3, 0.4)
        for i, r in enumerate(range(5, 9)):
            for t in range(3):
                assert batches[i, t].tolist() == _ref_batch(31, r, t, 11, 4)
                u = _ref_word(31, mc._COIN_DOMAIN, r, t, 0) >> 11
                assert bool(coins[i, t]) == (u * 2.0**-53 < 0.4)

    def test_pinned_draws(self):
        # A change to the stream changes these values; say so in CHANGES.md.
        assert mc.draw_batches(2024, range(3), 2, 10, 3).tolist() == [
            [[4, 3, 2], [7, 0, 6]],
            [[4, 6, 0], [1, 8, 7]],
            [[2, 6, 9], [4, 1, 0]],
        ]
        assert mc._coins(2024, range(2), 6, 0.5).astype(int).tolist() == [[0, 0, 0, 1, 1, 0], [1, 1, 1, 0, 1, 1]]

    def test_subsets_are_uniform(self):
        n, batch = 6, 3
        draws = mc.draw_batches(8, range(20_000), 10, n, batch).reshape(-1, batch)
        assert np.all((draws >= 0) & (draws < n))
        ordered = np.sort(draws, axis=1)
        assert np.all(np.diff(ordered, axis=1) > 0)
        codes = (1 << ordered).sum(axis=1)
        subsets = [sum(1 << i for i in c) for c in itertools.combinations(range(n), batch)]
        total = draws.shape[0]
        prob = 1.0 / math.comb(n, batch)
        se = math.sqrt(prob * (1.0 - prob) / total)
        counts = np.bincount(codes, minlength=1 << n)
        assert counts[subsets].sum() == total
        for code in subsets:
            assert abs(counts[code] / total - prob) <= 5.0 * se, code

    def test_bounded_rejection_path_stays_in_range(self):
        bound = 2**31 + 1  # 2**32 mod bound = 2**31 - 1: about half the first words are rejected
        keys = mc._lane_keys(9, mc._INDEX_DOMAIN, range(400), 5)
        first = (mc._words(keys, 2) >> np.uint64(32)) * np.uint64(bound)
        assert np.mean((first & np.uint64(0xFFFF_FFFF)) < (1 << 32) % bound) > 0.4
        out = mc._bounded(keys, 2, bound)
        assert np.all((out >= 0) & (out < bound))
        for r, t in ((0, 0), (17, 3), (399, 4), (123, 1)):
            assert out[r, t] == _ref_bounded(9, mc._INDEX_DOMAIN, r, t, 2, bound)

    def test_coin_frequency(self):
        p = 0.3
        coins = mc._coins(10, range(40_000), 10, p)
        se = math.sqrt(p * (1.0 - p) / coins.size)
        assert abs(coins.mean() - p) <= 5.0 * se

    def test_chunked_draws_are_bitwise_equal(self):
        whole_batches = mc.draw_batches(12, range(50), 9, 7, 3)
        whole_coins = mc._coins(12, range(50), 9, 0.6)
        chunks = [range(a, min(a + 7, 50)) for a in range(0, 50, 7)]
        np.testing.assert_array_equal(whole_batches, np.concatenate([mc.draw_batches(12, c, 9, 7, 3) for c in chunks]))
        np.testing.assert_array_equal(whole_coins, np.concatenate([mc._coins(12, c, 9, 0.6) for c in chunks]))

    @pytest.mark.parametrize("replicates,steps", [(range(5, 16), 3), (range(3, 8), 10)], ids=["tiles-of-2-replicates", "steps-cut-7-3"])
    def test_tiled_draws_match_reference_across_tile_boundaries(self, monkeypatch, replicates, steps):
        # Tiles of 7 lanes: 2 replicates of 3 steps, or a 10-step replicate cut 7 + 3.
        monkeypatch.setattr(mc, "_DRAW_BLOCK_LANES", 7)
        coins = mc._coins(41, replicates, steps, 0.4)
        for batch in (1, 3):
            batches = mc.draw_batches(41, replicates, steps, 9, batch)
            assert batches.shape == (len(replicates), steps, batch)
            for i, r in enumerate(replicates):
                for t in range(steps):
                    assert batches[i, t].tolist() == _ref_batch(41, r, t, 9, batch)
        for i, r in enumerate(replicates):
            for t in range(steps):
                u = _ref_word(41, mc._COIN_DOMAIN, r, t, 0) >> 11
                assert bool(coins[i, t]) == (u * 2.0**-53 < 0.4)

    @pytest.mark.parametrize(
        "draw,out_bytes",
        [
            (lambda: mc.draw_batches(6, range(8192), 24, 8, 2), 8192 * 24 * 2 * 8),
            (lambda: mc._coins(6, range(8192), 24, 0.4), 8192 * 24),
        ],
        ids=["batches", "coins"],
    )
    def test_draws_allocate_little_beyond_their_output(self, draw, out_bytes):
        # Hashing all 196,608 lanes at once made 1.5 MiB uint64 temporaries,
        # several alive at a time; tiles keep them to a fixed size.
        tracemalloc.start()
        try:
            draw()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= out_bytes + 2 * 2**20, peak

    def test_simulations_raise_no_warnings(self):
        inst = gen_regular(3, 6, 2, 1.0, False, 12)
        eta = 0.5 / sharpness(inst)
        cfg = SimConfig(steps=6, replicates=300, seed=2**64 - 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            simulate_sgd(inst, Hyperparams(eta=eta, batch=2), cfg)
            simulate_mixture(inst, eta, 0.4, cfg)


def _direct_sums(x, p_null, hbar):
    """One step's moment sums, replicate by replicate, each total taken with math.fsum."""

    def sq(v):
        return math.fsum(v * v)

    par = [xc @ p_null for xc in x]
    perp = [xc - xp for xc, xp in zip(x, par)]
    return {
        "sum_x": np.array([math.fsum(col) for col in x.T]),
        "sum_sq_par": math.fsum(sq(xp) for xp in par),
        "sum_sq_perp": math.fsum(sq(xq) for xq in perp),
        "sum_quad": math.fsum(math.fsum((np.outer(xc, xc) * hbar).ravel()) for xc in x),
        "sq_perp": np.array([sq(xq) for xq in perp]),
    }


class TestAccumulator:
    @pytest.mark.parametrize("rank_deficient", [False, True], ids=["full-rank", "null-walk"])
    def test_matches_direct_per_replicate_reduction(self, rank_deficient):
        rng = np.random.default_rng(77)
        chunk, d = 300, 6
        g = rng.standard_normal((d, d))
        hbar = g @ g.T
        p_null = np.zeros((d, d))
        x = rng.standard_normal((chunk, d))
        if rank_deficient:
            # Null space spanned by the first two coordinates, so the split is
            # exact; there |x_par| / |x_perp| ~ 1e6, as on the null walk, and
            # |x|^2 - |x_par|^2 would lose about 12 of 16 digits of |x_perp|^2.
            p_null[:2, :2] = np.eye(2)
            hbar[:2, :] = hbar[:, :2] = 0.0
            x[:, :2] *= 1e6
        acc = mc._Accumulator(2, d, p_null, hbar)
        sq_perp = acc.add(1, x)
        want = _direct_sums(x, p_null, hbar)
        got = {name: getattr(acc, name)[1] for name in want if name != "sq_perp"}
        got["sq_perp"] = sq_perp
        scale = {"sum_x": math.fsum(np.abs(x).ravel()), "sum_quad": math.fsum((np.abs(hbar) * (np.abs(x).T @ np.abs(x))).ravel())}
        for name, value in want.items():
            bound = 1e-12 * scale.get(name, np.abs(value))
            assert np.all(np.abs(got[name] - value) <= bound), name
        assert not np.any(acc.sum_sq_perp[0]) and not np.any(acc.sum_x[0])


class TestKernel:
    @pytest.mark.parametrize("chunk,n,d,batch", [(8192, 8, 4, 2), (500, 256, 32, 8)])
    def test_per_slot_drift_matches_gathered_sum(self, chunk, n, d, batch):
        rng = np.random.default_rng(chunk + n)
        g = rng.standard_normal((n, d, d))
        hessians = g + np.transpose(g, (0, 2, 1))
        x = rng.standard_normal((chunk, d))
        idx = mc.draw_batches(4, range(chunk), 1, n, batch)[:, 0]
        old = np.einsum("cij,cj->ci", hessians[idx].sum(axis=1), x)
        new = mc._hessian_drift(hessians, idx, x)
        assert np.max(np.abs(new - old)) <= 1e-12 * np.max(np.abs(old))

    @pytest.mark.parametrize(
        "chunk,n,d,batch,psd",
        [
            (3, 256, 5, 4, True),  # at most 12 of 256 buckets are drawn
            (40, 6, 4, 6, True),  # B = n: every replicate draws every sample
            (300, 7, 1, 3, True),  # d = 1
            (50, 1, 4, 1, True),  # n = 1
            (400, 9, 6, 2, False),  # symmetric, indefinite
        ],
    )
    def test_grouped_drift_edge_cases(self, chunk, n, d, batch, psd):
        rng = np.random.default_rng(1000 * n + d)
        g = rng.standard_normal((n, d, d))
        hessians = g @ np.transpose(g, (0, 2, 1)) if psd else g + np.transpose(g, (0, 2, 1))
        x = rng.standard_normal((chunk, d))
        idx = mc.draw_batches(5, range(chunk), 1, n, batch)[:, 0]
        gathered = np.einsum("csij,cj->ci", hessians[idx], x)
        new = mc._hessian_drift(hessians, idx, x)
        assert new.shape == (chunk, d)
        assert np.max(np.abs(new - gathered)) <= 1e-12 * np.max(np.abs(gathered))

    def test_simulations_never_gather_hessians(self):
        inst = gen_regular(96, 64, 4, 1.0, False, 17)
        hp = Hyperparams(eta=0.5 / sharpness(inst), batch=8)
        cfg = SimConfig(steps=5, replicates=500, seed=3)
        gather_bytes = 500 * 96 * 96 * 8  # one (replicates, d, d) float64 stack: 36.9 MB
        rows_bytes = 500 * 8 * 96 * 8  # the B * d grouped rows of every replicate: 3.1 MB
        # A per-slot (chunk, d, d) Hessian gather would peak near 33.6 MB even
        # with the replicates split 432 + 68, under the 36.9 MB, so the bound
        # is a few copies of the grouped rows.
        bound = min(gather_bytes, 4 * rows_bytes)
        for run in (lambda: simulate_sgd(inst, hp, cfg), lambda: simulate_mixture(inst, hp.eta, 0.5, cfg)):
            tracemalloc.start()
            try:
                run()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < bound, peak

    def test_chunked_csv_is_rerun_stable_and_matches_one_chunk(self, tmp_path, monkeypatch):
        inst = gen_regular(32, 256, 3, 1.0, False, 18)
        hp = Hyperparams(eta=0.5 / sharpness(inst), batch=8)
        cfg = SimConfig(steps=10, replicates=120, seed=19)
        write_empirical_csv(tmp_path / "whole.csv", simulate_sgd(inst, hp, cfg))
        # 10 steps * 8 indices + 8 * 32 drift rows = 336 entries per replicate:
        # seven chunks of 17 replicates and a last one of 1.
        monkeypatch.setattr(mc, "_CHUNK_ENTRY_BUDGET", 336 * 17)
        for name in ("a.csv", "b.csv"):
            write_empirical_csv(tmp_path / name, simulate_sgd(inst, hp, cfg))
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        whole = np.loadtxt(tmp_path / "whole.csv", delimiter=",", skiprows=1)
        chunked = np.loadtxt(tmp_path / "a.csv", delimiter=",", skiprows=1)
        np.testing.assert_allclose(chunked, whole, rtol=1e-12, atol=0.0)
