import numpy as np
import pytest

from sgdstab import (
    Hyperparams,
    InstanceFormatError,
    MinimumClass,
    classify,
    gen_interpolating,
    gen_regular,
    load_instance,
    make_instance,
    mixing_weight,
    save_instance,
)
from sgdstab.instances import StreamPool, stream
from sgdstab.linalg import DEFAULT_RANK_RTOL, ConvergenceError, null_projectors, sym_eig


class TestClassify:
    def test_scalar_pair_is_interpolating(self, scalar_pair):
        assert classify(scalar_pair) is MinimumClass.INTERPOLATING

    def test_scalar_noise_pair_is_regular(self, scalar_noise_pair):
        assert classify(scalar_noise_pair) is MinimumClass.REGULAR

    def test_negative_hessian_is_invalid(self):
        inst = make_instance([[[-1.0]], [[1.0]]], [[0.0], [0.0]])
        assert classify(inst) is MinimumClass.INVALID

    def test_nonzero_mean_gradient_is_invalid(self):
        inst = make_instance([[[1.0]], [[1.0]]], [[0.5], [0.1]], validate=False)
        assert classify(inst) is MinimumClass.INVALID


def _classify_per_sample(inst, rel_tol=DEFAULT_RANK_RTOL):
    """The per-sample PSD test that classify batches: one sym_eig per Hessian."""
    for i in range(inst.n):
        values = sym_eig(inst.hessians[i]).values
        if values[-1] < -rel_tol * max(abs(float(values[0])), float(np.max(np.abs(values)))):
            return MinimumClass.INVALID
    return None


_FAMILIES = {
    "interpolating": lambda: gen_interpolating(6, 9, 3, 21),
    "regular": lambda: gen_regular(6, 9, 3, 1.0, False, 22),
    "regular-null-grad": lambda: gen_regular(6, 9, 3, 1.0, True, 23),
}


class TestBatchedClassify:
    @pytest.mark.parametrize("family", sorted(_FAMILIES))
    @pytest.mark.parametrize("factor,invalid", [(0.99, False), (1.01, True)])
    def test_matches_per_sample_loop_at_the_tolerance(self, family, factor, invalid):
        inst = _FAMILIES[family]()
        clean = classify(inst)
        assert clean is not MinimumClass.INVALID and _classify_per_sample(inst) is None
        # Push the smallest eigenvalue of one Hessian to just inside or just
        # outside -rel_tol * max|lambda|; the margin (1e-2 of the tolerance)
        # is far above the roundoff of either eigensolver.
        hessians = inst.hessians.copy()
        k = inst.n // 2
        w, v = np.linalg.eigh(hessians[k])
        w[0] = -factor * DEFAULT_RANK_RTOL * np.max(np.abs(w))
        hessians[k] = (v * w) @ v.T
        edited = make_instance(hessians, inst.gradients)
        expected = _classify_per_sample(edited) or clean
        assert (expected is MinimumClass.INVALID) == invalid
        assert classify(edited) is expected

    def test_eigensolver_failure_is_a_convergence_error(self, scalar_pair, monkeypatch):
        def fail(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        with pytest.raises(ConvergenceError, match="did not converge"):
            classify(scalar_pair)


class TestMixingWeight:
    def test_single_sample_batch(self):
        assert mixing_weight(2, 1) == 1.0

    def test_full_batch(self):
        assert mixing_weight(100, 100) == 0.0

    def test_exact_rational(self):
        assert mixing_weight(101, 10) == 0.091

    def test_single_sample_dataset(self):
        assert mixing_weight(1, 1) == 0.0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            mixing_weight(4, 5)
        with pytest.raises(ValueError):
            mixing_weight(4, 0)

    def test_strictly_decreasing_in_batch(self):
        for n in range(2, 51):
            values = [mixing_weight(n, b) for b in range(1, n + 1)]
            assert all(v1 > v2 for v1, v2 in zip(values, values[1:]))
            assert values[0] == 1.0 and values[-1] == 0.0


class TestHyperparams:
    def test_rejects_negative_eta(self):
        with pytest.raises(ValueError):
            Hyperparams(eta=-0.1, batch=1)

    def test_allows_zero_eta(self):
        assert Hyperparams(eta=0.0, batch=1).eta == 0.0

    def test_p_delegates(self):
        assert Hyperparams(eta=0.1, batch=2).p(4) == mixing_weight(4, 2)


class TestGenerators:
    def test_interpolating_classification(self):
        for seed in range(5):
            inst = gen_interpolating(4, 8, 2, seed)
            assert classify(inst) is MinimumClass.INTERPOLATING

    def test_interpolating_psd(self):
        inst = gen_interpolating(4, 8, 2, 7)
        for h in inst.hessians:
            values = np.linalg.eigvalsh(h)
            assert values.min() >= -1e-10 * max(values.max(), 1.0)

    def test_deterministic(self):
        a = gen_interpolating(3, 5, 2, 99)
        b = gen_interpolating(3, 5, 2, 99)
        np.testing.assert_array_equal(a.hessians, b.hessians)
        np.testing.assert_array_equal(a.gradients, b.gradients)

    def test_regular_classification_and_centering(self):
        for seed in range(5):
            inst = gen_regular(3, 6, 3, 1.0, False, seed)
            assert classify(inst) is MinimumClass.REGULAR
            assert np.linalg.norm(inst.gradients.mean(axis=0)) <= 1e-12

    def test_regular_projected_gradients_have_no_null_component(self):
        inst = gen_regular(3, 4, 1, 1.0, False, 3)
        p_null, _ = null_projectors(inst.mean_hessian())
        assert np.max(np.abs(inst.gradients @ p_null)) < 1e-10

    def test_null_grad_leaves_null_component(self):
        inst = gen_regular(2, 4, 1, 1.0, True, 5)
        p_null, _ = null_projectors(inst.mean_hessian())
        norms = np.linalg.norm(inst.gradients @ p_null, axis=1)
        assert np.max(norms) > 0.0

    def test_zero_grad_scale_degenerates_to_interpolating(self):
        inst = gen_regular(3, 6, 3, 0.0, False, 1)
        assert classify(inst) is MinimumClass.INTERPOLATING

    def test_null_grad_requires_reduced_rank(self):
        with pytest.raises(ValueError):
            gen_regular(2, 4, 2, 1.0, True, 0)

    def test_rank_validation(self):
        with pytest.raises(ValueError):
            gen_interpolating(2, 4, 3, 0)

    def test_unit_sharpness_rescaling(self):
        inst = gen_interpolating(3, 5, 3, 11, unit_sharpness=True)
        lam = float(np.max(np.linalg.eigvalsh(inst.mean_hessian())))
        assert lam == pytest.approx(1.0, abs=1e-12)


class TestSaveLoad:
    def test_round_trip(self, tmp_path, scalar_pair):
        path = tmp_path / "inst.json"
        save_instance(scalar_pair, path)
        loaded = load_instance(path)
        np.testing.assert_array_equal(loaded.hessians, scalar_pair.hessians)
        np.testing.assert_array_equal(loaded.gradients, scalar_pair.gradients)
        assert loaded.label == scalar_pair.label

    def test_round_trip_random(self, tmp_path):
        inst = gen_regular(4, 6, 2, 1.3, False, 17)
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        loaded = load_instance(path)
        np.testing.assert_array_equal(loaded.hessians, inst.hessians)
        np.testing.assert_array_equal(loaded.gradients, inst.gradients)

    def test_asymmetric_hessian_names_sample(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"d": 2, "n": 1, "hessians": [[1.0, 0.5, 0.4999, 1.0]], '
            '"gradients": [[0.0, 0.0]], "label": ""}',
            encoding="utf-8",
        )
        with pytest.raises(InstanceFormatError, match="hessian 0"):
            load_instance(path)

    def test_nonzero_mean_gradient_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"d": 1, "n": 2, "hessians": [[1.0], [1.0]], '
            '"gradients": [[0.5], [0.5]], "label": ""}',
            encoding="utf-8",
        )
        with pytest.raises(InstanceFormatError, match="gradients do not sum to zero"):
            load_instance(path)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(InstanceFormatError, match="malformed"):
            load_instance(path)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"d": 1, "n": 1, "hessians": [[1.0]]}', encoding="utf-8")
        with pytest.raises(InstanceFormatError, match="gradients"):
            load_instance(path)


class TestStreams:
    def test_pool_matches_fresh_streams(self):
        pool = StreamPool()
        for seed in (0, 12345):
            for index in (0, 1, 7):
                a = stream(seed, index).standard_normal(16)
                b = pool.get(seed, index).standard_normal(16)
                np.testing.assert_array_equal(a, b)

    def test_distinct_indices_give_distinct_streams(self):
        a = stream(3, 1).standard_normal(8)
        b = stream(3, 2).standard_normal(8)
        assert not np.array_equal(a, b)
