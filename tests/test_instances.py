import base64
import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from sgdstab import (
    ExactStepper,
    Hyperparams,
    InstanceFormatError,
    MinimumClass,
    SimConfig,
    brute_force_transition,
    classify,
    gen_interpolating,
    gen_regular,
    load_instance,
    make_instance,
    mixing_weight,
    mixture_transition,
    save_instance,
    simulate_mixture,
    simulate_sgd,
    variance_threshold,
)
from oracles import splitmix64
from sgdstab import instances
from sgdstab.cli import EXIT_OK, main
from sgdstab.instances import ProblemInstance, StreamPool, stream
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
        # make_instance rejects such gradients, so the instance is built directly.
        inst = ProblemInstance(d=1, n=2, hessians=np.ones((2, 1, 1)), gradients=np.array([[0.5], [0.1]]))
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

    def test_classify_does_not_copy_the_stack(self):
        rng = np.random.default_rng(31)
        g = rng.standard_normal((128, 64, 4))
        inst = make_instance(g @ np.transpose(g, (0, 2, 1)), np.zeros((128, 64)))
        h = inst.hessians
        # classify passes the stack to eigvalsh as it is: make_instance left it
        # exactly symmetric, so a symmetrized copy would be bit for bit h.
        assert np.array_equal(0.5 * (h + np.transpose(h, (0, 2, 1))), h)
        tracemalloc.start()
        try:
            kind = classify(inst)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kind is MinimumClass.INTERPOLATING
        assert peak < 0.25 * h.nbytes, (peak, h.nbytes)

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


class TestSharedRuleChecks:
    """Every entry point checks B and p with instances' one rule, and raises its message."""

    def test_batch_above_n_gets_the_mixing_weight_message(self):
        inst = gen_regular(2, 3, 1, 1.0, False, 0)
        hp = Hyperparams(eta=0.1, batch=inst.n + 1)
        calls = [
            lambda: mixing_weight(inst.n, inst.n + 1),
            lambda: variance_threshold(inst, inst.n + 1),
            lambda: brute_force_transition(inst, 0.1, inst.n + 1),
            lambda: simulate_sgd(inst, hp, SimConfig(steps=3, replicates=2, seed=0)),
            lambda: ExactStepper(inst, hp),
        ]
        for call in calls:
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == "batch size 4 out of range [1, 3]"

    @pytest.mark.parametrize("p", [-0.1, 1.1])
    def test_mixture_weight_outside_unit_interval(self, scalar_pair, p):
        message = f"mixture weight must lie in [0, 1], got {p}"
        with pytest.raises(ValueError) as err:
            mixture_transition(scalar_pair, 0.1, p)
        assert str(err.value) == message
        with pytest.raises(ValueError) as err:
            simulate_mixture(scalar_pair, 0.1, p, SimConfig(steps=3, replicates=2, seed=0))
        assert str(err.value) == message


class TestHyperparams:
    def test_rejects_negative_eta(self):
        with pytest.raises(ValueError):
            Hyperparams(eta=-0.1, batch=1)

    def test_allows_zero_eta(self):
        assert Hyperparams(eta=0.0, batch=1).eta == 0.0


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

    def test_null_grad_hessians_match_the_four_operand_einsum(self):
        # The null-grad Hessians are sub G_i G_i^T sub^T, built by two matmuls; the
        # einsum that spells the product out gives them to rounding.
        d, n, rank, seed = 5, 7, 3, 4
        rng = stream(seed)
        basis, _ = np.linalg.qr(rng.standard_normal((d, d)))
        sub = basis[:, : d - 1]
        g_factors = rng.standard_normal((n, d - 1, rank))
        want = np.einsum("ai,nik,njk,bj->nab", sub, g_factors, g_factors, sub)
        got = gen_regular(d, n, rank, 1.0, True, seed).hessians
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_zero_grad_scale_degenerates_to_interpolating(self):
        inst = gen_regular(3, 6, 3, 0.0, False, 1)
        assert classify(inst) is MinimumClass.INTERPOLATING

    def test_null_grad_requires_two_dimensions(self):
        with pytest.raises(ValueError, match="^null_grad requires d >= 2"):
            gen_regular(1, 4, 1, 1.0, True, 0)

    def test_null_grad_requires_reduced_rank(self):
        with pytest.raises(ValueError):
            gen_regular(2, 4, 2, 1.0, True, 0)

    def test_rank_validation(self):
        with pytest.raises(ValueError):
            gen_interpolating(2, 4, 3, 0)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: gen_interpolating(3, 0, 1, 0),
            lambda: gen_regular(3, 0, 1, 1.0, False, 0),
            lambda: gen_regular(0, 4, 1, 1.0, True, 0),
            lambda: make_instance(np.zeros((0, 3, 3)), np.zeros((0, 3))),
            lambda: make_instance(np.zeros((2, 0, 0)), np.zeros((2, 0))),
        ],
        ids=["gen-interpolating-n0", "gen-regular-n0", "gen-regular-d0", "make-n0", "make-d0"],
    )
    def test_empty_instances_are_rejected(self, build):
        with pytest.raises(ValueError, match="^d and n must be positive integers"):
            build()

    def test_unit_sharpness_rescaling(self):
        inst = gen_interpolating(3, 5, 3, 11, unit_sharpness=True)
        lam = float(np.max(np.linalg.eigvalsh(inst.mean_hessian())))
        assert lam == pytest.approx(1.0, abs=1e-12)

    def test_regular_unit_sharpness_rescaling(self):
        inst = gen_regular(4, 6, 2, 1.0, True, 12, unit_sharpness=True)
        assert float(np.max(np.linalg.eigvalsh(inst.mean_hessian()))) == pytest.approx(1.0, abs=1e-12)
        assert classify(inst) is MinimumClass.REGULAR

    @pytest.mark.parametrize(
        "hessians, gradients, message",
        [
            (np.zeros((2, 2, 3)), np.zeros((2, 2)), r"^hessians must have shape \(n, d, d\), got \(2, 2, 3\)"),
            (np.zeros((2, 2, 2)), np.zeros((2, 3)), r"^gradients must have shape \(2, 2\), got \(2, 3\)"),
            (np.zeros((2, 2, 2)), np.ones((2, 2)), "^gradients do not sum to zero"),
        ],
        ids=["hessian-shape", "gradient-shape", "mean-gradient"],
    )
    def test_make_instance_rejects(self, hessians, gradients, message):
        with pytest.raises(ValueError, match=message):
            make_instance(hessians, gradients)


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

    def test_non_utf8_file_is_malformed(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b'\xff\xfe{"d": 1, "n": 1, "hessians": [[1.0]], "gradients": [[0.0]]}')
        with pytest.raises(InstanceFormatError, match="^malformed instance file: 'utf-8' codec"):
            load_instance(path)

    @pytest.mark.parametrize("label", [None, 3, {"a": 1}, ["x"]])
    def test_non_string_label_names_the_field(self, tmp_path, label):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"d": 1, "n": 1, "hessians": [[1.0]], "gradients": [[0.0]], "label": label}), encoding="utf-8")
        with pytest.raises(InstanceFormatError, match="^label must be a string"):
            load_instance(path)

    def test_missing_label_loads_empty(self, tmp_path):
        path = tmp_path / "inst.json"
        path.write_text('{"d": 1, "n": 1, "hessians": [[1.0]], "gradients": [[0.0]]}', encoding="utf-8")
        assert load_instance(path).label == ""

    def test_missing_field(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"d": 1, "n": 1, "hessians": [[1.0]]}', encoding="utf-8")
        with pytest.raises(InstanceFormatError, match="gradients"):
            load_instance(path)


def _legacy_save(inst, path):
    """The list-of-decimals writer of earlier versions: the oracle for old files."""

    def fmt(x):
        return format(float(x), ".17g")

    rows_h = ",".join("[" + ",".join(fmt(v) for v in hi.reshape(-1)) + "]" for hi in inst.hessians)
    rows_g = ",".join("[" + ",".join(fmt(v) for v in gi) + "]" for gi in inst.gradients)
    doc = (
        "{"
        f'"d": {inst.d}, "n": {inst.n}, '
        f'"hessians": [{rows_h}], '
        f'"gradients": [{rows_g}], '
        f'"label": {json.dumps(inst.label)}'
        "}"
    )
    path.write_text(doc + "\n", encoding="utf-8")


def _assert_same_bits(a, b):
    assert a.dtype == b.dtype == np.float64 and a.shape == b.shape
    np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))


def _special_values():
    """-0.0, the smallest subnormal and +-1e308, in symmetric Hessians and zero-mean gradients."""
    tiny = 5e-324
    hessians = np.array([[[1e308, -0.0], [-0.0, tiny]], [[-1e308, 1.0], [1.0, 2.0]]])
    gradients = np.array([[-0.0, tiny], [0.0, -tiny]])
    return ProblemInstance(d=2, n=2, hessians=hessians, gradients=gradients, label="special")


_ROUND_TRIP = {**_FAMILIES, "special-values": _special_values}


class TestBinaryFormat:
    @pytest.mark.parametrize("case", sorted(_ROUND_TRIP))
    def test_round_trip_is_bit_exact(self, tmp_path, case):
        inst = _ROUND_TRIP[case]()
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        loaded = load_instance(path)
        _assert_same_bits(loaded.hessians, inst.hessians)
        _assert_same_bits(loaded.gradients, inst.gradients)
        assert (loaded.d, loaded.n, loaded.label) == (inst.d, inst.n, inst.label)

    def test_asymmetry_within_tolerance_is_symmetrized(self, tmp_path):
        path = tmp_path / "inst.json"
        path.write_text('{"d": 2, "n": 1, "hessians": [[2.0, 1.0, 1.0000000000001, 3.0]], "gradients": [[0.0, 0.0]]}', encoding="utf-8")
        h = np.array([[2.0, 1.0], [1.0000000000001, 3.0]])
        _assert_same_bits(load_instance(path).hessians, 0.5 * (h + h.T)[None])

    @pytest.mark.parametrize("family", sorted(_FAMILIES))
    def test_legacy_files_load_bit_identically(self, tmp_path, family):
        inst = _FAMILIES[family]()
        legacy, binary = tmp_path / "legacy.json", tmp_path / "binary.json"
        _legacy_save(inst, legacy)
        save_instance(inst, binary)
        old, new = load_instance(legacy), load_instance(binary)
        _assert_same_bits(old.hessians, new.hessians)
        _assert_same_bits(old.gradients, new.gradients)
        assert old.label == new.label == inst.label

    def test_arrays_are_written_as_binary_payloads(self, tmp_path, scalar_pair):
        path = tmp_path / "inst.json"
        save_instance(scalar_pair, path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert list(doc) == ["d", "n", "hessians", "gradients", "label"]
        assert {k: v for k, v in doc["hessians"].items() if k != "base64"} == {"dtype": "<f8", "shape": [2, 1, 1]}
        assert {k: v for k, v in doc["gradients"].items() if k != "base64"} == {"dtype": "<f8", "shape": [2, 1]}

    @pytest.mark.parametrize("field", ["hessians", "gradients"])
    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(lambda p: p.update(dtype="<f4"), id="dtype"),
            pytest.param(lambda p: p.update(shape=p["shape"][1:]), id="shape"),
            pytest.param(lambda p: p.update(base64="not base64!"), id="not-base64"),
            pytest.param(lambda p: p.update(base64="\u00e9" + p["base64"][1:]), id="non-ascii"),
            pytest.param(lambda p: p.update(base64=p["base64"][:-4]), id="truncated"),
            pytest.param(lambda p: p.pop("dtype"), id="missing-key"),
            pytest.param(lambda p: p.update(base64=7), id="base64-not-a-string"),
        ],
    )
    def test_bad_payload_names_the_field(self, tmp_path, field, edit):
        path = tmp_path / "inst.json"
        save_instance(gen_regular(3, 4, 2, 1.0, False, 5), path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        edit(doc[field])
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(InstanceFormatError, match=f"^{field}: "):
            load_instance(path)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"hessians": [[1.0]]}, "^hessians/gradients length does not match n"),
            ({"hessians": [[1.0], 3.0]}, "^hessian 1 is not a list of reals"),
            ({"gradients": [[0.0], ["x"]]}, r"^gradients: entries must be reals"),
            ({"gradients": "0 0"}, "^gradients must be a binary payload or a list of samples"),
        ],
        ids=["row-count", "row-not-a-list", "non-real-entries", "neither-payload-nor-list"],
    )
    def test_bad_list_form_names_the_problem(self, tmp_path, fields, message):
        path = tmp_path / "bad.json"
        doc = {"d": 1, "n": 2, "hessians": [[1.0], [3.0]], "gradients": [[0.0], [0.0]], **fields}
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(InstanceFormatError, match=message):
            load_instance(path)

    def test_top_level_must_be_an_object(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(InstanceFormatError, match="^an instance file holds one JSON object"):
            load_instance(path)

    def test_boolean_sizes_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"d": true, "n": 2, "hessians": [[1.0], [3.0]], "gradients": [[0.0], [0.0]]}', encoding="utf-8")
        with pytest.raises(InstanceFormatError, match="d and n must be positive integers"):
            load_instance(path)

    def test_saves_are_deterministic(self, tmp_path):
        inst = gen_regular(5, 7, 2, 1.0, True, 8)
        a, b, c = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "c.json"
        save_instance(inst, a)
        save_instance(inst, b)
        save_instance(load_instance(a), c)
        assert a.read_bytes() == b.read_bytes() == c.read_bytes()

    def test_load_cost(self, tmp_path):
        d, n = 96, 64
        inst = gen_regular(d, n, 24, 1.0, False, 4)
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        assert path.stat().st_size <= math.ceil(8 * n * (d * d + d) * 4 / 3) + 1024
        arrays = inst.hessians.nbytes + inst.gradients.nbytes
        tracemalloc.start()
        try:
            loaded = load_instance(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        _assert_same_bits(loaded.hessians, inst.hessians)
        assert peak <= 5 * arrays, f"load_instance peaked at {peak / 1e6:.1f} MB for {arrays / 1e6:.2f} MB of arrays"


def _dumps_save(inst, path):
    """The whole-document writer of earlier versions: the oracle for save_instance's bytes."""

    def payload(a):
        a = np.ascontiguousarray(a, dtype="<f8")
        return {"dtype": "<f8", "shape": list(a.shape), "base64": base64.b64encode(a.tobytes()).decode("ascii")}

    doc = {"d": inst.d, "n": inst.n, "hessians": payload(inst.hessians), "gradients": payload(inst.gradients), "label": inst.label}
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")


def _assert_same_file(inst, tmp_path):
    streamed, whole = tmp_path / "streamed.json", tmp_path / "whole.json"
    save_instance(inst, streamed)
    _dumps_save(inst, whole)
    assert streamed.read_bytes() == whole.read_bytes()


_LABELS = {
    "quotes": 'a "quoted" label',
    "backslashes": "back\\slash \\n \\u0041",
    "non-ascii": "na\u00efve \u2211 \U0001f600",
    "control": "nul\x00 tab\t newline\n",
    "payload-text": '"base64": ""',
    "payload-open": '", "base64": "',
}


class TestStreamedSave:
    @pytest.mark.parametrize("case", sorted(_ROUND_TRIP))
    def test_files_match_the_whole_document_writer(self, tmp_path, case):
        _assert_same_file(_ROUND_TRIP[case](), tmp_path)

    @pytest.mark.parametrize("label", sorted(_LABELS))
    def test_adversarial_labels(self, tmp_path, label):
        inst = dataclasses.replace(gen_regular(3, 4, 2, 1.0, False, 5), label=_LABELS[label])
        _assert_same_file(inst, tmp_path)
        assert load_instance(tmp_path / "streamed.json").label == _LABELS[label]

    @pytest.mark.parametrize("slice_bytes", [3, 6])
    @pytest.mark.parametrize("d,n", [(2, 5), (3, 4), (1, 1)])
    def test_many_slices(self, tmp_path, monkeypatch, slice_bytes, d, n):
        # (2, 5) leaves a ragged last slice in both payloads; (3, 4) none at 3 bytes.
        monkeypatch.setattr(instances, "_SLICE_BYTES", slice_bytes)
        inst = gen_regular(d, n, 1, 1.0, False, 9)
        _assert_same_file(inst, tmp_path)
        _assert_same_bits(load_instance(tmp_path / "streamed.json").hessians, inst.hessians)

    def test_gen_output_matches(self, tmp_path):
        out = tmp_path / "gen.json"
        assert main(["gen", "--kind", "regular", "--d", "5", "--n", "7", "--rank", "2", "--seed", "3", "--out", str(out)]) == EXIT_OK
        whole = tmp_path / "whole.json"
        _dumps_save(load_instance(out), whole)
        assert out.read_bytes() == whole.read_bytes()

    @pytest.mark.parametrize("label", [None, 3, b"bytes"])
    def test_non_string_label_is_not_saved(self, tmp_path, label):
        path = tmp_path / "inst.json"
        inst = dataclasses.replace(gen_regular(2, 3, 1, 1.0, False, 1), label=label)
        with pytest.raises(ValueError, match="label must be a string"):
            save_instance(inst, path)
        assert not path.exists()

    def test_save_cost(self, tmp_path):
        inst = gen_regular(96, 64, 24, 1.0, False, 4)
        arrays = inst.hessians.nbytes + inst.gradients.nbytes
        slice_text = 4 * instances._SLICE_BYTES // 3
        path = tmp_path / "inst.json"
        tracemalloc.start()
        try:
            save_instance(inst, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * slice_text < arrays / 2, f"save_instance peaked at {peak / 1e6:.2f} MB for {arrays / 1e6:.2f} MB of arrays"
        _assert_same_bits(load_instance(path).hessians, inst.hessians)


_NON_FINITE = {"nan": float("nan"), "+inf": float("inf"), "-inf": float("-inf")}


def _with_bad_entry(field, value):
    """n=3, d=1 arrays with ``value`` in samples 1 and 2 of ``field``."""
    hessians = np.ones((3, 1, 1))
    gradients = np.zeros((3, 1))
    target = hessians if field == "hessians" else gradients
    target[1:] = value
    return hessians, gradients


class TestSymmetrization:
    """make_instance and load_instance halve before they add, so a finite stack stays finite."""

    def test_make_instance_keeps_symmetric_subnormals(self):
        # Halving would round the odd multiple 5e-324 of the smallest subnormal to 0.
        hessians = np.array([[[5e-324, 3e-323], [3e-323, 1.0]]])
        inst = make_instance(hessians, [[0, 0]])
        _assert_same_bits(inst.hessians, hessians)

    HUGE = np.diag([1.7e308, 1.0])

    def test_make_instance_keeps_huge_entries(self):
        stack = np.stack([self.HUGE, self.HUGE])
        inst = make_instance(stack, np.zeros((2, 2)))
        _assert_same_bits(inst.hessians, stack)
        assert classify(inst) is MinimumClass.INTERPOLATING

    def test_load_symmetrizes_huge_entries_without_overflow(self, tmp_path):
        asym = self.HUGE.copy()
        asym[1, 0] = 1e-3  # within the load tolerance, 1e-9 of the largest entry
        path = tmp_path / "inst.json"
        doc = {"d": 2, "n": 2, "hessians": [asym.ravel().tolist(), self.HUGE.ravel().tolist()], "gradients": [[0.0, 0.0]] * 2}
        path.write_text(json.dumps(doc), encoding="utf-8")
        hessians = load_instance(path).hessians
        assert np.all(np.isfinite(hessians))
        want = np.stack([self.HUGE, self.HUGE])
        want[0, 0, 1] = want[0, 1, 0] = 5e-4
        _assert_same_bits(hessians, want)


class TestNonFinite:
    @pytest.mark.parametrize("value", sorted(_NON_FINITE))
    @pytest.mark.parametrize("field", ["hessians", "gradients"])
    @pytest.mark.parametrize("form", ["binary", "lists"])
    def test_load_names_first_sample(self, tmp_path, form, field, value):
        hessians, gradients = _with_bad_entry(field, _NON_FINITE[value])
        path = tmp_path / "bad.json"
        if form == "binary":
            save_instance(ProblemInstance(d=1, n=3, hessians=hessians, gradients=gradients), path)
        else:  # JSON's NaN / Infinity / -Infinity tokens, as a hand-written file holds them
            doc = {"d": 1, "n": 3, "hessians": hessians.reshape(3, 1).tolist(), "gradients": gradients.tolist()}
            path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(InstanceFormatError, match=f"^{field[:-1]} 1 has a non-finite entry$"):
            load_instance(path)

    @pytest.mark.parametrize("value", sorted(_NON_FINITE))
    @pytest.mark.parametrize("field", ["hessians", "gradients"])
    def test_make_instance_names_first_sample(self, field, value):
        hessians, gradients = _with_bad_entry(field, _NON_FINITE[value])
        with pytest.raises(ValueError, match=f"^{field[:-1]} 1 has a non-finite entry$"):
            make_instance(hessians, gradients)


class TestStreams:
    def test_pool_matches_fresh_streams(self):
        pool = StreamPool()
        for seed in (0, 12345):
            for index in (0, 1, 7):
                a = stream(seed, index).standard_normal(16)
                b = pool.get(seed, index).standard_normal(16)
                np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("index", [-1, 2**64 + 5])
    def test_keys_match_the_oracle_beyond_64_bits(self, index):
        # The index is taken mod 2**64, as the seed is.
        want = 3 ^ splitmix64(index)
        for rng in (stream(3, index), StreamPool().get(3, index)):
            key = rng.bit_generator.state["state"]["key"]
            assert [int(key[0]), int(key[1])] == [want, 0]

    def test_distinct_indices_give_distinct_streams(self):
        a = stream(3, 1).standard_normal(8)
        b = stream(3, 2).standard_normal(8)
        assert not np.array_equal(a, b)
