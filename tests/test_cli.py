import ast
import re
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import sgdstab.cli as cli
import sgdstab.instances as instances
import sgdstab.kron_certify as kron_certify
import sgdstab.moments as moments
import sgdstab.spectral as spectral
import sgdstab.stability as stability
from sgdstab import Hyperparams, gen_regular, load_instance, make_instance, save_instance, variance_threshold
from sgdstab.cli import EXIT_INPUT, EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, EXIT_VERIFY, main, run_suites
from sgdstab.instances import fmt
from sgdstab.montecarlo import SimConfig


@pytest.fixture
def scalar_pair_file(tmp_path, scalar_pair):
    path = tmp_path / "scalar_pair.json"
    save_instance(scalar_pair, path)
    return str(path)


@pytest.fixture
def scalar_noise_file(tmp_path, scalar_noise_pair):
    path = tmp_path / "scalar_noise.json"
    save_instance(scalar_noise_pair, path)
    return str(path)


class TestGen:
    def test_interpolating(self, tmp_path, capsys):
        out = tmp_path / "a.json"
        code = main(
            ["gen", "--kind", "interpolating", "--d", "4", "--n", "8", "--rank", "2", "--seed", "7", "--out", str(out)]
        )
        assert code == EXIT_OK
        assert "classification: interpolating" in capsys.readouterr().out
        inst = load_instance(out)
        assert inst.d == 4 and inst.n == 8

    def test_regular_with_zero_scale_reports_interpolating(self, tmp_path, capsys):
        out = tmp_path / "b.json"
        code = main(
            ["gen", "--kind", "regular", "--d", "3", "--n", "6", "--rank", "2", "--grad-scale", "0", "--out", str(out)]
        )
        assert code == EXIT_OK
        assert "classification: interpolating" in capsys.readouterr().out

    @pytest.mark.parametrize("kind", ["interpolating", "regular"])
    def test_empty_instance_is_an_input_error(self, tmp_path, capsys, kind):
        out = tmp_path / "empty.json"
        code = main(["gen", "--kind", kind, "--d", "3", "--n", "0", "--rank", "1", "--out", str(out)])
        assert code == EXIT_INPUT
        assert "d and n must be positive integers" in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_rank_exits_nonzero(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        code = main(["gen", "--kind", "interpolating", "--d", "2", "--n", "4", "--rank", "3", "--out", str(out)])
        assert code == EXIT_INPUT
        assert "rank" in capsys.readouterr().err


class TestAnalyze:
    def test_scalar_pair_values(self, scalar_pair_file, capsys):
        code = main(["analyze", scalar_pair_file, "--batch", "1"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "variance_threshold: 0.8" in out
        assert "mean_threshold: 1" in out
        assert "bound_eigvec: 0.8" in out
        assert "bound_trace: 0.8" in out

    def test_sharpness_matches_sweep(self, tmp_path, capsys):
        # 2 / mean_threshold, printed before, differed from lambda_max(Hbar) in the last digits here.
        inst = gen_regular(6, 8, 2, 1.0, False, 6)
        path, out = tmp_path / "inst.json", tmp_path / "s.csv"
        save_instance(inst, path)
        assert main(["analyze", str(path), "--batch", "2"]) == EXIT_OK
        printed = {key: value for key, _, value in (line.partition(": ") for line in capsys.readouterr().out.splitlines())}
        argv = ["sweep", str(path), "--batches", "2", "--eta-min", "0.1", "--eta-max", "0.1", "--eta-count", "1"]
        assert main(argv + ["--rank-one-steps", "0", "--out", str(out)]) == EXIT_OK
        swept = out.read_text(encoding="utf-8").splitlines()[1].split(",")[-1]
        assert printed["sharpness"] == swept == fmt(stability.sharpness(inst))
        assert printed["sharpness"] != fmt(2.0 / float(printed["mean_threshold"]))

    def test_gd_regime_flag(self, scalar_pair_file, capsys):
        code = main(["analyze", scalar_pair_file, "--batch", "2"])
        assert code == EXIT_OK
        assert "GD regime" in capsys.readouterr().out

    def test_eta_classification_lines(self, scalar_pair_file, capsys):
        code = main(["analyze", scalar_pair_file, "--batch", "1", "--eta", "0.79", "0.81"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "eta=0.79" in out and "VarStable" in out
        assert "VarUnstable" in out

    @pytest.mark.parametrize("eta", ["-0.5", "nan", "inf", "-inf"])
    def test_invalid_step_size_is_input_error(self, scalar_pair_file, tmp_path, capsys, eta):
        out = tmp_path / "a.csv"
        assert main(["analyze", scalar_pair_file, "--batch", "1", "--eta", "0.5", eta, "--out", str(out)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert "step size must be finite and nonnegative" in captured.err
        assert "Stable" not in captured.out and not out.exists()

    def test_missing_file(self, capsys):
        code = main(["analyze", "/nonexistent/inst.json", "--batch", "1"])
        assert code == EXIT_INPUT

    @pytest.mark.parametrize("where", ["instance", "out"])
    def test_directory_path_is_input_error(self, scalar_pair_file, tmp_path, capsys, where):
        # A directory where a file belongs raises IsADirectoryError, an OSError as a missing file's is.
        if where == "instance":
            argv = ["analyze", str(tmp_path), "--batch", "1"]
        else:
            argv = ["analyze", scalar_pair_file, "--batch", "1", "--eta", "0.1", "--out", str(tmp_path)]
        assert main(argv) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("input error:") and "Traceback" not in err

    @pytest.mark.parametrize(
        "hessians,message",
        [
            ("[[1.0]]", "hessian 0 has 1 entries, expected 100000000000000"),
            ('{"dtype": "<f8", "shape": [1, 10000000, 10000000], "base64": "AAAAAAAA8D8="}', "hessians: payload holds 8 bytes"),
        ],
        ids=["lists", "payload"],
    )
    def test_sizes_checked_before_allocating(self, tmp_path, capsys, hessians, message):
        path = tmp_path / "huge.json"
        path.write_text(f'{{"d": 10000000, "n": 1, "hessians": {hessians}, "gradients": [[0.0]]}}', encoding="utf-8")
        code = main(["analyze", str(path), "--batch", "1"])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err.startswith(f"input error: {message}")


class TestBatchSizeRule:
    """analyze and sweep reject a batch size outside [1, n] with mixing_weight's message, as input errors."""

    def test_analyze_batch_above_n(self, scalar_pair_file, capsys):
        assert main(["analyze", scalar_pair_file, "--batch", "3"]) == EXIT_INPUT
        assert capsys.readouterr().err == "input error: batch size 3 out of range [1, 2]\n"

    @pytest.mark.parametrize("batch", ["0", "3"])
    def test_sweep_batch_out_of_range_writes_no_file(self, scalar_pair_file, tmp_path, capsys, batch):
        out = tmp_path / "sweep.csv"
        argv = ["sweep", scalar_pair_file, "--batches", "1", batch, "--eta-min", "0.1", "--eta-max", "0.2", "--eta-count", "2"]
        assert main([*argv, "--out", str(out)]) == EXIT_INPUT
        assert capsys.readouterr().err == f"input error: batch size {batch} out of range [1, 2]\n"
        assert not out.exists()


class TestSweep:
    def test_rows_and_chain(self, scalar_pair_file, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(
            [
                "sweep",
                scalar_pair_file,
                "--batches",
                "1",
                "2",
                "--eta-min",
                "0.1",
                "--eta-max",
                "0.8",
                "--eta-count",
                "5",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK
        lines = out.read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == "batch,eta,two_over_eta,generalized_sharpness,rank_one_bound,eigvec_bound,sharpness"
        assert len(lines) == 11
        for line in lines[1:]:
            cells = line.split(",")
            two_over_eta, gen_sharp, rank_one, eig_b, sharp = map(float, cells[2:])
            slack = 1e-9 * max(1.0, gen_sharp)
            assert two_over_eta >= gen_sharp - slack
            assert gen_sharp >= rank_one - slack
            assert rank_one >= eig_b - slack
            assert eig_b >= sharp - slack

    def test_log_grid(self, scalar_pair_file, tmp_path):
        out = tmp_path / "log.csv"
        argv = ["sweep", scalar_pair_file, "--batches", "1", "--eta-min", "0.01", "--eta-max", "1", "--eta-count", "5", "--log-grid"]
        assert main([*argv, "--out", str(out)]) == EXIT_OK
        etas = [row.split(",")[1] for row in out.read_text(encoding="utf-8").strip().split("\n")[1:]]
        assert etas == [fmt(eta) for eta in np.geomspace(0.01, 1.0, 5)]

    def test_full_batch_generalized_sharpness_equals_sharpness(self, scalar_pair_file, tmp_path):
        out = tmp_path / "one.csv"
        code = main(
            ["sweep", scalar_pair_file, "--batches", "2", "--eta-min", "0.5", "--eta-max", "0.5", "--eta-count", "1", "--out", str(out)]
        )
        assert code == EXIT_OK
        row = out.read_text(encoding="utf-8").strip().split("\n")[1].split(",")
        assert float(row[3]) == pytest.approx(float(row[6]), rel=1e-9)

    def test_rerun_is_byte_identical(self, scalar_pair_file, tmp_path):
        args = lambda name: [
            "sweep", scalar_pair_file, "--batches", "1", "--eta-min", "0.1", "--eta-max", "0.7",
            "--eta-count", "4", "--out", str(tmp_path / name),
        ]
        assert main(args("s1.csv")) == EXIT_OK
        assert main(args("s2.csv")) == EXIT_OK
        assert (tmp_path / "s1.csv").read_bytes() == (tmp_path / "s2.csv").read_bytes()

    def test_empty_grid_is_usage_error(self, scalar_pair_file, tmp_path, capsys):
        code = main(
            ["sweep", scalar_pair_file, "--batches", "1", "--eta-min", "0.1", "--eta-max", "0.5", "--eta-count", "0", "--out", str(tmp_path / "x.csv")]
        )
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "eta_min, eta_max", [("nan", "0.5"), ("0.1", "inf"), ("nan", "nan"), ("0.1", "nan"), ("-inf", "0.5"), ("0.1", "-inf")]
    )
    def test_non_finite_grid_is_usage_error(self, scalar_pair_file, tmp_path, capsys, eta_min, eta_max):
        out = tmp_path / "x.csv"
        argv = ["sweep", scalar_pair_file, "--batches", "1", "--eta-min", eta_min, "--eta-max", eta_max, "--eta-count", "3"]
        assert main(argv + ["--out", str(out)]) == EXIT_USAGE
        assert "require finite 0 < eta-min <= eta-max" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_rank_one_steps_is_usage_error(self, scalar_pair_file, tmp_path, capsys):
        code = main(
            ["sweep", scalar_pair_file, "--batches", "1", "--eta-min", "0.1", "--eta-max", "0.5", "--eta-count", "2", "--rank-one-steps", "-1", "--out", str(tmp_path / "x.csv")]
        )
        assert code == EXIT_USAGE
        assert "rank-one-steps" in capsys.readouterr().err

    @pytest.mark.parametrize("batches", [["2"], ["1", "2", "4"]])
    def test_one_rank_one_block_for_all_batches(self, batches, tmp_path, monkeypatch):
        # Every batch size rides in the same stacked GEMMs: the first carries all 8 starts of
        # every batch size, and the ascent makes at most one per iteration after it.
        inst = gen_regular(5, 6, 3, 1.0, False, 21)
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        rows = []
        true_map = stability.product_map

        def counted(basis):
            products = true_map(basis)

            def apply(xs):
                rows.append(xs.shape[0])
                return products(xs)

            return apply

        monkeypatch.setattr(stability, "product_map", counted)
        steps = 20
        argv = ["sweep", str(path), "--batches", *batches, "--eta-min", "0.1", "--eta-max", "0.5", "--eta-count", "2"]
        assert main(argv + ["--rank-one-steps", str(steps), "--out", str(tmp_path / "s.csv")]) == EXIT_OK
        assert rows[0] == 8 * len(batches)
        assert 1 < len(rows) <= steps + 1
        assert max(rows) == rows[0]

    def test_decomposes_hbar_once(self, tmp_path, monkeypatch):
        # sharpness, every batch's threshold, eigenvector bound and the ascent share one
        # decomposition of Hbar, and print what the public functions return.
        import sgdstab.linalg as linalg_module

        inst = gen_regular(6, 7, 3, 1.0, False, 5)
        path, out = tmp_path / "inst.json", tmp_path / "s.csv"
        save_instance(inst, path)
        batches, steps = [1, 3, 7], 30
        calls = []
        true_sym_eig = linalg_module.sym_eig

        def counted(*args, **kwargs):
            calls.append(1)
            return true_sym_eig(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("sgdstab") and getattr(module, "sym_eig", None) is true_sym_eig:
                monkeypatch.setattr(module, "sym_eig", counted)
        argv = ["sweep", str(path), "--batches", *map(str, batches), "--eta-min", "0.1", "--eta-max", "0.5"]
        assert main(argv + ["--eta-count", "3", "--rank-one-steps", str(steps), "--out", str(out)]) == EXIT_OK
        assert len(calls) == 1
        monkeypatch.undo()
        ascents = stability._rank_one_ascent(inst, stability.range_basis(inst), batches, steps, 0)
        lines = ["batch,eta,two_over_eta,generalized_sharpness,rank_one_bound,eigvec_bound,sharpness"]
        for b, (rank_one_value, _) in zip(batches, ascents):
            for eta in np.linspace(0.1, 0.5, 3):
                cells = (eta, 2.0 / eta, stability.generalized_sharpness(inst, b), rank_one_value,
                         2.0 / stability.necessary_bound_eigvec(inst, b), stability.sharpness(inst))
                lines.append(",".join([str(b)] + [fmt(x) for x in cells]))
        assert out.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")


def _sweep_argv(path, out, thr):
    return ["sweep", str(path), "--batches", "1", "2", "--eta-min", repr(0.5 * thr), "--eta-max", repr(1.2 * thr),
            "--eta-count", "3", "--rank-one-steps", "20", "--out", str(out)]


class TestProductionPaths:
    """analyze and sweep decompose the Hessian stack once and form no d^2 x d^2 matrix."""

    @pytest.mark.parametrize("d", [24, kron_certify.DENSE_CAP])
    def test_no_dense_matrix(self, d, tmp_path, monkeypatch):
        inst = gen_regular(d, 6, 4, 1.0, False, d)
        r = min(d, 6 * 4)  # six rank-4 Hessians
        assert np.linalg.matrix_rank(inst.mean_hessian()) == r
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        thr = variance_threshold(inst, 2)
        etas = [repr(f * thr) for f in (0.5, 0.9, 1.2)]

        def forbidden(*args):
            raise AssertionError("a d^2 x d^2 matrix was formed")

        monkeypatch.setattr(kron_certify, "kron", forbidden)
        monkeypatch.setattr(stability, "kron_sum", forbidden)
        solves = []
        true_lanczos = spectral.lanczos_solve

        def counted(op, start):
            solves.append(start.size)
            return true_lanczos(op, start)

        monkeypatch.setattr(spectral, "lanczos_solve", counted)
        assert main(["analyze", str(path), "--batch", "2", "--eta", *etas, "--out", str(tmp_path / "a.csv")]) == EXIT_OK
        # One threshold solve on the r x r range block, whatever the number of step sizes:
        # the verdict runs no spectral check.
        assert solves == [r * r]
        assert main(_sweep_argv(path, tmp_path / "s.csv", thr)) == EXIT_OK

    def test_one_range_basis_per_call(self, tmp_path, monkeypatch):
        # analyze, a sweep over all its batch sizes and each limit solve build Hbar's range
        # basis once, and the limit's linear solve runs on its r x r block.
        inst = gen_regular(48, 6, 4, 1.0, False, 48)
        r = 24
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        thr = variance_threshold(inst, 2)
        calls, solve_dims = [], []
        true_basis, true_solve = stability.range_basis, moments.spd_solve

        def counted_basis(*args, **kwargs):
            calls.append(1)
            return true_basis(*args, **kwargs)

        def counted_solve(op, b):
            solve_dims.append(b.size)
            return true_solve(op, b)

        for name, module in list(sys.modules.items()):
            if name.startswith("sgdstab") and getattr(module, "range_basis", None) is true_basis:
                monkeypatch.setattr(module, "range_basis", counted_basis)
        monkeypatch.setattr(moments, "spd_solve", counted_solve)
        assert main(["analyze", str(path), "--batch", "2", "--eta", repr(0.5 * thr), repr(1.5 * thr)]) == EXIT_OK
        assert len(calls) == 1
        calls.clear()
        argv = ["sweep", str(path), "--batches", "1", "2", "6", "--eta-min", repr(0.5 * thr), "--eta-max", repr(thr)]
        assert main(argv + ["--eta-count", "3", "--rank-one-steps", "20", "--out", str(tmp_path / "s.csv")]) == EXIT_OK
        assert len(calls) == 1
        hp = Hyperparams(eta=0.5 * thr, batch=2)
        for solve in (moments.covariance_limit, moments.asymptotic_quantities):
            calls.clear()
            solve(inst, hp)
            assert len(calls) == 1
        assert solve_dims == [r * r, r * r]

    def test_decomposes_the_hessian_stack_once(self, tmp_path, monkeypatch, capsys, stack_decompositions):
        # One factor_stack of the H_i per call both classifies the instance and factors it,
        # here by pivoted Cholesky with no batched eigensolve of the stack; simulate, which
        # builds no range basis, classifies once.
        inst = gen_regular(6, 5, 3, 1.0, False, 9)
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        thr = variance_threshold(inst, 2)
        hp = Hyperparams(eta=0.5 * thr, batch=2)
        calls = stack_decompositions(inst)
        assert main(["analyze", str(path), "--batch", "2", "--eta", repr(0.5 * thr), repr(1.5 * thr)]) == EXIT_OK
        assert "classification: regular" in capsys.readouterr().out
        assert calls == ["factor"]
        for run in (
            lambda: main(_sweep_argv(path, tmp_path / "s.csv", thr)),
            lambda: moments.covariance_limit(inst, hp),
            lambda: moments.asymptotic_quantities(inst, hp),
        ):
            calls.clear()
            run()
            assert calls == ["factor"]
        classified = []
        true_classify = instances.classify

        def counted(*args, **kwargs):
            classified.append(1)
            return true_classify(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("sgdstab") and getattr(module, "classify", None) is true_classify:
                monkeypatch.setattr(module, "classify", counted)
        for exact in ([], ["--exact"]):
            calls.clear()
            classified.clear()
            argv = ["simulate", str(path), "--eta", repr(0.5 * thr), "--batch", "2", "--steps", "3", *exact]
            assert main(argv + ["--out", str(tmp_path / "sim.csv")]) == EXIT_OK
            assert calls == ["factor"] and len(classified) == 1

    @pytest.mark.parametrize(
        "hessians",
        [
            [[[-1.0]], [[3.0]]],  # H_0 < 0 with Hbar = 1 > 0
            [np.diag([1.0, 0.0]) - 0.5 * np.outer([1.0, 1.0], [1.0, 1.0]), np.diag([1.0, 2.0])],  # H_0 indefinite
            [[[-3.0]], [[1.0]]],  # Hbar = -1 is not PSD either
        ],
    )
    def test_indefinite_sample_hessian_is_an_input_error(self, hessians, tmp_path, capsys):
        # The check reads the eigenvalues of the range basis's one decomposition of the H_i,
        # also where Hbar itself fails the PSD test.
        invalid = tmp_path / "invalid.json"
        inst = make_instance(hessians, np.zeros((2, len(hessians[0]))))
        assert np.linalg.eigvalsh(inst.hessians[0])[0] < 0
        save_instance(inst, invalid)
        for argv in (["analyze", str(invalid), "--batch", "1"], _sweep_argv(invalid, tmp_path / "x.csv", 1.0)):
            assert main(argv) == EXIT_INPUT
            assert "not a regular or interpolating minimum" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()


class TestSimulate:
    def test_exact_reaches_noise_floor(self, scalar_noise_file, tmp_path):
        out = tmp_path / "exact.csv"
        code = main(
            ["simulate", scalar_noise_file, "--eta", "1.0", "--batch", "1", "--steps", "400", "--exact", "--out", str(out)]
        )
        assert code == EXIT_OK
        last = out.read_text(encoding="utf-8").strip().split("\n")[-1].split(",")
        assert float(last[1]) == pytest.approx(1.0, abs=1e-6)

    def test_monte_carlo_divergence_columns(self, scalar_pair_file, tmp_path):
        out = tmp_path / "mc.csv"
        code = main(
            [
                "simulate", scalar_pair_file, "--eta", "1.0", "--batch", "1",
                "--steps", "400", "--replicates", "2000", "--seed", "21",
                "--divergence-factor", "1e4", "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        lines = out.read_text(encoding="utf-8").strip().split("\n")
        header = lines[0].split(",")
        assert header[-2:] == ["replicates", "diverged_count"]
        assert int(lines[-1].split(",")[-1]) >= 1

    def test_zero_eta_constant_columns(self, scalar_pair_file, tmp_path):
        out = tmp_path / "const.csv"
        code = main(
            ["simulate", scalar_pair_file, "--eta", "0.0", "--batch", "1", "--steps", "20", "--replicates", "16", "--out", str(out)]
        )
        assert code == EXIT_OK
        lines = out.read_text(encoding="utf-8").strip().split("\n")[1:]
        first_values = lines[0].split(",")[1:5]
        for line in lines[1:]:
            assert line.split(",")[1:5] == first_values

    # --replicates goes with the Monte-Carlo modes only: --exact rejects it.
    @pytest.mark.parametrize(
        "mode", [["--batch", "1", "--exact"], ["--batch", "1", "--replicates", "4"], ["--mixture-p", "0.5", "--replicates", "4"]]
    )
    @pytest.mark.parametrize("eta", ["nan", "inf", "-0.5", "-inf"])
    def test_invalid_step_size_is_input_error(self, scalar_pair_file, tmp_path, capsys, mode, eta):
        out = tmp_path / "sim.csv"
        argv = ["simulate", scalar_pair_file, "--eta", eta, *mode, "--steps", "5", "--out", str(out)]
        assert main(argv) == EXIT_INPUT
        assert "step size must be finite and nonnegative" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mode", [["--exact"], ["--replicates", "4"]], ids=["exact", "monte-carlo"])
    @pytest.mark.parametrize("batch", ["0", "3"])
    def test_batch_out_of_range_is_input_error(self, scalar_pair_file, tmp_path, capsys, mode, batch):
        # mixing_weight's message, the same as analyze and sweep print.
        out = tmp_path / "sim.csv"
        argv = ["simulate", scalar_pair_file, "--eta", "0.1", "--batch", batch, *mode, "--steps", "3", "--out", str(out)]
        assert main(argv) == EXIT_INPUT
        assert capsys.readouterr().err == f"input error: batch size {batch} out of range [1, 2]\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "mode, option, message",
        [
            (["--batch", "1", "--replicates", "4"], ["--divergence-factor", "nan"], "divergence_factor must be finite"),
            (["--mixture-p", "0.5", "--replicates", "4"], ["--divergence-factor", "inf"], "divergence_factor must be finite"),
            (["--batch", "1", "--replicates", "4"], ["--divergence-factor", "-inf"], "divergence_factor must be finite"),
            (["--batch", "1", "--replicates", "4"], ["--init-scale", "nan"], "init_offset must be finite"),
            (["--mixture-p", "0.5", "--replicates", "4"], ["--init-scale", "inf"], "init_offset must be finite"),
            (["--batch", "1", "--exact"], ["--init-scale", "nan"], "init_offset must be finite"),
            (["--batch", "1", "--exact"], ["--init-scale", "inf"], "init_offset must be finite"),
            (["--batch", "1", "--exact"], ["--init-scale", "-inf"], "init_offset must be finite"),
        ],
        ids=[
            "divergence-nan", "divergence-inf-mixture", "divergence-minus-inf", "init-nan", "init-inf-mixture",
            "init-nan-exact", "init-inf-exact", "init-minus-inf-exact",
        ],
    )
    def test_nonfinite_setting_is_input_error(self, scalar_pair_file, tmp_path, capsys, mode, option, message):
        out = tmp_path / "sim.csv"
        argv = ["simulate", scalar_pair_file, "--eta", "0.5", *mode, *option, "--steps", "5", "--out", str(out)]
        assert main(argv) == EXIT_INPUT
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "option",
        [["--replicates", "5"], ["--replicates", "1000"], ["--divergence-factor", "nan"], ["--divergence-factor", "1e6"]],
        ids=["replicates", "replicates-default-value", "divergence-nan", "divergence-default-value"],
    )
    def test_exact_with_monte_carlo_setting_is_usage_error(self, scalar_pair_file, tmp_path, capsys, option):
        out = tmp_path / "sim.csv"
        argv = ["simulate", scalar_pair_file, "--eta", "0.5", "--batch", "1", "--exact", *option, "--steps", "5", "--out", str(out)]
        assert main(argv) == EXIT_USAGE
        assert f"usage error: {option[0]} applies to Monte-Carlo runs, not to --exact" in capsys.readouterr().err
        assert not out.exists()

    # One rule, SimConfig's, rejects a step count below one in both modes.
    @pytest.mark.parametrize("mode", [["--batch", "1", "--exact"], ["--batch", "1", "--replicates", "4"]], ids=["exact", "monte-carlo"])
    def test_nonpositive_steps_is_input_error(self, scalar_pair_file, tmp_path, capsys, mode):
        out = tmp_path / "sim.csv"
        argv = ["simulate", scalar_pair_file, "--eta", "0.5", *mode, "--steps", "-3", "--out", str(out)]
        assert main(argv) == EXIT_INPUT
        assert "steps and replicates must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_exact_with_mixture_is_usage_error(self, scalar_pair_file, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        argv = ["simulate", scalar_pair_file, "--eta", "0.5", "--mixture-p", "0.5", "--exact", "--out", str(out)]
        assert main(argv) == EXIT_USAGE
        assert "usage error: --exact requires --batch" in capsys.readouterr().err
        assert not out.exists()

    def test_mixture_mode(self, scalar_pair_file, tmp_path):
        out = tmp_path / "mix.csv"
        code = main(
            ["simulate", scalar_pair_file, "--eta", "0.4", "--mixture-p", "1.0", "--steps", "50", "--replicates", "64", "--out", str(out)]
        )
        assert code == EXIT_OK


class TestVerify:
    def test_all_suites_pass(self, capsys):
        code = main(["verify", "--suite", "all", "--trials", "3", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == EXIT_OK, out
        assert "PASS" in out and "FAIL" not in out

    def test_injected_sign_error_is_caught(self, capsys, monkeypatch):
        true_build = kron_certify.second_moment_transition

        def broken(inst, eta, batch):
            q = true_build(inst, eta, batch)
            return q + 0.01 * eta * np.eye(q.shape[0])  # systematic offset

        monkeypatch.setattr(kron_certify, "second_moment_transition", broken)
        code = main(["verify", "--suite", "thresholds", "--trials", "2", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == EXIT_VERIFY
        assert "FAIL oracle-q-equality" in out

    def test_kron_trial_failing_two_checks_counts_once(self, capsys, monkeypatch):
        def failing(fam):
            # rho != lambda_max and coupled blocks; the top eigenvector matrix is PSD.
            return kron_certify.CertifyReport(
                rho=2.0, lambda_max=1.0, top_eigvec_matrix=np.eye(fam.dim), min_eig_of_top=1.0, block_coupling=1.0
            )

        monkeypatch.setattr(kron_certify, "certify", failing)
        radius, psd = run_suites("kron", 0, 3)
        assert (radius.trials, radius.failures) == (3, 3)
        assert psd.passed and psd.trials == 3
        assert main(["verify", "--suite", "kron", "--trials", "3"]) == EXIT_VERIFY
        out = capsys.readouterr().out
        assert "FAIL kron-spectral-radius-equals-top (0/3) -- spectral radius differs from the top eigenvalue" in out
        assert "PASS kron-top-eigvec-psd (3/3)" in out

    @pytest.mark.xfail(
        raises=AssertionError,
        strict=True,
        reason="known failure (README, ROADMAP item 7): factor=1.1: sgd=True, mixture=False",
    )
    def test_mixture_suite_passes_at_seed_zero(self):
        # When the classifier is mended this passes, and the strict xfail fails
        # until the README's known-failure note and the ROADMAP are updated.
        failed = [(res.name, res.detail) for res in run_suites("mixture", 0, 1) if not res.passed]
        assert failed == []

    @pytest.mark.parametrize("trials", ["0", "-2"])
    def test_nonpositive_trials_is_usage_error(self, capsys, trials):
        assert main(["verify", "--suite", "kron", "--trials", trials]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert "usage error: trials must be >= 1" in captured.err
        assert "PASS" not in captured.out

    def test_unknown_suite_is_usage_error(self, capsys):
        code = main(["verify", "--suite", "bogus"])
        assert code == EXIT_USAGE


class TestExitCodes:
    def test_no_command_is_usage_error(self):
        assert main([]) == EXIT_USAGE

    def test_lanczos_eigensolver_failure_is_numerical(self, tmp_path, monkeypatch, capsys):
        # LinAlgError is a ValueError; raised on the Lanczos tridiagonal, it must not read as an input error.
        inst = gen_regular(5, 4, 2, 1.0, False, 3)
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        true_eigh = np.linalg.eigh

        def fail_off_the_instance(a, *args, **kwargs):
            if np.ndim(a) == 2 and np.shape(a) != (inst.d, inst.d):
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return true_eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", fail_off_the_instance)
        assert main(["analyze", str(path), "--batch", "2"]) == EXIT_NUMERICAL
        assert "numerical failure: eigendecomposition failed: Eigenvalues did not converge" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "guard, message",
        [
            ("mean", "exceeds mean threshold"),
            ("eigvec", "exceeds necessary bound eigvec = "),
            ("trace", "exceeds necessary bound trace = "),
            ("rank-one", "exceeds necessary bound rank-one = "),
        ],
    )
    def test_threshold_above_a_bound_is_numerical(self, tmp_path, monkeypatch, capsys, guard, message):
        # At B = 1 this instance orders its bounds rank-one < trace < eigvec < mean threshold, so a
        # variance threshold placed between two of them trips exactly one of stability_verdict's guards.
        inst = gen_regular(6, 5, 3, 1.0, False, 9)
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        v = stability.stability_verdict(inst, 1, [])
        bounds = [v.bound_rank_one, v.bound_trace, v.bound_eigvec, v.mean_threshold, 2.0 * v.mean_threshold]
        assert bounds == sorted(bounds)
        k = ["rank-one", "trace", "eigvec", "mean"].index(guard)
        eta_var = 0.5 * (bounds[k] + bounds[k + 1])
        monkeypatch.setattr(stability, "range_sharpness", lambda basis, p: 2.0 / eta_var)
        assert main(["analyze", str(path), "--batch", "1"]) == EXIT_NUMERICAL
        assert message in capsys.readouterr().err

    def test_main_builds_one_parser(self, monkeypatch, scalar_pair_file):
        built = []
        true_init = cli._Parser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            true_init(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counted)
        cli._build_parser.cache_clear()
        try:
            assert main(["analyze", scalar_pair_file, "--batch", "1"]) == EXIT_OK
            assert main(["analyze", scalar_pair_file, "--batch", "2"]) == EXIT_OK
        finally:
            cli._build_parser.cache_clear()
        assert built.count("sgdstab") == 1

    def test_constants_are_distinct(self):
        assert len({EXIT_OK, EXIT_USAGE, EXIT_INPUT, EXIT_VERIFY, EXIT_NUMERICAL}) == 5


class TestNoTestOnlyNames:
    """Code that only the tests reach lives under tests/, not in the package."""

    def test_every_definition_has_a_caller_outside_the_tests(self):
        # Each top-level function or class, and each public method, of src/sgdstab must be
        # referenced elsewhere in src/ (its own body and the __init__ re-export do not count),
        # in bench/, or by name in README.md or pyproject.toml.
        root = Path(__file__).resolve().parents[1]
        trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted((root / "src" / "sgdstab").glob("*.py"))}

        def used(node):
            return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute)))

        in_src = sum((used(tree) for name, tree in trees.items() if name != "__init__.py"), Counter())
        texts = [root / "README.md", root / "pyproject.toml", *sorted((root / "bench").glob("*.py"))]
        words = set(re.findall(r"\w+", " ".join(p.read_text(encoding="utf-8") for p in texts)))
        unreferenced = []
        for name, tree in trees.items():
            for node in tree.body:
                if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    continue
                defs = [node]
                if isinstance(node, ast.ClassDef):
                    defs += [m for m in node.body if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")]
                unreferenced += [f"{name}:{d.name}" for d in defs if in_src[d.name] - used(d)[d.name] <= 0 and d.name not in words]
        assert unreferenced == []


class TestOneDefinitionPerRule:
    """Each rule check lives in one place in the package; callers call it instead of copying it."""

    @pytest.mark.parametrize(
        "message",
        [
            "out of range [1,",
            "mixture weight must lie in [0, 1]",
            "step size must be finite and nonnegative",
            "eigendecomposition failed",
        ],
    )
    def test_rule_message_occurs_once(self, message):
        src = Path(__file__).resolve().parents[1] / "src" / "sgdstab"
        assert sum(p.read_text(encoding="utf-8").count(message) for p in src.glob("*.py")) == 1

    def test_divergence_factor_is_read_once(self):
        # Monte-Carlo divergence has one rule, in montecarlo._run.
        src = Path(__file__).resolve().parents[1] / "src" / "sgdstab"
        assert sum(p.read_text(encoding="utf-8").count("cfg.divergence_factor") for p in src.glob("*.py")) == 1

    def test_no_second_batch_size_message(self):
        # Hyperparams leaves the batch size to mixing_weight, which knows n.
        src = Path(__file__).resolve().parents[1] / "src" / "sgdstab"
        assert sum(p.read_text(encoding="utf-8").count("batch size must be") for p in src.glob("*.py")) == 0


class TestModuleBoundaries:
    """Modules call each other through public names, and only curvature_operators reaches the dense builders.

    The package imports its own modules relatively: "from .m import x" or "from . import m".
    """

    SRC = Path(__file__).resolve().parents[1] / "src" / "sgdstab"

    def _trees(self):
        return {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(self.SRC.glob("*.py"))}

    def test_no_private_name_crosses_a_module(self):
        crossings = []
        for me, tree in self._trees().items():
            imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 1]
            crossings += [
                f"{me}: from .{node.module} import {a.name}"
                for node in imports
                if node.module not in (None, me)
                for a in node.names
                if a.name.startswith("_")
            ]
            # "from . import m" binds a name to package module m.
            aliases = {a.asname or a.name: a.name for node in imports if node.module is None for a in node.names}
            crossings += [
                f"{me}: {node.value.id}.{node.attr}"
                for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and aliases.get(node.value.id, me) != me and node.attr.startswith("_")
            ]
        assert crossings == []

    def test_eigensolvers_are_reached_only_through_lapack_eigh(self):
        # lapack_eigh is where a LinAlgError becomes a ConvergenceError, so no other function names eigh or eigvalsh.
        callers = []
        for me, tree in self._trees().items():
            parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
            for node in ast.walk(tree):
                named = (isinstance(node, ast.Attribute) and node.attr in ("eigh", "eigvalsh")) or (
                    isinstance(node, ast.ImportFrom) and node.module and "linalg" in node.module
                    and any(a.name in ("eigh", "eigvalsh") for a in node.names)
                )
                if named:
                    scope = node
                    while scope in parents and not isinstance(scope, ast.FunctionDef):
                        scope = parents[scope]
                    callers.append((me, getattr(scope, "name", None)))
        assert callers == [("linalg", "lapack_eigh"), ("linalg", "lapack_eigh")]

    def test_only_the_oracles_and_the_cli_name_the_batch_samplers(self):
        # Batches are sampled or enumerated by montecarlo, kron_certify's oracles and verify alone,
        # so no production solve checks itself by sampling; moments imports nothing from montecarlo.
        trees = self._trees()
        namers = set()
        for me, tree in trees.items():
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom):
                    names = {a.name for a in node.names}
                else:
                    names = {getattr(node, "id", None), getattr(node, "attr", None)}
                if names & {"draw_batches", "enumerated_batches"}:
                    namers.add(me)
        assert namers <= {"montecarlo", "kron_certify", "cli"}
        from_montecarlo = [
            ast.dump(node)
            for node in ast.walk(trees["moments"])
            if isinstance(node, ast.ImportFrom) and "montecarlo" in [node.module, *(a.name for a in node.names)]
        ]
        assert from_montecarlo == []

    def test_only_curvature_operators_imports_the_dense_builders(self):
        trees = self._trees()
        importers = []
        for me in ("stability", "spectral", "moments", "montecarlo"):
            parents = {child: node for node in ast.walk(trees[me]) for child in ast.iter_child_nodes(node)}
            for node in ast.walk(trees[me]):
                if isinstance(node, ast.ImportFrom) and "kron_certify" in [node.module, *(a.name for a in node.names)]:
                    scope = node
                    while scope in parents and not isinstance(scope, ast.FunctionDef):
                        scope = parents[scope]
                    importers.append((me, getattr(scope, "name", None)))
        assert importers == [("stability", "curvature_operators")]


class TestBenchmarkContract:
    """bench/ looks package names up at run time; deleting one breaks the benchmark, not an import."""

    def test_traced_and_called_names_resolve(self):
        import sgdstab

        bench = Path(__file__).resolve().parents[1] / "bench"
        # Executed from its source text, so nothing is written under bench/.
        tracing = {}
        exec(compile((bench / "tracing.py").read_text(encoding="utf-8"), str(bench / "tracing.py"), "exec"), tracing)
        for module_name, attr in tracing["TARGETS"]:
            owner = sys.modules[f"sgdstab.{module_name}"]
            if "." in attr:
                class_name, method = attr.split(".")
                assert method in vars(getattr(owner, class_name)), (module_name, attr)
            else:
                assert callable(getattr(owner, attr, None)), (module_name, attr)
        modules = {"cli", "instances", "linalg", "moments", "montecarlo", "stability"}
        tree = ast.parse((bench / "workloads.py").read_text(encoding="utf-8"))
        called = {
            (node.value.id, node.attr)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules
        }
        assert called
        for module_name, attr in sorted(called):
            assert hasattr(getattr(sgdstab, module_name), attr), (module_name, attr)

    def test_probe_entry_points_run(self):
        # The calls the benchmark's probes make, with the same arguments, at tiny sizes.
        from sgdstab import linalg, montecarlo

        rng = np.random.default_rng(11)
        m = rng.standard_normal((6, 6))
        m = m + m.T
        assert np.all(np.diff(linalg.sym_eig(m).values) <= 0)
        psd = m @ m.T
        np.testing.assert_allclose(linalg.pinv_psd(psd) @ psd, np.eye(6), atol=1e-8)
        inst = gen_regular(5, 4, 2, 1.0, False, 1)
        apply = stability.curvature_operators(inst, 1, dense=False).curvature_sq
        dense = stability.curvature_operators(inst, 1, dense=True).curvature_sq
        x = rng.standard_normal(inst.d * inst.d)
        np.testing.assert_allclose(apply(x), dense @ x, atol=1e-10 * np.max(np.abs(dense)))
        assert isinstance(instances.StreamPool().get(0, 1), np.random.Generator)
        x0 = montecarlo.initial_offset(inst, SimConfig(steps=1, replicates=1, seed=0))
        assert x0.shape == (inst.d,)
        stepper = moments.ExactStepper(inst, Hyperparams(eta=0.5 * variance_threshold(inst, 1), batch=1))
        assert stepper.step(moments.point_state(x0)).step == 1
