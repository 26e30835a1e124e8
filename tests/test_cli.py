import sys

import numpy as np
import pytest

import sgdstab.instances as instances
import sgdstab.stability as stability
from sgdstab import gen_regular, load_instance, make_instance, save_instance, variance_threshold
from sgdstab.cli import EXIT_INPUT, EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, EXIT_VERIFY, main


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

    def test_missing_file(self, capsys):
        code = main(["analyze", "/nonexistent/inst.json", "--batch", "1"])
        assert code == EXIT_INPUT


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


def _sweep_argv(path, out, thr):
    return ["sweep", str(path), "--batches", "1", "2", "--eta-min", repr(0.5 * thr), "--eta-max", repr(1.2 * thr),
            "--eta-count", "3", "--rank-one-steps", "20", "--out", str(out)]


class TestProductionPaths:
    """analyze and sweep classify the instance once and form no d^2 x d^2 matrix."""

    @pytest.mark.parametrize("d", [24, stability.DENSE_CAP])
    def test_no_dense_matrix(self, d, tmp_path, monkeypatch):
        inst = gen_regular(d, 6, 4, 1.0, False, d)
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        thr = variance_threshold(inst, 2)
        etas = [repr(f * thr) for f in (0.5, 0.9, 1.2)]

        def forbidden(*args):
            raise AssertionError("a d^2 x d^2 matrix was formed")

        monkeypatch.setattr(stability, "kron", forbidden)
        monkeypatch.setattr(stability, "kron_sum", forbidden)
        solves = []
        true_lanczos = stability.lanczos_lambda_max

        def counted(op, **kwargs):
            solves.append(op.in_dim)
            return true_lanczos(op, **kwargs)

        monkeypatch.setattr(stability, "lanczos_lambda_max", counted)
        assert main(["analyze", str(path), "--batch", "2", "--eta", *etas, "--out", str(tmp_path / "a.csv")]) == EXIT_OK
        # The threshold solve, then the spectral check at each eta: it still runs at the cap.
        assert solves == [d * d] * (1 + len(etas))
        assert main(_sweep_argv(path, tmp_path / "s.csv", thr)) == EXIT_OK

    def test_classifies_once(self, tmp_path, monkeypatch, capsys):
        calls = []
        true_classify = instances.classify

        def counted(*args, **kwargs):
            calls.append(1)
            return true_classify(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("sgdstab") and getattr(module, "classify", None) is true_classify:
                monkeypatch.setattr(module, "classify", counted)
        inst = gen_regular(4, 5, 3, 1.0, False, 9)
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        thr = variance_threshold(inst, 2)
        calls.clear()
        assert main(["analyze", str(path), "--batch", "2", "--eta", repr(0.5 * thr), repr(1.5 * thr)]) == EXIT_OK
        assert "classification: regular" in capsys.readouterr().out
        assert len(calls) == 1
        calls.clear()
        assert main(_sweep_argv(path, tmp_path / "s.csv", thr)) == EXIT_OK
        assert len(calls) == 1
        capsys.readouterr()
        invalid = tmp_path / "invalid.json"
        save_instance(make_instance([[[-1.0]], [[3.0]]], [[0.0], [0.0]]), invalid)
        for argv in (["analyze", str(invalid), "--batch", "1"], _sweep_argv(invalid, tmp_path / "x.csv", 1.0)):
            assert main(argv) == EXIT_INPUT
            assert "not a regular or interpolating minimum" in capsys.readouterr().err


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
        import sgdstab.stability as stability

        true_build = stability.second_moment_transition

        def broken(inst, eta, batch, dense=None):
            q = true_build(inst, eta, batch, dense=dense)
            return q + 0.01 * eta * np.eye(q.shape[0])  # systematic offset

        monkeypatch.setattr(stability, "second_moment_transition", broken)
        code = main(["verify", "--suite", "thresholds", "--trials", "2", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == EXIT_VERIFY
        assert "FAIL oracle-q-equality" in out

    def test_unknown_suite_is_usage_error(self, capsys):
        code = main(["verify", "--suite", "bogus"])
        assert code == EXIT_USAGE


class TestExitCodes:
    def test_no_command_is_usage_error(self):
        assert main([]) == EXIT_USAGE

    def test_constants_are_distinct(self):
        assert len({EXIT_OK, EXIT_USAGE, EXIT_INPUT, EXIT_VERIFY, EXIT_NUMERICAL}) == 5
