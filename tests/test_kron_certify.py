import itertools

import numpy as np
import pytest

from sgdstab import ConvergenceError, KronFamily, certify, gen_interpolating, kron_certify
from sgdstab.cli import main
from sgdstab.kron_certify import second_moment_transition
from sgdstab.linalg import kron, vec
from sgdstab.stability import sharpness

RNG = np.random.default_rng(424242)


def random_family(d, m, rng=RNG):
    mats = rng.standard_normal((m, d, d))
    mats = 0.5 * (mats + np.transpose(mats, (0, 2, 1)))
    return KronFamily.from_matrices(mats)


class TestCertifyExamples:
    def test_identity_family(self):
        for d in (2, 3, 4):
            report = certify(KronFamily.from_matrices([np.eye(d)]))
            assert report.rho == pytest.approx(1.0, abs=1e-12)
            assert report.lambda_max == pytest.approx(1.0, abs=1e-12)
            assert report.min_eig_of_top >= -1e-12
            # Top matrix is PSD with unit Frobenius norm.
            assert np.linalg.norm(report.top_eigvec_matrix) == pytest.approx(1.0, abs=1e-9)

    def test_indefinite_diagonal_family(self):
        # Y = diag(1, -1): Q = diag(1, -1, -1, 1) in vec coordinates.
        report = certify(KronFamily.from_matrices([np.diag([1.0, -1.0])]))
        assert report.rho == pytest.approx(1.0, abs=1e-12)
        assert report.lambda_max == pytest.approx(1.0, abs=1e-12)
        assert report.min_eig_of_top >= -1e-7

    @pytest.mark.parametrize("members", [np.zeros((2, 2, 3)), np.zeros((2, 2))], ids=["non-square", "two-dimensional"])
    def test_rejects_bad_member_shape(self, members):
        with pytest.raises(ValueError, match=r"^members must have shape \(M, d, d\)"):
            KronFamily.from_matrices(members)

    def test_rejects_asymmetric_member(self):
        with pytest.raises(ValueError, match="not symmetric"):
            KronFamily.from_matrices([np.array([[0.0, 1.0], [0.0, 0.0]])])

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_rejects_non_finite_member(self, bad):
        # Without the check NaN passes the symmetry test and certify fails as a numerical error.
        members = np.stack([np.eye(2), np.eye(2)])
        members[1, 0, 0] = bad
        with pytest.raises(ValueError, match="member 1 has a non-finite entry"):
            KronFamily.from_matrices(members)


class TestCertifyProperties:
    @pytest.mark.parametrize("trial", range(20))
    def test_random_families(self, trial):
        rng = np.random.default_rng(1000 + trial)
        d = int(rng.integers(2, 5))
        m = int(rng.integers(1, 6))
        fam = random_family(d, m, rng)
        report = certify(fam)
        # Statement: spectral radius equals the top eigenvalue.
        assert abs(report.rho - report.lambda_max) <= 1e-8 * max(1.0, report.rho)
        # Statement: Q is block diagonal on symmetric (+) skew matrices.
        assert report.block_coupling <= 1e-7
        # Statement: the reported top eigenvector is PSD and a true eigenvector.
        assert report.min_eig_of_top >= -1e-7 * max(1.0, float(np.linalg.norm(report.top_eigvec_matrix)))
        q = np.zeros((d * d, d * d))
        for y in fam.members:
            q += kron(y, y)
        z = vec(report.top_eigvec_matrix)
        residual = np.linalg.norm(q @ z - report.lambda_max * z)
        assert residual <= 1e-7 * max(1.0, abs(report.lambda_max))

    def test_dense_oracle_agreement(self):
        fam = random_family(3, 4, np.random.default_rng(9))
        report = certify(fam)
        q = np.zeros((9, 9))
        for y in fam.members:
            q += kron(y, y)
        values = np.linalg.eigvalsh(q)
        assert report.lambda_max == pytest.approx(float(values[-1]), abs=1e-10)
        assert report.rho == pytest.approx(float(np.max(np.abs(values))), abs=1e-10)


class TestWeightedFamilies:
    def test_bad_weights_shape_rejected(self):
        with pytest.raises(ValueError, match=r"^weights must have shape \(2,\), got \(3,\)"):
            KronFamily.from_matrices([np.eye(2), np.eye(2)], weights=[1.0, 1.0, 1.0])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            KronFamily.from_matrices([np.eye(2)], weights=[-1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_weight_rejected(self, bad):
        with pytest.raises(ValueError, match="weights must be finite"):
            KronFamily.from_matrices([np.eye(2), np.eye(2)], weights=[1.0, bad])

    def test_batch_realizations_reproduce_transition(self):
        # One family member per batch, weighted by the batch probability,
        # reproduces lambda_max of the stability module's transition.
        inst = gen_interpolating(3, 5, 2, 606)
        batch = 2
        eta = 0.5 / sharpness(inst)
        combos = list(itertools.combinations(range(inst.n), batch))
        members = []
        for combo in combos:
            members.append(np.eye(3) - (eta / batch) * inst.hessians[list(combo)].sum(axis=0))
        weights = np.full(len(combos), 1.0 / len(combos))
        report = certify(KronFamily.from_matrices(members, weights=weights))
        q = second_moment_transition(inst, eta, batch)
        lam = float(np.max(np.linalg.eigvalsh(q)))
        assert report.lambda_max == pytest.approx(lam, abs=1e-8)
        assert report.rho == pytest.approx(lam, abs=1e-8)


class TestDegenerateEigenspaces:
    def test_repeated_eigenvalues_split_into_blocks(self):
        # A family with heavy degeneracy: the identity plus a rank-one spike.
        u = np.array([1.0, 0.0, 0.0])
        fam = KronFamily.from_matrices([np.eye(3), np.outer(u, u)])
        report = certify(fam)
        assert report.block_coupling <= 1e-7
        assert report.min_eig_of_top >= -1e-7

    def test_paulilike_family_with_tied_dominant_pair(self):
        # Spectrum {-2, 0, 0, 2}: the dominant magnitude is tied between
        # +-2, and the zero eigenspace mixes symmetric and skew matrices.
        y1 = np.diag([1.0, -1.0])
        y2 = np.array([[0.0, 1.0], [1.0, 0.0]])
        report = certify(KronFamily.from_matrices([y1, y2]))
        assert report.rho == pytest.approx(2.0, abs=1e-12)
        assert report.lambda_max == pytest.approx(2.0, abs=1e-12)
        assert report.block_coupling <= 1e-7
        # Top eigenvector is I / sqrt(2), manifestly PSD.
        np.testing.assert_allclose(report.top_eigvec_matrix, np.eye(2) / np.sqrt(2.0), atol=1e-9)


class TestBrokenAssembly:
    """A Q that does not commute with transposition must not certify."""

    @staticmethod
    def _kron_pair(fam):
        # Y_0 kron Y_1 with Y_1 = diag(1, ..., d) != Y_0.
        return kron(fam.members[0], np.diag(np.arange(1.0, fam.dim + 1)))

    def test_certify_flags_a_kron_pair(self, monkeypatch):
        monkeypatch.setattr(kron_certify, "_assemble", self._kron_pair)
        y0 = np.array([[0.0, 1.0, 0.0], [1.0, 0.5, 0.0], [0.0, 0.0, -1.0]])
        try:
            report = certify(KronFamily.from_matrices([y0]))
        except ConvergenceError:
            return
        assert report.block_coupling > 1e-7

    def test_coupling_is_reported_when_the_top_is_clean(self, monkeypatch):
        # Q = 10 e e^T + s k^T + k s^T: e = vec(I)/sqrt(3) is a PSD top eigenvector
        # for lambda_max = 10, while the symmetric s and the skew k couple the blocks.
        e = vec(np.eye(3)) / np.sqrt(3.0)
        s = vec(np.diag([1.0, -1.0, 0.0])) / np.sqrt(2.0)
        k = vec(np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])) / np.sqrt(2.0)
        q = 10.0 * np.outer(e, e) + np.outer(s, k) + np.outer(k, s)
        monkeypatch.setattr(kron_certify, "_assemble", lambda fam: q)
        report = certify(KronFamily.from_matrices([np.eye(3)]))
        assert report.lambda_max == pytest.approx(10.0, rel=1e-12)
        assert report.block_coupling == pytest.approx(0.1, rel=1e-12)

    def test_verify_kron_fails(self, monkeypatch, capsys):
        monkeypatch.setattr(kron_certify, "_assemble", self._kron_pair)
        assert main(["verify", "--suite", "kron", "--trials", "10", "--seed", "0"]) != 0
