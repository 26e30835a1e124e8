import enum
import inspect

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sgdstab import instances, kron_certify, linalg, moments, spectral, stability

from conftest import gaussian_start, matrix_operator
from oracles import sqrt_pinv_psd
from sgdstab.linalg import (
    DEFAULT_RANK_RTOL,
    ConvergenceError,
    factor_stack,
    kron,
    kron_sum,
    lanczos_solve,
    not_psd,
    null_projectors,
    pinv_psd,
    psd_range,
    spd_solve,
    sym_eig,
    symmetrize,
    unvec,
    vec,
    zero_cutoff,
)

RNG = np.random.default_rng(20240817)


def random_symmetric(d, rng=RNG):
    a = rng.standard_normal((d, d))
    return 0.5 * (a + a.T)


def random_psd(d, rank=None, rng=RNG):
    rank = d if rank is None else rank
    g = rng.standard_normal((d, rank))
    return g @ g.T


class TestKron:
    def test_scalar(self):
        np.testing.assert_array_equal(kron([[1.0]], [[5.0]]), [[5.0]])

    def test_identity_factor_gives_block_diagonal(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = kron(np.eye(2), m)
        expected = np.zeros((4, 4))
        expected[:2, :2] = m
        expected[2:, 2:] = m
        np.testing.assert_array_equal(out, expected)

    def test_mixed_product(self):
        # kron(A,B) kron(C,D) == kron(AC, BD), against direct multiplication.
        for _ in range(10):
            a, b, c, d = (RNG.standard_normal((3, 3)) for _ in range(4))
            lhs = kron(a, b) @ kron(c, d)
            rhs = kron(a @ c, b @ d)
            np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_transpose_property(self):
        a = RNG.standard_normal((3, 3))
        b = RNG.standard_normal((3, 3))
        np.testing.assert_allclose(kron(a, b).T, kron(a.T, b.T), atol=1e-12)


class TestKronSum:
    def test_scalar(self):
        np.testing.assert_array_equal(kron_sum([[3.0]], [[4.0]]), [[7.0]])

    def test_diagonal_elementwise_construction(self):
        out = kron_sum(np.diag([1.0, 2.0]), np.diag([10.0, 20.0]))
        np.testing.assert_allclose(out, np.diag([11.0, 21.0, 12.0, 22.0]), atol=0)

    def test_eigenvalues_are_pairwise_sums(self):
        a = random_symmetric(3)
        b = random_symmetric(3)
        got = np.sort(np.linalg.eigvalsh(kron_sum(a, b)))
        la = np.linalg.eigvalsh(a)
        lb = np.linalg.eigvalsh(b)
        expected = np.sort((la[:, None] + lb[None, :]).ravel())
        np.testing.assert_allclose(got, expected, atol=1e-10)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            kron_sum(np.zeros((2, 3)), np.eye(2))
        with pytest.raises(ValueError, match=r"^kron_sum requires square matrices, got \(2, 3\)"):
            kron_sum(np.eye(2), np.zeros((2, 3)))


class TestVec:
    def test_column_stack(self):
        np.testing.assert_array_equal(vec([[1.0, 3.0], [2.0, 4.0]]), [1.0, 2.0, 3.0, 4.0])

    def test_unvec_inverse(self):
        np.testing.assert_array_equal(unvec(np.array([1.0, 2.0, 3.0, 4.0]), 2), [[1.0, 3.0], [2.0, 4.0]])
        m = RNG.standard_normal((4, 4))
        np.testing.assert_array_equal(unvec(vec(m), 4), m)

    def test_unvec_length_mismatch(self):
        with pytest.raises(ValueError):
            unvec(np.zeros(5), 2)

    def test_vec_of_triple_product(self):
        # vec(A B C) == kron(C^T, A) vec(B), against direct multiplication.
        a, b, c = (RNG.standard_normal((3, 3)) for _ in range(3))
        np.testing.assert_allclose(vec(a @ b @ c), kron(c.T, a) @ vec(b), atol=1e-10)

    def test_quadratic_form_trace_identity(self):
        # vec(M1)' (M2 kron M3) vec(M4) == tr(M1' M3 M4 M2').
        m1, m2, m3, m4 = (RNG.standard_normal((3, 3)) for _ in range(4))
        lhs = float(vec(m1) @ kron(m2, m3) @ vec(m4))
        rhs = float(np.trace(m1.T @ m3 @ m4 @ m2.T))
        assert lhs == pytest.approx(rhs, abs=1e-10)


class TestSymEig:
    def test_diagonal(self):
        eig = sym_eig(np.diag([3.0, 1.0]))
        np.testing.assert_array_equal(eig.values, [3.0, 1.0])

    def test_zero_matrix(self):
        eig = sym_eig(np.zeros((3, 3)))
        np.testing.assert_array_equal(eig.values, np.zeros(3))

    def test_reconstruction(self):
        # sym_eig returns LAPACK's result unchecked; these bounds hold it to account.
        # The extra cases draw from their own generator, so later tests see the same RNG stream.
        rng = np.random.default_rng(96)
        cases = {
            "d8": random_symmetric(8),
            "d1": random_symmetric(1, rng),
            "d96": random_symmetric(96, rng),
            "psd-rank-3": random_psd(12, rank=3, rng=rng),
        }
        for name, m in cases.items():
            eig = sym_eig(m)
            d = m.shape[0]
            assert np.max(np.abs(eig.vectors.T @ eig.vectors - np.eye(d))) <= 1e-10, name
            recon = eig.vectors @ np.diag(eig.values) @ eig.vectors.T
            assert np.max(np.abs(recon - m)) <= 1e-8 * (1 + np.max(np.abs(eig.values))), name
        assert int(np.sum(psd_range(sym_eig(cases["psd-rank-3"]).values))) == 3

    def test_descending_order(self):
        eig = sym_eig(random_symmetric(6))
        assert np.all(np.diff(eig.values) <= 0)

    def test_eigensolver_failure_is_a_convergence_error(self, monkeypatch):
        def fail(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(ConvergenceError, match="eigendecomposition failed: Eigenvalues did not converge"):
            sym_eig(np.eye(2))


class TestRankRule:
    def test_cut_is_inclusive_and_relative(self):
        values = np.array([4.0, 4e-10, 4e-10 + 1e-20, 0.0])
        assert zero_cutoff(values) == 4e-10
        np.testing.assert_array_equal(psd_range(values), [True, False, True, False])
        np.testing.assert_array_equal(psd_range(np.zeros(3)), [False, False, False])

    def test_stacked_spectra_take_the_rule_row_by_row(self):
        values = np.array([[4.0, 4e-10, 4e-10 + 1e-20, 0.0], [0.0, 0.0, 0.0, 0.0], [1.0, 2e-10, 1e-10, -0.5e-10]])
        want = [psd_range(row) for row in values]
        np.testing.assert_array_equal(psd_range(values), want)
        with pytest.raises(ValueError, match="not PSD: lambda_min=-2.000e-10, lambda_max=1.000e\\+00"):
            psd_range(np.array([[4.0, 0.0], [1.0, -2e-10]]))
        np.testing.assert_array_equal(zero_cutoff(values), [zero_cutoff(row) for row in values])
        np.testing.assert_array_equal(not_psd(values), [False, False, False])

    def test_not_psd_matches_the_largest_magnitude_form(self):
        # classify once tested lambda_min < -rtol * max |lambda| and psd_range lambda_min < -rtol * lambda_max;
        # they can differ only when |lambda_min| > lambda_max, where both reject.
        rng = np.random.default_rng(12)
        values = rng.standard_normal((20_000, 4)) * 10.0 ** rng.integers(-12, 3, (20_000, 1))
        # Every other row is PSD but for one eigenvalue on either side of the cut.
        values[::2] = np.abs(values[::2])
        values[::2, 0] = -rng.uniform(0.0, 2.0, 10_000) * DEFAULT_RANK_RTOL * np.max(values[::2], axis=1)
        largest = np.max(np.abs(values), axis=1)
        np.testing.assert_array_equal(not_psd(values), np.min(values, axis=1) < -DEFAULT_RANK_RTOL * largest)

    def test_not_psd_below_minus_cut(self):
        psd_range(np.array([1.0, -0.5e-10]))
        with pytest.raises(ValueError, match="not PSD"):
            psd_range(np.array([1.0, -2e-10]))
        # null_projectors applies the cut without the PSD check.
        p_null, _ = null_projectors(np.diag([1.0, -1.0]))
        np.testing.assert_allclose(p_null, np.diag([0.0, 1.0]), atol=1e-15)

    @pytest.mark.parametrize("module", [linalg, instances, stability, moments, spectral, kron_certify], ids=lambda m: m.__name__)
    def test_no_caller_sets_the_rule(self, module):
        # The rank rule and the rank-one start count are constants, not parameters.
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj) or (inspect.isclass(obj) and not issubclass(obj, (Exception, enum.Enum))):
                assert not {"rel_tol", "n_starts"} & set(inspect.signature(obj).parameters), name


def _truncated(hessians):
    """H_i from its batched eigh with the eigenvalues that psd_range drops set to zero."""
    w, v = np.linalg.eigh(hessians)
    return (v * np.where(psd_range(w), w, 0.0)[:, None, :]) @ v.transpose(0, 2, 1)


def _eigh_gt(hessians):
    """The G_i^T of the batched eigh: kept eigenvectors scaled by sqrt(lambda), in each sample's last q rows."""
    w, v = np.linalg.eigh(hessians)
    kept = psd_range(w)
    d, q = w.shape[1], int(kept.sum(axis=1).max())
    return (v[:, :, d - q :] * np.sqrt(np.where(kept, w, 0.0))[:, None, d - q :]).transpose(0, 2, 1)


def _spectrum_stack(spectra, seed):
    """H_i = Q_i diag(spectrum_i) Q_i^T with random orthogonal Q_i, made exactly symmetric."""
    rng = np.random.default_rng(seed)
    spectra = np.asarray(spectra, dtype=float)
    qs = np.linalg.qr(rng.standard_normal((len(spectra), spectra.shape[1], spectra.shape[1])))[0]
    return symmetrize((qs * spectra[:, None, :]) @ qs.transpose(0, 2, 1))


class TestFactorStack:
    """factor_stack: pivoted Cholesky with a residual certificate where every H_i allows it, else the batched eigh."""

    FAMILIES = {
        "interpolating": lambda: instances.gen_interpolating(12, 10, 3, 1),
        "interpolating-unit-sharpness": lambda: instances.gen_interpolating(20, 6, 5, 2, unit_sharpness=True),
        "regular": lambda: instances.gen_regular(10, 8, 3, 1.0, False, 3),
        "regular-null-gradients": lambda: instances.gen_regular(20, 4, 2, 1.0, True, 4),
        "regular-unit-sharpness": lambda: instances.gen_regular(16, 12, 4, 2.0, False, 5, unit_sharpness=True),
        "rank-one-d64": lambda: instances.gen_interpolating(64, 24, 1, 6),
        "operator-d96": lambda: instances.gen_regular(96, 16, 24, 1.0, False, 7),
        "full-rank": lambda: instances.gen_regular(6, 5, 6, 1.0, False, 8),
    }

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_factors_and_class_match_the_batched_eigh(self, family, stack_decompositions):
        inst = self.FAMILIES[family]()
        h, scale = inst.hessians, np.max(np.abs(inst.hessians))
        calls = stack_decompositions(inst)
        values, gt = factor_stack(h)
        # Low-rank stacks are factored without a batched eigensolve; full-rank ones fall back to it.
        assert calls == (["eigh"] if family == "full-rank" else [])
        eigh_values = np.linalg.eigvalsh(h)
        assert instances.minimum_class(inst, values) is instances.minimum_class(inst, eigh_values)
        np.testing.assert_array_equal(psd_range(values).sum(axis=1), psd_range(eigh_values).sum(axis=1))
        np.testing.assert_allclose(factor_stack(h, factors=False), values, rtol=0.0, atol=1e-13 * scale)
        if family == "full-rank":
            assert gt is None  # d columns save nothing
        else:
            np.testing.assert_allclose(gt.transpose(0, 2, 1) @ gt, h, rtol=0.0, atol=1e-13 * scale)

    def test_zero_and_mixed_rank_samples(self):
        rng = np.random.default_rng(3)
        ranks = (0, 1, 4, 0, 2, 7)
        factors = [rng.standard_normal((12, k)) for k in ranks]
        h = np.stack([f @ f.T for f in factors])
        values, gt = factor_stack(h)
        assert gt.shape == (6, 7, 12)
        np.testing.assert_array_equal(psd_range(values).sum(axis=1), ranks)
        for i, k in enumerate(ranks):
            assert np.all(gt[i, : 7 - k] == 0.0)  # zero rows first
        assert np.all(values[[0, 3]] == 0.0)
        np.testing.assert_allclose(gt.transpose(0, 2, 1) @ gt, h, rtol=0.0, atol=1e-13 * np.max(np.abs(h)))
        # A zero stack needs no column at all.
        values, gt = factor_stack(np.zeros((3, 4, 4)))
        assert gt.shape == (3, 0, 4) and np.all(values == 0.0)

    def test_chunks_of_different_ranks_align_their_rows_last(self, monkeypatch):
        # One sample per chunk: each chunk's factor has its own width, padded in front to the widest.
        rng = np.random.default_rng(4)
        ranks = (3, 1, 0, 2)
        h = np.stack([f @ f.T for f in (rng.standard_normal((8, k)) for k in ranks)])
        whole_values, whole_gt = factor_stack(h)
        monkeypatch.setattr(linalg, "_STACK_CHUNK_ENTRIES", 64)
        values, gt = factor_stack(h)
        assert gt.shape == whole_gt.shape == (4, 3, 8)
        for i, k in enumerate(ranks):
            assert np.all(gt[i, : 3 - k] == 0.0) and np.all(values[i, : 8 - k] == 0.0)
        scale = np.max(np.abs(h))
        np.testing.assert_allclose(values, whole_values, rtol=0.0, atol=1e-13 * scale)
        np.testing.assert_allclose(gt.transpose(0, 2, 1) @ gt, h, rtol=0.0, atol=1e-13 * scale)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("factor", [1.0 - 1e-3, 1.0 + 1e-3])
    def test_spectra_on_either_side_of_the_cut(self, sign, factor):
        # Sample 1 has an eigenvalue just inside or just outside the rank rule's cut, of either
        # sign; the kept counts, the PSD verdict and the truncated factors are the batched eigh's.
        spectra = np.zeros((3, 10))
        spectra[:, :3] = [[3.0, 2.0, 1.0], [3.0, 1.5, 0.0], [2.0, 0.5, 0.25]]
        spectra[1, 2] = sign * factor * DEFAULT_RANK_RTOL * 3.0
        h = _spectrum_stack(spectra, 5)
        values, gt = factor_stack(h)
        eigh_values = np.linalg.eigvalsh(h)
        np.testing.assert_array_equal(not_psd(values), not_psd(eigh_values))
        assert bool(not_psd(values)[1]) is (sign < 0 and factor > 1)
        if not np.any(not_psd(values)):
            np.testing.assert_array_equal(psd_range(values).sum(axis=1), psd_range(eigh_values).sum(axis=1))
            np.testing.assert_allclose(gt.transpose(0, 2, 1) @ gt, _truncated(h), rtol=0.0, atol=1e-13 * np.max(np.abs(h)))

    @pytest.mark.parametrize(
        "case",
        [
            "rank-cap",  # one full-rank sample among rank-2 ones
            "indefinite-positive-diagonal",  # [[1, 2], [2, 1]] in the top block: its residual is 3
            "certificate-valid",  # a PSD sample up to the cut whose -1e-12 eigenvalue stays in the residual
            # Without the scale check these two would pass a vacuous certificate: the tiny
            # indefinite sample's squared residual underflows to 0, so it would read as PSD,
            # and the huge stack's infinite norms stop every sample at once, with all values 0.
            "tiny-indefinite",
            "huge-entries",
        ],
    )
    def test_fallback_is_the_batched_eigh_bit_for_bit(self, case):
        rng = np.random.default_rng(6)
        g = rng.standard_normal((5, 6, 2))
        h = g @ g.transpose(0, 2, 1)
        if case == "rank-cap":
            h[2] = random_psd(6, rng=rng)
        elif case == "indefinite-positive-diagonal":
            h[3] = 0.0
            h[3, :2, :2] = [[1.0, 2.0], [2.0, 1.0]]
        elif case == "tiny-indefinite":
            h = np.zeros_like(h)
            h[3, :2, :2] = [[1e-170, 2e-170], [2e-170, 1e-170]]
        elif case == "certificate-valid":
            h = _spectrum_stack([[4.0, 1.0, -1e-12, 0.0, 0.0, 0.0]] + [[2.0, 1.0, 0.0, 0.0, 0.0, 0.0]] * 4, 7)
        else:
            h = h * 1e160
        h = symmetrize(h)
        values, gt = factor_stack(h)
        np.testing.assert_array_equal(values, np.linalg.eigh(h)[0])
        np.testing.assert_array_equal(factor_stack(h, factors=False), np.linalg.eigvalsh(h))
        if case in ("rank-cap", "indefinite-positive-diagonal", "tiny-indefinite"):
            assert gt is None  # 6 columns of 6 save nothing; an indefinite sample has no factor
        else:
            np.testing.assert_array_equal(gt, _eigh_gt(h))

    @pytest.mark.parametrize("case", ["rank-cap", "certificate"])
    def test_fallback_gives_the_batched_eigh_range_basis(self, case, monkeypatch, stack_decompositions):
        base = instances.gen_regular(8, 6, 2, 1.0, False, 9)
        h = base.hessians.copy()
        if case == "rank-cap":
            h[0] = h[0] + random_psd(8, rng=np.random.default_rng(10))
        else:
            w, v = np.linalg.eigh(h[0])
            w[0] = -1e-12 * w[-1]  # PSD by the rank rule, but past the residual bound
            h[0] = (v * w) @ v.T
        inst = instances.make_instance(h, base.gradients)
        calls = stack_decompositions(inst)
        got = spectral.range_basis(inst)
        assert calls == ["factor", "eigh"]
        monkeypatch.setattr(linalg, "_cholesky_factors", lambda *args: None)
        want = spectral.range_basis(inst)
        assert got.kind is want.kind is instances.MinimumClass.REGULAR
        for name in ("lam", "v", "k", "ut"):
            a, b = getattr(got, name), getattr(want, name)
            assert (a is None and b is None) or np.array_equal(a, b), name

    def test_classify_matches_eigh_on_indefinite_and_zero_samples(self):
        h = np.zeros((4, 3, 3))
        h[1] = random_psd(3, rank=1)
        h[2, :2, :2] = [[1.0, 2.0], [2.0, 1.0]]
        inst = instances.make_instance(h, np.zeros((4, 3)))
        assert instances.classify(inst) is instances.MinimumClass.INVALID
        h[2] = 0.0
        inst = instances.make_instance(h, np.zeros((4, 3)))
        assert instances.classify(inst) is instances.MinimumClass.INTERPOLATING

    def test_commuting_closed_form_above_dense_cap(self, stack_decompositions):
        # H_i = Q diag(h_i) Q^T with 90 of each h_i's 200 entries zero: S is diagonal on the
        # pairs E_ab, so 2 / threshold = max_ab [(1-p) lam_a lam_b + (p/n) sum_i h_ia h_ib] /
        # ((lam_a + lam_b) / 2) over the pairs in Hbar's range, lam = mean_i h_i.
        d, n = 200, 3
        rng = np.random.default_rng(200)
        q = np.linalg.qr(rng.standard_normal((d, d)))[0]
        spectra = rng.uniform(0.1, 1.0, (n, d))
        for row in spectra:
            row[rng.permutation(d)[:90]] = 0.0
        inst = instances.make_instance(np.einsum("ak,nk,bk->nab", q, spectra, q), np.zeros((n, d)))
        assert d > kron_certify.DENSE_CAP
        on = spectra.mean(axis=0) > 0
        assert 0 < on.sum() < d  # Hbar is rank deficient
        spectra = spectra[:, on]
        lam = spectra.mean(axis=0)
        calls = stack_decompositions(inst)
        for b in (1, 2):
            p = instances.mixing_weight(n, b)
            num = (1.0 - p) * np.outer(lam, lam) + (p / n) * spectra.T @ spectra
            want = 2.0 / np.max(num / (0.5 * (lam[:, None] + lam[None, :])))
            assert stability.variance_threshold(inst, b) == pytest.approx(want, rel=1e-12, abs=0.0)
        assert calls == ["factor", "factor"]


class TestPinvPsd:
    def test_diagonal(self):
        np.testing.assert_allclose(pinv_psd(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]), atol=1e-14)

    def test_zero(self):
        np.testing.assert_array_equal(pinv_psd(np.zeros((2, 2))), np.zeros((2, 2)))

    def test_rank_one_penrose(self):
        u = RNG.standard_normal(4)
        u /= np.linalg.norm(u)
        m = np.outer(u, u)
        mp = pinv_psd(m)
        np.testing.assert_allclose(mp, m, atol=1e-10)
        for lhs, rhs in ((m @ mp @ m, m), (mp @ m @ mp, mp), ((m @ mp).T, m @ mp), ((mp @ m).T, mp @ m)):
            np.testing.assert_allclose(lhs, rhs, atol=1e-8)

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            pinv_psd(np.diag([1.0, -1.0]))

    @given(
        arrays(
            np.float64,
            (4, 2),
            elements=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
        )
    )
    def test_penrose_conditions_random_psd(self, g):
        m = g @ g.T
        mp = pinv_psd(m)
        scale = 1.0 + float(np.max(np.abs(m)))
        assert np.max(np.abs(m @ mp @ m - m)) < 1e-8 * scale
        assert np.max(np.abs(mp @ m @ mp - mp)) < 1e-8 * (1.0 + float(np.max(np.abs(mp))))
        assert np.max(np.abs((m @ mp).T - m @ mp)) < 1e-8
        assert np.max(np.abs((mp @ m).T - mp @ m)) < 1e-8

    def test_sqrt_pinv_squares_to_pinv(self):
        m = random_psd(5, rank=3)
        half = sqrt_pinv_psd(m)
        np.testing.assert_allclose(half @ half, pinv_psd(m), atol=1e-9)


class TestNullProjectors:
    def test_axis_aligned(self):
        p_null, p_range = null_projectors(np.diag([2.0, 0.0]))
        np.testing.assert_allclose(p_null, np.diag([0.0, 1.0]), atol=1e-12)
        np.testing.assert_allclose(p_range, np.diag([1.0, 0.0]), atol=1e-12)

    def test_full_rank(self):
        p_null, p_range = null_projectors(np.eye(3))
        np.testing.assert_allclose(p_null, np.zeros((3, 3)), atol=1e-12)
        np.testing.assert_allclose(p_range, np.eye(3), atol=1e-12)

    def test_rank_two_trace(self):
        m = random_psd(4, rank=2)
        _, p_range = null_projectors(m)
        assert np.trace(p_range) == pytest.approx(2.0, abs=1e-9)

    def test_projector_identities(self):
        m = random_psd(5, rank=3)
        p_null, p_range = null_projectors(m)
        np.testing.assert_allclose(p_null @ p_null, p_null, atol=1e-10)
        np.testing.assert_allclose(p_range @ p_range, p_range, atol=1e-10)
        np.testing.assert_allclose(p_null + p_range, np.eye(5), atol=1e-10)
        np.testing.assert_allclose(p_null @ p_range, np.zeros((5, 5)), atol=1e-10)
        lam = float(np.max(np.linalg.eigvalsh(m)))
        assert np.max(np.abs(p_null @ m)) < 1e-10 * lam


class TestPowerIteration:
    """lanczos_solve, the top (signed) eigenvalue of a self-adjoint operator."""

    def test_diagonal(self):
        op = matrix_operator(np.diag([5.0, 1.0]))
        assert lanczos_solve(op, gaussian_start(2, 7)) == pytest.approx(5.0, abs=1e-8)

    def test_zero_operator(self):
        op = matrix_operator(np.zeros((3, 3)))
        assert lanczos_solve(op, gaussian_start(3, 7)) == pytest.approx(0.0, abs=1e-12)

    def test_negative_dominant_spectrum(self):
        # The dominant-in-magnitude eigenvalue is -5; the answer must be +1.
        op = matrix_operator(np.diag([-5.0, 1.0]))
        assert lanczos_solve(op, gaussian_start(2, 7)) == pytest.approx(1.0, abs=1e-8)

    def test_all_negative_spectrum(self):
        op = matrix_operator(np.diag([-5.0, -2.0]))
        assert lanczos_solve(op, gaussian_start(2, 7)) == pytest.approx(-2.0, abs=1e-7)

    def test_exactly_paired_spectrum(self):
        # Eigenvalues +-3 tie in magnitude; the top of the spectrum is +3.
        op = matrix_operator(np.diag([3.0, -3.0, 1.0]))
        assert lanczos_solve(op, gaussian_start(3, 0)) == pytest.approx(3.0, abs=1e-8)
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        m = q @ np.diag([5.0, -5.0, 2.0, -1.0]) @ q.T
        got = lanczos_solve(matrix_operator(m), gaussian_start(4, 2))
        assert got == pytest.approx(5.0, abs=1e-8)

    def test_matches_dense_on_random_symmetric(self):
        for seed in range(5):
            m = random_symmetric(12, np.random.default_rng(seed))
            lam = float(np.max(np.linalg.eigvalsh(m)))
            got = lanczos_solve(matrix_operator(m), gaussian_start(12, seed))
            assert got == pytest.approx(lam, abs=max(1e-7, 1e-7 * abs(lam)))

    def test_max_iter_exhaustion(self, monkeypatch):
        # Lanczos is exact once the basis spans the space, so the operator is larger than the budget.
        op = matrix_operator(np.diag(np.linspace(1.0, 2.0, 50)))
        cause = r"within 3 iterations \(last residual \d\.\d{3}e[+-]\d+, estimate 1\.\d+"
        monkeypatch.setattr(linalg, "_LANCZOS_TOL", 1e-16)
        monkeypatch.setattr(linalg, "_LANCZOS_MAX_ITER", 3)
        with pytest.raises(ConvergenceError, match=cause):
            lanczos_solve(op, gaussian_start(50, 7))

    def test_breakdown_on_repeated_eigenvalue(self, counting, monkeypatch):
        # Two distinct eigenvalues span a 2-dimensional Krylov space: with no
        # residual tolerance only the breakdown rule stops it inside the budget.
        op, applied = counting(matrix_operator(np.diag([2.0, 2.0, 2.0, 1.0, 1.0, 1.0])))
        monkeypatch.setattr(linalg, "_LANCZOS_TOL", 0.0)
        monkeypatch.setattr(linalg, "_LANCZOS_MAX_ITER", 3)
        assert lanczos_solve(op, gaussian_start(6, 7)) == pytest.approx(2.0, rel=1e-14)
        assert len(applied) == 2  # two Lanczos steps

    def test_dimension_below_budget(self, counting, monkeypatch):
        m = random_symmetric(5, np.random.default_rng(11))
        op, applied = counting(matrix_operator(m))
        monkeypatch.setattr(linalg, "_LANCZOS_TOL", 0.0)
        got = lanczos_solve(op, gaussian_start(5, 7))
        assert got == pytest.approx(float(np.max(np.linalg.eigvalsh(m))), rel=1e-13)
        assert len(applied) == 5

    def test_d1(self):
        assert lanczos_solve(matrix_operator([[-3.5]]), gaussian_start(1, 7)) == -3.5

    def test_tridiagonal_grows_past_a_chunk(self, counting, monkeypatch):
        # 60 steps at tolerance 0 grow the Krylov basis and T_k past one chunk of 32.
        m = random_symmetric(60, np.random.default_rng(5))
        op, applied = counting(matrix_operator(m))
        monkeypatch.setattr(linalg, "_LANCZOS_TOL", 0.0)
        assert lanczos_solve(op, gaussian_start(60, 7)) == pytest.approx(float(np.max(np.linalg.eigvalsh(m))), rel=1e-13)
        assert len(applied) == 60

    def test_operator_linearity_probes(self):
        m = random_symmetric(6)
        op = matrix_operator(m)
        x = RNG.standard_normal(6)
        y = RNG.standard_normal(6)
        a, b = 0.37, -1.2
        lhs = op(a * x + b * y)
        rhs = a * op(x) + b * op(y)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-12)


class TestSpdSolve:
    """spd_solve, the linear reader of the Lanczos recurrence."""

    def test_matches_dense_solve(self):
        rng = np.random.default_rng(5)
        m = random_psd(30, rng=rng) + 0.1 * np.eye(30)
        b = rng.standard_normal(30)
        want = np.linalg.solve(m, b)
        got = spd_solve(matrix_operator(m), b)
        assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)

    def test_zero_right_hand_side(self, counting):
        op, applied = counting(matrix_operator(np.eye(3)))
        assert not np.any(spd_solve(op, np.zeros(3)))
        assert applied == []

    def test_indefinite_operator_raises(self):
        op = matrix_operator(np.diag([1.0, -1.0]))
        with pytest.raises(ConvergenceError, match=r"non-positive curvature -6\.000e-01 at step 1"):
            spd_solve(op, np.array([1.0, 2.0]))

    def test_max_iter_exhaustion(self, monkeypatch):
        op = matrix_operator(np.diag(np.linspace(1.0, 100.0, 50)))
        cause = r"within 3 iterations \(last residual \d\.\d{3}e[+-]\d+, \|\|b\|\| = 7\.071e\+00\)"
        monkeypatch.setattr(linalg, "_LANCZOS_MAX_ITER", 3)
        with pytest.raises(ConvergenceError, match=cause):
            spd_solve(op, np.ones(50))

    def test_true_residual_is_checked(self):
        # An operator whose applications drift makes the residual read off T_k lie.
        calls = []

        def drifting(x):
            calls.append(1)
            return (1.0 + 1e-6 * len(calls)) * x

        with pytest.raises(ConvergenceError, match="true residual"):
            spd_solve(drifting, np.ones(4))

    def test_spanning_basis_stops_the_solve(self, counting):
        # Once the basis spans the space the Galerkin solution is exact; one more application checks it.
        m = random_psd(5, rng=np.random.default_rng(2)) + np.eye(5)
        op, applied = counting(matrix_operator(m))
        b = np.arange(1.0, 6.0)
        got = spd_solve(op, b)
        np.testing.assert_allclose(m @ got, b, rtol=0.0, atol=1e-12 * np.linalg.norm(b))
        assert len(applied) == 6  # five steps and the true residual


def test_symmetrize_enforces_symmetry():
    m = RNG.standard_normal((4, 4))
    s = symmetrize(m)
    np.testing.assert_array_equal(s, s.T)


def test_symmetrize_takes_a_stack_and_does_not_overflow():
    stack = RNG.standard_normal((3, 4, 4))
    s = symmetrize(stack)
    for m, got in zip(stack, s):
        np.testing.assert_array_equal(got, 0.5 * (m + m.T))  # halving is exact on normal numbers
    huge = np.array([[1.7e308, 1.0], [3.0, 1.5e308]])
    np.testing.assert_array_equal(symmetrize(huge), [[1.7e308, 2.0], [2.0, 1.5e308]])
    with pytest.raises(ValueError, match="square"):
        symmetrize(np.zeros((2, 3)))
