import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sgdstab.linalg import (
    ConvergenceError,
    LinearOperator,
    kron,
    kron_sum,
    lanczos_lambda_max,
    null_projectors,
    pcg,
    pinv_psd,
    sqrt_pinv_psd,
    sym_eig,
    symmetrize,
    unvec,
    vec,
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
        m = random_symmetric(8)
        eig = sym_eig(m)
        recon = eig.vectors @ np.diag(eig.values) @ eig.vectors.T
        assert np.max(np.abs(recon - m)) < 1e-8 * (1 + np.max(np.abs(eig.values)))

    def test_descending_order(self):
        eig = sym_eig(random_symmetric(6))
        assert np.all(np.diff(eig.values) <= 0)


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
    """lanczos_lambda_max, the top (signed) eigenvalue of a self-adjoint operator."""

    def test_diagonal(self):
        op = LinearOperator.from_matrix(np.diag([5.0, 1.0]))
        assert lanczos_lambda_max(op) == pytest.approx(5.0, abs=1e-8)

    def test_zero_operator(self):
        op = LinearOperator.from_matrix(np.zeros((3, 3)))
        assert lanczos_lambda_max(op) == pytest.approx(0.0, abs=1e-12)

    def test_negative_dominant_spectrum(self):
        # The dominant-in-magnitude eigenvalue is -5; the answer must be +1.
        op = LinearOperator.from_matrix(np.diag([-5.0, 1.0]))
        assert lanczos_lambda_max(op) == pytest.approx(1.0, abs=1e-8)

    def test_all_negative_spectrum(self):
        op = LinearOperator.from_matrix(np.diag([-5.0, -2.0]))
        assert lanczos_lambda_max(op) == pytest.approx(-2.0, abs=1e-7)

    def test_exactly_paired_spectrum(self):
        # Eigenvalues +-3 tie in magnitude; the top of the spectrum is +3.
        op = LinearOperator.from_matrix(np.diag([3.0, -3.0, 1.0]))
        assert lanczos_lambda_max(op, seed=0) == pytest.approx(3.0, abs=1e-8)
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        m = q @ np.diag([5.0, -5.0, 2.0, -1.0]) @ q.T
        got = lanczos_lambda_max(LinearOperator.from_matrix(m), seed=2)
        assert got == pytest.approx(5.0, abs=1e-8)

    def test_matches_dense_on_random_symmetric(self):
        for seed in range(5):
            m = random_symmetric(12, np.random.default_rng(seed))
            lam = float(np.max(np.linalg.eigvalsh(m)))
            got = lanczos_lambda_max(LinearOperator.from_matrix(m), seed=seed)
            assert got == pytest.approx(lam, abs=max(1e-7, 1e-7 * abs(lam)))

    def test_rejects_non_self_adjoint(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            lanczos_lambda_max(LinearOperator.from_matrix(m))

    def test_max_iter_exhaustion(self):
        # Lanczos is exact once the basis spans the space, so the operator is larger than the budget.
        op = LinearOperator.from_matrix(np.diag(np.linspace(1.0, 2.0, 50)))
        cause = r"within 3 iterations \(last residual \d\.\d{3}e[+-]\d+, estimate 1\.\d+"
        with pytest.raises(ConvergenceError, match=cause):
            lanczos_lambda_max(op, tol=1e-16, max_iter=3)

    def test_breakdown_on_repeated_eigenvalue(self, counting):
        # Two distinct eigenvalues span a 2-dimensional Krylov space: with no
        # residual tolerance only the breakdown rule stops it inside the budget.
        op, applied = counting(LinearOperator.from_matrix(np.diag([2.0, 2.0, 2.0, 1.0, 1.0, 1.0])))
        assert lanczos_lambda_max(op, tol=0.0, max_iter=3) == pytest.approx(2.0, rel=1e-14)
        assert len(applied) == 6 + 2  # three self-adjointness probes, then two Lanczos steps

    def test_dimension_below_budget(self, counting):
        m = random_symmetric(5, np.random.default_rng(11))
        op, applied = counting(LinearOperator.from_matrix(m))
        got = lanczos_lambda_max(op, tol=0.0, max_iter=1000)
        assert got == pytest.approx(float(np.max(np.linalg.eigvalsh(m))), rel=1e-13)
        assert len(applied) == 6 + 5

    def test_d1(self):
        assert lanczos_lambda_max(LinearOperator.from_matrix([[-3.5]])) == -3.5

    def test_operator_linearity_probes(self):
        m = random_symmetric(6)
        op = LinearOperator.from_matrix(m)
        x = RNG.standard_normal(6)
        y = RNG.standard_normal(6)
        a, b = 0.37, -1.2
        lhs = op(a * x + b * y)
        rhs = a * op(x) + b * op(y)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-12)


class TestConjugateGradients:
    def test_matches_dense_solve(self):
        rng = np.random.default_rng(5)
        m = random_psd(30, rng=rng) + 0.1 * np.eye(30)
        b = rng.standard_normal(30)
        want = np.linalg.solve(m, b)
        op = LinearOperator.from_matrix(m)
        for precond in (lambda r: r, lambda r: r / np.diag(m)):
            got = pcg(op, b, precond=precond)
            assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)

    def test_diagonal_preconditioner_is_exact_on_diagonal_operator(self, counting):
        diag = np.linspace(1.0, 1e6, 40)
        op, applied = counting(LinearOperator.from_matrix(np.diag(diag)))
        b = np.arange(1.0, 41.0)
        np.testing.assert_allclose(pcg(op, b, lambda r: r / diag), b / diag, rtol=1e-14)
        assert len(applied) == 2  # one iteration, then the true-residual check

    def test_zero_right_hand_side(self, counting):
        op, applied = counting(LinearOperator.from_matrix(np.eye(3)))
        assert not np.any(pcg(op, np.zeros(3), lambda r: r))
        assert applied == []

    def test_indefinite_operator_raises(self):
        op = LinearOperator.from_matrix(np.diag([1.0, -1.0]))
        with pytest.raises(ConvergenceError, match="non-positive curvature"):
            pcg(op, np.array([1.0, 2.0]), lambda r: r)

    def test_max_iter_exhaustion(self):
        op = LinearOperator.from_matrix(np.diag(np.linspace(1.0, 100.0, 50)))
        cause = r"within 3 iterations \(last residual \d\.\d{3}e[+-]\d+"
        with pytest.raises(ConvergenceError, match=cause):
            pcg(op, np.ones(50), lambda r: r, max_iter=3)

    def test_true_residual_is_checked(self):
        # An operator whose applications drift makes the recursive residual lie.
        calls = []

        def drifting(x):
            calls.append(1)
            return (1.0 + 1e-6 * len(calls)) * x

        with pytest.raises(ConvergenceError, match="true residual"):
            pcg(LinearOperator(in_dim=4, out_dim=4, apply=drifting), np.ones(4), lambda r: r)


def test_symmetrize_enforces_symmetry():
    m = RNG.standard_normal((4, 4))
    s = symmetrize(m)
    np.testing.assert_array_equal(s, s.T)
