"""Dense linear algebra kernels against closed-form and mpmath oracles.

The kernels call LAPACK through numpy, so numpy's own decompositions are no
independent oracle; singular values and eigenvalues are checked against
mpmath at 30 digits instead.
"""

import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from conftest import power_stack
from hardycalc import numkernel
from hardycalc.numkernel import (
    ConvergenceError,
    SingularMatrixError,
    hermitian_eigs,
    linear_solve,
    mat_exp,
    operator_norm,
    solve_lyapunov,
)
from hardycalc.semigroup import random_stable

# T(dt) of a dense stable generator and of a diagonal one on the 2^-8 step:
# the matrices the Toeplitz route evaluates its polynomial on
_STEP_MATRICES = {
    "dense": mat_exp(random_stable(8, 8).matrix, 2.0 ** -8),
    "diagonal": np.diag(np.exp(np.array([-2.0, -3.0 + 1.0j, -1.5, -0.5 - 7j])
                               * 2.0 ** -8)),
}


def _mp_matrix(M):
    return mp.matrix([[mp.mpc(z.real, z.imag) for z in row]
                      for row in np.asarray(M, dtype=complex)])


def _mp_lyapunov(A, R):
    """Q with A^H Q + Q A = -R from the n^2 x n^2 Kronecker system, solved by
    mpmath's LU at 30 digits."""
    n = A.shape[0]
    Am = _mp_matrix(A)
    K, b = mp.zeros(n * n, n * n), mp.matrix(n * n, 1)
    with mp.workdps(30):
        for j in range(n):
            for i in range(n):
                row = i + n * j  # Q_ij in column-major order
                b[row] = -mp.mpc(R[i, j].real, R[i, j].imag)
                for k in range(n):
                    K[row, k + n * j] += mp.conj(Am[k, i])  # (A^H Q)_ij
                    K[row, i + n * k] += Am[k, j]           # (Q A)_ij
        q = mp.lu_solve(K, b)
    return np.array([[complex(q[i + n * j]) for j in range(n)]
                     for i in range(n)])


# dense matrices with an eigenvalue on the imaginary axis, at 0, or in the
# right half-plane
NOT_STABLE_DENSE = ([[1j, 1.0], [0.0, 1j]],
                    [[0.0, 1.0], [0.0, -1.0]],
                    [[0.1, 1.0], [0.0, -1.0]])


def _mp_sigma_max(M):
    with mp.workdps(30):
        return float(max(mp.svd_c(_mp_matrix(M), compute_uv=False)))


def _mp_eigvalsh(H):
    with mp.workdps(30):
        return np.sort([float(e) for e in
                        mp.eighe(_mp_matrix(H), eigvals_only=True)])


class TestMatExp:
    def test_zero_time_is_identity(self):
        A = np.array([[-1.0, 2.0], [0.0, -3.0]])
        assert np.array_equal(mat_exp(A, 0.0), np.eye(2))

    def test_scalar_exponential(self):
        out = mat_exp(np.array([[-1.0]]), 1.0)
        assert abs(out[0, 0] - math.exp(-1.0)) < 1e-14

    def test_diagonal(self):
        A = np.diag([-1.0, -2.0, -0.5])
        out = mat_exp(A, 0.7)
        assert np.allclose(np.diag(out), np.exp(np.diag(A) * 0.7), rtol=1e-13)

    def test_jordan_block(self):
        # exp([[1,1],[0,1]]) = e * [[1,1],[0,1]]
        A = np.array([[1.0, 1.0], [0.0, 1.0]])
        out = mat_exp(A, 1.0)
        ref = math.e * np.array([[1.0, 1.0], [0.0, 1.0]])
        assert np.max(np.abs(out - ref)) < 1e-12 * math.e

    def test_group_property(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            A = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
            A = A - 3.0 * np.eye(5)
            full = mat_exp(A, 0.9)
            halves = mat_exp(A, 0.45)
            assert np.max(np.abs(halves @ halves - full)) < 1e-11 * np.max(np.abs(full))

    def test_against_eig_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            A = rng.normal(size=(6, 6)) - 2.0 * np.eye(6)
            w, V = np.linalg.eig(A)
            ref = V @ np.diag(np.exp(w * 0.8)) @ np.linalg.inv(V)
            assert np.max(np.abs(mat_exp(A, 0.8) - ref)) < 1e-9

    @pytest.mark.parametrize("norm", [0.004, 0.05, 0.2, 0.5, 2.0, 50.0])
    def test_against_mpmath_expm(self, norm):
        # ||At||_1 from well inside theta_13 (no scaling) to four squarings
        rng = np.random.default_rng(3)
        A = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        A /= np.max(np.sum(np.abs(A), axis=0))
        with mp.workdps(40):
            E = mp.expm(_mp_matrix(A * norm))
            ref = np.array([[complex(E[i, j]) for j in range(8)]
                            for i in range(8)])
        err = np.linalg.norm(mat_exp(A, norm) - ref, 1)
        assert err < 1e-13 * np.linalg.norm(ref, 1)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            mat_exp(np.array([[-1.0, 2.0], [0.0, -3.0]]), -0.1)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            mat_exp(np.zeros((2, 3)), 1.0)

    def test_overflow_guard(self):
        with pytest.raises(OverflowError):
            mat_exp(np.array([[1e9]]), 1.0)


class TestPolyMatrix:
    @pytest.mark.parametrize("n", [1, 2, 7, 64, 4096])
    @pytest.mark.parametrize("kind", sorted(_STEP_MATRICES))
    def test_matches_the_stack_sum(self, kind, n):
        # the oracle stores every power M^k, k < n, and sums c_k M^k
        M = _STEP_MATRICES[kind]
        rng = np.random.default_rng(n)
        c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        ref = np.tensordot(c, power_stack(M, n), 1)
        out = numkernel._poly_matrix(c, M)
        assert operator_norm(out - ref) <= 1e-13 * operator_norm(ref)

    def test_stores_about_twice_root_n_matrices(self):
        # n = 4096 coefficients: s + 1 = 65 stored powers, one contraction
        # of 64 blocks and Horner's two temporaries, matrices of 16 KiB at
        # N = 32, besides the zero-padded copy of the coefficients
        M = mat_exp(random_stable(32, 3).matrix, 2.0 ** -8)
        c = np.ones(4096, dtype=complex)
        tracemalloc.start()
        try:
            numkernel._poly_matrix(c, M)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * (64 + 2) * M.nbytes + c.nbytes


class TestLinearSolve:
    def test_exact_small_system(self):
        A = np.array([[3.0, 1.0], [1.0, 2.0]])
        b = np.array([9.0, 8.0])
        x = linear_solve(A, b)
        assert np.allclose(x, [2.0, 3.0], atol=1e-13)

    def test_complex_matrix_rhs(self):
        rng = np.random.default_rng(5)
        A = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
        B = rng.normal(size=(7, 3)) + 1j * rng.normal(size=(7, 3))
        X = linear_solve(A, B)
        assert np.max(np.abs(A @ X - B)) < 1e-11 * np.max(np.abs(B))

    def test_random_accuracy_loop(self):
        rng = np.random.default_rng(17)
        for _ in range(8):
            n = int(rng.integers(2, 12))
            A = rng.normal(size=(n, n)) + np.eye(n) * n
            x_true = rng.normal(size=n)
            x = linear_solve(A, A @ x_true)
            assert np.max(np.abs(x - x_true)) < 1e-10

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            linear_solve(np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([1.0, 2.0]))

    def test_zero_column_raises(self):
        # an exactly zero column stays zero through elimination, so LAPACK
        # meets an exactly zero pivot
        M = np.array([[1j, 0.0, 2.0], [3.0, 0.0, 1.0], [1.0, 0.0, -1j]])
        with pytest.raises(SingularMatrixError):
            linear_solve(M, np.eye(3))


class TestOperatorNorm:
    def test_nilpotent(self):
        assert abs(operator_norm(np.array([[0.0, 2.0], [0.0, 0.0]])) - 2.0) < 1e-12

    def test_diagonal_complex(self):
        assert abs(operator_norm(np.diag([3.0, -4.0j])) - 4.0) < 1e-12

    def test_large_diagonal_is_exact(self):
        rng = np.random.default_rng(31)
        d = rng.normal(size=256) + 1j * rng.normal(size=256)
        assert operator_norm(np.diag(d)) == float(np.max(np.abs(d)))

    def test_zero_matrix(self):
        assert operator_norm(np.zeros((3, 3))) == 0.0

    def test_rectangular(self):
        M = np.array([[1.0, 0.0, 0.0], [0.0, 5.0, 0.0]])
        assert abs(operator_norm(M) - 5.0) < 1e-12

    def test_degenerate_top_pair(self):
        # two leading singular values separated by 1e-13, a gap no power
        # iteration resolves; the norm must still be the top one
        rng = np.random.default_rng(2)
        U, _ = np.linalg.qr(rng.normal(size=(8, 8)))
        V, _ = np.linalg.qr(rng.normal(size=(8, 8)))
        S = np.diag([2.0, 2.0 - 1e-13, 1.0, 0.5, 0.3, 0.2, 0.1, 0.05])
        got = operator_norm(U @ S @ V)
        assert abs(got - 2.0) < 1e-11

    def test_against_svd_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            n = int(rng.integers(2, 10))
            M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            ref = _mp_sigma_max(M)
            assert abs(operator_norm(M) - ref) < 1e-9 * ref

    def test_rejects_non_matrix(self):
        with pytest.raises(ValueError):
            operator_norm(np.zeros(4))
        with pytest.raises(ValueError):
            operator_norm(np.zeros((2, 3, 3, 3)))

    @staticmethod
    def _stack(kind):
        rng = np.random.default_rng(41)
        dense = rng.normal(size=(5, 7, 7)) + 1j * rng.normal(size=(5, 7, 7))
        diagonal = dense * np.eye(7)
        if kind == "dense":
            return dense
        if kind == "diagonal":
            return diagonal
        if kind == "mixed":
            return np.concatenate([dense[:2], diagonal[:2],
                                   np.zeros((1, 7, 7)), dense[2:]])
        if kind == "rectangular":
            return dense[:, :3, :]
        return np.zeros((0, 7, 7)) if kind == "empty" else np.zeros((3, 0, 0))

    @pytest.mark.parametrize("kind", ["dense", "diagonal", "mixed",
                                      "rectangular", "empty",
                                      "empty-matrices"])
    def test_stack_is_bit_for_bit_per_matrix(self, kind):
        stack = self._stack(kind)
        norms = operator_norm(stack)
        assert norms.shape == (len(stack),)
        assert np.array_equal(norms, [operator_norm(M) for M in stack])
        if len(stack):  # a nonempty list of matrices is a stack too
            assert np.array_equal(operator_norm(list(stack)), norms)

    def test_stacked_diagonals_stay_exact(self):
        stack = self._stack("mixed")
        norms = operator_norm(stack)
        for M, v in zip(stack, norms):
            if np.array_equal(M, np.diag(np.diag(M))):
                assert v == np.max(np.abs(np.diag(M)))
            else:
                assert v == np.linalg.norm(M, 2)

    def test_stack_that_does_not_converge_raises(self):
        # LAPACK's SVD does not converge on a NaN entry, in a stack as alone
        stack = self._stack("mixed")
        stack[1, 0, 3] = np.nan
        with pytest.raises(ConvergenceError):
            operator_norm(stack)
        with pytest.raises(ConvergenceError):
            operator_norm(stack[1])


class TestHermitianEigs:
    def test_real_symmetric_pair(self):
        spec = hermitian_eigs(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(spec.eigenvalues, [1.0, 3.0], atol=1e-12)
        assert spec.lambda_min == pytest.approx(1.0, abs=1e-12)
        assert spec.lambda_max == pytest.approx(3.0, abs=1e-12)

    def test_complex_hermitian(self):
        # eigenvalues of [[a, b], [conj(b), a]] are a +- |b|
        H = np.array([[2.0, 1j], [-1j, 2.0]])
        spec = hermitian_eigs(H)
        assert np.allclose(spec.eigenvalues, [1.0, 3.0], atol=1e-12)

    def test_eigenvector_residual(self):
        rng = np.random.default_rng(7)
        for _ in range(6):
            n = int(rng.integers(2, 12))
            B = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            H = B + B.conj().T
            spec = hermitian_eigs(H)
            assert spec.residual < 1e-10 * max(1.0, float(np.linalg.norm(H)))
            ref = _mp_eigvalsh(H)
            assert np.max(np.abs(spec.eigenvalues - ref)) < 1e-10

    def test_ascending_order_and_orthonormal_vectors(self):
        rng = np.random.default_rng(9)
        B = rng.normal(size=(6, 6))
        H = B + B.T
        spec = hermitian_eigs(H)
        assert np.all(np.diff(spec.eigenvalues) >= -1e-12)
        gram = spec.vectors.conj().T @ spec.vectors
        assert np.max(np.abs(gram - np.eye(6))) < 1e-10

    def test_near_converged_input(self):
        # almost diagonal input with off-diagonal mass near the target: the
        # sweep loop must terminate instead of cycling on roundoff
        H = np.diag([1.0, 2.0, 3.0]) + 1e-13 * np.ones((3, 3))
        H = 0.5 * (H + H.T)
        spec = hermitian_eigs(H)
        assert np.allclose(spec.eigenvalues, [1.0, 2.0, 3.0], atol=1e-11)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            hermitian_eigs(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_bad_eigenpairs_raise(self, monkeypatch):
        # the right eigenvalues with the wrong vectors: residual ||(1, 1)||
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda H: (np.array([1.0, 3.0]), np.eye(2)))
        with pytest.raises(ConvergenceError, match="residual"):
            hermitian_eigs(np.array([[2.0, 1.0], [1.0, 2.0]]))


class TestSolveLyapunov:
    def test_diagonal_closed_form(self):
        # (conj(l_i) + l_j) Q_ij = -R_ij gives Q = diag(1/2, 1/4) for R = I
        Q = solve_lyapunov(np.diag([-1.0, -2.0]), np.eye(2))
        assert np.allclose(Q, np.diag([0.5, 0.25]), atol=1e-13)

    def test_dense_residual(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            n = int(rng.integers(2, 9))
            A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            A = A - (np.abs(np.linalg.eigvals(A).real).max() + 1.0) * np.eye(n)
            B = rng.normal(size=(n, n))
            R = B @ B.T + np.eye(n)
            Q = solve_lyapunov(A, R)
            resid = A.conj().T @ Q + Q @ A + R
            assert np.max(np.abs(resid)) < 1e-9 * np.max(np.abs(R))
            assert np.max(np.abs(Q - Q.conj().T)) < 1e-10

    def test_backward_error_admits_a_large_solution(self):
        # ||Q||_F = 7.5e5: rounding leaves a residual of 4.7e-10, above the
        # absolute 1e-10 ||R||_F, but its backward error is about 1e-19
        A, R = np.array([[-1.0, 3000.0], [0.0, -2.0]]), np.eye(2)
        Q = solve_lyapunov(A, R)
        residual = np.linalg.norm(A.T @ Q + Q @ A + R)
        assert residual > 1e-10 * np.linalg.norm(R)
        scale = 2.0 * np.linalg.norm(A) * np.linalg.norm(Q) + np.linalg.norm(R)
        assert residual <= 1e-10 * scale

    def test_gramian_relation(self):
        # closed form for the scalar case: q = r / (2 |Re lambda|)
        Q = solve_lyapunov(np.array([[-0.5]]), np.array([[3.0]]))
        assert abs(Q[0, 0] - 3.0) < 1e-13

    def test_rejects_non_hermitian_rhs(self):
        with pytest.raises(ValueError):
            solve_lyapunov(np.diag([-1.0]), np.array([[1j]]))

    def test_marginal_spectrum_raises(self):
        with pytest.raises((SingularMatrixError, ArithmeticError)):
            solve_lyapunov(np.diag([1j, 1j]), np.eye(2))

    @pytest.mark.parametrize("A", NOT_STABLE_DENSE)
    def test_dense_not_stable_raises(self, A):
        with pytest.raises((SingularMatrixError, ArithmeticError)):
            solve_lyapunov(np.array(A), np.eye(2))

    def test_iteration_budget_raises(self, monkeypatch):
        monkeypatch.setattr(numkernel, "_SIGN_MAX_ITER", 1)
        with pytest.raises(ConvergenceError):
            solve_lyapunov(np.array([[-1.0, 4.0], [0.0, -3.0]]), np.eye(2))

    @pytest.mark.parametrize("case", ["random_stable4", "jordan6",
                                      "near_marginal"])
    def test_against_mpmath_kronecker(self, case):
        # the near-marginal case pins the determinant scaling: without it the
        # iteration drifts and its residual breaks the 1e-10 certificate
        rng = np.random.default_rng(5)
        Y = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        A, R = {
            "random_stable4": (random_stable(4, 3).matrix,
                               Y @ Y.conj().T + np.eye(4)),
            "jordan6": (-np.eye(6) + 3.0 * np.eye(6, k=1), np.eye(6)),
            "near_marginal": (np.array([[-1e-5 + 1j, 1.0], [0.0, -1.0]]),
                              np.eye(2)),
        }[case]
        ref = _mp_lyapunov(A, R)
        Q = solve_lyapunov(A, R)
        assert np.linalg.norm(Q - ref) <= 1e-13 * np.linalg.norm(ref)


def test_error_hierarchy():
    assert issubclass(ConvergenceError, RuntimeError)
    assert issubclass(SingularMatrixError, ValueError)


# Property tests on random complex matrices against mpmath.  derandomize fixes
# the examples, so the gate is reproducible; max_examples keeps it fast.
# Scales are max-abs entries: a Frobenius norm underflows to 0 on the tiny
# matrices hypothesis draws.
_PROPERTY = settings(max_examples=100, deadline=None, derandomize=True,
                     database=None)
_ENTRIES = st.complex_numbers(max_magnitude=10.0, allow_nan=False,
                              allow_infinity=False, allow_subnormal=False)


def _complex_arrays(shape):
    return arrays(np.complex128, shape, elements=_ENTRIES)


_SQUARE = st.integers(1, 8).flatmap(lambda n: _complex_arrays((n, n)))
_RECTANGULAR = st.tuples(st.integers(1, 8), st.integers(1, 8)).flatmap(
    _complex_arrays)


class TestKernelProperties:
    @_PROPERTY
    @given(_RECTANGULAR)
    def test_norm_matches_sigma_max(self, M):
        # never below sigma_max: the measured side of a check must not be
        # under-estimated
        ref = _mp_sigma_max(M)
        assert ref * (1 - 1e-12) <= operator_norm(M) <= ref * (1 + 1e-12)

    @_PROPERTY
    @given(_SQUARE)
    def test_eigenvalues_match_mpmath(self, X):
        H = X + X.conj().T
        spec = hermitian_eigs(H)
        err = np.max(np.abs(spec.eigenvalues - _mp_eigvalsh(H)))
        assert err <= 1e-12 * H.shape[0] * np.max(np.abs(H))

    @_PROPERTY
    @given(_SQUARE, st.data())
    def test_solve_residual(self, X, data):
        # the shift puts every singular value of M in [1, 2 ||X||_F + 1]
        n = X.shape[0]
        M = X + (float(np.linalg.norm(X)) + 1.0) * np.eye(n)
        B = data.draw(_complex_arrays((n, data.draw(st.integers(1, 3)))))
        resid = np.max(np.abs(M @ linear_solve(M, B) - B))
        assert resid <= 1e-11 * np.max(np.abs(B))

    @_PROPERTY
    @given(st.integers(2, 8).flatmap(
        lambda n: st.tuples(_complex_arrays((n, n)), _complex_arrays((n, n)))))
    def test_dense_lyapunov_certificate(self, XY):
        # the superdiagonal keeps A off the diagonal closed form; the shift
        # makes A + A^H negative definite, so A is stable
        X, Y = XY
        n = X.shape[0]
        A = X + np.eye(n, k=1) - (float(np.linalg.norm(X)) + 2.0) * np.eye(n)
        R = Y @ Y.conj().T + np.eye(n)
        Q = solve_lyapunov(A, R)
        resid = np.linalg.norm(A.conj().T @ Q + Q @ A + R)
        assert resid <= 1e-10 * np.linalg.norm(R)
