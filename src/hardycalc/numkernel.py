"""Dense complex linear algebra kernel.

Everything downstream (semigroup evaluation, Gramians, norm scans, the
Toeplitz route's read-off) is built on the six operations in this module.
The solve, the operator norm and the Hermitian eigensolver are thin calls
to numpy's LAPACK wrappers; this module adds input checks, the named errors
below for LAPACK failures, and residual certificates.  numpy has no matrix
exponential, so mat_exp is Pade scaling-and-squaring of one At, for one
scalar time, on top of the LAPACK solve; nor a matrix polynomial, so
_poly_matrix evaluates one by Paterson-Stockmeyer from about sqrt(n)
stored powers; nor a Lyapunov solver, so a dense solve_lyapunov runs the
scaled Newton sign iteration (Roberts 1980, Byers 1987) on LAPACK
inverses, O(n^3) per step, instead of an n^2 x n^2 Kronecker system, and
gates its solution on the normwise backward error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConvergenceError",
    "HermitianSpectrum",
    "SingularMatrixError",
    "hermitian_eigs",
    "linalg_build",
    "linear_solve",
    "mat_exp",
    "operator_norm",
    "solve_lyapunov",
]


class SingularMatrixError(ValueError):
    """Raised when a factorization meets a numerically singular pivot."""


class ConvergenceError(RuntimeError):
    """Raised when an iterative kernel exceeds its iteration budget."""


def _as_square(A, name="matrix"):
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"{name} must be square, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError(f"{name} contains non-finite entries")
    return A


def linalg_build():
    """The numpy version and the name and version of the BLAS that numpy
    was built against, which runs every kernel here."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version")}}


# ---------------------------------------------------------------------------
# matrix exponential


# Higham's Pade order 13: scale At down by 2^s until its 1-norm is at most
# theta_13, evaluate the approximant, then square s times.
_PADE13_THETA = 5.371920351148152e0
_PADE13_COEFFS = (64764752532480000.0, 32382376266240000.0,
                  7771770303897600.0, 1187353796428800.0, 129060195264000.0,
                  10559470521600.0, 670442572800.0, 33522128640.0,
                  1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)

# Stop before the squaring chain itself becomes the dominant error source.
_EXP_NORM_GUARD = 1e8


def _pade13(B):
    n = B.shape[-1]
    b = _PADE13_COEFFS
    eye = np.eye(n, dtype=complex)
    B2 = B @ B
    B4 = B2 @ B2
    B6 = B2 @ B4
    U = B @ (B6 @ (b[13] * B6 + b[11] * B4 + b[9] * B2)
             + b[7] * B6 + b[5] * B4 + b[3] * B2 + b[1] * eye)
    V = (B6 @ (b[12] * B6 + b[10] * B4 + b[8] * B2)
         + b[6] * B6 + b[4] * B4 + b[2] * B2 + b[0] * eye)
    # V - U is well conditioned (Higham 2005)
    return np.linalg.solve(V - U, V + U)


def mat_exp(A, t=1.0):
    """e^{At} for one scalar t >= 0 by order-13 Pade scaling-and-squaring.

    The scaling is chosen from the 1-norm of At.  Relative accuracy is
    at the 1e-12 level for ||At|| <= 50; far larger arguments trip the
    overflow guard because the squaring chain would dominate the error.
    """
    A = _as_square(A)
    if t < 0:
        raise ValueError("mat_exp requires t >= 0")
    B = A * t
    norm1 = float(np.max(np.sum(np.abs(B), axis=-2), initial=0.0))
    if norm1 > _EXP_NORM_GUARD:
        raise OverflowError(f"||At||_1 = {norm1:.3g} exceeds the mat_exp guard")
    if norm1 == 0.0:
        # e^0 = I exactly; the order-13 solve would round its diagonal
        return B + np.eye(A.shape[0])
    s = max(0, math.ceil(math.log2(norm1 / _PADE13_THETA)))
    F = _pade13(B / (2.0 ** s))
    for _ in range(s):
        F = F @ F
    return F


def _poly_matrix(coeffs, M):
    """sum_k coeffs[k] M^k by Paterson & Stockmeyer (1973): the powers
    M^0 .. M^s, s = ceil(sqrt(n)) for n coefficients, are stored; each block
    of s coefficients, the last padded with zeros, is one contraction
    against M^0 .. M^{s-1}, and Horner in M^s runs over the blocks, so about
    2(s + 1) matrices are held, never n."""
    c = np.asarray(coeffs, dtype=complex)
    N, s = M.shape[0], math.isqrt(len(c) - 1) + 1
    powers = np.empty((s + 1, N, N), dtype=complex)
    powers[0] = np.eye(N)
    for k in range(1, s + 1):
        np.matmul(powers[k - 1], M, out=powers[k])
    blocks = np.pad(c, (0, -len(c) % s)).reshape(-1, s) @ powers[:s].reshape(
        s, N * N)
    out = blocks[-1].reshape(N, N)
    for block in blocks[-2::-1]:
        out = out @ powers[s] + block.reshape(N, N)
    return out


# ---------------------------------------------------------------------------
# LAPACK-backed kernels: solve, operator norm, Hermitian eigenvalues


def linear_solve(M, B):
    """Solve M X = B, B a vector or a matrix, by LAPACK's partial-pivot LU.

    The residual is at the 1e-11 * ||B|| level when cond(M) is moderate.  An
    exactly zero pivot or a non-finite solution raises SingularMatrixError.
    """
    M = _as_square(M)
    b = np.asarray(B, dtype=complex)
    if b.ndim not in (1, 2) or b.shape[0] != M.shape[0]:
        raise ValueError("right-hand side dimension mismatch")
    try:
        x = np.linalg.solve(M, b)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError("singular matrix in LU") from exc
    if not np.all(np.isfinite(x)):
        raise SingularMatrixError("numerically singular matrix in LU")
    return x


def operator_norm(M):
    """Largest singular value of a matrix M, from LAPACK's SVD; for a stack
    M of shape (k, m, n), the k norms as an array, from one np.linalg.svd
    call.  numpy runs zgesdd on each matrix of the stack in turn, so every
    norm is bit for bit the one a call on that matrix alone gives.

    A square diagonal matrix with finite entries short-circuits to
    max_k |d_k|, which is exact and spares the diagonal semigroups T(t) an
    SVD of their full matrix.
    """
    M = np.asarray(M, dtype=complex)
    if M.ndim not in (2, 3):
        raise ValueError("operator_norm expects a matrix or a stack of them")
    stack = M if M.ndim == 3 else M[None]
    norms = np.zeros(len(stack))
    dense = np.full(len(stack), stack.size > 0)
    m, n = stack.shape[1:]
    if m == n and stack.size:
        d = np.diagonal(stack, axis1=1, axis2=2)
        dense = ~(np.all((stack == 0) | np.eye(n, dtype=bool), axis=(1, 2))
                  & np.all(np.isfinite(d), axis=1))
        norms[~dense] = np.max(np.abs(d[~dense]), axis=1)
    if np.any(dense):
        try:
            sigma = np.linalg.svd(stack if dense.all() else stack[dense],
                                  compute_uv=False)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError("SVD did not converge") from exc
        norms[dense] = np.max(sigma, axis=1)
    return norms if M.ndim == 3 else float(norms[0])


@dataclass(frozen=True)
class HermitianSpectrum:
    """Eigenvalues (ascending) of a Hermitian matrix plus the residual
    max_k ||H v_k - lambda_k v_k||.  vectors[:, k] is the k-th eigenvector."""

    eigenvalues: np.ndarray
    residual: float
    vectors: np.ndarray

    @property
    def lambda_min(self):
        return float(self.eigenvalues[0])

    @property
    def lambda_max(self):
        return float(self.eigenvalues[-1])


def hermitian_eigs(H):
    """Eigenvalues (ascending) and eigenvectors of a Hermitian matrix by
    LAPACK's eigh, plus the eigenpair residual as a certificate: a residual
    above 1e-10 max(1, ||H||_F) raises ConvergenceError.  Non-Hermitian
    input (beyond 1e-12, relative) is an error."""
    H = _as_square(H, "H")
    scale = max(float(np.linalg.norm(H)), 1.0)
    if float(np.linalg.norm(H - H.conj().T)) > 1e-12 * scale:
        raise ValueError("hermitian_eigs requires a Hermitian matrix")
    Hh = 0.5 * (H + H.conj().T)
    try:
        eigs, V = np.linalg.eigh(Hh)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError("eigh did not converge") from exc
    resid = float(np.max(np.linalg.norm(Hh @ V - V * eigs[None, :], axis=0),
                         initial=0.0))
    if not resid <= 1e-10 * scale:
        raise ConvergenceError(f"eigh eigenpair residual {resid:.3g} exceeds "
                               "1e-10 max(1, ||H||)")
    return HermitianSpectrum(eigs, resid, V)


# ---------------------------------------------------------------------------
# Lyapunov equation


# The sign iteration converges quadratically once the determinant scaling
# has brought the spectrum near -1; this budget is far past what any stable
# input needs and only stops an input the iteration cannot settle.
_SIGN_MAX_ITER = 100
_NOT_STABLE = "Lyapunov system singular: A not stable"


def _lyapunov_sign(A, Rh):
    """2Q from the scaled Newton iteration for the sign of
    [[A, 0], [R, -A^H]], whose (2,1) block tends to 2Q while A_k tends to -I.

    Each step takes c_k = |det A_k|^{-1/n} (Byers' determinant scaling) and
    maps A_k -> (c_k A_k + A_k^{-1}/c_k)/2 and
    C_k -> (c_k C_k + A_k^{-H} C_k A_k^{-1}/c_k)/2 (Roberts).
    """
    n = A.shape[0]
    Ak, Ck = A, Rh
    for _ in range(_SIGN_MAX_ITER):
        logdet = np.linalg.slogdet(Ak)[1]
        if not np.isfinite(logdet):
            raise SingularMatrixError(_NOT_STABLE)
        c = math.exp(-logdet / n)
        try:
            Ainv = np.linalg.inv(Ak)
        except np.linalg.LinAlgError as exc:
            raise SingularMatrixError(_NOT_STABLE) from exc
        # a non-finite iterate fails the next slogdet or the limit test
        A_next = 0.5 * (c * Ak + Ainv / c)
        Ck = 0.5 * (c * Ck + (Ainv.conj().T @ Ck @ Ainv) / c)
        step = np.linalg.norm(A_next - Ak, 1)
        Ak = A_next
        if step <= 1e-14 * np.linalg.norm(Ak, 1):
            break
    else:
        raise ConvergenceError(
            f"Lyapunov sign iteration did not converge in {_SIGN_MAX_ITER} "
            "steps")
    # any other limit is a sign matrix S with an eigenvalue +1 (A has one in
    # the right half-plane), and S + I is twice a nonzero projector; a
    # non-finite C_k is a solution too large to represent
    if not (np.linalg.norm(Ak + np.eye(n), 1) <= 1e-6
            and np.all(np.isfinite(Ck))):
        raise SingularMatrixError(_NOT_STABLE)
    return Ck


def solve_lyapunov(A, R):
    """Hermitian Q with A^H Q + Q A = -R.

    Diagonal A gets the exact entrywise formula; dense A goes through the
    scaled Newton sign iteration (O(n^3) per step, a handful of steps).  A
    dense A with an eigenvalue in the closed right half-plane raises
    SingularMatrixError, or ConvergenceError if the iteration does not
    settle.  The output is Hermitized, and its normwise backward error
    ||A^H Q + Q A + R||_F / (2 ||A||_F ||Q||_F + ||R||_F) must be at most
    1e-10 (Higham 2002, sec. 16.2): the residual that rounding leaves grows
    like u ||A|| ||Q||, which no absolute bound on it can follow.
    """
    A = _as_square(A, "A")
    R = _as_square(R, "R")
    if A.shape != R.shape:
        raise ValueError("A and R must have matching shapes")
    norm_R = float(np.linalg.norm(R))
    if norm_R > 0 and float(np.linalg.norm(R - R.conj().T)) > 1e-10 * norm_R:
        raise ValueError("R must be Hermitian")
    Rh = 0.5 * (R + R.conj().T)

    off_diag = A - np.diag(np.diag(A))
    if not np.any(off_diag):
        lam = np.diag(A)
        denom = np.conj(lam)[:, None] + lam[None, :]
        if np.min(np.abs(denom)) < 1e-14 * max(1.0, float(np.max(np.abs(lam)))):
            raise SingularMatrixError(_NOT_STABLE)
        Q = -Rh / denom
    else:
        Q = 0.5 * _lyapunov_sign(A, Rh)
    Q = 0.5 * (Q + Q.conj().T)
    residual = float(np.linalg.norm(A.conj().T @ Q + Q @ A + Rh))
    scale = 2.0 * float(np.linalg.norm(A)) * float(np.linalg.norm(Q)) + norm_R
    if not residual <= 1e-10 * scale:
        raise ArithmeticError(
            f"Lyapunov backward error {residual / scale:.3g} exceeds 1e-10")
    return Q
