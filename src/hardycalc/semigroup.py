"""Generators A and their semigroups T(t) = e^{At}, with machine-checkable
exponential-stability certificates.

Two generator kinds are supported: Diagonal (eigenvalues known by
construction, semigroup evaluated exactly) and Dense (stability certified by
a Lyapunov witness before any use).  One proof certifies every witness P:
P > 0 by Cholesky, and lambda_min(-(P A + (P A)^H)) above its rounding
floor.  It is tried on P = I, then on the solution of A^H P + P A = -I; no
step reads how well P solves that equation.  Other modules reach T(t)
only through the evaluators here (`evaluate_T`, `norm_scan`,
`gramian_rule`, `gramian`, `orbit_average`, `mode_integrals`) and the
certificate's decay envelope; they test the kind only to guard an input.
Samplers produce seeded dissipative and similarity-transformed stable test
matrices.  Every semigroup integral is one Taylor series on a short start
step, doubled exactly up to its horizon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numkernel import (
    ConvergenceError,
    SingularMatrixError,
    hermitian_eigs,
    linear_solve,
    mat_exp,
    operator_norm,
    solve_lyapunov,
)

__all__ = [
    "Generator",
    "StabilityCertificate",
    "StabilityError",
    "certify_stable",
    "evaluate_T",
    "example26",
    "gramian",
    "gramian_rule",
    "mode_integrals",
    "norm_scan",
    "orbit_average",
    "random_dissipative",
    "random_stable",
    "resolvent",
    "semigroup_bounds",
    "sup_T_norm",
]


class StabilityError(ValueError):
    """The input matrix does not generate an exponentially stable semigroup."""


@dataclass(frozen=True)
class StabilityCertificate:
    """Lyapunov witness: P Hermitian positive definite with
    -(A^H P + P A) >= margin I, and p_min, p_max the extreme eigenvalues of
    P."""

    P: np.ndarray
    margin: float
    p_min: float
    p_max: float


@dataclass(frozen=True)
class Generator:
    """A finite-dimensional semigroup generator.

    kind is "diagonal" (eigenvalues carried explicitly, all with negative
    real part) or "dense" (full matrix); both carry a stability certificate.
    """

    kind: str
    matrix: np.ndarray
    eigenvalues: np.ndarray | None = None
    certificate: StabilityCertificate | None = None

    @property
    def dimension(self):
        return self.matrix.shape[0]

    @staticmethod
    def diagonal(eigenvalues):
        lam = np.atleast_1d(np.asarray(eigenvalues, dtype=complex))
        if lam.ndim != 1 or lam.size == 0:
            raise ValueError("diagonal generator needs a nonempty eigenvalue list")
        if not np.all(np.isfinite(lam)):
            raise ValueError("diagonal generator eigenvalues must be finite")
        if np.any(lam.real >= 0):
            raise StabilityError("diagonal generator requires Re(lambda) < 0")
        # -(A^H + A) = diag(-2 Re lambda) >= 2 min(-Re lambda) I, so the
        # witness P = I has x^H x decay at least like e^{-margin t}
        cert = StabilityCertificate(P=np.eye(lam.size),
                                    margin=2.0 * float(np.min(-lam.real)),
                                    p_min=1.0, p_max=1.0)
        return Generator(kind="diagonal", matrix=np.diag(lam),
                         eigenvalues=lam, certificate=cert)

    @staticmethod
    def dense(matrix):
        A = np.asarray(matrix, dtype=complex)
        cert = certify_stable(A)
        return Generator(kind="dense", matrix=A, certificate=cert)

    def decay_rate(self):
        """Certified lower bound on the exponential decay rate of ||T(t)||:
        margin / (2 lambda_max(P)) for the certificate's witness P."""
        cert = self.certificate
        return cert.margin / (2.0 * cert.p_max)

    def envelope_constant(self):
        """K with ||T(t)|| <= K e^{-decay_rate() t}:
        sqrt(lambda_max(P)/lambda_min(P)), as x^H P x decays at least like
        e^{-2 decay_rate t} along every orbit (1 for the witness P = I)."""
        cert = self.certificate
        return math.sqrt(cert.p_max / cert.p_min)


_HORIZON_LIMIT = 1e6
# Floors on the margin lambda_min(W) of a witness.  It must clear the
# 1e-10 max(1, ||W||_F) residual that hermitian_eigs accepts by two orders,
# and the horizon log(1/eps)/(margin/2) of the witness P = I must stay below
# semigroup_bounds' limit for every normal eps <= 1, or else the Lyapunov
# solution, whose margin is near 1, is tried next.
_EIGS_ACCURACY = 1e-8
_MIN_MARGIN = -2.0 * math.log(np.finfo(float).tiny) / _HORIZON_LIMIT
# The third covers forming M = P A: in complex arithmetic its error is at
# most sqrt(2) gamma_{n+2} ||P||_F ||A||_F <= 3 sqrt(2) n u ||P||_F ||A||_F
# (Higham 2002, sec. 3.6), W = -(M + M^H) takes it twice, and
# c = 16 > 2 * 3 sqrt(2) covers both with room to spare.  (The rounding of
# the sum itself, u ||W||, lies under the first floor; the product with
# P = I is exact.)
_PRODUCT_ERROR = 16.0 * np.finfo(float).eps / 2.0


def _witness(A, P):
    """The certificate of P for A, or None when P proves nothing.

    P is a witness when it is positive definite by Cholesky and
    W = -(M + M^H) with M = P A, Hermitian by construction, has
    lambda_min(W) above all three floors above: then x^H P x decays at
    least like e^{-(margin / p_max) t} along every orbit, whatever P's
    distance from the solution of any Lyapunov equation."""
    try:
        np.linalg.cholesky(P)
    except np.linalg.LinAlgError:
        return None
    M = P @ A
    W = -(M + M.conj().T)
    margin = hermitian_eigs(W).lambda_min
    floor = max(_EIGS_ACCURACY * max(1.0, float(np.linalg.norm(W))),
                _MIN_MARGIN,
                _PRODUCT_ERROR * len(A) * float(np.linalg.norm(P))
                * float(np.linalg.norm(A)))
    if not margin > floor:
        return None
    p = np.linalg.eigvalsh(P)
    return StabilityCertificate(P=P, margin=margin, p_min=float(p[0]),
                                p_max=float(p[-1]))


def certify_stable(A):
    """A Lyapunov witness P > 0 with -(A^H P + P A) >= margin I.

    `_witness` is tried on P = I, which certifies a dissipative A with a
    clear margin (Lumer & Phillips 1961), then on the solution of
    A^H P + P A = -I.  A solve that fails in any named way (singular, no
    convergence, backward error), or a solution that proves no margin, is
    a StabilityError."""
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or not np.all(np.isfinite(A)):
        raise ValueError(f"A must be a finite square matrix, got {A.shape}")
    eye = np.eye(A.shape[0], dtype=complex)
    cert = _witness(A, eye)
    if cert is not None:
        return cert
    try:
        cert = _witness(A, solve_lyapunov(A, eye))
    except (SingularMatrixError, ConvergenceError, ArithmeticError) as exc:
        raise StabilityError("not exponentially stable: Lyapunov witness "
                             "unavailable") from exc
    if cert is None:
        raise StabilityError("not exponentially stable: the Lyapunov "
                             "solution is no witness")
    return cert


def evaluate_T(gen, t):
    """T(t): exact eigenvalue exponentials for diagonal, Pade for dense."""
    if t < 0:
        raise ValueError("semigroup time must be nonnegative")
    if gen.kind == "diagonal":
        return np.diag(np.exp(gen.eigenvalues * t))
    return mat_exp(gen.matrix, t)


def norm_scan(gen, Xs, ts, power):
    """The sorted unique scanned times and the (len(Xs), m) array of
    t^power ||X T(t)|| for a stack Xs of matrices of one shape.

    A diagonal generator adds the peak times -power/Re lambda_k of
    t^power e^{Re lambda_k t} inside the grid's range; when every X is
    diagonal too, the norms are max_k |X_kk| e^{Re lambda_k t}, exact and
    vectorized.  Otherwise each T(t) is evaluated once, and the norms of
    the stack Xs T(t) are one `operator_norm` call."""
    Xs = np.asarray(Xs)
    ts = np.asarray(ts, dtype=float)
    if np.any(ts < 0):
        raise ValueError("semigroup time must be nonnegative")
    if gen.kind == "diagonal":
        lam = gen.eigenvalues.real
        peaks = power / -lam
        ts = np.concatenate(
            [ts, peaks[(peaks >= ts.min()) & (peaks <= ts.max())]])
    # np.unique's own sort and mask, without the numpy.ma import it makes
    ts = np.sort(ts)
    ts = ts[np.concatenate([[True], ts[1:] != ts[:-1]])]
    if gen.kind == "diagonal" and all(
            np.array_equal(X, np.diag(np.diagonal(X))) for X in Xs):
        decay = np.exp(np.outer(ts, lam))
        diag = np.abs(np.diagonal(Xs, axis1=1, axis2=2))
        norms = np.max(diag[:, None] * decay, axis=-1)
    else:
        norms = np.array([operator_norm(Xs @ evaluate_T(gen, t))
                          for t in ts]).T
    return ts, ts ** power * norms


def gramian_rule(gen, C, ts, ws):
    """The quadrature rule sum_j ws[j] T(t_j)^H C^H C T(t_j) for a matrix
    C: R o (E^H diag(w) E) with R = C^H C and E the eigenvalue exponentials
    when diagonal, else one T(t) per time."""
    ts = np.asarray(ts, dtype=float)
    if np.any(ts < 0):
        raise ValueError("semigroup time must be nonnegative")
    R = C.conj().T @ C
    if gen.kind == "diagonal":
        E = np.exp(np.outer(ts, gen.eigenvalues))
        return R * (E.conj().T @ (np.asarray(ws)[:, None] * E))
    Ts = (evaluate_T(gen, t) for t in ts)
    return sum(w * (Tt.conj().T @ R @ Tt) for Tt, w in zip(Ts, ws))


def orbit_average(gen, t):
    """(1/t) int_0^t T(s) ds for t > 0, by `mode_integrals`, never forming
    the difference T(t) - I that cancels catastrophically for small t."""
    return mode_integrals(gen, [(0.0, 1)], t)[0] / t


def resolvent(gen, s):
    """(sI - A)^{-1}; exact entrywise for diagonal generators."""
    s = complex(s)
    if gen.kind == "diagonal":
        gaps = s - gen.eigenvalues
        if np.min(np.abs(gaps)) < 1e-14 * max(1.0, abs(s)):
            raise SingularMatrixError("resolvent evaluated at an eigenvalue")
        return np.diag(1.0 / gaps)
    n = gen.dimension
    return linear_solve(s * np.eye(n, dtype=complex) - gen.matrix,
                        np.eye(n, dtype=complex))


def example26(N):
    """Diagonal generator lambda_n = -n^2 (n = 1..N) with observation
    C = diag(n), the square root of -A."""
    if N < 1:
        raise ValueError("need N >= 1")
    n = np.arange(1, N + 1, dtype=float)
    return Generator.diagonal(-(n ** 2)), np.diag(n.astype(complex))


def _complex_gaussian(rng, n):
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) \
        / math.sqrt(2.0 * n)


def _dissipative_matrix(rng, n):
    """W - H with W skew-Hermitian and H Hermitian with spectrum in [2.5, 4],
    drawn from rng as G (for W) then B (for H = 2.5 I + 1.5 B^H B / norm)."""
    G = _complex_gaussian(rng, n)
    W = 0.5 * (G - G.conj().T)
    B = _complex_gaussian(rng, n)
    S = B.conj().T @ B
    s_norm = operator_norm(S)
    H = 2.5 * np.eye(n) + (1.5 / s_norm) * S if s_norm > 0 else 2.5 * np.eye(n)
    return W - H


def random_dissipative(n, seed):
    """A = W - H with W skew-Hermitian and H Hermitian with spectrum in
    [2.5, 4].  Then A + A^H = -2H < 0: dissipative with a wide margin, so
    every orbit decays fast enough for the reference discrete grids."""
    if n < 1:
        raise ValueError("need n >= 1")
    A = _dissipative_matrix(np.random.default_rng(seed), n)
    return Generator.dense(A)


def random_stable(n, seed):
    """Similarity transform of a dissipative sample by a well-conditioned
    V = I + 0.3 * (normalized Gaussian): stable but non-normal.  A seed
    that draws cond(V) > 100 raises StabilityError."""
    rng = np.random.default_rng(seed)
    A = _dissipative_matrix(rng, n)
    V = np.eye(n, dtype=complex) + 0.3 * _complex_gaussian(rng, n)
    V_inv = linear_solve(V, np.eye(n, dtype=complex))
    if operator_norm(V) * operator_norm(V_inv) > 100.0:
        raise StabilityError(
            f"random_stable: seed {seed} draws an ill-conditioned similarity")
    return Generator.dense(V @ A @ V_inv)


def semigroup_bounds(gen, eps):
    """A certified decay horizon: the first power of two h >= 1 with
    K e^{-rate h} <= eps, so ||T(t)|| <= eps for every t >= h.

    K and rate are the envelope ||T(t)|| <= K e^{-rate t} of the generator.
    A horizon past t = 1e6 signals a near-unstable input and raises
    StabilityError.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    t = math.log(gen.envelope_constant() / eps) / gen.decay_rate()
    if t > _HORIZON_LIMIT:
        raise StabilityError(f"decay horizon {t:.3g} exceeds t = 1e6")
    return 2.0 ** math.ceil(math.log2(max(1.0, t)))


def sup_T_norm(gen):
    """M = max ||T(t)|| over the grid {0, 0.01, ..., 1} (always >= 1), the
    sampled sup on the claimed side of the T0 and sqrt(t) bounds."""
    _, norms = norm_scan(gen, [np.eye(gen.dimension)],
                         np.linspace(0.0, 1.0, 101), 0)
    return float(np.max(norms))


# ---------------------------------------------------------------------------
# quadrature of semigroup integrals


def _doublings(gen, horizon, shift):
    """The least k with (||A||_2 + shift) horizon / 2^k <= 1.  On the start
    step h = horizon / 2^k the terms of `_start_series` then shrink like
    2^j/(j+1)!; the 2-norm, unlike the 1-norm, bounds both sides of the
    Gramian's A^H X + X A."""
    scale = horizon * (operator_norm(gen.matrix) + shift)
    return max(0, math.ceil(math.log2(scale)))


# once ||op|| h <= 2 the first omitted term is 2^30/31! ~ 1e-25 of h ||X||
_START_TERMS = 30


def _start_series(op, X, h):
    """int_0^h e^{u op} X du = sum_j h^{j+1}/(j+1)! op^j(X), summed to a
    fixed number of terms (Moler & Van Loan 2003, method 1)."""
    term = total = h * X
    for j in range(2, _START_TERMS + 1):
        term = op(term) * (h / j)
        total = total + term
    return total


def _step(gen, h):
    """(A, T(h), product): eigenvalue vectors multiplied elementwise when
    diagonal, else matrices multiplied by matmul."""
    if gen.kind == "diagonal":
        return gen.eigenvalues, np.exp(gen.eigenvalues * h), np.multiply
    return gen.matrix, mat_exp(gen.matrix, h), np.matmul


def mode_integrals(gen, modes, horizon):
    """J_p(horizon) for each (alpha, p) in modes, where J_p(h) =
    int_0^h T(u) u^{p-1} e^{-alpha u}/(p-1)! du: the start series of
    op(Y) = A Y + G Y (G on axis 0) on [0, h], from Y = first x I, then
    exact doublings J(2h) = J(h) + T(h) e^{hG} J(h) up to the horizon.

    The weights u^q e^{-alpha u}/q! of one alpha are a column of e^{uG} for
    the Jordan block G = -alpha I + (ones below the diagonal).  T(h) and J
    stay separate factors (Van Loan 1978): squaring one block exponential
    would lose eps/h relative accuracy in J_1(h), which is about h I."""
    rows = []
    for alpha, p in modes:
        rows += [(alpha, q) for q in range(p) if (alpha, q) not in rows]
    G = np.diag([-alpha for alpha, _ in rows])
    for i, (alpha, q) in enumerate(rows):
        if q:
            G[i, rows.index((alpha, q - 1))] = 1.0
    first = np.array([q == 0 for _, q in rows], dtype=float)
    k = _doublings(gen, horizon, np.max(np.abs(np.diag(G))))
    h = horizon / 2.0 ** k
    A, Th, mul = _step(gen, h)
    one = np.ones(A.size) if A.ndim == 1 else np.eye(len(A))

    def on_rows(M, Y):  # M acting on axis 0
        return (M @ Y.reshape(len(M), -1)).reshape(Y.shape)

    J = _start_series(lambda Y: mul(A, Y) + on_rows(G, Y),
                      np.multiply.outer(first, one), h)
    L = mat_exp(G, h)
    for _ in range(k):
        J = J + mul(Th, on_rows(L, J))
        Th, L = mul(Th, Th), L @ L
    J = J[[rows.index((alpha, p - 1)) for alpha, p in modes]]
    if gen.kind == "diagonal":
        J = J[..., None] * np.eye(J.shape[-1])
    return list(J)


def gramian(gen, C):
    """Q = int_0^H T(t)^H C^H C T(t) dt for H = semigroup_bounds(gen, 1e-12),
    so x^H Q x is the energy int_0^H ||C T(t) x||^2 dt of every state x:
    the start series of op(X) = A^H X + X A on [0, H / 2^k], then k exact
    doublings Q(2h) = Q(h) + T(h)^H Q(h) T(h) (Smith 1968)."""
    H = semigroup_bounds(gen, 1e-12)
    k = _doublings(gen, H, 0.0)
    h = H / 2.0 ** k
    A, Th, mul = _step(gen, h)
    AH = np.atleast_2d(A).conj().T  # a column of conjugates when diagonal
    Q = _start_series(lambda X: mul(AH, X) + mul(X, A), C.conj().T @ C, h)
    for _ in range(k):
        ThH = np.atleast_2d(Th).conj().T
        Q, Th = Q + mul(mul(ThH, Q), Th), mul(Th, Th)
    return Q
