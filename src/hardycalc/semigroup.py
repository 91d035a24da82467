"""Generators A and their semigroups T(t) = e^{At}, with machine-checkable
exponential-stability certificates.

Two generator kinds are supported: Diagonal (eigenvalues known by
construction, semigroup evaluated exactly) and Dense (stability certified by
a Lyapunov witness before any use).  Samplers produce seeded dissipative and
similarity-transformed stable test matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numkernel import (
    SingularMatrixError,
    hermitian_eigs,
    linear_solve,
    mat_exp,
    operator_norm,
    solve_lyapunov,
)

__all__ = [
    "Generator",
    "SemigroupBounds",
    "StabilityCertificate",
    "StabilityError",
    "certify_stable",
    "evaluate_T",
    "example26",
    "generator_from_json",
    "generator_to_json",
    "random_dissipative",
    "random_stable",
    "resolvent",
    "semigroup_bounds",
]


class StabilityError(ValueError):
    """The input matrix does not generate an exponentially stable semigroup."""


@dataclass(frozen=True)
class StabilityCertificate:
    """Lyapunov witness: A^H P + P A = -I with P Hermitian positive definite.

    margin is the smallest eigenvalue of the recovered right-hand side
    -(A^H P + P A); residual measures how far that witness is from I.
    """

    P: np.ndarray
    margin: float
    residual: float

    @property
    def decay_rate(self):
        """Certified exponential decay rate: ||T(t)|| decays at least like
        e^{-margin t / (2 lambda_max(P))}."""
        lam_max = hermitian_eigs(self.P).lambda_max
        return self.margin / (2.0 * lam_max)


@dataclass(frozen=True)
class SemigroupBounds:
    """M = sup of ||T(t)|| over the sampling grid on [0, 1] (always >= 1);
    decay_horizon = a time t* with ||T(t*)|| below the requested epsilon."""

    M: float
    decay_horizon: float


@dataclass(frozen=True)
class Generator:
    """A finite-dimensional semigroup generator.

    kind is "diagonal" (eigenvalues carried explicitly, all with negative
    real part) or "dense" (full matrix plus a stability certificate).
    """

    kind: str
    matrix: np.ndarray
    eigenvalues: np.ndarray | None = None
    certificate: StabilityCertificate | None = None
    seed: int | None = None

    @property
    def dimension(self):
        return self.matrix.shape[0]

    @staticmethod
    def diagonal(eigenvalues, seed=None):
        lam = np.atleast_1d(np.asarray(eigenvalues, dtype=complex))
        if lam.ndim != 1 or lam.size == 0:
            raise ValueError("diagonal generator needs a nonempty eigenvalue list")
        if np.any(lam.real >= 0):
            raise StabilityError("diagonal generator requires Re(lambda) < 0")
        return Generator(kind="diagonal", matrix=np.diag(lam),
                         eigenvalues=lam, seed=seed)

    @staticmethod
    def dense(matrix, seed=None):
        A = np.asarray(matrix, dtype=complex)
        cert = certify_stable(A)
        return Generator(kind="dense", matrix=A, certificate=cert, seed=seed)

    def decay_rate(self):
        """Certified lower bound on the exponential decay rate of ||T(t)||."""
        if self.kind == "diagonal":
            return float(np.min(-self.eigenvalues.real))
        return self.certificate.decay_rate


def certify_stable(A):
    """Solve A^H P + P A = -I and verify P > 0 by Cholesky."""
    A = np.asarray(A, dtype=complex)
    eye = np.eye(A.shape[0], dtype=complex)
    try:
        P = solve_lyapunov(A, eye)
    except (SingularMatrixError, ArithmeticError) as exc:
        raise StabilityError("not exponentially stable: Lyapunov witness "
                             "unavailable") from exc
    try:
        np.linalg.cholesky(P)
    except np.linalg.LinAlgError as exc:
        raise StabilityError("not exponentially stable: Lyapunov witness "
                             "not positive definite") from exc
    witness = -(A.conj().T @ P + P @ A)
    residual = float(np.linalg.norm(witness - eye))
    if residual > 1e-9:
        raise StabilityError(f"certificate residual {residual:.3g} too large")
    margin = hermitian_eigs(witness).lambda_min
    return StabilityCertificate(P=P, margin=margin, residual=residual)


def evaluate_T(gen, t):
    """T(t): exact eigenvalue exponentials for diagonal, Pade for dense."""
    if t < 0:
        raise ValueError("semigroup time must be nonnegative")
    if gen.kind == "diagonal":
        return np.diag(np.exp(gen.eigenvalues * t))
    return mat_exp(gen.matrix, t)


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
    gen = Generator.diagonal(-(n ** 2))
    from .admissibility import ObservationOperator

    return gen, ObservationOperator(np.diag(n.astype(complex)))


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
    return Generator.dense(A, seed=seed)


def random_stable(n, seed):
    """Similarity transform of a dissipative sample by a well-conditioned
    V = I + 0.3 * (normalized Gaussian): stable but non-normal.  Certification
    failures re-sample with an incremented seed (at most 5 attempts)."""
    last_error = None
    for attempt in range(5):
        s = seed + attempt
        rng = np.random.default_rng(s)
        A = _dissipative_matrix(rng, n)
        V = np.eye(n, dtype=complex) + 0.3 * _complex_gaussian(rng, n)
        try:
            V_inv = linear_solve(V, np.eye(n, dtype=complex))
            if operator_norm(V) * operator_norm(V_inv) > 100.0:
                raise StabilityError("similarity transform too ill-conditioned")
            return Generator.dense(V @ A @ V_inv, seed=s)
        except (StabilityError, SingularMatrixError) as exc:
            last_error = exc
    raise StabilityError("random_stable: certification failed after 5 attempts") \
        from last_error


_HORIZON_LIMIT = 1e6


def semigroup_bounds(gen, eps):
    """M over the grid {0, 0.01, ..., 1} plus a certified decay horizon.

    The horizon is found by doubling t until ||T(t)|| <= eps and then
    bisecting the bracket, so it tracks -log(eps)/decay_rate rather than a
    power of two.  A search past t = 1e6 signals a near-unstable input.

    Results are memoized on the (immutable) generator, keyed by eps.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    memo = getattr(gen, "_bounds_memo", None)
    if memo is None:
        memo = {}
        object.__setattr__(gen, "_bounds_memo", memo)
    key = float(eps)
    if key not in memo:
        memo[key] = _compute_bounds(gen, eps)
    return memo[key]


def _compute_bounds(gen, eps):
    norms = [operator_norm(evaluate_T(gen, t)) for t in np.linspace(0.0, 1.0, 101)]
    M = max(norms)

    def norm_at(t):
        return operator_norm(evaluate_T(gen, t))

    lo, hi = 0.0, 1.0
    while norm_at(hi) > eps:
        lo = hi
        hi *= 2.0
        if hi > _HORIZON_LIMIT:
            raise StabilityError("decay horizon search exceeded t = 1e6")
    for _ in range(60):
        if hi - lo <= 1e-2 * hi:
            break
        mid = 0.5 * (lo + hi)
        if norm_at(mid) <= eps:
            hi = mid
        else:
            lo = mid
    return SemigroupBounds(M=M, decay_horizon=hi)


# ---------------------------------------------------------------------------
# serialization


def _complex_pairs(values):
    flat = np.asarray(values, dtype=complex).reshape(-1)
    return [[float(z.real), float(z.imag)] for z in flat]


def generator_to_json(gen):
    doc = {"kind": gen.kind, "dimension": gen.dimension, "seed": gen.seed}
    if gen.kind == "diagonal":
        doc["eigenvalues"] = _complex_pairs(gen.eigenvalues)
    else:
        doc["matrix"] = _complex_pairs(gen.matrix)  # row-major re/im pairs
    return doc


def generator_from_json(doc):
    kind = doc["kind"]
    if kind == "diagonal":
        lam = np.array([complex(re, im) for re, im in doc["eigenvalues"]])
        return Generator.diagonal(lam, seed=doc.get("seed"))
    if kind == "dense":
        n = int(doc["dimension"])
        flat = np.array([complex(re, im) for re, im in doc["matrix"]])
        return Generator.dense(flat.reshape(n, n), seed=doc.get("seed"))
    raise ValueError(f"unknown generator kind {kind!r}")
