"""Generators A and their semigroups T(t) = e^{At}, with machine-checkable
exponential-stability certificates.

Two generator kinds are supported: Diagonal (eigenvalues known by
construction, semigroup evaluated exactly) and Dense (stability certified by
a Lyapunov witness before any use).  Other modules reach T(t) only through
`evaluate_T`, `norm_scan`, `orbit_average`, `panel_doubling` and the
certificate's decay envelope, and test the kind only to guard an input or
to pick a quadrature rule or its result's shape.  Samplers produce seeded
dissipative and similarity-transformed stable test matrices.  All semigroup
integrals use the composite Gauss-Legendre panel rule defined here.

Two results are memoized on the (immutable) generator, each computed on
first use: the sampled sup of ||T(t)|| on [0, 1] (`sup_T_norm`, read only by
the checks that claim with it) and, for a dense generator, the 17 matrices
T(x_k h) and T(h) of each panel step h (`_panel_samples`).
"""

from __future__ import annotations

import functools
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
    "dyadic_edges",
    "evaluate_T",
    "example26",
    "generator_from_json",
    "generator_to_json",
    "norm_scan",
    "orbit_average",
    "panel_doubling",
    "panel_rule",
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
    P.  residual measures how far -(A^H P + P A) is from the I a dense
    generator solves for (0 for the diagonal witness P = I).
    """

    P: np.ndarray
    margin: float
    residual: float
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
        # P = I: -(A^H + A) = diag(-2 Re lambda) >= 2 min(-Re lambda) I
        cert = StabilityCertificate(P=np.eye(lam.size),
                                    margin=2.0 * float(np.min(-lam.real)),
                                    residual=0.0, p_min=1.0, p_max=1.0)
        return Generator(kind="diagonal", matrix=np.diag(lam),
                         eigenvalues=lam, certificate=cert, seed=seed)

    @staticmethod
    def dense(matrix, seed=None):
        A = np.asarray(matrix, dtype=complex)
        cert = certify_stable(A)
        return Generator(kind="dense", matrix=A, certificate=cert, seed=seed)

    def decay_rate(self):
        """Certified lower bound on the exponential decay rate of ||T(t)||:
        margin / (2 lambda_max(P)) for the certificate's witness P."""
        cert = self.certificate
        return cert.margin / (2.0 * cert.p_max)

    def envelope_constant(self):
        """K with ||T(t)|| <= K e^{-decay_rate() t}:
        sqrt(lambda_max(P)/lambda_min(P)), as x^H P x decays at least like
        e^{-2 decay_rate t} along every orbit (1 when diagonal)."""
        cert = self.certificate
        return math.sqrt(cert.p_max / cert.p_min)


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
    spec = hermitian_eigs(P)
    return StabilityCertificate(P=P, margin=margin, residual=residual,
                                p_min=spec.lambda_min, p_max=spec.lambda_max)


def evaluate_T(gen, t):
    """T(t): exact eigenvalue exponentials for diagonal, Pade for dense."""
    if t < 0:
        raise ValueError("semigroup time must be nonnegative")
    if gen.kind == "diagonal":
        return np.diag(np.exp(gen.eigenvalues * t))
    return mat_exp(gen.matrix, t)


def norm_scan(gen, Xs, ts):
    """The sorted unique scanned times and the (len(Xs), m) array of
    ||X T(t)|| for every matrix X in Xs.

    A diagonal generator adds the peak times -1/(2 Re lambda_k) of
    sqrt(t) e^{Re lambda_k t} inside the grid's range; when every X is
    diagonal too, the norms are max_k |X_kk| e^{Re lambda_k t}, exact and
    vectorized.  Otherwise each T(t) is evaluated once for every X."""
    ts = np.asarray(ts, dtype=float)
    if np.any(ts < 0):
        raise ValueError("semigroup time must be nonnegative")
    if gen.kind == "diagonal":
        lam = gen.eigenvalues.real
        peaks = -1.0 / (2.0 * lam)
        ts = np.unique(np.concatenate(
            [ts, peaks[(peaks >= ts.min()) & (peaks <= ts.max())]]))
        if all(np.array_equal(X, np.diag(np.diagonal(X))) for X in Xs):
            decay = np.exp(np.outer(ts, lam))
            return ts, np.array([np.max(np.abs(np.diagonal(X)) * decay,
                                        axis=1) for X in Xs])
    ts = np.unique(ts)
    norms = np.empty((len(Xs), ts.size))
    for j, t in enumerate(ts):
        Tt = evaluate_T(gen, t)
        norms[:, j] = [operator_norm(X @ Tt) for X in Xs]
    return ts, norms


def _phi1(z):
    """(e^z - 1)/z, series-protected near zero."""
    z = np.asarray(z, dtype=complex)
    small = np.abs(z) < 1e-4
    safe = np.where(small, 1.0, z)
    return np.where(small, 1.0 + z / 2.0 + z * z / 6.0 + z ** 3 / 24.0,
                    (np.exp(safe) - 1.0) / safe)


def orbit_average(gen, t, x):
    """(1/t) int_0^t T(s) x ds for t > 0: (e^{lambda t} - 1)/(lambda t) per
    mode when diagonal, else from the top-right block int_0^t T(s) ds of
    exp([[A, I], [0, 0]] t) (Van Loan 1978), never forming the difference
    T(t) - I that cancels catastrophically for small t."""
    if gen.kind == "diagonal":
        return _phi1(gen.eigenvalues * t) * x
    N = gen.dimension
    Z = np.zeros((N, N))
    block = np.block([[gen.matrix, np.eye(N)], [Z, Z]])
    return mat_exp(block, t)[:N, N:] @ x / t


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


def _memo(gen, name):
    """The dict stored on the frozen generator under `name`, created on
    first use."""
    memo = getattr(gen, name, None)
    if memo is None:
        memo = {}
        object.__setattr__(gen, name, memo)
    return memo


def semigroup_bounds(gen, eps):
    """A certified decay horizon: the first power of two h >= 1 with
    K e^{-rate h} <= eps, so ||T(t)|| <= eps for every t >= h.

    K and rate are the envelope ||T(t)|| <= K e^{-rate t} of the generator.
    Powers of two put every equal-panel integral on one ladder of steps,
    the one the convolution route doubles along.  A horizon past t = 1e6
    signals a near-unstable input and raises StabilityError.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    t = math.log(gen.envelope_constant() / eps) / gen.decay_rate()
    if t > _HORIZON_LIMIT:
        raise StabilityError(f"decay horizon {t:.3g} exceeds t = 1e6")
    return 2.0 ** math.ceil(math.log2(max(1.0, t)))


def sup_T_norm(gen):
    """M = max ||T(t)|| over the grid {0, 0.01, ..., 1} (always >= 1), the
    sampled sup on the claimed side of the T0 and sqrt(t) bounds.

    Computed once per generator, on first use."""
    M = getattr(gen, "_sup_T", None)
    if M is None:
        _, norms = norm_scan(gen, [np.eye(gen.dimension)],
                             np.linspace(0.0, 1.0, 101))
        M = float(np.max(norms))
        object.__setattr__(gen, "_sup_T", M)
    return M


# ---------------------------------------------------------------------------
# quadrature of semigroup integrals

_GL_MAX_DOUBLINGS = 10


@functools.cache
def _gauss_legendre():
    """16-point Gauss-Legendre nodes and weights on [0, 1].  Built on first
    use, so importing the package does not load numpy.polynomial."""
    x, w = np.polynomial.legendre.leggauss(16)
    return (x + 1.0) / 2.0, w / 2.0


def panel_rule(edges):
    """Nodes and weights of the composite 16-point Gauss-Legendre rule on
    the panels [edges[i], edges[i+1]]."""
    x, w = _gauss_legendre()
    h = np.diff(edges)[:, None]
    return (edges[:-1, None] + h * x).ravel(), (h * w).ravel()


def dyadic_edges(horizon):
    """Edges 0, T/2^60, T/2^59, ..., T/2, T: 61 panels refined towards 0."""
    return horizon * np.concatenate([[0.0], 2.0 ** np.arange(-60, 1)])


def _power_chain(Th, count):
    """[I, Th, Th^2, ..., Th^{count-1}] built by block doubling."""
    N = Th.shape[0]
    mats = np.empty((count, N, N), dtype=complex)
    mats[0] = np.eye(N)
    if count > 1:
        mats[1] = Th
    m = 1
    while m < count - 1:
        k = min(m, count - 1 - m)
        mats[m + 1:m + k + 1] = np.matmul(mats[1:k + 1], mats[m])
        m += k
    return mats


def _panel_samples(gen, horizon, panels):
    """Nodes u, weights w and T(u) for `panels` equal panels on [0, horizon]:
    (m, N) eigenvalue exponentials when diagonal, else the (m, N, N) stack
    T(j h) T(x_k h) from a power chain of T(h) and 16 local matrices.

    The 16 local matrices and T(h) depend only on the step h, so they are
    memoized on the generator per h; the stack itself is rebuilt on every
    call, as holding it would cost 16 * panels matrices per entry."""
    u, w = panel_rule(np.linspace(0.0, horizon, panels + 1))
    if gen.kind == "diagonal":
        return u, w, np.exp(np.outer(u, gen.eigenvalues))
    h = horizon / panels
    memo = _memo(gen, "_step_memo")
    if h not in memo:
        memo[h] = (np.stack([evaluate_T(gen, x * h)
                             for x in _gauss_legendre()[0]]),
                   evaluate_T(gen, h))
    local, Th = memo[h]
    starts = _power_chain(Th, panels)
    return u, w, np.matmul(starts[:, None], local).reshape(-1, *Th.shape)


def panel_doubling(gen, horizon, integrate):
    """integrate(*_panel_samples(...)), a list of integrals over [0, horizon],
    on 4, 8, 16, ... panels until every value moves by less than 1e-8;
    returns the finer values and the norms of their changes."""
    panels = 4
    prev = integrate(*_panel_samples(gen, horizon, panels))
    for _ in range(_GL_MAX_DOUBLINGS):
        panels *= 2
        values = integrate(*_panel_samples(gen, horizon, panels))
        changes = [float(np.linalg.norm(v - q)) for v, q in zip(values, prev)]
        if max(changes) < 1e-8:
            return values, changes
        prev = values
    raise ConvergenceError("panel quadrature did not converge in "
                           f"{_GL_MAX_DOUBLINGS} panel doublings")


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
