"""Observability Gramians, admissibility constants, the sqrt(t) scan, and
the two extension limits of an observation operator C.

For a stable generator A and observation C, the Gramian
Q = int_0^inf T(t)^H C^H C T(t) dt solves A^H Q + Q A = -C^H C.  Its extreme
eigenvalues are the squared admissibility constant (lambda_max) and the
squared exact-observability constant (lambda_min).  `observability_gramian`
is the only source of these constants for the checks: gamma_A and the
Gramian of g(A) in T0, the constants of Theorem 3.3, the square-root
constants m1 = m2 of Theorem 3.4, the analytic lemma and eq. (26), and the
sqrt(t) bound.  Each Gramian it returns is cross-checked whole against the
doubling Gramian `semigroup.gramian`; a relative 2-norm disagreement beyond
1e-4 aborts with ArithmeticError rather than returning a silently wrong
constant.  The one Lyapunov solve outside it is the Gramian G of
Corollary 3.3(a), which is the measured side of the identity G = I rather
than a constant.  Verdicts on these numbers are made in `verifier`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numkernel import hermitian_eigs, operator_norm, solve_lyapunov
from .semigroup import gramian, norm_scan, orbit_average, resolvent

__all__ = [
    "ExtensionTrace",
    "GramianReport",
    "lambda_limit",
    "lebesgue_limit",
    "observability_gramian",
    "sqrt_minus_A",
    "sqrt_t_bound_scan",
]


@dataclass(frozen=True)
class GramianReport:
    Q: np.ndarray
    m_admissible: float
    m_exact: float
    residual: float
    quadrature_rel_error: float


def _observation_matrix(C, gen):
    """C as a complex matrix with gen.dimension columns and finite entries;
    every entry point checks its observation operator here."""
    M = np.asarray(C, dtype=complex)
    if M.ndim != 2 or M.shape[1] != gen.dimension:
        raise ValueError("observation operator shape does not match the "
                         "generator dimension")
    if not np.all(np.isfinite(M)):
        raise ValueError("observation operator contains non-finite entries")
    return M


def observability_gramian(gen, C):
    """Gramian by Lyapunov solve, with eigenvalue extraction and a mandatory
    cross-check against the doubling Gramian: their relative 2-norm
    difference bounds the relative error of m_admissible (Weyl)."""
    Cm = _observation_matrix(C, gen)
    A = gen.matrix
    R = Cm.conj().T @ Cm
    Q = solve_lyapunov(A, R)
    spec = hermitian_eigs(Q)
    residual = float(np.linalg.norm(A.conj().T @ Q + Q @ A + R))
    diff, scale = operator_norm(gramian(gen, Cm) - Q), operator_norm(Q)
    rel = diff / scale if scale else (np.inf if diff else 0.0)
    if rel > 1e-4:
        raise ArithmeticError(
            f"Gramian cross-check failed: quadrature disagrees by {rel:.3g} "
            "relative; the Lyapunov solution is not trustworthy here")
    return GramianReport(Q=Q, m_admissible=spec.lambda_max,
                         m_exact=spec.lambda_min, residual=residual,
                         quadrature_rel_error=rel)


def sqrt_t_bound_scan(gen, Xs, ts):
    """The sorted scanned times and the (len(Xs), m) array of
    sqrt(t) ||X T(t)|| at them, a row for each X in Xs; on diagonal input
    `norm_scan` adds the per-mode peak times.  The caller picks the sup
    and its time."""
    ts, norms = norm_scan(gen, [_observation_matrix(X, gen) for X in Xs], ts)
    return ts, np.sqrt(ts) * norms


def _require_real_diagonal(gen):
    if gen.kind != "diagonal":
        raise ValueError("requires a diagonal generator")
    lam = gen.eigenvalues
    if np.max(np.abs(lam.imag)) > 1e-12 * (1.0 + float(np.max(np.abs(lam)))):
        raise ValueError("requires a real spectrum")


def sqrt_minus_A(gen):
    """(-A)^{1/2}, the observation matrix of a diagonal generator with a
    real (negative) spectrum."""
    _require_real_diagonal(gen)
    return np.diag(np.sqrt(-gen.eigenvalues.real).astype(complex))


@dataclass(frozen=True)
class ExtensionTrace:
    """Operator iterates of an extension scheme: the final value, the
    per-step differences, and a divergence flag raised when they grow."""

    limit: np.ndarray
    iterates: list
    differences: list
    diverged: bool


def _finish_trace(iterates):
    diffs = [float(np.linalg.norm(b - a))
             for a, b in zip(iterates, iterates[1:])]
    limit = iterates[-1]
    scale = 1.0 + float(np.linalg.norm(limit))
    diverged = (len(diffs) >= 2 and diffs[-1] > max(diffs[:-1])
                and diffs[-1] > 1e-12 * scale)
    return ExtensionTrace(limit=limit, iterates=iterates,
                          differences=diffs, diverged=diverged)


def lebesgue_limit(gen, C, t_sequence):
    """Extension of C through averaged orbits C (1/t) int_0^t T(s) ds along
    a strictly decreasing positive sequence of times."""
    ts = [float(t) for t in t_sequence]
    if len(ts) < 2 or ts[0] <= 0 or any(b >= a or b <= 0
                                        for a, b in zip(ts, ts[1:])):
        raise ValueError("need a strictly decreasing positive time sequence")
    Cm = _observation_matrix(C, gen)
    return _finish_trace([Cm @ orbit_average(gen, t) for t in ts])


def lambda_limit(gen, C, lambda_sequence):
    """Extension of C through resolvent smoothing lambda C R(lambda) along
    a strictly increasing positive real sequence."""
    lams = [float(l) for l in lambda_sequence]
    if len(lams) < 2 or lams[0] <= 0 or any(b <= a for a, b in
                                            zip(lams, lams[1:])):
        raise ValueError("need a strictly increasing positive sequence")
    Cm = _observation_matrix(C, gen)
    return _finish_trace([lam * (Cm @ resolvent(gen, lam)) for lam in lams])
