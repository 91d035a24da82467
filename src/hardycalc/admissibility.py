"""Observability Gramians, admissibility constants, and the extension of
C to states outside its natural domain.

For a stable generator A and observation C, the Gramian
Q = int_0^inf T(t)^H C^H C T(t) dt solves A^H Q + Q A = -C^H C.  Its extreme
eigenvalues are the squared admissibility constant (lambda_max) and the
squared exact-observability constant (lambda_min).  `observability_gramian`
is the only source of these constants for the checks: gamma_A and the
Gramian of g(A) in T0, the constants of Theorem 3.3, the square-root
constants m1 = m2 of Theorem 3.4, the analytic lemma and eq. (26), and the
sqrt(t) bound.  Each Gramian it returns is cross-checked against a direct
Gauss-Legendre quadrature in time on five seeded states; disagreement
beyond 1e-4 relative aborts with ArithmeticError rather than returning a
silently wrong constant.  The one Lyapunov solve outside it is the
Gramian G of Corollary 3.3(a), which is the measured side of the identity
G = I rather than a constant.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .numkernel import hermitian_eigs, solve_lyapunov
from .report import finish_report
from .semigroup import (dyadic_edges, norm_scan, orbit_average, panel_doubling,
                        panel_rule, resolvent, semigroup_bounds, sup_T_norm)

__all__ = [
    "ExtensionTrace",
    "GramianReport",
    "ObservationOperator",
    "lambda_limit",
    "lebesgue_limit",
    "observability_gramian",
    "sqrt_minus_A",
    "sqrt_t_bound_scan",
]


@dataclass(frozen=True)
class ObservationOperator:
    matrix: np.ndarray

    def __post_init__(self):
        M = np.asarray(self.matrix, dtype=complex)
        if M.ndim != 2:
            raise ValueError("observation operator must be a matrix")
        if not np.all(np.isfinite(M)):
            raise ValueError("observation operator contains non-finite entries")
        object.__setattr__(self, "matrix", M)


@dataclass(frozen=True)
class GramianReport:
    Q: np.ndarray
    m_admissible: float
    m_exact: float
    residual: float
    quadrature_rel_error: float


def _observation_matrix(C, gen):
    M = np.asarray(getattr(C, "matrix", C), dtype=complex)
    if M.ndim != 2 or M.shape[1] != gen.dimension:
        raise ValueError("observation operator shape does not match the "
                         "generator dimension")
    return M


def _gramian_quadrature(gen, Cm, xs):
    """Direct quadrature of int ||C T(t) x||^2 dt for each state in xs, on
    dyadic panels when diagonal and on doubled equal panels when dense."""
    horizon = semigroup_bounds(gen, 1e-12)
    if gen.kind == "diagonal":
        nodes, w = panel_rule(dyadic_edges(horizon))
        E = np.exp(np.outer(nodes, gen.eigenvalues))
        return np.array([w @ np.sum(np.abs((E * x) @ Cm.T) ** 2, axis=1)
                         for x in xs])
    X = np.stack(xs, axis=1)

    def energies(u, w, Tu):
        return list(w @ np.sum(np.abs(Cm @ (Tu @ X)) ** 2, axis=1))

    return np.array(panel_doubling(gen, horizon, energies)[0])


def observability_gramian(gen, C):
    """Gramian by Lyapunov solve, with eigenvalue extraction and a mandatory
    time-domain cross-check on five seeded random states."""
    Cm = _observation_matrix(C, gen)
    A = gen.matrix
    R = Cm.conj().T @ Cm
    Q = solve_lyapunov(A, R)
    spec = hermitian_eigs(Q)
    residual = float(np.linalg.norm(A.conj().T @ Q + Q @ A + R))
    rng = np.random.default_rng(0)
    xs = []
    for _ in range(5):
        v = rng.standard_normal(gen.dimension) + 1j * rng.standard_normal(gen.dimension)
        xs.append(v / np.linalg.norm(v))
    refs = np.array([float((x.conj() @ Q @ x).real) for x in xs])
    quads = _gramian_quadrature(gen, Cm, xs)
    rel = float(np.max(np.abs(quads - refs) / np.maximum(np.abs(refs), 1e-30)))
    if rel > 1e-4:
        raise ArithmeticError(
            f"Gramian cross-check failed: quadrature disagrees by {rel:.3g} "
            "relative; the Lyapunov solution is not trustworthy here")
    return GramianReport(Q=Q, m_admissible=spec.lambda_max,
                         m_exact=spec.lambda_min, residual=residual,
                         quadrature_rel_error=rel)


def sqrt_t_bound_scan(gen, C, t_min, t_max, extra_points=()):
    """Scan sup sqrt(t) ||C T(t)|| by `norm_scan` over a log grid plus any
    caller-supplied witnesses and compare it with the admissibility bound
    sqrt(lambda_max(Q)) * M."""
    started = time.perf_counter()
    if not (0 < t_min < t_max):
        raise ValueError("need 0 < t_min < t_max")
    Cm = _observation_matrix(C, gen)
    gram = observability_gramian(gen, C)
    M = sup_T_norm(gen)
    ts = np.concatenate([np.geomspace(t_min, t_max, 200),
                         np.asarray(extra_points, dtype=float)])
    ts, norms = norm_scan(gen, [Cm], ts)
    vals = np.sqrt(ts) * norms[0]
    k = int(np.argmax(vals))
    measured, t_best = float(vals[k]), float(ts[k])
    claimed = math.sqrt(max(gram.m_admissible, 0.0)) * M
    report = finish_report(
        "sqrt_t_bound", claimed, measured, f"t={t_best:.6g}", 1e-6, started,
        {"m_admissible": gram.m_admissible, "sup_T_norm": M,
         "t_at_sup": t_best})
    return measured, report


def _require_real_diagonal(gen):
    if gen.kind != "diagonal":
        raise ValueError("requires a diagonal generator")
    lam = gen.eigenvalues
    if np.max(np.abs(lam.imag)) > 1e-12 * (1.0 + float(np.max(np.abs(lam)))):
        raise ValueError("requires a real spectrum")


def sqrt_minus_A(gen):
    """(-A)^{1/2} as an observation operator of a diagonal generator with a
    real (negative) spectrum."""
    _require_real_diagonal(gen)
    return ObservationOperator(
        np.diag(np.sqrt(-gen.eigenvalues.real).astype(complex)))


@dataclass(frozen=True)
class ExtensionTrace:
    """Iterates of an extension scheme: the final value, the per-step
    differences, and a divergence flag raised when the differences grow."""

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


def lebesgue_limit(gen, C, x, t_sequence):
    """Extension of Cx through averaged orbits C (1/t) int_0^t T(s) x ds
    along a strictly decreasing positive sequence of times."""
    ts = [float(t) for t in t_sequence]
    if len(ts) < 2 or ts[0] <= 0 or any(b >= a or b <= 0
                                        for a, b in zip(ts, ts[1:])):
        raise ValueError("need a strictly decreasing positive time sequence")
    Cm = _observation_matrix(C, gen)
    x = np.asarray(x, dtype=complex)
    return _finish_trace([Cm @ orbit_average(gen, t, x) for t in ts])


def lambda_limit(gen, C, x, lambda_sequence):
    """Extension of Cx through resolvent smoothing lambda C R(lambda) x
    along a strictly increasing positive real sequence."""
    lams = [float(l) for l in lambda_sequence]
    if len(lams) < 2 or lams[0] <= 0 or any(b <= a for a, b in
                                            zip(lams, lams[1:])):
        raise ValueError("need a strictly increasing positive sequence")
    Cm = _observation_matrix(C, gen)
    x = np.asarray(x, dtype=complex)
    iterates = [lam * (Cm @ (resolvent(gen, lam) @ x)) for lam in lams]
    return _finish_trace(iterates)
