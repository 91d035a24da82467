"""Named numerical checks, one per verified inequality or identity.

Every check returns a CheckReport whose verdict is
measured <= claimed*(1+tol) + tol.  Checks that bundle several
sub-assertions fold them in as budget fractions (residual divided by its
own threshold), so a single measured value still decides the verdict while
the raw residuals stay visible in the details dict.

Checks on symbols accept either a single symbol or a sequence, and treat a
single symbol as a battery of one: the report's claimed bound is 1, its
measured value the worst ratio to the symbol's own bound, and its witness
the maximizing symbol.

Every Gramian constant comes from `admissibility.observability_gramian`,
which cross-checks the Lyapunov solution by quadrature; only
`check_cor33a` solves a Lyapunov equation itself, because its Gramian is
the measured side of the identity G = I.
"""

from __future__ import annotations

import functools
import math
import time

import numpy as np

from .admissibility import (_require_real_diagonal, observability_gramian,
                            sqrt_minus_A)
from .calculus import _gA_exact, gA_convolution
from .numkernel import hermitian_eigs, operator_norm, solve_lyapunov
from .report import finish_report
from .semigroup import (dyadic_edges, norm_scan, panel_rule, resolvent,
                        semigroup_bounds, sup_T_norm)
from .symbols import eval_at, hinf_norm, to_text

__all__ = [
    "check_T0",
    "check_analytic_lemma",
    "check_cor33a",
    "check_eq21",
    "check_eq26",
    "check_square_function",
    "check_thm33",
    "check_thm34",
]


def _symbol_list(g):
    if isinstance(g, (list, tuple)):
        if not g:
            raise ValueError("empty symbol list")
        return list(g)
    return [g]


@functools.lru_cache(maxsize=512)
def _hinf(g):
    return hinf_norm(g)


def check_T0(gen, g, t_grid=None):
    """Square-root-of-t bounds: lambda_max(Q_g) <= gamma_A ||g||^2 for the
    Gramian of (g(A), A), and sqrt(t)||g(A)T(t)|| <= sup_[0,1]||T|| * ||g||
    scanned over (0, 1].  Measured is the worst of the two slacks."""
    started = time.perf_counter()
    syms = _symbol_list(g)
    gamma_A = observability_gramian(gen, np.eye(gen.dimension)).m_admissible
    M01 = sup_T_norm(gen)
    if t_grid is None:
        t_grid = np.geomspace(1e-4, 1.0, 120)
    gas = [_gA_exact(gen, g_k).matrix for g_k in syms]
    ts, norms = norm_scan(gen, gas, t_grid)
    root_t = np.sqrt(ts)
    measured = -math.inf
    witness = ""
    per_symbol = {}
    for g_k, ga, row in zip(syms, gas, norms):
        h = _hinf(g_k)
        r_gram = observability_gramian(gen, ga).m_admissible / (gamma_A * h * h)
        vals = root_t * row / (M01 * h)
        k_best = int(np.argmax(vals))
        r_scan, t_best = float(vals[k_best]), float(ts[k_best])
        slack = max(r_gram, r_scan)
        per_symbol[to_text(g_k)] = slack
        if slack > measured:
            measured = slack
            which = "gramian" if r_gram >= r_scan else f"scan t={t_best:.4g}"
            witness = f"{to_text(g_k)} ({which})"
    details = {"gamma_A": gamma_A, "sup_T_01": M01,
               "per_symbol_slack": per_symbol}
    return finish_report("T0", 1.0, measured, witness, 1e-4, started, details)


def check_eq21(gen, g, s_samples=None):
    """Resolvent smoothing: sqrt(Re s)||g(A)(sI-A)^{-1}|| <= ||g|| over a
    right-half-plane sample grid."""
    started = time.perf_counter()
    syms = _symbol_list(g)
    if s_samples is None:
        s_samples = [complex(re, im) for re in (0.1, 1.0, 10.0)
                     for im in (0.0, 1.0, -1.0, 10.0, -10.0)]
    s_samples = [complex(s) for s in s_samples]
    if any(s.real <= 0 for s in s_samples):
        raise ValueError("samples must have positive real part")
    measured = -math.inf
    witness = ""
    for g_k in syms:
        h = _hinf(g_k)
        ga = _gA_exact(gen, g_k).matrix
        for s in s_samples:
            v = operator_norm(ga @ resolvent(gen, s))
            ratio = math.sqrt(s.real) * v / h
            if ratio > measured:
                measured = ratio
                witness = f"{to_text(g_k)} at s={s:.3g}"
    details = {"n_samples": len(s_samples)}
    return finish_report("eq21", 1.0, measured, witness, 1e-6, started, details)


def check_thm33(gen, C, g):
    """||g(A)|| (convolution route) against sqrt(m_admissible/m_exact)||g||
    for a commuting, exactly observable C."""
    started = time.perf_counter()
    syms = _symbol_list(g)
    gram = observability_gramian(gen, C)
    if gram.m_exact <= 0:
        raise ValueError("exact observability required: m_exact <= 0")
    factor = math.sqrt(gram.m_admissible / gram.m_exact)
    measured = -math.inf
    witness = ""
    for g_k in syms:
        norm_ga = operator_norm(gA_convolution(gen, g_k).matrix)
        ratio = norm_ga / (factor * _hinf(g_k))
        if ratio > measured:
            measured = ratio
            witness = to_text(g_k)
    details = {"m_admissible": gram.m_admissible, "m_exact": gram.m_exact,
               "bound_factor": factor}
    return finish_report("thm33", 1.0, measured, witness, 1e-6, started,
                         details)


def check_cor33a(gen, g):
    """Von Neumann inequality for dissipative generators through the
    explicit construction Q = -(A^{-1} + A^{-H}), C = sqrt(Q) A.

    Verifies the Gramian of (C, A) is the identity (budget 1e-8), the
    pairing identity C^H C = -(A + A^H) (budget 1e-9), and then
    ||g(A)|| <= ||g||; measured is the worst budget fraction."""
    started = time.perf_counter()
    syms = _symbol_list(g)
    A = gen.matrix
    N = gen.dimension
    Ainv = -resolvent(gen, 0.0)
    Q = -(Ainv + Ainv.conj().T)
    spec_q = hermitian_eigs(Q)
    if spec_q.lambda_min < -1e-12 * max(1.0, spec_q.lambda_max):
        raise ValueError("Q = -(A^{-1} + A^{-H}) is not positive "
                         "semidefinite: generator is not dissipative")
    root = np.sqrt(np.clip(spec_q.eigenvalues, 0.0, None)).astype(complex)
    Cmat = (spec_q.vectors @ np.diag(root) @ spec_q.vectors.conj().T) @ A
    R = Cmat.conj().T @ Cmat
    G = solve_lyapunov(A, R)
    r_gram = float(np.linalg.norm(G - np.eye(N)))
    r_pair = float(np.linalg.norm(R + A + A.conj().T))
    worst_ratio = -math.inf
    witness = ""
    for g_k in syms:
        ratio = operator_norm(_gA_exact(gen, g_k).matrix) / _hinf(g_k)
        if ratio > worst_ratio:
            worst_ratio = ratio
            witness = to_text(g_k)
    measured = max(worst_ratio, r_gram / 1e-8, r_pair / 1e-9)
    details = {"gramian_identity_residual": r_gram,
               "pairing_identity_residual": r_pair,
               "von_neumann_ratio": worst_ratio}
    return finish_report("cor33a", 1.0, measured, witness, 1e-6, started,
                         details)


def _sqrt_gramian(gen):
    """The Gramian report of (-A)^{1/2} and m = sqrt(2 lambda_max Q), its
    admissibility constant in the halved-time normalization
    int ||C T(tau/2) x||^2 dtau = 2 x^H Q x.  A diagonal generator with a
    real spectrum is self-adjoint, so m is both m1 (adjoint) and m2."""
    gram = observability_gramian(gen, sqrt_minus_A(gen))
    return gram, math.sqrt(2.0 * gram.m_admissible)


def check_thm34(gen, g, t_probe=1.0):
    """||g(A)|| <= m1 m2 ||g|| + ||g(A) T(t_probe)|| on real-spectrum
    diagonal generators, with m1, m2 the square-root admissibility
    constants of the adjoint and forward semigroups."""
    _require_real_diagonal(gen)
    started = time.perf_counter()
    syms = _symbol_list(g)
    if t_probe <= 0:
        raise ValueError("t_probe must be positive")
    m1 = m2 = _sqrt_gramian(gen)[1]
    lam = gen.eigenvalues
    measured = -math.inf
    witness = ""
    for g_k in syms:
        d = eval_at(g_k, lam)
        norm_ga = float(np.max(np.abs(d)))
        probe = float(np.max(np.abs(d) * np.exp(lam.real * t_probe)))
        ratio = norm_ga / (m1 * m2 * _hinf(g_k) + probe)
        if ratio > measured:
            measured = ratio
            witness = to_text(g_k)
    details = {"m1": m1, "m2": m2, "t_probe": float(t_probe)}
    return finish_report("thm34", 1.0, measured, witness, 1e-6, started,
                         details)


def check_analytic_lemma(gen):
    """sup_t t||A T(t)|| <= m1 m2; the scan grid contains the exact
    per-mode peak times 1/|lambda_n|, where the mode value is 1/e."""
    _require_real_diagonal(gen)
    started = time.perf_counter()
    lam = gen.eigenvalues.real
    ts = np.unique(np.concatenate([np.geomspace(1e-6, 10.0, 300), -1.0 / lam]))
    vals = ts * np.max(np.abs(lam)[None, :] * np.exp(np.outer(ts, lam)), axis=1)
    k = int(np.argmax(vals))
    measured = float(vals[k])
    m1 = m2 = _sqrt_gramian(gen)[1]
    details = {"analytic_sup": measured, "t_at_sup": float(ts[k]),
               "e_inverse_reference": math.exp(-1.0), "m1": m1, "m2": m2}
    return finish_report("analytic_lemma", m1 * m2, measured,
                         f"t={ts[k]:.6g}", 1e-6, started, details)


def check_eq26(gen):
    """Exact observability of (-A)^{1/2} in the halved-time normalization:
    ||x||^2 <= m1^2 * int ||C T(tau/2) x||^2 dtau, the integral computed
    both from the Gramian and by direct quadrature."""
    _require_real_diagonal(gen)
    started = time.perf_counter()
    gram, m1 = _sqrt_gramian(gen)
    Q = gram.Q
    scaled_exact = 2.0 * gram.m_exact
    if scaled_exact <= 0:
        raise ValueError("(-A)^{1/2} is not exactly observable here")
    N = gen.dimension
    lam = gen.eigenvalues.real
    rng = np.random.default_rng(1)
    states = [np.eye(N)[0].astype(complex), np.eye(N)[-1].astype(complex)]
    for _ in range(3):
        v = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        states.append(v / np.linalg.norm(v))
    ratios = []
    for x in states:
        q = 2.0 * float((x.conj() @ Q @ x).real)
        ratios.append(float(np.vdot(x, x).real) / (m1 * m1 * q))
    # direct tau-quadrature of the halved-time energy for two states
    horizon = semigroup_bounds(gen, 1e-12)
    nodes, w = panel_rule(dyadic_edges(2.0 * horizon))
    quad_fracs = []
    for x in states[:2]:
        dens = (-lam) * np.abs(x) ** 2
        val = float(w @ (np.exp(np.outer(nodes, lam)) @ dens))
        q = 2.0 * float((x.conj() @ Q @ x).real)
        quad_fracs.append(abs(val - q) / q / 1e-6)
    measured = max(max(ratios), max(quad_fracs))
    details = {"exact_observability_scaled": scaled_exact, "m1": m1,
               "tau_quadrature_budget_fraction": max(quad_fracs),
               "zero_state": "0 <= 0 trivially"}
    return finish_report("eq26", 1.0, measured, "unit states + quadrature",
                         1e-6, started, details)


def check_square_function(gen):
    """Change-of-measure identity
    int ||(-tA)^{1/2} T(t) x||^2 dt/t = int ||(-A)^{1/2} T(t) x||^2 dt,
    agreement 1e-6 relative.  The sides share no rule, so that a weight
    error cannot cancel: the trapezoid rule in tau = log t (exponentially
    convergent here) versus Gauss-Legendre on dyadic panels."""
    _require_real_diagonal(gen)
    started = time.perf_counter()
    N = gen.dimension
    lam = gen.eigenvalues.real
    rng = np.random.default_rng(2)
    states = [np.eye(N)[0].astype(complex), np.eye(N)[-1].astype(complex)]
    for _ in range(2):
        v = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        states.append(v / np.linalg.norm(v))
    horizon = semigroup_bounds(gen, 1e-12)
    t_min = 1e-10 / (1.0 + float(np.max(np.abs(lam))))
    tau = np.linspace(math.log(t_min), math.log(horizon), 6001)
    w_log = np.full(tau.size, tau[1] - tau[0])
    w_log[0] = w_log[-1] = w_log[0] / 2.0
    t_log = np.exp(tau)
    nodes, w_geo = panel_rule(dyadic_edges(horizon))
    E_log = np.exp(2.0 * np.outer(t_log, lam))
    E_geo = np.exp(2.0 * np.outer(nodes, lam))
    measured = -math.inf
    witness = ""
    per_state = []
    for idx, x in enumerate(states):
        dens = (-lam) * np.abs(x) ** 2
        F = t_log * (E_log @ dens)  # ||(-tA)^{1/2} T(t) x||^2 at the log nodes
        lhs = float(w_log @ F)  # (F/t) dt = F dtau
        rhs = float(w_geo @ (E_geo @ dens))
        rel = abs(lhs - rhs) / max(abs(rhs), 1e-300)
        per_state.append(rel)
        if rel > measured:
            measured = rel
            witness = f"state {idx}, lhs={lhs:.9g}"
    details = {"per_state_rel_diff": per_state,
               "zero_state": "0 == 0 trivially"}
    return finish_report("square_function", 0.0, measured, witness, 1e-6,
                         started, details)
