"""Named numerical checks, one per verified inequality or identity.

Every check returns a CheckReport (no other module makes one) whose verdict
is measured <= claimed*(1+tol) + tol.  One rule, `_worst`, picks it: a check
keys its cases (symbols, samples, signals, or sub-assertions as fractions of
their own thresholds), measures the largest value and names the first key
within 1e-12 of it, so rounding never chooses, or a fixed case while the
largest is below a floor.  An identity between operators is measured on the
whole operators in the 2-norm, never on sampled states, and no random number
is drawn here.

Checks on symbols accept either a single symbol or a sequence, and treat a
single symbol as a battery of one: the report's claimed bound is 1, its
measured value the worst ratio to the symbol's own bound, and its witness
the maximizing symbol.

Every Gramian constant comes from `admissibility.observability_gramian`,
which cross-checks the whole Lyapunov solution by quadrature; only
`check_cor33a` solves a Lyapunov equation itself, because its Gramian is
the measured side of the identity G = I.

The scenario checks (`check_example26`, `check_toeplitz`,
`check_calculus_pairs`, `check_resolvent_identity`, `check_extensions`)
each return all reports of one scenario, which share their inputs; the
registry in `scenarios` says which check each scenario runs on what.
"""

from __future__ import annotations

import functools
import math
import time

import numpy as np

from .admissibility import (lambda_limit, lebesgue_limit,
                            observability_gramian, sqrt_minus_A,
                            sqrt_t_bound_scan)
from .calculus import _gA_exact, gA_convolution, gA_toeplitz
from .hardy import GridSpec, WraparoundError, times, toeplitz_residuals
from .numkernel import hermitian_eigs, operator_norm, solve_lyapunov
from .report import finish_report
from .semigroup import (evaluate_T, example26, gramian, gramian_rule,
                        norm_scan, resolvent, semigroup_bounds, sup_T_norm)
from .symbols import Constant, add, atom, hinf_norm, multiply, to_text

__all__ = [
    "check_T0",
    "check_analytic_lemma",
    "check_calculus_pairs",
    "check_cor33a",
    "check_eq21",
    "check_eq26",
    "check_example26",
    "check_extensions",
    "check_resolvent_identity",
    "check_square_function",
    "check_thm33",
    "check_thm34",
    "check_toeplitz",
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


def _ratio(x, bound):
    """x over a symbol's bound, 0/0 = 0 and x/0 = inf: 0 <= C*0 holds."""
    return x / bound if bound != 0 else (0.0 if x == 0 else math.inf)


def _worst(values, floor=-math.inf, default=None):
    """(key, value): the largest value of the dict `values`, a nan counting
    as the largest so that it fails the verdict, and the first key in key
    order whose value is within 1e-12 relative of it, so that rounding
    cannot choose among near-ties; `default` in place of the key while the
    value is below `floor`."""
    keys = sorted(values)
    vals = np.array([values[k] for k in keys], dtype=float)
    i = int(np.argmax(vals))  # a ValueError when there are no values
    top = float(vals[i])
    if top < floor:
        return default, top
    if math.isfinite(top):
        i = int(np.argmax(vals >= top - 1e-12 * abs(top)))
    return keys[i], top


# the right-half-plane samples of check_eq21 and the probe time of
# check_thm34
_EQ21_SAMPLES = tuple(complex(re, im) for re in (0.1, 1.0, 10.0)
                      for im in (0.0, 1.0, -1.0, 10.0, -10.0))
_THM34_PROBE = 1.0


def check_T0(gen, g):
    """Square-root-of-t bounds: lambda_max(Q_g) <= gamma_A ||g||^2 for the
    Gramian of (g(A), A), and sqrt(t)||g(A)T(t)|| <= sup_[0,1]||T|| * ||g||
    scanned over (0, 1].  Measured is the worst of the two slacks."""
    started = time.perf_counter()
    syms = _symbol_list(g)
    gamma_A = observability_gramian(gen, np.eye(gen.dimension)).m_admissible
    M01 = sup_T_norm(gen)
    gas = [_gA_exact(gen, g_k) for g_k in syms]
    ts, scans = sqrt_t_bound_scan(gen, gas, np.geomspace(1e-4, 1.0, 120))
    slacks, which = {}, {}
    for k, (g_k, ga, scan) in enumerate(zip(syms, gas, scans)):
        h = _hinf(g_k)
        t, sup = _worst(dict(enumerate(scan.tolist())))
        which[k], slacks[k] = _worst({
            "gramian": _ratio(observability_gramian(gen, ga).m_admissible,
                              gamma_A * h * h),
            f"scan t={ts[t]:.4g}": _ratio(sup, M01 * h)})
    k, measured = _worst(slacks)
    witness = f"{to_text(syms[k])} ({which[k]})"
    details = {"gamma_A": gamma_A, "sup_T_01": M01, "per_symbol_slack": {
        to_text(syms[i]): v for i, v in slacks.items()}}
    return finish_report("T0", 1.0, measured, witness, 1e-4, started, details)


def check_eq21(gen, g):
    """Resolvent smoothing: sqrt(Re s)||g(A)(sI-A)^{-1}|| <= ||g|| over a
    right-half-plane sample grid."""
    started = time.perf_counter()
    syms = _symbol_list(g)
    Rs = np.array([resolvent(gen, s) for s in _EQ21_SAMPLES])
    ratios = {}
    for k, g_k in enumerate(syms):
        h = _hinf(g_k)
        norms = operator_norm(_gA_exact(gen, g_k) @ Rs).tolist()
        for j, s in enumerate(_EQ21_SAMPLES):
            ratios[k, j] = _ratio(math.sqrt(s.real) * norms[j], h)
    (k, j), measured = _worst(ratios)
    witness = f"{to_text(syms[k])} at s={_EQ21_SAMPLES[j]:.3g}"
    details = {"n_samples": len(_EQ21_SAMPLES)}
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
    norms = operator_norm(
        [ga.matrix for ga in gA_convolution(gen, syms)]).tolist()
    k, measured = _worst({k: _ratio(v, factor * _hinf(g_k))
                          for k, (g_k, v) in enumerate(zip(syms, norms))})
    witness = to_text(syms[k])
    details = {"m_admissible": gram.m_admissible, "m_exact": gram.m_exact,
               "bound_factor": factor}
    return finish_report("thm33", 1.0, measured, witness, 1e-6, started,
                         details)


def check_cor33a(gen, g):
    """Von Neumann inequality for dissipative generators through the
    explicit construction Q = -(A^{-1} + A^{-H}), C = sqrt(Q) A.

    Verifies the Gramian of (C, A) is the identity (budget 1e-8), the
    pairing identity C^H C = -(A + A^H) (budget 1e-9), and then
    ||g(A)|| <= ||g||; measured is the worst budget fraction, and the
    witness the worst symbol or the identity that decides."""
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
    norms = operator_norm([_gA_exact(gen, g_k) for g_k in syms]).tolist()
    k, worst_ratio = _worst({k: _ratio(v, _hinf(g_k))
                             for k, (g_k, v) in enumerate(zip(syms, norms))})
    labels = (to_text(syms[k]), "Gramian identity G = I",
              "pairing identity C^H C = -(A + A^H)")
    j, measured = _worst({0: worst_ratio, 1: r_gram / 1e-8, 2: r_pair / 1e-9})
    witness = labels[j]
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


def check_thm34(gen, g):
    """||g(A)|| <= m1 m2 ||g|| + ||g(A) T(1)|| on real-spectrum
    diagonal generators, with m1, m2 the square-root admissibility
    constants of the adjoint and forward semigroups."""
    started = time.perf_counter()
    syms = _symbol_list(g)
    m1 = m2 = _sqrt_gramian(gen)[1]
    gas = np.array([_gA_exact(gen, g_k) for g_k in syms])
    norms, probed = operator_norm(
        np.concatenate([gas, gas @ evaluate_T(gen, _THM34_PROBE)])
    ).reshape(2, -1).tolist()
    k, measured = _worst({
        k: _ratio(norms[k], m1 * m2 * _hinf(g_k) + probed[k])
        for k, g_k in enumerate(syms)})
    witness = to_text(syms[k])
    details = {"m1": m1, "m2": m2, "t_probe": _THM34_PROBE}
    return finish_report("thm34", 1.0, measured, witness, 1e-6, started,
                         details)


def check_analytic_lemma(gen):
    """sup_t t||A T(t)|| <= m1 m2; the scan grid contains the exact
    per-mode peak times 1/|lambda_n|, where the mode value is 1/e, so the
    peaks tie at rounding and the witness is the earliest."""
    started = time.perf_counter()
    m1 = m2 = _sqrt_gramian(gen)[1]
    ts, norms = norm_scan(gen, [gen.matrix], np.concatenate(
        [np.geomspace(1e-6, 10.0, 300), -1.0 / gen.eigenvalues.real]))
    k, measured = _worst(dict(enumerate((ts * norms[0]).tolist())))
    details = {"analytic_sup": measured, "t_at_sup": float(ts[k]),
               "e_inverse_reference": math.exp(-1.0), "m1": m1, "m2": m2}
    return finish_report("analytic_lemma", m1 * m2, measured,
                         f"t={ts[k]:.6g}", 1e-6, started, details)


def check_eq26(gen):
    """Exact observability of (-A)^{1/2} in the halved-time normalization:
    ||x||^2 <= m1^2 * int ||C T(tau/2) x||^2 dtau = 2 m1^2 x^H Q x.  The
    worst unit state, the eigenvector of lambda_min(Q), gives the ratio
    1/(m1^2 * 2 lambda_min(Q)); the Gramian's whole-matrix quadrature
    cross-check enters as a fraction of a 1e-6 budget."""
    started = time.perf_counter()
    gram, m1 = _sqrt_gramian(gen)
    scaled_exact = 2.0 * gram.m_exact
    if scaled_exact <= 0:
        raise ValueError("(-A)^{1/2} is not exactly observable here")
    quad_frac = gram.quadrature_rel_error / 1e-6
    witness, measured = _worst({
        "eigenvector of lambda_min(Q)": 1.0 / (m1 * m1 * scaled_exact),
        "whole-Gramian quadrature cross-check": quad_frac})
    details = {"exact_observability_scaled": scaled_exact, "m1": m1,
               "tau_quadrature_budget_fraction": quad_frac,
               "zero_state": "0 <= 0 trivially"}
    return finish_report("eq26", 1.0, measured, witness, 1e-6, started,
                         details)


def check_square_function(gen):
    """Change-of-measure identity
    int ||(-tA)^{1/2} T(t) x||^2 dt/t = int ||(-A)^{1/2} T(t) x||^2 dt for
    every x at once, as the operators L and Q of the two quadratic forms,
    agreement 1e-6 in the relative 2-norm.  The sides share no rule, so that
    a weight error cannot cancel: L is the trapezoid rule in tau = log t
    (exponentially convergent here) of `gramian_rule`, Q the doubling
    Gramian of `gramian`."""
    started = time.perf_counter()
    root = sqrt_minus_A(gen)
    horizon = semigroup_bounds(gen, 1e-12)
    t_min = 1e-10 / (1.0 + operator_norm(gen.matrix))
    tau = np.linspace(math.log(t_min), math.log(horizon), 6001)
    w_log = np.full(tau.size, tau[1] - tau[0])
    w_log[0] = w_log[-1] = w_log[0] / 2.0
    t_log = np.exp(tau)
    # weights t*w: ||(-tA)^{1/2}Tx||^2 = t||(-A)^{1/2}Tx||^2, dt/t = dtau
    L = gramian_rule(gen, root, t_log, t_log * w_log)
    Q = gramian(gen, root)
    scale = operator_norm(Q)
    return finish_report("square_function", 0.0,
                         _ratio(operator_norm(L - Q), scale),
                         f"whole operator, N={gen.dimension}", 1e-6,
                         started, {"rhs_norm": scale})


# ---------------------------------------------------------------------------
# scenario checks: several reports from shared inputs


def check_example26(gen, C):
    """Example 2.6 on the N-mode model: m_admissible = m_exact = 1/2 for
    every N, ||C T(1/n^2) phi_n|| = n/e at the peak times, and the
    sqrt(t)||C T(t)|| scan reaching 1/e there."""
    N = gen.dimension
    reports = []

    started = time.perf_counter()
    gram = observability_gramian(gen, C)
    measured = max(abs(gram.m_admissible - 0.5), abs(gram.m_exact - 0.5))
    reports.append(finish_report(
        "example26_gramian", 0.0, measured,
        f"N={N}, m_admissible={gram.m_admissible:.12g}", 1e-10, started,
        {"m_admissible": gram.m_admissible, "m_exact": gram.m_exact,
         "lyapunov_residual": gram.residual,
         "quadrature_rel_error": gram.quadrature_rel_error}))

    started = time.perf_counter()
    devs = {}
    for k in sorted({4, 16, N}):
        gr = gram if k == N else observability_gramian(*example26(k))
        devs[f"N={k}"] = max(abs(gr.m_admissible - 0.5),
                             abs(gr.m_exact - 0.5))
    reports.append(finish_report(
        "example26_constant_N_independence", 0.0, max(devs.values()),
        "constants at " + ", ".join(devs), 1e-10, started,
        devs))

    started = time.perf_counter()
    diffs = {}
    floor_vals = []
    ns = [n for n in (1, 2, 4, 8) if n <= N]
    for n in ns:
        t = 1.0 / (n * n)
        Tt = evaluate_T(gen, t)
        val = float(np.linalg.norm(C @ Tt[:, n - 1]))  # phi_n = e_n
        diffs[f"n={n}"] = abs(val - n * math.exp(-1.0))
        floor_vals.append(math.sqrt(t) * operator_norm(C @ Tt))
    reports.append(finish_report(
        "example26_sharpness", 0.0, max(diffs.values()),
        "||C T(1/n^2) phi_n|| against n/e", 1e-9, started,
        diffs))

    started = time.perf_counter()
    short = math.exp(-1.0) - min(floor_vals)
    reports.append(finish_report(
        "example26_sharpness_floor", 0.0, max(0.0, short),
        "sqrt(t)||C T(t)|| at the peak times", 1e-9, started,
        {"min_scan_value": min(floor_vals)}))

    started = time.perf_counter()
    ts, [scan] = sqrt_t_bound_scan(gen, [C], np.concatenate(
        [np.geomspace(1e-6, 10.0, 200), [1.0 / (n * n) for n in ns]]))
    k, measured = _worst(dict(enumerate(scan.tolist())))
    t_best = float(ts[k])
    M = sup_T_norm(gen)
    reports.append(finish_report(
        "example26_sqrt_t_bound", math.sqrt(max(gram.m_admissible, 0.0)) * M,
        measured, f"t={t_best:.6g}", 1e-6, started,
        {"m_admissible": gram.m_admissible, "sup_T_norm": M,
         "t_at_sup": t_best}))
    return reports


# the five test signals of check_toeplitz, a row each of `_signals`
_SIGNAL_LABELS = ("exp(-2t)", "t*exp(-2.5t)", "exp(-2t)cos(3t)",
                  "gauss(t-2)", "exp((-3+i)t)")


def _signals(grid):
    """The samples of the five test signals as one stack, a row per
    signal."""
    t = times(grid)
    return np.array([np.exp(-2.0 * t), t * np.exp(-2.5 * t),
                     np.exp(-2.0 * t) * np.cos(3.0 * t),
                     np.exp(-2.0 * (t - 2.0) ** 2), np.exp((-3.0 + 1j) * t)],
                    dtype=complex)


def check_toeplitz(grid, battery):
    """The discrete half-line operator M_g on five sampled signals:
    multiplicativity M_{gh} = M_g M_h, commutation with shifts, the norm
    bound ||M_g f|| <= ||g|| ||f||, and the fourth-order shrink of the
    product residual when the step is halved.  The residuals and norms
    are `hardy.toeplitz_residuals`'s; each is keyed (symbol, signal, ...),
    so `_worst` names the first case near the worst as the witness.  The
    refinement levels run a fixed battery, which the horizon must carry."""
    syms = list(battery)
    pairs = [(i, j) for i in range(len(syms)) for j in range(i, len(syms))]
    taus = (grid.dt, 16 * grid.dt, 0.5)
    labels = _SIGNAL_LABELS
    started = time.perf_counter()
    # the stack is passed, not kept, so the walks free it once packed
    shifted, resid, norms, f_norms = toeplitz_residuals(
        syms, pairs, _signals(grid), grid, taus)
    # the witness is the first (symbol, signal, tau) while every residual
    # is below 1e-12, at rounding
    (i, k, t), r = _worst(shifted, 1e-12, (0, 0, 0))
    shift_report = finish_report(
        "toeplitz_shift_commutation", 0.0, r,
        f"{to_text(syms[i])} on {labels[k]}, tau={taus[t]:g}", 1e-6,
        started, {"taus": [float(t) for t in taus], "max_residual": r})
    (i, j, k), r = _worst(resid)
    reports = [finish_report(
        "toeplitz_multiplicativity", 0.0, r,
        f"({to_text(syms[i])})*({to_text(syms[j])}) on {labels[k]}", 1e-6,
        started, {"pairs": len(pairs), "signals": len(labels)}),
        shift_report]

    started = time.perf_counter()
    # every symbol is a second factor; a constant's ratios tie at 1 + 2^-52
    (i, k), r = _worst({(i, k): _ratio(x, _hinf(syms[i]) * f_norms[k])
                        for (i, k), x in norms.items()})
    reports.append(finish_report(
        "toeplitz_norm_bound", 1.0, r, f"{to_text(syms[i])} on {labels[k]}",
        1e-6, started, {"max_ratio": r}))

    # Refinement is measured at a coarser step over the same horizon: the
    # multiplier is fourth order, so at the reference dt the residual already
    # sits on the circular truncation floor e^{-alpha*horizon} where halving
    # the step cannot show the shrink.  The base step is kept at 2^-5 or
    # coarser, so a finer reference dt does not push the base onto the floor.
    # The two levels run one after the other, each splitting its own walks.
    started = time.perf_counter()
    ref_syms = (atom(1.0, 1.0), atom(1.0, 3.0),
                add(atom(0.4, 2.0), Constant(0.5)))
    ref_pairs = ((0, 1), (1, 2))
    base_n = max(16, min(grid.n_samples // 8,
                         2 ** math.floor(math.log2(32.0 * grid.horizon))))
    base = GridSpec(base_n, grid.horizon / base_n)
    fine = GridSpec(2 * base.n_samples, base.dt / 2.0)

    try:
        levels = [toeplitz_residuals(ref_syms, ref_pairs, _signals(level),
                                     level, ())[1] for level in (base, fine)]
    except WraparoundError as exc:
        raise WraparoundError(
            "the step-halving refinement check's own battery "
            f"{', '.join(map(to_text, ref_syms))} needs a longer horizon: "
            f"{exc}") from exc
    worst = [{(i, j): max(resid[i, j, k] for k in range(len(labels)))
              for i, j in ref_pairs} for resid in levels]
    (i, j), r = _worst({p: worst[1][p] / worst[0][p] for p in ref_pairs})
    reports.append(finish_report(
        "toeplitz_refinement", 0.25, r,
        f"({to_text(ref_syms[i])})*({to_text(ref_syms[j])}): "
        f"{worst[0][i, j]:.3g} -> {worst[1][i, j]:.3g}", 1e-6, started))
    return reports


def _closest(subs, fixed):
    """The key of the (claimed, measured) pair in subs closest to failing,
    by headroom measured/threshold at tolerance 1e-9, or `fixed` below 1e-3."""
    return _worst({k: m / (c * (1.0 + 1e-9) + 1e-9)
                   for k, (c, m) in subs.items()}, 1e-3, fixed)[0]


def check_calculus_pairs(gen, battery):
    """The calculus axioms of the convolution route in operator norm:
    1(A) = I and (1/(2-s))(A) = (2I-A)^{-1}, and (g1 g2)(A) = g1(A) g2(A)
    on every ordered pair of the battery, each against its own error
    estimate; reports the `_closest` one, the atom identity by default."""
    started = time.perf_counter()
    ident, at, *gas = gA_convolution(gen, [
        Constant(1.0), atom(1.0, 2.0), *battery,
        *(multiply(g1, g2) for g1 in battery for g2 in battery)])
    n = len(battery)
    gas, products = gas[:n], gas[n:]
    mats = np.array([ga.matrix for ga in gas])
    r_ident, r_at, *norms = operator_norm(
        [ident.matrix - np.eye(gen.dimension), at.matrix - resolvent(gen, 2.0),
         *mats]).tolist()
    subs = [("1(A) = I", ident.est_error, r_ident),
            ("(1/(2-s))(A) = (2I-A)^-1", at.est_error, r_at)]
    # one stack per first factor, so that at most n residuals are held
    for i, g1 in enumerate(battery):
        row = products[i * n:(i + 1) * n]
        diff = np.array([ab.matrix for ab in row])
        diff -= mats[i] @ mats
        for j, (g2, ab, r) in enumerate(zip(battery, row,
                                            operator_norm(diff).tolist())):
            subs.append((f"g1={to_text(g1)}, g2={to_text(g2)}",
                         ab.est_error + gas[i].est_error * norms[j]
                         + gas[j].est_error * norms[i], r))
    label, claimed, measured = subs[_closest(
        {k: (c, m) for k, (_, c, m) in enumerate(subs)}, 1)]
    return finish_report(
        "calculus_axioms", claimed, measured,
        f"{label} on {gen.kind} dim {gen.dimension}", 1e-9, started,
        {"pairs": len(battery) ** 2, "identity_residual": subs[0][2],
         "atom_residual": subs[1][2],
         "max_product_residual": max(m for _, _, m in subs[2:])})


def check_resolvent_identity(gens, grid):
    """1/(2-s) applied to A is the resolvent (2I - A)^{-1} on the (seed,
    generator) pairs of `gens`: the convolution route at the seed `_closest`
    to its own error estimate, the Toeplitz route on `grid` at its worst."""
    g = atom(1.0, 2.0)
    started = time.perf_counter()
    conv, toep = {}, {}
    for seed, gen in gens:
        R = resolvent(gen, 2.0)
        ga, = gA_convolution(gen, [g])
        conv[seed] = (ga.est_error, operator_norm(ga.matrix - R))
        toep[seed] = operator_norm(gA_toeplitz(gen, g, grid) - R)
    mid = time.perf_counter()
    conv_seed = _closest(conv, next(iter(conv)))
    (claimed, dc), (toep_seed, dtp) = conv[conv_seed], _worst(toep)
    per_seed = {f"seed{s}": [conv[s][1], toep[s]] for s in conv}
    return [
        finish_report("resolvent_identity_convolution", claimed, dc,
                      f"seed {conv_seed}", 1e-9, started,
                      {"per_seed": per_seed}),
        finish_report("resolvent_identity_toeplitz", 0.0, dtp,
                      f"seed {toep_seed}", 1e-3, mid,
                      {"grid_n": grid.n_samples, "grid_dt": grid.dt}),
    ]


def check_extensions(gen, C):
    """The Lebesgue extension lim (1/t) int_0^t C T(s) ds and the Lambda
    extension lim lam C (lam - A)^{-1} both give the operator C; measured is
    the worst 2-norm disagreement of the three pairs relative to ||C||, or
    at least 1 if either limit diverged."""
    started = time.perf_counter()
    leb = lebesgue_limit(gen, C, [10.0 ** -j for j in range(1, 11)])
    res = lambda_limit(gen, C, [10.0 ** j for j in range(1, 11)])
    scale = operator_norm(C)
    errors = {"lebesgue vs C": leb.limit - C, "lambda vs C": res.limit - C,
              "lebesgue vs lambda": leb.limit - res.limit}
    errors = {k: _ratio(operator_norm(E), scale) for k, E in errors.items()}
    witness, measured = _worst(errors)
    diverged = bool(leb.diverged or res.diverged)
    return finish_report(
        "extensions_agree", 0.0, max(measured, 1.0) if diverged else measured,
        witness, 1e-6, started, {**errors, "diverged": diverged})
