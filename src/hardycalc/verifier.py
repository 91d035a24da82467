"""Named numerical checks, one per verified inequality or identity.

Every check returns a CheckReport (no other module makes one) whose verdict
is measured <= claimed*(1+tol) + tol.  Checks that bundle sub-assertions
fold them in as budget fractions (residual over its own threshold) or report
the one with the largest headroom, so a single measured value still decides
the verdict while the raw residuals stay visible in the details dict.

Checks on symbols accept either a single symbol or a sequence, and treat a
single symbol as a battery of one: the report's claimed bound is 1, its
measured value the worst ratio to the symbol's own bound, and its witness
the maximizing symbol.

Every Gramian constant comes from `admissibility.observability_gramian`,
which cross-checks the Lyapunov solution by quadrature; only
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
from .hardy import (GridSpec, SampledSignal, _apply_multiplier,
                    _causal_window, _guarded_spectrum, _l2_norms,
                    discrete_multiplier, shift, times)
from .numkernel import hermitian_eigs, operator_norm, solve_lyapunov
from .report import finish_report
from .semigroup import (energy_integrals, evaluate_T, example26, norm_scan,
                        orbit_energies, resolvent, semigroup_bounds,
                        sup_T_norm)
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


def _worst(values):
    """(key, value) of the largest value, the first in key order on a tie;
    a nan counts as the largest, so that it fails the verdict."""
    items = sorted(values.items())
    return items[int(np.argmax([v for _, v in items]))]


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
    scans = sqrt_t_bound_scan(gen, gas, np.geomspace(1e-4, 1.0, 120))
    slacks, which = {}, {}
    for k, (g_k, ga, (sup, t_best)) in enumerate(zip(syms, gas, scans)):
        h = _hinf(g_k)
        r_gram = _ratio(observability_gramian(gen, ga).m_admissible,
                        gamma_A * h * h)
        r_scan = _ratio(sup, M01 * h)
        slacks[k] = max(r_gram, r_scan)
        which[k] = "gramian" if r_gram >= r_scan else f"scan t={t_best:.4g}"
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
    ratios = {}
    for k, g_k in enumerate(syms):
        h = _hinf(g_k)
        ga = _gA_exact(gen, g_k)
        for j, s in enumerate(_EQ21_SAMPLES):
            v = operator_norm(ga @ resolvent(gen, s))
            ratios[k, j] = _ratio(math.sqrt(s.real) * v, h)
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
    k, measured = _worst({
        k: _ratio(operator_norm(ga.matrix), factor * _hinf(g_k))
        for k, (g_k, ga) in enumerate(zip(syms, gA_convolution(gen, syms)))})
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
    k, worst_ratio = _worst({
        k: _ratio(operator_norm(_gA_exact(gen, g_k)), _hinf(g_k))
        for k, g_k in enumerate(syms)})
    witness = to_text(syms[k])
    measured = max(worst_ratio, r_gram / 1e-8, r_pair / 1e-9)
    details = {"gramian_identity_residual": r_gram,
               "pairing_identity_residual": r_pair,
               "von_neumann_ratio": worst_ratio}
    return finish_report("cor33a", 1.0, measured, witness, 1e-6, started,
                         details)


def _unit_states(N, seed, count):
    """The first and last basis vectors of C^N, then `count` seeded random
    unit vectors."""
    rng = np.random.default_rng(seed)
    states = [np.eye(N)[0].astype(complex), np.eye(N)[-1].astype(complex)]
    for _ in range(count):
        v = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        states.append(v / np.linalg.norm(v))
    return states


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
    T_probe = evaluate_T(gen, _THM34_PROBE)
    ratios = {}
    for k, g_k in enumerate(syms):
        ga = _gA_exact(gen, g_k)
        ratios[k] = _ratio(operator_norm(ga), m1 * m2 * _hinf(g_k)
                           + operator_norm(ga @ T_probe))
    k, measured = _worst(ratios)
    witness = to_text(syms[k])
    details = {"m1": m1, "m2": m2, "t_probe": _THM34_PROBE}
    return finish_report("thm34", 1.0, measured, witness, 1e-6, started,
                         details)


def check_analytic_lemma(gen):
    """sup_t t||A T(t)|| <= m1 m2; the scan grid contains the exact
    per-mode peak times 1/|lambda_n|, where the mode value is 1/e."""
    started = time.perf_counter()
    m1 = m2 = _sqrt_gramian(gen)[1]
    ts, norms = norm_scan(gen, [gen.matrix], np.concatenate(
        [np.geomspace(1e-6, 10.0, 300), -1.0 / gen.eigenvalues.real]))
    vals = ts * norms[0]
    k = int(np.argmax(vals))
    measured = float(vals[k])
    details = {"analytic_sup": measured, "t_at_sup": float(ts[k]),
               "e_inverse_reference": math.exp(-1.0), "m1": m1, "m2": m2}
    return finish_report("analytic_lemma", m1 * m2, measured,
                         f"t={ts[k]:.6g}", 1e-6, started, details)


def check_eq26(gen):
    """Exact observability of (-A)^{1/2} in the halved-time normalization:
    ||x||^2 <= m1^2 * int ||C T(tau/2) x||^2 dtau, the integral computed
    both from the Gramian and by direct quadrature."""
    started = time.perf_counter()
    gram, m1 = _sqrt_gramian(gen)
    scaled_exact = 2.0 * gram.m_exact
    if scaled_exact <= 0:
        raise ValueError("(-A)^{1/2} is not exactly observable here")
    states = _unit_states(gen.dimension, 1, 3)
    qs = [2.0 * float((x.conj() @ gram.Q @ x).real) for x in states]
    ratios = [float(np.vdot(x, x).real) / (m1 * m1 * q)
              for x, q in zip(states, qs)]
    # direct quadrature of the halved-time energy for two states
    quads = 2.0 * energy_integrals(gen, sqrt_minus_A(gen), states[:2])
    quad_fracs = [abs(float(val) - q) / q / 1e-6 for val, q in zip(quads, qs)]
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
    convergent here) over `orbit_energies` versus `energy_integrals`."""
    started = time.perf_counter()
    root = sqrt_minus_A(gen)
    states = _unit_states(gen.dimension, 2, 2)
    horizon = semigroup_bounds(gen, 1e-12)
    t_min = 1e-10 / (1.0 + operator_norm(gen.matrix))
    tau = np.linspace(math.log(t_min), math.log(horizon), 6001)
    w_log = np.full(tau.size, tau[1] - tau[0])
    w_log[0] = w_log[-1] = w_log[0] / 2.0
    t_log = np.exp(tau)
    # ||(-tA)^{1/2} T(t) x||^2 at the log nodes, and (F/t) dt = F dtau
    lhs_all = (t_log * orbit_energies(gen, root, states, t_log)) @ w_log
    rhs_all = energy_integrals(gen, root, states)
    per_state = [abs(lhs - rhs) / max(abs(rhs), 1e-300)
                 for lhs, rhs in zip(lhs_all.tolist(), rhs_all.tolist())]
    idx, measured = _worst(dict(enumerate(per_state)))
    witness = f"state {idx}, lhs={lhs_all[idx]:.9g}"
    details = {"per_state_rel_diff": per_state,
               "zero_state": "0 == 0 trivially"}
    return finish_report("square_function", 0.0, measured, witness, 1e-6,
                         started, details)


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
    [(measured, t_best)] = sqrt_t_bound_scan(gen, [C], np.concatenate(
        [np.geomspace(1e-6, 10.0, 200), [1.0 / (n * n) for n in ns]]))
    M = sup_T_norm(gen)
    reports.append(finish_report(
        "example26_sqrt_t_bound", math.sqrt(max(gram.m_admissible, 0.0)) * M,
        measured, f"t={t_best:.6g}", 1e-6, started,
        {"m_admissible": gram.m_admissible, "sup_T_norm": M,
         "t_at_sup": t_best}))
    return reports


def _signals(grid):
    """Labels of the five test signals and their samples as one stack, a
    row per signal."""
    t = times(grid)
    raw = [
        ("exp(-2t)", np.exp(-2.0 * t)),
        ("t*exp(-2.5t)", t * np.exp(-2.5 * t)),
        ("exp(-2t)cos(3t)", np.exp(-2.0 * t) * np.cos(3.0 * t)),
        ("gauss(t-2)", np.exp(-2.0 * (t - 2.0) ** 2)),
        ("exp((-3+i)t)", np.exp((-3.0 + 1j) * t)),
    ]
    return [lab for lab, _ in raw], np.array([v for _, v in raw],
                                             dtype=complex)


def _shifts(f, taus):
    """Stack of the shifts sigma_tau f of one signal, a row per tau."""
    return np.array([shift(f, tau).values for tau in taus])


def _row_chunks(rows, width):
    """Slices that cover range(rows) in chunks of two or three rows (one
    chunk when rows < 4), and a work stack of `width` columns for the
    largest chunk, the last."""
    count = max(1, rows // 2)
    cuts = [rows * q // count for q in range(count + 1)]
    work = np.empty((rows - cuts[-2], width), dtype=complex)
    return [slice(a, b) for a, b in zip(cuts, cuts[1:])], work


def _product_residuals(syms, mults, spectra, pairs, grid):
    """Multiplicativity residuals ||M_{g_i g_j} f_k - M_{g_i} M_{g_j} f_k||
    keyed (i, j, k) for each pair (i, j) of indices into syms, and the norms
    ||M_{g_j} f_k|| keyed (j, k) for every second factor j.

    mults[i] is the multiplier of syms[i] and spectra the stack of guarded
    spectra F_k of the scalar signals f_k, a row per signal.  The pairs are
    walked by second factor, so each product multiplier is built once (or
    taken from mults when the product is itself one of syms) and only the
    output spectra G_jk of M_{g_j} f_k for one symbol are held at a time.
    Each residual is formed in the spectrum, prod*F_k - m_i*G_jk, and takes
    one inverse DFT.  Outputs and residuals run in row chunks of two or
    three, one numpy call per chunk, through one chunk-sized work stack and
    a one-row scratch that serve the whole walk: full-size temporaries
    would set the peak memory, and freeing them would fragment the heap.
    """
    chunks, work = _row_chunks(*spectra.shape)
    out_spectra = np.empty_like(spectra)
    scratch = np.empty(spectra.shape[1], dtype=complex)
    resid, norms = {}, {}
    for j in sorted({j for _, j in pairs}):
        for c in chunks:
            outs = _apply_multiplier(spectra[c], mults[j],
                                     out=work[:c.stop - c.start])
            norms.update(zip([(j, k) for k in range(c.start, c.stop)],
                             _l2_norms(outs, grid.dt).tolist()))
            _guarded_spectrum(outs, out=out_spectra[c])
        for i in sorted(i for i, second in pairs if second == j):
            g = multiply(syms[i], syms[j])
            prod = (mults[syms.index(g)] if g in syms
                    else discrete_multiplier(g, grid))
            for c in chunks:
                diff = np.multiply(spectra[c], prod,
                                   out=work[:c.stop - c.start])
                for row, out_spectrum in zip(diff, out_spectra[c]):
                    row -= np.multiply(out_spectrum, mults[i], out=scratch)
                resid.update(zip([(i, j, k) for k in range(c.start, c.stop)],
                                 _l2_norms(_causal_window(diff),
                                           grid.dt).tolist()))
            # freed before the next product multiplier is built: its own
            # scratch arrays set the peak memory of this function
            del prod
    return resid, norms


def _shift_residuals(f, mults, taus):
    """Shift residuals ||sigma_tau M_{g_i} f - M_{g_i} sigma_tau f|| keyed
    (i, t) for multipliers mults[i] and shifts taus[t], and the guarded
    spectrum of f.  The signal and its shifts are one stack: one guarded
    forward call gives their spectra, and per multiplier the inverse calls
    run in row chunks of two or three through one work stack, the first row
    giving M_{g_i} f and the others the M_{g_i} sigma_tau f."""
    spectra = _guarded_spectrum(_shifts(f, (0.0,) + taus))
    chunks, work = _row_chunks(*spectra.shape)
    resid = {}
    for i, m in enumerate(mults):
        for c in chunks:
            outs = _apply_multiplier(spectra[c], m,
                                     out=work[:c.stop - c.start])
            if c.start == 0:
                diff = _shifts(SampledSignal(f.grid, outs[0]), taus)
            # row r of spectra is sigma_tau f for tau = taus[r - 1]
            lo = max(c.start, 1)
            diff[lo - 1:c.stop - 1] -= outs[lo - c.start:]
        resid.update(zip([(i, t) for t in range(len(taus))],
                         _l2_norms(diff, f.grid.dt).tolist()))
    return resid, spectra[0]


def check_toeplitz(grid, battery):
    """The discrete half-line operator M_g on five sampled signals:
    multiplicativity M_{gh} = M_g M_h, commutation with shifts, the norm
    bound ||M_g f|| <= ||g|| ||f||, and the fourth-order shrink of the
    product residual when the step is halved."""
    syms = list(battery)

    # Each multiplier is built once and each input spectrum computed once,
    # the multipliers as one stack; outputs are recomputed from them rather
    # than held.  The shift check runs first: per signal, one stack holds
    # the signal and its shifts, and the signal's row of it is kept as the
    # input spectrum of the multiplicativity walk.  Residuals are scanned in
    # (symbol, signal, ...) order, so the first worst case names the
    # witness.
    started = time.perf_counter()
    n = grid.n_samples
    # filled a row at a time, so the built multipliers are freed one by one
    mults = np.empty((len(syms), 2 * n), dtype=complex)
    for i, g in enumerate(syms):
        mults[i] = discrete_multiplier(g, grid)
    labels, stack = _signals(grid)
    f_norms = _l2_norms(stack, grid.dt).tolist()
    # One buffer holds the signals and then their spectra: row k keeps f_k
    # in its first half until the shift check has used it and replaces the
    # row by the spectrum, so the signals cost no memory of their own.
    spectra = np.empty((len(stack), 2 * n), dtype=complex)
    spectra[:, :n] = stack
    del stack
    taus = (grid.dt, 16 * grid.dt, 0.5)
    resid = {}
    for k in range(len(spectra)):
        resid_k, spectra[k] = _shift_residuals(
            SampledSignal(grid, spectra[k, :n]), mults, taus)
        resid.update(((i, k, t), r) for (i, t), r in resid_k.items())
    (i, k, t), r = _worst(resid)
    shift_report = finish_report(
        "toeplitz_shift_commutation", 0.0, r,
        f"{to_text(syms[i])} on {labels[k]}, tau={taus[t]:g}", 1e-6,
        started, {"taus": [float(t) for t in taus]})

    started = time.perf_counter()
    pairs = [(i, j) for i in range(len(syms)) for j in range(i, len(syms))]
    resid, norms = _product_residuals(syms, mults, spectra, pairs, grid)
    del spectra, mults
    (i, j, k), r = _worst(resid)
    reports = [finish_report(
        "toeplitz_multiplicativity", 0.0, r,
        f"({to_text(syms[i])})*({to_text(syms[j])}) on {labels[k]}", 1e-6,
        started, {"pairs": len(pairs), "signals": len(labels)}),
        shift_report]

    started = time.perf_counter()
    ratios = {}
    for i, g in enumerate(syms):
        h = _hinf(g)
        for k, f_norm in enumerate(f_norms):
            ratios[i, k] = _ratio(norms[i, k], h * f_norm)
    (i, k), r = _worst(ratios)
    reports.append(finish_report(
        "toeplitz_norm_bound", 1.0, r, f"{to_text(syms[i])} on {labels[k]}",
        1e-6, started))

    # Refinement is measured at a coarser step over the same horizon: the
    # multiplier is fourth order, so at the reference dt the residual already
    # sits on the circular truncation floor e^{-alpha*horizon} where halving
    # the step cannot show the shrink.  The base step is kept at 2^-5 or
    # coarser, so a finer reference dt does not push the base onto the floor.
    started = time.perf_counter()
    ref_syms = (atom(1.0, 1.0), atom(1.0, 3.0),
                add(atom(0.4, 2.0), Constant(0.5)))
    ref_pairs = ((0, 1), (1, 2))
    base_n = max(16, min(grid.n_samples // 8,
                         2 ** math.floor(math.log2(32.0 * grid.horizon))))
    base = GridSpec(base_n, grid.horizon / base_n)
    fine = GridSpec(2 * base.n_samples, base.dt / 2.0)
    worst = []
    for level in (base, fine):
        spectra = _guarded_spectrum(_signals(level)[1])
        mults = [discrete_multiplier(g, level) for g in ref_syms]
        resid, _ = _product_residuals(ref_syms, mults, spectra, ref_pairs,
                                      level)
        worst.append({(i, j): max(resid[i, j, k] for k in range(len(spectra)))
                      for i, j in ref_pairs})
    (i, j), r = _worst({p: worst[1][p] / worst[0][p] for p in ref_pairs})
    reports.append(finish_report(
        "toeplitz_refinement", 0.25, r,
        f"({to_text(ref_syms[i])})*({to_text(ref_syms[j])}): "
        f"{worst[0][i, j]:.3g} -> {worst[1][i, j]:.3g}", 1e-6, started))
    return reports


def _headroom(claimed, measured, tol):
    """How close a verdict is to failing: 1 at the threshold."""
    return measured / (claimed * (1.0 + tol) + tol)


def check_calculus_pairs(gen, battery):
    """The calculus axioms of the convolution route in operator norm:
    1(A) = I and (1/(2-s))(A) = (2I-A)^{-1}, and (g1 g2)(A) = g1(A) g2(A)
    on every ordered pair of the battery, each against its own error
    estimate; reports the sub-assertion with the largest headroom."""
    started = time.perf_counter()
    ident, at, *gas = gA_convolution(gen, [
        Constant(1.0), atom(1.0, 2.0), *battery,
        *(multiply(g1, g2) for g1 in battery for g2 in battery)])
    gas, products = gas[:len(battery)], iter(gas[len(battery):])
    subs = [("1(A) = I", ident.est_error,
             operator_norm(ident.matrix - np.eye(gen.dimension))),
            ("(1/(2-s))(A) = (2I-A)^-1", at.est_error,
             operator_norm(at.matrix - resolvent(gen, 2.0)))]
    norms = [operator_norm(ga.matrix) for ga in gas]
    for i, g1 in enumerate(battery):
        for j, g2 in enumerate(battery):
            ab = next(products)
            subs.append((
                f"g1={to_text(g1)}, g2={to_text(g2)}",
                ab.est_error + gas[i].est_error * norms[j]
                + gas[j].est_error * norms[i],
                operator_norm(ab.matrix - gas[i].matrix @ gas[j].matrix)))
    label, claimed, measured = subs[_worst(
        {k: _headroom(c, m, 1e-9) for k, (_, c, m) in enumerate(subs)})[0]]
    return finish_report(
        "calculus_axioms", claimed, measured,
        f"{label} on {gen.kind} dim {gen.dimension}", 1e-9, started,
        {"pairs": len(battery) ** 2, "identity_residual": subs[0][2],
         "atom_residual": subs[1][2],
         "max_product_residual": max(m for _, _, m in subs[2:])})


def check_resolvent_identity(gens, grid):
    """1/(2-s) applied to A is the resolvent (2I - A)^{-1} on the (seed,
    generator) pairs of `gens`: the convolution route at the seed nearest
    its own error estimate, the Toeplitz route on `grid` at its worst."""
    g = atom(1.0, 2.0)
    started = time.perf_counter()
    conv, toep = {}, {}
    for seed, gen in gens:
        R = resolvent(gen, 2.0)
        ga, = gA_convolution(gen, [g])
        conv[seed] = (ga.est_error, operator_norm(ga.matrix - R))
        toep[seed] = operator_norm(gA_toeplitz(gen, g, grid) - R)
    mid = time.perf_counter()
    conv_seed, _ = _worst({s: _headroom(*cm, 1e-9) for s, cm in conv.items()})
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


def check_extensions(gen, C, seed):
    """The Lebesgue extension lim (1/t) int_0^t C T(s) x ds and the
    Lambda extension lim lam C (lam - A)^{-1} x both give C x, on a basis
    state and a seeded random state; measured is the worst relative
    disagreement of the three pairs, or 1 if either limit diverged."""
    N = gen.dimension
    states = [("basis_3", np.eye(N)[2].astype(complex)),
              ("random", _unit_states(N, seed, 1)[2])]
    t_seq = [10.0 ** -j for j in range(1, 11)]
    lam_seq = [10.0 ** j for j in range(1, 11)]
    started = time.perf_counter()
    errors, details = {}, {}
    for lab, x in states:
        leb = lebesgue_limit(gen, C, x, t_seq)
        res = lambda_limit(gen, C, x, lam_seq)
        Cx = C @ x
        scale = float(np.linalg.norm(Cx))
        worst = max(float(np.linalg.norm(leb.limit - Cx)),
                    float(np.linalg.norm(res.limit - Cx)),
                    float(np.linalg.norm(leb.limit - res.limit))) / scale
        details[f"{lab}_rel_error"] = worst
        details[f"{lab}_diverged"] = bool(leb.diverged or res.diverged)
        errors[lab] = max(worst, 1.0) if details[f"{lab}_diverged"] else worst
    witness, measured = _worst(errors)
    return finish_report("extensions_agree", 0.0, measured, witness, 1e-6,
                         started, details)
