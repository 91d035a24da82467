"""Named numerical checks, one per verified inequality or identity.

Every check returns a CheckReport (no other module makes one) whose verdict
is measured <= claimed*(1+tol) + tol.  Checks that bundle sub-assertions
fold them in as budget fractions (residual over its own threshold) or report
the one closest to failing, so a single measured value decides the verdict.
An identity between operators is measured on the whole operators in the
2-norm, never on sampled states, and no random number is drawn here.

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
import threading
import time

import numpy as np

from .admissibility import (lambda_limit, lebesgue_limit,
                            observability_gramian, sqrt_minus_A,
                            sqrt_t_bound_scan)
from .calculus import _gA_exact, gA_convolution, gA_toeplitz
from .hardy import (_BLOCK, GridSpec, WraparoundError, _apply_multiplier,
                    _causal_window, _difference, _guarded_spectrum,
                    _l2_norms, _real_coefficients, _require_grid_fits,
                    _shift_into, discrete_multiplier, times)
from .numkernel import hermitian_eigs, operator_norm, solve_lyapunov
from .report import finish_report
from .semigroup import (evaluate_T, example26, gramian, gramian_rule,
                        norm_scan, resolvent, semigroup_bounds, sup_T_norm)
from .symbols import (Constant, add, atom, hinf_norm, kernel, multiply,
                      to_text)

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
    norms = operator_norm([_gA_exact(gen, g_k) for g_k in syms]).tolist()
    k, worst_ratio = _worst({k: _ratio(v, _hinf(g_k))
                             for k, (g_k, v) in enumerate(zip(syms, norms))})
    witness = to_text(syms[k])
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
    ratio = 1.0 / (m1 * m1 * scaled_exact)
    witness = ("eigenvector of lambda_min(Q)" if ratio >= quad_frac
               else "whole-Gramian quadrature cross-check")
    details = {"exact_observability_scaled": scaled_exact, "m1": m1,
               "tau_quadrature_budget_fraction": quad_frac,
               "zero_state": "0 <= 0 trivially"}
    return finish_report("eq26", 1.0, max(ratio, quad_frac), witness, 1e-6,
                         started, details)


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


def _battery_kernels(syms, pairs):
    """(symbol, kernel) of each battery symbol and each pair product."""
    for g in [*syms, *(multiply(syms[i], syms[j]) for i, j in pairs)]:
        yield g, kernel(g)


def _pack(stack, real):
    """The rows the walks run on, and how many of them, leading, carry two
    signals.  A real kernel gives M_g (a + ib) = M_g a + i M_g b for real
    a and b, so when every kernel is real the leading real signals of the
    stack go two to a row, a in the real part and b in the imaginary part;
    an odd one out and every complex signal keep a row of their own, as
    every signal does when some kernel is complex."""
    lead = next((k for k, f in enumerate(stack) if np.any(f.imag)),
                len(stack))
    pairs = 2 * (lead // 2) if real else 0
    return np.concatenate([stack[:pairs:2] + 1j * stack[1:pairs:2].real,
                           stack[pairs:]]), pairs // 2


def _carried(rows, packed):
    """The indices of the signals that each row of a stack carries, when
    its first `packed` rows carry two."""
    return [(2 * r, 2 * r + 1) if r < packed else (packed + r,)
            for r in range(rows)]


def _halves(items):
    """The two halves of a sequence, the first the longer by at most one."""
    cut = (len(items) + 1) // 2
    return items[:cut], items[cut:]


def _inline(task, items):
    """[task(first half of items, 0), task(second half of items, 1)], both
    on the calling thread: a walk's halves run one after the other."""
    return [task(half, h) for h, half in enumerate(_halves(items))]


def _two_way(task, items):
    """`_inline`, with the second half on a second thread: numpy's FFTs and
    ufunc loops release the GIL, so the halves run at once.  The halves may
    write only disjoint outputs, and each gets its own buffers by its index.
    The thread is joined before this returns or raises, and an error of
    either half is raised here, the first half's first.  With nothing in
    the second half no thread is started."""
    first, second = _halves(items)
    if not second:
        return _inline(task, items)
    done = {}

    def run():
        try:
            done["result"] = task(second, 1)
        except BaseException as exc:  # re-raised on the calling thread
            done["error"] = exc

    thread = threading.Thread(target=run)
    thread.start()
    try:
        mine = task(first, 0)
    finally:
        thread.join()
    if "error" in done:
        raise done["error"]
    return [mine, done["result"]]


def _product_residuals(syms, mults, spectra, peaks, pairs, grid, packed=0,
                       split=None):
    """Multiplicativity residuals ||M_{g_i g_j} f_k - M_{g_i} M_{g_j} f_k||
    keyed (i, j, k) for each pair (i, j) of indices into syms, and the norms
    ||M_{g_j} f_k|| keyed (j, k) for every second factor j.

    mults[i] is the multiplier of syms[i], the whole window or a real
    kernel's half (`hardy._bins`), spectra the stack of guarded spectra of
    the signals f_k, whose first `packed` rows carry two real signals each
    (`_pack`; only real kernels may see such rows), and peaks[k] the peak of
    f_k, the floor of the guard on M_{g_j} f_k: an output at roundoff (a
    delay past the signal) has no tail to judge.  The pairs are walked by
    second factor, so each product multiplier is built once (or taken from
    mults when the product is itself one of syms), on half the window when
    both factors are, and only the output spectra G_j of M_{g_j} for one
    symbol are held at a time.  Each residual is formed in the spectrum,
    prod*F - m_i*G_j, and takes one inverse DFT.

    Per second factor, `split` (`_two_way` unless given) runs the output
    rows in two halves and then the first factors in two halves, each half
    building its own product multipliers.  Each half runs its rows one at
    a time through a work row, a scratch block (`hardy._difference`) and a
    held product multiplier of its own, all allocated here on the calling
    thread: full-size temporaries would set the peak memory, and freeing
    them would fragment the heap.
    """
    split = split or _two_way
    carried = _carried(len(spectra), packed)
    n = grid.n_samples
    halved = all(len(m) == n + 1 for m in mults)
    bufs = [(np.empty((1, 2 * n), dtype=complex),
             np.empty(min(_BLOCK, n + 1), dtype=complex),
             np.empty(n + 1 if halved else 2 * n, dtype=complex))
            for _ in range(2)]
    out_spectra = np.empty_like(spectra)
    # the symbol algebra stays on the calling thread
    products = {(i, j): multiply(syms[i], syms[j]) for i, j in pairs}

    def outputs(rows, h):
        work, norms = bufs[h][0], {}
        for r in rows:
            ks, paired = carried[r], int(r < packed)
            outs = _apply_multiplier(spectra[r:r + 1], mults[j], out=work)
            norms.update(zip([(j, k) for k in ks],
                             _l2_norms(outs, grid.dt, paired).tolist()))
            _guarded_spectrum(outs, out=out_spectra[r:r + 1],
                              floor=peaks[list(ks)], packed=paired)
        return norms

    def residuals(firsts, h):
        work, scratch, held = bufs[h]
        resid = {}
        for i in firsts:
            g = products[i, j]
            if g in syms:
                prod = mults[syms.index(g)]
            else:
                half = len(mults[i]) == len(mults[j]) == n + 1
                prod = discrete_multiplier(
                    g, grid, out=held[:n + 1 if half else 2 * n])
            for r, ks in enumerate(carried):
                _difference(spectra[r], prod, out_spectra[r], mults[i],
                            work[0], scratch)
                resid.update(zip([(i, j, k) for k in ks],
                                 _l2_norms(_causal_window(work), grid.dt,
                                           int(r < packed)).tolist()))
        return resid

    resid, norms = {}, {}
    for j in sorted({j for _, j in pairs}):
        for part in split(outputs, range(len(carried))):
            norms.update(part)
        for part in split(residuals, sorted(i for i, second in pairs
                                            if second == j)):
            resid.update(part)
    return resid, norms


def _shift_buffers(n, count):
    """The shift check's buffers, allocated once per check on the calling
    thread: the stack that receives the spectra of a row's `count` shifts
    and, for each half of the multipliers, a work row and the window that
    holds M_g f."""
    return (np.empty((count, 2 * n), dtype=complex),
            [(np.empty((1, 2 * n), dtype=complex), np.empty(n, dtype=complex))
             for _ in range(2)])


def _shift_residuals(row, mults, taus, dt, signals=(0,), buffers=None):
    """Shift residuals ||sigma_tau M_{g_i} f_k - M_{g_i} sigma_tau f_k||
    keyed (i, k, t) for multipliers mults[i], the signals f_k that the row
    f carries (k in `signals`: two real signals in its real and imaginary
    parts, or one) and shifts taus[t].

    row is a doubled-window row whose first half holds the samples of f;
    it receives the guarded spectrum of f.  The shifts of f are written
    straight into the shift stack of `buffers` (`_shift_buffers`, made here
    if not given), which receives their spectra.  `_two_way` transforms
    the row and its shifts in two halves, and then splits the multipliers
    in two halves; per multiplier a half applies the rows one at a time
    through its work row, the first giving M_{g_i} f, held in its window,
    and the others the M_{g_i} sigma_tau f, each subtracted from the shift
    of M_{g_i} f in the anticausal half of the work row, which the causal
    window leaves free."""
    two = len(signals) == 2
    n = len(row) // 2
    shifts, bufs = buffers or _shift_buffers(n, len(taus))
    for dest, tau in zip(shifts, taus):
        _shift_into(row[:n], tau, dt, dest[:n])
    _two_way(lambda rows, h: [
        _guarded_spectrum(r[None, :n], out=r[None], packed=int(two))
        for r in rows], [row, *shifts])

    def task(indices, h):
        work, held = bufs[h]
        resid = {}
        for i in indices:
            held[:] = _apply_multiplier(row[None], mults[i], out=work)[0]
            for t, (tau, shifted) in enumerate(zip(taus, shifts)):
                out = _apply_multiplier(shifted[None], mults[i], out=work)[0]
                diff = work[0, n:]
                _shift_into(held, tau, dt, diff)
                diff -= out
                resid.update(zip([(i, k, t) for k in signals],
                                 _l2_norms(diff[None], dt,
                                           int(two)).tolist()))
        return resid

    return {key: x for part in _two_way(task, range(len(mults)))
            for key, x in part.items()}


def check_toeplitz(grid, battery):
    """The discrete half-line operator M_g on five sampled signals:
    multiplicativity M_{gh} = M_g M_h, commutation with shifts, the norm
    bound ||M_g f|| <= ||g|| ||f||, and the fourth-order shrink of the
    product residual when the step is halved.

    Every walk runs in two halves, the calling thread one and a second
    thread (`_two_way`) the other: per row of the shift check, the spectra
    of the row and its shifts and then the multipliers; per second factor
    of the product walk, the output rows and then the first factors, each
    half building its own product multipliers; and the two refinement
    levels.  The halves write disjoint
    outputs through buffers allocated on the calling thread, and their
    results are merged in walk order, so every report is the one a walk on
    one thread gives, bit for bit.  The second thread costs its own numpy
    FFT scratch, about 4 MiB on the 2^17-point window of a 65,536-sample
    grid, which its malloc arena keeps after the thread is joined; holding
    each real kernel's multiplier on its n + 1 nonnegative bins, half the
    window, pays for it."""
    syms = list(battery)
    pairs = [(i, j) for i in range(len(syms)) for j in range(i, len(syms))]
    kernels = list(_battery_kernels(syms, pairs))
    taus = (grid.dt, 16 * grid.dt, 0.5)
    _require_grid_fits(kernels, grid, taus)

    # Each multiplier is built once, straight into its held row, and each
    # input spectrum computed once; outputs are recomputed from them rather
    # than held.  When every kernel of the battery and its pair products has
    # real coefficients, the four real signals travel two to a row (`_pack`)
    # and the complex one alone, so every walk pushes three rows, not five,
    # through each FFT and multiplier product; each signal's norms and
    # residuals are read from its row's real part, imaginary part or both,
    # and the wraparound guard judges each signal on its own.  Every walk
    # transforms and multiplies one row at a time through a work row of its
    # half, so numpy's FFT maps no multi-row scratch.  The shift check runs
    # first, through one shift stack for the whole check, and turns each
    # row into its spectrum, the input of the multiplicativity walk.
    # Residuals are keyed (symbol, signal, ...), so the first worst case
    # names the witness.
    started = time.perf_counter()
    n = grid.n_samples
    mults = [np.empty(n + 1 if _real_coefficients(krep) else 2 * n,
                      dtype=complex) for _, krep in kernels[:len(syms)]]
    for g, m in zip(syms, mults):
        discrete_multiplier(g, grid, out=m)
    labels, stack = _signals(grid)
    f_norms = _l2_norms(stack, grid.dt).tolist()
    peaks = np.max(np.abs(stack), axis=1)
    rows, packed = _pack(stack, all(_real_coefficients(krep)
                                    for _, krep in kernels))
    # One buffer holds the rows and then their spectra: row r keeps its
    # samples in its first half until the shift check has used them and
    # replaces the row by the spectrum.
    spectra = np.empty((len(rows), 2 * n), dtype=complex)
    spectra[:, :n] = rows
    del stack, rows
    buffers = _shift_buffers(n, len(taus))
    resid = {}
    for r, signals in enumerate(_carried(len(spectra), packed)):
        resid.update(_shift_residuals(spectra[r], mults, taus, grid.dt,
                                      signals, buffers))
    del buffers
    # the first (symbol, signal, tau) while every residual is below 1e-12,
    # where rounding would decide the argmax (`_closest`)
    i, k, t = _closest({key: (0.0, x) for key, x in resid.items()},
                       (0, 0, 0))
    shift_report = finish_report(
        "toeplitz_shift_commutation", 0.0, resid[i, k, t],
        f"{to_text(syms[i])} on {labels[k]}, tau={taus[t]:g}", 1e-6,
        started, {"taus": [float(t) for t in taus],
                  "max_residual": _worst(resid)[1]})

    started = time.perf_counter()
    resid, norms = _product_residuals(syms, mults, spectra, peaks, pairs,
                                      grid, packed)
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
    # the worst ratio is measured, and the witness is the first (symbol,
    # signal) within 1e-12 of it: a constant's ratios tie at 1 + 2^-52, and
    # rounding would decide among them
    worst, r = _worst(ratios)
    i, k = next((key for key in sorted(ratios)
                 if ratios[key] >= r * (1.0 - 1e-12)), worst)
    reports.append(finish_report(
        "toeplitz_norm_bound", 1.0, r, f"{to_text(syms[i])} on {labels[k]}",
        1e-6, started, {"max_ratio": r}))

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

    def level_residuals(levels, h):
        worst = []
        for level in levels:
            stack = _signals(level)[1]
            # the fixed battery, real atoms and a constant, is real
            rows, packed = _pack(stack, True)
            mults = [discrete_multiplier(g, level, out=np.empty(
                level.n_samples + 1, dtype=complex)) for g in ref_syms]
            # inline: the two levels are the halves of this walk
            resid = _product_residuals(
                ref_syms, mults, _guarded_spectrum(rows, packed=packed),
                np.max(np.abs(stack), axis=1), ref_pairs, level, packed,
                split=_inline)[0]
            worst.append({(i, j): max(resid[i, j, k]
                                      for k in range(len(stack)))
                          for i, j in ref_pairs})
        return worst

    worst = [w for part in _two_way(level_residuals, (base, fine))
             for w in part]
    (i, j), r = _worst({p: worst[1][p] / worst[0][p] for p in ref_pairs})
    reports.append(finish_report(
        "toeplitz_refinement", 0.25, r,
        f"({to_text(ref_syms[i])})*({to_text(ref_syms[j])}): "
        f"{worst[0][i, j]:.3g} -> {worst[1][i, j]:.3g}", 1e-6, started))
    return reports


def _headroom(claimed, measured, tol):
    """How close a verdict is to failing: 1 at the threshold."""
    return measured / (claimed * (1.0 + tol) + tol)


def _closest(subs, fixed):
    """The key of the (claimed, measured) pair in subs closest to failing at
    tolerance 1e-9, or `fixed` when every headroom is below 1e-3, where
    rounding would decide the argmax and every sub-assertion passes."""
    key, room = _worst({k: _headroom(*cm, 1e-9) for k, cm in subs.items()})
    return fixed if room < 1e-3 else key


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
