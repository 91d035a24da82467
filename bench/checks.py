"""Verdict counts and the independent correctness checks.

The independent checks run after the timed region.  They rebuild each
scenario's seeded inputs from the documented sampler constructions and
recompute the reported quantities with scipy.linalg and with closed forms
from the paper, so they share no numerical code with hardycalc.  They never
compare against a stored copy of an earlier output.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg as sla

from workloads import WORKLOADS

# Relative agreement asked of a reported quantity that scipy recomputes.
REL_TOL = 1e-7
# Slack on an inequality ratio; the scenarios' own check tolerance.
RATIO_TOL = 1e-6
# Example 2.6 constants and peak, as the program's checks state them.
EXAMPLE26_TOL = 1e-10
PEAK_TOL = 1e-9
# The fourth-order multiplier's error on a 2^-8 grid is O(dt^4) ~ 2e-10.
TOEPLITZ_TOL = 1e-8


def count_verdicts(workload, reports, aborted):
    """Checks attempted and failed in one round.  An aborted scenario, or
    one that returns fewer reports than it should, fails the missing ones."""
    attempted = failed = 0
    miscounted = []
    for name, _, expected in WORKLOADS[workload]:
        attempted += expected
        if name in aborted:
            failed += expected
            continue
        reps = reports[name]
        failed += sum(1 for r in reps if not r.passed)
        if len(reps) != expected:
            miscounted.append(f"{name}: {len(reps)} reports, "
                              f"expected {expected}")
            failed += max(0, expected - len(reps))
    return {"attempted": attempted, "failed": failed,
            "miscounted": miscounted}


def failed_by_disagreement(reports, disagreements):
    """Passed checks that an independent check contradicts."""
    passed = {r.name for reps in reports.values() for r in reps if r.passed}
    return len({d["check"] for d in disagreements} & passed)


# ---------------------------------------------------------------------------
# inputs rebuilt from the documented constructions


def _complex_gaussian(rng, n):
    return (rng.standard_normal((n, n))
            + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0 * n)


def _dissipative_parts(rng, n):
    G = _complex_gaussian(rng, n)
    W = 0.5 * (G - G.conj().T)
    B = _complex_gaussian(rng, n)
    S = B.conj().T @ B
    H = 2.5 * np.eye(n) + (1.5 / sla.norm(S, 2)) * S
    return W - H


def dissipative(n, seed):
    """A = W - H: W skew-Hermitian, H Hermitian with spectrum in [2.5, 4]."""
    return _dissipative_parts(np.random.default_rng(seed), n)


def stable(n, seed):
    """V (W - H) V^{-1} with V = I + 0.3 * Gaussian, re-drawn with the next
    seed while cond(V) > 100."""
    for s in range(seed, seed + 5):
        rng = np.random.default_rng(s)
        D = _dissipative_parts(rng, n)
        V = np.eye(n) + 0.3 * _complex_gaussian(rng, n)
        V_inv = sla.solve(V, np.eye(n))
        if sla.norm(V, 2) * sla.norm(V_inv, 2) <= 100.0:
            return V @ D @ V_inv
    raise ValueError(f"no well-conditioned similarity from seed {seed}")


def example26(N):
    """A = diag(-n^2), C = diag(n), n = 1..N (Example 2.6)."""
    n = np.arange(1.0, N + 1.0)
    return np.diag(-n ** 2).astype(complex), np.diag(n).astype(complex)


# ---------------------------------------------------------------------------
# the scenarios' default symbol battery in closed form


def _res(A, alpha):
    eye = np.eye(A.shape[0])
    return sla.solve(alpha * eye - A, eye)


# (symbol, sup over the imaginary axis of |g(i w)|, g(A))
BATTERY = (
    ("1/(1-s)", 1.0, lambda A: _res(A, 1.0)),
    ("1/(3-s)", 1.0 / 3.0, lambda A: _res(A, 3.0)),
    ("1/((1-s)(3-s))", 1.0 / 3.0, lambda A: _res(A, 1.0) @ _res(A, 3.0)),
    ("exp(0.5s)", 1.0, lambda A: sla.expm(0.5 * A)),
    ("0.7", 0.7, lambda A: 0.7 * np.eye(A.shape[0])),
    # |0.5 + 0.4/(2-iw)|^2 = 0.25 + 0.96/(4+w^2), largest at w = 0
    ("0.5+0.4/(2-s)", 0.7,
     lambda A: 0.5 * np.eye(A.shape[0]) + 0.4 * _res(A, 2.0)),
)


def norm_ratios(A):
    """||g(A)||_2 / sup|g| for every battery symbol."""
    return [sla.norm(gA(A), 2) / sup for _, sup, gA in BATTERY]


def gramian_constants(A, C):
    """(m_admissible, m_exact): extreme eigenvalues of the Gramian Q with
    A^H Q + Q A = -C^H C."""
    Q = sla.solve_continuous_lyapunov(A.conj().T, -(C.conj().T @ C))
    eigs = sla.eigvalsh(0.5 * (Q + Q.conj().T))
    return float(eigs[-1]), float(eigs[0])


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def _disagree(check, what, value, expected):
    return {"check": check, "what": what, "value": value,
            "expected": expected}


# ---------------------------------------------------------------------------
# per workload


def check_von_neumann(seed, reports):
    """||g(A)|| / ||g|| on every dissipative generator: matches the
    report's von_neumann_ratio and is at most 1."""
    out = []
    by_name = {r.name: r for r in reports}
    sizes = (4, 8, 12, 16)
    for k in range(100):
        n, s = sizes[k % 4], seed + k
        name = f"cor33a[n{n:02d}_seed{s}]"
        if name not in by_name:
            out.append(_disagree(name, "report", None, "present"))
            continue
        ratio = max(norm_ratios(dissipative(n, s)))
        reported = by_name[name].details["von_neumann_ratio"]
        if _rel(reported, ratio) > REL_TOL:
            out.append(_disagree(name, "von_neumann_ratio", reported, ratio))
        if ratio > 1.0 + RATIO_TOL:
            out.append(_disagree(name, "contractive", ratio, 1.0))
    return out


def check_thm33(seed, reports):
    """Gramian constants by scipy match the report; every
    ||g(A)|| / (factor ||g||) is at most 1 and the worst matches the
    report's measured value."""
    out = []
    by_name = {r.name: r for r in reports}
    cases = [("thm33[example26_16]", *example26(16))]
    for k in range(1, 21):
        cases.append((f"thm33[stable8_seed{seed + k}]", stable(8, seed + k),
                      np.eye(8, dtype=complex)))
    for name, A, C in cases:
        if name not in by_name:
            out.append(_disagree(name, "report", None, "present"))
            continue
        rep = by_name[name]
        m_adm, m_exact = gramian_constants(A, C)
        for key, value in (("m_admissible", m_adm), ("m_exact", m_exact)):
            if _rel(rep.details[key], value) > REL_TOL:
                out.append(_disagree(name, key, rep.details[key], value))
        worst = max(norm_ratios(A)) / math.sqrt(m_adm / m_exact)
        if worst > 1.0 + RATIO_TOL:
            out.append(_disagree(name, "bounded", worst, 1.0))
        if abs(rep.bound_measured - worst) > RATIO_TOL:
            out.append(_disagree(name, "worst_ratio", rep.bound_measured,
                                 worst))
    return out


def toeplitz_exp_error(grid_n, grid_dt):
    """max |M_g f - f/3| for g = 1/(1-s), f = e^{-2t}: the half-line
    operator gives int_0^inf e^{-u} e^{-2(t+u)} du = e^{-2t}/3."""
    from hardycalc.hardy import GridSpec, SampledSignal, times, toeplitz_apply
    from hardycalc.symbols import atom

    grid = GridSpec(grid_n, grid_dt)
    f = np.exp(-2.0 * times(grid))
    out = toeplitz_apply(atom(1.0, 1.0), SampledSignal(grid, f)).values
    return float(np.max(np.abs(out - f / 3.0)))


def check_fft_grid(config_by_name, reports):
    """Example 2.6 constants 1/2 and peak 1/e; the Toeplitz operator of
    1/(1-s) maps e^{-2t} to e^{-2t}/3 on the workload's grid."""
    out = []
    by_name = {r.name: r for reps in reports.values() for r in reps}
    expected = (
        ("example26_gramian", "m_admissible", 0.5, EXAMPLE26_TOL),
        ("example26_gramian", "m_exact", 0.5, EXAMPLE26_TOL),
        ("example26_sharpness_floor", "min_scan_value", math.exp(-1.0),
         PEAK_TOL),
        ("analytic_lemma", "analytic_sup", math.exp(-1.0), PEAK_TOL),
    )
    for name, key, value, tol in expected:
        if name in by_name and abs(by_name[name].details[key] - value) > tol:
            out.append(_disagree(name, key, by_name[name].details[key],
                                 value))
    if "toeplitz_norm_bound" in by_name:
        cfg = config_by_name["toeplitz_properties"]
        err = toeplitz_exp_error(cfg.grid_n, cfg.grid_dt)
        if not err <= TOEPLITZ_TOL:
            out.append(_disagree("toeplitz_norm_bound",
                                 "max|M_g e^{-2t} - e^{-2t}/3|", err, 0.0))
    return out


def independent(workload, seed, configs, reports):
    """Disagreements between the program's reports and the independent
    recomputations, one dict per disagreement.  Aborted scenarios are
    already failed and are not checked."""
    if workload == "dense_checks":
        if "von_neumann" not in reports:
            return []
        return check_von_neumann(seed, reports["von_neumann"])
    if workload == "observability":
        if "thm33" not in reports:
            return []
        return check_thm33(seed, reports["thm33"])
    if workload == "fft_grid":
        return check_fft_grid(dict(configs), reports)
    raise ValueError(f"unknown workload {workload!r}")
