"""Four independent routes to g(A) for a stable generator A.

* spectral: evaluate g on the eigenvalues (diagonal generators only);
* closed form (`_gA_exact`): partial fractions,
  g(A) = sum c_k T(s_k) (alpha_k I - A)^{-p_k} + sum w_j T(tau_j),
  resolvent powers at the poles with a semigroup factor for each shift and
  point mass (a constant is the mass at tau = 0, and T(0) = I); private,
  because it is the reference the verifier's checks read;
* convolution: g(A) = integral of T(u) against the symbol's one-sided
  kernel, by the exact doublings of `semigroup.mode_integrals`, over a
  horizon with a certified truncation tail; it takes a batch of symbols
  and runs one chain over the union of the batch's poles, on the longest
  horizon any of their modes needs;
* toeplitz: g(A) is the output operator whose output map is M_g on the
  orbit, (M_g T(.)x)(t) = g(A) T(t) x, so g(A) is the t = 0 sample of the
  discrete half-line operator applied to the sampled orbit t -> T(t).

The routes share no numerics beyond the semigroup itself, so pairwise
agreement is strong evidence that each one is computing the same operator.
Each route returns the matrix g(A); the convolution route returns one
`GAResult` per symbol, g(A) with an error estimate, which the verifier's
calculus checks claim.
`verifier` makes the verdicts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numkernel import ConvergenceError
from .semigroup import (evaluate_T, mode_integrals, resolvent, sampled_T,
                        semigroup_bounds)
from .symbols import eval_at, kernel
from .hardy import SampledSignal, toeplitz_apply

__all__ = [
    "GAResult",
    "gA_convolution",
    "gA_spectral",
    "gA_toeplitz",
]


@dataclass(frozen=True)
class GAResult:
    matrix: np.ndarray
    est_error: float


def gA_spectral(gen, g):
    """g(A) by evaluating g on the spectrum; exact for diagonal generators."""
    if gen.kind != "diagonal":
        raise ValueError("spectral route requires a diagonal generator")
    return np.diag(eval_at(g, gen.eigenvalues))


def _gA_exact(gen, g):
    """g(A) in closed form from the symbol's kernel: resolvent powers at the
    poles, T(offset) for a shifted mode and w T(tau) for each point mass."""
    krep = kernel(g)
    N = gen.dimension
    out = np.zeros((N, N), dtype=complex)
    for w, tau in krep.delays:
        out = out + w * evaluate_T(gen, tau)
    for c, alpha, p, off in krep.modes:
        R = resolvent(gen, alpha)
        term = R
        for _ in range(p - 1):
            term = term @ R
        if off != 0.0:
            term = evaluate_T(gen, off) @ term
        out = out + c * term
    return out


def _mode_tail(K, c, tstar, p):
    """int_{tstar}^inf K t^{p-1} e^{-c t}/(p-1)! dt
    = K e^{-c tstar} sum_{k<p} tstar^k / (k! c^{p-k}), exact for every p."""
    return K * math.exp(-c * tstar) * sum(
        tstar ** k / (math.factorial(k) * c ** (p - k)) for k in range(p))


def _integrate_modes(gen, poles):
    """int_0^inf T(u) u^{p-1} e^{-alpha u}/(p-1)! du for every (alpha, p) in
    poles, the union of a batch's kernel modes, by one `mode_integrals`
    chain up to the longest horizon any of them needs: the first power of
    two where its truncation tail under the certified envelope
    ||T(t)|| <= K e^{-rate t} is below 1e-14.  Maps each (alpha, p) to its
    integral and error estimate: start-step change + tail + roundoff."""
    rate = gen.decay_rate()
    K = gen.envelope_constant()
    tstar = 1.0
    for alpha, p in poles:
        t = 1.0
        while _mode_tail(K, rate + alpha.real, t, p) > 1e-14:
            t *= 2.0
            if t > 1e7:
                raise ConvergenceError("convolution horizon did not close")
        tstar = max(tstar, t)
    sums, changes = mode_integrals(gen, poles, tstar)
    return {(alpha, p): (s, c + _mode_tail(K, rate + alpha.real, tstar, p)
                         + 1e-12 * max(1.0, float(np.linalg.norm(s))))
            for (alpha, p), s, c in zip(poles, sums, changes)}


def gA_convolution(gen, symbols):
    """g(A) for each symbol, in order, as the semigroup integrated against
    the symbol's kernel: one `_integrate_modes` chain over the union of the
    batch's poles, and one T(tau) per distinct delay or offset tau."""
    kernels = [kernel(g) for g in symbols]
    poles = list(dict.fromkeys((alpha, p) for krep in kernels
                               for _, alpha, p, _ in krep.modes))
    table = _integrate_modes(gen, poles) if poles else {}
    shifts = {}

    def shift(tau):
        if tau not in shifts:
            shifts[tau] = evaluate_T(gen, tau)
        return shifts[tau]

    N = gen.dimension
    out = []
    for krep in kernels:
        ga = np.zeros((N, N), dtype=complex)
        est = 0.0
        for w, tau in krep.delays:
            ga = ga + w * shift(tau)
        for c, alpha, p, off in krep.modes:
            B, e = table[alpha, p]
            term = c * B
            if off != 0.0:
                term = shift(off) @ term
            ga = ga + term
            est += abs(c) * e
        out.append(GAResult(ga, est))
    return out


def _require_horizon(gen, grid):
    horizon = semigroup_bounds(gen, 1e-10)
    if grid.horizon < horizon:
        raise ValueError(
            f"grid horizon {grid.horizon:g} is shorter than the decay "
            f"horizon {horizon:g}; enlarge the grid")


def gA_toeplitz(gen, g, grid):
    """g(A) as the t = 0 sample of M_g applied to the matrix orbit
    t -> T(t)."""
    _require_horizon(gen, grid)
    n = grid.n_samples
    N = gen.dimension
    orbit = SampledSignal(grid, sampled_T(gen, grid.dt, n).reshape(n, N * N))
    return toeplitz_apply(g, orbit).values[0].reshape(N, N)
