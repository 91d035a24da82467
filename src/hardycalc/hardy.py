"""Discrete half-line machinery: shift and the Toeplitz operator M_g acting
on sampled vector-valued signals.

Signals live on a uniform grid over [0, T_h).  M_g is realized on the
doubled (zero-padded) window: the padded DFT turns the anticausal
convolution by the symbol's one-sided kernel into a frequency multiplier,
and restriction back to the first window is the discrete causal projection.
`toeplitz_apply` is the composition of three private steps: the guarded
padded spectrum of the input, the product with a multiplier, and the causal
window (the inverse DFT restricted to the first window).  A caller that
applies several symbols to one signal, or one symbol to several signals,
builds each spectrum and each multiplier once and combines them with the
same steps.  Because the causal window is linear, a residual between two
applications is formed in the spectrum and takes one inverse DFT, not two.

The multiplier is not the raw boundary sample g(i omega_j): it is the
transfer function of the sampled kernel with order-4 endpoint weights
(3/8, 7/6, 23/24 on the first three samples).  That choice keeps the
discrete operator family multiplicative and shift-commuting to the h^4
level, converges to g(i omega) as the grid is refined, and is exact for
delay and constant symbols (pure phases and scalings).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .symbols import KernelRep, kernel

__all__ = [
    "GridSpec",
    "SampledSignal",
    "WraparoundError",
    "discrete_multiplier",
    "l2_norm",
    "shift",
    "times",
    "toeplitz_apply",
]


class WraparoundError(ValueError):
    """The signal does not decay enough for the doubled-window realization."""


@dataclass(frozen=True)
class GridSpec:
    """Uniform sampling grid: n_samples (a power of two, >= 8) steps of dt."""

    n_samples: int
    dt: float

    def __post_init__(self):
        n = self.n_samples
        if n < 8 or (n & (n - 1)) != 0:
            raise ValueError("n_samples must be a power of two, >= 8")
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError("dt must be positive and finite")

    @property
    def horizon(self):
        return self.n_samples * self.dt


def times(grid):
    return np.arange(grid.n_samples) * grid.dt


@dataclass(frozen=True)
class SampledSignal:
    """values[k] ~ f(k dt); scalar signals are shape (n,), vector-valued
    signals shape (n, d)."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.shape[0] != self.grid.n_samples:
            raise ValueError("signal length must equal n_samples")
        if not np.all(np.isfinite(v)):
            raise ValueError("signal contains non-finite values")
        object.__setattr__(self, "values", v)


def l2_norm(f):
    """Discrete L2 norm sqrt(dt * sum of squared sample norms).

    The sums are numpy's pairwise sums rather than a BLAS dot, so the value
    does not depend on the BLAS thread count."""
    v = f.values
    return math.sqrt(f.grid.dt) * math.sqrt(
        float(np.sum(np.square(v.real)) + np.sum(np.square(v.imag))))


def shift(f, tau):
    """Left shift (sigma_tau f)(t) = f(t + tau) for tau = m dt, m >= 0;
    vacated samples at the far end are zero (negligible for decaying f)."""
    m_float = tau / f.grid.dt
    m = int(round(m_float))
    if abs(m_float - m) > 1e-9 or m < 0:
        raise ValueError("shift requires tau a nonnegative multiple of dt")
    out = np.zeros_like(f.values)
    if m < f.grid.n_samples:
        out[: f.grid.n_samples - m] = f.values[m:]
    return SampledSignal(f.grid, out)


# ---------------------------------------------------------------------------
# discrete multiplier


def _eulerian_coeffs(j):
    """Ascending coefficients of the numerator polynomial P_j with
    sum_{v>=1} v^j q^v = P_j(q) / (1-q)^{j+1}."""
    P = np.array([0.0, 1.0])
    for k in range(1, j + 1):
        dP = P[1:] * np.arange(1, len(P))
        term = np.convolve(dP, np.array([1.0, -1.0]))  # P' * (1 - q)
        length = max(len(term), len(P))
        S = np.zeros(length)
        S[: len(term)] += term
        S[: len(P)] += k * P
        P = np.concatenate([[0.0], S])  # multiply by q
    return P


def _power_sum(j, q, out, scratch):
    """sum_{v>=1} v^j q^v elementwise for |q| < 1, written to out; scratch
    is a second array of q's shape that the call overwrites."""
    coeffs = _eulerian_coeffs(j)
    out.fill(0.0)
    for c in coeffs[::-1]:
        np.multiply(out, q, out=out)
        np.add(out, c, out=out)
    np.subtract(1.0, q, out=scratch)
    # `**=`, not np.power: like `**` it squares through np.square, whose
    # bits differ from np.power(z, 2)
    scratch **= j + 1
    return np.divide(out, scratch, out=out)


# Order-4 endpoint weights for the one-sided sum: the first three samples
# carry 3/8, 7/6, 23/24 and every later sample a full weight.
_HEAD = (3.0 / 8.0, 7.0 / 6.0, 23.0 / 24.0)


def discrete_multiplier(krep, grid):
    """Frequency response of the discretized one-sided kernel on the doubled
    window; length 2 n_samples, ordered like numpy's FFT bins.

    Converges to the boundary trace of the originating symbol at O(dt^4);
    delay and constant parts are represented exactly.
    """
    if not isinstance(krep, KernelRep):
        krep = kernel(krep)
    n2 = 2 * grid.n_samples
    dt = grid.dt
    omega = 2.0 * math.pi * np.fft.fftfreq(n2, d=dt)
    m = np.full(n2, krep.constant, dtype=complex)
    # Each step writes into one of four scratch arrays, in the order of the
    # expressions in the comments, so the result is bit for bit the value
    # of those expressions without their full-length temporaries.
    q, a, b, c = (np.empty(n2, dtype=complex) for _ in range(4))
    for weight, tau in krep.delays:
        # m += weight * np.exp(1j * omega * tau)
        np.multiply(1j, omega, out=a)
        np.multiply(a, tau, out=a)
        np.exp(a, out=a)
        np.multiply(weight, a, out=a)
        m += a
    for coef, alpha, p, off in krep.modes:
        # q = np.exp((-alpha + 1j * omega) * dt)
        np.multiply(1j, omega, out=q)
        np.add(-alpha, q, out=q)
        np.multiply(q, dt, out=q)
        np.exp(q, out=q)
        j = p - 1
        head0 = _HEAD[0] if p == 1 else 0.0
        # tail = _power_sum(j, q) - q - float(2 ** j) * q * q, in a
        _power_sum(j, q, a, b)
        np.subtract(a, q, out=a)
        np.multiply(float(2 ** j), q, out=b)
        np.multiply(b, q, out=b)
        np.subtract(a, b, out=a)
        # series = (head0 + _HEAD[1] * q + _HEAD[2] * float(2 ** j) * q * q
        #           + tail), in b
        np.multiply(_HEAD[1], q, out=b)
        np.add(head0, b, out=b)
        np.multiply(_HEAD[2] * float(2 ** j), q, out=c)
        np.multiply(c, q, out=c)
        np.add(b, c, out=b)
        np.add(b, a, out=b)
        # m += scale * phase * series, phase = np.exp(1j * omega * off) or 1
        scale = coef * dt ** p / math.factorial(j)
        if off != 0.0:
            np.multiply(1j, omega, out=c)
            np.multiply(c, off, out=c)
            np.exp(c, out=c)
            np.multiply(scale, c, out=c)
            np.multiply(c, b, out=b)
        else:
            np.multiply(scale, b, out=b)
        m += b
    return m


def _sample_norms(values):
    if values.ndim == 1:
        return np.abs(values)
    return np.linalg.norm(values, axis=1)


def _guarded_spectrum(f):
    """DFT of f padded with a zero anticausal half, after the wraparound
    guard.

    The guard requires the last quarter of the input to sit below 1e-6 of
    the peak sample norm, so the circular convolution on the doubled window
    stays within the grid error budget of the half-line operator.  The
    threshold leaves room for outputs of a previous application, whose tails
    carry the intrinsic multiplier truncation floor exp(-alpha*horizon).
    """
    n = f.grid.n_samples
    norms = _sample_norms(f.values)
    peak = float(np.max(norms)) if norms.size else 0.0
    if peak > 0.0 and float(np.max(norms[3 * n // 4:])) > 1e-6 * peak:
        raise WraparoundError("signal tail violates the wraparound guard")
    padded = np.concatenate([f.values, np.zeros_like(f.values)], axis=0)
    return np.fft.fft(padded, axis=0, out=padded)


def _causal_window(spectrum, grid):
    """Inverse DFT of a doubled-window spectrum, in place, and a copy of its
    causal window, so the result does not hold the doubled buffer alive.
    The spectrum is overwritten."""
    out = np.fft.ifft(spectrum, axis=0, out=spectrum)[:grid.n_samples].copy()
    return SampledSignal(grid, out)


def _apply_multiplier(spectrum, m, grid):
    """Multiply a doubled-window spectrum by the multiplier m and take the
    causal window of the product; the spectrum is left unchanged."""
    product = spectrum * m if spectrum.ndim == 1 else spectrum * m[:, None]
    return _causal_window(product, grid)


def toeplitz_apply(g, f):
    """Apply M_g: pad the signal with a zero anticausal half, multiply the
    DFT by the discrete symbol, transform back and keep the causal window.
    The input must pass the wraparound guard of `_guarded_spectrum`."""
    return _apply_multiplier(_guarded_spectrum(f),
                             discrete_multiplier(g, f.grid), f.grid)
