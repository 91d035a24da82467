"""Discrete half-line machinery: the Toeplitz operator M_g acting on sampled
scalar signals, and the one rule for which grids carry it.

Signals live on a uniform grid over [0, T_h).  M_g is realized on the
doubled (zero-padded) window: the padded DFT turns the anticausal
convolution by the symbol's one-sided kernel into a frequency multiplier,
and restriction back to the first window is the discrete causal projection.
`toeplitz_apply` is the composition of three private steps: the guarded
padded spectrum of the input, the product with a multiplier, and the causal
window (the inverse DFT restricted to the first window).

Each step takes one row, time along it, and each FFT transforms that
contiguous row in place, with the bits of numpy's multi-row call, which
maps a fresh scratch buffer of several MB on every call.  A one-row call
takes scratch too: numpy's pocketfft allocates about 4 MiB on every
2^17-point call, which a fresh interpreter maps afresh each time (992
minor faults a call).  Once glibc has raised its mmap threshold, as it has
after the first transforms of a Toeplitz check, the scratch comes from the
reused heap: on one thread the check's 225 transforms fault 3.0k times in
all in a fresh interpreter and 1.5k times in a second check.  A row
carries one scalar signal or, when the caller knows the discrete kernel to
be real (it then maps real signals to real signals), two real signals
a + ib, and the norms and the wraparound guard then read its real and
imaginary parts as two signals.  A caller that applies several symbols to
several signals builds each kernel, each spectrum and each multiplier once
and runs the steps through a work row it passes as `out`.  Because the
causal window is linear, a residual between two applications is formed in
the spectrum and takes one inverse DFT, not two (`_difference`).

A real kernel's multiplier may be held on its n + 1 nonnegative bins
alone, half the window: bin 2n - k is conj(bin k), and `_bins` multiplies
by either form, bit for bit alike.

`toeplitz_residuals` runs the steps over a battery of symbols and a stack
of signals: the shift walk, then the product walk, each in two halves
through `two_way`, the calling thread one and a second thread the other.
The steps keep no state and numpy's FFTs and ufunc loops release the GIL,
so the halves run at once.  They write disjoint outputs through buffers
allocated on the calling thread, and their results merge by key, so every
result is the one a walk on one thread gives, bit for bit.  The second
thread keeps its own pocketfft scratch in its own glibc malloc arena,
about 4 MiB more resident memory on a 2^17-point window, which stays after
the thread is joined; holding real multipliers on half the window pays for
it, and the rows that thread writes are allocated by its caller, so that
they stay out of its arena.

The multiplier is not the raw boundary sample g(i omega_j): it is the
transfer function of the sampled kernel with order-4 endpoint weights
(3/8, 7/6, 23/24 on the first three samples).  That choice keeps the
discrete operator family multiplicative and shift-commuting to the h^4
level, converges to g(i omega) as the grid is refined, and is exact for
constants (scalings) and for delays by a whole number of steps (pure
phases that shift by whole samples); a delay between grid points is a
band-limited shift of the padded window, not a sample shift.  A kernel
mode's weighted sum over the samples is a rational function of
q = e^{-alpha dt} exp(i omega dt) with coefficients fixed per mode, so the
unit-circle points exp(i omega dt) are computed once for all modes, and,
for a kernel with real coefficients, only on the n + 1 bins of nonnegative
frequency, since its negative bins are the conjugated positive ones.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .symbols import kernel, multiply, to_text

__all__ = [
    "GridSpec",
    "SampledSignal",
    "WraparoundError",
    "discrete_multiplier",
    "times",
    "toeplitz_apply",
    "toeplitz_residuals",
    "two_way",
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
    """values[k] ~ f(k dt), a scalar signal of shape (n,)."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.shape != (self.grid.n_samples,):
            raise ValueError(f"signal shape {v.shape} is not (n_samples,)")
        if not np.all(np.isfinite(v)):
            raise ValueError("signal contains non-finite values")
        object.__setattr__(self, "values", v)


def _l2_norms(row, dt, two=False):
    """Discrete L2 norms sqrt(dt * sum of squared sample moduli) of the
    signals a row carries, a list: its one signal or, if `two`, the two
    real signals in its real and imaginary parts.  The sums are numpy's
    pairwise sums rather than a BLAS dot, so the values do not depend on
    the BLAS thread count."""
    re = np.sum(np.square(row.real))
    im = np.sum(np.square(row.imag))
    return [math.sqrt(dt) * math.sqrt(x) for x in ((re, im) if two
                                                   else (re + im,))]


def _whole_steps(tau, dt):
    """The whole number m of steps of dt with |tau/dt - m| <= 1e-9, or None
    if there is none: the one test of whether a shift or an offset falls on
    the grid."""
    m = round(tau / dt)
    return m if abs(tau / dt - m) <= 1e-9 else None


def _shift_into(values, tau, dt, out):
    """The left shift f(t + tau), tau = m dt with m >= 0, of the samples
    `values` on a step dt, written to out, an array of their length; the
    vacated samples at the far end are zero (negligible for decaying f)."""
    m = _whole_steps(tau, dt)
    if m is None or m < 0:
        raise ValueError("shift requires tau a nonnegative multiple of dt")
    kept = max(len(values) - m, 0)
    out[:kept] = values[m:]
    out[kept:] = 0.0
    return out


def _require_grid_fits(kernels, grid, taus):
    """WraparoundError, naming the cause, unless the grid carries M_g for
    each (symbol, kernel) pair and the shifts taus: the Toeplitz checks
    pass their shifts, the Toeplitz route to g(A) none.

    Every mode that starts before the horizon (`discrete_multiplier` skips
    the others) must have decayed below 1e-6 there: the doubled window wraps
    its tail onto the output, a floor no 1e-6 gate absorbs.  Every shift,
    and every point-mass and mode offset before the horizon, must be a
    whole number of steps (`_whole_steps`): between grid points the
    multiplier's exact phase is a band-limited shift of the padded window,
    not a sample shift, and the checks would measure its ringing at a
    signal's jump instead of the calculus."""
    for g, krep in kernels:
        for _, alpha, _, off in krep.modes:
            decay = alpha.real * (grid.horizon - off)
            if off < grid.horizon and decay < math.log(1e6):
                raise WraparoundError(
                    f"a kernel mode of {to_text(g)} is still e^-{decay:.3g} "
                    "of its peak at the horizon, above 1e-6")
    offsets = [("the shift check shifts by", tau) for tau in taus] + [
        (f"{to_text(g)} has an offset of", tau) for g, krep in kernels
        for tau in [t for _, t in krep.delays] + [o for *_, o in krep.modes]
        if tau < grid.horizon]
    for what, tau in offsets:
        if _whole_steps(tau, grid.dt) is None:
            raise WraparoundError(
                f"{what} {tau:g} = {tau / grid.dt:g} steps of {grid.dt:g}, "
                "between grid points")


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


# Order-4 endpoint weights for the one-sided sum: the first three samples
# carry 3/8, 7/6, 23/24 and every later sample a full weight.
_HEAD = (3.0 / 8.0, 7.0 / 6.0, 23.0 / 24.0)


def _series_numerator(j):
    """Ascending coefficients of N_j with
    sum_{v>=0} w_v v^j q^v = N_j(q) / (1-q)^{j+1}, w the endpoint weights:
    N_j = P_j + (1-q)^{j+1} (w_0 [j=0] + (w_1-1) q + (w_2-1) 2^j q^2)."""
    head = [_HEAD[0] if j == 0 else 0.0, _HEAD[1] - 1.0,
            (_HEAD[2] - 1.0) * 2.0 ** j]
    binom = [(-1.0) ** k * math.comb(j + 1, k) for k in range(j + 2)]
    N = np.convolve(binom, head)
    N[: j + 2] += _eulerian_coeffs(j)
    return N


def _real_coefficients(krep):
    """Whether every mode coefficient, pole and point-mass weight of a
    KernelRep is real: the kernel is then its own conjugate."""
    return (all(c.imag == 0.0 and a.imag == 0.0 for c, a, _, _ in krep.modes)
            and all(w.imag == 0.0 for w, _ in krep.delays))


def _response(krep, omega, grid, out, scratch):
    """Frequency response of the discretized one-sided kernel at the
    frequencies omega, written to out (zeroed first); scratch holds three
    arrays of omega's length."""
    dt = grid.dt
    out.fill(0.0)
    z, a, b = scratch

    def phase(tau, dest):
        """exp(i omega tau), written to dest."""
        np.multiply(1j * tau, omega, out=dest)
        return np.exp(dest, out=dest)

    for weight, tau in krep.delays:
        if tau == 0.0:
            out += weight
        elif tau < grid.horizon:
            out += np.multiply(weight, phase(tau, a), out=a)
    modes = [(c, a, p, off) for c, a, p, off in krep.modes
             if off < grid.horizon]
    if modes:
        phase(dt, z)
    for coef, alpha, p, off in modes:
        j = p - 1
        num = coef * dt ** p / math.factorial(j) * _series_numerator(j)
        np.multiply(z, np.exp(-alpha * dt), out=a)  # q
        b.fill(num[-1])
        for c in num[-2::-1]:
            b *= a
            b += c
        np.subtract(1.0, a, out=a)
        if j:
            a **= j + 1
        b /= a
        if off != 0.0:
            b *= phase(off, a)
        out += b
    return out


# Most bins per block of `_response` and of `_difference`'s scratch: a
# block's frequencies and scratch arrays take under 0.5 MiB.  A range is cut
# into blocks of near-equal length (`_blocks`), nine of 7,281 or 7,282 bins
# for the n + 1 bins of a 65,536-sample grid, so that no block is a single
# bin: a one-bin block of `_response` came out one unit in the last place
# off.
_BLOCK = 8192


def _blocks(lo, hi, size):
    """(start, stop) of the fewest blocks that cut the range lo..hi-1 into
    pieces no longer than size, whose lengths differ by at most one."""
    count = -(-(hi - lo) // size)
    cuts = [lo + k * (hi - lo) // count for k in range(count + 1)]
    return list(zip(cuts, cuts[1:]))


def discrete_multiplier(krep, grid, out=None):
    """Frequency response of the discretized one-sided kernel krep, a
    `KernelRep`, on the doubled window; length 2 n_samples, ordered like
    numpy's FFT bins.

    With z = exp(i omega dt), a mode of pole alpha and power p = j + 1
    contributes scale * N_j(q) / (1-q)^{j+1} at q = e^{-alpha dt} z, so z,
    computed only when a mode starts before the horizon, is the only
    exponential besides the exact phases exp(i omega tau) of delays and
    shifted modes.  Converges to the boundary trace of the originating
    symbol at O(dt^4); the phases of point masses are exact (a constant is
    the mass at 0, added as its weight, since its phase is 1), which makes a
    delay the sample shift only when tau/dt is an integer.  Masses and
    shifted modes at tau >= grid.horizon read only the zero pad and are
    skipped, as their phases would wrap round the doubled window.

    The response is evaluated at numpy's `fftfreq` frequencies in blocks of
    `_BLOCK` bins, elementwise, so the blocks do not change a bit of it: all
    2n bins of a complex kernel, in blocks cut at bin n (the Nyquist bin, at
    -pi/dt), and bins 0..n alone of a kernel with real coefficients, whose
    bin 2n - k is conj(bin k), bin n included, bit for bit, since a real
    measure has m_K(-omega) = conj(m_K(omega)) and conjugation commutes
    exactly with complex products, quotients, integer powers and exp.

    `out`, if given, receives the result in place of a new array: the whole
    window of 2n bins or, for a kernel with real coefficients, its first
    n + 1 bins alone, the half window from which bin 2n - k is conj(bin k)
    (`_bins` multiplies by it so).
    """
    n = grid.n_samples
    real = _real_coefficients(krep)
    if out is None:
        out = np.empty(2 * n, dtype=complex)
    elif len(out) != 2 * n and not (real and len(out) == n + 1):
        raise ValueError("a multiplier takes 2n bins, or n + 1 for a kernel "
                         "with real coefficients")
    blocks = (_blocks(0, n + 1, _BLOCK) if real
              else _blocks(0, n, _BLOCK) + _blocks(n, 2 * n, _BLOCK))
    omega = np.empty(max(hi - lo for lo, hi in blocks))
    scratch = np.empty((3, len(omega)), dtype=complex)
    for lo, hi in blocks:
        w = omega[:hi - lo]
        # numpy's `fftfreq` numbers bin k >= n as k - 2n
        np.multiply(np.arange(lo, hi) - (2 * n if lo >= n else 0),
                    1.0 / (2 * n * grid.dt), out=w)
        w *= 2.0 * math.pi
        _response(krep, w, grid, out[lo:hi], scratch[:, :hi - lo])
    if real:
        if len(out) == 2 * n:
            np.conjugate(out[n - 1:0:-1], out=out[n + 1:])
        out[n] = out[n].conjugate()
    return out


def _guarded_spectrum(samples, out=None, two=False, floors=(0.0, 0.0)):
    """DFT of a row of samples padded with a zero anticausal half, after
    the wraparound guard of each signal the row carries: its one signal or,
    if `two`, the two real signals in its real and imaginary parts.  One
    in-place FFT call, so numpy maps no multi-row scratch.  `out`, if
    given, is a doubled-window row that receives the spectrum in place of
    a new array.

    The guard requires the last quarter of a signal to sit below 1e-6 of
    the signal's peak modulus, so the circular convolution on the doubled
    window stays within the grid error budget of the half-line operator.
    The threshold leaves room for outputs of a previous application, whose
    tails carry the intrinsic multiplier truncation floor
    exp(-alpha*horizon).  floors[s] is the least peak signal s is judged
    against.  Two signals of a row are judged apart: the modulus of the row
    would hide the tail of the smaller one.  Both are judged before the row
    is transformed, one at a time, so the guard's moduli take one signal's
    length.
    """
    n = len(samples)
    for f, least in zip((samples.real, samples.imag) if two else (samples,),
                        floors):
        modulus = np.abs(f)
        peak = max(np.max(modulus), least)
        if peak > 0.0 and np.max(modulus[3 * n // 4:]) > 1e-6 * peak:
            raise WraparoundError("a signal's last quarter exceeds 1e-6 of "
                                  "its peak modulus")
    if out is None:
        out = np.empty(2 * n, dtype=complex)
    out[:n] = samples
    out[n:] = 0.0
    return np.fft.fft(out, out=out)


def _causal_window(spectrum):
    """Inverse DFT of a doubled-window spectrum, in place and in one call
    like `_guarded_spectrum`, restricted to the causal window: a view into
    the overwritten spectrum, so a caller that keeps it copies it rather
    than hold the doubled buffer alive.  Like a `SampledSignal`, the window
    must be finite."""
    np.fft.ifft(spectrum, out=spectrum)
    out = spectrum[:len(spectrum) // 2]
    if not np.all(np.isfinite(out)):
        raise ValueError("signal contains non-finite values")
    return out


def _bins(spectrum, m, lo, hi, out):
    """Bins lo..hi-1 of spectrum * m on a doubled window of 2n bins, written
    to out, for a range on one side of bin n + 1.

    m is the whole window, or the n + 1 bins 0..n of a real kernel's
    multiplier (`discrete_multiplier`), whose bin 2n - k is conj(bin k).
    Above bin n the product then is conj(conj(x) * m_{2n-k}): conjugation
    is an exact negation, so that is x * conj(m_{2n-k}) bit for bit, and no
    mirrored copy of m is made."""
    width = len(spectrum)
    if hi <= width // 2 + 1 or len(m) == width:
        return np.multiply(spectrum[lo:hi], m[lo:hi], out=out)
    np.conjugate(spectrum[lo:hi], out=out)
    out *= m[width - lo:width - hi:-1]
    return np.conjugate(out, out=out)


def _difference(a, ma, b, mb, out, scratch):
    """a * ma - b * mb on a doubled window (`_bins`), written to out, a block
    at a time through a scratch of any length: two applications' residual,
    formed in the spectrum."""
    h = len(a) // 2 + 1
    for lo, hi in (_blocks(0, h, len(scratch))
                   + _blocks(h, len(a), len(scratch))):
        sub = _bins(a, ma, lo, hi, out[lo:hi])
        sub -= _bins(b, mb, lo, hi, scratch[:hi - lo])
    return out


def _apply_multiplier(spectrum, m, out=None):
    """Multiply a doubled-window spectrum by the multiplier m, the whole
    window or a real kernel's half (`_bins`), and take the causal window of
    the product, a view into `out` (a new array if not given); the
    spectrum is left unchanged."""
    if out is None:
        out = np.empty_like(spectrum)
    h = len(spectrum) // 2 + 1
    for lo, hi in ((0, h), (h, len(spectrum))):
        _bins(spectrum, m, lo, hi, out[lo:hi])
    return _causal_window(out)


def toeplitz_apply(g, f):
    """Apply M_g: pad the signal with a zero anticausal half, multiply the
    DFT by the discrete symbol, transform back and keep the causal window.
    The input must pass the wraparound guard of `_guarded_spectrum`."""
    out = _apply_multiplier(_guarded_spectrum(f.values),
                            discrete_multiplier(kernel(g), f.grid))
    return SampledSignal(f.grid, out.copy())


# ---------------------------------------------------------------------------
# the Toeplitz walks


def two_way(task, items):
    """[task(first half of items, 0), task(second half of items, 1)], the
    first half the longer by at most one, and the second on a second
    thread, so the halves run at once.  The halves may write only disjoint
    outputs, and each gets its own buffers by its index.  The thread is
    joined before this returns or raises, and an error of either half is
    raised here, the first half's first.  With nothing in the second half
    no thread is started."""
    cut = (len(items) + 1) // 2
    first, second = items[:cut], items[cut:]
    if not second:
        return [task(first, 0), task(second, 1)]
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


def _pack(stack, real):
    """The rows the walks run on, and the indices of the signals that each
    row carries, two or one.  A real kernel gives
    M_g (a + ib) = M_g a + i M_g b for real a and b, so when every kernel
    is real the leading real signals of the stack go two to a row, a in the
    real part and b in the imaginary part; an odd one out and every complex
    signal keep a row of their own, as every signal does when some kernel
    is complex."""
    lead = next((k for k, f in enumerate(stack) if np.any(f.imag)),
                len(stack))
    pairs = 2 * (lead // 2) if real else 0
    rows = np.concatenate([stack[:pairs:2] + 1j * stack[1:pairs:2].real,
                           stack[pairs:]])
    return rows, ([(k, k + 1) for k in range(0, pairs, 2)]
                  + [(k,) for k in range(pairs, len(stack))])


def _shift_residuals(row, mults, taus, dt, signals, buffers):
    """Shift residuals ||sigma_tau M_{g_i} f_k - M_{g_i} sigma_tau f_k||
    keyed (i, k, t) for multipliers mults[i], the signals f_k that the row
    f carries (k in `signals`: two real signals in its real and imaginary
    parts, or one) and shifts taus[t]; with no shifts, none.

    row is a doubled-window row whose first half holds the samples of f;
    it receives the guarded spectrum of f.  The shifts of f are written
    straight into the shift stack of `buffers`, which receives their
    spectra; `buffers` also holds, for each half of the multipliers, a
    work row and the window that holds M_{g_i} f.  `two_way` transforms the
    row and its shifts in two halves, and then splits the multipliers in
    two halves; per multiplier a half applies the rows one at a time
    through its work row, the first giving M_{g_i} f, held in its window,
    and the others the M_{g_i} sigma_tau f, each subtracted from the shift
    of M_{g_i} f in the anticausal half of the work row, which the causal
    window leaves free."""
    two = len(signals) == 2
    n = len(row) // 2
    shifts, bufs = buffers
    for dest, tau in zip(shifts, taus):
        _shift_into(row[:n], tau, dt, dest[:n])
    two_way(lambda rows, h: [_guarded_spectrum(r[:n], out=r, two=two)
                             for r in rows], [row, *shifts])
    if not taus:
        return {}

    def task(indices, h):
        work, held = bufs[h]
        resid = {}
        for i in indices:
            held[:] = _apply_multiplier(row, mults[i], out=work)
            for t, (tau, shifted) in enumerate(zip(taus, shifts)):
                out = _apply_multiplier(shifted, mults[i], out=work)
                diff = work[n:]
                _shift_into(held, tau, dt, diff)
                diff -= out
                resid.update(zip([(i, k, t) for k in signals],
                                 _l2_norms(diff, dt, two)))
        return resid

    return {key: x for part in two_way(task, range(len(mults)))
            for key, x in part.items()}


def _product_residuals(syms, products, mults, spectra, carried, peaks,
                       grid):
    """Multiplicativity residuals ||M_{g_i g_j} f_k - M_{g_i} M_{g_j} f_k||
    keyed (i, j, k) for each pair (i, j) of indices into syms whose product
    and its kernel are products[i, j], and the norms ||M_{g_j} f_k|| keyed
    (j, k) for every second factor j.

    mults[i] is the multiplier of syms[i], the whole window or a real
    kernel's half (`_bins`), spectra[r] the guarded spectrum of row r,
    which carries the signals f_k with k in carried[r] (`_pack`; only real
    kernels may see a row of two), and peaks[k] the peak of f_k, the floor
    of the guard on M_{g_j} f_k: an output at roundoff (a delay past the
    signal) has no tail to judge.  The pairs are walked by second factor,
    so each product multiplier is built once (or taken from mults when the
    product is itself one of syms), on half the window when both factors
    are, and only the output spectra G_j of M_{g_j} for one symbol are held
    at a time.  Each residual is formed in the spectrum, prod*F - m_i*G_j,
    and takes one inverse DFT.

    Per second factor, `two_way` runs the output rows in two halves and
    then the first factors in two halves, each half building its own
    product multipliers.  Each half runs its rows one at a time through a
    work row, a scratch block (`_difference`) and a held product multiplier
    of its own, all allocated here on the calling thread: full-size
    temporaries would set the peak memory, and freeing them would fragment
    the heap.
    """
    n = grid.n_samples
    halved = all(len(m) == n + 1 for m in mults)
    bufs = [(np.empty(2 * n, dtype=complex),
             np.empty(min(_BLOCK, n + 1), dtype=complex),
             np.empty(n + 1 if halved else 2 * n, dtype=complex))
            for _ in range(2)]
    out_spectra = np.empty_like(spectra)

    def outputs(rows, h):
        work, norms = bufs[h][0], {}
        for r in rows:
            ks = carried[r]
            two = len(ks) == 2
            outs = _apply_multiplier(spectra[r], mults[j], out=work)
            norms.update(zip([(j, k) for k in ks],
                             _l2_norms(outs, grid.dt, two)))
            _guarded_spectrum(outs, out=out_spectra[r], two=two,
                              floors=[peaks[k] for k in ks])
        return norms

    def residuals(firsts, h):
        work, scratch, held = bufs[h]
        resid = {}
        for i in firsts:
            g, krep = products[i, j]
            if g in syms:
                prod = mults[syms.index(g)]
            else:
                half = len(mults[i]) == len(mults[j]) == n + 1
                prod = discrete_multiplier(
                    krep, grid, out=held[:n + 1 if half else 2 * n])
            for r, ks in enumerate(carried):
                _difference(spectra[r], prod, out_spectra[r], mults[i],
                            work, scratch)
                resid.update(zip([(i, j, k) for k in ks],
                                 _l2_norms(_causal_window(work), grid.dt,
                                           len(ks) == 2)))
        return resid

    resid, norms = {}, {}
    for j in sorted({j for _, j in products}):
        for part in two_way(outputs, range(len(carried))):
            norms.update(part)
        for part in two_way(residuals, sorted(i for i, second in products
                                              if second == j)):
            resid.update(part)
    return resid, norms


def toeplitz_residuals(battery, pairs, signals, grid, taus):
    """The measured sides of the Toeplitz identities for a battery of
    symbols g_i on a stack of signals f_k sampled on grid, a row each:

    - shift residuals ||sigma_tau M_{g_i} f_k - M_{g_i} sigma_tau f_k||
      keyed (i, k, t) for each shift taus[t];
    - product residuals ||M_{g_i g_j} f_k - M_{g_i} M_{g_j} f_k|| keyed
      (i, j, k) for each pair (i, j) of indices into the battery;
    - output norms ||M_{g_j} f_k|| keyed (j, k) for every second factor j;
    - the norms ||f_k||, a list.

    The grid-fit rule runs first, on the battery, its pair products and
    the shifts, before any multiplier is built.  Each kernel is built once
    and each battery multiplier once, on half the window for a real
    kernel, and each input spectrum is computed once; outputs are
    recomputed from them rather than held.  When every kernel of the
    battery and its pair products has real coefficients, the real signals
    travel two to a row (`_pack`), and the wraparound guard still judges
    each signal on its own.  The shift walk runs first, through one shift
    stack, and turns each row into its spectrum, the input of the product
    walk.  The stack is not held once its rows are packed, so a caller
    that passes it without keeping it frees it for the walks."""
    syms = list(battery)
    products = {(i, j): multiply(syms[i], syms[j]) for i, j in pairs}
    kernels = [(g, kernel(g)) for g in [*syms, *products.values()]]
    _require_grid_fits(kernels, grid, taus)
    n = grid.n_samples
    mults = [discrete_multiplier(krep, grid, out=np.empty(
        n + 1 if _real_coefficients(krep) else 2 * n, dtype=complex))
        for _, krep in kernels[:len(syms)]]
    f_norms = [_l2_norms(f, grid.dt)[0] for f in signals]
    peaks = [np.max(np.abs(f)) for f in signals]
    rows, carried = _pack(signals, all(_real_coefficients(krep)
                                       for _, krep in kernels))
    # One buffer holds the rows and then their spectra: row r keeps its
    # samples in its first half until the shift walk has used them and
    # replaces the row by the spectrum.
    spectra = np.empty((len(rows), 2 * n), dtype=complex)
    spectra[:, :n] = rows
    del signals, rows
    # the shift walk's buffers, allocated once on the calling thread
    buffers = (np.empty((len(taus), 2 * n), dtype=complex),
               [(np.empty(2 * n, dtype=complex),
                 np.empty(n, dtype=complex)) for _ in range(2)])
    shifted = {}
    for r, ks in enumerate(carried):
        shifted.update(_shift_residuals(spectra[r], mults, taus, grid.dt,
                                        ks, buffers))
    del buffers
    resid, norms = _product_residuals(
        syms, dict(zip(products, kernels[len(syms):])), mults, spectra,
        carried, peaks, grid)
    return shifted, resid, norms, f_norms
