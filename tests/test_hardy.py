"""Discrete half-line transform machinery.

The heavy oracles: the one-sided operator with symbol 1/(2-s) maps e^{-t}
to e^{-t}/3 exactly in the continuum, and the L2 norm of e^{-t} is
sqrt(1/2).  Both are checked at fixed grids with frozen tolerances.
"""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

import hardycalc
from conftest import l2_norm, shift
from hardycalc.hardy import (
    GridSpec,
    SampledSignal,
    WraparoundError,
    _apply_multiplier,
    _causal_window,
    _difference,
    _guarded_spectrum,
    _l2_norms,
    _series_numerator,
    discrete_multiplier,
    times,
    toeplitz_apply,
)
from hardycalc.symbols import (Constant, Delay, add, atom, hinf_norm, kernel,
                               multiply, parse, to_text)


def _exp_signal(grid, rate=1.0):
    t = times(grid)
    return SampledSignal(grid, np.exp(-rate * t).astype(complex))


class TestGridSpec:
    def test_horizon(self):
        assert GridSpec(16, 0.25).horizon == 4.0

    def test_times(self):
        t = times(GridSpec(8, 0.5))
        assert np.allclose(t, np.arange(8) * 0.5)

    def test_rejects_bad_sizes(self):
        for n in (24, 4, 0, -8):
            with pytest.raises(ValueError):
                GridSpec(n, 0.25)
        for dt in (0.0, -0.25, math.inf, math.nan):
            with pytest.raises(ValueError):
                GridSpec(16, dt)


class TestSampledSignal:
    def test_length_check(self):
        with pytest.raises(ValueError):
            SampledSignal(GridSpec(16, 0.25), np.ones(10))

    def test_finite_check(self):
        with pytest.raises(ValueError):
            SampledSignal(GridSpec(16, 0.25), np.array([np.nan] + [0.0] * 15))

    @pytest.mark.parametrize("values", [np.zeros((16, 3)), np.float64(1.0)],
                             ids=["2-D", "scalar"])
    def test_only_one_dimensional(self, values):
        with pytest.raises(ValueError, match="shape"):
            SampledSignal(GridSpec(16, 0.25), values)


class TestL2Norm:
    def test_zero(self):
        assert l2_norm(SampledSignal(GridSpec(8, 0.5), np.zeros(8))) == 0.0

    def test_impulse(self):
        grid = GridSpec(8, 0.25)
        v = np.zeros(8)
        v[0] = 1.0
        assert l2_norm(SampledSignal(grid, v)) == pytest.approx(0.5)

    def test_exponential_oracle(self):
        # integral of e^{-2t} over (0, inf) is 1/2; measured error 8.6e-5
        grid = GridSpec(2 ** 16, 2.0 ** -12)
        val = l2_norm(_exp_signal(grid))
        assert abs(val - math.sqrt(0.5)) < 1e-4

    def test_independent_of_blas_threads(self):
        # a BLAS dot splits its sum by thread; numpy's pairwise sum does not
        src = str(Path(hardycalc.__file__).resolve().parents[1])
        code = ("import numpy as np; from hardycalc.hardy import _l2_norms; "
                "rng = np.random.default_rng(3); n = 65536; "
                "v = rng.standard_normal(n) + 1j * rng.standard_normal(n); "
                "print(_l2_norms(v, 2.0 ** -8)[0].hex())")
        outs = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads)
            outs.append(subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True,
                timeout=60, check=True, env=env).stdout.strip())
        assert outs[0] == outs[1]


class TestShift:
    def test_grid_shift(self):
        grid = GridSpec(16, 0.25)
        f = SampledSignal(grid, np.arange(16.0))
        out = shift(f, 0.5)
        assert np.allclose(out.values[:14].real, np.arange(2.0, 16.0))
        assert np.allclose(out.values[14:], 0.0)

    def test_zero_is_identity(self):
        grid = GridSpec(16, 0.25)
        f = _exp_signal(grid)
        assert np.array_equal(shift(f, 0.0).values, f.values)

    def test_rejects_off_grid_and_negative(self):
        f = _exp_signal(GridSpec(16, 0.25))
        for tau in (0.3, -0.25):
            with pytest.raises(ValueError):
                shift(f, tau)


class TestDiscreteMultiplier:
    def test_constant_bins(self):
        grid = GridSpec(64, 0.125)
        m = discrete_multiplier(kernel(Constant(0.7)), grid)
        assert m.shape == (128,)
        assert np.allclose(m, 0.7)

    @pytest.mark.parametrize("c", [0.7, -1.25, 0.3 - 0.2j])
    def test_constant_is_exact_on_every_bin(self, c):
        m = discrete_multiplier(kernel(Constant(c)), GridSpec(64, 0.125))
        assert np.all(m == c)

    def test_delay_phase(self):
        grid = GridSpec(64, 0.125)
        m = discrete_multiplier(kernel(Delay(0.5)), grid)
        omega = 2.0 * math.pi * np.fft.fftfreq(128, d=0.125)
        assert np.allclose(m, np.exp(1j * omega * 0.5))

    def test_atom_matches_boundary_to_fourth_order(self):
        # the discrete symbol approximates c/(alpha - i w) with O(dt^4) error
        # at moderate frequencies
        alpha, c = 2.0, 1.0
        errs = []
        for k in (6, 7):
            grid = GridSpec(2 ** k, 2.0 ** -k)
            m = discrete_multiplier(kernel(atom(c, alpha)), grid)
            omega = 2.0 * math.pi * np.fft.fftfreq(2 ** (k + 1), d=grid.dt)
            keep = np.abs(omega) < 8.0
            ref = c / (alpha - 1j * omega[keep])
            errs.append(float(np.max(np.abs(m[keep] - ref))))
        assert errs[1] < errs[0] / 8.0


# the order-4 endpoint weights of the first three samples, restated from
# the definition of the discrete multiplier
_WEIGHTS = (mp.mpf(3) / 8, mp.mpf(7) / 6, mp.mpf(23) / 24)


def _mp_multiplier(krep, grid, k):
    """The multiplier at FFT bin k from its definition at 40 digits:
    w e^{i omega tau} per point mass and, per mode, the endpoint-
    weighted sum scale e^{i omega offset} sum_v w_v v^j q^v with
    q = e^{(-alpha + i omega) dt}, the full power sum taken as polylog(-j, q)
    and the first three terms reweighted."""
    with mp.workdps(40):
        n = grid.n_samples
        freq = k if k < n else k - 2 * n  # numpy's bin order
        omega = 2 * mp.pi * freq / (2 * n * mp.mpf(grid.dt))
        out = mp.mpc(0)
        for weight, tau in krep.delays:
            out += weight * mp.expj(omega * tau)
        for c, alpha, p, off in krep.modes:
            j = p - 1
            q = mp.exp((-mp.mpc(alpha) + 1j * omega) * grid.dt)
            series = (mp.polylog(-j, q) + (_WEIGHTS[0] if j == 0 else 0)
                      + (_WEIGHTS[1] - 1) * q
                      + (_WEIGHTS[2] - 1) * 2 ** j * q ** 2)
            out += (c * mp.mpf(grid.dt) ** p / mp.factorial(j)
                    * mp.expj(omega * off) * series)
        return complex(out)


# simple, repeated (up to power 4) and complex poles, constants, delays and
# delayed atoms (mode offsets)
MULTIPLIER_SYMBOLS = (
    atom(1.0, 1.0),
    multiply(atom(1.0, 1.0), atom(1.0, 3.0)),
    multiply(atom(1.0, 2.0), atom(1.0, 2.0)),
    multiply(multiply(atom(1.0, 2.0), atom(1.0, 2.0)),
             multiply(atom(0.5, 2.0), atom(1.0, 2.0))),
    atom(0.3 - 0.2j, 1.5 + 4.0j),
    add(atom(0.4, 2.0), Constant(0.5)),
    Delay(0.5),
    multiply(Delay(0.25), atom(1.0, 3.0)),
    add(multiply(Delay(0.125), multiply(atom(1.0, 1.0), atom(2.0, 1.0))),
        add(Delay(0.375), atom(1.0, 0.5 - 2.0j))),
)


class TestMultiplierOracle:
    @pytest.mark.parametrize("g", MULTIPLIER_SYMBOLS, ids=to_text)
    def test_matches_mpmath_reference(self, g):
        # bins 0, 1, 2, 100, Nyquist and the last negative frequency
        grid = GridSpec(1024, 2.0 ** -6)
        krep = kernel(g)
        m = discrete_multiplier(krep, grid)
        for k in (0, 1, 2, 100, 1024, 2047):
            ref = _mp_multiplier(krep, grid, k)
            assert abs(m[k] - ref) <= 1e-12 * abs(ref), k


def _full_window_multiplier(krep, grid):
    """The multiplier evaluated on all 2n bins of the doubled window at
    numpy's `fftfreq` frequencies, negative ones included, with the same
    mode recurrence: the reference for the half-window build."""
    dt = grid.dt
    omega = 2.0 * math.pi * np.fft.fftfreq(2 * grid.n_samples, d=dt)
    m = np.zeros(len(omega), dtype=complex)
    for weight, tau in krep.delays:
        if tau < grid.horizon:
            m += weight * np.exp(1j * tau * omega)
    for coef, alpha, p, off in krep.modes:
        if off >= grid.horizon:
            continue
        j = p - 1
        num = coef * dt ** p / math.factorial(j) * _series_numerator(j)
        q = np.exp(1j * dt * omega) * np.exp(-alpha * dt)
        series = np.full(len(omega), num[-1], dtype=complex)
        for c in num[-2::-1]:
            series = series * q + c
        m += series / (1.0 - q) ** (j + 1) * np.exp(1j * off * omega)
    return m


_ORACLE_GRIDS = (GridSpec(64, 0.125), GridSpec(1024, 2.0 ** -6),
                 GridSpec(4096, 0.01), GridSpec(2048, 1.0 / 3.0))


def _grid_id(grid):
    return f"{grid.n_samples}x{grid.dt:g}"


def _is_real(krep):
    return (all(c.imag == 0.0 and a.imag == 0.0 for c, a, _, _ in krep.modes)
            and all(w.imag == 0.0 for w, _ in krep.delays))


class TestHalfWindowMultiplier:
    @pytest.mark.parametrize("grid", _ORACLE_GRIDS, ids=_grid_id)
    @pytest.mark.parametrize("g", MULTIPLIER_SYMBOLS, ids=to_text)
    def test_matches_full_window(self, g, grid):
        # bins 2n-k are conj(H_{conj K}(omega_k)); agreement is bit for bit
        # on numpy 2.4 with glibc's libm, the bound leaves room for a libm
        # whose exp is not exactly odd in its imaginary part
        krep = kernel(g)
        m = discrete_multiplier(krep, grid)
        ref = _full_window_multiplier(krep, grid)
        assert np.max(np.abs(m - ref)) <= 1e-15 * np.max(np.abs(ref))

    @pytest.mark.parametrize("grid", _ORACLE_GRIDS, ids=_grid_id)
    @pytest.mark.parametrize(
        "g", [g for g in MULTIPLIER_SYMBOLS if _is_real(kernel(g))],
        ids=to_text)
    def test_real_kernel_is_hermitian(self, g, grid):
        n = grid.n_samples
        m = discrete_multiplier(kernel(g), grid)
        assert np.array_equal(m[n + 1:][::-1], np.conj(m[1:n]))
        assert m[0].imag == 0.0


class TestInPlaceMultiplier:
    @pytest.mark.parametrize("g", MULTIPLIER_SYMBOLS + (Constant(0.7),),
                             ids=to_text)
    def test_one_window_exp_per_phase(self, g, monkeypatch):
        # per block of bins: exp(i omega dt) once if there is a mode, then
        # one exponential per delay other than the mass at 0 and per shifted
        # mode, a mode's q being a scalar times exp(i omega dt); a real
        # kernel takes one block of the n + 1 nonnegative bins, a complex
        # one two of n bins, cut at bin n
        grid = GridSpec(64, 0.125)
        krep = kernel(g)
        real_exp, calls = np.exp, []

        def counting_exp(x, *args, **kwargs):
            if np.shape(x) != ():
                calls.append(np.shape(x))
            return real_exp(x, *args, **kwargs)

        monkeypatch.setattr(np, "exp", counting_exp)
        discrete_multiplier(krep, grid)
        delays = sum(0.0 < tau < grid.horizon for _, tau in krep.delays)
        shifted = sum(off != 0.0 for *_, off in krep.modes)
        per_kernel = bool(krep.modes) + delays + shifted
        real = _is_real(krep)
        assert set(calls) <= {(grid.n_samples + real,)}
        assert len(calls) == per_kernel * (1 if real else 2)

    def test_peak_allocation(self):
        # the 2 MB result on the 131,072-point doubled window beside one
        # block's frequencies, exp(i omega dt) and two scratch arrays, under
        # 0.6 MB, the whole peak when the caller holds the n + 1 bins
        krep = kernel(multiply(atom(1.0, 1.0), atom(1.0, 3.0)))
        grid = GridSpec(65536, 2.0 ** -8)
        for out, bound in ((None, 2.7e6),
                           (np.empty(grid.n_samples + 1, dtype=complex),
                            0.6e6)):
            tracemalloc.start()
            try:
                discrete_multiplier(krep, grid, out=out)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < bound


class TestToeplitzApply:
    def test_constant_one_is_identity(self):
        grid = GridSpec(1024, 2.0 ** -6)
        f = _exp_signal(grid, rate=2.0)
        out = toeplitz_apply(Constant(1.0), f)
        assert np.max(np.abs(out.values - f.values)) < 1e-12

    def test_atom_oracle(self):
        # continuum identity: symbol 1/(2-s) acting on e^{-t} gives e^{-t}/3;
        # measured max error 1.6e-10 at this grid
        grid = GridSpec(8192, 2.0 ** -8)
        f = _exp_signal(grid)
        out = toeplitz_apply(atom(1.0, 2.0), f)
        ref = f.values / 3.0
        assert np.max(np.abs(out.values - ref)) < 1e-8

    def test_delay_matches_shift(self):
        grid = GridSpec(1024, 2.0 ** -6)
        f = _exp_signal(grid, rate=2.0)
        tau = 8 * grid.dt
        d1 = toeplitz_apply(Delay(tau), f)
        d2 = shift(f, tau)
        assert l2_norm(SampledSignal(grid, d1.values - d2.values)) < 1e-12

    @pytest.mark.parametrize("text", ["exp(20*s)", "exp(20*s)*(1/(1-s))"])
    def test_shift_past_the_horizon_reads_the_pad(self, text):
        # horizon 16: f(t + 20) lies past the signal for every t, and a
        # phase wrapped round the doubled window of 32 would read f(0) at
        # t = 12
        grid = GridSpec(4096, 2.0 ** -8)
        out = toeplitz_apply(parse(text), _exp_signal(grid, rate=2.0))
        assert np.max(np.abs(out.values)) < 1e-12

    def test_wraparound_guard_constant_signal(self):
        grid = GridSpec(1024, 2.0 ** -6)
        f = SampledSignal(grid, np.ones(1024, dtype=complex))
        with pytest.raises(WraparoundError):
            toeplitz_apply(atom(1.0, 1.0), f)

    def test_wraparound_guard_slow_decay(self):
        # e^{-t/2} on horizon 16 has tail ratio e^{-6} ~ 2.5e-3
        grid = GridSpec(1024, 2.0 ** -6)
        f = _exp_signal(grid, rate=0.5)
        with pytest.raises(WraparoundError):
            toeplitz_apply(atom(1.0, 1.0), f)

    def test_zero_signal_passes(self):
        grid = GridSpec(1024, 2.0 ** -6)
        f = SampledSignal(grid, np.zeros(1024, dtype=complex))
        out = toeplitz_apply(atom(1.0, 1.0), f)
        assert np.max(np.abs(out.values)) == 0.0

    def test_norm_bound_property(self):
        # l2(M_g f) <= hinf(g) l2(f) (1 + 1e-6) over a seeded family
        grid = GridSpec(1024, 2.0 ** -6)
        t = times(grid)
        rng = np.random.default_rng(6)
        syms = (atom(1.0, 1.0), Constant(0.7), Delay(0.5),
                add(atom(0.4, 2.0), Constant(0.5)))
        for _ in range(4):
            rate = rng.uniform(1.5, 3.0)
            phase = rng.uniform(0.0, 4.0)
            f = SampledSignal(grid, np.exp(-rate * t) * np.cos(phase * t))
            for g in syms:
                lhs = l2_norm(toeplitz_apply(g, f))
                rhs = hinf_norm(g) * l2_norm(f)
                assert lhs <= rhs * (1.0 + 1e-6)

    def test_multiplicativity_refines_fourth_order(self):
        g1, g2 = atom(1.0, 1.0), atom(1.0, 3.0)
        prod = multiply(g1, g2)
        resids = []
        for n, dt in ((512, 2.0 ** -5), (1024, 2.0 ** -6)):
            grid = GridSpec(n, dt)
            f = _exp_signal(grid, rate=2.0)
            lhs = toeplitz_apply(prod, f)
            rhs = toeplitz_apply(g1, toeplitz_apply(g2, f))
            resids.append(l2_norm(SampledSignal(grid, lhs.values - rhs.values)))
        assert resids[1] < resids[0] / 4.0

    def test_output_owns_its_window(self):
        # a view into the doubled inverse-DFT buffer would keep 2n samples
        # alive for every stored output
        grid = GridSpec(1024, 2.0 ** -6)
        out = toeplitz_apply(atom(1.0, 1.0), _exp_signal(grid, rate=2.0))
        base = out.values.base
        assert base is None or base.size <= out.values.size

    def test_shared_spectrum_matches_and_is_unchanged(self):
        # one guarded spectrum serves several multipliers: each product must
        # equal toeplitz_apply bit for bit and leave the spectrum intact
        grid = GridSpec(1024, 2.0 ** -6)
        f = _exp_signal(grid, rate=2.0)
        spectrum = _guarded_spectrum(f.values)
        before = spectrum.copy()
        for g in (atom(1.0, 1.0), Delay(0.5), multiply(atom(1.0, 1.0),
                                                       atom(1.0, 3.0))):
            out = _apply_multiplier(spectrum,
                                    discrete_multiplier(kernel(g), grid))
            assert np.array_equal(out, toeplitz_apply(g, f).values)
        assert np.array_equal(spectrum, before)


STACK_GRID = GridSpec(1024, 2.0 ** -6)


def _rows(grid):
    """Four decaying scalar signals, a row each."""
    t = times(grid)
    return np.array([np.exp(-2.0 * t), t * np.exp(-2.5 * t),
                     np.exp(-2.0 * t) * np.cos(3.0 * t),
                     np.exp((-3.0 + 1j) * t)], dtype=complex)


class TestHalfWindowHold:
    """A real kernel's multiplier held on its n + 1 nonnegative bins gives
    the products of the whole window, bit for bit."""

    @pytest.mark.parametrize(
        "g", [g for g in MULTIPLIER_SYMBOLS if _is_real(kernel(g))],
        ids=to_text)
    def test_half_window_multiplies_as_the_whole(self, g):
        grid = STACK_GRID
        n = grid.n_samples
        krep = kernel(g)
        whole = discrete_multiplier(krep, grid)
        out = np.full(2 * n, np.nan, dtype=complex)
        assert discrete_multiplier(krep, grid, out=out) is out
        assert np.array_equal(out, whole)
        half = discrete_multiplier(krep, grid,
                                   out=np.empty(n + 1, dtype=complex))
        assert np.array_equal(half, whole[:n + 1])
        spectra = [_guarded_spectrum(f) for f in _rows(grid)]
        for spectrum in spectra:
            assert np.array_equal(_apply_multiplier(spectrum, half),
                                  _apply_multiplier(spectrum, whole))
        other = discrete_multiplier(kernel(atom(1.0, 3.0)), grid)
        for m in (half, whole):
            diff = _difference(spectra[0], m, spectra[3], other[:n + 1],
                               np.empty(2 * n, dtype=complex),
                               np.empty(n + 1, dtype=complex))
            assert np.array_equal(diff, spectra[0] * whole
                                  - spectra[3] * other)

    def test_complex_kernel_keeps_the_whole_window(self):
        grid = STACK_GRID
        with pytest.raises(ValueError, match="n . 1 for a kernel with real"):
            discrete_multiplier(kernel(atom(1.0, 1.0 + 2.0j)), grid,
                                out=np.empty(grid.n_samples + 1,
                                             dtype=complex))


class TestSignalStacks:
    """The private steps act on one row each; a row of one signal must come
    out as the per-signal `toeplitz_apply` would make it, and the two real
    signals of a packed row are normed and guarded apart."""

    @pytest.mark.parametrize("g", [atom(1.0, 1.0), Delay(0.5),
                                   add(atom(0.4, 2.0), Constant(0.5))],
                             ids=to_text)
    def test_rows_match_toeplitz_apply(self, g):
        grid = STACK_GRID
        m = discrete_multiplier(kernel(g), grid)
        for f in _rows(grid):
            out = _apply_multiplier(_guarded_spectrum(f), m)
            ref = toeplitz_apply(g, SampledSignal(grid, f))
            assert np.array_equal(out, ref.values)
            assert _l2_norms(out, grid.dt) == [l2_norm(ref)]

    def test_out_stacks_receive_the_steps(self):
        # a caller's work rows give the same bits as fresh arrays
        grid = STACK_GRID
        m = discrete_multiplier(kernel(atom(1.0, 3.0)), grid)
        for f in _rows(grid):
            spectrum = np.full(2 * grid.n_samples, np.nan, dtype=complex)
            assert _guarded_spectrum(f, out=spectrum) is spectrum
            assert np.array_equal(spectrum, _guarded_spectrum(f))
            work = np.empty_like(spectrum)
            out = _apply_multiplier(spectrum, m, out=work)
            assert out.base is work
            assert np.array_equal(out, _apply_multiplier(spectrum, m))

    def test_guard_is_per_row(self):
        # only row 2 has a heavy tail: that row raises, every other passes
        grid = STACK_GRID
        rows = _rows(grid)
        rows[2] = np.exp(-0.5 * times(grid))
        for k, f in enumerate(rows):
            if k == 2:
                with pytest.raises(WraparoundError):
                    _guarded_spectrum(f)
            else:
                _guarded_spectrum(f)

    def test_small_row_is_guarded_against_its_own_peak(self):
        # a row 1e-9 the size of the others still needs its own tail below
        # 1e-6 of its own peak
        with pytest.raises(WraparoundError):
            _guarded_spectrum(1e-9 * np.ones(STACK_GRID.n_samples,
                                             dtype=complex))

    def test_floor_is_the_least_peak_a_row_is_judged_against(self):
        # the constant row at 1e-9 passes when floored at 1, and the floor
        # leaves its spectrum as it was
        f = 1e-9 * np.ones(STACK_GRID.n_samples, dtype=complex)
        assert np.array_equal(_guarded_spectrum(f, floors=(1.0,)),
                              np.fft.fft(np.r_[f, 0.0 * f]))
        with pytest.raises(WraparoundError):
            _guarded_spectrum(f, floors=(1e-9,))

    def test_packed_rows_give_two_norms(self):
        # a row a + ib of two real signals: the norm of each part, bit for
        # bit its l2_norm; a row of one signal gives one norm
        grid = STACK_GRID
        rows = _rows(grid)
        packed = rows[0] + 1j * rows[1].real
        assert _l2_norms(packed, grid.dt, two=True) == [
            l2_norm(SampledSignal(grid, rows[k])) for k in (0, 1)]
        assert _l2_norms(rows[3], grid.dt) == [
            l2_norm(SampledSignal(grid, rows[3]))]

    @pytest.mark.parametrize("small", ["real", "imag"])
    def test_packed_signals_are_guarded_apart(self, small):
        # only the smaller partner has a tail above 1e-6 of its own peak
        # (e^-6 at t = 12); the row's modulus hides it, the guard of each
        # signal does not, and that signal's own floor still applies
        grid = STACK_GRID
        t = times(grid)
        big, tail = np.exp(-2.0 * t), 1e-4 * np.exp(-0.5 * t)
        row = tail + 1j * big if small == "real" else big + 1j * tail
        _guarded_spectrum(row)
        with pytest.raises(WraparoundError):
            _guarded_spectrum(row, two=True)
        floors = (1.0, 0.0) if small == "real" else (0.0, 1.0)
        _guarded_spectrum(row, two=True, floors=floors)

    def test_row_transforms_match_multi_row_calls(self):
        # each row is transformed by its own call, which must give numpy's
        # multi-row call bit for bit, on the 2^17-point window of the
        # benchmark grid
        grid = GridSpec(65536, 2.0 ** -8)
        n = grid.n_samples
        rng = np.random.default_rng(7)
        stack = (rng.standard_normal((3, n)) + 1j * rng.standard_normal(
            (3, n))) * np.exp(-times(grid))
        padded = np.concatenate([stack, np.zeros_like(stack)], axis=1)
        spectra = np.fft.fft(padded, axis=1)
        inverse = np.fft.ifft(spectra, axis=1)[:, :n]
        for f, spectrum, window in zip(stack, spectra, inverse):
            row = _guarded_spectrum(f)
            assert np.array_equal(row, spectrum)
            assert np.array_equal(_causal_window(row), window)

    def test_non_finite_window_raises(self):
        grid = STACK_GRID
        spectrum = _guarded_spectrum(_rows(grid)[0])
        m = discrete_multiplier(kernel(atom(1.0, 1.0)), grid)
        m[3] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(
                ValueError, match="non-finite"):
            _apply_multiplier(spectrum, m)
