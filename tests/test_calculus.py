"""The three construction routes for g(A), their cross agreement, and the
spectral oracle g(A) = diag(g(lambda)) of a diagonal generator."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import damped_string, power_stack, spiked
from hardycalc import calculus, cli, semigroup
from hardycalc.calculus import gA_convolution, gA_toeplitz
from hardycalc.hardy import (GridSpec, SampledSignal, WraparoundError,
                             discrete_multiplier, toeplitz_apply)
from hardycalc.numkernel import _poly_matrix, operator_norm
from hardycalc.semigroup import (Generator, evaluate_T, example26,
                                 random_stable, resolvent)
from hardycalc.symbols import (Constant, Delay, add, atom, eval_at, kernel,
                               multiply, parse)

REF_GRID = GridSpec(4096, 2.0 ** -8)
FAST_GRID = GridSpec(1024, 2.0 ** -6)
FAST_GEN = Generator.diagonal([-2.0, -3.0])
# simple poles, a product of two poles, a repeated pole, and a constant part
CONV_SYMBOLS = (atom(1.0, 2.0), multiply(atom(1.0, 1.0), atom(1.0, 3.0)),
                multiply(atom(1.0, 2.0), atom(1.0, 2.0)),
                add(atom(0.4, 2.0), Constant(0.5)))
_PROPERTY = settings(max_examples=60, deadline=None, derandomize=True,
                     database=None)


def gA_spectral(gen, g):
    """g(A) by evaluating g on the spectrum; exact for diagonal generators."""
    if gen.kind != "diagonal":
        raise ValueError("spectral route requires a diagonal generator")
    return np.diag(eval_at(g, gen.eigenvalues))


class TestSpectralRoute:
    def test_atom_on_diagonal(self):
        # g(A) = diag(g(lambda)): 1/(2-s) at -2, -3 gives 1/4, 1/5
        out = gA_spectral(FAST_GEN, atom(1.0, 2.0))
        assert np.allclose(out, np.diag([0.25, 0.2]), atol=1e-14)

    def test_delay_is_semigroup_sample(self):
        out = gA_spectral(FAST_GEN, Delay(0.5))
        ref = np.diag([math.exp(-1.0), math.exp(-1.5)])
        assert np.allclose(out, ref, atol=1e-14)

    def test_rejects_dense(self):
        gen = random_stable(4, 0)
        with pytest.raises(ValueError):
            gA_spectral(gen, atom(1.0, 2.0))


class TestResolventRoute:
    def test_matches_spectral_on_diagonal(self):
        for g in (atom(1.0, 2.0), Constant(0.7),
                  multiply(atom(1.0, 1.0), atom(1.0, 3.0)),
                  add(atom(0.4, 2.0), Constant(0.5)), Delay(0.5),
                  multiply(Delay(0.2), atom(1.0, 1.0))):
            a = gA_spectral(FAST_GEN, g)
            b = calculus._gA_exact(FAST_GEN, g)
            assert np.max(np.abs(a - b)) < 1e-12

    def test_atom_is_resolvent(self):
        gen = random_stable(6, 2)
        out = calculus._gA_exact(gen, atom(1.0, 2.0))
        assert np.max(np.abs(out - resolvent(gen, 2.0))) < 1e-11

    def test_constant_one_is_identity(self):
        gen = random_stable(5, 9)
        out = calculus._gA_exact(gen, Constant(1.0))
        assert np.max(np.abs(out - np.eye(5))) < 1e-13

    def test_repeated_pole_is_squared_resolvent(self):
        gen = random_stable(5, 3)
        out = calculus._gA_exact(gen,
                                 multiply(atom(1.0, 2.0), atom(1.0, 2.0)))
        R = resolvent(gen, 2.0)
        assert np.max(np.abs(out - R @ R)) < 1e-11


class TestConvolutionRoute:
    def test_matches_resolvent_diagonal(self):
        out, = gA_convolution(FAST_GEN, [atom(1.0, 2.0)])
        ref = np.diag([0.25, 0.2])
        assert np.max(np.abs(out.matrix - ref)) < 1e-8
        assert out.est_error > 0.0

    def test_matches_resolvent_dense_seeded(self):
        # the acceptance threshold for this route is 1e-7
        for seed in (8, 14):
            gen = random_stable(8, seed)
            out = gA_convolution(gen, [atom(1.0, 2.0)])[0].matrix
            ref = resolvent(gen, 2.0)
            assert np.max(np.abs(out - ref)) < 1e-7

    def test_matches_resolvent_dense_seeded_to_roundoff(self):
        for seed in (8, 14):
            gen = random_stable(8, seed)
            out = gA_convolution(gen, [atom(1.0, 2.0)])[0].matrix
            ref = resolvent(gen, 2.0)
            assert np.max(np.abs(out - ref)) <= 1e-12

    def test_est_error_bounds_true_error(self):
        # calculus_axioms builds its claimed bound from est_error, so the
        # estimate must never fall below the distance to the resolvent route;
        # the stiff example26(64) and the oscillating damped strings carry
        # the most roundoff from the doublings; the spiked pair, the most
        # from a start step sized by a norm that misses one side; the
        # Jordan block -I + 3N, the largest transient growth, leaves the
        # rounding allowance the least room
        gens = [random_stable(8, s) for s in range(8, 18)]
        gens += [example26(16)[0], example26(64)[0], damped_string(16),
                 damped_string(32), spiked(), spiked(transpose=True),
                 Generator.dense(-np.eye(6) + 3.0 * np.eye(6, k=1))]
        # each symbol alone, and all of them as one batch, whose common
        # horizon and start step differ from each symbol's own
        batches = [[g] for g in CONV_SYMBOLS] + [list(CONV_SYMBOLS)]
        for gen in gens:
            for batch in batches:
                for g, out in zip(batch, gA_convolution(gen, batch)):
                    ref = calculus._gA_exact(gen, g)
                    err = operator_norm(out.matrix - ref)
                    assert out.est_error >= err

    def test_never_solves(self, monkeypatch):
        # the route must stay independent of the resolvent it is checked
        # against
        def forbidden(*args, **kwargs):
            raise AssertionError("convolution route called a solver")

        monkeypatch.setattr(calculus, "resolvent", forbidden)
        g = add(multiply(Delay(0.2), multiply(atom(1.0, 2.0), atom(1.0, 2.0))),
                atom(0.5, 1.0))
        for gen in (random_stable(6, 4), Generator.diagonal([-1.0, -2.5 + 1j])):
            out, = gA_convolution(gen, [g])
            assert np.all(np.isfinite(out.matrix))

    def test_mode_tail_matches_mpmath(self):
        # truncation tail int_{t*}^inf K t^{p-1} e^{-c t}/(p-1)! dt
        for p in (1, 2, 3):
            for K, c, tstar in ((1.0, 2.0, 16.0), (1.343, 0.7, 64.0)):
                with mpmath.workdps(30):
                    ref = mpmath.quad(
                        lambda t: K * t ** (p - 1) * mpmath.exp(-c * t)
                        / mpmath.factorial(p - 1), [tstar, mpmath.inf])
                got = calculus._mode_tail(K, c, tstar, p)
                assert abs(got - float(ref)) <= 1e-12 * float(ref)

    @_PROPERTY
    @given(st.lists(st.complex_numbers(min_magnitude=0.5, max_magnitude=10.0),
                    min_size=1, max_size=6),
           st.complex_numbers(min_magnitude=0.5, max_magnitude=5.0),
           st.complex_numbers(max_magnitude=3.0),
           st.booleans())
    def test_matches_spectral_within_est_error(self, lams, alpha, c, double):
        # reflect into the stable half-plane, at least 0.5 from the axis
        lam = [complex(-max(abs(z.real), 0.5), z.imag) for z in lams]
        alpha = complex(max(abs(alpha.real), 0.5), alpha.imag)
        gen = Generator.diagonal(lam)
        g = atom(c, alpha)
        if double:
            g = multiply(g, atom(1.0, alpha))
        out, = gA_convolution(gen, [g])
        err = operator_norm(out.matrix - gA_spectral(gen, g))
        assert err <= out.est_error

    def test_delay_contributes_semigroup_factor(self):
        out = gA_convolution(FAST_GEN, [Delay(0.5)])[0].matrix
        ref = np.diag([math.exp(-1.0), math.exp(-1.5)])
        assert np.max(np.abs(out - ref)) < 1e-10


class TestConvolutionBatch:
    """One call runs one mode-integral chain for the whole batch."""

    @pytest.fixture
    def chains(self, monkeypatch):
        calls = []
        integrate = calculus.mode_integrals

        def counted(gen, modes, horizon):
            calls.append(gen)
            return integrate(gen, modes, horizon)

        monkeypatch.setattr(calculus, "mode_integrals", counted)
        return calls

    @pytest.mark.parametrize("scenario", ["thm33", "calculus_axioms"])
    def test_one_chain_per_generator(self, chains, scenario, capsys):
        _, reports = cli.run(cli.ExperimentConfig(scenario=scenario, seed=7))
        capsys.readouterr()
        assert len(chains) == len(reports)
        assert len({id(gen) for gen in chains}) == len(reports)

    @pytest.mark.parametrize("gen", [random_stable(8, 8), FAST_GEN],
                             ids=["dense", "diagonal"])
    def test_one_start_series_per_batch(self, gen, monkeypatch):
        # the estimate needs no second chain from half the start step
        calls = []
        series = semigroup._start_series

        def counted(op, X, h):
            calls.append(h)
            return series(op, X, h)

        monkeypatch.setattr(semigroup, "_start_series", counted)
        gA_convolution(gen, CONV_SYMBOLS)
        assert len(calls) == 1
        semigroup.orbit_average(gen, 0.5)
        assert len(calls) == 2

    def test_empty_batch(self, chains):
        assert gA_convolution(FAST_GEN, []) == []
        assert chains == []

    def test_delays_and_constants_need_no_chain(self, chains):
        out = gA_convolution(FAST_GEN, [Delay(0.5), Constant(0.7),
                                        add(Delay(0.2), Constant(1.0))])
        assert chains == []
        assert [o.est_error for o in out] == [0.0, 0.0, 0.0]
        assert np.allclose(out[1].matrix, 0.7 * np.eye(2), atol=1e-15)

    def test_batch_matches_single_calls(self):
        # a shared horizon and start step move each g(A) by roundoff only
        gen = random_stable(8, 8)
        batch = gA_convolution(gen, CONV_SYMBOLS)
        for g, out in zip(CONV_SYMBOLS, batch):
            one, = gA_convolution(gen, [g])
            assert operator_norm(out.matrix - one.matrix) <= 1e-12


class TestToeplitzRoute:
    def test_matches_spectral_diagonal(self):
        out = gA_toeplitz(FAST_GEN, atom(1.0, 2.0), FAST_GRID)
        assert np.max(np.abs(out - np.diag([0.25, 0.2]))) < 1e-6

    def test_matches_resolvent_dense_reference_grid(self):
        gen = random_stable(8, 8)
        out = gA_toeplitz(gen, atom(1.0, 2.0), REF_GRID)
        ref = resolvent(gen, 2.0)
        assert np.max(np.abs(out - ref)) < 1e-3

    def test_constant_one_is_identity(self):
        out = gA_toeplitz(FAST_GEN, Constant(1.0), FAST_GRID)
        assert np.max(np.abs(out - np.eye(2))) < 1e-10

    def test_grid_aligned_delay_is_semigroup_sample(self):
        # tau = 0.5 is 128 steps of 2^-8, where the multiplier is the exact
        # phase, so the t = 0 sample is the orbit's sample at tau
        gen = random_stable(8, 8)
        out = gA_toeplitz(gen, Delay(0.5), REF_GRID)
        assert operator_norm(out - evaluate_T(gen, 0.5)) <= 1e-12

    def test_never_solves(self, monkeypatch):
        # the route must stay independent of the resolvent it is checked
        # against: g(A) is read off at t = 0, with no solve
        def forbidden(*args, **kwargs):
            raise AssertionError("Toeplitz route called a solver")

        monkeypatch.setattr(np.linalg, "solve", forbidden)
        monkeypatch.setattr(np.linalg, "inv", forbidden)
        out = gA_toeplitz(FAST_GEN, atom(1.0, 2.0), FAST_GRID)
        assert np.all(np.isfinite(out))

    @pytest.mark.parametrize("gen", [random_stable(8, 8), Generator.diagonal(
        [-2.0, -3.0 + 1.0j, -1.5])], ids=["dense", "diagonal"])
    def test_is_the_orbit_sample_of_toeplitz_apply(self, gen):
        # the discrete kernel against the orbit is the t = 0 sample of M_g
        # applied to each scalar entry t -> T(t)[a, b] of the orbit, here
        # the stack of powers of T(dt); the identity holds for any kernel,
        # so exp(0.3*s), which the grid does not carry, is read off by the
        # polynomial on its discrete kernel directly
        n, N = REF_GRID.n_samples, gen.dimension
        Th = evaluate_T(gen, REF_GRID.dt)
        orbit = power_stack(Th, n).reshape(n, N * N)
        for text in ("1/(2-s)", "1", "exp(0.5*s)", "exp(0.3*s)",
                     "(1/(1-s))*(1/(3-s))", "0.3*(1/(1-s))*(1/(3-s))"):
            g = parse(text)
            ref = np.array([toeplitz_apply(g, SampledSignal(REF_GRID, col))
                            .values[0] for col in orbit.T]).reshape(N, N)
            if text == "exp(0.3*s)":
                v = np.fft.fft(discrete_multiplier(kernel(g), REF_GRID))[:n] \
                    / (2 * n)
                out = _poly_matrix(v, Th)
            else:
                out = gA_toeplitz(gen, g, REF_GRID)
            assert (operator_norm(out - ref)
                    <= 1e-13 * operator_norm(ref)), text

    def test_delay_past_the_horizon_is_zero(self):
        # 33 = 2 horizons + 1: a wrapped phase would read T(1), norm ~0.1
        gen = random_stable(8, 8)
        out = gA_toeplitz(gen, Delay(33.0), REF_GRID)
        assert operator_norm(out) <= 1e-10

    def test_peak_memory_at_dimension_32(self):
        # the polynomial in T(dt) holds about 2 (sqrt(4096) + 1) = 130
        # matrices of 16 KiB, 2 MiB; an orbit stack of the 4096 samples
        # would be 64 MiB
        gen = random_stable(32, 3)
        tracemalloc.start()
        try:
            gA_toeplitz(gen, atom(1.0, 2.0), REF_GRID)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20

    def test_damped_string_read_off_at_dimension_128(self):
        # the horizon of 64 takes 16384 samples, whose orbit stack would be
        # 4 GiB; the polynomial holds about 2 (sqrt(16384) + 1) = 258
        # matrices of 256 KiB, and tau = 0.5 is 128 whole steps
        gen = damped_string(64)
        grid = GridSpec(16384, 2.0 ** -8)
        tracemalloc.start()
        try:
            out = gA_toeplitz(gen, Delay(0.5), grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        ref = evaluate_T(gen, 0.5)
        assert operator_norm(out - ref) <= 1e-12 * operator_norm(ref)
        assert peak < 96 * 2 ** 20

    @pytest.mark.parametrize("g, cause", [
        (atom(1.0, 0.01), "kernel mode of"),
        (atom(1.0, 0.1), "kernel mode of"),
        (Delay(0.3), "offset of 0.3 = 76.8 steps")],
        ids=["slow_mode", "mode", "off_grid_delay"])
    def test_grid_that_does_not_carry_the_symbol_rejected(self, g, cause):
        # Toeplitz checks' grid-fit rule: without it these came out 2.66,
        # 4.3e-2 and 2.4e-3 relative off the closed form, with no error
        with pytest.raises(WraparoundError, match=cause):
            gA_toeplitz(random_stable(8, 8), g, REF_GRID)

    def test_short_horizon_rejected(self):
        slow = Generator.diagonal([-0.5])
        with pytest.raises(ValueError):
            gA_toeplitz(slow, atom(1.0, 2.0), FAST_GRID)

