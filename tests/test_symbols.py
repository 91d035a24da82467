"""Symbol algebra: evaluation, sup norms, kernel data and the text DSL."""

import functools
import math
import typing

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hardycalc import symbols
from hardycalc.symbols import (
    Atom,
    Constant,
    Delay,
    KernelRep,
    Product,
    Sum,
    SymbolExpr,
    add,
    atom,
    eval_at,
    eval_boundary,
    hinf_norm,
    kernel,
    multiply,
    parse,
    to_text,
)


class TestEvaluation:
    def test_atom_at_origin(self):
        # c/(alpha - s) at s=0 is c/alpha
        assert eval_at(atom(1.0, 2.0), 0.0) == pytest.approx(0.5)

    def test_atom_boundary_value(self):
        # 1/(1 - i) = (1 + i)/2
        val = eval_boundary(atom(1.0, 1.0), 1.0)
        assert val == pytest.approx((1.0 + 1.0j) / 2.0)

    def test_constant(self):
        assert eval_at(Constant(0.7), -3.0 + 2.0j) == pytest.approx(0.7)

    def test_delay_left_half_plane(self):
        # e^{s tau} at s = -1 with tau = 0.5
        assert eval_at(Delay(0.5), -1.0) == pytest.approx(math.exp(-0.5))

    def test_sum_product_scale(self):
        inner = add(atom(1.0, 1.0), multiply(Constant(3.0), atom(1.0, 2.0)))
        g = multiply(Constant(2.0), inner)
        s = -1.0
        ref = 2.0 * (1.0 / 2.0 + 3.0 / 3.0)
        assert eval_at(g, s) == pytest.approx(ref)

    def test_vectorized_boundary(self):
        omega = np.array([0.0, 1.0, -1.0])
        vals = eval_boundary(atom(1.0, 1.0), omega)
        ref = 1.0 / (1.0 - 1j * omega)
        assert np.allclose(vals, ref)


class TestHinfNorm:
    def test_atom_peaks_at_origin(self):
        # sup over the boundary of |c/(alpha - i w)| is |c|/alpha
        assert hinf_norm(atom(1.0, 2.0)) == pytest.approx(0.5, rel=1e-9)
        assert hinf_norm(atom(3.0, 1.0)) == pytest.approx(3.0, rel=1e-9)

    def test_constant_and_delay(self):
        assert hinf_norm(Constant(-0.7)) == pytest.approx(0.7, rel=1e-12)
        assert hinf_norm(Delay(2.0)) == pytest.approx(1.0, rel=1e-9)

    def test_product_with_delay(self):
        g = multiply(Delay(0.5), atom(1.0, 1.0))
        assert hinf_norm(g) == pytest.approx(1.0, rel=1e-9)

    def test_submultiplicative(self):
        g1 = atom(1.0, 1.0)
        g2 = add(atom(0.4, 2.0), Constant(0.5))
        prod = hinf_norm(multiply(g1, g2))
        assert prod <= hinf_norm(g1) * hinf_norm(g2) * (1.0 + 1e-9)

    def test_peak_between_grid_points(self):
        # the 1/0.001 peak at omega = 37.3 falls between log-spaced grid
        # points, while w0, the grid point nearest 50, holds the 0.8/0.001
        # peak, so the sampled maximum alone gives 800.0000139614843
        w0 = 49.99478800728137
        g = add(atom(1.0, 0.001 + 37.3j), atom(0.8, complex(0.001, w0)))
        with mpmath.workdps(40):
            poles = [(1, mpmath.mpc(0.001, 37.3)),
                     (mpmath.mpf(0.8), mpmath.mpc(0.001, w0))]

            def slope(w):  # d|g(iw)|^2/dw, up to a factor 2
                val = sum(c / (a - 1j * w) for c, a in poles)
                der = sum(1j * c / (a - 1j * w) ** 2 for c, a in poles)
                return mpmath.re(mpmath.conj(val) * der)

            peak = mpmath.findroot(slope, (37.299, 37.301), solver="anderson")
            sup = float(abs(sum(c / (a - 1j * peak) for c, a in poles)))
        assert sup == pytest.approx(1000.0000089353501, rel=1e-15)
        assert hinf_norm(g) == pytest.approx(sup, rel=1e-12)

    def test_reads_no_kernel(self, monkeypatch):
        # the claimed side of a symbol check must not share the kernel with
        # the measured sides: the pole frequencies come from the tree
        g = add(multiply(Delay(0.25), atom(1.0, 0.5 - 2.0j)),
                multiply(atom(1.0, 1.0), atom(0.3 - 0.2j, 1.5 + 4.0j)))
        expected = hinf_norm(g)

        def no_kernel(g):
            raise AssertionError("hinf_norm called kernel")

        monkeypatch.setattr(symbols, "kernel", no_kernel)
        assert hinf_norm(g) == expected
        assert symbols._pole_frequencies(g) == {-2.0, 0.0, 4.0}


class TestKernel:
    def test_atom_single_mode(self):
        krep = kernel(atom(2.0, 3.0))
        assert krep.delays == ()
        assert len(krep.modes) == 1
        c, alpha, p, off = krep.modes[0]
        assert (c, alpha, p, off) == (2.0, 3.0, 1, 0.0)

    def test_distinct_pole_product_partial_fractions(self):
        # 1/((1-s)(3-s)) = (1/2)/(1-s) - (1/2)/(3-s)
        krep = kernel(multiply(atom(1.0, 1.0), atom(1.0, 3.0)))
        modes = sorted(krep.modes, key=lambda m: m[1].real)
        assert modes[0][0] == pytest.approx(0.5)
        assert modes[0][1] == pytest.approx(1.0)
        assert modes[1][0] == pytest.approx(-0.5)
        assert modes[1][1] == pytest.approx(3.0)

    def test_classic_two_pole_product(self):
        # 1/((1-s)(2-s)) = 1/(1-s) - 1/(2-s)
        krep = kernel(multiply(atom(1.0, 1.0), atom(1.0, 2.0)))
        modes = sorted(krep.modes, key=lambda m: m[1].real)
        assert modes[0][0] == pytest.approx(1.0)
        assert modes[1][0] == pytest.approx(-1.0)

    def test_repeated_pole_order(self):
        krep = kernel(multiply(atom(1.0, 1.0), atom(1.0, 1.0)))
        assert len(krep.modes) == 1
        c, alpha, p, off = krep.modes[0]
        assert p == 2
        assert alpha == pytest.approx(1.0)

    def test_delay_symbol(self):
        krep = kernel(Delay(0.5))
        assert len(krep.delays) == 1
        w, tau = krep.delays[0]
        assert (w, tau) == (pytest.approx(1.0), pytest.approx(0.5))

    def test_delay_times_atom_offsets_mode(self):
        krep = kernel(multiply(Delay(0.4), atom(1.0, 2.0)))
        assert len(krep.modes) == 1
        assert krep.modes[0][3] == pytest.approx(0.4)

    def test_constant_term(self):
        krep = kernel(add(Constant(0.5), atom(0.4, 2.0)))
        # a constant is the kernel's point mass at tau = 0
        assert krep.delays == ((0.5, 0.0),)

    def test_kernel_matches_evaluation(self):
        # reconstruct g(s) from kernel data on a sample of left half-plane points
        g = add(multiply(atom(1.0, 1.0), atom(1.0, 3.0)), Constant(0.2))
        krep = kernel(g)
        rng = np.random.default_rng(1)
        for _ in range(6):
            s = complex(-rng.uniform(0.1, 3.0), rng.uniform(-3.0, 3.0))
            val = 0.0
            for w, tau in krep.delays:
                val += w * np.exp(s * tau)
            for c, alpha, p, off in krep.modes:
                val += c * np.exp(s * off) / (alpha - s) ** p
            assert val == pytest.approx(eval_at(g, s), rel=1e-12)


class TestParse:
    def test_atom(self):
        assert parse("1/(2-s)") == atom(1.0, 2.0)

    def test_sum_with_constant(self):
        g = parse("0.4/(2-s) + 0.5")
        ref = add(atom(0.4, 2.0), Constant(0.5))
        assert eval_at(g, -1.0) == pytest.approx(eval_at(ref, -1.0))

    def test_whitespace_insensitive(self):
        assert eval_at(parse(" 1 / ( 1 - s ) "), -1.0) == pytest.approx(0.5)

    def test_malformed_raises(self):
        # a product of poles is written as a product of atoms, not as the
        # pole group 1/((1-s)(3-s))
        for text in ("1/(2-s", "1//(2-s)", "", "2+s", "1/(s-2)",
                     "1/((1-s)(3-s))"):
            with pytest.raises(ValueError):
                parse(text)

    def test_minus_is_a_product_with_minus_one(self):
        assert parse("1/(1-s) - exp(0.5*s)") == add(
            atom(1.0, 1.0), multiply(Constant(-1.0), Delay(0.5)))
        assert parse("-(1/(1-s))") == multiply(Constant(-1.0), atom(1.0, 1.0))


class TestToText:
    def test_round_trips_through_parse(self):
        for g in (atom(1.0, 2.0), Constant(0.7),
                  add(atom(0.4, 2.0), Constant(0.5))):
            text = to_text(g)
            back = parse(text)
            assert eval_at(back, -0.7) == pytest.approx(eval_at(g, -0.7))

    def test_names_delay(self):
        assert "exp" in to_text(Delay(0.5))

    def test_battery_text_unchanged(self):
        assert to_text(add(atom(0.4, 2.0), Constant(0.5))) == "0.4/(2-s) + 0.5"
        assert (to_text(multiply(atom(1.0, 1.0), atom(1.0, 3.0)))
                == "(1/(1-s))*(1/(3-s))")
        assert to_text(Delay(0.5)) == "exp(0.5*s)"

    def test_complex_pole_parses(self):
        g = atom(1.0, 1.0 + 2.0j)
        assert to_text(g) == "1/((1+2j)-s)"
        assert parse(to_text(g)) == g

    def test_long_pole_keeps_every_digit(self):
        # six significant digits gave 1/(1.23457-s), whose sup norm is
        # 0.8099986 instead of 1/1.2345678901
        g = atom(1.0, 1.2345678901)
        assert parse(to_text(g)) == g
        assert hinf_norm(parse(to_text(g))) == hinf_norm(g)


class TestParseLimits:
    def test_long_sum_parses(self):
        g = parse(" + ".join(["1/(2-s)"] * 1000))
        assert g == Sum((atom(1.0, 2.0),) * 1000)

    @pytest.mark.parametrize("text", ["(" * 2000 + "1/(2-s)" + ")" * 2000,
                                      "exp((1+2j)*s)"],
                             ids=["nested_2000", "complex_delay"])
    def test_raises_value_error(self, text):
        # not a RecursionError from the nesting, nor a TypeError from the
        # complex tau reaching Delay
        with pytest.raises(ValueError):
            parse(text)


_REALS = st.floats(-1e6, 1e6, allow_nan=False)
_SCALARS = _REALS | st.builds(complex, _REALS, _REALS)
_POLES = st.floats(0.0, 1e6, exclude_min=True)
_LEAVES = st.one_of(
    st.builds(atom, _SCALARS, _POLES | st.builds(complex, _POLES, _REALS)),
    st.builds(Delay, st.floats(0.0, 1e3)),
    st.builds(Constant, _SCALARS))


class TestTextRoundTrip:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(_LEAVES)
    def test_leaf_parses_back_exactly(self, g):
        assert parse(to_text(g)) == g

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(st.lists(_LEAVES, min_size=2, max_size=4), st.booleans())
    def test_sum_and_product_parse_back_exactly(self, leaves, product):
        g = functools.reduce(multiply if product else add, leaves)
        back = parse(to_text(g))
        assert back == g
        assert to_text(back) == to_text(g)


# well-separated poles: partial fractions of a product stay well conditioned
_KERNEL_POLES = st.sampled_from([0.5, 1.0, 2.0, 3.5, 1.0 + 2.0j, 0.7 - 1.5j])
_KERNEL_COEFFS = st.builds(complex, st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
_KERNEL_SYMBOLS = st.recursive(
    st.one_of(st.builds(atom, _KERNEL_COEFFS, _KERNEL_POLES),
              st.builds(Delay, st.floats(0.0, 2.0)),
              st.builds(Constant, _KERNEL_COEFFS)),
    lambda inner: st.one_of(st.builds(add, inner, inner),
                            st.builds(multiply, inner, inner),
                            st.builds(lambda c, g: multiply(Constant(c), g),
                                      _KERNEL_COEFFS, inner)),
    max_leaves=8)


def _boundary_values(krep, omega):
    """Transform of a kernel on the imaginary axis: c e^{i omega offset} /
    (alpha - i omega)^power per mode and w e^{i omega tau} per point mass,
    the oracle for `kernel` against evaluation of the originating symbol."""
    w = np.atleast_1d(np.asarray(omega, dtype=float))
    out = np.zeros(w.shape, dtype=complex)
    for c, a, p, off in krep.modes:
        out += c * np.exp(1j * w * off) / (a - 1j * w) ** p
    for weight, tau in krep.delays:
        out += weight * np.exp(1j * w * tau)
    return out


class TestKernelBoundaryValues:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(_KERNEL_SYMBOLS)
    def test_matches_eval_boundary(self, g):
        # the kernel's transform against structural evaluation at s = i omega
        pos = np.logspace(-3.0, 3.0, 25)
        omega = np.concatenate([-pos[::-1], [0.0], pos])
        ref = eval_boundary(g, omega)
        got = _boundary_values(kernel(g), omega)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-10 * (1.0 + np.max(np.abs(ref)))


class TestValidation:
    def test_atom_requires_stable_pole(self):
        with pytest.raises(ValueError):
            atom(1.0, -1.0)
        with pytest.raises(ValueError):
            atom(1.0, 0.0)

    def test_rational_pf_rejects_unstable_pole(self):
        with pytest.raises(ValueError):
            Atom(1.0, -2.0)

    def test_kernel_rep_rejects_bad_power(self):
        with pytest.raises(ValueError):
            KernelRep(modes=((1.0, 1.0, 0, 0.0),))

    def test_delay_nonnegative(self):
        with pytest.raises(ValueError):
            Delay(-0.1)


# one instance of every symbol type; a type added to SymbolExpr needs a row
_ONE_OF_EACH = {
    Constant: Constant(0.5),
    Atom: atom(1.0, 2.0),
    Delay: Delay(0.25),
    Sum: add(atom(1.0, 2.0), Constant(0.5)),
    Product: multiply(Delay(0.25), atom(1.0, 2.0)),
}


class TestDispatch:
    def test_symbol_expr_has_five_members(self):
        assert set(typing.get_args(SymbolExpr)) == set(_ONE_OF_EACH)

    @pytest.mark.parametrize("cls", typing.get_args(SymbolExpr),
                             ids=lambda cls: cls.__name__)
    def test_every_member_is_handled(self, cls):
        g = _ONE_OF_EACH[cls]
        assert type(g) is cls
        assert symbols._eval(g, np.array([-1.0 + 0.5j])).shape == (1,)
        assert _boundary_values(kernel(g), 0.3)[0] \
            == pytest.approx(eval_boundary(g, 0.3), rel=1e-12)
        assert parse(to_text(g)) == g
        assert symbols._pole_frequencies(g) == {
            m[1].imag for m in kernel(g).modes}

    @pytest.mark.parametrize("bad", [None, 1.0, "1/(2-s)", KernelRep(),
                                     (Constant(1.0),)])
    def test_anything_else_is_a_type_error(self, bad):
        for fn in (lambda g: symbols._eval(g, np.zeros(1, dtype=complex)),
                   kernel, to_text, symbols._pole_frequencies):
            with pytest.raises(TypeError):
                fn(bad)
