"""Structured symbols g: bounded analytic functions on the open left
half-plane Re(s) < 0.

The expression tree has three leaves, complex constants, simple-pole atoms
c/(alpha-s) with Re(alpha) > 0 and delays e^{s tau} (tau >= 0), and two
nodes, sums and products of those; a scaling is a product with a constant.
The module evaluates boundary traces g(i omega), estimates the sup norm on
the imaginary axis, and converts expressions to their one-sided
convolution kernel, a finite measure on [0, inf) that both the quadrature
route to g(A) and the discrete Toeplitz realization consume.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "Atom",
    "Constant",
    "Delay",
    "KernelRep",
    "Product",
    "Sum",
    "SymbolExpr",
    "add",
    "atom",
    "eval_at",
    "eval_boundary",
    "hinf_norm",
    "kernel",
    "multiply",
    "parse",
    "to_text",
]


@dataclass(frozen=True)
class Constant:
    value: complex

    def __post_init__(self):
        object.__setattr__(self, "value", complex(self.value))


@dataclass(frozen=True)
class Atom:
    """g(s) = c / (alpha - s), one simple pole with Re(alpha) > 0."""

    c: complex
    alpha: complex

    def __post_init__(self):
        object.__setattr__(self, "c", complex(self.c))
        object.__setattr__(self, "alpha", complex(self.alpha))
        if self.alpha.real <= 0:
            raise ValueError(f"pole {self.alpha} must have positive real part")


@dataclass(frozen=True)
class Delay:
    """g(s) = e^{s tau}: modulus one on the axis, a pure shift in time."""

    tau: float

    def __post_init__(self):
        if self.tau < 0:
            raise ValueError("delay must be nonnegative")
        object.__setattr__(self, "tau", float(self.tau))


@dataclass(frozen=True)
class Sum:
    terms: tuple

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))


@dataclass(frozen=True)
class Product:
    factors: tuple

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))


SymbolExpr = Union[Constant, Atom, Delay, Sum, Product]


def atom(c, alpha):
    """The single-pole symbol c/(alpha - s)."""
    return Atom(c, alpha)


# ---------------------------------------------------------------------------
# evaluation


def eval_at(g, s):
    """g(s) by structural recursion; s may be a scalar or an ndarray.

    Valid on the closed left half-plane (and anywhere off the poles); the
    boundary trace is the s = i omega case.
    """
    scalar = np.ndim(s) == 0
    sv = np.atleast_1d(np.asarray(s, dtype=complex))
    out = _eval(g, sv)
    return complex(out[0]) if scalar else out


def _eval(g, sv):
    if isinstance(g, Constant):
        return np.full(sv.shape, g.value)
    if isinstance(g, Atom):
        return g.c / (g.alpha - sv)
    if isinstance(g, Delay):
        return np.exp(sv * g.tau)
    if isinstance(g, Sum):
        out = np.zeros(sv.shape, dtype=complex)
        for term in g.terms:
            out += _eval(term, sv)
        return out
    if isinstance(g, Product):
        out = np.ones(sv.shape, dtype=complex)
        for f in g.factors:
            out *= _eval(f, sv)
        return out
    raise TypeError(f"not a symbol expression: {g!r}")


def eval_boundary(g, omega):
    """Boundary trace g(i omega); omega scalar or ndarray."""
    return eval_at(g, 1j * np.asarray(omega, dtype=float))


# ---------------------------------------------------------------------------
# sup norm on the axis


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_max(f, a, b):
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(120):
        if b - a <= 1e-12 * (1.0 + abs(a) + abs(b)):
            break
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = f(x1)
    return max(f1, f2)


def _pole_frequencies(g):
    """The set of Im(alpha) over the atoms c/(alpha - s) of a symbol."""
    match g:
        case Atom():
            return {g.alpha.imag}
        case Constant() | Delay():
            return set()
        case Sum(parts) | Product(parts):
            return set().union(*map(_pole_frequencies, parts))
    raise TypeError(f"not a symbol expression: {g!r}")


def hinf_norm(g):
    """sup over the axis of |g(i omega)|.

    Log-spaced sampling of |omega| up to 1e6 (2048 points plus the origin)
    and at the pole frequencies Im(alpha) of the symbol's atoms, followed by
    golden-section refinement around the grid maximum.  One-sided error is
    at the percent level in the worst case for the rational/delay class;
    exact whenever the sup sits at omega = 0 or the symbol is flat.  It reads
    the tree, not the kernel that the checks' measured sides are built from.
    """
    pos = np.logspace(-4.0, 6.0, 1024).tolist()
    peaks = _pole_frequencies(g)
    # one set, so a pole frequency already on the grid is not sampled twice
    grid = np.array(sorted({*(-w for w in pos), 0.0, *pos, *peaks}))
    vals = np.abs(eval_boundary(g, grid))
    i = int(np.argmax(vals))
    best = float(vals[i])
    a = grid[max(i - 1, 0)]
    b = grid[min(i + 1, len(grid) - 1)]
    if b > a:
        refined = _golden_max(lambda w: float(np.abs(eval_boundary(g, w))), a, b)
        best = max(best, refined)
    return best


# ---------------------------------------------------------------------------
# algebra


def _flatten(cls, parts, attr):
    out = []
    for p in parts:
        if isinstance(p, cls):
            out.extend(getattr(p, attr))
        else:
            out.append(p)
    return tuple(out)


def multiply(g1, g2):
    return Product(_flatten(Product, (g1, g2), "factors"))


def add(g1, g2):
    return Sum(_flatten(Sum, (g1, g2), "terms"))


# ---------------------------------------------------------------------------
# kernel representation


@dataclass(frozen=True)
class KernelRep:
    """One-sided kernel of a symbol: a finite measure on [0, inf), made of
    exponential-polynomial densities and point masses.

    modes: tuple of (c, alpha, power, offset) meaning the density

        t |-> c * (t - offset)^{power-1} e^{-alpha (t - offset)} / (power-1)!

    supported on t >= offset, whose transform restores
    c e^{i omega offset} / (alpha - i omega)^power on the boundary.
    delays: tuple of (weight, tau) point masses; a constant c is the mass
    (c, 0.0), which g(A) turns into c T(0) = c I.  Atoms have power = 1 and
    offset = 0; higher powers only arise from products with repeated poles.
    """

    modes: tuple = ()
    delays: tuple = ()

    def __post_init__(self):
        modes = tuple((complex(c), complex(a), int(p), float(o))
                      for c, a, p, o in self.modes)
        for _, a, p, _ in modes:
            if a.real <= 0:
                raise ValueError(f"kernel mode pole {a} must have Re > 0")
            if p < 1:
                raise ValueError("kernel mode power must be >= 1")
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "delays",
                           tuple((complex(w), float(t)) for w, t in self.delays))


def _merge(modes, delays):
    acc = {}
    for c, a, p, off in modes:
        key = (a, p, off)
        acc[key] = acc.get(key, 0.0) + c
    merged_modes = tuple((c, a, p, off) for (a, p, off), c in acc.items()
                         if c != 0.0)
    dacc = {}
    for w, tau in delays:
        dacc[tau] = dacc.get(tau, 0.0) + w
    merged_delays = tuple((w, tau) for tau, w in dacc.items() if w != 0.0)
    return KernelRep(merged_modes, merged_delays)


def _same_pole(a, b):
    return abs(a - b) <= 1e-12 * (1.0 + max(abs(a), abs(b)))


def _convolve_modes(m1, m2):
    """Kernel of the product of two single-mode symbols."""
    c1, a1, p1, o1 = m1
    c2, a2, p2, o2 = m2
    off = o1 + o2
    coeff = c1 * c2
    if _same_pole(a1, a2):
        # equal poles: powers add, the polynomial factor absorbs the
        # factorials exactly
        return [(coeff, a1, p1 + p2, off)]
    out = []
    # generalized partial fractions of 1/((z+a1)^p1 (z+a2)^p2)
    for k in range(p1):
        A = (-1.0) ** k * math.comb(p2 + k - 1, k) / (a2 - a1) ** (p2 + k)
        out.append((coeff * A, a1, p1 - k, off))
    for k in range(p2):
        B = (-1.0) ** k * math.comb(p1 + k - 1, k) / (a1 - a2) ** (p1 + k)
        out.append((coeff * B, a2, p2 - k, off))
    return out


def _convolve(k1, k2):
    """Convolution of two kernels: masses with masses, masses with modes
    (a weighted, shifted mode) and modes with modes."""
    delays = [(w1 * w2, t1 + t2) for w1, t1 in k1.delays
              for w2, t2 in k2.delays]
    modes = [(w * c, a, p, off + tau)
             for masses, others in ((k1.delays, k2.modes),
                                    (k2.delays, k1.modes))
             for w, tau in masses for c, a, p, off in others]
    for m1 in k1.modes:
        for m2 in k2.modes:
            modes.extend(_convolve_modes(m1, m2))
    return _merge(modes, delays)


def kernel(g):
    """Closed-form kernel representation of a symbol.

    Atoms map to single modes, delays to point masses and constants to
    masses at 0; sums concatenate and products convolve.  Products of
    rationals re-expand by partial fractions; equal-pole products raise the
    mode power (they never error out, since pair batteries of atoms
    legitimately square a pole).
    """
    if isinstance(g, Constant):
        return KernelRep(delays=((g.value, 0.0),))
    if isinstance(g, Atom):
        return KernelRep(modes=((g.c, g.alpha, 1, 0.0),))
    if isinstance(g, Delay):
        return KernelRep(delays=((1.0, g.tau),))
    if isinstance(g, Sum):
        parts = [kernel(term) for term in g.terms]
        return _merge([m for k in parts for m in k.modes],
                      [d for k in parts for d in k.delays])
    if isinstance(g, Product):
        k = KernelRep(delays=((1.0, 0.0),))
        for f in g.factors:
            k = _convolve(k, kernel(f))
        return k
    raise TypeError(f"not a symbol expression: {g!r}")


# ---------------------------------------------------------------------------
# the text form, a subset of Python expressions: "1/(2-s)", "exp(0.5*s)",
# "0.3*(1/(1-s))*(1/(3-s))", "1/((1+2j)-s)"; a complex literal is (a+bj)


def _number(node):
    """Value of a real literal (a float) or of (a+bj), negated when one minus
    directly precedes it; None for any other node."""
    match node:
        case ast.UnaryOp(ast.USub(), ast.Constant() | ast.BinOp() as operand):
            value = _number(operand)
            return None if value is None else -value
        case ast.Constant(value) if type(value) in (int, float):
            return float(value)
        case ast.BinOp(re, ast.Add() | ast.Sub() as op,
                       ast.Constant(complex() as im)):
            re = _number(re)
            if isinstance(re, float):
                # complex(re, im) keeps a -0 real part, which re + im loses
                return complex(re, im.imag if isinstance(op, ast.Add)
                               else -im.imag)
    return None


def _operand(node):
    value = _number(node)
    if value is not None:
        return Constant(value)
    match node:
        case ast.UnaryOp(ast.USub(), operand):
            return multiply(Constant(-1.0), _walk(operand))
        case ast.BinOp(c, ast.Div(), ast.BinOp(alpha, ast.Sub(), ast.Name("s"))):
            c, alpha = _number(c), _number(alpha)
            if c is not None and alpha is not None:
                return atom(c, alpha)
        case ast.Call(ast.Name("exp"),
                      [ast.BinOp(tau, ast.Mult(), ast.Name("s"))], []):
            tau = _number(tau)
            if isinstance(tau, float):
                return Delay(tau)
    raise ValueError(f"not a symbol term: {ast.unparse(node)!r}")


def _walk(node):
    # the left spine of +, - and * is walked in a loop, so that a long sum
    # does not recurse; a complex literal (a+bj) is an operand, not a link
    links = []
    while (isinstance(node, ast.BinOp)
           and isinstance(node.op, (ast.Add, ast.Sub, ast.Mult))
           and _number(node) is None):
        links.append(node)
        node = node.left
    tree = _operand(node)
    for link in reversed(links):
        right = _walk(link.right)
        if isinstance(link.op, ast.Sub):
            right = multiply(Constant(-1.0), right)
        tree = (multiply if isinstance(link.op, ast.Mult) else add)(tree, right)
    return tree


def parse(text):
    """Read the text form, a Python expression of only the node shapes that
    `_walk` and `_operand` accept, into an expression tree; else ValueError."""
    try:
        return _walk(ast.parse(text.strip(), mode="eval").body)
    except (SyntaxError, RecursionError, OverflowError) as exc:
        raise ValueError(f"malformed symbol text: {exc}") from exc


def _fmt_real(x):
    """Shortest text that parses back to x exactly: the six-digit `g` form
    where that is exact, else Python's shortest round-trip repr."""
    text = f"{x:g}"
    return text if float(text) == x else repr(x)


def _fmt_scalar(z):
    z = complex(z)
    if z.imag == 0:
        return _fmt_real(z.real)
    imag = _fmt_real(z.imag)
    sign = "" if imag.startswith("-") else "+"
    return f"({_fmt_real(z.real)}{sign}{imag}j)"


def to_text(g):
    """Compact one-line rendering, mainly for report witness strings;
    `parse` reads it back to a symbol with exactly the same values."""
    if isinstance(g, Constant):
        return _fmt_scalar(g.value)
    if isinstance(g, Atom):
        return f"{_fmt_scalar(g.c)}/({_fmt_scalar(g.alpha)}-s)"
    if isinstance(g, Delay):
        return f"exp({_fmt_real(g.tau)}*s)"
    if isinstance(g, Sum):
        return " + ".join(to_text(t) for t in g.terms)
    if isinstance(g, Product):
        return "*".join(f"({to_text(f)})" for f in g.factors)
    raise TypeError(f"not a symbol expression: {g!r}")
