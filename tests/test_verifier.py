"""Named inequality checks: frozen scalar oracles and failure paths."""

import ast
import dataclasses
import graphlib
import importlib
import math
import pkgutil
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import hardycalc
from conftest import damped_string, inline, l2_norm, shift, spiked
from hardycalc import (admissibility, cli, hardy, numkernel, scenarios,
                       semigroup, verifier)
from hardycalc.admissibility import observability_gramian, sqrt_minus_A
from hardycalc.calculus import gA_convolution
from hardycalc.hardy import (GridSpec, SampledSignal, WraparoundError,
                             _real_coefficients, _require_grid_fits,
                             toeplitz_apply, toeplitz_residuals)
from hardycalc.semigroup import Generator, example26, random_stable, resolvent
from hardycalc.symbols import (Constant, Delay, add, atom, eval_at,
                               hinf_norm, kernel, multiply, to_text)
from hardycalc.verifier import (
    check_T0,
    check_analytic_lemma,
    check_calculus_pairs,
    check_cor33a,
    check_eq21,
    check_eq26,
    check_resolvent_identity,
    check_square_function,
    check_thm33,
    check_thm34,
    check_toeplitz,
)

SCALAR = Generator.diagonal([-1.0])
G = atom(1.0, 2.0)  # g(-1) = 1/3, sup |g| on the imaginary axis = 1/2
BATTERY = scenarios._battery(cli.ExperimentConfig())  # the default six


def _verdict(rep):
    return rep.bound_measured <= rep.bound_claimed * (1.0 + rep.tolerance) \
        + rep.tolerance


class TestEq21:
    def test_scalar_oracle(self):
        # sup over the default grid of sqrt(Re s)*|g(A)|/|s-lambda| / ||g||
        # = (2/3) * sqrt(Re s)/|s+1|, maximized at s=1 giving exactly 1/3
        rep = check_eq21(SCALAR, G)
        grid = [complex(re, im) for re in (0.1, 1.0, 10.0)
                for im in (0.0, 1.0, -1.0, 10.0, -10.0)]
        ref = max(math.sqrt(s.real) * (1.0 / 3.0) / abs(s + 1.0) / 0.5
                  for s in grid)
        assert rep.bound_measured == ref
        assert rep.bound_claimed == 1.0
        assert rep.passed and _verdict(rep)
        assert rep.details["n_samples"] == 15

    def test_custom_samples(self):
        # the default grid's worst sample is s = 1, where the ratio is 1/3
        rep = check_eq21(SCALAR, G)
        assert abs(rep.bound_measured - 1.0 / 3.0) < 1e-15
        assert rep.witness == f"{to_text(G)} at s={1.0 + 0j:.3g}"

    def test_battery_names_worst_symbol(self):
        worse = multiply(atom(1.0, 1.0), atom(1.0, 3.0))
        rep = check_eq21(SCALAR, [G, worse])
        assert rep.witness.startswith(to_text(worse)) \
            or rep.witness.startswith(to_text(G))
        assert rep.passed

    def test_empty_battery(self):
        with pytest.raises(ValueError):
            check_eq21(SCALAR, [])


class TestThm33:
    def test_scalar_oracle(self):
        # m_admissible = m_exact = 1/2 for C = I, so the bound factor is 1
        # and the ratio is |g(-1)|/||g|| = (1/3)/(1/2); a single symbol is
        # reported as a battery of one
        C = np.eye(1)
        rep = check_thm33(SCALAR, C, G)
        assert rep.bound_claimed == 1.0
        assert abs(rep.bound_measured - 2.0 / 3.0) < 1e-7
        assert rep.passed
        assert abs(rep.details["bound_factor"] - 1.0) < 1e-12
        battery = check_thm33(SCALAR, C, [G])
        assert (rep.bound_measured, rep.witness) \
            == (battery.bound_measured, battery.witness)

    def test_requires_exact_observability(self):
        with pytest.raises(ValueError, match="exact observability"):
            check_thm33(Generator.diagonal([-1.0, -2.0]),
                        np.zeros((1, 2)), G)

    def test_battery_normalizes_to_ratio(self):
        rep = check_thm33(SCALAR, np.eye(1), [G])
        assert rep.bound_claimed == 1.0
        assert abs(rep.bound_measured - 2.0 / 3.0) < 1e-7


# generators whose -(A + A^H) is indefinite or singular: the certificate is
# the sign-iteration Lyapunov solve's, with an envelope constant K > 1 (253,
# 1.37 and 16.7), which the dissipative scenario inputs never reach
NON_DISSIPATIVE = {
    "jordan6": lambda: Generator.dense(-np.eye(6) + 3.0 * np.eye(6, k=1)),
    "damped_string8": lambda: damped_string(8),
    "spiked": spiked,
}


class TestNonDissipative:
    @pytest.mark.parametrize("make", NON_DISSIPATIVE.values(),
                             ids=list(NON_DISSIPATIVE))
    def test_lyapunov_certificate_under_verdicts(self, make):
        gen = make()
        assert not np.array_equal(gen.certificate.P, np.eye(gen.dimension))
        assert gen.envelope_constant() > 1.0
        assert check_thm33(gen, np.eye(gen.dimension), BATTERY).passed
        assert check_calculus_pairs(gen, scenarios._CALCULUS_BATTERY).passed


class TestCor33a:
    def test_scalar_oracle(self):
        # Q = 2, C = sqrt(2) A reproduce the identity Gramian exactly, so
        # the fold reduces to the von Neumann ratio ||g(A)||/||g|| = 2/3
        rep = check_cor33a(SCALAR, G)
        assert abs(rep.bound_measured - 2.0 / 3.0) < 1e-7
        assert rep.bound_claimed == 1.0
        assert rep.passed
        assert rep.details["gramian_identity_residual"] < 1e-12
        assert rep.details["pairing_identity_residual"] < 1e-12
        assert abs(rep.details["von_neumann_ratio"] - 2.0 / 3.0) < 1e-7

    def test_rejects_non_dissipative(self):
        gen = Generator.dense(np.array([[-1.0, 4.0], [0.0, -1.0]]))
        with pytest.raises(ValueError, match="not positive"):
            check_cor33a(gen, G)

    def test_a_wrong_gramian_fails_and_is_named(self, monkeypatch):
        # a 1e-6 relative error in the Gramian decides the verdict, and the
        # report names the identity, not a symbol
        solve = verifier.solve_lyapunov
        monkeypatch.setattr(verifier, "solve_lyapunov",
                            lambda A, R: (1.0 + 1e-6) * solve(A, R))
        rep = check_cor33a(semigroup.random_dissipative(8, 7), BATTERY)
        assert not rep.passed
        assert rep.witness == "Gramian identity G = I"
        assert rep.bound_measured == \
            rep.details["gramian_identity_residual"] / 1e-8

    def test_battery_norms_are_one_call(self, monkeypatch):
        # the six g(A) norms are one stacked operator_norm call, counted
        # through every hardycalc module that binds the kernel
        gen = semigroup.random_dissipative(8, 7)
        calls = _count_norm_calls(monkeypatch, [
            importlib.import_module(f"hardycalc.{info.name}")
            for info in pkgutil.iter_modules(hardycalc.__path__)])
        assert check_cor33a(gen, BATTERY).passed
        assert calls == [(len(BATTERY), 8, 8)]


def _count_norm_calls(monkeypatch, modules):
    """The shapes of the operator_norm calls made through `modules`."""
    calls = []
    original = numkernel.operator_norm

    def counting(M):
        calls.append(np.shape(M))
        return original(M)

    for module in modules:
        if getattr(module, "operator_norm", None) is original:
            monkeypatch.setattr(module, "operator_norm", counting)
    return calls


class TestStackedNorms:
    """Each check's norms of one battery are one operator_norm call; eq21
    takes one per symbol, over its ten resolvent samples, and the product
    rule one per first factor, over the second factors."""

    @pytest.mark.parametrize("check, calls", [
        (lambda b: check_thm33(random_stable(8, 8), np.eye(8), b), 1),
        (lambda b: check_thm34(example26(8)[0], b), 1),
        (lambda b: check_calculus_pairs(random_stable(8, 8), b),
         1 + len(BATTERY)),
        (lambda b: check_eq21(random_stable(8, 8), b), len(BATTERY))])
    def test_one_call_per_battery(self, monkeypatch, check, calls):
        counted = _count_norm_calls(monkeypatch, [verifier])
        assert check(BATTERY).passed
        assert len(counted) == calls
        assert sum(shape[0] for shape in counted) >= len(BATTERY)

    def test_eq21_solves_each_sample_once(self, monkeypatch):
        gen = random_stable(8, 8)
        samples = []

        def counting(g, s):
            samples.append(s)
            return resolvent(g, s)

        monkeypatch.setattr(verifier, "resolvent", counting)
        check_eq21(gen, BATTERY)
        assert samples == list(verifier._EQ21_SAMPLES)


class TestThm34:
    def test_scalar_oracle(self):
        # m1 = m2 = 1, probe ||g(A)T(1)|| = e^{-1}/3, so the ratio of
        # |g(-1)| = 1/3 to the bound 0.5 + e^{-1}/3 is measured against 1
        rep = check_thm34(SCALAR, G)
        assert rep.bound_claimed == 1.0
        ref = (1.0 / 3.0) / (0.5 + math.exp(-1.0) / 3.0)
        assert abs(rep.bound_measured - ref) < 1e-14
        assert abs(rep.details["m1"] - 1.0) < 1e-12
        assert abs(rep.details["m2"] - 1.0) < 1e-12
        assert rep.passed

    def test_reference_model(self):
        gen, _ = example26(32)
        rep = check_thm34(gen, G)
        assert rep.passed

    def test_rejects_complex_spectrum(self):
        gen = Generator.diagonal([-1.0 + 1.0j, -1.0 - 1.0j])
        with pytest.raises(ValueError, match="real spectrum"):
            check_thm34(gen, G)

    def test_rejects_dense(self):
        gen = Generator.dense(np.array([[-2.0, 1.0], [1.0, -2.0]]))
        with pytest.raises(ValueError, match="diagonal"):
            check_thm34(gen, G)


class TestT0:
    def test_constant_symbol_saturates(self):
        # for g = const the Gramian slack is exactly 1: the bound is tight
        rep = check_T0(SCALAR, Constant(0.7))
        assert rep.bound_measured == 1.0
        assert rep.bound_claimed == 1.0
        assert rep.passed
        assert abs(rep.details["gamma_A"] - 0.5) < 1e-12
        assert abs(rep.details["sup_T_01"] - 1.0) < 1e-9

    def test_per_symbol_slack_keys(self):
        battery = [G, Constant(0.7)]
        rep = check_T0(SCALAR, battery)
        assert set(rep.details["per_symbol_slack"]) \
            == {to_text(g) for g in battery}
        assert all(v <= 1.0 + 1e-4
                   for v in rep.details["per_symbol_slack"].values())

    def test_scan_witness_is_the_first_peak(self, monkeypatch):
        # on example26(16) the 16 per-mode peaks 1/(2n^2) of
        # sqrt(t)||C T(t)|| all reach e^{-1/2}/sqrt(2) within rounding: the
        # witness is the earliest, t = 1/512, whichever of them rounds
        # highest, and a peak above the others by more than roundoff is
        # named itself
        gen, C = example26(16)
        peaks = -1.0 / (2.0 * gen.eigenvalues.real)
        scan = verifier.sqrt_t_bound_scan

        def witness(at=(), bump=lambda x: np.nextafter(x, np.inf)):
            def bumped(*args):
                ts, vals = scan(*args)
                vals = vals.copy()
                hit = np.isin(ts, at)
                vals[:, hit] = bump(vals[:, hit])
                return ts, vals

            with monkeypatch.context() as m:
                m.setattr(verifier, "sqrt_t_bound_scan", bumped)
                rep = next(r for r in verifier.check_example26(gen, C)
                           if r.name == "example26_sqrt_t_bound")
            return rep.witness, rep.details["t_at_sup"], rep.bound_measured

        first = ("t=0.00195312", 2.0 ** -9)
        *named, sup = witness()
        assert tuple(named) == first
        assert abs(sup - math.exp(-0.5) / math.sqrt(2.0)) < 1e-15
        for at in ([1.0 / 18], [1.0 / 2], peaks[peaks > 2.0 ** -9], peaks):
            assert witness(at)[:2] == first
        assert witness([1.0 / 18], lambda x: x * (1.0 + 1e-9))[:2] == (
            "t=0.0555556", 1.0 / 18)

    def test_diagonal_scan_hits_the_peak_times(self):
        # sqrt(t) e^{-n^2 t} peaks at t = 1/(2n^2) with value
        # e^{-1/2}/(n sqrt 2); the 120-point grid alone misses the peak of
        # this symbol's scan by 2.9e-6 relative
        gen, _ = example26(16)
        g = multiply(atom(1.0, 1.0), atom(1.0, 3.0))
        rep = check_T0(gen, g)
        n = np.arange(1.0, 17.0)
        peak = np.max(np.abs(eval_at(g, -n ** 2)) * math.exp(-0.5)
                      / (n * math.sqrt(2.0)))
        assert rep.details["sup_T_01"] == 1.0
        assert rep.details["per_symbol_slack"][to_text(g)] == pytest.approx(
            peak / hinf_norm(g), rel=1e-14)


class TestExample26:
    def test_floor_reads_the_scan(self, monkeypatch):
        # the floor is the sqrt(t) scan at the peak times 1/n^2, read from
        # the scan that the sqrt(t) bound reports on: lowered there by a
        # relative 1e-8, the floor falls short of 1/e and the bound holds
        gen, C = example26(16)
        scan = verifier.sqrt_t_bound_scan

        def lowered(*args):
            ts, vals = scan(*args)
            hit = np.isin(ts, [1.0 / (n * n) for n in (1, 2, 4, 8)])
            assert np.count_nonzero(hit) == 4
            vals = vals.copy()
            vals[:, hit] *= 1.0 - 1e-8
            return ts, vals

        monkeypatch.setattr(verifier, "sqrt_t_bound_scan", lowered)
        by_name = {r.name: r for r in verifier.check_example26(gen, C)}
        floor = by_name["example26_sharpness_floor"]
        assert not floor.passed
        assert floor.details["min_scan_value"] == pytest.approx(
            math.exp(-1.0) * (1.0 - 1e-8), rel=1e-15)
        assert by_name["example26_sqrt_t_bound"].passed


class TestAnalyticLemma:
    def test_reference_model_peak(self):
        # per-mode peak of t|lambda|e^{lambda t} is 1/e at t = 1/|lambda|,
        # and the scan grid contains those exact times
        gen, _ = example26(32)
        rep = check_analytic_lemma(gen)
        assert abs(rep.bound_measured - math.exp(-1.0)) < 1e-15
        assert abs(rep.bound_claimed - 1.0) < 1e-12
        assert rep.passed

    def test_witness_is_the_first_peak(self, monkeypatch):
        # the 32 per-mode peaks all reach 1/e within rounding: the witness
        # is the earliest, t = 1/32^2, whichever of them rounds highest,
        # and a peak above the others by more than roundoff is named itself
        gen, _ = example26(32)
        peaks = -1.0 / gen.eigenvalues.real
        scan = verifier.norm_scan

        def witness(at=(), bump=lambda x: np.nextafter(x, np.inf)):
            def bumped(*args):
                ts, norms = scan(*args)
                norms = norms.copy()
                hit = np.isin(ts, at)
                norms[0, hit] = bump(norms[0, hit])
                return ts, norms

            with monkeypatch.context() as m:
                m.setattr(verifier, "norm_scan", bumped)
                rep = check_analytic_lemma(gen)
            assert rep.bound_measured == rep.details["analytic_sup"]
            return rep.witness, rep.details["t_at_sup"]

        first = ("t=0.000976562", 2.0 ** -10)
        assert witness() == first
        for at in ([1.0 / 29 ** 2], [1.0], peaks[peaks > 2.0 ** -10], peaks):
            assert witness(at) == first
        assert witness([1.0 / 29 ** 2], lambda x: x * (1.0 + 1e-9)) == (
            "t=0.00118906", 1.0 / 29 ** 2)

    def test_rejects_dense(self):
        gen = Generator.dense(np.array([[-2.0, 1.0], [1.0, -2.0]]))
        with pytest.raises(ValueError):
            check_analytic_lemma(gen)


class TestEq26:
    def test_reference_model(self):
        gen, _ = example26(32)
        rep = check_eq26(gen)
        assert abs(rep.bound_measured - 1.0) < 1e-12
        assert rep.passed
        assert rep.details["tau_quadrature_budget_fraction"] < 1.0
        assert rep.details["exact_observability_scaled"] > 0.0

    def test_scalar(self):
        rep = check_eq26(SCALAR)
        assert rep.passed

    def test_m1_is_the_thm34_constant(self):
        gen, _ = example26(16)
        gram = observability_gramian(gen, sqrt_minus_A(gen))
        m1 = math.sqrt(2.0 * gram.m_admissible)
        assert check_eq26(gen).details["m1"] == m1
        assert check_thm34(gen, G).details["m1"] == m1


class TestSquareFunction:
    def test_reference_model(self):
        gen, _ = example26(32)
        rep = check_square_function(gen)
        assert rep.bound_measured <= 1e-6
        assert rep.passed
        assert rep.witness == "whole operator, N=32"
        assert rep.details["rhs_norm"] == pytest.approx(0.5, rel=1e-12)

    def test_scalar(self):
        rep = check_square_function(SCALAR)
        assert rep.bound_measured <= 1e-6

    def test_weight_error_in_shared_rule_fails(self, monkeypatch):
        # the two sides share no rule, so a 0.1% error in the start series
        # of the doubling integrals shows instead of cancelling in the
        # ratio; eq26 reads its constants from the Gramian, whose quadrature
        # cross-check uses the same series and aborts
        series = semigroup._start_series
        monkeypatch.setattr(semigroup, "_start_series",
                            lambda op, X, h: (1.0 + 1e-3) * series(op, X, h))
        gen, _ = example26(32)
        assert not check_square_function(gen).passed
        with pytest.raises(ArithmeticError, match="Gramian cross-check"):
            check_eq26(gen)


def _orthogonal_unit(states):
    """A fixed unit vector orthogonal to every vector in states."""
    basis = np.linalg.qr(np.stack(states, axis=1))[0]
    v = np.arange(1.0, len(states[0]) + 1.0) + 1j
    v -= basis @ (basis.conj().T @ v)
    return v / np.linalg.norm(v)


def _seeded_states(N, seed, count):
    """The first and last basis vectors, then `count` unit vectors from
    default_rng(seed): the states the square-function and extension checks
    once sampled instead of comparing whole operators."""
    rng = np.random.default_rng(seed)
    states = [np.eye(N)[0].astype(complex), np.eye(N)[-1].astype(complex)]
    for _ in range(count):
        v = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        states.append(v / np.linalg.norm(v))
    return states


class TestWholeOperator:
    """An error orthogonal to any fixed set of states fails the checks that
    compare operators; a check on those states alone would pass it."""

    def test_square_function_sees_an_error_off_the_states(self, monkeypatch):
        gen, _ = example26(32)
        v = _orthogonal_unit(_seeded_states(32, 2, 2))
        doubling = verifier.gramian

        def perturbed(g, C):
            Q = doubling(g, C)
            return Q + 1e-4 * np.linalg.norm(Q, 2) * np.outer(v, v.conj())

        assert check_square_function(gen).passed
        monkeypatch.setattr(verifier, "gramian", perturbed)
        rep = check_square_function(gen)
        assert not rep.passed
        assert rep.bound_measured == pytest.approx(1e-4, rel=1e-3)

    def test_extensions_see_an_error_off_the_states(self, monkeypatch):
        # e_3 and the seed-7 state; the error E x = 0 on both
        states = [np.eye(16)[2].astype(complex), _seeded_states(16, 7, 1)[2]]
        v = _orthogonal_unit(states)
        lebesgue = verifier.lebesgue_limit

        def perturbed(gen, C, *rest):
            E = 1e-4 * np.linalg.norm(C, 2) * np.outer(np.eye(16)[0], v.conj())
            return lebesgue(gen, C + E, *rest)

        cfg = cli.ExperimentConfig(scenario="extensions", seed=7)
        assert scenarios.run_scenario("extensions", cfg)[0].passed
        monkeypatch.setattr(verifier, "lebesgue_limit", perturbed)
        rep, = scenarios.run_scenario("extensions", cfg)
        assert not rep.passed
        assert rep.bound_measured == pytest.approx(1e-4, rel=1e-3)


_GRAMIAN_KERNELS = ("solve_lyapunov", "hermitian_eigs")


@pytest.fixture
def kernel_calls(monkeypatch):
    """Counts of solve_lyapunov and hermitian_eigs calls made through any
    hardycalc module that imports them."""
    counts = dict.fromkeys(_GRAMIAN_KERNELS, 0)
    for info in pkgutil.iter_modules(hardycalc.__path__):
        module = importlib.import_module(f"hardycalc.{info.name}")
        for name in _GRAMIAN_KERNELS:
            fn = getattr(numkernel, name)
            if module is not numkernel and getattr(module, name, None) is fn:
                def counting(*args, _fn=fn, _name=name, **kwargs):
                    counts[_name] += 1
                    return _fn(*args, **kwargs)
                monkeypatch.setattr(module, name, counting)
    return counts


class TestGramianSource:
    def test_eq26_solves_and_decomposes_once(self, kernel_calls):
        gen = example26(64)[0]
        check_eq26(gen)
        assert kernel_calls == {"solve_lyapunov": 1, "hermitian_eigs": 1}

    def test_example26_solves_each_model_once(self, monkeypatch):
        # N = 4, 16 and the 64-mode model the Gramian report already holds
        calls = []

        def counting(gen, C):
            calls.append(gen.dimension)
            return observability_gramian(gen, C)

        monkeypatch.setattr(verifier, "observability_gramian", counting)
        reports = verifier.check_example26(*example26(64))
        assert sorted(calls) == [4, 16, 64]
        assert all(r.passed for r in reports)

    @pytest.mark.parametrize("check", [
        lambda gen: check_thm34(gen, G), check_analytic_lemma])
    def test_thm34_constants_solve_once(self, kernel_calls, check):
        check(example26(16)[0])
        assert kernel_calls == {"solve_lyapunov": 1, "hermitian_eigs": 1}

    def test_only_cor33a_calls_the_kernels(self):
        # every other Gramian comes from observability_gramian, which
        # cross-checks it by quadrature
        tree = ast.parse(Path(verifier.__file__).read_text())
        callers = set()
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                for node in ast.walk(fn):
                    if isinstance(node, ast.Call) and getattr(
                            node.func, "id", getattr(node.func, "attr", None)) \
                            in _GRAMIAN_KERNELS:
                        callers.add(fn.name)
        assert callers == {"check_cor33a"}


class TestVerdictHome:
    def test_only_verifier_makes_reports(self):
        # calculus and admissibility return numbers; every CheckReport is
        # made in verifier.  The package __init__ lists every module.
        found = set()
        for path in sorted(Path(hardycalc.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom) and node.level == 1 and (
                        node.module == "report" or node.module is None and any(
                            a.name == "report" for a in node.names)):
                    found.add((path.stem, "imports report"))
                elif isinstance(node, ast.Import) and any(
                        a.name == "time" for a in node.names):
                    found.add((path.stem, "imports time"))
                elif isinstance(node, ast.Call) and getattr(
                        node.func, "id", getattr(node.func, "attr", None)) \
                        == "finish_report":
                    found.add((path.stem, "calls finish_report"))
        assert {f for f in found if f[1] != "imports time"} == {
            ("__init__", "imports report"), ("verifier", "imports report"),
            ("verifier", "calls finish_report")}
        assert not {("calculus", "imports time"),
                    ("admissibility", "imports time")} & found


# Every private name that one module of the package imports from another,
# with its reason.  A new one fails TestModuleBoundary until it is listed.
_PRIVATE_IMPORTS = {
    ("calculus", "numkernel", "_poly_matrix"):
        "the Toeplitz route reads g(A) off as a polynomial in T(dt), and "
        "numkernel keeps the one polynomial evaluator",
    ("calculus", "hardy", "_require_grid_fits"):
        "the Toeplitz route to g(A) runs the grid-fit rule of the Toeplitz "
        "walks, which lives with the multipliers it judges",
    ("verifier", "calculus", "_gA_exact"):
        "the closed-form g(A) of the claimed sides, which the benchmark's "
        "tracer lists as a private cross-module call (bench/spans.py)",
}


class TestModuleBoundary:
    def test_verifier_states_claims_and_hardy_runs_the_walks(self):
        # the Toeplitz walks and their threads live in hardy behind
        # toeplitz_residuals and two_way; verifier reads none of their parts
        package = Path(hardycalc.__file__).parent
        private, threads = set(), set()
        for path in sorted(package.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom) and node.level:
                    private |= {(path.stem, node.module, a.name)
                                for a in node.names if a.name.startswith("_")}
                if isinstance(node, ast.Import) and any(
                        a.name == "threading" for a in node.names) or (
                        isinstance(node, ast.ImportFrom)
                        and node.module == "threading"):
                    threads.add(path.stem)
        assert not {(m, name) for m, source, name in private
                    if (m, source) == ("verifier", "hardy")}
        assert threads == {"hardy"}
        assert private == set(_PRIVATE_IMPORTS)


def _package_imports(node, package):
    """Names of the package modules that one import statement imports."""
    if isinstance(node, ast.ImportFrom) and node.level:
        return [node.module] if node.module else [a.name for a in node.names]
    if isinstance(node, ast.ImportFrom):
        names = [node.module]
    elif isinstance(node, ast.Import):
        names = [a.name for a in node.names]
    else:
        return []
    return [n.partition(".")[2] or n for n in names
            if n.partition(".")[0] == package]


class TestNoRandomState:
    def test_verifier_draws_no_random_numbers(self):
        # every check compares whole operators or fixed inputs: no seeded
        # state or sample is drawn inside the verifier
        tree = ast.parse(Path(verifier.__file__).read_text())
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.alias):
                names.update(node.name.split("."))
        assert not names & {"random", "default_rng", "RandomState"}


class TestImportGraph:
    def test_imports_are_module_level_and_acyclic(self):
        # a function-level import hides a dependency, and usually a cycle
        package = Path(hardycalc.__file__).parent
        inner, graph = [], {}
        for path in sorted(package.glob("*.py")):
            tree = ast.parse(path.read_text())
            for fn in ast.walk(tree):
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    inner += [(path.stem, fn.name, m) for node in ast.walk(fn)
                              for m in _package_imports(node, package.name)]
            graph[path.stem] = {m for node in tree.body
                                for m in _package_imports(node, package.name)}
        assert inner == []
        assert set().union(*graph.values()) <= set(graph)
        graphlib.TopologicalSorter(graph).prepare()  # CycleError on a cycle


def _calculus_subassertions(gen, battery):
    """(label, claimed, measured) of each calculus axiom, recomputed from
    gA_convolution, resolvent and np.linalg.norm."""
    def norm(M):
        return float(np.linalg.norm(M, 2))

    # the verifier's one batch: 1, 1/(2-s), the battery, then the products
    pairs = [(g1, g2) for g1 in battery for g2 in battery]
    out = gA_convolution(gen, [Constant(1.0), atom(1.0, 2.0), *battery,
                               *(multiply(g1, g2) for g1, g2 in pairs)])
    ident, at = out[0], out[1]
    single = dict(zip(battery, out[2:2 + len(battery)]))
    subs = [("1(A) = I", ident.est_error,
             norm(ident.matrix - np.eye(gen.dimension))),
            ("(1/(2-s))(A) = (2I-A)^-1", at.est_error,
             norm(at.matrix - resolvent(gen, 2.0)))]
    for (g1, g2), ab in zip(pairs, out[2 + len(battery):]):
        a, b = single[g1], single[g2]
        subs.append((f"g1={to_text(g1)}, g2={to_text(g2)}",
                     ab.est_error + a.est_error * norm(b.matrix)
                     + b.est_error * norm(a.matrix),
                     norm(ab.matrix - a.matrix @ b.matrix)))
    return subs


CALCULUS_GEN = Generator.diagonal([-2.0, -3.0])


class TestCalculusPairs:
    def test_reports_the_pair_closest_to_failing(self, capsys):
        # unit and atom are checked once per generator and each product
        # against its own claim; the report names the one closest to
        # failing when its headroom is at least 1e-3, and the atom identity
        # otherwise, where rounding would decide the argmax
        _, reports = cli.run(cli.ExperimentConfig(scenario="calculus_axioms",
                                                  seed=7))
        capsys.readouterr()
        battery = (atom(1.0, 1.0), atom(1.0, 2.0),
                   multiply(atom(1.0, 1.0), atom(1.0, 3.0)), Delay(0.3),
                   Constant(0.7))
        gens = {"example26_16": example26(16)[0],
                **{f"stable8_seed{s}": random_stable(8, s) for s in (8, 9, 10)}}
        assert sorted(r.name for r in reports) == sorted(
            f"calculus_axioms[{label}]" for label in gens)
        for rep in reports:
            gen = gens[rep.name[len("calculus_axioms["):-1]]
            subs = _calculus_subassertions(gen, battery)
            room = [m / (c * (1.0 + 1e-9) + 1e-9) for _, c, m in subs]
            label, claimed, measured = subs[
                room.index(max(room)) if max(room) >= 1e-3 else 1]
            assert rep.witness.startswith(label + " on ")
            assert rep.tolerance == 1e-9
            assert rep.bound_claimed == pytest.approx(claimed, rel=1e-9)
            assert rep.bound_measured == pytest.approx(measured, rel=1e-9)
            assert rep.details["pairs"] == len(battery) ** 2
        by_name = {r.name: r for r in reports}
        assert by_name["calculus_axioms[example26_16]"].witness.startswith(
            "(1/(2-s))(A) = (2I-A)^-1")

    def test_report_shape_and_pass(self):
        rep = check_calculus_pairs(CALCULUS_GEN, [atom(1.0, 1.0),
                                                  atom(1.0, 2.0)])
        assert rep.name == "calculus_axioms"
        assert rep.passed
        assert rep.bound_measured <= 1e-9
        assert rep.details["pairs"] == 4
        for key in ("identity_residual", "atom_residual",
                    "max_product_residual"):
            assert rep.details[key] <= 1e-9

    def test_product_rule_with_delay(self):
        rep = check_calculus_pairs(CALCULUS_GEN, [Delay(0.3), atom(1.0, 2.0)])
        assert rep.passed

    def test_dense_generator(self):
        rep = check_calculus_pairs(random_stable(6, 5), [
            atom(1.0, 1.0), add(atom(0.4, 2.0), Constant(0.5))])
        assert rep.passed
        assert rep.bound_measured <= 1e-9

    def test_a_wrong_product_fails_and_is_named(self, monkeypatch):
        # a 1e-6 relative error in one product's g(A) must decide the
        # verdict, not be folded under the unit and atom residuals
        g1, g2 = atom(1.0, 1.0), atom(1.0, 3.0)
        convolve = verifier.gA_convolution

        def wrong(gen, symbols):
            return [dataclasses.replace(out, matrix=(1 + 1e-6) * out.matrix)
                    if g == multiply(g1, g2) else out
                    for g, out in zip(symbols, convolve(gen, symbols))]

        monkeypatch.setattr(verifier, "gA_convolution", wrong)
        rep = check_calculus_pairs(CALCULUS_GEN, [g1, g2])
        assert not rep.passed
        assert rep.witness.startswith(f"g1={to_text(g1)}, g2={to_text(g2)}")


class TestResolventIdentity:
    GENS = [(seed, random_stable(8, seed)) for seed in (8, 9, 10)]
    GRID = GridSpec(4096, 2.0 ** -8)

    def test_convolution_claims_its_error_estimate(self):
        conv, _ = check_resolvent_identity(self.GENS, self.GRID)
        room = {}
        for seed, gen in self.GENS:
            ga, = gA_convolution(gen, [G])
            measured = float(np.linalg.norm(ga.matrix - resolvent(gen, 2.0), 2))
            room[seed] = (measured / (ga.est_error * (1.0 + 1e-9) + 1e-9),
                          ga.est_error, measured)
        seed = max(room, key=lambda s: room[s][0])
        if room[seed][0] < 1e-3:  # far from failing: the first seed
            seed = self.GENS[0][0]
        assert conv.witness == f"seed {seed}"
        assert conv.tolerance == 1e-9
        assert conv.bound_claimed == room[seed][1]
        assert conv.bound_measured == pytest.approx(room[seed][2], rel=1e-9)
        assert conv.passed

    def test_a_wrong_convolution_fails(self, monkeypatch):
        # a 1e-7 relative error is far above the route's error estimate
        convolve = verifier.gA_convolution

        def wrong(gen, symbols):
            return [dataclasses.replace(out, matrix=(1 + 1e-7) * out.matrix)
                    for out in convolve(gen, symbols)]

        monkeypatch.setattr(verifier, "gA_convolution", wrong)
        conv, toep = check_resolvent_identity(self.GENS, self.GRID)
        assert not conv.passed
        assert toep.passed

    def test_start_series_error_fails_every_convolution_claim(
            self, monkeypatch, capsys):
        # the estimate holds no second chain that a wrong start series
        # would move alike: a 1e-7 relative error in it fails the four
        # calculus_axioms reports and the resolvent identity's convolution
        # side of the seed-7 sweep, each against a claim near 1e-12
        series = semigroup._start_series
        monkeypatch.setattr(semigroup, "_start_series",
                            lambda op, X, h: (1.0 + 1e-7) * series(op, X, h))
        reports = []
        for scenario in ("calculus_axioms", "resolvent_identity"):
            reports += cli.run(cli.ExperimentConfig(scenario=scenario,
                                                    seed=7))[1]
        capsys.readouterr()
        verdicts = {r.name: r.passed for r in reports
                    if r.name.startswith("calculus_axioms[")
                    or r.name == "resolvent_identity_convolution"}
        assert len(verdicts) == 5
        assert not any(verdicts.values())


class TestWorst:
    def test_near_tie_names_the_first_key(self):
        # within 1e-12 relative of the largest value, key order decides;
        # the largest value is measured
        assert verifier._worst({"b": 1.0, "a": 1.0 - 1e-13, "c": 0.5}) \
            == ("a", 1.0)
        assert verifier._worst({"b": 1.0, "a": 1.0 - 1e-11}) == ("b", 1.0)
        assert verifier._worst({2: math.inf, 0: 1.0, 1: math.inf}) \
            == (1, math.inf)

    def test_floor_returns_the_default(self):
        assert verifier._worst({1: 1e-13, 2: 5e-13}, 1e-12, 0) == (0, 5e-13)
        assert verifier._worst({1: 1e-13, 2: 5e-12}, 1e-12, 0) == (2, 5e-12)

    def test_a_nan_wins(self):
        key, value = verifier._worst(
            {0: 1.0, 3: math.nan, 1: math.inf, 2: math.nan}, 10.0, -1)
        assert key == 2 and math.isnan(value)

    def test_no_cases_is_a_value_error(self):
        with pytest.raises(ValueError):
            verifier._worst({})

    def test_only_worst_takes_an_argmax(self):
        # every witness of verifier goes through the one rule, and the
        # scans of admissibility leave the pick to it
        tree = ast.parse(Path(verifier.__file__).read_text())
        worst = next(node for node in tree.body
                     if isinstance(node, ast.FunctionDef)
                     and node.name == "_worst")

        def argmaxes(node):
            return [n for n in ast.walk(node)
                    if isinstance(n, ast.Attribute) and n.attr == "argmax"
                    or isinstance(n, ast.Name) and n.id == "argmax"]

        assert argmaxes(worst)
        assert len(argmaxes(tree)) == len(argmaxes(worst))
        assert not argmaxes(ast.parse(
            Path(admissibility.__file__).read_text()))


class TestNanRatio:
    @pytest.mark.parametrize("check", [
        lambda syms: check_eq21(SCALAR, syms),
        lambda syms: check_thm33(SCALAR, np.eye(1),
                                 syms),
        lambda syms: check_cor33a(SCALAR, syms),
        lambda syms: check_thm34(SCALAR, syms),
        lambda syms: check_T0(SCALAR, syms),
        lambda syms: next(r for r in check_toeplitz(TOEPLITZ_GRID, syms)
                          if r.name == "toeplitz_norm_bound")])
    def test_a_nan_ratio_fails_the_battery(self, check, monkeypatch):
        # a nan must not be passed over in the search for the worst symbol
        bad = atom(1.0, 3.0)
        monkeypatch.setattr(verifier, "_hinf", lambda g: (
            math.nan if g == bad else hinf_norm(g)))
        rep = check([G, bad])
        assert not rep.passed
        assert rep.witness.startswith(to_text(bad))


class TestZeroBound:
    ZERO = multiply(Constant(0.0), G)

    def test_ratio(self):
        assert verifier._ratio(0.0, 0.0) == 0.0
        assert verifier._ratio(1e-300, 0.0) == math.inf
        assert verifier._ratio(3.0, 2.0) == 1.5
        assert verifier._ratio(math.nan, 0.0) == math.inf  # never a PASS

    @pytest.mark.parametrize("check", [
        lambda syms: check_eq21(SCALAR, syms),
        lambda syms: check_thm33(SCALAR, np.eye(1),
                                 syms),
        lambda syms: check_cor33a(SCALAR, syms),
        lambda syms: check_thm34(SCALAR, syms),
        lambda syms: check_T0(SCALAR, syms),
        lambda syms: next(r for r in check_toeplitz(TOEPLITZ_GRID, syms)
                          if r.name == "toeplitz_norm_bound")])
    def test_zero_symbol_meets_every_bound(self, check):
        # the zero symbol is in H-infinity, and 0 <= C*0 holds
        assert hinf_norm(self.ZERO) == 0.0
        rep = check([self.ZERO])
        # cor33a folds its identity residuals into the measured value
        assert rep.passed
        assert rep.details.get("von_neumann_ratio", rep.bound_measured) == 0.0

    def test_zero_bound_of_a_nonzero_symbol_fails(self, monkeypatch):
        monkeypatch.setattr(verifier, "_hinf", lambda g: 0.0)
        rep = check_thm33(SCALAR, np.eye(1), G)
        assert not rep.passed
        assert rep.bound_measured == math.inf


TOEPLITZ_GRID = GridSpec(1024, 2.0 ** -6)
TOEPLITZ_BATTERY = (atom(1.0, 1.0), Delay(0.5),
                    add(atom(0.4, 2.0), Constant(0.5)))
# a complex pole makes complex kernels: one signal per row
COMPLEX_BATTERY = TOEPLITZ_BATTERY + (atom(1.0, 1.0 + 2.0j),)
TAUS = (TOEPLITZ_GRID.dt, 16 * TOEPLITZ_GRID.dt, 0.5)


def _product_oracles(g, h, f):
    """||M_{gh} f - M_g M_h f||, ||M_{gh} f|| and ||M_h f|| from
    per-signal applications."""
    out = toeplitz_apply(h, f)
    lhs = toeplitz_apply(multiply(g, h), f)
    rhs = toeplitz_apply(g, out)
    return (l2_norm(SampledSignal(f.grid, lhs.values - rhs.values)),
            l2_norm(lhs), l2_norm(out))


def _doubled(values):
    """A doubled-window row holding the samples in its first half."""
    row = np.zeros(2 * len(values), dtype=complex)
    row[:len(values)] = values
    return row


def _shift_oracle(g, f, tau):
    """||sigma_tau M_g f - M_g sigma_tau f|| from per-signal applications."""
    lhs = shift(toeplitz_apply(g, f), tau)
    rhs = toeplitz_apply(g, shift(f, tau))
    return l2_norm(SampledSignal(f.grid, lhs.values - rhs.values))


class TestToeplitzResiduals:
    def test_spectral_residual_matches_two_applications(self):
        # complex kernels, one signal per row: the residual formed in the
        # spectrum, one inverse DFT per (pair, signal), against the
        # difference of two separate applications
        grid, syms = TOEPLITZ_GRID, list(COMPLEX_BATTERY)
        stack = verifier._signals(grid)
        sigs = [SampledSignal(grid, f) for f in stack]
        pairs = [(i, j) for i in range(len(syms)) for j in range(len(syms))]
        _, resid, norms, _ = toeplitz_residuals(syms, pairs, stack, grid, ())
        assert set(resid) == {(i, j, k) for i, j in pairs
                              for k in range(len(sigs))}
        for (i, j, k), r in resid.items():
            oracle, lhs_norm, norm = _product_oracles(syms[i], syms[j],
                                                      sigs[k])
            assert abs(r - oracle) <= 1e-12 * lhs_norm
            # the outputs M_h f_k of the row walk, bit for bit
            assert norms[j, k] == norm

    def test_shift_residuals_match_per_signal(self):
        # complex kernels, one signal per row: one stack holds a signal and
        # its shifts; each residual against shift and toeplitz_apply on
        # single signals, bit for bit.  The shift walk leaves each row as
        # its guarded spectrum: the product walk after it gives, bit for
        # bit, what it gives after a walk with no shifts
        grid, syms = TOEPLITZ_GRID, list(COMPLEX_BATTERY)
        stack = verifier._signals(grid)
        pairs = [(0, 1), (1, 3), (3, 3)]
        shifted, *products = toeplitz_residuals(syms, pairs, stack, grid,
                                                TAUS)
        assert products == list(toeplitz_residuals(syms, pairs, stack, grid,
                                                   ())[1:])
        assert set(shifted) == {(i, k, t) for i in range(len(syms))
                                for k in range(len(stack))
                                for t in range(len(TAUS))}
        for (i, k, t), r in shifted.items():
            f = SampledSignal(grid, stack[k])
            assert r == _shift_oracle(syms[i], f, TAUS[t])

    def test_packed_product_residuals_match_per_signal(self):
        # real kernels, two real signals per row: each signal's residual
        # and output norm against per-signal applications, to rounding
        grid, syms = TOEPLITZ_GRID, list(TOEPLITZ_BATTERY)
        stack = verifier._signals(grid)
        sigs = [SampledSignal(grid, f) for f in stack]
        rows, carried = hardy._pack(stack, True)
        assert carried == [(0, 1), (2, 3), (4,)] and len(rows) == 3
        pairs = [(i, j) for i in range(len(syms)) for j in range(len(syms))]
        _, resid, norms, _ = toeplitz_residuals(syms, pairs, stack, grid, ())
        assert set(resid) == {(i, j, k) for i, j in pairs
                              for k in range(len(sigs))}
        for (i, j, k), r in resid.items():
            oracle, _, norm = _product_oracles(syms[i], syms[j], sigs[k])
            assert abs(r - oracle) <= 1e-15 * l2_norm(sigs[k])
            assert abs(norms[j, k] - norm) <= 1e-14 * norm

    def test_packed_shift_residuals_match_per_signal(self):
        grid, syms = TOEPLITZ_GRID, list(TOEPLITZ_BATTERY)
        stack = verifier._signals(grid)
        shifted = toeplitz_residuals(syms, [], stack, grid, TAUS)[0]
        assert set(shifted) == {(i, k, t) for i in range(len(syms))
                                for k in range(len(stack))
                                for t in range(len(TAUS))}
        for (i, k, t), r in shifted.items():
            f = SampledSignal(grid, stack[k])
            assert abs(r - _shift_oracle(syms[i], f, TAUS[t])) \
                <= 1e-15 * l2_norm(f)

    @pytest.mark.parametrize("battery, rows", [
        (TOEPLITZ_BATTERY, [(0, 1), (2, 3), (4,)]),
        (COMPLEX_BATTERY, [(0,), (1,), (2,), (3,), (4,)]),
        # real, but the mode starts between grid points (0.3 = 19.2 steps),
        # where a band-limited shift would mix the signals of a row: the
        # grid is refused before any multiplier is built or walk entered
        ((multiply(atom(1.0, 1.0), Delay(0.3)),), None)],
        ids=["real", "complex", "off-grid offset"])
    def test_signals_are_packed_only_under_real_kernels(self, battery, rows,
                                                        monkeypatch):
        seen, built = [], []
        walk, build = hardy._shift_residuals, hardy.discrete_multiplier

        def spy(row, mults, taus, dt, signals, buffers):
            if taus:  # the main grid: the refinement levels take no shifts
                seen.append(signals)
            return walk(row, mults, taus, dt, signals, buffers)

        def counted(krep, grid, out=None):
            built.append(krep)
            return build(krep, grid, out=out)

        monkeypatch.setattr(hardy, "_shift_residuals", spy)
        monkeypatch.setattr(hardy, "discrete_multiplier", counted)
        if rows is None:
            with pytest.raises(WraparoundError, match="0.3 = 19.2 steps"):
                check_toeplitz(TOEPLITZ_GRID, battery)
            assert seen == [] and built == []
        else:
            check_toeplitz(TOEPLITZ_GRID, battery)
            assert seen == rows and built

    @pytest.mark.parametrize("g, real", [
        (add(atom(0.4, 2.0), Constant(0.5)), True),
        (multiply(Delay(0.5), atom(1.0, 3.0)), True),
        (atom(0.5j, 1.0), False),
        (atom(1.0, 1.0 + 2.0j), False),
        (multiply(Constant(1j), Delay(0.5)), False),
        # 19.2 steps, or past the horizon of 16, where it is skipped
        (Delay(0.3), False),
        (Delay(16.3), True)], ids=lambda v: v if isinstance(v, bool)
        else to_text(v))
    def test_real_on_grid(self, g, real):
        # `_pack`'s flag reads the coefficients alone, since an offset
        # between grid points is refused before any walk; one past the
        # horizon is skipped by the multiplier and fits
        krep = kernel(g)
        off_grid = g == Delay(0.3)
        if off_grid:
            with pytest.raises(WraparoundError, match="exp.0.3.s. has an "
                               "offset of 0.3 = 19.2 steps"):
                _require_grid_fits([(g, krep)], TOEPLITZ_GRID, TAUS)
        else:
            _require_grid_fits([(g, krep)], TOEPLITZ_GRID, TAUS)
        assert (_real_coefficients(krep) and not off_grid) is real

    def test_shift_witness_is_stable(self, monkeypatch):
        # residuals at rounding name the first (symbol, signal, tau), and
        # the worst is measured; one near the gate is named itself
        report = next(r for r in check_toeplitz(TOEPLITZ_GRID, (Delay(0.5),))
                      if r.name == "toeplitz_shift_commutation")
        assert report.details["max_residual"] < 1e-12
        assert report.witness == f"exp(0.5*s) on exp(-2t), tau={TAUS[0]:g}"
        assert report.bound_measured == report.details["max_residual"]
        walk = hardy._shift_residuals

        def bumped(row, mults, taus, dt, signals, buffers):
            resid = walk(row, mults, taus, dt, signals, buffers)
            if 3 in signals:
                resid[0, 3, 1] = 1e-7
            return resid

        monkeypatch.setattr(hardy, "_shift_residuals", bumped)
        report = next(r for r in check_toeplitz(TOEPLITZ_GRID, (Delay(0.5),))
                      if r.name == "toeplitz_shift_commutation")
        assert report.witness == \
            f"exp(0.5*s) on gauss(t-2), tau={TAUS[1]:g}"
        assert report.bound_measured == report.details["max_residual"] == 1e-7

    def test_norm_witness_is_stable(self, monkeypatch):
        # a constant's ratios tie near 1 at rounding: the witness is the
        # first (symbol, signal) within 1e-12 of the worst ratio, which is
        # measured and goes to details, so roundoff in the norms cannot
        # move the witness
        battery = (Constant(0.7), Delay(0.5))

        def norm_report(scale=lambda key: 1.0):
            walk = hardy._product_residuals

            def scaled(*args, **kwargs):
                resid, norms = walk(*args, **kwargs)
                return resid, {key: x * scale(key) for key, x in norms.items()}

            with monkeypatch.context() as m:
                m.setattr(hardy, "_product_residuals", scaled)
                return next(r for r in check_toeplitz(TOEPLITZ_GRID, battery)
                            if r.name == "toeplitz_norm_bound")

        report = norm_report()
        assert report.witness == "0.7 on exp(-2t)"
        assert report.bound_measured == report.details["max_ratio"]
        assert abs(report.bound_measured - 1.0) < 1e-15
        for scale in (lambda key: 1.0 + 1e-15,
                      lambda key: 1.0 + 1e-15 * (key == (0, 3))):
            bumped = norm_report(scale)
            assert bumped.witness == report.witness
            assert bumped.bound_measured == bumped.details["max_ratio"]
        # a ratio above the others by more than roundoff is named itself
        assert norm_report(lambda key: 1.0 + 1e-9 * (key == (0, 3))).witness \
            == "0.7 on gauss(t-2)"

    def test_peak_allocation(self):
        # on the benchmark's 65536-sample grid: the multipliers on half the
        # window, the input and output spectra, the shift stack and, per
        # half of each walk, a work row, one side's scratch and a product
        # multiplier, below the 33.7 MiB that whole-window multipliers and
        # one thread took
        grid = GridSpec(65536, 2.0 ** -8)
        tracemalloc.start()
        try:
            check_toeplitz(grid, BATTERY)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 30 * 2 ** 20

    @pytest.mark.parametrize("battery", [TOEPLITZ_BATTERY, COMPLEX_BATTERY],
                             ids=["real", "complex"])
    def test_two_way_reports_match_one_thread(self, battery, monkeypatch):
        # every walk's halves write disjoint outputs and merge by key, and
        # the refinement levels run one after the other: field for field
        # the reports of every half run inline
        def fields(reports):
            return [{k: v for k, v in r.to_json_dict().items()
                     if k != "runtime_ms"} for r in reports]

        two_way = fields(check_toeplitz(TOEPLITZ_GRID, battery))
        calls = []

        def counted(task, items):
            calls.append(threading.get_ident())
            return inline(task, items)

        bindings = [name for name, module in sys.modules.items()
                    if name.startswith("hardycalc") and
                    getattr(module, "two_way", None) is hardy.two_way]
        assert sorted(bindings) == ["hardycalc.hardy"]
        for name in bindings:
            monkeypatch.setattr(sys.modules[name], "two_way", counted)
        before = threading.active_count()
        assert fields(check_toeplitz(TOEPLITZ_GRID, battery)) == two_way
        assert set(calls) == {threading.get_ident()}
        assert threading.active_count() == before

    def test_second_half_runs_on_a_second_thread(self):
        caller = threading.get_ident()

        def task(items, h):
            return list(items), h, threading.get_ident()

        (first, h0, t0), (second, h1, t1) = hardy.two_way(task, range(5))
        assert (first, h0, second, h1) == ([0, 1, 2], 0, [3, 4], 1)
        assert t0 == caller != t1
        # nothing in the second half: no thread
        assert [t for *_, t in hardy.two_way(task, range(1))] == \
            [caller, caller]

    def test_concurrent_checks_under_a_short_switch_interval(self):
        # three callers, six threads on the machine's two cores, switching
        # every few microseconds: a row written by the wrong half or a lost
        # update of a merged result would change a report
        def fields(reports):
            return [{k: v for k, v in r.to_json_dict().items()
                     if k != "runtime_ms"} for r in reports]

        battery = COMPLEX_BATTERY
        expected = fields(check_toeplitz(TOEPLITZ_GRID, battery))
        got = [None] * 3

        def call(c):
            got[c] = fields(check_toeplitz(TOEPLITZ_GRID, battery))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(5e-6)
        try:
            callers = [threading.Thread(target=call, args=(c,))
                       for c in range(3)]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert got == [expected] * 3

    @pytest.mark.parametrize("owner", ["worker", "caller"])
    def test_error_of_either_half_is_raised_after_join(self, owner,
                                                       monkeypatch):
        # the guard of an output row fails on the half that owns it: the
        # check raises that error, and no thread is left running
        guard = hardy._guarded_spectrum

        def failing(*args, **kwargs):
            on_caller = threading.current_thread() is threading.main_thread()
            if "floors" in kwargs and on_caller == (owner == "caller"):
                raise WraparoundError(f"a row of the {owner}")
            return guard(*args, **kwargs)

        before = threading.active_count()
        monkeypatch.setattr(hardy, "_guarded_spectrum", failing)
        with pytest.raises(WraparoundError, match=f"a row of the {owner}"):
            check_toeplitz(TOEPLITZ_GRID, TOEPLITZ_BATTERY)
        assert threading.active_count() == before

    @pytest.mark.parametrize("level", [128, 256], ids=["base", "fine"])
    def test_error_in_a_nested_level_walk_is_raised(self, level,
                                                   monkeypatch):
        # each level runs on the calling thread and its product walk splits
        # its output rows: an output row's guard fails on the split's second
        # thread, and the error still reaches the caller of the check, with
        # every thread of the split joined
        guard = hardy._guarded_spectrum

        def failing(samples, *args, **kwargs):
            if ("floors" in kwargs and len(samples) == level and
                    threading.current_thread() is not threading.main_thread()):
                raise WraparoundError(f"a row of the {level}-sample level")
            return guard(samples, *args, **kwargs)

        before = threading.active_count()
        monkeypatch.setattr(hardy, "_guarded_spectrum", failing)
        with pytest.raises(WraparoundError, match=f"{level}-sample level"):
            check_toeplitz(TOEPLITZ_GRID, TOEPLITZ_BATTERY)
        assert threading.active_count() == before

    def test_scaled_product_multiplier_fails(self, monkeypatch):
        # a 1e-4 relative error in the multiplier of M_{gh} alone must show
        # in the residual rather than cancel against M_g M_h
        products = {kernel(multiply(g, h)) for g in TOEPLITZ_BATTERY
                    for h in TOEPLITZ_BATTERY} - {kernel(g)
                                                  for g in TOEPLITZ_BATTERY}
        build = hardy.discrete_multiplier

        def scaled(krep, grid, out=None):
            m = build(krep, grid, out=out)
            if krep in products:
                m *= 1.0 + 1e-4
            return m

        def multiplicativity():
            reports = verifier.check_toeplitz(TOEPLITZ_GRID, TOEPLITZ_BATTERY)
            return next(r for r in reports
                        if r.name == "toeplitz_multiplicativity")

        assert multiplicativity().passed
        monkeypatch.setattr(hardy, "discrete_multiplier", scaled)
        assert not multiplicativity().passed


class TestReportInvariants:
    def test_every_report_has_runtime_and_consistent_verdict(self):
        gen, C26 = example26(16)
        reports = [
            check_eq21(SCALAR, G),
            check_thm33(SCALAR, np.eye(1), G),
            check_cor33a(SCALAR, G),
            check_thm34(SCALAR, G),
            check_T0(SCALAR, G),
            check_analytic_lemma(gen),
            check_eq26(gen),
            check_square_function(gen),
        ]
        for rep in reports:
            assert rep.runtime_ms >= 0.0
            assert rep.passed == _verdict(rep)
