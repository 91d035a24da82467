"""Generator construction, semigroup evaluation and stability certificates."""

import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hardycalc
from hardycalc import admissibility, semigroup
from hardycalc.admissibility import (ObservationOperator, observability_gramian,
                                     sqrt_t_bound_scan)
from hardycalc.numkernel import ConvergenceError, SingularMatrixError
from hardycalc.semigroup import (
    Generator,
    StabilityError,
    _panel_samples,
    certify_stable,
    dyadic_edges,
    evaluate_T,
    example26,
    generator_from_json,
    generator_to_json,
    norm_scan,
    orbit_average,
    panel_doubling,
    panel_rule,
    random_dissipative,
    random_stable,
    resolvent,
    semigroup_bounds,
    sup_T_norm,
)
from hardycalc.symbols import Constant, Delay, add, atom, multiply
from hardycalc.verifier import check_thm33


class TestGenerator:
    def test_diagonal_factory(self):
        gen = Generator.diagonal([-1.0, -2.0 + 1j])
        assert gen.kind == "diagonal"
        assert gen.dimension == 2
        assert np.allclose(gen.eigenvalues, [-1.0, -2.0 + 1j])

    def test_diagonal_rejects_unstable(self):
        with pytest.raises(StabilityError):
            Generator.diagonal([1.0, -2.0])
        with pytest.raises(StabilityError):
            Generator.diagonal([0.0])

    def test_dense_factory_certifies(self):
        A = np.array([[-1.0, 0.3], [0.0, -2.0]])
        gen = Generator.dense(A)
        assert gen.kind == "dense"
        assert gen.certificate is not None
        assert gen.decay_rate() > 0.0

    def test_dense_rejects_unstable(self):
        with pytest.raises(StabilityError):
            Generator.dense(np.array([[0.1, 0.0], [0.0, -1.0]]))

    def test_certificate_residual(self):
        A = np.array([[-2.0, 1.0], [-1.0, -1.5]])
        cert = certify_stable(A)
        P = cert.P
        resid = A.conj().T @ P + P @ A + np.eye(2)
        assert np.max(np.abs(resid)) < 1e-9
        spec_min = float(np.min(np.linalg.eigvalsh(P)))
        assert spec_min > 0.0


class TestEvaluateT:
    def test_identity_at_zero(self):
        gen = Generator.diagonal([-1.0, -3.0])
        assert np.allclose(evaluate_T(gen, 0.0), np.eye(2), atol=1e-15)

    def test_diagonal_values(self):
        gen = Generator.diagonal([-1.0, -2.0])
        T = evaluate_T(gen, 0.7)
        assert np.allclose(np.diag(T), [math.exp(-0.7), math.exp(-1.4)], rtol=1e-13)

    def test_semigroup_law_dense(self):
        gen = random_stable(6, 21)
        T1 = evaluate_T(gen, 0.4)
        T2 = evaluate_T(gen, 0.9)
        T3 = evaluate_T(gen, 1.3)
        assert np.max(np.abs(T1 @ T2 - T3)) < 1e-11

    def test_rejects_negative_time(self):
        gen = Generator.diagonal([-1.0])
        with pytest.raises(ValueError):
            evaluate_T(gen, -0.1)


class TestResolvent:
    def test_diagonal_oracle(self):
        # (sI - A)^-1 entries 1/(s - lambda): s=2 on diag(-1,-3) -> 1/3, 1/5
        gen = Generator.diagonal([-1.0, -3.0])
        R = resolvent(gen, 2.0)
        assert np.allclose(np.diag(R), [1.0 / 3.0, 1.0 / 5.0], rtol=1e-13)

    def test_dense_matches_solve(self):
        gen = random_stable(5, 4)
        s = 1.5 + 0.5j
        R = resolvent(gen, s)
        resid = (s * np.eye(5) - gen.matrix) @ R - np.eye(5)
        assert np.max(np.abs(resid)) < 1e-11

    def test_at_eigenvalue_raises(self):
        gen = Generator.diagonal([-1.0, -2.0])
        with pytest.raises(SingularMatrixError):
            resolvent(gen, -1.0)

    def test_resolvent_identity(self):
        gen = random_stable(4, 12)
        a, b = 1.0, 2.5
        Ra = resolvent(gen, a)
        Rb = resolvent(gen, b)
        # first resolvent identity: R(a) - R(b) = (b - a) R(a) R(b)
        assert np.max(np.abs(Ra - Rb - (b - a) * (Ra @ Rb))) < 1e-12


# S diag(-1+10i, -1-10i) S^{-1}: ||T(t)|| oscillates about its decay, so a
# pointwise test ||T(t)|| <= eps at one time says nothing about later times
S_OSC = np.array([[1.0, 0.9], [0.0, math.sqrt(0.19)]])
OSCILLATING = S_OSC @ np.diag([-1.0 + 10j, -1.0 - 10j]) @ np.linalg.inv(S_OSC)


class TestSemigroupBounds:
    def test_scalar_decay_horizon(self):
        # ||T(t)|| = e^{-t}: ln(1e12) ~ 27.63 rounds up to the power of two 32
        gen = Generator.diagonal([-1.0])
        horizon = semigroup_bounds(gen, 1e-12)
        assert horizon == 32.0
        assert math.exp(-horizon) <= 1e-12
        assert sup_T_norm(gen) == pytest.approx(1.0, abs=1e-12)

    def test_norm_stays_below_eps_past_horizon(self):
        gens = [random_stable(8, seed) for seed in range(8, 18)]
        gens.append(Generator.dense(np.array([[-1.0, 4.0], [0.0, -1.0]])))
        gens.append(Generator.dense(OSCILLATING))
        for gen in gens:
            h = semigroup_bounds(gen, 1e-10)
            for t in np.linspace(h, 1.5 * h, 200):
                assert np.linalg.norm(evaluate_T(gen, t), 2) <= 1e-10

    def test_near_unstable_raises(self):
        with pytest.raises(StabilityError):
            semigroup_bounds(Generator.diagonal([-1e-7]), 1e-10)

    def test_normal_generator_M_is_one(self):
        gen = Generator.diagonal([-0.5, -1.0, -4.0])
        assert sup_T_norm(gen) == pytest.approx(1.0, abs=1e-10)

    def test_jordan_overshoot(self):
        # frozen from the sampled sup of e^{-t} ||[[1, 4t], [0, 1]]||
        gen = Generator.dense(np.array([[-1.0, 4.0], [0.0, -1.0]]))
        M = sup_T_norm(gen)
        assert M == pytest.approx(1.5697645904349988, abs=1e-9)
        assert M > 1.5

    def test_horizon_scales_with_eps(self):
        gen = Generator.diagonal([-2.0])
        loose = semigroup_bounds(gen, 1e-4)
        tight = semigroup_bounds(gen, 1e-10)
        assert tight > loose


# the cli's default symbol battery
BATTERY = (atom(1.0, 1.0), atom(1.0, 3.0),
           multiply(atom(1.0, 1.0), atom(1.0, 3.0)), Delay(0.5),
           Constant(0.7), add(atom(0.4, 2.0), Constant(0.5)))


class TestStepMemo:
    def test_thm33_evaluates_each_step_once(self, monkeypatch):
        # each _panel_samples call on a dense generator needs T(x_k h) at
        # the 16 nodes and T(h); a step h seen before costs no mat_exp
        real_samples, real_exp = semigroup._panel_samples, semigroup.mat_exp
        steps, panel_times, in_panels = [], [], []

        def tracking_samples(g, horizon, panels):
            steps.append(horizon / panels)
            in_panels.append(True)
            try:
                return real_samples(g, horizon, panels)
            finally:
                in_panels.pop()

        def counting_exp(A, t=1.0):
            if in_panels:
                panel_times.append(t)
            return real_exp(A, t)

        monkeypatch.setattr(semigroup, "_panel_samples", tracking_samples)
        monkeypatch.setattr(semigroup, "mat_exp", counting_exp)
        rep = check_thm33(random_stable(8, 8),
                          ObservationOperator(np.eye(8, dtype=complex)),
                          BATTERY)
        assert rep.passed
        assert len(steps) > len(set(steps))  # steps recur across symbols
        assert len(panel_times) == 17 * len(set(steps))
        assert len(set(panel_times)) == len(panel_times)

    def test_gramian_steps_are_convolution_steps(self, monkeypatch):
        # the Gramian and the convolution route integrate to powers of two,
        # so the Gramian's panel steps recur in the convolution route, which
        # then evaluates no semigroup step for them
        real_samples, real_exp = semigroup._panel_samples, semigroup.mat_exp
        real_gramian = admissibility._gramian_quadrature
        gramian_steps, conv_steps, in_gramian = set(), set(), []
        exp_times, shared_exp = [], []

        def counting_exp(A, t=1.0):
            exp_times.append(t)
            return real_exp(A, t)

        def gramian(*args):
            in_gramian.append(True)
            try:
                return real_gramian(*args)
            finally:
                in_gramian.pop()

        def tracking_samples(g, horizon, panels):
            h = horizon / panels
            (gramian_steps if in_gramian else conv_steps).add(h)
            before = len(exp_times)
            out = real_samples(g, horizon, panels)
            if not in_gramian and h in gramian_steps:
                shared_exp.extend(exp_times[before:])
            return out

        monkeypatch.setattr(admissibility, "_gramian_quadrature", gramian)
        monkeypatch.setattr(semigroup, "_panel_samples", tracking_samples)
        monkeypatch.setattr(semigroup, "mat_exp", counting_exp)
        rep = check_thm33(random_stable(8, 8),
                          ObservationOperator(np.eye(8, dtype=complex)),
                          BATTERY)
        assert rep.passed
        assert gramian_steps and gramian_steps <= conv_steps
        assert shared_exp == []

    def test_memoized_samples_match_a_fresh_generator(self):
        gen = random_stable(6, 4)
        _panel_samples(gen, 8.0, 8)
        memoized = _panel_samples(gen, 4.0, 4)  # the same step h = 1
        assert list(gen._step_memo) == [1.0]
        fresh = _panel_samples(Generator.dense(gen.matrix), 4.0, 4)
        for a, b in zip(memoized, fresh):
            assert np.array_equal(a, b)

    def test_gramian_does_not_compute_sup(self, monkeypatch):
        calls = []

        def counting(g):
            calls.append(g)
            return sup_T_norm(g)

        # every module that binds the function, as the tracer does
        for name, module in list(sys.modules.items()):
            if (name.startswith("hardycalc.")
                    and getattr(module, "sup_T_norm", None) is sup_T_norm):
                monkeypatch.setattr(module, "sup_T_norm", counting)
        gen = random_stable(8, 8)
        C = ObservationOperator(np.eye(8, dtype=complex))
        observability_gramian(gen, C)
        assert calls == []
        sqrt_t_bound_scan(gen, C, 1e-2, 1.0)
        assert len(calls) == 1


class TestEnvelope:
    def test_bound_holds_on_time_grid(self):
        # sup_[0,1] ||T|| (= 1 on these seeds) in place of K falls short of
        # ||T(t)|| by up to 1.2%; K from the Lyapunov certificate must not
        gens = [random_stable(8, seed) for seed in range(8, 18)]
        gens.append(Generator.dense(np.array([[-1.0, 4.0], [0.0, -1.0]])))
        for gen in gens:
            K, rate = gen.envelope_constant(), gen.decay_rate()
            for t in np.linspace(0.0, 8.0, 161):
                norm = np.linalg.norm(evaluate_T(gen, t), 2)
                assert norm <= K * math.exp(-rate * t) * (1.0 + 1e-12)

    def test_diagonal_constant_is_one(self):
        assert Generator.diagonal([-1.0, -2.0 + 3j]).envelope_constant() == 1.0

    def test_diagonal_witness_is_identity(self):
        gen = Generator.diagonal([-1.5, -0.25 + 3j, -4.0])
        cert = gen.certificate
        assert np.array_equal(cert.P, np.eye(3))
        assert cert.margin == 0.5 and cert.residual == 0.0
        assert gen.decay_rate() == 0.25

    def test_envelope_reads_the_certificate(self, monkeypatch):
        # the spectrum of P is computed once, by certify_stable
        gen = random_stable(8, 9)
        eigs = np.linalg.eigvalsh(gen.certificate.P)

        def no_eigs(*args):
            raise AssertionError("hermitian_eigs called after certification")

        monkeypatch.setattr(semigroup, "hermitian_eigs", no_eigs)
        rate = gen.certificate.margin / (2.0 * eigs[-1])
        assert gen.decay_rate() == pytest.approx(rate, rel=1e-12)
        assert gen.envelope_constant() == pytest.approx(
            math.sqrt(eigs[-1] / eigs[0]), rel=1e-12)


class TestNormScan:
    def test_diagonal_adds_peak_times(self):
        # sqrt(t)||X T(t)|| peaks at t = 1/(2 n^2) for the mode -n^2
        gen, C = example26(4)
        grid = np.geomspace(1e-3, 1.0, 7)
        ts, norms = norm_scan(gen, [C.matrix], grid)
        peaks = 1.0 / (2.0 * np.arange(1.0, 5.0) ** 2)
        assert set(grid) | set(peaks) == set(ts)
        assert np.all(np.diff(ts) > 0)
        vals = np.sqrt(ts) * norms[0]
        assert np.max(vals) == pytest.approx(math.exp(-0.5) / math.sqrt(2.0),
                                             rel=1e-15)

    def test_diagonal_matches_matrix_norms(self):
        gen = Generator.diagonal([-1.0, -2.0 + 5j, -7.0])
        Xs = [np.diag([1.0, 3.0, -2.0j]), np.ones((2, 3))]
        ts, norms = norm_scan(gen, Xs, np.linspace(0.0, 2.0, 9))
        for X, row in zip(Xs, norms):
            ref = [np.linalg.norm(X @ evaluate_T(gen, t), 2) for t in ts]
            assert np.allclose(row, ref, rtol=1e-14, atol=0.0)

    def test_dense_evaluates_each_time_once(self, monkeypatch):
        gen = random_stable(6, 3)
        calls = []

        def counting(g, t):
            calls.append(t)
            return evaluate_T(g, t)

        monkeypatch.setattr(semigroup, "evaluate_T", counting)
        Xs = [np.eye(6), gen.matrix, np.ones((2, 6))]
        grid = np.geomspace(1e-3, 1.0, 11)
        ts, norms = norm_scan(gen, Xs, grid[::-1])
        assert np.array_equal(ts, grid) and calls == list(grid)
        for X, row in zip(Xs, norms):
            assert list(row) == [np.linalg.norm(X @ evaluate_T(gen, t), 2)
                                 for t in grid]

    @pytest.mark.parametrize("gen", [Generator.diagonal([-1.0, -2.0]),
                                     random_stable(4, 3)])
    def test_rejects_negative_times(self, gen):
        # T(-1) is no semigroup value, whichever way the generator is stored
        with pytest.raises(ValueError, match="nonnegative"):
            norm_scan(gen, [np.eye(gen.dimension)], [-1.0, 0.5])


class TestOrbitAverage:
    def test_dense_matches_closed_form(self):
        # (1/t) int_0^t T(s) ds x = A^{-1}(T(t) - I) x / t, well conditioned
        # at t = 0.5
        gen = random_stable(6, 5)
        x = np.arange(1.0, 7.0) + 1j
        ref = np.linalg.solve(gen.matrix,
                              (evaluate_T(gen, 0.5) - np.eye(6)) @ x) / 0.5
        assert np.allclose(orbit_average(gen, 0.5, x), ref,
                           rtol=1e-12, atol=0.0)

    def test_diagonal_small_and_large_times(self):
        gen = Generator.diagonal([-1.0, -2.0 + 1j])
        x = np.array([1.0, 2.0j])
        for t in (1e-12, 1e-5, 0.3, 40.0):
            z = gen.eigenvalues * t
            if t < 1.0:  # (e^z - 1)/z = sum_k z^k/(k+1)!
                ref = sum(z ** k / math.factorial(k + 1) for k in range(30))
            else:
                ref = (np.exp(z) - 1.0) / z
            assert np.allclose(orbit_average(gen, t, x), ref * x,
                               rtol=1e-12, atol=0.0)


class TestPanelQuadrature:
    def test_panel_rule_exact_to_degree_31(self):
        u, w = panel_rule(np.array([0.0, 0.3, 1.1, 2.0]))
        assert u.size == w.size == 48
        for k in (0, 1, 7, 31):
            exact = 2.0 ** (k + 1) / (k + 1)
            assert abs(w @ u ** k - exact) <= 1e-13 * exact

    def test_dyadic_edges(self):
        edges = dyadic_edges(3.0)
        assert edges.size == 62
        assert edges[0] == 0.0 and edges[1] == 3.0 * 2.0 ** -60
        assert edges[-1] == 3.0
        # every panel after the first is [a, 2a]
        assert np.all(np.diff(edges[1:]) == edges[1:-1])

    def test_doubling_integrates_dense_semigroup(self):
        # int_0^H T(t) dt = A^{-1} (T(H) - I)
        gen = random_stable(4, 3)
        vals, changes = panel_doubling(
            gen, 2.0, lambda u, w, Tu: [np.einsum("i,ijk->jk", w, Tu)])
        ref = np.linalg.solve(gen.matrix, evaluate_T(gen, 2.0) - np.eye(4))
        assert np.max(np.abs(vals[0] - ref)) < 1e-12
        assert changes[0] < 1e-8

    def test_doubling_gives_up_when_values_never_settle(self):
        with pytest.raises(ConvergenceError):
            panel_doubling(Generator.diagonal([-1.0]), 1.0,
                           lambda u, w, Tu: [np.array(float(u.size))])

    def test_import_does_not_load_numpy_polynomial(self):
        # the Gauss-Legendre nodes are built on first use, which keeps
        # numpy.polynomial out of the package's import time
        src = str(Path(hardycalc.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH"))
                               if p)
        code = ("import sys, hardycalc, hardycalc.cli; "
                "print('numpy.polynomial' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, timeout=60, check=True,
                             env=dict(os.environ, PYTHONPATH=path))
        assert out.stdout.strip() == "False"


class TestExample26:
    def test_structure(self):
        gen, C = example26(8)
        n = np.arange(1.0, 9.0)
        assert np.allclose(gen.eigenvalues, -(n ** 2))
        assert np.allclose(np.diag(C.matrix), n)

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            example26(0)


class TestRandomGenerators:
    def test_random_stable_is_stable(self):
        for seed in range(5):
            gen = random_stable(8, seed)
            eigs = np.linalg.eigvals(gen.matrix)
            assert np.max(eigs.real) < 0.0
            assert gen.seed == seed

    def test_random_stable_deterministic(self):
        a = random_stable(6, 42)
        b = random_stable(6, 42)
        assert np.array_equal(a.matrix, b.matrix)

    def test_random_dissipative_hermitian_part(self):
        for seed in range(5):
            gen = random_dissipative(6, seed)
            H = 0.5 * (gen.matrix + gen.matrix.conj().T)
            assert float(np.max(np.linalg.eigvalsh(H))) <= 1e-10

    def test_distinct_seeds_differ(self):
        assert not np.array_equal(random_stable(6, 1).matrix,
                                  random_stable(6, 2).matrix)


class TestJsonRoundTrip:
    def test_diagonal(self):
        gen = Generator.diagonal([-1.0, -2.5 + 0.5j])
        back = generator_from_json(generator_to_json(gen))
        assert back.kind == gen.kind
        assert np.allclose(back.eigenvalues, gen.eigenvalues)

    def test_dense(self):
        gen = random_stable(5, 3)
        back = generator_from_json(generator_to_json(gen))
        assert back.kind == "dense"
        assert np.allclose(back.matrix, gen.matrix)


# (module, function) of every test of a generator's kind outside semigroup
ALLOWED_KIND_TESTS = sorted([
    ("admissibility", "_gramian_quadrature"),  # dyadic or doubled panels
    ("admissibility", "_require_real_diagonal"),  # input guard
    ("calculus", "_integrate_modes"),  # lifts mode integrals to matrices
    ("calculus", "gA_spectral"),  # input guard
])


class _KindTests(ast.NodeVisitor):
    def __init__(self, module):
        self.module, self.scope, self.found = module, ["<module>"], []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_Compare(self, node):
        if any(isinstance(x, ast.Attribute) and x.attr == "kind"
               for x in (node.left, *node.comparators)):
            self.found.append((self.module, self.scope[-1]))
        self.generic_visit(node)


class TestKindBranches:
    def test_only_semigroup_branches_on_the_kind(self):
        # a new diagonal/dense branch belongs in semigroup, behind one of
        # its evaluators; the remaining ones guard inputs or pick a rule
        found = []
        for path in sorted(Path(hardycalc.__file__).parent.glob("*.py")):
            if path.name != "semigroup.py":
                visitor = _KindTests(path.stem)
                visitor.visit(ast.parse(path.read_text()))
                found += visitor.found
        assert sorted(found) == ALLOWED_KIND_TESTS
