"""Named inequality checks: frozen scalar oracles and failure paths."""

import math

import numpy as np
import pytest

from hardycalc import verifier
from hardycalc.admissibility import ObservationOperator
from hardycalc.semigroup import Generator, example26
from hardycalc.symbols import (Constant, atom, eval_at, hinf_norm, multiply,
                               to_text)
from hardycalc.verifier import (
    check_T0,
    check_analytic_lemma,
    check_cor33a,
    check_eq21,
    check_eq26,
    check_square_function,
    check_thm33,
    check_thm34,
)

SCALAR = Generator.diagonal([-1.0])
G = atom(1.0, 2.0)  # g(-1) = 1/3, sup |g| on the imaginary axis = 1/2


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
        rep = check_eq21(SCALAR, G, s_samples=[1.0 + 0j])
        assert abs(rep.bound_measured - 1.0 / 3.0) < 1e-15

    def test_rejects_left_half_plane_samples(self):
        with pytest.raises(ValueError):
            check_eq21(SCALAR, G, s_samples=[-1.0 + 2j])

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
        # m_admissible = m_exact = 1/2 for C = I, so the claim is ||g||
        rep = check_thm33(SCALAR, ObservationOperator(np.eye(1)), G)
        assert abs(rep.bound_claimed - 0.5) < 1e-14
        assert abs(rep.bound_measured - 1.0 / 3.0) < 1e-7
        assert rep.passed
        assert abs(rep.details["bound_factor"] - 1.0) < 1e-12

    def test_requires_exact_observability(self):
        with pytest.raises(ValueError, match="exact observability"):
            check_thm33(Generator.diagonal([-1.0, -2.0]),
                        ObservationOperator(np.zeros((1, 2))), G)

    def test_battery_normalizes_to_ratio(self):
        rep = check_thm33(SCALAR, ObservationOperator(np.eye(1)), [G])
        assert rep.bound_claimed == 1.0
        assert abs(rep.bound_measured - 2.0 / 3.0) < 1e-7


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


class TestThm34:
    def test_scalar_oracle(self):
        # m1 = m2 = 1, probe ||g(A)T(1)|| = e^{-1}/3, so the claim is
        # 0.5 + e^{-1}/3 and the measured side is |g(-1)| = 1/3
        rep = check_thm34(SCALAR, G)
        assert abs(rep.bound_claimed - (0.5 + math.exp(-1.0) / 3.0)) < 1e-14
        assert abs(rep.bound_measured - 1.0 / 3.0) < 1e-14
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

    def test_rejects_bad_probe_time(self):
        with pytest.raises(ValueError):
            check_thm34(SCALAR, G, t_probe=0.0)


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


class TestAnalyticLemma:
    def test_reference_model_peak(self):
        # per-mode peak of t|lambda|e^{lambda t} is 1/e at t = 1/|lambda|,
        # and the scan grid contains those exact times
        gen, _ = example26(32)
        rep = check_analytic_lemma(gen)
        assert abs(rep.bound_measured - math.exp(-1.0)) < 1e-15
        assert abs(rep.bound_claimed - 1.0) < 1e-12
        assert rep.passed

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
        m1, _ = verifier._thm34_constants(gen)
        assert check_eq26(gen).details["m1"] == m1
        assert check_thm34(gen, G).details["m1"] == m1


class TestSquareFunction:
    def test_reference_model(self):
        gen, _ = example26(32)
        rep = check_square_function(gen)
        assert rep.bound_measured <= 1e-6
        assert rep.passed
        assert len(rep.details["per_state_rel_diff"]) == 4
        assert max(rep.details["per_state_rel_diff"]) == rep.bound_measured

    def test_scalar(self):
        rep = check_square_function(SCALAR)
        assert rep.bound_measured <= 1e-6

    def test_weight_error_in_shared_rule_fails(self, monkeypatch):
        # the two sides share no rule, so a 0.1% weight error in the
        # Gauss-Legendre panels shows instead of cancelling in the ratio;
        # eq26 checks the same rule against the Gramian
        rule = verifier.panel_rule

        def scaled(edges):
            nodes, weights = rule(edges)
            return nodes, (1.0 + 1e-3) * weights

        monkeypatch.setattr(verifier, "panel_rule", scaled)
        gen, _ = example26(32)
        assert not check_square_function(gen).passed
        assert not check_eq26(gen).passed


class TestReportInvariants:
    def test_every_report_has_runtime_and_consistent_verdict(self):
        gen, C26 = example26(16)
        reports = [
            check_eq21(SCALAR, G),
            check_thm33(SCALAR, ObservationOperator(np.eye(1)), G),
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
