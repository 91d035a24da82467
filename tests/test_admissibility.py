"""Observability Gramians, admissibility constants, and extension limits."""

import math

import numpy as np
import pytest

from hardycalc import admissibility
from hardycalc.admissibility import (
    ExtensionTrace,
    GramianReport,
    ObservationOperator,
    lambda_limit,
    lebesgue_limit,
    observability_gramian,
    sqrt_minus_A,
    sqrt_t_bound_scan,
)
from hardycalc.semigroup import Generator, example26, random_stable


def _identity_C(n):
    return ObservationOperator(np.eye(n))


class TestObservationOperator:
    def test_shape_check(self):
        with pytest.raises(ValueError):
            ObservationOperator(np.zeros(3))

    def test_column_mismatch_rejected_at_use(self):
        gen = Generator.diagonal([-1.0, -2.0])
        with pytest.raises(ValueError):
            observability_gramian(gen, ObservationOperator(np.eye(3)))


class TestObservabilityGramian:
    def test_scalar_oracle(self):
        # Q solves A*Q + QA = -C*C: scalar -Q - Q = -1 so Q = 1/2
        gen = Generator.diagonal([-1.0])
        rep = observability_gramian(gen, _identity_C(1))
        assert abs(rep.Q[0, 0] - 0.5) < 1e-13
        assert abs(rep.m_admissible - 0.5) < 1e-12
        assert abs(rep.m_exact - 0.5) < 1e-12

    def test_diagonal_oracle(self):
        # eigenvalues -1, -2 with C = I give Q = diag(1/2, 1/4)
        gen = Generator.diagonal([-1.0, -2.0])
        rep = observability_gramian(gen, _identity_C(2))
        assert np.allclose(rep.Q, np.diag([0.5, 0.25]), atol=1e-13)
        assert abs(rep.m_admissible - 0.5) < 1e-12
        assert abs(rep.m_exact - 0.25) < 1e-12

    def test_reference_model_constants(self):
        gen, C = example26(64)
        rep = observability_gramian(gen, C)
        assert abs(rep.m_admissible - 0.5) < 1e-10
        assert abs(rep.m_exact - 0.5) < 1e-10
        assert rep.quadrature_rel_error < 1e-4

    def test_residual_and_fields(self):
        gen, C = example26(8)
        rep = observability_gramian(gen, C)
        assert isinstance(rep, GramianReport)
        assert rep.residual < 1e-9
        assert rep.Q.shape == (8, 8)

    def test_zero_C_not_exactly_observable(self):
        gen = Generator.diagonal([-1.0, -2.0])
        rep = observability_gramian(gen, ObservationOperator(np.zeros((1, 2))))
        assert rep.m_exact == 0.0
        assert rep.m_admissible == 0.0


class TestGramianGuard:
    @staticmethod
    def _cases():
        return [(random_stable(8, 8), _identity_C(8)), example26(16)]

    def test_quadrature_agrees_to_roundoff(self):
        for gen, C in self._cases():
            assert observability_gramian(gen, C).quadrature_rel_error <= 1e-12

    def test_wrong_lyapunov_solution_raises(self, monkeypatch):
        # the time-domain quadrature must catch a Gramian that is 0.1% off
        solve = admissibility.solve_lyapunov
        monkeypatch.setattr(admissibility, "solve_lyapunov",
                            lambda A, R: (1.0 + 1e-3) * solve(A, R))
        for gen, C in self._cases():
            with pytest.raises(ArithmeticError):
                observability_gramian(gen, C)


class TestSqrtMinusA:
    def test_scalar(self):
        out = sqrt_minus_A(Generator.diagonal([-4.0]))
        assert abs(out.matrix[0, 0] - 2.0) < 1e-13

    def test_reference_model(self):
        gen, _ = example26(4)
        out = sqrt_minus_A(gen)
        assert np.allclose(out.matrix, np.diag([1.0, 2.0, 3.0, 4.0]),
                           atol=1e-11)

    def test_rejects_non_hermitian(self):
        gen = Generator.dense(np.array([[-1.0, 4.0], [0.0, -1.0]]))
        with pytest.raises(ValueError):
            sqrt_minus_A(gen)


class TestSqrtTBoundScan:
    def test_reference_model_sup(self):
        # sup over t of sqrt(t) * ||C T(t)|| for the diagonal reference
        # model: each mode peaks at n * sqrt(t) e^{-n^2 t}, max over t at
        # t = 1/(2 n^2) with value e^{-1/2}/sqrt(2) independent of n.
        gen, C = example26(16)
        measured, rep = sqrt_t_bound_scan(gen, C, 1e-6, 10.0)
        ref = math.exp(-0.5) / math.sqrt(2.0)
        assert abs(measured - ref) < 1e-9
        assert abs(rep.bound_claimed - math.sqrt(0.5)) < 1e-12
        assert rep.passed

    def test_extra_points_included(self):
        gen, C = example26(4)
        _, rep = sqrt_t_bound_scan(gen, C, 1e-6, 10.0,
                                   extra_points=(0.5, 1.0))
        assert rep.passed

    def test_bad_interval(self):
        gen, C = example26(4)
        with pytest.raises(ValueError):
            sqrt_t_bound_scan(gen, C, 1.0, 0.5)


class TestExtensionLimits:
    def test_lebesgue_scalar(self):
        gen = Generator.diagonal([-1.0])
        C = _identity_C(1)
        x = np.array([1.0], dtype=complex)
        ts = [2.0 ** -k for k in range(1, 30)]
        trace = lebesgue_limit(gen, C, x, ts)
        assert isinstance(trace, ExtensionTrace)
        assert not trace.diverged
        assert abs(trace.limit[0] - 1.0) < 1e-6

    def test_lambda_scalar(self):
        gen = Generator.diagonal([-1.0])
        C = _identity_C(1)
        x = np.array([1.0], dtype=complex)
        lams = [2.0 ** k for k in range(1, 30)]
        trace = lambda_limit(gen, C, x, lams)
        assert not trace.diverged
        assert abs(trace.limit[0] - 1.0) < 1e-6

    def test_limits_agree_diagonal(self):
        gen = Generator.diagonal([-1.0, -3.0])
        C = ObservationOperator(np.diag([1.0, 2.0]))
        x = np.array([0.5, 1.0], dtype=complex)
        ts = [2.0 ** -k for k in range(1, 30)]
        lams = [2.0 ** k for k in range(1, 30)]
        a = lebesgue_limit(gen, C, x, ts).limit
        b = lambda_limit(gen, C, x, lams).limit
        assert np.max(np.abs(a - b)) < 1e-6
        assert np.max(np.abs(a - C.matrix @ x)) < 1e-6

    def test_lebesgue_dense_keeps_converging(self):
        # the error of C (1/t) int_0^t T(s) x ds is about t ||A x|| / 2;
        # forming A^{-1}(T(t) - I) x / t instead stalls at 1e-8 and grows
        # to 3.5e-7 at t = 1e-10
        ts = [10.0 ** -j for j in range(1, 11)]
        for seed in (8, 9, 10):
            gen = random_stable(8, seed)
            rng = np.random.default_rng(seed)
            x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            x /= np.linalg.norm(x)
            trace = lebesgue_limit(gen, _identity_C(8), x, ts)
            errors = [np.linalg.norm(v - x) for v in trace.iterates]
            assert not trace.diverged
            assert all(b < a / 5.0 for a, b in zip(errors, errors[1:]))
            assert errors[-1] < 1e-9

    def test_trace_fields(self):
        gen = Generator.diagonal([-1.0])
        ts = [2.0 ** -k for k in range(1, 12)]
        trace = lebesgue_limit(gen, _identity_C(1), np.array([1.0 + 0j]), ts)
        assert len(trace.iterates) == len(ts)
        assert len(trace.differences) == len(ts) - 1

    def test_sequence_validation(self):
        gen = Generator.diagonal([-1.0])
        C = _identity_C(1)
        x = np.array([1.0 + 0j])
        with pytest.raises(ValueError):
            lebesgue_limit(gen, C, x, [0.5, 0.6, 0.7])
        with pytest.raises(ValueError):
            lebesgue_limit(gen, C, x, [0.5])
        with pytest.raises(ValueError):
            lambda_limit(gen, C, x, [4.0, 2.0, 1.0])
