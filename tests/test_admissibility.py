"""Observability Gramians, admissibility constants, and extension limits."""

import math

import numpy as np
import pytest

from conftest import spiked
from hardycalc import admissibility
from hardycalc.admissibility import (
    ExtensionTrace,
    GramianReport,
    lambda_limit,
    lebesgue_limit,
    observability_gramian,
    sqrt_minus_A,
    sqrt_t_bound_scan,
)
from hardycalc.semigroup import Generator, example26, random_stable


# every entry point that takes an observation matrix, called on it
_ENTRY_POINTS = {
    "observability_gramian": observability_gramian,
    "sqrt_t_bound_scan": lambda gen, C: sqrt_t_bound_scan(gen, [C], [0.5]),
    "lebesgue_limit": lambda gen, C: lebesgue_limit(gen, C, [0.5, 0.25]),
    "lambda_limit": lambda gen, C: lambda_limit(gen, C, [2.0, 4.0]),
}


class TestObservationMatrix:
    GEN = Generator.diagonal([-1.0, -2.0])

    @pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
    def test_not_a_matrix(self, entry):
        with pytest.raises(ValueError, match="shape"):
            _ENTRY_POINTS[entry](self.GEN, np.ones(2))

    @pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
    def test_column_mismatch(self, entry):
        with pytest.raises(ValueError, match="shape"):
            _ENTRY_POINTS[entry](self.GEN, np.eye(3))

    @pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite(self, entry, bad):
        # a NaN used to give [nan+nanj] limits silently and a misleading
        # ConvergenceError from the scan's SVD
        C = np.eye(2)
        C[1, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            _ENTRY_POINTS[entry](self.GEN, C)


class TestObservabilityGramian:
    def test_scalar_oracle(self):
        # Q solves A*Q + QA = -C*C: scalar -Q - Q = -1 so Q = 1/2
        gen = Generator.diagonal([-1.0])
        rep = observability_gramian(gen, np.eye(1))
        assert abs(rep.Q[0, 0] - 0.5) < 1e-13
        assert abs(rep.m_admissible - 0.5) < 1e-12
        assert abs(rep.m_exact - 0.5) < 1e-12

    def test_diagonal_oracle(self):
        # eigenvalues -1, -2 with C = I give Q = diag(1/2, 1/4)
        gen = Generator.diagonal([-1.0, -2.0])
        rep = observability_gramian(gen, np.eye(2))
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
        rep = observability_gramian(gen, np.zeros((1, 2)))
        assert rep.m_exact == 0.0
        assert rep.m_admissible == 0.0


class TestGramianGuard:
    @staticmethod
    def _cases():
        return [(random_stable(8, 8), np.eye(8)), example26(16),
                (spiked(), np.eye(12)), (spiked(transpose=True), np.eye(12))]

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

    def test_error_orthogonal_to_five_seeded_states_raises(self, monkeypatch):
        # a cross-check on the five states of default_rng(0) cannot see an
        # error along v, which is orthogonal to all of them; this one moves
        # m_admissible from 0.218 to 0.289 on random_stable(8, 8), C = I
        rng = np.random.default_rng(0)
        X = np.stack([rng.standard_normal(8) + 1j * rng.standard_normal(8)
                      for _ in range(5)], axis=1)
        v = np.linalg.qr(X, mode="complete")[0][:, 5]
        assert np.max(np.abs(X.conj().T @ v)) < 1e-12
        solve = admissibility.solve_lyapunov

        def wrong(A, R):
            Q = solve(A, R)
            return Q + 0.5 * np.linalg.norm(Q, 2) * np.outer(v, v.conj())

        monkeypatch.setattr(admissibility, "solve_lyapunov", wrong)
        with pytest.raises(ArithmeticError):
            observability_gramian(random_stable(8, 8), np.eye(8))


class TestSqrtMinusA:
    def test_scalar(self):
        out = sqrt_minus_A(Generator.diagonal([-4.0]))
        assert abs(out[0, 0] - 2.0) < 1e-13

    def test_reference_model(self):
        gen, _ = example26(4)
        out = sqrt_minus_A(gen)
        assert np.allclose(out, np.diag([1.0, 2.0, 3.0, 4.0]),
                           atol=1e-11)

    def test_rejects_non_hermitian(self):
        gen = Generator.dense(np.array([[-1.0, 4.0], [0.0, -1.0]]))
        with pytest.raises(ValueError):
            sqrt_minus_A(gen)


class TestSqrtTBoundScan:
    def test_reference_model_sup(self):
        # sup over t of sqrt(t) * ||C T(t)|| for the diagonal reference
        # model: each mode peaks at n * sqrt(t) e^{-n^2 t}, max over t at
        # t = 1/(2 n^2) with value e^{-1/2}/sqrt(2) independent of n; the
        # scan adds those peak times, so it meets the value exactly
        gen, C = example26(16)
        ts, [vals] = sqrt_t_bound_scan(gen, [C],
                                       np.geomspace(1e-6, 10.0, 200))
        sup, t_at_sup = np.max(vals), ts[np.argmax(vals)]
        assert abs(sup - math.exp(-0.5) / math.sqrt(2.0)) < 1e-15
        assert any(abs(t_at_sup - 1.0 / (2.0 * n * n)) < 1e-15
                   for n in range(1, 17))

    def test_extra_points_included(self):
        # a dense scan samples only the given times, so a witness time
        # added to a coarse grid lifts the sup and is reported as its time
        gen = random_stable(4, 3)
        X = np.eye(4)
        coarse = np.array([0.01, 10.0])
        _, [low] = sqrt_t_bound_scan(gen, [X], coarse)
        ts, [high] = sqrt_t_bound_scan(gen, [X], np.append(coarse, 0.5))
        assert ts[np.argmax(high)] == 0.5 and np.max(high) > np.max(low)

    def test_one_pair_per_operator(self):
        gen, C = example26(4)
        ts, scans = sqrt_t_bound_scan(gen, [C, 2.0 * C],
                                      np.geomspace(1e-3, 1.0, 30))
        assert scans.shape == (2, len(ts))
        assert scans[1] == pytest.approx(2.0 * scans[0], rel=1e-15)
        assert np.argmax(scans[1]) == np.argmax(scans[0])


class TestExtensionLimits:
    def test_lebesgue_scalar(self):
        gen = Generator.diagonal([-1.0])
        C = np.eye(1)
        ts = [2.0 ** -k for k in range(1, 30)]
        trace = lebesgue_limit(gen, C, ts)
        assert isinstance(trace, ExtensionTrace)
        assert not trace.diverged
        assert abs(trace.limit[0, 0] - 1.0) < 1e-6

    def test_lambda_scalar(self):
        gen = Generator.diagonal([-1.0])
        C = np.eye(1)
        lams = [2.0 ** k for k in range(1, 30)]
        trace = lambda_limit(gen, C, lams)
        assert not trace.diverged
        assert abs(trace.limit[0, 0] - 1.0) < 1e-6

    def test_limits_agree_diagonal(self):
        gen = Generator.diagonal([-1.0, -3.0])
        C = np.array([[1.0, 0.5], [0.0, 2.0]])
        ts = [2.0 ** -k for k in range(1, 30)]
        lams = [2.0 ** k for k in range(1, 30)]
        a = lebesgue_limit(gen, C, ts).limit
        b = lambda_limit(gen, C, lams).limit
        assert a.shape == b.shape == (2, 2)
        assert np.max(np.abs(a - b)) < 1e-6
        assert np.max(np.abs(a - C)) < 1e-6

    def test_lebesgue_dense_keeps_converging(self):
        # the error of C (1/t) int_0^t T(s) ds is about t ||A|| / 2;
        # forming A^{-1}(T(t) - I) / t instead stalls at 1e-8 and grows
        # to 3.5e-7 at t = 1e-10
        ts = [10.0 ** -j for j in range(1, 11)]
        for seed in (8, 9, 10):
            gen = random_stable(8, seed)
            trace = lebesgue_limit(gen, np.eye(8), ts)
            errors = [np.linalg.norm(v - np.eye(8), 2)
                      for v in trace.iterates]
            assert not trace.diverged
            assert all(b < a / 5.0 for a, b in zip(errors, errors[1:]))
            assert errors[-1] < 1e-9

    def test_trace_fields(self):
        gen = Generator.diagonal([-1.0])
        ts = [2.0 ** -k for k in range(1, 12)]
        trace = lebesgue_limit(gen, np.eye(1), ts)
        assert len(trace.iterates) == len(ts)
        assert len(trace.differences) == len(ts) - 1

    def test_sequence_validation(self):
        gen = Generator.diagonal([-1.0])
        C = np.eye(1)
        with pytest.raises(ValueError):
            lebesgue_limit(gen, C, [0.5, 0.6, 0.7])
        with pytest.raises(ValueError):
            lebesgue_limit(gen, C, [0.5])
        with pytest.raises(ValueError):
            lambda_limit(gen, C, [4.0, 2.0, 1.0])
