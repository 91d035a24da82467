"""Generator construction, semigroup evaluation and stability certificates."""

import ast
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import hardycalc
from conftest import damped_string
from hardycalc import numkernel, semigroup
from hardycalc.admissibility import observability_gramian, sqrt_t_bound_scan
from hardycalc.numkernel import (SingularMatrixError, hermitian_eigs,
                                 operator_norm, solve_lyapunov)
from hardycalc.semigroup import (
    Generator,
    StabilityError,
    certify_stable,
    evaluate_T,
    example26,
    gramian,
    gramian_rule,
    mode_integrals,
    norm_scan,
    orbit_average,
    random_dissipative,
    random_stable,
    resolvent,
    semigroup_bounds,
    sup_T_norm,
)
from hardycalc.symbols import Constant, Delay, add, atom, multiply
from hardycalc.verifier import check_T0, check_thm33


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

    @pytest.mark.parametrize("lam", ([-1.0, math.nan],
                                     [-1.0, complex(-2.0, math.nan)],
                                     [-1.0, -math.inf]),
                             ids=("nan", "nan-imag", "-inf"))
    def test_diagonal_rejects_non_finite(self, lam):
        # a NaN margin would certify nothing, and semigroup_bounds would
        # silently return 1.0
        with pytest.raises(ValueError, match="finite"):
            Generator.diagonal(lam)

    def test_dense_factory_certifies(self):
        A = np.array([[-1.0, 0.3], [0.0, -2.0]])
        gen = Generator.dense(A)
        assert gen.kind == "dense"
        assert gen.certificate is not None
        assert gen.decay_rate() > 0.0

    def test_dense_rejects_unstable(self):
        with pytest.raises(StabilityError):
            Generator.dense(np.array([[0.1, 0.0], [0.0, -1.0]]))

    @pytest.mark.parametrize("A", ([[1j, 1.0], [0.0, 1j]],
                                   [[0.0, 1.0], [0.0, -1.0]],
                                   [[0.1, 1.0], [0.0, -1.0]]))
    def test_dense_rejects_not_stable(self, A):
        with pytest.raises(StabilityError):
            Generator.dense(np.array(A))

    @pytest.mark.parametrize("A", (np.ones((2, 3)), np.ones(3),
                                   [[-1.0, math.nan], [0.0, -1.0]]),
                             ids=("2x3", "vector", "nan"))
    def test_certify_rejects_malformed_input(self, A):
        with pytest.raises(ValueError, match="finite square"):
            certify_stable(np.array(A))

    def test_lyapunov_budget_is_a_stability_error(self, monkeypatch):
        monkeypatch.setattr(numkernel, "_SIGN_MAX_ITER", 1)
        with pytest.raises(StabilityError):
            certify_stable(np.array([[-1.0, 4.0], [0.0, -3.0]]))

    def test_certificate_residual(self):
        # -(A + A^H) = [[2, -4], [-4, 6]] is indefinite, so the Lyapunov
        # solve runs
        A = np.array([[-1.0, 4.0], [0.0, -3.0]])
        cert = certify_stable(A)
        P = cert.P
        resid = A.conj().T @ P + P @ A + np.eye(2)
        assert np.max(np.abs(resid)) < 1e-9
        spec_min = float(np.min(np.linalg.eigvalsh(P)))
        assert spec_min > 0.0

    def test_dissipative_matrix_gets_the_identity_witness(self):
        # -(A + A^H) = diag(4, 3): P = I with margin lambda_min = 3
        A = np.array([[-2.0, 1.0], [-1.0, -1.5]])
        gen = Generator.dense(A)
        cert = gen.certificate
        assert np.array_equal(cert.P, np.eye(2))
        assert cert.margin == hermitian_eigs(-(A + A.T)).lambda_min
        assert cert.margin == pytest.approx(3.0, rel=1e-15)
        assert cert.p_min == cert.p_max == 1.0
        assert gen.envelope_constant() == 1.0
        assert gen.decay_rate() == cert.margin / 2.0

    def test_dissipative_sampler_never_solves(self, monkeypatch):
        def no_solve(*args):
            raise AssertionError("sign iteration on a dissipative sample")

        monkeypatch.setattr(numkernel, "_lyapunov_sign", no_solve)
        for seed in range(7, 32):
            gen = random_dissipative(8, seed)
            assert np.array_equal(gen.certificate.P, np.eye(8))

    def test_margin_below_the_eigensolver_accuracy_solves(self):
        # lambda_min(W) is about 1, above the horizon floor but below
        # 1e-8 ||W||_F = 4: the identity margin is not trusted
        A = 1e8 * np.array([[-1.0, 2.0 - 1e-8], [0.0, -1.0]])
        W = -(A + A.T)
        assert 0.5 < hermitian_eigs(W).lambda_min < 1e-8 * np.linalg.norm(W)
        cert = certify_stable(A)
        assert not np.array_equal(cert.P, np.eye(2))
        M = cert.P @ A
        assert cert.p_min > 0.0
        assert cert.margin == hermitian_eigs(-(M + M.conj().T)).lambda_min
        assert cert.margin > 0.0


def _unitary(rng, n):
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return np.linalg.qr(G)[0]


def _nonnormal(rng):
    """A = V D V^{-1}, stable and non-normal: n in 2..6,
    V = U diag(logspace(0, log10 cond, n)) W with U, W unitary and cond
    log-uniform up to 1e3, Re lambda in [-10, -0.32], Im lambda in
    [-10, 10]."""
    n = int(rng.integers(2, 7))
    cond = 10.0 ** rng.uniform(0.0, 3.0)
    V = (_unitary(rng, n) @ np.diag(np.logspace(0.0, np.log10(cond), n))
         @ _unitary(rng, n))
    lam = -10.0 ** rng.uniform(-0.5, 1.0, n) + 1j * rng.uniform(-10.0, 10.0, n)
    return V @ np.diag(lam) @ np.linalg.inv(V)


def _nonnormal_draws():
    """30 draws from each of default_rng(0..39): 1,200 stable inputs."""
    for seed in range(40):
        rng = np.random.default_rng(seed)
        for _ in range(30):
            yield _nonnormal(rng)


def _draw(seed, index):
    rng = np.random.default_rng(seed)
    for _ in range(index):
        _nonnormal(rng)
    return _nonnormal(rng)


def _assert_witness(A, cert):
    """The proof, recomputed: P > 0, and lambda_min(-(P A + (P A)^H))
    above its three floors, by numpy's eigensolver."""
    A = np.asarray(A, dtype=complex)
    P, n = cert.P, len(A)
    assert np.min(np.linalg.eigvalsh(P)) > 0.0
    M = P @ A
    W = -(M + M.conj().T)
    margin = np.linalg.eigvalsh(W)[0]
    floor = max(1e-8 * max(1.0, np.linalg.norm(W)),
                -2.0 * math.log(np.finfo(float).tiny) / 1e6,
                8.0 * n * np.finfo(float).eps * np.linalg.norm(P)
                * np.linalg.norm(A))
    assert margin > floor
    assert cert.margin == pytest.approx(margin, rel=1e-9)


class TestNonNormalCertification:
    """Stable non-normal inputs that the Lyapunov residual gates refused."""

    @pytest.mark.parametrize("A", [
        np.array([[-1.0, 3000.0], [0.0, -2.0]]),
        # -(A^H P + P A) formed from two products was not Hermitian to
        # 1e-12, so hermitian_eigs raised a bare ValueError
        _draw(1, 27),
    ], ids=["upper3000", "rng1-draw27"])
    def test_named_cases_certify(self, A):
        cert = certify_stable(A)
        assert not np.array_equal(cert.P, np.eye(len(A)))
        _assert_witness(A, cert)

    def test_every_draw_certifies(self):
        # the 120-input probe of ROADMAP item 19 drew the same pattern
        for A in _nonnormal_draws():
            _assert_witness(A, certify_stable(A))


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
        C = np.eye(8, dtype=complex)
        observability_gramian(gen, C)
        sqrt_t_bound_scan(gen, [C], np.geomspace(1e-2, 1.0, 20))
        assert calls == []
        check_T0(gen, Constant(0.7))
        assert len(calls) == 1


# -(A + A^H) = [[2, -(2 - 1e-9)], [-(2 - 1e-9), 2]] is positive definite
# with lambda_min 1e-9: P = I would certify a decay rate of 5e-10
BARELY_DISSIPATIVE = np.array([[-1.0, 2.0 - 1e-9], [0.0, -1.0]])


class TestEnvelope:
    def test_bound_holds_on_time_grid(self):
        # sup_[0,1] ||T|| (= 1 on these seeds) in place of K falls short of
        # ||T(t)|| by up to 1.2%; K from the certificate must not, whether
        # its witness is P = I or the Lyapunov solution
        identity = ([random_stable(8, seed) for seed in range(8, 18)]
                    + [random_dissipative(n, n) for n in range(4, 17)]
                    + [Generator.dense(example26(16)[0].matrix)])
        lyapunov = [Generator.dense(np.array([[-1.0, 4.0], [0.0, -1.0]])),
                    Generator.dense(-np.eye(2) + 3.0 * np.eye(2, k=1)),
                    damped_string(8), Generator.dense(BARELY_DISSIPATIVE)]
        for gen, witness_is_identity in ([(g, True) for g in identity]
                                         + [(g, False) for g in lyapunov]):
            assert np.array_equal(gen.certificate.P, np.eye(gen.dimension)) \
                == witness_is_identity
            K, rate = gen.envelope_constant(), gen.decay_rate()
            for t in np.linspace(0.0, 8.0, 161):
                norm = np.linalg.norm(evaluate_T(gen, t), 2)
                assert norm <= K * math.exp(-rate * t) * (1.0 + 1e-12)

    def test_barely_dissipative_keeps_the_lyapunov_horizon(self):
        # with P = I the horizon log(1e12)/rate would pass t = 1e6, so
        # semigroup_bounds would refuse a generator the solve certifies
        margin = hermitian_eigs(-(BARELY_DISSIPATIVE
                                  + BARELY_DISSIPATIVE.T)).lambda_min
        assert math.log(1e12) / (margin / 2.0) > 1e6
        gen = Generator.dense(BARELY_DISSIPATIVE)
        assert gen.envelope_constant() > 1.0
        assert semigroup_bounds(gen, 1e-12) <= 2.0 ** 10

    def test_diagonal_constant_is_one(self):
        assert Generator.diagonal([-1.0, -2.0 + 3j]).envelope_constant() == 1.0

    def test_diagonal_witness_is_identity(self):
        gen = Generator.diagonal([-1.5, -0.25 + 3j, -4.0])
        cert = gen.certificate
        assert np.array_equal(cert.P, np.eye(3))
        assert cert.margin == 0.5 and cert.p_min == cert.p_max == 1.0
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
        # t^p ||X T(t)|| peaks at t = p/n^2 for the mode -n^2: at
        # e^{-1/2}/sqrt(2) for sqrt(t)||C T(t)|| and 1/e for t||A T(t)||
        gen, C = example26(4)
        grid = np.geomspace(1e-3, 1.0, 7)
        for power, X, sup in ((0.5, C, math.exp(-0.5) / math.sqrt(2.0)),
                              (1.0, gen.matrix, math.exp(-1.0))):
            ts, vals = norm_scan(gen, [X], grid, power)
            peaks = power / np.arange(1.0, 5.0) ** 2
            assert set(grid) | set(peaks) == set(ts)
            assert np.all(np.diff(ts) > 0)
            assert np.max(vals[0]) == pytest.approx(sup, rel=1e-15)

    def test_diagonal_matches_matrix_norms(self):
        # one call per shape: a diagonal X takes the vectorized path, a
        # full one the per-time path
        gen = Generator.diagonal([-1.0, -2.0 + 5j, -7.0])
        for X in (np.diag([1.0, 3.0, -2.0j]), np.ones((2, 3))):
            ts, [row] = norm_scan(gen, [X], np.linspace(0.0, 2.0, 9), 0.5)
            ref = [math.sqrt(t) * np.linalg.norm(X @ evaluate_T(gen, t), 2)
                   for t in ts]
            assert np.allclose(row, ref, rtol=1e-14, atol=0.0)

    def test_dense_evaluates_each_time_once(self, monkeypatch):
        gen = random_stable(6, 3)
        calls = []

        def counting(g, t):
            calls.append(t)
            return evaluate_T(g, t)

        monkeypatch.setattr(semigroup, "evaluate_T", counting)
        grid = np.geomspace(1e-3, 1.0, 11)
        for Xs in ([np.eye(6), gen.matrix], [np.ones((2, 6))]):
            calls.clear()
            ts, vals = norm_scan(gen, Xs, grid[::-1], 1.0)
            assert np.array_equal(ts, grid) and calls == list(grid)
            for X, row in zip(Xs, vals):
                assert list(row) == [
                    t * np.linalg.norm(X @ evaluate_T(gen, t), 2)
                    for t in grid]

    @pytest.mark.parametrize("gen", [Generator.diagonal([-1.0, -2.0]),
                                     random_stable(4, 3)])
    def test_rejects_negative_times(self, gen):
        # T(-1) is no semigroup value, whichever way the generator is stored
        with pytest.raises(ValueError, match="nonnegative"):
            norm_scan(gen, [np.eye(gen.dimension)], [-1.0, 0.5], 0.5)

    @pytest.mark.parametrize("dense_X", [False, True])
    def test_times_are_np_unique_of_grid_and_peaks(self, dense_X):
        # one sort and one adjacent-difference mask give np.unique's times,
        # also when a dense X sends a diagonal generator to the per-time path
        gen, C = example26(5)
        grid = np.concatenate([np.geomspace(1e-3, 1.0, 9)[::-1], [0.125] * 3,
                               [0.5, 0.02]])
        X = np.ones((2, 5)) if dense_X else C
        ts, _ = norm_scan(gen, [X], grid, 0.5)
        peaks = 1.0 / (2.0 * np.arange(1.0, 6.0) ** 2)
        assert np.array_equal(ts, np.unique(np.concatenate([grid, peaks])))

    def test_scans_do_not_load_numpy_ma(self):
        # np.unique imports numpy.ma on its first call; the scans dedupe
        # their times without it
        src = str(Path(hardycalc.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH"))
                               if p)
        code = ("import sys\n"
                "from hardycalc.cli import ExperimentConfig, run\n"
                "for name in ('t0_bounds', 'analytic_lemma', 'example26'):\n"
                "    assert run(ExperimentConfig(scenario=name))[0] == 0\n"
                "print('numpy.ma' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, timeout=120, check=True,
                             env=dict(os.environ, PYTHONPATH=path))
        assert out.stdout.splitlines()[-1] == "False"


class TestEnergies:
    """`gramian_rule` and `gramian` on both kinds."""

    GENS = [example26(6)[0], random_stable(5, 3),
            Generator.diagonal([-1.0, -0.5 + 3j, -4.0])]
    TS, WS = [0.0, 0.1, 1.3, 0.4], [0.5, 2.0, 1.0, 0.25]

    @staticmethod
    def _observation(gen, seed=0):
        rng = np.random.default_rng(seed)
        N = gen.dimension
        return rng.standard_normal((2, N)) + 1j * rng.standard_normal((2, N))

    @pytest.mark.parametrize("gen", GENS, ids=["example26", "dense",
                                               "complex_diagonal"])
    def test_gramian_rule_matches_evaluate_T(self, gen):
        C = self._observation(gen)
        ref = sum(w * (C @ evaluate_T(gen, t)).conj().T @ (C @ evaluate_T(
            gen, t)) for t, w in zip(self.TS, self.WS))
        rule = gramian_rule(gen, C, self.TS, self.WS)
        assert rule.shape == (gen.dimension, gen.dimension)
        assert np.linalg.norm(rule - ref, 2) <= 1e-13 * np.linalg.norm(ref, 2)

    @pytest.mark.parametrize("gen", GENS, ids=["example26", "dense",
                                               "complex_diagonal"])
    def test_energy_integrals_are_the_gramian_form(self, gen):
        # int_0^inf T(t)^H C^H C T(t) dt = Q with A^H Q + Q A = -C^H C, so
        # every state's energy x^H Q x agrees too
        C = self._observation(gen, seed=1)
        Q = solve_lyapunov(gen.matrix, C.conj().T @ C)
        assert np.allclose(gramian(gen, C), Q, rtol=1e-9, atol=0.0)

    def test_dense_and_diagonal_storage_agree(self):
        lam = np.array([-1.0, -0.5 + 3j, -4.0])
        diag, dense = Generator.diagonal(lam), Generator.dense(np.diag(lam))
        C = self._observation(diag, seed=2)
        ts = np.linspace(0.0, 3.0, 7)
        ws = np.linspace(1.0, 2.0, 7)
        assert np.allclose(gramian_rule(diag, C, ts, ws),
                           gramian_rule(dense, C, ts, ws), rtol=1e-12)
        assert np.allclose(gramian(diag, C), gramian(dense, C), rtol=1e-9)

    def test_dense_evaluates_each_time_once(self, monkeypatch):
        gen = random_stable(4, 3)
        calls = []

        def counting(g, t):
            calls.append(t)
            return evaluate_T(g, t)

        monkeypatch.setattr(semigroup, "evaluate_T", counting)
        gramian_rule(gen, self._observation(gen), [0.5, 0.25, 1.0],
                     [1.0, 1.0, 1.0])
        assert calls == [0.5, 0.25, 1.0]

    @pytest.mark.parametrize("gen", GENS[:2], ids=["diagonal", "dense"])
    def test_gramian_rule_rejects_negative_times(self, gen):
        with pytest.raises(ValueError, match="nonnegative"):
            gramian_rule(gen, self._observation(gen), [0.5, -1.0],
                         [1.0, 1.0])


class TestOrbitAverage:
    def test_dense_matches_closed_form(self):
        # (1/t) int_0^t T(s) ds x = A^{-1}(T(t) - I) x / t, well conditioned
        # at t = 0.5
        gen = random_stable(6, 5)
        x = np.arange(1.0, 7.0) + 1j
        ref = np.linalg.solve(gen.matrix,
                              (evaluate_T(gen, 0.5) - np.eye(6)) @ x) / 0.5
        assert np.allclose(orbit_average(gen, 0.5) @ x, ref,
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
            assert np.allclose(orbit_average(gen, t) @ x, ref * x,
                               rtol=1e-12, atol=0.0)


class TestPanelQuadrature:
    def test_doubling_integrates_dense_semigroup(self):
        # int_0^H T(t) dt = A^{-1} (T(H) - I)
        gen = random_stable(4, 3)
        val, = mode_integrals(gen, [(0.0, 1)], 2.0)
        ref = np.linalg.solve(gen.matrix, evaluate_T(gen, 2.0) - np.eye(4))
        assert np.max(np.abs(val - ref)) < 1e-12

    @pytest.mark.parametrize(
        "gen", [random_stable(8, 8),
                Generator.diagonal([-1.0, -2.0 + 3j, -0.5 - 1j, -4.0])],
        ids=["dense", "complex_diagonal"])
    def test_one_step_start_is_the_closed_form(self, gen, monkeypatch):
        # on a horizon h with ||A|| h <= 1/2 there is no doubling, so the
        # Gramian and the alpha = 0 mode integral are their start series:
        # Q_inf - T(h)^H Q_inf T(h) and A^{-1} (T(h) - I)
        N = gen.dimension
        h = 0.5 / operator_norm(gen.matrix)
        assert semigroup._doublings(gen, h, 0.0) == 0
        C = np.eye(N) + 1j * np.arange(N * N).reshape(N, N) / N ** 2
        Q_inf = solve_lyapunov(gen.matrix, C.conj().T @ C)
        Th = evaluate_T(gen, h)
        monkeypatch.setattr(semigroup, "semigroup_bounds", lambda g, eps: h)
        ref = Q_inf - Th.conj().T @ Q_inf @ Th
        err = np.linalg.norm(gramian(gen, C) - ref)
        assert err <= 1e-14 * np.linalg.norm(ref)
        ref = np.linalg.solve(gen.matrix, Th - np.eye(N))
        err = np.linalg.norm(mode_integrals(gen, [(0.0, 1)], h)[0] - ref)
        assert err <= 1e-14 * np.linalg.norm(ref)

    def test_import_does_not_load_numpy_polynomial(self):
        # neither importing the package nor running the semigroup integrals
        # (the example26 Gramian, thm33's Gramians and the convolution
        # route of calculus_axioms) loads numpy.polynomial
        src = str(Path(hardycalc.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH"))
                               if p)
        code = ("import sys, hardycalc, hardycalc.cli as c\n"
                "for s in ('example26', 'thm33', 'calculus_axioms'):\n"
                "    c.run(c.ExperimentConfig(scenario=s))\n"
                "print('numpy.polynomial' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, timeout=60, check=True,
                             env=dict(os.environ, PYTHONPATH=path))
        assert out.stdout.splitlines()[-1] == "False"


class TestExample26:
    def test_structure(self):
        gen, C = example26(8)
        n = np.arange(1.0, 9.0)
        assert np.allclose(gen.eigenvalues, -(n ** 2))
        assert np.allclose(np.diag(C), n)

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            example26(0)


class TestRandomGenerators:
    def test_random_stable_is_stable(self):
        for seed in range(5):
            gen = random_stable(8, seed)
            eigs = np.linalg.eigvals(gen.matrix)
            assert np.max(eigs.real) < 0.0

    def test_random_stable_deterministic(self):
        a = random_stable(6, 42)
        b = random_stable(6, 42)
        assert np.array_equal(a.matrix, b.matrix)

    def test_random_dissipative_hermitian_part(self):
        for seed in range(5):
            gen = random_dissipative(6, seed)
            H = 0.5 * (gen.matrix + gen.matrix.conj().T)
            assert float(np.max(np.linalg.eigvalsh(H))) <= 1e-10

    def test_ill_conditioned_draw_raises_at_once(self, monkeypatch):
        # a similarity with cond(V) > 100 is refused, naming the seed,
        # after one draw: no silent re-draw under another seed
        draws = []
        dissipative = semigroup._dissipative_matrix

        def counted(rng, n):
            draws.append(n)
            return dissipative(rng, n)

        monkeypatch.setattr(semigroup, "_dissipative_matrix", counted)
        monkeypatch.setattr(semigroup, "operator_norm", lambda M: 1e3)
        with pytest.raises(StabilityError, match="seed 11 "):
            random_stable(6, 11)
        assert draws == [6]

    def test_distinct_seeds_differ(self):
        assert not np.array_equal(random_stable(6, 1).matrix,
                                  random_stable(6, 2).matrix)


class TestDenseScale:
    def test_n256_certifies(self):
        gen = random_stable(256, 8)
        assert gen.kind == "dense" and gen.dimension == 256
        assert np.array_equal(gen.certificate.P, np.eye(256))
        assert gen.certificate.margin > 0.0
        assert gen.decay_rate() > 0.0

    def test_thm33_n128_memory(self):
        # the n^2 x n^2 Kronecker system alone would take 4.3 GB here
        gen = random_stable(128, 8)
        tracemalloc.start()
        try:
            rep = check_thm33(gen, np.eye(128), BATTERY)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.passed
        assert peak < 128 * 2 ** 20

    @staticmethod
    def _traced(run):
        tracemalloc.start()
        try:
            return run(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # the oscillating damped string costs the doubling integrals O(N^2)
    # memory, as a smooth generator does
    def test_damped_string_thm33_n128_memory(self):
        gen = damped_string(64)
        rep, peak = self._traced(
            lambda: check_thm33(gen, np.eye(128), BATTERY))
        assert rep.passed
        assert peak < 16 * 2 ** 20

    def test_damped_string_gramian_n256_memory(self):
        gen = damped_string(128)
        gram, peak = self._traced(
            lambda: observability_gramian(gen, np.eye(256)))
        assert gram.quadrature_rel_error <= 1e-4
        assert peak < 32 * 2 ** 20


# (module, function) of every test of a generator's kind outside semigroup
ALLOWED_KIND_TESTS = sorted([
    ("admissibility", "_require_real_diagonal"),  # input guard
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


# (module, function) of every read of gen.eigenvalues outside semigroup;
# everything else reaches T(t) through the semigroup's evaluators
EIGENVALUE_READERS = sorted([
    ("admissibility", "_require_real_diagonal"),  # input guard
    ("admissibility", "sqrt_minus_A"),  # (-A)^{1/2} of a real spectrum
])


class _SemigroupReads(ast.NodeVisitor):
    """Underscore names taken from semigroup, and reads of gen.eigenvalues
    (a generator is named `gen` throughout the package)."""

    def __init__(self, module):
        self.module, self.scope = module, ["<module>"]
        self.private, self.eigenvalues = [], []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_ImportFrom(self, node):
        if (node.module or "").split(".")[-1] == "semigroup":
            self.private += [(self.module, a.name) for a in node.names
                             if a.name.startswith("_")]

    def visit_Attribute(self, node):
        if isinstance(node.value, ast.Name):
            if node.value.id == "semigroup" and node.attr.startswith("_"):
                self.private.append((self.module, node.attr))
            if node.value.id == "gen" and node.attr == "eigenvalues":
                self.eigenvalues.append((self.module, self.scope[-1]))
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

    def test_only_semigroup_evaluates_the_semigroup(self):
        # no private semigroup helper is used elsewhere, and outside
        # semigroup the eigenvalues are read once per allowed function
        private, reads = [], []
        for path in sorted(Path(hardycalc.__file__).parent.glob("*.py")):
            if path.name != "semigroup.py":
                visitor = _SemigroupReads(path.stem)
                visitor.visit(ast.parse(path.read_text()))
                private += visitor.private
                reads += visitor.eigenvalues
        assert private == []
        assert sorted(reads) == EIGENVALUE_READERS
