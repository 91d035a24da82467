"""Quick self-test of the benchmark's own arithmetic and checks.

    python3 bench/selftest.py

Covers the span self-time and count arithmetic on hand-made spans, and the
independent checks on cases with a known answer.  Runs in a few seconds
and exits non-zero on the first failure.
"""

from __future__ import annotations

import math
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402


def _tracer(rows, fft_points):
    """A Tracer holding the given (name, start, end, parent) spans."""
    t = spans.Tracer()
    for name, start, end, parent in rows:
        t.names.append(name)
        t.starts.append(start)
        t.ends.append(end)
        t.parents.append(parent)
    t.fft_points.update(fft_points)
    return t


def test_self_times():
    # parent [0, 10]; children overlap on [2, 3] and one runs past the end
    starts = [0.0, 1.0, 2.0, 8.0, 2.5]
    ends = [10.0, 3.0, 5.0, 12.0, 2.75]
    parents = [-1, 0, 0, 0, 2]
    got = spans.self_times(starts, ends, parents)
    # covered by children of 0: [1, 5] and [8, 10] -> 6
    want = [4.0, 2.0, 2.75, 4.0, 0.25]
    assert all(math.isclose(g, w) for g, w in zip(got, want)), got


def test_layer_metrics():
    t = _tracer([
        ("cli.scenario.thm33", 0.0, 10.0, -1),
        ("semigroup.semigroup_bounds", 1.0, 4.0, 0),      # miss
        ("numkernel.operator_norm", 1.5, 3.5, 1),
        ("numkernel.hermitian_eigs", 2.0, 3.0, 2),        # fallback
        ("semigroup.semigroup_bounds", 5.0, 5.5, 0),      # hit
        ("numkernel.hermitian_eigs", 6.0, 7.0, 0),        # not a fallback
        ("hardy.toeplitz_apply", 7.0, 8.0, 0),
    ], fft_points={6: 4096})
    m = spans.layer_metrics(t, run_s=10.5)
    assert m["semigroup.semigroup_bounds.calls"] == 2
    assert m["semigroup.semigroup_bounds.misses"] == 1
    assert math.isclose(m["semigroup.semigroup_bounds.self_s"], 1.0 + 0.5)
    assert math.isclose(m["semigroup.self_s"], 1.5)
    assert m["numkernel.operator_norm.jacobi_fallbacks"] == 1
    assert m["numkernel.hermitian_eigs.calls"] == 2
    assert math.isclose(m["numkernel.self_s"], 1.0 + 1.0 + 1.0)
    assert math.isclose(m["cli.self_s"], 10.0 - 3.0 - 0.5 - 1.0 - 1.0)
    assert math.isclose(m["cli.scenario.thm33_s"], 10.0)
    assert m["hardy.fft_points"] == 4096
    assert math.isclose(m["untraced_s"], 0.5)
    names = {n for n, _ in spans.metric_names()}
    assert set(m) == names, set(m) ^ names


def test_battery_sup_norms():
    """The closed-form sups match a dense sampling of the imaginary axis."""
    w = np.concatenate([[0.0], np.logspace(-6, 4, 20001)])
    s = 1j * w
    values = [1.0 / (1.0 - s), 1.0 / (3.0 - s),
              1.0 / ((1.0 - s) * (3.0 - s)), np.exp(0.5 * s),
              np.full_like(s, 0.7), 0.5 + 0.4 / (2.0 - s)]
    for (_, sup, _), v in zip(checks.BATTERY, values):
        assert math.isclose(float(np.max(np.abs(v))), sup, rel_tol=1e-12)


def test_battery_on_diagonal():
    """On a diagonal generator g(A) is g on the eigenvalues."""
    lam = np.array([-1.0, -2.0 + 3.0j, -0.5 - 1.0j])
    A = np.diag(lam)
    funcs = [lambda z: 1 / (1 - z), lambda z: 1 / (3 - z),
             lambda z: 1 / ((1 - z) * (3 - z)), lambda z: np.exp(0.5 * z),
             lambda z: 0.7 + 0 * z, lambda z: 0.5 + 0.4 / (2 - z)]
    for (_, sup, _), f, ratio in zip(checks.BATTERY, funcs,
                                     checks.norm_ratios(A)):
        assert math.isclose(ratio, np.max(np.abs(f(lam))) / sup,
                            rel_tol=1e-12)


def test_gramian_constants():
    """Example 2.6: the Gramian is I/2, so both constants are 1/2."""
    A, C = checks.example26(12)
    m_adm, m_exact = checks.gramian_constants(A, C)
    assert abs(m_adm - 0.5) < 1e-14 and abs(m_exact - 0.5) < 1e-14


def test_samplers():
    """The rebuilt inputs have the documented structure."""
    A = checks.dissipative(8, 3)
    herm = np.linalg.eigvalsh(-(A + A.conj().T) / 2.0)
    assert 2.5 - 1e-12 <= herm[0] and herm[-1] <= 4.0 + 1e-12
    S = checks.stable(8, 3)
    assert np.max(np.linalg.eigvals(S).real) < 0


def test_disagreement_detected():
    """A report whose ratio is off is named, and only passed checks count."""

    class Report:
        def __init__(self, name, ratio, passed=True):
            self.name, self.passed = name, passed
            self.details = {"von_neumann_ratio": ratio}

    n, seed = 4, 11
    true_ratio = max(checks.norm_ratios(checks.dissipative(n, seed)))
    good = Report(f"cor33a[n{n:02d}_seed{seed}]", true_ratio)
    bad = Report(f"cor33a[n{n:02d}_seed{seed}]", true_ratio * 1.001)
    assert not [d for d in checks.check_von_neumann(seed, [good])
                if d["check"] == good.name]
    found = checks.check_von_neumann(seed, [bad])
    assert any(d["check"] == bad.name and d["what"] == "von_neumann_ratio"
               for d in found)
    assert checks.failed_by_disagreement({"von_neumann": [bad]}, found) == 1
    bad.passed = False
    assert checks.failed_by_disagreement({"von_neumann": [bad]}, found) == 0


def test_toeplitz_closed_form():
    """M_g e^{-2t} = e^{-2t}/3 for g = 1/(1-s) on a short grid."""
    assert checks.toeplitz_exp_error(4096, 2.0 ** -6) < 1e-6


def main():
    tests = [(n, f) for n, f in sorted(globals().items())
             if n.startswith("test_") and callable(f)]
    for name, fn in tests:
        fn()
        print(f"ok {name}")
    print(f"{len(tests)} passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
